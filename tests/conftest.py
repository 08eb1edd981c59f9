"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from scipy.linalg import expm


@pytest.fixture
def sample_group():
    """Draw an orbit model's group element: exp of a random Lie algebra element."""

    def sample(model, rng, scale=0.3):
        coeffs = rng.normal(size=len(model.lie_basis)) * scale
        m = np.zeros_like(model.lie_basis[0])
        for c, a in zip(coeffs, model.lie_basis):
            m = m + c * a
        return expm(m)

    return sample


@pytest.fixture
def svd_cells(monkeypatch):
    """The number of cells of each matrix handed to ``np.linalg.svd`` during the test."""
    cells = []
    svd = np.linalg.svd

    def counted(mat, *args, **kwargs):
        cells.append(np.asarray(mat).size)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return cells
