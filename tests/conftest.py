"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from scipy.linalg import expm


@pytest.fixture
def sample_group():
    """Draw an orbit model's group element: exp of ``model.sample_algebra(rng, scale)``."""

    def sample(model, rng, scale=0.3):
        return expm(model.sample_algebra(rng, scale))

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
