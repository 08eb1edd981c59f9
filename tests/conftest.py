"""Fixtures shared by the test modules."""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from spinorlab.jets import JetSeries


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


@pytest.fixture(scope="session")
def fraction_reader():
    """Read a spec function as one Fraction per coefficient, summed by exponents.

    An oracle for ``geometry.function_from_spec`` on well-formed input: the
    exponents are the key's digit runs, and the series is taken to the
    table's total degree.
    """

    def read(fd):
        table = {}
        for key, val in fd["coefficients"].items():
            exps = tuple(int(s) for s in re.findall(r"[0-9]+", str(key)))
            table[exps] = table.get(exps, 0) + Fraction(val)
        return JetSeries(fd["arity"], max(map(sum, table), default=0), table)

    return read
