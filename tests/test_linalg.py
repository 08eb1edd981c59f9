"""Guarded rank decisions: kernels, spans and the guard band."""

import numpy as np
import pytest

from spinorlab import linalg
from spinorlab.linalg import (
    RankAmbiguityError,
    guarded_rank,
    nullspace,
    orthonormal_span,
)


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@pytest.mark.parametrize("rows,cols,rank", [(3, 8, 2), (40, 6, 4)],
                         ids=["wide", "tall"])
def test_nullspace_is_orthonormal_kernel(rows, cols, rank):
    a = _low_rank(rows, cols, rank, seed=rows)
    n = nullspace(a, "test kernel")
    assert n.shape == (cols, cols - rank)
    assert np.abs(a @ n).max() < 1e-12
    assert np.allclose(n.T @ n, np.eye(cols - rank), atol=1e-14)


def test_nullspace_of_zero_matrix_is_everything():
    assert np.array_equal(nullspace(np.zeros((2, 3))), np.eye(3))


def test_orthonormal_span_of_dependent_rows():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((2, 5))
    vectors = [base[0], base[1], base[0] - 2.0 * base[1], 3.0 * base[0]]
    span = orthonormal_span(vectors, "test span")
    assert span.shape == (2, 5)
    assert np.allclose(span @ span.T, np.eye(2), atol=1e-14)
    for v in vectors:
        assert linalg.projection_residual(v, span) < 1e-13


AMBIGUOUS = np.diag([1.0, 1e-7, 0.0])


@pytest.mark.parametrize("decide", [
    lambda m: guarded_rank(m, "ambiguous"),
    lambda m: nullspace(m, "ambiguous"),
    lambda m: orthonormal_span(list(m), "ambiguous"),
], ids=["guarded_rank", "nullspace", "orthonormal_span"])
def test_ratio_inside_guard_band_is_refused(decide):
    with pytest.raises(RankAmbiguityError, match=r"ambiguous: singular value ratio 1\.000e-07"):
        decide(AMBIGUOUS)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(mat, *args, **kwargs):
        calls.append(kwargs)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("decide", [
    lambda m: guarded_rank(m),
    lambda m: nullspace(m),
    lambda m: orthonormal_span(list(m)),
], ids=["guarded_rank", "nullspace", "orthonormal_span"])
@pytest.mark.parametrize("shape", [(3, 8), (40, 6)], ids=["wide", "tall"])
def test_one_svd_per_decision(svd_calls, decide, shape):
    decide(_low_rank(*shape, rank=2, seed=7))
    assert len(svd_calls) == 1


def test_tall_nullspace_builds_no_full_u(svd_calls):
    nullspace(_low_rank(40, 6, 4, seed=8))
    nullspace(_low_rank(3, 8, 2, seed=9))
    assert [kw.get("full_matrices") for kw in svd_calls] == [False, True]
