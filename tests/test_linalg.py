"""Guarded rank decisions: kernels, spans and the guard band."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import linalg
from spinorlab.linalg import (
    RankAmbiguityError,
    block_rank,
    block_span,
    constrained_span,
    guarded_rank,
    nullspace,
    orthonormal_span,
    real_flat,
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


def test_orthonormal_span_of_nothing_names_its_label():
    with pytest.raises(ValueError, match="empty stabilizer: no vectors to span"):
        orthonormal_span([], "empty stabilizer")


AMBIGUOUS = np.diag([1.0, 1e-7, 0.0])


@pytest.mark.parametrize("decide", [
    lambda m: guarded_rank(m, "ambiguous"),
    lambda m: nullspace(m, "ambiguous"),
    lambda m: orthonormal_span(list(m), "ambiguous"),
    lambda m: block_rank(m, "ambiguous"),
    lambda m: block_span(list(m), "ambiguous"),
], ids=["guarded_rank", "nullspace", "orthonormal_span", "block_rank", "block_span"])
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


# ---------------------------------------------------------------------------
# Block by block: one SVD per independent block, one guard band over all


def _permuted_blocks(shapes, seed):
    """Block-diagonal matrix of random low-rank blocks, rows and columns shuffled.

    Returns the matrix and the column indices of each block after the shuffle.
    """
    rng = np.random.default_rng(seed)
    rows, cols = sum(s[0] for s in shapes), sum(s[1] for s in shapes)
    m = np.zeros((rows, cols))
    col_sets = []
    r0 = c0 = 0
    for r, c, k in shapes:
        m[r0:r0 + r, c0:c0 + c] = rng.standard_normal((r, k)) @ rng.standard_normal((k, c))
        col_sets.append(np.arange(c0, c0 + c))
        r0, c0 = r0 + r, c0 + c
    prow, pcol = rng.permutation(rows), rng.permutation(cols)
    where = np.argsort(pcol)
    return m[prow][:, pcol], [set(where[cs]) for cs in col_sets]


BLOCK_SHAPES = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6)).map(
        lambda t: (t[0], t[1], min(t[2], t[0], t[1]))),
    min_size=1, max_size=5)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shapes=BLOCK_SHAPES, seed=st.integers(0, 2**32 - 1))
def test_block_rank_and_span_match_the_dense_decision(shapes, seed):
    m, col_sets = _permuted_blocks(shapes, seed)
    try:
        rank = guarded_rank(m, "blocks")
        dense = orthonormal_span(list(m), "blocks")
    except RankAmbiguityError:
        with pytest.raises(RankAmbiguityError):
            block_rank(m, "blocks")
        with pytest.raises(RankAmbiguityError):
            block_span(list(m), "blocks")
        return
    assert block_rank(m, "blocks") == rank
    span = block_span(list(m), "blocks")
    assert span.shape == dense.shape == (rank, m.shape[1])
    assert np.allclose(span @ span.T, np.eye(rank), atol=1e-12)
    for row in span:
        support = set(np.flatnonzero(row))
        assert any(support <= cs for cs in col_sets)
    for v in dense:
        assert linalg.projection_residual(v, span) < 1e-10
    for v in span:
        assert linalg.projection_residual(v, dense) < 1e-10


def test_blocks_skip_zero_rows_and_columns():
    m = np.zeros((4, 5))
    m[1, 3] = 2.0
    m[3, 0] = m[3, 2] = 1.0
    assert [(list(r), list(c)) for r, c in linalg._blocks(m)] == [([1], [3]), ([3], [0, 2])]
    assert block_rank(np.zeros((3, 2))) == 0
    assert block_span([np.zeros(4)]).shape == (0, 4)


def test_guard_band_is_global_across_blocks():
    # each block alone is well conditioned; together the second block's
    # values sit near 1e-7 of the largest, inside the band
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([[1.0, 0.5], [0.2, 1.0]])
    m = np.zeros((4, 4))
    m[:2, :2], m[2:, 2:] = a, 1e-7 * b
    with pytest.raises(RankAmbiguityError, match="global: singular value ratio"):
        block_rank(m, "global")
    with pytest.raises(RankAmbiguityError, match="global: singular value ratio"):
        block_span(list(m), "global")


def test_constrained_span_without_constraints_is_the_units():
    units = np.eye(9).reshape(9, 3, 3)
    assert constrained_span(units, [], "all") is units


def _complex_units(n):
    e = np.eye(n * n).reshape(n * n, n, n)
    return np.concatenate([e, 1j * e])


@pytest.mark.parametrize("units, constraints, dim", [
    # symmetric traceless 3x3 matrices in a random basis of all 3x3 ones
    (np.random.default_rng(4).standard_normal((9, 3, 3)),
     [lambda m: m - m.T, lambda m: np.array([np.trace(m)])], 5),
    # u(2): complex 2x2 matrices with m + m^* = 0
    (_complex_units(2), [lambda m: m + m.conj().T], 4),
], ids=["real", "complex"])
def test_constrained_span_is_the_kernel_of_the_stacked_images(units, constraints, dim):
    got = constrained_span(units, constraints, "test span")
    assert got.shape == (dim, *units.shape[1:]) and got.dtype == units.dtype
    images = np.column_stack(
        [np.concatenate([real_flat(c(u)) for c in constraints]) for u in units])
    kernel = nullspace(images, "test kernel")
    assert np.allclose(got, np.tensordot(kernel, units, axes=(0, 0)), atol=1e-14)
    for m in got:
        for c in constraints:
            assert np.abs(c(m)).max() < 1e-12


def test_constrained_span_dimension_in_each_caller():
    from spinorlab import clifford, octospin, orbits

    for name in orbits.MODEL_NAMES:
        model = orbits.get_model(name)
        n = sum(model.signature)
        assert len(model.lie_basis) == n * (n - 1) // 2
        assert model.vector_space.dim == n
    forms = {sig: len(clifford.spin_representation(*sig).invariant_forms())
             for sig in [(3, 2), (4, 2), (3, 3), (4, 3), (4, 4)]}
    assert forms == {(3, 2): 0, (4, 2): 1, (3, 3): 1, (4, 3): 1, (4, 4): 2}
    assert len(octospin.unit_stabilizer_basis()) == 21
