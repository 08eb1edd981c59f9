"""Guarded rank decisions: kernels, spans and the guard band."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from spinorlab import linalg
from spinorlab.linalg import (
    RankAmbiguityError,
    Triples,
    block_kernel,
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
    lambda m: block_kernel(m, "ambiguous"),
], ids=["guarded_rank", "nullspace", "orthonormal_span", "block_rank", "block_span",
        "block_kernel"])
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
        with pytest.raises(RankAmbiguityError):
            block_kernel(m, "blocks")
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
    kernel = block_kernel(m, "blocks")
    assert kernel.shape == (m.shape[1], m.shape[1] - rank)
    assert np.allclose(kernel.T @ kernel, np.eye(m.shape[1] - rank), atol=1e-12)
    assert np.abs(m @ kernel).max(initial=0.0) < 1e-10
    for col in kernel.T:
        support = set(np.flatnonzero(col))
        assert any(support <= cs for cs in col_sets)


def test_triples_and_dense_array_take_one_route():
    m, _ = _permuted_blocks([(4, 3, 2), (2, 5, 1), (3, 3, 3)], seed=5)
    r, c = np.nonzero(m)
    # each cell split in two halves, in reverse order, with explicit zeros
    # and a cancelling pair on a cell the dense array leaves empty
    t = Triples(np.r_[r, r, 0, 1, 1][::-1], np.r_[c, c, 0, 2, 2][::-1],
                np.r_[m[r, c] / 2, m[r, c] / 2, 0.0, 1.0, -1.0][::-1], m.shape)
    assert block_rank(t) == block_rank(m)
    assert np.array_equal(block_kernel(t), block_kernel(m))
    assert [(list(a), list(b)) for a, b in linalg._blocks(linalg._triples(t))] == \
        [(list(a), list(b)) for a, b in linalg._blocks(linalg._triples(m))]


def test_blocks_skip_zero_rows_and_columns():
    # the cells of m[1, 3] = 2 and m[3, 0] = m[3, 2] = 1, one of them listed
    # in two parts, beside an explicit zero and a pair that cancels
    m = Triples(np.array([1, 3, 3, 0, 2, 2, 3]), np.array([3, 0, 2, 1, 4, 4, 0]),
                np.array([2.0, 0.5, 1.0, 0.0, 1.0, -1.0, 0.5]), (4, 5))
    assert [(list(r), list(c)) for r, c in linalg._blocks(linalg._triples(m))] == \
        [([1], [3]), ([3], [0, 2])]
    assert block_rank(np.zeros((3, 2))) == 0
    assert block_span([np.zeros(4)]).shape == (0, 4)
    # the row (1, 1) on columns 0 and 2 leaves one kernel vector, then the
    # untouched columns 1 and 4
    kernel = block_kernel(m)
    assert np.allclose(np.abs(kernel[:, 0]), np.array([1, 0, 1, 0, 0]) / np.sqrt(2), atol=1e-15)
    assert np.array_equal(kernel[:, 1:], np.eye(5)[:, [1, 4]])


def _scipy_blocks(t):
    """The blocks of nonzero triples by scipy's connected components, least node first."""
    nrows, ncols = t.shape
    graph = coo_matrix((np.ones(t.rows.size), (t.rows, nrows + t.cols)),
                       shape=(nrows + ncols, nrows + ncols))
    count, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(count + 1))
    out = []
    for k in range(count):
        nodes = order[bounds[k]:bounds[k + 1]]
        rows, cols = nodes[nodes < nrows], nodes[nodes >= nrows] - nrows
        if rows.size and cols.size:
            out.append((rows.tolist(), cols.tolist()))
    return out


def _bianchi_triples(mats, n):
    """First Bianchi map on h tensor Lambda^2, R(x, y)z + cyclic, as triples.

    Row t n + a is component a on triple t, column alpha C(n, 2) + f basis
    element alpha on pair f; the face without T_s takes (-1)^s h_alpha[a, T_s].
    Each nonzero cell is listed once.
    """
    from spinorlab import geometry

    row, face, removed, sign = geometry._faces(n, 3)
    npairs = n * (n - 1) // 2
    values = sign[..., None] * np.stack(mats)[:, :, removed].transpose(0, 2, 3, 1)
    alpha, t, s, a = np.nonzero(values)
    return Triples(row[t, s] * n + a, alpha * npairs + face[t, s], values[alpha, t, s, a],
                   (n * len(row), len(mats) * npairs))


def _bianchi_case(n):
    from spinorlab import geometry, octospin

    if n == 11:
        mats = [e.rho for e in octospin.null_stabilizer_basis()]
        mats = list(block_span(mats).reshape(-1, n, n))
    else:
        mats = geometry.so_basis(n)
    return _bianchi_triples(mats, n)


def _form_case(sig):
    from spinorlab import clifford

    return clifford._form_constraints(clifford.spin_representation(*sig).so_basis)


def _random_case(seed):
    # repeated cells, explicit zeros and cancelling pairs, at several densities
    rng = np.random.default_rng(seed)
    nrows, ncols = rng.integers(1, 40, size=2)
    count = int(rng.integers(0, 2 * (nrows + ncols)))
    rows, cols = rng.integers(0, nrows, count), rng.integers(0, ncols, count)
    values = rng.standard_normal(count) * (rng.random(count) > 0.2)
    return Triples(np.r_[rows, rows[:3]], np.r_[cols, cols[:3]],
                   np.r_[values, -values[:3]], (nrows, ncols))


def _path_case(order):
    # rows and columns alternate along one path of 2,000 nodes: row i meets
    # columns i - 1 and i; "shuffled" numbers both sides at random
    n = 1000
    rows, cols = np.r_[np.arange(n), np.arange(1, n)], np.r_[np.arange(n), np.arange(n - 1)]
    if order == "reversed":
        rows, cols = n - 1 - rows, n - 1 - cols
    elif order == "shuffled":
        rng = np.random.default_rng(17)
        rows, cols = rng.permutation(n)[rows], rng.permutation(n)[cols]
    return Triples(rows, cols, np.ones(rows.size), (n, n))


def _empty_case(shape):
    return Triples(np.zeros(0, int), np.zeros(0, int), np.zeros(0), shape)


BLOCK_CASES = {
    **{f"bianchi so({n})": (_bianchi_case, n) for n in (3, 4, 5)},
    "bianchi null stabilizer": (_bianchi_case, 11),
    **{f"spinor forms {sig}": (_form_case, sig)
       for sig in [(3, 3), (4, 3), (4, 4), (7, 0), (8, 0)]},
    **{f"random {seed}": (_random_case, seed) for seed in range(40)},
    **{f"path {order}": (_path_case, order) for order in ("ascending", "reversed", "shuffled")},
    **{f"empty {shape}": (_empty_case, shape) for shape in [(0, 0), (0, 5), (5, 0)]},
    "all-zero triples": (lambda shape: Triples(np.array([0, 2, 2]), np.array([1, 3, 3]),
                                               np.array([0.0, 1.0, -1.0]), shape), (3, 4)),
    "all-zero array": (np.zeros, (3, 4)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_match_scipy_connected_components(case):
    build, arg = BLOCK_CASES[case]
    t = linalg._triples(build(arg))
    got = [(r.tolist(), c.tolist()) for r, c in linalg._blocks(t)]
    assert got == _scipy_blocks(t)
    if case.startswith("path"):
        assert len(got) == 1 and len(got[0][0]) + len(got[0][1]) == 2000
    if case.startswith(("empty", "all-zero")):
        assert got == []


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
