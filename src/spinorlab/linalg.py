"""Shared numerical linear algebra: guarded rank decisions, spans, brackets.

Rank decisions are deliberately conservative.  Singular values are
normalized by the largest one and compared against a hard threshold;
values falling inside the ambiguous guard band abort the computation
instead of silently rounding a dimension up or down.  Each decision is
one SVD, and a kernel or span is read from the same factorization.

Large sparse operators are passed as ``Triples`` (rows, columns, values, a
shape; a repeated cell holds the sum of its values) and never formed
densely; a dense array is read through one ``np.nonzero``.  ``block_rank``,
``block_span`` and ``block_kernel`` find the independent blocks (connected
components of the rows and columns that share a cell, by min-label
propagation with pointer jumping, numpy only), gather each with rows and
columns ascending and take one SVD per block (thin for a tall one), under
one guard band over all blocks.  ``block_kernel`` returns each block's
trailing right singular vectors, then one unit vector per column that no
block touches.  The small dense solves (orbit-model algebras and vector
spaces, the octonion unit stabilizer) stay on ``constrained_span``: the
combinations of a stacked basis that the linear constraints kill, from
one guarded nullspace.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

import numpy as np

# Normalized singular values below GUARD_LO count as zero, above GUARD_HI
# as nonzero.  Anything in between is refused.
GUARD_LO = 1e-9
GUARD_HI = 1e-5
SPAN_TOL = 1e-9  # a matrix whose residual exceeds SPAN_TOL max(1, |matrix|) leaves a span
CLOSURE_SWEEPS = 10  # bracket_closure stops after this many sweeps


class RankAmbiguityError(RuntimeError):
    """A singular value fell inside the guard band; rank is not trustworthy."""


def _band_rank(sv: np.ndarray, label: str) -> int:
    """Count of the singular values ``sv`` (descending) that are nonzero.

    Each value is normalized by the largest one; a ratio inside the guard
    band is refused.
    """
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    rel = sv / sv[0]
    bad = rel[(rel > GUARD_LO) & (rel < GUARD_HI)]
    if bad.size:
        raise RankAmbiguityError(
            f"{label}: singular value ratio {bad[0]:.3e} inside guard band "
            f"[{GUARD_LO:g}, {GUARD_HI:g}]"
        )
    return int(np.count_nonzero(rel >= GUARD_HI))


class Triples(NamedTuple):
    """A sparse operator: ``values[k]`` at row ``rows[k]``, column ``cols[k]``.

    A cell listed more than once holds the sum of its values.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]


def _triples(op) -> Triples:
    """``op`` with each nonzero cell once, in row-major order.

    A dense array goes through one ``np.nonzero``.  Triples have their
    repeated cells summed in the order given, and cells that sum to zero
    dropped, so both give the cells ``np.nonzero`` finds in the dense sum.
    """
    if not isinstance(op, Triples):
        m = np.asarray(op, dtype=float)
        r, c = np.nonzero(m)
        return Triples(r, c, m[r, c], m.shape)
    nrows, ncols = op.shape
    values = np.ravel(op.values)
    listed = values != 0
    flat = np.ravel(op.rows)[listed].astype(np.intp) * ncols + np.ravel(op.cols)[listed]
    cells, at = np.unique(flat, return_inverse=True)
    values = np.bincount(at, weights=values[listed], minlength=cells.size)
    keep = values != 0
    return Triples(*np.divmod(cells[keep], ncols), values[keep], (nrows, ncols))


def _blocks(op: Triples) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column indices of the independent blocks of nonzero triples.

    Rows and columns that share a cell belong to the same block; a row or
    column with no cell belongs to none.  Each node of the bipartite
    row/column graph takes the least node it reaches, by min-label
    propagation along the cells with pointer jumping; blocks come out in
    the order of their least node, rows and columns ascending.
    """
    nrows = op.shape[0]
    u, v = op.rows, nrows + op.cols
    label = np.arange(nrows + op.shape[1])
    while True:
        hooked = label.copy()
        low = np.minimum(label[u], label[v])
        np.minimum.at(hooked, u, low)
        np.minimum.at(hooked, v, low)
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    nodes = np.union1d(u, v)
    if not nodes.size:
        return []
    nodes = nodes[np.argsort(label[nodes], kind="stable")]
    groups = np.split(nodes, np.flatnonzero(np.diff(label[nodes])) + 1)
    return [(g[g < nrows], g[g >= nrows] - nrows) for g in groups]


def _gathered(op: Triples) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each independent block of nonzero triples as (rows, columns, dense block)."""
    blocks = _blocks(op)
    owner = np.empty(op.shape[0], dtype=np.intp)
    for k, (rows, _) in enumerate(blocks):
        owner[rows] = k
    of_cell = owner[op.rows]
    order = np.argsort(of_cell, kind="stable")
    bounds = np.searchsorted(of_cell[order], np.arange(len(blocks) + 1))
    for k, (rows, cols) in enumerate(blocks):
        at = order[bounds[k]:bounds[k + 1]]
        block = np.zeros((rows.size, cols.size))
        block[np.searchsorted(rows, op.rows[at]), np.searchsorted(cols, op.cols[at])] = op.values[at]
        yield rows, cols, block


def _kept(values: list[np.ndarray], label: str) -> list[int]:
    """How many of each block's singular values one guard band over all blocks keeps."""
    merged = np.sort(np.concatenate(values or [np.empty(0)]))[::-1]
    rank = _band_rank(merged, label)
    # the kept values are exactly those at least the smallest kept one
    cut = merged[rank - 1] if rank else np.inf
    return [int(np.count_nonzero(sv >= cut)) for sv in values]


def block_rank(op, label: str = "matrix") -> int:
    """``guarded_rank`` of a dense array or ``Triples``, one SVD per independent block.

    The blocks' singular values together are those of the operator, and the
    guard band is applied to them relative to the largest overall.
    """
    sv = [np.linalg.svd(b, compute_uv=False) for _, _, b in _gathered(_triples(op))]
    return sum(_kept(sv, label))


def _placed(parts: list[tuple[np.ndarray, np.ndarray]], ncols: int) -> np.ndarray:
    """The rows of each (columns, rows) part set on its columns, parts stacked in order."""
    out = np.zeros((sum(len(rows) for _, rows in parts), ncols))
    done = 0
    for cols, rows in parts:
        out[done:done + len(rows), cols] = rows
        done += len(rows)
    return out


def block_span(vectors: list[np.ndarray], label: str = "span") -> np.ndarray:
    """Orthonormal row basis for the span of flattened arrays, block by block.

    Spans the same space as ``orthonormal_span``, but each row is supported
    on the columns of one independent block of the stacked vectors.
    """
    if len(vectors) == 0:
        raise ValueError(f"{label}: no vectors to span")
    rows = np.asarray(vectors, dtype=float).reshape(len(vectors), -1)
    factors = [(cols, *np.linalg.svd(b, full_matrices=False)[1:])
               for _, cols, b in _gathered(_triples(rows))]
    kept = _kept([sv for _, sv, _ in factors], label)
    return _placed([(cols, vt[:keep]) for (cols, _, vt), keep in zip(factors, kept)],
                   rows.shape[1])


def block_kernel(op, label: str = "matrix") -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a dense array or ``Triples``.

    Each independent block gives its trailing right singular vectors on its
    own columns, under one guard band over all blocks; a column that no
    block touches is a kernel vector of its own, after those of the blocks.
    """
    t = _triples(op)
    # a tall block's thin vt is already square; only a wide one needs the
    # full factor to reach its kernel
    factors = [(cols, *np.linalg.svd(b, full_matrices=b.shape[0] < b.shape[1])[1:])
               for _, cols, b in _gathered(t)]
    kept = _kept([sv for _, sv, _ in factors], label)
    parts = [(cols, vt[keep:]) for (cols, _, vt), keep in zip(factors, kept)]
    free = np.ones(t.shape[1], dtype=bool)
    for cols, _ in parts:
        free[cols] = False
    parts.append((np.flatnonzero(free), np.eye(np.count_nonzero(free))))
    return _placed(parts, t.shape[1]).T


def guarded_rank(mat: np.ndarray, label: str = "matrix") -> int:
    """Numerical rank of ``mat`` with a guard band around the threshold."""
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return 0
    return _band_rank(np.linalg.svd(m, compute_uv=False), label)


def nullspace(mat: np.ndarray, label: str = "matrix") -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, guard-banded like guarded_rank."""
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return np.eye(m.shape[1] if m.ndim == 2 else 0)
    # a tall matrix's thin vt is already square; only a wide one needs the
    # full factor to reach its kernel
    _, sv, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vt[_band_rank(sv, label):].T.copy()


def constrained_span(
    units: np.ndarray,
    constraints: list[Callable[[np.ndarray], np.ndarray]],
    label: str = "constrained span",
) -> np.ndarray:
    """Basis of the span of ``units`` that every linear constraint kills.

    ``units`` stacks a real basis of the space searched along its first
    axis.  The kernel of the constraints' column-stacked images is one
    guarded ``nullspace`` decision; the result stacks the corresponding
    combinations of the units the same way.
    """
    if not constraints:
        return units
    cols = [np.concatenate([real_flat(c(u)) for c in constraints]) for u in units]
    return np.tensordot(nullspace(np.column_stack(cols), label), units, axes=(0, 0))


def span_dimension(vectors: list[np.ndarray] | np.ndarray, label: str = "span") -> int:
    """Dimension of the real span of a family of arrays (flattened rows)."""
    if len(vectors) == 0:
        return 0
    rows = np.stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    return guarded_rank(rows, label)


def orthonormal_span(vectors: list[np.ndarray], label: str = "span") -> np.ndarray:
    """Orthonormal row basis for the span of flattened arrays."""
    if len(vectors) == 0:
        raise ValueError(f"{label}: no vectors to span")
    rows = np.stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:_band_rank(sv, label)].copy()


def projection_residual(vec: np.ndarray, basis_rows: np.ndarray) -> float:
    """Distance from ``vec`` to the row span of an orthonormal ``basis_rows``."""
    v = np.asarray(vec, dtype=float).ravel()
    if basis_rows.size == 0:
        return float(np.linalg.norm(v))
    coeff = basis_rows @ v
    return float(np.linalg.norm(v - basis_rows.T @ coeff))


def real_flat(v: np.ndarray) -> np.ndarray:
    """Flatten an array over R, splitting complex entries into (real, imag)."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return np.concatenate([v.real.ravel(), v.imag.ravel()])
    return np.asarray(v, dtype=float).ravel()


class MatrixSpan:
    """Real span of structured arrays with coefficient round-tripping."""

    def __init__(self, basis: list[np.ndarray], label: str):
        self.basis = [np.asarray(b) for b in basis]
        self.label = label
        self._stack = np.column_stack([real_flat(b) for b in self.basis])
        self._pinv = np.linalg.pinv(self._stack)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(
                f"{self.label}: expected {self.dim} coefficients, got shape"
                f" {coeffs.shape}"
            )
        m = np.zeros_like(self.basis[0])
        for c, b in zip(coeffs, self.basis):
            m = m + c * b
        return m

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        target = real_flat(mat)
        coeffs = self._pinv @ target
        residual = float(np.linalg.norm(self._stack @ coeffs - target))
        if residual > SPAN_TOL * max(1.0, float(np.linalg.norm(target))):
            raise ValueError(
                f"{self.label}: matrix leaves the span (residual {residual:.2e})"
            )
        return coeffs


def bracket_closure(
    mats: list[np.ndarray], label: str = "bracket closure"
) -> tuple[list[np.ndarray], int]:
    """Close a list of square matrices under commutators.

    Returns an orthonormal basis (as matrices) of the generated Lie algebra
    together with the number of sweeps used.  Stops when the span stops
    growing or after ``CLOSURE_SWEEPS`` sweeps.
    """
    if not mats:
        return [], 0
    n = mats[0].shape[0]
    basis = orthonormal_span(mats, label)
    sweeps = 0
    while sweeps < CLOSURE_SWEEPS:
        sweeps += 1
        cur = [row.reshape(n, n) for row in basis]
        new = list(cur)
        for i, a in enumerate(cur):
            for b in cur[i + 1:]:
                new.append(a @ b - b @ a)
        grown = orthonormal_span(new, label)
        if grown.shape[0] == basis.shape[0]:
            return [row.reshape(n, n) for row in grown], sweeps
        basis = grown
    return [row.reshape(n, n) for row in basis], sweeps
