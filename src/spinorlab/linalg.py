"""Shared numerical linear algebra: guarded rank decisions, spans, brackets.

Rank decisions are deliberately conservative.  Singular values are
normalized by the largest one and compared against a hard threshold;
values falling inside the ambiguous guard band abort the computation
instead of silently rounding a dimension up or down.  Each decision is
one SVD, and a kernel or span is read from the same factorization.
"""

from __future__ import annotations

import numpy as np

# Normalized singular values below GUARD_LO count as zero, above GUARD_HI
# as nonzero.  Anything in between is refused.  The nominal split point
# RANK_TOL sits inside the band and is reported in diagnostics.
RANK_TOL = 1e-7
GUARD_LO = 1e-9
GUARD_HI = 1e-5


class RankAmbiguityError(RuntimeError):
    """A singular value fell inside the guard band; rank is not trustworthy."""


def _guarded_svd(
    m: np.ndarray, label: str, vectors: bool = True, full_matrices: bool = False
) -> tuple[int, np.ndarray | None]:
    """Guard-banded rank of ``m`` and its ``vt`` factor, from one SVD.

    With ``vectors=False`` only singular values are computed and ``vt`` is
    None.
    """
    if vectors:
        _, sv, vt = np.linalg.svd(m, full_matrices=full_matrices)
    else:
        sv, vt = np.linalg.svd(m, compute_uv=False), None
    if sv.size == 0 or sv[0] == 0.0:
        return 0, vt
    rel = sv / sv[0]
    bad = rel[(rel > GUARD_LO) & (rel < GUARD_HI)]
    if bad.size:
        raise RankAmbiguityError(
            f"{label}: singular value ratio {bad[0]:.3e} inside guard band "
            f"[{GUARD_LO:g}, {GUARD_HI:g}]"
        )
    return int(np.count_nonzero(rel >= GUARD_HI)), vt


def guarded_rank(mat: np.ndarray, label: str = "matrix") -> int:
    """Numerical rank of ``mat`` with a guard band around the threshold."""
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return 0
    return _guarded_svd(m, label, vectors=False)[0]


def nullspace(mat: np.ndarray, label: str = "matrix") -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, guard-banded like guarded_rank."""
    m = np.asarray(mat, dtype=float)
    if m.size == 0:
        return np.eye(m.shape[1] if m.ndim == 2 else 0)
    # a tall matrix's thin vt is already square; only a wide one needs the
    # full factor to reach its kernel
    rank, vt = _guarded_svd(m, label, full_matrices=m.shape[0] < m.shape[1])
    return vt[rank:].T.copy()


def span_dimension(vectors: list[np.ndarray] | np.ndarray, label: str = "span") -> int:
    """Dimension of the real span of a family of arrays (flattened rows)."""
    if len(vectors) == 0:
        return 0
    rows = np.stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    return guarded_rank(rows, label)


def orthonormal_span(vectors: list[np.ndarray], label: str = "span") -> np.ndarray:
    """Orthonormal row basis for the span of flattened arrays."""
    rows = np.stack([np.asarray(v, dtype=float).ravel() for v in vectors])
    rank, vt = _guarded_svd(rows, label)
    return vt[:rank].copy()


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

    def __init__(self, basis: list[np.ndarray], label: str, tol: float = 1e-9):
        self.basis = [np.asarray(b) for b in basis]
        self.label = label
        self.tol = tol
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
        if residual > self.tol * max(1.0, float(np.linalg.norm(target))):
            raise ValueError(
                f"{self.label}: matrix leaves the span (residual {residual:.2e})"
            )
        return coeffs


def bracket_closure(
    mats: list[np.ndarray], cap: int = 10, label: str = "bracket closure"
) -> tuple[list[np.ndarray], int]:
    """Close a list of square matrices under commutators.

    Returns an orthonormal basis (as matrices) of the generated Lie algebra
    together with the number of sweeps used.  Stops when the span stops
    growing or after ``cap`` sweeps.
    """
    if not mats:
        return [], 0
    n = mats[0].shape[0]
    basis = orthonormal_span(mats, label)
    sweeps = 0
    while sweeps < cap:
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


def invariant_symmetric_forms(mats: list[np.ndarray], label: str = "forms") -> list[np.ndarray]:
    """Symmetric bilinear forms Q with a^T Q + Q a = 0 for every listed a.

    Returns a basis of the solution space as symmetric matrices.
    """
    d = mats[0].shape[0]
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    sym_basis = []
    for i, j in pairs:
        e = np.zeros((d, d))
        e[i, j] = 1.0
        e[j, i] = 1.0
        sym_basis.append(e)
    rows = []
    for a in mats:
        block = np.empty((d * d, len(pairs)))
        for c, e in enumerate(sym_basis):
            block[:, c] = (a.T @ e + e @ a).ravel()
        rows.append(block)
    ns = nullspace(np.vstack(rows), label)
    out = []
    for c in range(ns.shape[1]):
        q = sum(coef * e for coef, e in zip(ns[:, c], sym_basis))
        out.append(q / np.linalg.norm(q))
    return out
