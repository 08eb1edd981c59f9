"""Octonionic spinor machinery: triality on O and the signature (10,1) action.

Three layers, each feeding the next.  The Clifford map ``m_x`` realizes
Cl(8,0) on pairs of octonions.  Triality triples (g1, g2, g3) of
orthogonal maps satisfying g2(xy) = g1(x) g3(y) model the double cover
of SO(8) together with its outer automorphisms.  Finally a 55-parameter
family of 32x32 matrices acts on four octonions worth of spinor
components; its squaring map lands in an 11-dimensional Lorentzian
vector space and the quartic invariant p detects the orbit type.
Octonion products come only from ``algebra``'s functions, which own the
one multiplication table; this module knows nothing of its layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    CONJ_MATRIX,
    left_mult_matrix,
    octonion_basis,
    octonion_conj,
    octonion_inner,
    octonion_mul,
    right_mult_matrix,
)
from .linalg import MatrixSpan, constrained_span, guarded_rank, span_dimension

TRIPLE_TOL = 1e-8

_I8 = np.eye(8)
_ZERO_OCT = np.zeros(8)
_BASIS_PRODUCTS = octonion_mul(_I8[:, None, :], _I8[None, :, :])  # [i, j] holds e_i e_j


def _oct(v: np.ndarray | None) -> np.ndarray:
    if v is None:
        return _ZERO_OCT.copy()
    v = np.asarray(v, dtype=float)
    if v.shape != (8,):
        raise ValueError(f"expected an octonion coefficient vector, got shape {v.shape}")
    return v


def _cl(v: np.ndarray) -> np.ndarray:
    return CONJ_MATRIX @ left_mult_matrix(v)


def _cr(v: np.ndarray) -> np.ndarray:
    return CONJ_MATRIX @ right_mult_matrix(v)


def clifford_map_mx(x: np.ndarray) -> np.ndarray:
    """The 16x16 map [[0, C R_x], [-C L_x, 0]] with square -|x|^2 I."""
    x = _oct(x)
    out = np.zeros((16, 16))
    out[:8, 8:] = _cr(x)
    out[8:, :8] = -_cl(x)
    return out


# ---------------------------------------------------------------------------
# Triality triples


@dataclass(frozen=True)
class TrialityTriple:
    """Orthogonal maps (g1, g2, g3) of O with g2(xy) = g1(x) g3(y)."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.g1, self.g2, self.g3)


def triple_residual(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> float:
    """Max deviation from orthogonality and from the triple identity."""
    orth = max(float(np.abs(g.T @ g - _I8).max()) for g in (g1, g2, g3))
    # g2(e_i e_j) against g1(e_i) g3(e_j), for all 64 pairs (i, j)
    lhs = _BASIS_PRODUCTS @ g2.T
    rhs = octonion_mul(g1.T[:, None, :], g3.T[None, :, :])
    return max(orth, float(np.abs(lhs - rhs).max()))


def triality_triple(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> TrialityTriple:
    g1, g2, g3 = (np.asarray(g, dtype=float) for g in (g1, g2, g3))
    res = triple_residual(g1, g2, g3)
    if res > TRIPLE_TOL:
        raise ValueError(f"not a triality triple (residual {res:.2e})")
    return TrialityTriple(g1, g2, g3)


def generator_triple(u: np.ndarray) -> TrialityTriple:
    """The triple (L_u, L_u R_u, R_u) attached to a unit octonion."""
    u = _oct(u)
    nrm = float(np.linalg.norm(u))
    if abs(nrm - 1.0) > 1e-12:
        u = u / nrm
    lu, ru = left_mult_matrix(u), right_mult_matrix(u)
    return TrialityTriple(lu, lu @ ru, ru)


def compose_triples(t: TrialityTriple, s: TrialityTriple) -> TrialityTriple:
    return TrialityTriple(t.g1 @ s.g1, t.g2 @ s.g2, t.g3 @ s.g3)


def random_triple(rng: np.random.Generator, factors: int = 3) -> TrialityTriple:
    out = generator_triple(rng.standard_normal(8))
    for _ in range(factors - 1):
        out = compose_triples(out, generator_triple(rng.standard_normal(8)))
    return out


def triality_alpha(t: TrialityTriple) -> TrialityTriple:
    c = CONJ_MATRIX
    return triality_triple(c @ t.g3 @ c, c @ t.g2 @ c, c @ t.g1 @ c)


def triality_beta(t: TrialityTriple) -> TrialityTriple:
    c = CONJ_MATRIX
    return triality_triple(t.g2, t.g1, c @ t.g3 @ c)


def triality_tau(t: TrialityTriple) -> TrialityTriple:
    return triality_alpha(triality_beta(t))


_TRIALITY_OPS = {
    "alpha": triality_alpha,
    "beta": triality_beta,
    "tau": triality_tau,
}


def triality_apply(op: str, t: TrialityTriple) -> TrialityTriple:
    """Apply one of the outer symmetries alpha, beta, tau to a valid triple."""
    if op not in _TRIALITY_OPS:
        raise ValueError(f"unknown triality operation {op!r}")
    res = triple_residual(*t.as_tuple())
    if res > TRIPLE_TOL:
        raise ValueError(f"input is not a triality triple (residual {res:.2e})")
    return _TRIALITY_OPS[op](t)


# ---------------------------------------------------------------------------
# Infinitesimal triples


def _triple_flat(t: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    return np.concatenate([t[0].ravel(), t[1].ravel(), t[2].ravel()])


@lru_cache(maxsize=1)
def triple_algebra_basis() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Integer basis of the 28-dim Lie algebra of infinitesimal triples.

    Generated by (L_w, L_w + R_w, R_w) for imaginary units w and closed
    under componentwise commutators.  Brackets of integer matrices stay
    integer, so the returned basis is exact.
    """
    basis: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows = np.zeros((0, 192))

    def try_add(t) -> bool:
        nonlocal rows
        v = _triple_flat(t)
        r = v - rows.T @ (rows @ v)
        nv = float(np.linalg.norm(r))
        if nv > 1e-8 * max(1.0, float(np.linalg.norm(v))):
            basis.append(t)
            rows = np.vstack([rows, r / nv])
            return True
        return False

    for k in range(1, 8):
        w = octonion_basis(k)
        lw, rw = left_mult_matrix(w), right_mult_matrix(w)
        try_add((lw, lw + rw, rw))
    changed = True
    while changed:
        changed = False
        snap = list(basis)
        for i in range(len(snap)):
            for j in range(i + 1, len(snap)):
                br = tuple(a @ b - b @ a for a, b in zip(snap[i], snap[j]))
                if try_add(br):
                    changed = True
    if len(basis) != 28:
        raise RuntimeError(f"triple algebra closed at dimension {len(basis)}, expected 28")
    return tuple(basis)


@lru_cache(maxsize=1)
def unit_stabilizer_basis() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The 21-dim subalgebra of triples whose first component kills 1."""
    # a1 applied to the unit octonion is the first column of a1.
    out = constrained_span(np.array(triple_algebra_basis()), [lambda t: t[0][:, 0]],
                           "triple algebra unit stabilizer")
    if len(out) != 21:
        raise RuntimeError(f"unit stabilizer has dimension {len(out)}, expected 21")
    return tuple(tuple(t) for t in out)


def derive_middle_component(a1: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """Solve a2(xy) = a1(x) y + x a3(y) for a2, rejecting incompatible pairs.

    At x = 1 the identity reads a2(y) = a1(1) y + a3(y), so a2 = L_{a1(1)} + a3.
    The residual of all 512 scalar equations over basis products is the
    membership test for the infinitesimal triple algebra.
    """
    a1 = np.asarray(a1, dtype=float)
    a3 = np.asarray(a3, dtype=float)
    scale = max(1.0, float(np.linalg.norm(a1)), float(np.linalg.norm(a3)))
    for name, a in (("a1", a1), ("a3", a3)):
        if float(np.abs(a + a.T).max()) > TRIPLE_TOL * scale:
            raise ValueError(f"{name} is not antisymmetric")
    a2 = left_mult_matrix(a1[:, 0]) + a3  # a1(1) is the first column of a1
    # a1(e_i) e_j + e_i a3(e_j) against a2(e_i e_j), for all 64 pairs (i, j)
    rhs = (octonion_mul(a1.T[:, None, :], _I8[None, :, :])
           + octonion_mul(_I8[:, None, :], a3.T[None, :, :]))
    res = float(np.abs(_BASIS_PRODUCTS @ a2.T - rhs).max())
    if res > TRIPLE_TOL * scale:
        raise ValueError(
            f"(a1, a3) admits no compatible middle component (residual {res:.2e})"
        )
    return a2


# ---------------------------------------------------------------------------
# The 55-dimensional action on 32-component spinors

# Lorentzian Gram matrix in coordinates (v1, v2, v3, octonion part):
# v.v = -4 v1 v3 + v2^2 + |octonion|^2.
GRAM_10_1 = np.zeros((11, 11))
GRAM_10_1[0, 2] = GRAM_10_1[2, 0] = -2.0
GRAM_10_1[1, 1] = 1.0
GRAM_10_1[3:, 3:] = np.eye(8)


def vector_inner_10_1(v: np.ndarray, w: np.ndarray) -> float:
    return float(np.asarray(v, float) @ GRAM_10_1 @ np.asarray(w, float))


@dataclass(frozen=True)
class Spin101Element:
    """One element of the 55-dim algebra acting on spinors in O^4.

    ``matrix`` is the 32x32 spinor action, ``rho`` the induced 11x11
    vector action; rho is antisymmetric for the Lorentzian Gram matrix.
    The octonion slots xv, yv, zv fill the off-diagonal Clifford blocks
    while (a1, a2, a3) is an infinitesimal triality triple.
    """

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    x: float
    y: float
    z: float
    xv: np.ndarray
    yv: np.ndarray
    zv: np.ndarray
    matrix: np.ndarray
    rho: np.ndarray


def _assemble(a1, a2, a3, x, y, z, xv, yv, zv) -> Spin101Element:
    crx, clx = _cr(xv), _cl(xv)
    cry, cly = _cr(yv), _cl(yv)
    crz, clz = _cr(zv), _cl(zv)
    matrix = np.block([
        [a1 + x * _I8, crx, y * _I8, cry],
        [-clx, a3 + x * _I8, cly, -y * _I8],
        [z * _I8, crz, a1 - x * _I8, crx],
        [clz, -z * _I8, -clx, a3 - x * _I8],
    ])
    xb, yb, zb = octonion_conj(xv), octonion_conj(yv), octonion_conj(zv)
    rho = np.zeros((11, 11))
    rho[0, 0] = 2 * x
    rho[0, 1] = y
    rho[0, 3:] = yb
    rho[1, 0] = 2 * z
    rho[1, 2] = 2 * y
    rho[1, 3:] = 2 * xb
    rho[2, 1] = z
    rho[2, 2] = -2 * x
    rho[2, 3:] = zb
    rho[3:, 0] = 2 * zb
    rho[3:, 1] = -2 * xb
    rho[3:, 2] = 2 * yb
    rho[3:, 3:] = a2
    skew = float(np.abs(rho.T @ GRAM_10_1 + GRAM_10_1 @ rho).max())
    if skew > 1e-9 * max(1.0, float(np.abs(rho).max())):
        raise ValueError(f"vector action is not Gram-antisymmetric ({skew:.2e})")
    return Spin101Element(a1, a2, a3, float(x), float(y), float(z), xv, yv, zv, matrix, rho)


def spin101_element(
    a1: np.ndarray,
    a3: np.ndarray,
    x: float = 0.0,
    y: float = 0.0,
    z: float = 0.0,
    xv: np.ndarray | None = None,
    yv: np.ndarray | None = None,
    zv: np.ndarray | None = None,
) -> Spin101Element:
    """Build an algebra element from a compatible (a1, a3) pair and slot data."""
    a1 = np.asarray(a1, dtype=float)
    a3 = np.asarray(a3, dtype=float)
    a2 = derive_middle_component(a1, a3)
    return _assemble(a1, a2, a3, x, y, z, _oct(xv), _oct(yv), _oct(zv))


# Coefficient layout of the 55-dim basis: 28 triple directions, then the
# scalars x, y, z, then the three octonion slots xv, yv, zv.
@lru_cache(maxsize=1)
def spin101_basis() -> tuple[Spin101Element, ...]:
    zero = np.zeros((8, 8))
    out = []
    for t in triple_algebra_basis():
        out.append(_assemble(t[0], t[1], t[2], 0.0, 0.0, 0.0,
                             _ZERO_OCT, _ZERO_OCT, _ZERO_OCT))
    for scal in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        out.append(_assemble(zero, zero, zero, *scal, _ZERO_OCT, _ZERO_OCT, _ZERO_OCT))
    for slot in range(3):
        for k in range(8):
            vs = [_ZERO_OCT, _ZERO_OCT, _ZERO_OCT]
            vs[slot] = octonion_basis(k)
            out.append(_assemble(zero, zero, zero, 0.0, 0.0, 0.0, *vs))
    return tuple(out)


@lru_cache(maxsize=1)
def template_span() -> MatrixSpan:
    span = MatrixSpan([e.matrix for e in spin101_basis()], "spin(10,1) template span")
    if span_dimension([e.matrix for e in spin101_basis()], "spin(10,1) basis") != 55:
        raise RuntimeError("template basis is degenerate")
    return span


def element_from_coefficients(coeffs: np.ndarray) -> Spin101Element:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (55,):
        raise ValueError(f"expected 55 coefficients, got shape {coeffs.shape}")
    kb = triple_algebra_basis()
    a1 = sum(c * t[0] for c, t in zip(coeffs[:28], kb))
    a2 = sum(c * t[1] for c, t in zip(coeffs[:28], kb))
    a3 = sum(c * t[2] for c, t in zip(coeffs[:28], kb))
    x, y, z = coeffs[28:31]
    xv, yv, zv = coeffs[31:39], coeffs[39:47], coeffs[47:55]
    return _assemble(a1, a2, a3, x, y, z, xv, yv, zv)


def sample_element(rng: np.random.Generator, scale: float = 0.25) -> Spin101Element:
    return element_from_coefficients(scale * rng.standard_normal(55))


def bracket_element(m: Spin101Element, n: Spin101Element) -> Spin101Element:
    """Commutator, re-expressed in the template; raises if it leaves the span."""
    br = m.matrix @ n.matrix - n.matrix @ m.matrix
    return element_from_coefficients(template_span().coefficients(br))


# ---------------------------------------------------------------------------
# Squaring map and quartic invariant


def _split(zvec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    zvec = np.asarray(zvec, dtype=float)
    if zvec.shape != (32,):
        raise ValueError(f"expected a 32-component spinor, got shape {zvec.shape}")
    return zvec[0:8], zvec[8:16], zvec[16:24], zvec[24:32]


def sigma_10_1(zvec: np.ndarray) -> np.ndarray:
    """Squaring map into the 11-dim vector space; the image is causal."""
    x1, y1, x2, y2 = _split(zvec)
    out = np.empty(11)
    out[0] = octonion_inner(x1, x1) + octonion_inner(y1, y1)
    out[1] = 2.0 * (octonion_inner(x1, x2) - octonion_inner(y1, y2))
    out[2] = octonion_inner(x2, x2) + octonion_inner(y2, y2)
    out[3:] = 2.0 * (octonion_mul(x1, y2) + octonion_mul(x2, y1))
    return out


def p_invariant(zvec: np.ndarray) -> float:
    """Quartic invariant separating the null orbit (p = 0) from generic spinors."""
    x1, y1, x2, y2 = _split(zvec)
    return float(
        octonion_inner(x1, x1) * octonion_inner(x2, x2)
        + octonion_inner(y1, y1) * octonion_inner(y2, y2)
        - (octonion_inner(x1, x2) + octonion_inner(y1, y2)) ** 2
        + 2.0 * octonion_inner(octonion_mul(x1, y1), octonion_mul(x2, y2))
    )


def null_spinor() -> np.ndarray:
    z = np.zeros(32)
    z[0] = 1.0
    return z


def timelike_spinor() -> np.ndarray:
    # Unit in the first slot, an imaginary unit in the third: p = 1 > 0.
    z = np.zeros(32)
    z[0] = 1.0
    z[17] = 1.0
    return z


# ---------------------------------------------------------------------------
# Stabilizers


def spinor_action_matrix(zvec: np.ndarray) -> np.ndarray:
    zvec = np.asarray(zvec, dtype=float)
    return np.column_stack([e.matrix @ zvec for e in spin101_basis()])


def stabilizer_dimension_10_1(zvec: np.ndarray) -> int:
    return 55 - orbit_dimension_10_1(zvec)


def orbit_dimension_10_1(zvec: np.ndarray) -> int:
    return guarded_rank(spinor_action_matrix(zvec), "spin(10,1) orbit")


@lru_cache(maxsize=1)
def null_stabilizer_basis() -> tuple[Spin101Element, ...]:
    """Explicit 30-dim basis of the stabilizer of the reference null spinor.

    Block structure: unit-stabilizer triples on the diagonal plus the
    y scalar and the y octonion slot, all of which kill (1, 0, 0, 0).
    """
    zero = np.zeros((8, 8))
    out = []
    for t in unit_stabilizer_basis():
        out.append(_assemble(t[0], t[1], t[2], 0.0, 0.0, 0.0,
                             _ZERO_OCT, _ZERO_OCT, _ZERO_OCT))
    out.append(_assemble(zero, zero, zero, 0.0, 1.0, 0.0,
                         _ZERO_OCT, _ZERO_OCT, _ZERO_OCT))
    for k in range(8):
        out.append(_assemble(zero, zero, zero, 0.0, 0.0, 0.0,
                             _ZERO_OCT, octonion_basis(k), _ZERO_OCT))
    z0 = null_spinor()
    worst = max(float(np.abs(e.matrix @ z0).max()) for e in out)
    if worst > 1e-9:
        raise RuntimeError(f"null stabilizer template fails to kill the spinor ({worst:.2e})")
    return tuple(out)


def null_stabilizer_dimension() -> int:
    """Dimension of the null stabilizer, cross-checked against the block basis."""
    basis = null_stabilizer_basis()
    dim = span_dimension([e.matrix for e in basis], "null stabilizer template")
    rank_dim = stabilizer_dimension_10_1(null_spinor())
    if dim != rank_dim:
        raise RuntimeError(
            f"stabilizer template dimension {dim} disagrees with rank computation {rank_dim}"
        )
    return rank_dim


def timelike_stabilizer_dimension() -> int:
    return stabilizer_dimension_10_1(timelike_spinor())
