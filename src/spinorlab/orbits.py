"""Orbit models for spin groups acting on low-dimensional spinor spaces.

Each model packages a concrete matrix realization of a spin group in
dimensions two through six: the spinor space it acts on, a Lie-algebra
basis cut out of matrix space by the defining linear constraints, the
vector representation realized on a space of structured matrices, and
whatever equivariant squaring map and algebraic invariants the
realization carries.

Quaternionic column vectors H^n are realized on C^{2n} by writing
s = a + b j and stacking (a, conj(b)); a quaternion matrix then acts
through its complex embedding [[A, -B], [conj(B), conj(A)]], and
quaternion linearity of a complex matrix M amounts to M J = J conj(M)
with J = [[0, -I], [I, 0]].

Stabilizer and orbit dimensions come from the guarded numerical rank of
the linearized action, so every reported integer is certified against
the rank guard band instead of being read off a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import expm

from . import clifford
from .algebra import QMatrix, pfaffian, qdet2
from .linalg import MatrixSpan, guarded_rank, nullspace, orthonormal_span, real_flat

MODEL_NAMES = (
    "SPIN2",
    "SPIN11",
    "SPIN3",
    "SPIN21",
    "SPIN4",
    "SPIN31",
    "SPIN22",
    "SPIN5",
    "SPIN41",
    "SPIN32",
    "SPIN6",
    "SPIN51",
    "SPIN42",
    "SPIN33",
)

# Models whose realization carries an equivariant quadratic map into the
# vector representation.
SQUARING_MODELS = ("SPIN21", "SPIN31", "SPIN22", "SPIN5", "SPIN41", "SPIN51")

# Two-block models on which swapping the half-spinor factors realizes the
# action of an orientation-reversing pin element.
PIN_SWAP_MODELS = ("SPIN4", "SPIN22", "SPIN33", "SPIN51")

MEMBERSHIP_TOL = 1e-10
SPAN_TOL = 1e-9
SUPPORT_TOL = 1e-9


def _norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def _jmat(n: int) -> np.ndarray:
    # Quaternionic structure on C^{2n}: multiplication by j from the right.
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _matrix_units(n: int, complex_field: bool) -> list[np.ndarray]:
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex if complex_field else float)
            e[i, j] = 1.0
            units.append(e)
            if complex_field:
                f = np.zeros((n, n), dtype=complex)
                f[i, j] = 1j
                units.append(f)
    return units


def _constrained_matrices(
    n: int,
    complex_field: bool,
    constraints: list[Callable[[np.ndarray], np.ndarray]],
    label: str,
) -> list[np.ndarray]:
    """Real basis of the matrix subspace killed by the linear constraints."""
    units = _matrix_units(n, complex_field)
    if not constraints:
        return units
    cols = [
        np.concatenate([real_flat(c(u)) for c in constraints]) for u in units
    ]
    coeffs = nullspace(np.column_stack(cols), label=label)
    basis = []
    for k in range(coeffs.shape[1]):
        m = np.zeros_like(units[0])
        for c, u in zip(coeffs[:, k], units):
            m = m + c * u
        basis.append(m)
    return basis


# ---------------------------------------------------------------------------
# Constraint closures shared by several models


def _quaternion_linear(j: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda m: m @ j - j @ m.conj()


def _anti_hermitian(m: np.ndarray) -> np.ndarray:
    return m + m.conj().T


def _hermitian(m: np.ndarray) -> np.ndarray:
    return m - m.conj().T


def _skew(m: np.ndarray) -> np.ndarray:
    # vanishes exactly on skew matrices
    return m + m.T


def _symmetric(m: np.ndarray) -> np.ndarray:
    # vanishes exactly on symmetric matrices
    return m - m.T


def _hodge_star4(m: np.ndarray) -> np.ndarray:
    """Hodge dual of a skew 4x4 matrix, (star m)_ij = eps_ijkl m_kl / 2."""
    out = np.zeros_like(m)
    out[0, 1], out[2, 3] = m[2, 3], m[0, 1]
    out[0, 2], out[1, 3] = -m[1, 3], -m[0, 2]
    out[0, 3], out[1, 2] = m[1, 2], m[0, 3]
    return out - out.T


def quaternion_vector_embed(q: QMatrix) -> np.ndarray:
    """C^{2n} coordinates (a, conj(b)) of a quaternion column s = a + b j."""
    if q.shape[1] != 1:
        raise ValueError("expected a quaternion column vector")
    return np.concatenate([q.a[:, 0], q.b[:, 0].conj()])


def quaternion_vector_unembed(z: np.ndarray) -> QMatrix:
    """Inverse of quaternion_vector_embed."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size % 2:
        raise ValueError("expected an even number of complex coordinates")
    n = z.size // 2
    return QMatrix(z[:n].reshape(n, 1), z[n:].conj().reshape(n, 1))


def _quaternion_outer_embed(z: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """Complex embedding of the quaternion outer product s s^* from z."""
    jz = jmat @ z.conj()
    return np.outer(z, z.conj()) + np.outer(jz, jz.conj())


def _pf_real(m: np.ndarray) -> float:
    return float(np.real(pfaffian(m)))


# ---------------------------------------------------------------------------
# Model container


@dataclass(frozen=True, eq=False)
class OrbitReport:
    """Orbit diagnostics for one spinor under one model."""

    model: str
    spinor: np.ndarray
    invariants: dict
    label: str
    orbit_dim: int
    stabilizer_dim: int
    group_dim: int


@dataclass(frozen=True, eq=False)
class SpinOrbitModel:
    """A spin group realized on its spinor and vector representations.

    ``lie_basis`` spans the group's Lie algebra inside the matrices acting
    on the spinor coordinates; group elements are sampled as exponentials
    of its random combinations, and membership of a candidate matrix is
    the residual of the group's defining structure.
    """

    name: str
    signature: tuple[int, int]
    group_dim: int
    spinor_dim: int
    complex_field: bool
    lie_basis: tuple[np.ndarray, ...]
    vector_space: MatrixSpan
    blocks: tuple[slice, slice] | None
    membership_fn: Callable[[np.ndarray], float]
    vector_action_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma_fn: Callable[[np.ndarray], np.ndarray] | None
    invariants_fn: Callable[[np.ndarray], dict]
    label_fn: Callable[[np.ndarray], str]
    vector_square_fn: Callable[[np.ndarray], float]

    # -- coercion ----------------------------------------------------------

    def _coerce_spinor(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=complex if self.complex_field else float)
        if s.shape != (self.spinor_dim,):
            raise ValueError(
                f"{self.name}: spinor must have shape ({self.spinor_dim},)"
            )
        return s

    def _coerce_group(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=complex if self.complex_field else float)
        n = self.spinor_dim
        if g.shape != (n, n):
            raise ValueError(f"{self.name}: group element must be {n}x{n}")
        return g

    # -- sampling ----------------------------------------------------------

    def sample_algebra(self, rng: np.random.Generator, scale: float = 0.3):
        coeffs = rng.normal(size=len(self.lie_basis)) * scale
        m = np.zeros_like(self.lie_basis[0])
        for c, a in zip(coeffs, self.lie_basis):
            m = m + c * a
        return m

    def sample_group(self, rng: np.random.Generator, scale: float = 0.3):
        return expm(self.sample_algebra(rng, scale))

    def sample_spinor(self, rng: np.random.Generator) -> np.ndarray:
        s = rng.normal(size=self.spinor_dim)
        if self.complex_field:
            s = s + 1j * rng.normal(size=self.spinor_dim)
        return s

    def sample_vector(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.vector_space.dim)

    # -- group actions -----------------------------------------------------

    def membership_residual(self, g: np.ndarray) -> float:
        return self.membership_fn(self._coerce_group(g))

    def _checked(self, g: np.ndarray) -> np.ndarray:
        g = self._coerce_group(g)
        residual = self.membership_fn(g)
        if residual > MEMBERSHIP_TOL:
            raise ValueError(
                f"{self.name}: matrix is not a group element "
                f"(structure residual {residual:.2e})"
            )
        return g

    def act_spinor(self, g: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._checked(g) @ self._coerce_spinor(s)

    def act_vector(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = self._checked(g)
        m = self.vector_space.matrix(v)
        return self.vector_space.coefficients(self.vector_action_fn(g, m))

    def square_spinor(self, s: np.ndarray) -> np.ndarray:
        if self.sigma_fn is None:
            raise ValueError(f"{self.name} has no equivariant squaring map")
        m = self.sigma_fn(self._coerce_spinor(s))
        return self.vector_space.coefficients(m)

    def vector_square(self, v: np.ndarray) -> float:
        return self.vector_square_fn(self.vector_space.matrix(v))

    # -- invariants and dimensions ------------------------------------------

    def orbit_invariant(self, s: np.ndarray) -> dict:
        return self.invariants_fn(self._coerce_spinor(s))

    def orbit_label(self, s: np.ndarray) -> str:
        return self.label_fn(self._coerce_spinor(s))

    def _action_matrix(self, s: np.ndarray) -> np.ndarray:
        s = self._coerce_spinor(s)
        return np.column_stack([real_flat(a @ s) for a in self.lie_basis])

    def stabilizer_dimension(self, s: np.ndarray) -> int:
        rank = guarded_rank(
            self._action_matrix(s), label=f"{self.name} stabilizer"
        )
        return self.group_dim - rank

    def orbit_dimension(self, s: np.ndarray) -> int:
        return guarded_rank(self._action_matrix(s), label=f"{self.name} orbit")

    def spinor_blocks(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.blocks is None:
            raise ValueError(f"{self.name} has no half-spinor splitting")
        s = self._coerce_spinor(s)
        lo, hi = self.blocks
        return s[lo], s[hi]

    def pin_swap(self, s: np.ndarray) -> np.ndarray:
        if self.name not in PIN_SWAP_MODELS:
            raise ValueError(f"{self.name} has no pin swap")
        plus, minus = self.spinor_blocks(s)
        return np.concatenate([minus, plus])

    def orbit_report(self, s: np.ndarray) -> OrbitReport:
        s = self._coerce_spinor(s)
        orbit = self.orbit_dimension(s)
        stab = self.stabilizer_dimension(s)
        if orbit + stab != self.group_dim:
            raise RuntimeError(
                f"{self.name}: orbit {orbit} + stabilizer {stab} does not "
                f"exhaust the group dimension {self.group_dim}"
            )
        return OrbitReport(
            model=self.name,
            spinor=s.copy(),
            invariants=self.orbit_invariant(s),
            label=self.orbit_label(s),
            orbit_dim=orbit,
            stabilizer_dim=stab,
            group_dim=self.group_dim,
        )


def _support_label(s: np.ndarray, blocks: tuple[slice, slice]) -> str:
    lo, hi = blocks
    total = _norm(s)
    if total == 0.0:
        return "zero"
    plus = _norm(s[lo]) > SUPPORT_TOL * total
    minus = _norm(s[hi]) > SUPPORT_TOL * total
    if plus and minus:
        return "both"
    return "plus" if plus else "minus"


# ---------------------------------------------------------------------------
# Model builders


def _check_dim(items: list, expected: int, label: str) -> None:
    if len(items) != expected:
        raise RuntimeError(
            f"{label}: constraint solution has dimension {len(items)}, "
            f"expected {expected}"
        )


def _model_spin2() -> SpinOrbitModel:
    # U(1) on C; a unit scalar rotates spinors once and vectors twice.
    lie = [np.array([[1j]])]
    vec = MatrixSpan([np.array([1.0 + 0j]), np.array([1j])], "SPIN2 vectors")

    def membership(g):
        return abs(abs(g[0, 0]) - 1.0)

    def invariants(s):
        return {"norm_sq": float(abs(s[0]) ** 2)}

    def label(s):
        return "zero" if _norm(s) == 0.0 else "sphere"

    return SpinOrbitModel(
        name="SPIN2",
        signature=(2, 0),
        group_dim=1,
        spinor_dim=1,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g[0, 0] ** 2 * m,
        sigma_fn=None,
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=lambda m: float(abs(m[0]) ** 2),
    )


def _model_spin11() -> SpinOrbitModel:
    # R^x acting on the two null half-spinor lines with opposite weights.
    lie = [np.diag([1.0, -1.0])]
    vec = MatrixSpan([np.array([1.0, 0.0]), np.array([0.0, 1.0])], "SPIN11 vectors")
    blocks = (slice(0, 1), slice(1, 2))

    def membership(g):
        r = abs(g[0, 1]) + abs(g[1, 0]) + abs(g[0, 0] * g[1, 1] - 1.0)
        if g[0, 0] <= 0.0:
            r += 1.0
        return float(r)

    def invariants(s):
        return {
            "pairing": float(s[0] * s[1]),
            "support": _support_label(s, blocks),
        }

    def label(s):
        support = _support_label(s, blocks)
        if support == "zero":
            return "zero"
        if support == "plus":
            return "chiral-plus"
        if support == "minus":
            return "chiral-minus"
        return "generic"

    return SpinOrbitModel(
        name="SPIN11",
        signature=(1, 1),
        group_dim=1,
        spinor_dim=2,
        complex_field=False,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=blocks,
        membership_fn=membership,
        vector_action_fn=lambda g, m: np.array(
            [g[0, 0] ** 2 * m[0], g[1, 1] ** 2 * m[1]]
        ),
        sigma_fn=None,
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=lambda m: float(m[0] * m[1]),
    )


def _model_spin3() -> SpinOrbitModel:
    # Sp(1) = unit quaternions acting on H by left multiplication;
    # vectors are imaginary quaternions, rotated by v -> A v conj(A).
    j2 = _jmat(1)
    lie = _constrained_matrices(
        2, True, [_quaternion_linear(j2), _anti_hermitian], "sp(1)"
    )
    _check_dim(lie, 3, "SPIN3 algebra")
    vec_basis = _constrained_matrices(
        2,
        True,
        [_quaternion_linear(j2), _anti_hermitian],
        "SPIN3 vector space",
    )
    _check_dim(vec_basis, 3, "SPIN3 vectors")
    vec = MatrixSpan(vec_basis, "SPIN3 vectors")

    def membership(g):
        unitary = _norm(g.conj().T @ g - np.eye(2))
        return unitary + _norm(g @ j2 - j2 @ g.conj())

    def invariants(s):
        return {"norm_sq": float(np.vdot(s, s).real)}

    def label(s):
        return "zero" if _norm(s) == 0.0 else "sphere"

    return SpinOrbitModel(
        name="SPIN3",
        signature=(3, 0),
        group_dim=3,
        spinor_dim=2,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g @ m @ g.conj().T,
        sigma_fn=None,
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=lambda m: float(np.linalg.det(m).real),
    )


def _model_spin21() -> SpinOrbitModel:
    # SL(2,R) on R^2; vectors are symmetric 2x2 matrices with v.v = -det v,
    # and sigma(s) = s s^t sweeps one nappe of the null cone.
    lie = _constrained_matrices(
        2, False, [lambda m: np.array([np.trace(m)])], "sl(2,R)"
    )
    _check_dim(lie, 3, "SPIN21 algebra")
    vec_basis = _constrained_matrices(
        2, False, [_symmetric], "SPIN21 vector space"
    )
    _check_dim(vec_basis, 3, "SPIN21 vectors")
    vec = MatrixSpan(vec_basis, "SPIN21 vectors")

    return SpinOrbitModel(
        name="SPIN21",
        signature=(2, 1),
        group_dim=3,
        spinor_dim=2,
        complex_field=False,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=lambda g: abs(float(np.linalg.det(g)) - 1.0),
        vector_action_fn=lambda g, m: g @ m @ g.T,
        sigma_fn=lambda s: np.outer(s, s),
        invariants_fn=lambda s: {},
        label_fn=lambda s: "zero" if _norm(s) == 0.0 else "generic",
        vector_square_fn=lambda m: -float(np.linalg.det(m)),
    )


def _model_spin4() -> SpinOrbitModel:
    # Sp(1) x Sp(1) on H + H; vectors are quaternions with v -> A v conj(B).
    j2 = _jmat(1)
    blocks = (slice(0, 2), slice(2, 4))

    def block_constraints(sl):
        return [
            lambda m, sl=sl: _quaternion_linear(j2)(m[sl, sl]),
            lambda m, sl=sl: _anti_hermitian(m[sl, sl]),
        ]

    constraints = [
        lambda m: m[0:2, 2:4],
        lambda m: m[2:4, 0:2],
        *block_constraints(blocks[0]),
        *block_constraints(blocks[1]),
    ]
    lie = _constrained_matrices(4, True, constraints, "sp(1)+sp(1)")
    _check_dim(lie, 6, "SPIN4 algebra")
    vec_basis = _constrained_matrices(
        2, True, [_quaternion_linear(j2)], "SPIN4 vector space"
    )
    _check_dim(vec_basis, 4, "SPIN4 vectors")
    vec = MatrixSpan(vec_basis, "SPIN4 vectors")

    def membership(g):
        gp, gm = g[0:2, 0:2], g[2:4, 2:4]
        r = _norm(g[0:2, 2:4]) + _norm(g[2:4, 0:2])
        for blk in (gp, gm):
            r += _norm(blk.conj().T @ blk - np.eye(2))
            r += _norm(blk @ j2 - j2 @ blk.conj())
        return r

    def invariants(s):
        return {
            "norm_plus": float(np.vdot(s[0:2], s[0:2]).real),
            "norm_minus": float(np.vdot(s[2:4], s[2:4]).real),
            "support": _support_label(s, blocks),
        }

    def label(s):
        support = _support_label(s, blocks)
        return {
            "zero": "zero",
            "plus": "chiral-plus",
            "minus": "chiral-minus",
            "both": "generic",
        }[support]

    return SpinOrbitModel(
        name="SPIN4",
        signature=(4, 0),
        group_dim=6,
        spinor_dim=4,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=blocks,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g[0:2, 0:2] @ m @ g[2:4, 2:4].conj().T,
        sigma_fn=None,
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=lambda m: float(np.linalg.det(m).real),
    )


def _model_spin31() -> SpinOrbitModel:
    # SL(2,C) on C^2; vectors are Hermitian 2x2 matrices with v.v = -det v,
    # and sigma(s) = s s^* lands on the forward nappe of the null cone.
    lie = _constrained_matrices(
        2,
        True,
        [lambda m: np.array([np.trace(m).real, np.trace(m).imag])],
        "sl(2,C)",
    )
    _check_dim(lie, 6, "SPIN31 algebra")
    vec_basis = _constrained_matrices(2, True, [_hermitian], "SPIN31 vector space")
    _check_dim(vec_basis, 4, "SPIN31 vectors")
    vec = MatrixSpan(vec_basis, "SPIN31 vectors")

    return SpinOrbitModel(
        name="SPIN31",
        signature=(3, 1),
        group_dim=6,
        spinor_dim=2,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=lambda g: abs(np.linalg.det(g) - 1.0),
        vector_action_fn=lambda g, m: g @ m @ g.conj().T,
        sigma_fn=lambda s: np.outer(s, s.conj()),
        invariants_fn=lambda s: {},
        label_fn=lambda s: "zero" if _norm(s) == 0.0 else "generic",
        vector_square_fn=lambda m: -float(np.linalg.det(m).real),
    )


def _model_spin22() -> SpinOrbitModel:
    # SL(2,R) x SL(2,R) on R^2 + R^2; vectors are all real 2x2 matrices
    # with v.v = det v, and sigma(s+, s-) = s+ s-^t fills the null cone.
    blocks = (slice(0, 2), slice(2, 4))
    constraints = [
        lambda m: m[0:2, 2:4],
        lambda m: m[2:4, 0:2],
        lambda m: np.array([np.trace(m[0:2, 0:2])]),
        lambda m: np.array([np.trace(m[2:4, 2:4])]),
    ]
    lie = _constrained_matrices(4, False, constraints, "sl(2,R)+sl(2,R)")
    _check_dim(lie, 6, "SPIN22 algebra")
    vec = MatrixSpan(
        _constrained_matrices(2, False, [], "SPIN22 vector space"),
        "SPIN22 vectors",
    )

    def membership(g):
        r = _norm(g[0:2, 2:4]) + _norm(g[2:4, 0:2])
        r += abs(float(np.linalg.det(g[0:2, 0:2])) - 1.0)
        r += abs(float(np.linalg.det(g[2:4, 2:4])) - 1.0)
        return r

    def label(s):
        support = _support_label(s, blocks)
        return {
            "zero": "zero",
            "plus": "chiral-plus",
            "minus": "chiral-minus",
            "both": "generic",
        }[support]

    return SpinOrbitModel(
        name="SPIN22",
        signature=(2, 2),
        group_dim=6,
        spinor_dim=4,
        complex_field=False,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=blocks,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g[0:2, 0:2] @ m @ g[2:4, 2:4].T,
        sigma_fn=lambda s: np.outer(s[0:2], s[2:4]),
        invariants_fn=lambda s: {"support": _support_label(s, blocks)},
        label_fn=label,
        vector_square_fn=lambda m: float(np.linalg.det(m)),
    )


def _model_spin5() -> SpinOrbitModel:
    # Sp(2) on H^2; vectors are traceless quaternion-Hermitian 2x2 matrices
    # acted on by m -> A m A^*; sigma(s) = s s^* - |s|^2/2 projects the
    # quaternion outer square onto the traceless part.
    j4 = _jmat(2)
    lie = _constrained_matrices(
        4, True, [_quaternion_linear(j4), _anti_hermitian], "sp(2)"
    )
    _check_dim(lie, 10, "SPIN5 algebra")
    vec_basis = _constrained_matrices(
        4,
        True,
        [
            _quaternion_linear(j4),
            _hermitian,
            lambda m: np.array([np.trace(m).real]),
        ],
        "SPIN5 vector space",
    )
    _check_dim(vec_basis, 5, "SPIN5 vectors")
    vec = MatrixSpan(vec_basis, "SPIN5 vectors")

    def membership(g):
        unitary = _norm(g.conj().T @ g - np.eye(4))
        return unitary + _norm(g @ j4 - j4 @ g.conj())

    def sigma(s):
        norm_sq = float(np.vdot(s, s).real)
        return _quaternion_outer_embed(s, j4) - 0.5 * norm_sq * np.eye(4)

    return SpinOrbitModel(
        name="SPIN5",
        signature=(5, 0),
        group_dim=10,
        spinor_dim=4,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g @ m @ g.conj().T,
        sigma_fn=sigma,
        invariants_fn=lambda s: {"norm_sq": float(np.vdot(s, s).real)},
        label_fn=lambda s: "zero" if _norm(s) == 0.0 else "sphere",
        vector_square_fn=lambda m: float(np.trace(m @ m).real) / 2.0,
    )


_Q41 = np.diag([1.0, -1.0, 1.0, -1.0])


def _model_spin41() -> SpinOrbitModel:
    # Sp(1,1) preserving the quaternion form |s1|^2 - |s2|^2 on H^2.
    # Vectors are quaternion-Hermitian with tr(Q m) = 0 and v.v = -det m;
    # sigma(s) = s s^* - nu(s) Q / 2 squares to a past/future-pointing or
    # null vector according to the sign of nu.
    j4 = _jmat(2)
    lie = _constrained_matrices(
        4,
        True,
        [
            _quaternion_linear(j4),
            lambda m: m.conj().T @ _Q41 + _Q41 @ m,
        ],
        "sp(1,1)",
    )
    _check_dim(lie, 10, "SPIN41 algebra")
    vec_basis = _constrained_matrices(
        4,
        True,
        [
            _quaternion_linear(j4),
            _hermitian,
            lambda m: np.array([np.trace(_Q41 @ m).real]),
        ],
        "SPIN41 vector space",
    )
    _check_dim(vec_basis, 5, "SPIN41 vectors")
    vec = MatrixSpan(vec_basis, "SPIN41 vectors")

    def membership(g):
        form = _norm(g.conj().T @ _Q41 @ g - _Q41)
        return form + _norm(g @ j4 - j4 @ g.conj())

    def nu(s):
        return float((s.conj() @ (_Q41 @ s)).real)

    def sigma(s):
        return _quaternion_outer_embed(s, j4) - 0.5 * nu(s) * _Q41

    def label(s):
        if _norm(s) == 0.0:
            return "zero"
        value = nu(s)
        if abs(value) <= 1e-10 * _norm(s) ** 2:
            return "null"
        return "positive" if value > 0 else "negative"

    return SpinOrbitModel(
        name="SPIN41",
        signature=(4, 1),
        group_dim=10,
        spinor_dim=4,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g @ m @ g.conj().T,
        sigma_fn=sigma,
        invariants_fn=lambda s: {"nu": nu(s)},
        label_fn=label,
        vector_square_fn=lambda m: -qdet2(QMatrix.unembed(m, (2, 2))),
    )


_J32 = np.block(
    [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
)


def _model_spin32() -> SpinOrbitModel:
    # Sp(4,R) on R^4; vectors are skew 4x4 matrices orthogonal to the
    # symplectic form, with v.v the Pfaffian.
    lie = _constrained_matrices(
        4, False, [lambda m: m.T @ _J32 + _J32 @ m], "sp(4,R)"
    )
    _check_dim(lie, 10, "SPIN32 algebra")
    vec_basis = _constrained_matrices(
        4,
        False,
        [_skew, lambda m: np.array([np.trace(_J32 @ m)])],
        "SPIN32 vector space",
    )
    _check_dim(vec_basis, 5, "SPIN32 vectors")
    vec = MatrixSpan(vec_basis, "SPIN32 vectors")

    return SpinOrbitModel(
        name="SPIN32",
        signature=(3, 2),
        group_dim=10,
        spinor_dim=4,
        complex_field=False,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=lambda g: _norm(g.T @ _J32 @ g - _J32),
        vector_action_fn=lambda g, m: g @ m @ g.T,
        sigma_fn=None,
        invariants_fn=lambda s: {},
        label_fn=lambda s: "zero" if _norm(s) == 0.0 else "generic",
        vector_square_fn=_pf_real,
    )


def _model_spin6() -> SpinOrbitModel:
    # SU(4) on C^4; vectors are the real points of Lambda^2 C^4 under the
    # conjugation w -> star(conj w), with v.v the (positive) Pfaffian.
    lie = _constrained_matrices(
        4,
        True,
        [_anti_hermitian, lambda m: np.array([np.trace(m).imag])],
        "su(4)",
    )
    _check_dim(lie, 15, "SPIN6 algebra")
    vec_basis = _constrained_matrices(
        4,
        True,
        [_skew, lambda m: _hodge_star4(m.conj()) - m],
        "SPIN6 vector space",
    )
    _check_dim(vec_basis, 6, "SPIN6 vectors")
    vec = MatrixSpan(vec_basis, "SPIN6 vectors")

    def membership(g):
        return _norm(g.conj().T @ g - np.eye(4)) + abs(np.linalg.det(g) - 1.0)

    return SpinOrbitModel(
        name="SPIN6",
        signature=(6, 0),
        group_dim=15,
        spinor_dim=4,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g @ m @ g.T,
        sigma_fn=None,
        invariants_fn=lambda s: {"norm_sq": float(np.vdot(s, s).real)},
        label_fn=lambda s: "zero" if _norm(s) == 0.0 else "sphere",
        vector_square_fn=_pf_real,
    )


def _model_spin51() -> SpinOrbitModel:
    # SL(2,H) acting on H^2 + H^2 as (A s+, (A^*)^{-1} s-); vectors are
    # quaternion-Hermitian 2x2 matrices with v.v = -det, transformed
    # through the plus factor, and sigma(s+) = s+ s+^* is null.
    j4 = _jmat(2)
    blocks = (slice(0, 4), slice(4, 8))
    constraints = [
        lambda m: m[0:4, 4:8],
        lambda m: m[4:8, 0:4],
        lambda m: _quaternion_linear(j4)(m[0:4, 0:4]),
        lambda m: np.array([np.trace(m[0:4, 0:4]).real]),
        lambda m: m[4:8, 4:8] + m[0:4, 0:4].conj().T,
    ]
    lie = _constrained_matrices(8, True, constraints, "sl(2,H)")
    _check_dim(lie, 15, "SPIN51 algebra")
    vec_basis = _constrained_matrices(
        4, True, [_quaternion_linear(j4), _hermitian], "SPIN51 vector space"
    )
    _check_dim(vec_basis, 6, "SPIN51 vectors")
    vec = MatrixSpan(vec_basis, "SPIN51 vectors")

    def membership(g):
        gp, gm = g[0:4, 0:4], g[4:8, 4:8]
        r = _norm(g[0:4, 4:8]) + _norm(g[4:8, 0:4])
        r += _norm(gp @ j4 - j4 @ gp.conj())
        r += abs(np.linalg.det(gp) - 1.0)
        r += _norm(gm - np.linalg.inv(gp.conj().T))
        return r

    def pairing(s):
        lam = quaternion_vector_unembed(s[4:8]).conj_t() @ (
            quaternion_vector_unembed(s[0:4])
        )
        return tuple(float(c[0, 0]) for c in lam.components())

    def invariants(s):
        return {"pairing": pairing(s), "support": _support_label(s, blocks)}

    def label(s):
        support = _support_label(s, blocks)
        if support == "zero":
            return "zero"
        if support == "plus":
            return "chiral-plus"
        if support == "minus":
            return "chiral-minus"
        lam = np.array(pairing(s))
        if _norm(lam) <= SUPPORT_TOL * _norm(s) ** 2:
            return "null-pair"
        return "generic"

    return SpinOrbitModel(
        name="SPIN51",
        signature=(5, 1),
        group_dim=15,
        spinor_dim=8,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=blocks,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g[0:4, 0:4] @ m @ g[0:4, 0:4].conj().T,
        sigma_fn=lambda s: _quaternion_outer_embed(s[0:4], j4),
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=lambda m: -qdet2(QMatrix.unembed(m, (2, 2))),
    )


_Q42 = np.diag([1.0, 1.0, -1.0, -1.0])


def _model_spin42() -> SpinOrbitModel:
    # SU(2,2) on C^4 with the (2,2) Hermitian form; vectors are the real
    # points of Lambda^2 C^4 under the form-twisted conjugation
    # w -> star(Q conj(w) Q), with v.v = -Pf of signature (4,2).
    lie = _constrained_matrices(
        4,
        True,
        [
            lambda m: m.conj().T @ _Q42 + _Q42 @ m,
            lambda m: np.array([np.trace(m).imag]),
        ],
        "su(2,2)",
    )
    _check_dim(lie, 15, "SPIN42 algebra")
    vec_basis = _constrained_matrices(
        4,
        True,
        [_skew, lambda m: _hodge_star4(_Q42 @ m.conj() @ _Q42) - m],
        "SPIN42 vector space",
    )
    _check_dim(vec_basis, 6, "SPIN42 vectors")
    vec = MatrixSpan(vec_basis, "SPIN42 vectors")

    def membership(g):
        form = _norm(g.conj().T @ _Q42 @ g - _Q42)
        return form + abs(np.linalg.det(g) - 1.0)

    def nu(s):
        return float((s.conj() @ (_Q42 @ s)).real)

    def label(s):
        if _norm(s) == 0.0:
            return "zero"
        value = nu(s)
        if abs(value) <= 1e-10 * _norm(s) ** 2:
            return "null"
        return "positive" if value > 0 else "negative"

    return SpinOrbitModel(
        name="SPIN42",
        signature=(4, 2),
        group_dim=15,
        spinor_dim=4,
        complex_field=True,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=None,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g @ m @ g.T,
        sigma_fn=None,
        invariants_fn=lambda s: {"nu": nu(s)},
        label_fn=label,
        vector_square_fn=lambda m: -_pf_real(m),
    )


def _model_spin33() -> SpinOrbitModel:
    # SL(4,R) acting on R^4 + R^4 as (A s+, (A^t)^{-1} s-); vectors are
    # skew 4x4 matrices with v.v the Pfaffian, transformed through the
    # plus factor.
    blocks = (slice(0, 4), slice(4, 8))
    constraints = [
        lambda m: m[0:4, 4:8],
        lambda m: m[4:8, 0:4],
        lambda m: np.array([np.trace(m[0:4, 0:4])]),
        lambda m: m[4:8, 4:8] + m[0:4, 0:4].T,
    ]
    lie = _constrained_matrices(8, False, constraints, "sl(4,R)")
    _check_dim(lie, 15, "SPIN33 algebra")
    vec = MatrixSpan(
        _constrained_matrices(4, False, [_skew], "SPIN33 vector space"),
        "SPIN33 vectors",
    )

    def membership(g):
        gp, gm = g[0:4, 0:4], g[4:8, 4:8]
        r = _norm(g[0:4, 4:8]) + _norm(g[4:8, 0:4])
        r += abs(float(np.linalg.det(gp)) - 1.0)
        r += _norm(gm - np.linalg.inv(gp.T))
        return r

    def pairing(s):
        return float(s[4:8] @ s[0:4])

    def invariants(s):
        return {"pairing": pairing(s), "support": _support_label(s, blocks)}

    def label(s):
        support = _support_label(s, blocks)
        if support == "zero":
            return "zero"
        if support == "plus":
            return "chiral-plus"
        if support == "minus":
            return "chiral-minus"
        if abs(pairing(s)) <= SUPPORT_TOL * _norm(s) ** 2:
            return "null-pair"
        return "generic"

    return SpinOrbitModel(
        name="SPIN33",
        signature=(3, 3),
        group_dim=15,
        spinor_dim=8,
        complex_field=False,
        lie_basis=tuple(lie),
        vector_space=vec,
        blocks=blocks,
        membership_fn=membership,
        vector_action_fn=lambda g, m: g[0:4, 0:4] @ m @ g[0:4, 0:4].T,
        sigma_fn=None,
        invariants_fn=invariants,
        label_fn=label,
        vector_square_fn=_pf_real,
    )


_BUILDERS = {
    "SPIN2": _model_spin2,
    "SPIN11": _model_spin11,
    "SPIN3": _model_spin3,
    "SPIN21": _model_spin21,
    "SPIN4": _model_spin4,
    "SPIN31": _model_spin31,
    "SPIN22": _model_spin22,
    "SPIN5": _model_spin5,
    "SPIN41": _model_spin41,
    "SPIN32": _model_spin32,
    "SPIN6": _model_spin6,
    "SPIN51": _model_spin51,
    "SPIN42": _model_spin42,
    "SPIN33": _model_spin33,
}


@lru_cache(maxsize=None)
def get_model(name: str) -> SpinOrbitModel:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown orbit model {name!r}") from None
    return builder()


def all_models() -> tuple[SpinOrbitModel, ...]:
    return tuple(get_model(name) for name in MODEL_NAMES)


def _resolve(model: SpinOrbitModel | str) -> SpinOrbitModel:
    return get_model(model) if isinstance(model, str) else model


def act_spinor(model, g, s):
    return _resolve(model).act_spinor(g, s)


def act_vector(model, g, v):
    return _resolve(model).act_vector(g, v)


def square_spinor(model, s):
    return _resolve(model).square_spinor(s)


def vector_square(model, v):
    return _resolve(model).vector_square(v)


def orbit_invariant(model, s):
    return _resolve(model).orbit_invariant(s)


def orbit_label(model, s):
    return _resolve(model).orbit_label(s)


def stabilizer_dimension(model, s):
    return _resolve(model).stabilizer_dimension(s)


def orbit_dimension(model, s):
    return _resolve(model).orbit_dimension(s)


def orbit_report(model, s):
    return _resolve(model).orbit_report(s)


def pin_swap(model, s):
    return _resolve(model).pin_swap(s)


# ---------------------------------------------------------------------------
# Purity in split (and nearly split) signatures


# Signatures whose purity criterion runs through the explicit models above;
# values are the half-spinor block slices.
_EVEN_SPLIT_BLOCKS = {
    (1, 1): (slice(0, 1), slice(1, 2)),
    (2, 2): (slice(0, 2), slice(2, 4)),
    (3, 3): (slice(0, 4), slice(4, 8)),
}
_ODD_SPLIT = {(2, 1), (3, 2)}
_CLIFFORD_PURITY = {(4, 3), (4, 4)}

PURITY_SIGNATURES = tuple(
    sorted(_ODD_SPLIT | set(_EVEN_SPLIT_BLOCKS) | _CLIFFORD_PURITY)
)


@lru_cache(maxsize=None)
def _cached_rep(p: int, q: int) -> clifford.SpinRepresentation:
    return clifford.spin_representation(p, q)


def _half_spinor_basis(rep: clifford.SpinRepresentation):
    """Orthonormal column bases of the two chiral halves."""
    return [
        orthonormal_span(list(proj), f"spin({rep.p},{rep.q}) {half} half-spinors").T
        for proj, half in zip(rep.chiral_projectors(), ("plus", "minus"))
    ]


def is_pure(signature: tuple[int, int], s: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether a spinor lies on the minimal (pure) orbit of a split form.

    Spinors are given in the coordinates of the matching orbit model for
    signatures up to (3,3) and in the module coordinates of
    ``clifford.spin_representation`` for (4,3) and (4,4).
    """
    p, q = signature
    s = np.asarray(s, dtype=float)
    total = _norm(s)
    if total == 0.0:
        raise ValueError("the zero spinor has no purity type")
    if (p, q) in _ODD_SPLIT:
        return True
    if (p, q) in _EVEN_SPLIT_BLOCKS:
        lo, hi = _EVEN_SPLIT_BLOCKS[(p, q)]
        plus = _norm(s[lo]) > tol * total
        minus = _norm(s[hi]) > tol * total
        return plus != minus
    if (p, q) == (4, 3):
        rep = _cached_rep(4, 3)
        forms = rep.invariant_forms()
        return all(
            abs(s @ (f @ s)) <= tol * _norm(f) * total**2 for f in forms
        )
    if (p, q) == (4, 4):
        rep = _cached_rep(4, 4)
        plus, minus = _half_spinor_basis(rep)
        in_plus = _norm(s - plus @ (plus.T @ s)) <= tol * total
        in_minus = _norm(s - minus @ (minus.T @ s)) <= tol * total
        if not (in_plus or in_minus):
            return False
        forms = rep.invariant_forms()
        return all(
            abs(s @ (f @ s)) <= tol * _norm(f) * total**2 for f in forms
        )
    raise ValueError(f"no purity criterion for signature {signature}")


def pure_spinor(signature: tuple[int, int]) -> np.ndarray:
    """A deterministic unit-norm pure spinor for a split signature."""
    p, q = signature
    if (p, q) in _ODD_SPLIT:
        dim = {(2, 1): 2, (3, 2): 4}[(p, q)]
        s = np.zeros(dim)
        s[0] = 1.0
        return s
    if (p, q) in _EVEN_SPLIT_BLOCKS:
        dim = {(1, 1): 2, (2, 2): 4, (3, 3): 8}[(p, q)]
        s = np.zeros(dim)
        s[0] = 1.0
        return s
    if (p, q) == (4, 3):
        rep = _cached_rep(4, 3)
        form = rep.invariant_forms()[0]
        return _null_vector_of(form)
    if (p, q) == (4, 4):
        rep = _cached_rep(4, 4)
        half = _half_spinor_basis(rep)[0]
        forms = rep.invariant_forms()
        restricted = [half.T @ f @ half for f in forms]
        form = max(restricted, key=lambda f: _norm(f))
        s = half @ _null_vector_of(form)
        return s / _norm(s)
    raise ValueError(f"no purity criterion for signature {signature}")


def _null_vector_of(form: np.ndarray) -> np.ndarray:
    """Unit null vector of an indefinite symmetric form."""
    vals, vecs = np.linalg.eigh(0.5 * (form + form.T))
    if vals[0] >= 0 or vals[-1] <= 0:
        raise ValueError("form is not indefinite")
    s = vecs[:, -1] / np.sqrt(vals[-1]) + vecs[:, 0] / np.sqrt(-vals[0])
    return s / _norm(s)


def spin_action_matrix(p: int, q: int, s: np.ndarray) -> np.ndarray:
    """Columns a.s over the spin(p,q) basis of the Clifford module."""
    rep = _cached_rep(p, q)
    s = np.asarray(s, dtype=float)
    if s.shape != (rep.dim,):
        raise ValueError(f"spinor must have shape ({rep.dim},)")
    return np.column_stack([a @ s for a in rep.so_basis])


def spin_stabilizer_dimension(p: int, q: int, s: np.ndarray) -> int:
    rep = _cached_rep(p, q)
    rank = guarded_rank(
        spin_action_matrix(p, q, s), label=f"spin({p},{q}) stabilizer"
    )
    return len(rep.so_basis) - rank


def spin_orbit_dimension(p: int, q: int, s: np.ndarray) -> int:
    return guarded_rank(
        spin_action_matrix(p, q, s), label=f"spin({p},{q}) orbit"
    )
