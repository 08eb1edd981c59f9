"""Orbit models for spin groups acting on low-dimensional spinor spaces.

Each model is a concrete matrix realization of a spin group in
dimensions two through six, declared by what the group preserves: a
Hermitian (over R, bilinear) form, a quaternionic structure, unit
determinant on a block, the split into half-spinor blocks, a
contragredient block, or a sign.  One rule turns a declaration into the
model: every preserved structure states its equation once, linearized
at the identity for the Lie algebra and as a residual for the group
membership test.  The vector representation is realized on a space of
structured matrices, with whatever equivariant squaring map and
algebraic invariants the realization carries.

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
from typing import Callable, NamedTuple

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
# Linear conditions on matrices (each vanishes exactly on its subspace)


def _adj(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _quaternion_linear(m: np.ndarray) -> np.ndarray:
    j = _jmat(m.shape[0] // 2)
    return m @ j - j @ m.conj()


def _anti_hermitian(m: np.ndarray) -> np.ndarray:
    return m + _adj(m)


def _hermitian(m: np.ndarray) -> np.ndarray:
    return m - _adj(m)


def _skew(m: np.ndarray) -> np.ndarray:
    return m + m.T


def _symmetric(m: np.ndarray) -> np.ndarray:
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


def _form_value(q: np.ndarray, s: np.ndarray) -> float:
    return float((s.conj() @ (q @ s)).real)


def _pf_real(m: np.ndarray) -> float:
    return float(np.real(pfaffian(m)))


def _det_real(m: np.ndarray) -> float:
    return float(np.linalg.det(m).real)


def _minus_qdet(m: np.ndarray) -> float:
    return -qdet2(QMatrix.unembed(m, (2, 2)))


# ---------------------------------------------------------------------------
# What a group preserves


class _Preserved(NamedTuple):
    """One defining equation of a spin group, stated once.

    ``lie`` is the equation linearized at the identity, a linear
    constraint on the Lie algebra (None for an open condition), and
    ``residual`` measures how far a matrix is from satisfying it.
    """

    lie: Callable[[np.ndarray], np.ndarray] | None
    residual: Callable[[np.ndarray], float]


_ALL = slice(None)


def _halves(h: int) -> tuple[slice, slice]:
    return slice(0, h), slice(h, 2 * h)


def _form(q: np.ndarray, sl: slice = _ALL) -> _Preserved:
    """g^* q g = q on a diagonal block (bilinear over the reals)."""
    return _Preserved(
        lambda m: _adj(m[sl, sl]) @ q + q @ m[sl, sl],
        lambda g: _norm(_adj(g[sl, sl]) @ q @ g[sl, sl] - q),
    )


def _quaternionic(sl: slice = _ALL) -> _Preserved:
    """g j = j conj(g) on a diagonal block."""
    return _Preserved(
        lambda m: _quaternion_linear(m[sl, sl]),
        lambda g: _norm(_quaternion_linear(g[sl, sl])),
    )


def _unit_det(sl: slice = _ALL) -> _Preserved:
    """det g = 1 on a diagonal block; linearized, the trace vanishes."""
    return _Preserved(
        lambda m: np.array([np.trace(m[sl, sl])]),
        lambda g: abs(np.linalg.det(g[sl, sl]) - 1.0),
    )


def _block_diagonal(blocks: tuple[slice, slice]) -> _Preserved:
    """g maps each half-spinor block to itself."""
    lo, hi = blocks
    return _Preserved(
        lambda m: np.concatenate([m[lo, hi].ravel(), m[hi, lo].ravel()]),
        lambda g: _norm(g[lo, hi]) + _norm(g[hi, lo]),
    )


def _contragredient(blocks: tuple[slice, slice]) -> _Preserved:
    """The minus block acts as (g+^*)^{-1}, so s-^* s+ is invariant."""
    lo, hi = blocks
    return _Preserved(
        lambda m: m[hi, hi] + _adj(m[lo, lo]),
        lambda g: _norm(g[hi, hi] - np.linalg.inv(_adj(g[lo, lo]))),
    )


# The identity component of SPIN11: an open condition, no Lie constraint.
_POSITIVE_ENTRY = _Preserved(None, lambda g: float(g[0, 0].real <= 0.0))


def _congruence(hermitian: bool, left: slice = _ALL, right: slice | None = None):
    """Vector action v -> A v B^* (B^t when not Hermitian) by blocks of g."""
    right = left if right is None else right
    if hermitian:
        return lambda g, m: g[left, left] @ m @ _adj(g[right, right])
    return lambda g, m: g[left, left] @ m @ g[right, right].T


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
    on the spinor coordinates, cut out by the linearized ``preserves``
    equations; group elements are sampled as exponentials of its random
    combinations, and membership of a candidate matrix is the summed
    residual of the same equations.  Labels and invariants are read off
    the half-spinor ``blocks``, compactness (q = 0), the ``pairing_fn``
    between the blocks and the indefinite ``spinor_form``.
    """

    name: str
    signature: tuple[int, int]
    spinor_dim: int
    complex_field: bool
    lie_basis: tuple[np.ndarray, ...]
    vector_space: MatrixSpan
    preserves: tuple[_Preserved, ...]
    vector_action_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    vector_square_fn: Callable[[np.ndarray], float]
    blocks: tuple[slice, slice] | None = None
    sigma_fn: Callable[[np.ndarray], np.ndarray] | None = None
    pairing_fn: Callable[[np.ndarray], float | tuple] | None = None
    spinor_form: np.ndarray | None = None

    @property
    def group_dim(self) -> int:
        n = sum(self.signature)
        return n * (n - 1) // 2

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
        g = self._coerce_group(g)
        return float(sum(p.residual(g) for p in self.preserves))

    def _checked(self, g: np.ndarray) -> np.ndarray:
        residual = self.membership_residual(g)
        if residual > MEMBERSHIP_TOL:
            raise ValueError(
                f"{self.name}: matrix is not a group element "
                f"(structure residual {residual:.2e})"
            )
        return self._coerce_group(g)

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
        s = self._coerce_spinor(s)
        compact = self.signature[1] == 0
        out = {}
        if self.blocks is None:
            if compact:
                out["norm_sq"] = float(np.vdot(s, s).real)
            if self.spinor_form is not None:
                out["nu"] = _form_value(self.spinor_form, s)
            return out
        lo, hi = self.blocks
        if compact:
            out["norm_plus"] = float(np.vdot(s[lo], s[lo]).real)
            out["norm_minus"] = float(np.vdot(s[hi], s[hi]).real)
        if self.pairing_fn is not None:
            out["pairing"] = self.pairing_fn(s)
        out["support"] = _support_label(s, self.blocks)
        return out

    def orbit_label(self, s: np.ndarray) -> str:
        s = self._coerce_spinor(s)
        total = _norm(s)
        if total == 0.0:
            return "zero"
        if self.blocks is not None:
            support = _support_label(s, self.blocks)
            if support != "both":
                return f"chiral-{support}"
            if self.pairing_fn is not None:
                pairing = np.atleast_1d(self.pairing_fn(s))
                if _norm(pairing) <= SUPPORT_TOL * total**2:
                    return "null-pair"
            return "generic"
        if self.spinor_form is not None:
            value = _form_value(self.spinor_form, s)
            if abs(value) <= 1e-10 * total**2:
                return "null"
            return "positive" if value > 0 else "negative"
        return "sphere" if self.signature[1] == 0 else "generic"

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
# Declarations: what each group preserves, and the maps that differ


_Q41 = np.diag([1.0, -1.0, 1.0, -1.0])
_Q42 = np.diag([1.0, 1.0, -1.0, -1.0])
_J4 = _jmat(2)
_J32 = _J4  # as a real matrix, the standard symplectic form of R^4
_H1, _H2, _H4 = _halves(1), _halves(2), _halves(4)


def _quaternion_pairing(s: np.ndarray) -> tuple[float, ...]:
    # the quaternion s-^* s+ between the SPIN51 half-spinors
    lam = quaternion_vector_unembed(s[4:8]).conj_t() @ (
        quaternion_vector_unembed(s[0:4])
    )
    return tuple(float(c[0, 0]) for c in lam.components())


# Each entry gives the signature, the spinor space, the preserved
# structures and the vector space as (matrix size, linear constraints),
# plus the maps that really differ between models.
_DECLARATIONS = {
    # U(1) on C; a unit scalar rotates spinors once and vectors twice.
    "SPIN2": dict(
        signature=(2, 0), spinor_dim=1, complex_field=True,
        preserves=(_form(np.eye(1)),),
        vectors=(1, ()), vector_action_fn=_congruence(False),
        vector_square_fn=lambda m: float(abs(m[0, 0]) ** 2),
    ),
    # R^x acting on the two null half-spinor lines with opposite weights.
    "SPIN11": dict(
        signature=(1, 1), spinor_dim=2, complex_field=False, blocks=_H1,
        preserves=(_block_diagonal(_H1), _unit_det(), _POSITIVE_ENTRY),
        vectors=(2, (lambda m: np.array([m[0, 1], m[1, 0]]),)),
        vector_action_fn=_congruence(False),
        vector_square_fn=lambda m: float(m[0, 0] * m[1, 1]),
        pairing_fn=lambda s: float(s[0] * s[1]),
    ),
    # Sp(1) = unit quaternions acting on H by left multiplication;
    # vectors are imaginary quaternions, rotated by v -> A v conj(A).
    "SPIN3": dict(
        signature=(3, 0), spinor_dim=2, complex_field=True,
        preserves=(_form(np.eye(2)), _quaternionic()),
        vectors=(2, (_quaternion_linear, _anti_hermitian)),
        vector_action_fn=_congruence(True), vector_square_fn=_det_real,
    ),
    # SL(2,R) on R^2; vectors are symmetric 2x2 matrices with v.v = -det v,
    # and sigma(s) = s s^t sweeps one nappe of the null cone.
    "SPIN21": dict(
        signature=(2, 1), spinor_dim=2, complex_field=False,
        preserves=(_unit_det(),),
        vectors=(2, (_symmetric,)), vector_action_fn=_congruence(False),
        vector_square_fn=lambda m: -_det_real(m),
        sigma_fn=lambda s: np.outer(s, s),
    ),
    # Sp(1) x Sp(1) on H + H; vectors are quaternions with v -> A v conj(B).
    "SPIN4": dict(
        signature=(4, 0), spinor_dim=4, complex_field=True, blocks=_H2,
        preserves=(
            _block_diagonal(_H2),
            _form(np.eye(2), _H2[0]), _quaternionic(_H2[0]),
            _form(np.eye(2), _H2[1]), _quaternionic(_H2[1]),
        ),
        vectors=(2, (_quaternion_linear,)),
        vector_action_fn=_congruence(True, *_H2), vector_square_fn=_det_real,
    ),
    # SL(2,C) on C^2; vectors are Hermitian 2x2 matrices with v.v = -det v,
    # and sigma(s) = s s^* lands on the forward nappe of the null cone.
    "SPIN31": dict(
        signature=(3, 1), spinor_dim=2, complex_field=True,
        preserves=(_unit_det(),),
        vectors=(2, (_hermitian,)), vector_action_fn=_congruence(True),
        vector_square_fn=lambda m: -_det_real(m),
        sigma_fn=lambda s: np.outer(s, s.conj()),
    ),
    # SL(2,R) x SL(2,R) on R^2 + R^2; vectors are all real 2x2 matrices
    # with v.v = det v, and sigma(s+, s-) = s+ s-^t fills the null cone.
    "SPIN22": dict(
        signature=(2, 2), spinor_dim=4, complex_field=False, blocks=_H2,
        preserves=(_block_diagonal(_H2), _unit_det(_H2[0]), _unit_det(_H2[1])),
        vectors=(2, ()), vector_action_fn=_congruence(False, *_H2),
        vector_square_fn=_det_real,
        sigma_fn=lambda s: np.outer(s[0:2], s[2:4]),
    ),
    # Sp(2) on H^2; vectors are traceless quaternion-Hermitian 2x2 matrices
    # acted on by m -> A m A^*; sigma(s) = s s^* - |s|^2/2 projects the
    # quaternion outer square onto the traceless part.
    "SPIN5": dict(
        signature=(5, 0), spinor_dim=4, complex_field=True,
        preserves=(_form(np.eye(4)), _quaternionic()),
        vectors=(4, (_quaternion_linear, _hermitian,
                     lambda m: np.array([np.trace(m).real]))),
        vector_action_fn=_congruence(True),
        vector_square_fn=lambda m: float(np.trace(m @ m).real) / 2.0,
        sigma_fn=lambda s: _quaternion_outer_embed(s, _J4)
        - 0.5 * float(np.vdot(s, s).real) * np.eye(4),
    ),
    # Sp(1,1) preserving the quaternion form |s1|^2 - |s2|^2 on H^2.
    # Vectors are quaternion-Hermitian with tr(Q m) = 0 and v.v = -det m;
    # sigma(s) = s s^* - nu(s) Q / 2 squares to a past/future-pointing or
    # null vector according to the sign of nu.
    "SPIN41": dict(
        signature=(4, 1), spinor_dim=4, complex_field=True,
        preserves=(_form(_Q41), _quaternionic()),
        vectors=(4, (_quaternion_linear, _hermitian,
                     lambda m: np.array([np.trace(_Q41 @ m).real]))),
        vector_action_fn=_congruence(True), vector_square_fn=_minus_qdet,
        sigma_fn=lambda s: _quaternion_outer_embed(s, _J4)
        - 0.5 * _form_value(_Q41, s) * _Q41,
        spinor_form=_Q41,
    ),
    # Sp(4,R) on R^4; vectors are skew 4x4 matrices orthogonal to the
    # symplectic form, with v.v the Pfaffian.
    "SPIN32": dict(
        signature=(3, 2), spinor_dim=4, complex_field=False,
        preserves=(_form(_J32),),
        vectors=(4, (_skew, lambda m: np.array([np.trace(_J32 @ m)]))),
        vector_action_fn=_congruence(False), vector_square_fn=_pf_real,
    ),
    # SU(4) on C^4; vectors are the real points of Lambda^2 C^4 under the
    # conjugation w -> star(conj w), with v.v the (positive) Pfaffian.
    "SPIN6": dict(
        signature=(6, 0), spinor_dim=4, complex_field=True,
        preserves=(_form(np.eye(4)), _unit_det()),
        vectors=(4, (_skew, lambda m: _hodge_star4(m.conj()) - m)),
        vector_action_fn=_congruence(False), vector_square_fn=_pf_real,
    ),
    # SL(2,H) acting on H^2 + H^2 as (A s+, (A^*)^{-1} s-); vectors are
    # quaternion-Hermitian 2x2 matrices with v.v = -det, transformed
    # through the plus factor, and sigma(s+) = s+ s+^* is null.
    "SPIN51": dict(
        signature=(5, 1), spinor_dim=8, complex_field=True, blocks=_H4,
        preserves=(_block_diagonal(_H4), _quaternionic(_H4[0]),
                   _unit_det(_H4[0]), _contragredient(_H4)),
        vectors=(4, (_quaternion_linear, _hermitian)),
        vector_action_fn=_congruence(True, _H4[0]),
        vector_square_fn=_minus_qdet,
        sigma_fn=lambda s: _quaternion_outer_embed(s[0:4], _J4),
        pairing_fn=_quaternion_pairing,
    ),
    # SU(2,2) on C^4 with the (2,2) Hermitian form; vectors are the real
    # points of Lambda^2 C^4 under the form-twisted conjugation
    # w -> star(Q conj(w) Q), with v.v = -Pf of signature (4,2).
    "SPIN42": dict(
        signature=(4, 2), spinor_dim=4, complex_field=True,
        preserves=(_form(_Q42), _unit_det()),
        vectors=(4, (_skew, lambda m: _hodge_star4(_Q42 @ m.conj() @ _Q42) - m)),
        vector_action_fn=_congruence(False),
        vector_square_fn=lambda m: -_pf_real(m),
        spinor_form=_Q42,
    ),
    # SL(4,R) acting on R^4 + R^4 as (A s+, (A^t)^{-1} s-); vectors are
    # skew 4x4 matrices with v.v the Pfaffian, transformed through the
    # plus factor.
    "SPIN33": dict(
        signature=(3, 3), spinor_dim=8, complex_field=False, blocks=_H4,
        preserves=(_block_diagonal(_H4), _unit_det(_H4[0]),
                   _contragredient(_H4)),
        vectors=(4, (_skew,)), vector_action_fn=_congruence(False, _H4[0]),
        vector_square_fn=_pf_real,
        pairing_fn=lambda s: float(s[4:8] @ s[0:4]),
    ),
}


def _derive(name: str, declaration: dict) -> SpinOrbitModel:
    """The model of a declaration: Lie algebra and vectors from constraints."""
    decl = dict(declaration)
    size, vector_constraints = decl.pop("vectors")
    field = decl["complex_field"]
    lie = _constrained_matrices(
        decl["spinor_dim"], field,
        [p.lie for p in decl["preserves"] if p.lie is not None],
        f"{name} algebra",
    )
    vectors = _constrained_matrices(
        size, field, list(vector_constraints), f"{name} vector space"
    )
    n = sum(decl["signature"])
    for what, got, expected in (("algebra", lie, n * (n - 1) // 2),
                                ("vectors", vectors, n)):
        if len(got) != expected:
            raise RuntimeError(
                f"{name} {what}: constraint solution has dimension "
                f"{len(got)}, expected {expected}"
            )
    return SpinOrbitModel(
        name=name,
        lie_basis=tuple(lie),
        vector_space=MatrixSpan(vectors, f"{name} vectors"),
        **decl,
    )


@lru_cache(maxsize=None)
def get_model(name: str) -> SpinOrbitModel:
    try:
        declaration = _DECLARATIONS[name]
    except KeyError:
        raise ValueError(f"unknown orbit model {name!r}") from None
    return _derive(name, declaration)


def all_models() -> tuple[SpinOrbitModel, ...]:
    return tuple(get_model(name) for name in MODEL_NAMES)


# ---------------------------------------------------------------------------
# Purity in split (and nearly split) signatures


# Split signatures whose purity criterion runs through an orbit model: a
# model with half-spinor blocks (even split) or without (odd split).
_SPLIT_MODELS = {
    _DECLARATIONS[name]["signature"]: _DECLARATIONS[name]
    for name in ("SPIN11", "SPIN21", "SPIN22", "SPIN32", "SPIN33")
}
_CLIFFORD_PURITY = {(4, 3), (4, 4)}

PURITY_SIGNATURES = tuple(sorted(set(_SPLIT_MODELS) | _CLIFFORD_PURITY))


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
    if (p, q) in _SPLIT_MODELS:
        blocks = _SPLIT_MODELS[(p, q)].get("blocks")
        if blocks is None:
            return True
        lo, hi = blocks
        plus = _norm(s[lo]) > tol * total
        minus = _norm(s[hi]) > tol * total
        return plus != minus
    if (p, q) not in _CLIFFORD_PURITY:
        raise ValueError(f"no purity criterion for signature {signature}")
    rep = _cached_rep(p, q)
    if (p, q) == (4, 4):
        plus, minus = _half_spinor_basis(rep)
        in_plus = _norm(s - plus @ (plus.T @ s)) <= tol * total
        in_minus = _norm(s - minus @ (minus.T @ s)) <= tol * total
        if not (in_plus or in_minus):
            return False
    return all(
        abs(s @ (f @ s)) <= tol * _norm(f) * total**2
        for f in rep.invariant_forms()
    )


def pure_spinor(signature: tuple[int, int]) -> np.ndarray:
    """A deterministic unit-norm pure spinor for a split signature."""
    p, q = signature
    if (p, q) in _SPLIT_MODELS:
        s = np.zeros(_SPLIT_MODELS[(p, q)]["spinor_dim"])
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
