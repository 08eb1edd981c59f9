"""Real Clifford algebras as explicit matrix generators, with classification.

Generators for signature (p, q) are signed-permutation matrices obeying

    g_i g_j + g_j g_i = -2 eta_ij I,    eta = diag(+1 x p, -1 x q),

so a unit spacelike vector squares to -I and a unit timelike one to +I.
The list returned by :func:`clifford_generators` keeps the spacelike block
first and the timelike block second.

Classification of the generated algebra as R(k), C(k), H(k) or a double
block F(k)+F(k) works module-theoretically: extract an irreducible
submodule, then measure the commutant acting on it.  Conjugation by a
generator is an involution of matrix space and the generators pairwise
anticommute, so composing the averaging maps (X + g X g^-1)/2 over all
generators is an exact projector onto the commutant; no iteration, no
tolerance tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import MatrixSpan, invariant_symmetric_forms, orthonormal_span

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_D2 = np.array([[1.0, 0.0], [0.0, -1.0]])
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _quaternion_left_units() -> tuple[np.ndarray, np.ndarray]:
    """Left multiplication by i and j on the quaternions, basis (1, i, j, k)."""
    li = np.array(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
    )
    lj = np.array(
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    return li, lj


def signature_eta(p: int, q: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


def clifford_generators(p: int, q: int) -> list[np.ndarray]:
    """Anticommuting generator matrices for signature (p, q).

    Built from four base cases and three doubling steps:
    a mixed step peeling one (1,1) factor, and two definite-signature
    steps trading two spacelike generators for Cl(2,0) = H (size x4) or
    two timelike ones for Cl(0,2) = R(2) (size x2).
    """
    if p < 0 or q < 0:
        raise ValueError("signature components must be nonnegative")
    if p == 0 and q == 0:
        return []
    if (p, q) == (1, 0):
        return [_J2.copy()]
    if (p, q) == (0, 1):
        return [_D2.copy()]
    if (p, q) == (0, 2):
        return [_D2.copy(), _X2.copy()]
    if (p, q) == (2, 0):
        li, lj = _quaternion_left_units()
        return [li, lj]
    if p >= 1 and q >= 1:
        sub = clifford_generators(p - 1, q - 1)
        omega = _J2 @ _X2  # diag(-1, 1), squares to +I, anticommutes with both
        eye = np.eye(sub[0].shape[0] if sub else 1)
        space = [np.kron(g, omega) for g in sub[: p - 1]] + [np.kron(eye, _J2)]
        time = [np.kron(g, omega) for g in sub[p - 1 :]] + [np.kron(eye, _X2)]
        return space + time
    if q == 0:  # p >= 3
        sub = clifford_generators(0, p - 2)
        a, b = _quaternion_left_units()
        omega = a @ b  # left mult by k, squares to -I
        eye = np.eye(sub[0].shape[0])
        return [np.kron(eye, a), np.kron(eye, b)] + [np.kron(f, omega) for f in sub]
    # p == 0, q >= 3
    sub = clifford_generators(q - 2, 0)
    omega = _D2 @ _X2  # squares to -I
    eye = np.eye(sub[0].shape[0])
    return [np.kron(eye, _D2), np.kron(eye, _X2)] + [np.kron(e, omega) for e in sub]


def volume_element(gens: list[np.ndarray]) -> np.ndarray:
    out = gens[0]
    for g in gens[1:]:
        out = out @ g
    return out


def even_generators(gens: list[np.ndarray]) -> list[np.ndarray]:
    """Products g_1 g_j generating the even subalgebra."""
    return [gens[0] @ g for g in gens[1:]]


# -- module extraction ------------------------------------------------------


def _commutant_projector(mats: list[np.ndarray]):
    """Exact projector onto {X : X commutes with all mats}.

    Requires each matrix orthogonal with square +-I and the family
    pairwise anticommuting (or commuting), which makes the individual
    averaging maps commuting involutive projections.
    """

    def proj(x: np.ndarray) -> np.ndarray:
        for g in mats:
            x = 0.5 * (x + g @ x @ g.T)
        return x

    return proj


def _eigencluster_spaces(b: np.ndarray, tol: float = 1e-6) -> list[np.ndarray]:
    vals, vecs = np.linalg.eigh(b)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    spaces = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol * scale:
            spaces.append(vecs[:, start:i])
            start = i
    return spaces


def _minimal_module(mats, rng, prefer_plus=None) -> np.ndarray:
    """Orthonormal column basis of a minimal-dimension invariant eigenspace."""
    n = mats[0].shape[0]
    proj = _commutant_projector(mats)
    x = rng.standard_normal((n, n))
    b = proj(x + x.T)
    b /= np.linalg.norm(b)
    spaces = _eigencluster_spaces(b)
    dmin = min(s.shape[1] for s in spaces)
    candidates = [s for s in spaces if s.shape[1] == dmin]
    if prefer_plus is not None:
        for s in candidates:
            if np.trace(s.T @ prefer_plus @ s) > 0:
                return s
    return candidates[0]


def _restrict(mats, basis, tol: float = 1e-9) -> list[np.ndarray]:
    out = []
    for g in mats:
        gb = g @ basis
        gt = basis.T @ gb
        if np.linalg.norm(gb - basis @ gt) > tol * max(1.0, np.linalg.norm(gb)):
            raise ArithmeticError("candidate subspace is not invariant")
        out.append(gt)
    return out


def _commutant_dim(restricted: list[np.ndarray]) -> int:
    """dim of the commutant on an invariant module, by character averaging.

    The +-products of generator subsets form a finite group; averaging
    tr(rho(g))^2 over it counts the commutant dimension exactly, and any
    collapse of the group on the module cancels out of the average.
    """
    d = restricted[0].shape[0] if restricted else 1
    mats = [np.eye(d)]
    for g in restricted:
        mats = mats + [m @ g for m in mats]
    total = sum(float(np.trace(m)) ** 2 for m in mats)
    val = total / len(mats)
    f = round(val)
    if abs(val - f) > 1e-6:
        raise ArithmeticError(f"non-integer commutant dimension {val!r}")
    return f


def _commutant_field(restricted, f: int, rng) -> str | None:
    """Identify the commutant division algebra by its trace-form signature.

    Signature of (a, b) -> tr(ab) on the commutant: R gives (1,0), C gives
    (1,1), H gives (1,3).  Anything else means the module was reducible.
    """
    d = restricted[0].shape[0]
    proj = _commutant_projector(restricted)
    samples = [proj(rng.standard_normal((d, d))) for _ in range(f + 3)]
    basis = orthonormal_span(samples, "commutant basis")
    if basis.shape[0] != f:
        return None
    mats = [row.reshape(d, d) for row in basis]
    t = np.array([[np.trace(a @ b) for b in mats] for a in mats])
    ev = np.linalg.eigvalsh(t)
    cut = 1e-8 * float(np.max(np.abs(ev)))
    sig = (int(np.sum(ev > cut)), int(np.sum(ev < -cut)))
    table = {(1, (1, 0)): "R", (2, (1, 1)): "C", (4, (1, 3)): "H"}
    return table.get((f, sig))


@dataclass(frozen=True)
class Classification:
    """Matrix-algebra type: field, block size, and single vs double block."""

    field: str
    k: int
    split: bool
    module_dim: int
    commutant_dim: int

    @property
    def label(self) -> str:
        base = f"{self.field}({self.k})"
        return f"{base}+{base}" if self.split else base


def _classify_generators(gens, rng, prefer_plus=None, split=False) -> Classification:
    for _ in range(4):
        basis = _minimal_module(gens, rng, prefer_plus=prefer_plus)
        restricted = _restrict(gens, basis)
        f = _commutant_dim(restricted)
        fld = _commutant_field(restricted, f, rng)
        if fld is None:
            continue  # unlucky draw, re-sample the commutant element
        d = basis.shape[1]
        return Classification(fld, d // f, split, d, f)
    raise ArithmeticError("failed to isolate an irreducible module")


def _central_split(vol: np.ndarray) -> bool:
    """True when the central volume element squares to +I (double block)."""
    w2 = vol @ vol
    s = float(np.sign(w2[0, 0]))
    if np.linalg.norm(w2 - s * np.eye(w2.shape[0])) > 1e-10:
        raise ArithmeticError("volume element does not square to a scalar")
    return s > 0


def classify(p: int, q: int, rng=None) -> Classification:
    """Matrix-algebra type of the Clifford algebra with signature (p, q)."""
    if rng is None:
        rng = np.random.default_rng(100_000 + 97 * p + q)
    gens = clifford_generators(p, q)
    if not gens:
        return Classification("R", 1, False, 1, 1)
    split = False
    prefer = None
    if (p + q) % 2 == 1:
        vol = volume_element(gens)
        if _central_split(vol):
            split = True
            prefer = vol
    return _classify_generators(gens, rng, prefer_plus=prefer, split=split)


def classify_even(p: int, q: int, rng=None) -> Classification:
    """Matrix-algebra type of the even subalgebra for signature (p, q)."""
    if rng is None:
        rng = np.random.default_rng(200_000 + 97 * p + q)
    gens = clifford_generators(p, q)
    if len(gens) <= 1:
        return Classification("R", 1, False, 1, 1)
    pairs = even_generators(gens)
    split = False
    prefer = None
    if (p + q) % 2 == 0:
        vol = volume_element(gens)  # lies in the even part, central there
        if _central_split(vol):
            split = True
            prefer = vol
    return _classify_generators(pairs, rng, prefer_plus=prefer, split=split)


# -- vectors under twisted conjugation --------------------------------------


def vector_embedding(gens: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(gens[0])
    for vi, g in zip(v, gens):
        out = out + vi * g
    return out


def twisted_reflection(p: int, q: int, v: np.ndarray, w: np.ndarray, gens=None):
    """Conjugate the vector w by the invertible vector v, with a sign twist.

    Sends w to g_v g_w g_v / <v, v>, which the tests pin down as the
    reflection of w across the hyperplane orthogonal to v.
    """
    if gens is None:
        gens = clifford_generators(p, q)
    eta = signature_eta(p, q)
    v = np.asarray(v, dtype=float)
    vv = float(v @ eta @ v)
    if abs(vv) < 1e-12:
        raise ValueError("null vectors are not invertible")
    gv = vector_embedding(gens, v)
    gw = vector_embedding(gens, np.asarray(w, dtype=float))
    return MatrixSpan(gens, "vector generators").coefficients(gv @ gw @ gv / vv)


# -- spinor modules ----------------------------------------------------------


@dataclass
class SpinRepresentation:
    """Irreducible spinor module with the action of the rotation generators.

    ``so_basis`` lists the operators (1/2) g_i g_j for i < j restricted to
    the module; they span the image of the rank-two rotation algebra.  For
    signatures with p - q = 1 or 2 mod 8 the irreducible full-algebra
    module splits in two over the even subalgebra and the convention here
    keeps one half, so only even elements act (``halved`` is set and
    vector action is unavailable).
    """

    p: int
    q: int
    basis: np.ndarray
    halved: bool
    gens_restricted: list[np.ndarray] | None
    so_basis: list[np.ndarray]
    so_index: list[tuple[int, int]]
    volume: np.ndarray | None
    _forms: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    _halves: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.so_basis[0].shape[0] if self.so_basis else self.basis.shape[1]

    def vector_action(self, v: np.ndarray) -> np.ndarray:
        if self.gens_restricted is None:
            raise ValueError("vectors do not act on the halved module")
        return vector_embedding(self.gens_restricted, v)

    def chirality(self) -> np.ndarray:
        """Involution splitting the module when p - q = 0 mod 4."""
        if self.volume is None or (self.p - self.q) % 4 != 0:
            raise ValueError("no chirality operator in this signature")
        return self.volume

    def chiral_projectors(self) -> tuple[np.ndarray, np.ndarray]:
        w = self.chirality()
        eye = np.eye(w.shape[0])
        return 0.5 * (eye + w), 0.5 * (eye - w)

    def half_spinor_bases(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal column bases of the plus and minus halves (solved once, read-only)."""
        if self._halves is None:
            bases = []
            for proj, half in zip(self.chiral_projectors(), ("plus", "minus")):
                basis = orthonormal_span(
                    list(proj), f"spin({self.p},{self.q}) {half} half-spinors").T
                basis.setflags(write=False)
                bases.append(basis)
            self._halves = tuple(bases)
        return self._halves

    def invariant_forms(self) -> list[np.ndarray]:
        """Symmetric forms preserved by the rotation generators (solved once)."""
        if self._forms is None:
            self._forms = invariant_symmetric_forms(self.so_basis, "spinor form")
        return list(self._forms)


def spin_representation(p: int, q: int, rng=None) -> SpinRepresentation:
    if rng is None:
        rng = np.random.default_rng(300_000 + 97 * p + q)
    gens = clifford_generators(p, q)
    if not gens:
        raise ValueError("signature (0, 0) carries no spinors")
    n = p + q
    prefer = None
    if n % 2 == 1:
        vol = volume_element(gens)
        if _central_split(vol):
            prefer = vol
    basis = _minimal_module(gens, rng, prefer_plus=prefer)
    restricted = _restrict(gens, basis)

    halved = (p - q) % 8 in (1, 2)
    if halved:
        pair_gens = [restricted[0] @ g for g in restricted[1:]]
        half = _minimal_module(pair_gens, rng)
        if 2 * half.shape[1] != basis.shape[1]:
            raise ArithmeticError("even-subalgebra split did not halve the module")
        so_basis, so_index = [], []
        for i in range(n):
            for j in range(i + 1, n):
                so_basis.append(
                    0.5 * _restrict([restricted[i] @ restricted[j]], half)[0]
                )
                so_index.append((i, j))
        volume = None
        if n % 2 == 0:
            volume = _restrict([volume_element(restricted)], half)[0]
        return SpinRepresentation(
            p, q, basis @ half, True, None, so_basis, so_index, volume
        )

    so_basis, so_index = [], []
    for i in range(n):
        for j in range(i + 1, n):
            so_basis.append(0.5 * restricted[i] @ restricted[j])
            so_index.append((i, j))
    volume = volume_element(restricted)
    return SpinRepresentation(
        p, q, basis, False, restricted, so_basis, so_index, volume
    )
