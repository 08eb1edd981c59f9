"""Real Clifford algebras as explicit matrix generators, with classification.

Generators for signature (p, q) are signed-permutation matrices obeying

    g_i g_j + g_j g_i = -2 eta_ij I,    eta = diag(+1 x p, -1 x q),

so a unit spacelike vector squares to -I and a unit timelike one to +I.
The list returned by :func:`clifford_generators` keeps the spacelike block
first and the timelike block second.

Each generator has one entry +-1 per column, so the generators are stored
as two read-only (p+q, N) arrays, built once per signature by
:func:`signed_permutations`: generator k has the entry signs[k, c] in row
rows[k, c] of column c.  The tensor products of the doubling steps become
index arithmetic on them, :func:`clifford_generators` scatters them into
dense matrices, and :func:`relation_residual` checks the defining
relations by composing them, with no matrix product.

Classification of the generated algebra as R(k), C(k), H(k) or a double
block F(k)+F(k) works module-theoretically: generate an irreducible
module from a primitive idempotent built out of products of the
generators, then measure the commutant acting on it.  Conjugation by a
generator is an involution of matrix space and the generators pairwise
anticommute, so composing the averaging maps (X + g X g^-1)/2 over all
generators is an exact projector onto the commutant.  Every step is
deterministic, with no sampling and no tolerance tuning.

:func:`spin_representation` builds a signature's spinor module once and
shares it: ``so_basis`` is one read-only (C(p+q, 2), d, d) array of the
generators (1/2) g_i g_j, and the invariant symmetric forms are one
``block_kernel`` of closed-form constraint triples (a symmetric unit has
at most two nonzero entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .linalg import Triples, block_kernel, orthonormal_span


# the base generators as signed permutations (rows, signs): column c holds
# its one nonzero entry, signs[c], in row rows[c]
def _signed(rows, signs) -> tuple[np.ndarray, np.ndarray]:
    return np.array(rows, dtype=np.intp), np.array(signs, dtype=float)


_J2 = _signed([1, 0], [1, -1])  # [[0, -1], [1, 0]]
_D2 = _signed([0, 1], [1, -1])  # diag(1, -1)
_X2 = _signed([1, 0], [1, 1])  # [[0, 1], [1, 0]]
# left multiplication by i and j on the quaternions, basis (1, i, j, k)
_LI = _signed([1, 0, 3, 2], [1, -1, 1, -1])
_LJ = _signed([2, 3, 0, 1], [1, -1, -1, 1])


def _stack(*perms) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([r for r, _ in perms]), np.stack([s for _, s in perms])


def _compose(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The product a b: column c goes to row ra[rb[c]] with sign sa[rb[c]] sb[c]."""
    (ra, sa), (rb, sb) = a, b
    return ra[rb], sa[rb] * sb


def _kron(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``np.kron`` of signed permutations, stacks broadcast against each other.

    Column j nb + l of a (x) b goes to row ra[j] nb + rb[l] with sign sa[j] sb[l].
    """
    (ra, sa), (rb, sb) = a, b
    rows = ra[..., :, None] * rb.shape[-1] + rb[..., None, :]
    signs = sa[..., :, None] * sb[..., None, :]
    shape = (*rows.shape[:-2], rows.shape[-2] * rows.shape[-1])
    return rows.reshape(shape), signs.reshape(shape)


def signature_eta(p: int, q: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(p), -np.ones(q)]))


@lru_cache(maxsize=None)
def signed_permutations(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The generators of signature (p, q) as read-only stacks ``(rows, signs)``.

    Generator k has the entry signs[k, c] in row rows[k, c] of column c and
    zeros elsewhere.  Built from four base cases and three doubling steps:
    a mixed step peeling one (1,1) factor, and two definite-signature
    steps trading two spacelike generators for Cl(2,0) = H (size x4) or
    two timelike ones for Cl(0,2) = R(2) (size x2).  Each step stacks
    1 (x) u for its two units u and g (x) omega for the generators g of the
    smaller signature, where omega is the product of the units.
    """
    if p < 0 or q < 0:
        raise ValueError("signature components must be nonnegative")
    base = {(1, 0): (_J2,), (0, 1): (_D2,), (0, 2): (_D2, _X2), (2, 0): (_LI, _LJ)}
    if (p, q) == (0, 0):
        rows, signs = np.zeros((0, 1), dtype=np.intp), np.zeros((0, 1))
    elif (p, q) in base:
        rows, signs = _stack(*base[p, q])
    else:
        if p >= 1 and q >= 1:
            sub, units = signed_permutations(p - 1, q - 1), (_J2, _X2)
            # spacelike block, 1 (x) J2, timelike block, 1 (x) X2
            order = [*range(2, p + 1), 0, *range(p + 1, p + q), 1]
        elif q == 0:  # p >= 3
            sub, units, order = signed_permutations(0, p - 2), (_LI, _LJ), slice(None)
        else:  # p == 0, q >= 3
            sub, units, order = signed_permutations(q - 2, 0), (_D2, _X2), slice(None)
        # J2 X2 = diag(-1, 1) squares to +I, left mult by k and D2 X2 to -I;
        # each anticommutes with both units
        omega = _compose(*units)
        eye = np.arange(sub[0].shape[1]), np.ones(sub[0].shape[1])
        rows, signs = (np.concatenate(pair)[order]
                       for pair in zip(_kron(eye, _stack(*units)), _kron(sub, omega)))
    return _read_only(rows), _read_only(signs)


def clifford_generators(p: int, q: int) -> list[np.ndarray]:
    """Anticommuting generator matrices for signature (p, q), scattered from its permutations."""
    rows, signs = signed_permutations(p, q)
    n, size = rows.shape
    gens = np.zeros((n, size, size))
    gens[np.arange(n)[:, None], rows, np.arange(size)] = signs
    return list(gens)


def relation_residual(rows: np.ndarray, signs: np.ndarray, eta: np.ndarray) -> float:
    """Largest entry of |g_i g_j + g_j g_i + 2 eta_ij I| over all pairs (i, j), i = j included.

    ``rows`` and ``signs`` stack signed permutations as in
    :func:`signed_permutations`.  g_i g_j sends column c to row
    rows_i[rows_j[c]] with sign signs_i[rows_j[c]] signs_j[c], so column c
    of the sum has its nonzero entries in at most three rows: that of
    g_i g_j, that of g_j g_i, and c.  Adding the terms that land in each of
    those rows reads every entry exactly, for all pairs at once, with no
    matrix product formed.
    """
    i = np.arange(len(rows))[:, None, None]
    r_ij, s_ij = rows[i, rows[None]], signs[i, rows[None]] * signs[None]
    r_ji, s_ji = r_ij.transpose(1, 0, 2), s_ij.transpose(1, 0, 2)
    c = np.arange(rows.shape[-1])
    d = 2.0 * np.asarray(eta, dtype=float)[:, :, None]
    at_ij = s_ij + (r_ji == r_ij) * s_ji + (r_ij == c) * d
    at_ji = s_ji + (r_ij == r_ji) * s_ij + (r_ji == c) * d
    at_c = d + (r_ij == c) * s_ij + (r_ji == c) * s_ji
    return float(np.max(np.abs([at_ij, at_ji, at_c]), initial=0.0))


def volume_element(gens: list[np.ndarray]) -> np.ndarray:
    out = gens[0]
    for g in gens[1:]:
        out = out @ g
    return out


def even_generators(gens: list[np.ndarray]) -> list[np.ndarray]:
    """Products g_1 g_j generating the even subalgebra."""
    return [gens[0] @ g for g in gens[1:]]


# -- module extraction ------------------------------------------------------

# relative size above which a restricted generator leaves the candidate basis
_INVARIANCE_TOL = 1e-9


def _product(mats: list[np.ndarray], mask: int, x: np.ndarray) -> np.ndarray:
    """e_S x for the product e_S of the generators whose bits are set in ``mask``."""
    for i in reversed(range(len(mats))):
        if mask >> i & 1:
            x = mats[i] @ x
    return x


def _irreducible_module(mats: list[np.ndarray], size: int) -> np.ndarray:
    """Orthonormal column basis of an irreducible module, from a primitive idempotent.

    For a subset S of the generators (a bit mask), the product e_S squares
    to (-1)^(|S|(|S|-1)/2 + #{i in S : g_i^2 = -I}) I, and e_S commutes with
    e_T iff |S||T| + |S & T| is even.  The masks are walked in a fixed
    order, full product first, keeping each e_S that squares to +I,
    commutes with those kept and is not a product of them.  The kept set
    is then maximal, so f = prod (1 + e_S)/2 is a primitive idempotent
    (P. Lounesto, Clifford Algebras and Spinors, 2nd ed., CUP 2001), and a
    central volume element squaring to +I acts as +1 on its image.  The
    products over one mask per coset of the kept ones carry f's largest
    column v to pairwise orthogonal vectors of norm |v| spanning the module
    that v generates.
    """
    neg = sum(1 << i for i, g in enumerate(mats) if g[0] @ g[:, 0] < 0)
    full = (1 << len(mats)) - 1
    kept, span = [], {0}
    for s in (full, *range(1, full)):
        c = s.bit_count()
        if (s in span or (c * (c - 1) // 2 + (s & neg).bit_count()) % 2
                or any((c * t.bit_count() + (s & t).bit_count()) % 2 for t in kept)):
            continue
        kept.append(s)
        span |= {s ^ t for t in span}
    f = np.eye(size)
    for s in kept:
        f = 0.5 * (f + _product(mats, s, f))
    v = f[:, np.argmax(np.einsum("ij,ij->j", f, f))]
    cosets, seen = [], set()
    for t in range(full + 1):
        if t not in seen:
            cosets.append(t)
            seen |= {t ^ s for s in span}
    return np.column_stack([_product(mats, t, v) for t in cosets]) / np.linalg.norm(v)


def _restrict(mats, basis: np.ndarray) -> np.ndarray:
    """The stacked ``mats`` restricted to the invariant column span of ``basis``."""
    gb = np.asarray(mats) @ basis
    gt = basis.T @ gb
    drift = np.linalg.norm(gb - basis @ gt, axis=(1, 2))
    if np.any(drift > _INVARIANCE_TOL * np.maximum(1.0, np.linalg.norm(gb, axis=(1, 2)))):
        raise ArithmeticError("candidate subspace is not invariant")
    return gt


def _commutant_dim(restricted: np.ndarray) -> int:
    """dim of the commutant on an invariant module, by character averaging.

    The +-products of generator subsets form a finite group; averaging
    tr(rho(g))^2 over it counts the commutant dimension exactly, and any
    collapse of the group on the module cancels out of the average.  Each
    subset product is L R, with L over the first half of the generators
    and R over the rest, so one matrix product gives every tr(L R).
    """
    d = restricted.shape[1]
    half = len(restricted) // 2
    products = []
    for part in (restricted[:half], restricted[half:]):
        prods = np.eye(d)[None]
        for g in part:
            prods = np.concatenate([prods, prods @ g])
        products.append(prods)
    left, right = products
    traces = left.reshape(len(left), -1) @ right.transpose(0, 2, 1).reshape(len(right), -1).T
    val = float(np.sum(traces**2)) / traces.size
    f = round(val)
    if abs(val - f) > 1e-6:
        raise ArithmeticError(f"non-integer commutant dimension {val!r}")
    return f


def _commutant_field(restricted, f: int) -> str | None:
    """Identify the commutant division algebra by its trace-form signature.

    The commutant is spanned by the projections of the matrix units
    e_0 e_j^T: the generators are orthogonal, so composing the averaging
    maps X -> (X + g X g^T)/2 projects orthogonally onto the commutant, and
    a commutant element c orthogonal to every e_0 e_j^T has c^T e_0 = 0,
    which on an irreducible module (commutant a division algebra) forces
    c = 0.  Signature of (a, b) -> tr(ab) on the commutant: R gives (1,0),
    C gives (1,1), H gives (1,3).  Anything else means the module was
    reducible.
    """
    d = restricted[0].shape[0]
    units = np.zeros((d, d, d))
    units[:, 0, :] = np.eye(d)
    for g in restricted:
        units = 0.5 * (units + g @ units @ g.T)
    basis = orthonormal_span(list(units), "commutant basis")
    if basis.shape[0] != f:
        return None
    mats = basis.reshape(f, d, d)
    t = np.einsum("aij,bji->ab", mats, mats)
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


def _classify_generators(gens, split: bool) -> Classification:
    basis = _irreducible_module(gens, gens[0].shape[0])
    restricted = _restrict(gens, basis)
    f = _commutant_dim(restricted)
    fld = _commutant_field(restricted, f)
    if fld is None:
        raise ArithmeticError("the primitive idempotent gave a reducible module")
    d = basis.shape[1]
    return Classification(fld, d // f, split, d, f)


def _central_split(vol: np.ndarray) -> bool:
    """True when the central volume element squares to +I (double block)."""
    w2 = vol @ vol
    s = float(np.sign(w2[0, 0]))
    if np.linalg.norm(w2 - s * np.eye(w2.shape[0])) > 1e-10:
        raise ArithmeticError("volume element does not square to a scalar")
    return s > 0


def classify(p: int, q: int) -> Classification:
    """Matrix-algebra type of the Clifford algebra with signature (p, q)."""
    gens = clifford_generators(p, q)
    if not gens:
        return Classification("R", 1, False, 1, 1)
    split = (p + q) % 2 == 1 and _central_split(volume_element(gens))
    return _classify_generators(gens, split=split)


def classify_even(p: int, q: int) -> Classification:
    """Matrix-algebra type of the even subalgebra for signature (p, q)."""
    gens = clifford_generators(p, q)
    if len(gens) <= 1:
        return Classification("R", 1, False, 1, 1)
    # the volume element lies in the even part, central there for even n
    split = (p + q) % 2 == 0 and _central_split(volume_element(gens))
    return _classify_generators(even_generators(gens), split=split)


# -- vectors as elements of the algebra -------------------------------------


def vector_embedding(gens: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(gens[0])
    for vi, g in zip(v, gens):
        out = out + vi * g
    return out


# -- spinor modules ----------------------------------------------------------


@dataclass
class SpinRepresentation:
    """Irreducible spinor module with the action of the rotation generators.

    ``so_basis`` stacks the operators (1/2) g_i g_j for i < j restricted to
    the module, in ``so_index`` order; they span the image of the rank-two
    rotation algebra.  For signatures with p - q = 1 or 2 mod 8 the
    irreducible full-algebra module splits in two over the even subalgebra
    and the convention here keeps one half, so only even elements act
    (``halved`` is set and vector action is unavailable).  One
    representation per signature is shared, so its arrays are read-only.
    """

    p: int
    q: int
    basis: np.ndarray
    halved: bool
    gens_restricted: np.ndarray | None
    so_basis: np.ndarray
    so_index: tuple[tuple[int, int], ...]
    volume: np.ndarray | None
    _forms: list[np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    _halves: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

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
                bases.append(_read_only(basis))
            self._halves = tuple(bases)
        return self._halves

    def invariant_forms(self) -> list[np.ndarray]:
        """Symmetric forms Q with a^T Q + Q a = 0 on the rotation generators (solved once).

        The kernel of ``_form_constraints`` is one ``block_kernel``.  Each
        form is normalized to unit Frobenius norm and is read-only.
        """
        if self._forms is None:
            kernel = block_kernel(_form_constraints(self.so_basis), "spinor form")
            forms = kernel.T[:, _unit_index(self.dim)]
            forms /= np.linalg.norm(forms, axis=(1, 2))[:, None, None]
            self._forms = list(_read_only(forms))
        return list(self._forms)


def _unit_index(d: int) -> np.ndarray:
    """The symmetric d x d unit holding each cell, units in ``np.triu_indices`` order."""
    unit = np.zeros((d, d), dtype=np.intp)
    upper = np.triu_indices(d)
    unit[upper] = unit[upper[::-1]] = np.arange(upper[0].size)
    return unit


def _form_constraints(so_basis: np.ndarray) -> Triples:
    """Triples of e -> (a^T e + e a for each a in ``so_basis``) on the symmetric units.

    Row g d^2 + i d + j is cell (i, j) of the image under generator g, and
    column u is unit u of ``_unit_index``.  Cell (p, o) of a unit sends
    a nonzero a[p, x] to cell (x, o) of a^T e and to cell (o, x) of e a, so
    no image is formed densely; a cell that both terms reach is listed twice.
    """
    count, d, _ = so_basis.shape
    g, p, x = np.nonzero(so_basis)
    base, other = (g * d * d)[:, None], np.arange(d)
    rows = np.concatenate([base + x[:, None] * d + other, base + other * d + x[:, None]])
    cols = np.tile(_unit_index(d)[p], (2, 1))
    values = np.repeat(np.tile(so_basis[g, p, x], 2), d)
    return Triples(rows.ravel(), cols.ravel(), values, (count * d * d, d * (d + 1) // 2))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def spin_representation(p: int, q: int) -> SpinRepresentation:
    """The spinor module of signature (p, q), built once and shared."""
    gens = clifford_generators(p, q)
    if not gens:
        raise ValueError("signature (0, 0) carries no spinors")
    n = p + q
    basis = _irreducible_module(gens, gens[0].shape[0])
    restricted = _restrict(gens, basis)
    halved = (p - q) % 8 in (1, 2)
    half = np.eye(basis.shape[1])
    if halved:
        half = _irreducible_module(restricted[0] @ restricted[1:], basis.shape[1])
        if 2 * half.shape[1] != basis.shape[1]:
            raise ArithmeticError("even-subalgebra split did not halve the module")
    so_index = tuple(combinations(range(n), 2))
    i, j = np.array(so_index, dtype=int).reshape(-1, 2).T
    so_basis = 0.5 * _restrict(restricted[i] @ restricted[j], half)
    # an odd volume element swaps the two halves, so it has no restriction
    volume = (None if halved and n % 2
              else _read_only(_restrict(volume_element(restricted)[None], half)[0]))
    return SpinRepresentation(
        p, q, _read_only(basis @ half), halved,
        None if halved else _read_only(restricted), _read_only(so_basis),
        so_index, volume)
