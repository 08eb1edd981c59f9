"""Metric normal forms carrying parallel spinors, with jet-based curvature.

Each normal form is declared once, in the table :func:`normal_form` reads
lazily, once per tag and block size: coordinates, signature, profile
arities, and a read-only constant Gram matrix and stabilizer basis.  A
builder places the profiles, exact :class:`~spinorlab.jets.JetSeries`, in
fixed cells of two independent term lists, the metric components and an
adapted coframe (never one derived from the other, so the coframe Gram
check compares two statements of the form), and declares the family's
closed-form Ricci display (:func:`ricci_paper`) beside the profiles it
reads.  M22DEG's and M33GEN's Hessian profiles are exact ``diff``s of the
given one; the 11-dimensional identity fiber is in the Gram matrix.  A spec
table is read on integers, each exponent key parsed once per (key, arity)
through one bounded cache, to its total degree.  Every metric is constant
parts plus polynomial terms, and one rule evaluates it as Taylor jets at
points, expanding all its polynomials in one ``jets.expand`` gather; a
:func:`custom_metric` is a table of exact polynomial components on that
same rule, so no path goes point by point.
Every float routine of the metric path takes points (..., n) and returns
its result per point, the leading axes first; a single point is the (n,)
case of the same code, and a (P, n) batch equals the stack of its P
single-point results bit for bit.  A derived jet is carried only to the
order its reader uses: the Christoffel symbols and coframe connection behind
curvature and holonomy to order 1 (from order-2 jets), those of
:func:`christoffel_values` and the connection certificates to order 0.
Curvature is read off the jets, and the Ricci displays, constraint
equations, connection membership and holonomy spans are checked against it;
the displays' quadratic bracket (PUREODD, PUREEVEN, M22DEG) is read off the
profiles' stacked order-2 jet coefficients, all pairs at once.  A tensor
with the curvature symmetries that satisfies the first Bianchi identity is
pair-symmetric, so a curvature space is the kernel of the Bianchi map on
S^2(h) -> Lambda^4, with h read as 2-forms through the Gram matrix.  It and
a stabilizer's invariant k-forms read one cached table of k-subset faces;
their operators are triples of nonzero cells, solved block by block, and a
half-integral stabilizer basis and Gram matrix, such as so(4)'s, are also
ranked exactly mod a prime.  The 11-dimensional family's parallel forms are
its stabilizer's invariant 1-, 2- and 5-form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from . import octospin
from .jets import (
    Jet,
    JetSeries,
    _ratio,
    expand,
    monomials_upto,
    shared_context,
)
from .linalg import (
    SPAN_TOL,
    Triples,
    block_kernel,
    block_rank,
    block_span,
    bracket_closure,
    guarded_rank,
    nullspace,
    orthonormal_span,
    projection_residual,
)

DEGENERACY_TOL = 1e-8


def _worst(values) -> float:
    """Largest of ``values`` (0.0 for none); NaN as soon as one value is NaN.

    The builtin max keeps a NaN only in first position, so a failed
    evaluation at a later probe would read as a zero residual.
    """
    return float(np.max(np.asarray(list(values), dtype=float), initial=0.0))


# -- profiles -----------------------------------------------------------------


def random_polynomial(arity: int, rng: np.random.Generator,
                      degree: int = 3, scale: float = 0.5) -> JetSeries:
    table = {e: scale * rng.uniform(-1.0, 1.0) for e in monomials_upto(arity, degree)}
    return JetSeries(arity, degree, table)


def symmetric_pairs(size: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle index pairs (i <= j) in row-major order."""
    return tuple((i, j) for i in range(size) for j in range(i, size))


def divergence_free_draw(size: int, arity: int, y_vars, rng: np.random.Generator,
                         degree: int = 3, scale: float = 0.5) -> list[JetSeries]:
    """Random symmetric family f_ij with sum_j df_ij/dy_j = 0 to rounding.

    ``y_vars[j]`` is the argument index paired with the second function
    index j.  The divergence conditions are linear in the coefficient
    tables, so a draw is a random kernel element of the constraint matrix.
    That kernel comes from a float SVD and entries below 1e-13 are dropped,
    so the divergence of the float tables, read exactly, is a polynomial
    with coefficients of rounding size (about 1e-16 at degree 3 and
    p <= 3), not zero.
    """
    y_vars = tuple(int(v) for v in y_vars)
    if len(y_vars) != size:
        raise ValueError("need one divergence variable per index")
    pairs = symmetric_pairs(size)
    slot = _fmatrix(range(len(pairs)), pairs, size)
    monos = monomials_upto(arity, degree)
    midx = {e: t for t, e in enumerate(monos)}
    nm = len(monos)
    rows = []
    for i in range(size):
        for mono in monomials_upto(arity, degree - 1):
            row = np.zeros(len(pairs) * nm)
            for j in range(size):
                bumped = list(mono)
                bumped[y_vars[j]] += 1
                col = slot[i][j] * nm + midx[tuple(bumped)]
                row[col] += bumped[y_vars[j]]
            rows.append(row)
    kern = nullspace(np.stack(rows), "divergence constraints")
    coeffs = scale * (kern @ rng.standard_normal(kern.shape[1]))
    out = []
    for t in range(len(pairs)):
        table = {}
        for e, v in midx.items():
            c = coeffs[t * nm + v]
            if abs(c) > 1e-13:
                table[e] = c
        out.append(JetSeries(arity, degree, table))
    return out


def quadratic_profile_functions(h4: np.ndarray, h2: np.ndarray) -> list[JetSeries]:
    """Profiles f_ij = h4[i,j,k,l] y_k y_l / 2 + h2[i,j] z^2 / 2 in 2p+1 variables.

    h4 must be symmetric in (i,j) and (k,l) with vanishing mixed trace
    sum_k h4[k,j,k,l]; h2 symmetric.  The divergence constraints then hold
    identically and the curvature of the associated metric is controlled by
    h4 and h2 alone at the origin.
    """
    h4 = np.asarray(h4, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    p = h2.shape[0]
    if h4.shape != (p, p, p, p):
        raise ValueError("tensor shapes disagree")
    if (np.abs(h4 - h4.transpose(1, 0, 2, 3)).max() > 1e-12
            or np.abs(h4 - h4.transpose(0, 1, 3, 2)).max() > 1e-12
            or np.abs(h2 - h2.T).max() > 1e-12):
        raise ValueError("profile tensors must be symmetric")
    if np.abs(np.einsum("kjkl->jl", h4)).max() > 1e-12:
        raise ValueError("mixed trace of h4 must vanish")
    arity = 2 * p + 1
    out = []
    for i, j in symmetric_pairs(p):
        table: dict[tuple[int, ...], float] = {}
        zsq = [0] * arity
        zsq[0] = 2
        if h2[i, j] != 0.0:
            table[tuple(zsq)] = 0.5 * h2[i, j]
        for k in range(p):
            for l in range(k, p):
                coeff = h4[i, j, k, l] if k != l else 0.5 * h4[i, j, k, l]
                if coeff == 0.0:
                    continue
                exps = [0] * arity
                exps[1 + p + k] += 1
                exps[1 + p + l] += 1
                table[tuple(exps)] = table.get(tuple(exps), 0.0) + coeff
        out.append(JetSeries(arity, 2, table))
    return out


# -- spec files ---------------------------------------------------------------


def _spec_entry(d: dict, key: str):
    """A required spec entry; an absent one is reported by its key."""
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    return d[key]


def _spec_function_list(fds, key: str) -> list[dict]:
    """A spec's list of function objects, rejected with its key otherwise."""
    if not isinstance(fds, list) or not all(isinstance(fd, dict) for fd in fds):
        raise ValueError(f"{key} must be a list of function objects, got {fds!r}")
    return fds


def _spec_integer(value, key: str) -> int:
    """A JSON integer; true, 3.0, "3" or "12/2" is rejected with its key."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _spec_fields(d: dict, allowed: tuple[str, ...]) -> None:
    """Refuse a spec key outside ``allowed``, naming it."""
    for key in d:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}, expected one of {', '.join(allowed)}")


_MAX_EXPONENT = int(np.iinfo(np.intp).max)


# Parsed exponent keys held by the cache of _spec_exponents.
_SPEC_KEYS = 4096


@lru_cache(maxsize=_SPEC_KEYS, typed=True)
def _spec_exponents(key, arity: int) -> tuple[int, ...]:
    """The exponents of a coefficient key: ``arity`` nonnegative machine integers.

    A key is comma-separated exponents, with spaces and enclosing parentheses
    allowed.  Parsed keys are cached by (key, arity), so a key repeated across
    functions and specs is parsed once; a bad key raises each time.
    """
    parts = [s.strip() for s in str(key).strip("() ").split(",")]
    if not all(map(str.isdecimal, parts)):
        raise ValueError(f"exponent key {key!r} is not a list of nonnegative integers")
    exps = tuple(map(int, parts))
    if len(exps) != arity:
        raise ValueError(f"exponent key {key!r} lists {len(exps)} exponents for arity {arity}")
    if max(exps) > _MAX_EXPONENT:
        raise ValueError(f"exponent key {key!r} does not fit a machine integer")
    return exps


def _spec_coefficient(key, val) -> tuple[int, int]:
    """A coefficient as (numerator, positive denominator), exactly.

    An int is (val, 1), a float its ``as_integer_ratio()``, and a rational
    string like "3/4" parses through one Fraction.  A value that is not a
    finite number (a JSON boolean, Infinity or NaN, a zero denominator, past
    the float range) is rejected with its key.
    """
    try:
        if isinstance(val, bool):
            raise TypeError("a boolean is not a coefficient")
        num, den = _ratio(val)
        num / den  # OverflowError past the float range
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficient {key!r} is not a finite number: {val!r}") from exc
    return num, den


def _spec_ratios(coefficients: dict, arity: int) -> list[tuple]:
    """(exponents, numerator, denominator) of each entry of a spec's coefficient map.

    A map that is not an object, and each bad key or value, is rejected with
    its key; a repeated exponent tuple is left for the series to add up.
    """
    if not isinstance(coefficients, dict):
        raise ValueError(f"coefficients must be an object, got {coefficients!r}")
    return [(_spec_exponents(key, arity), *_spec_coefficient(key, val))
            for key, val in coefficients.items()]


def _spec_function(d: dict) -> JetSeries:
    arity = _spec_integer(_spec_entry(d, "arity"), "arity")
    if arity < 0:
        raise ValueError(f"arity must be a nonnegative integer, got {arity}")
    ratios = _spec_ratios(_spec_entry(d, "coefficients"), arity)
    _spec_fields(d, ("name", "arity", "coefficients"))
    return JetSeries.from_ratios(arity, max((sum(e) for e, _, _ in ratios), default=0), ratios)


def function_from_spec(d: dict) -> JetSeries:
    """A profile from its serialized form (exact rationals), to its table's total degree."""
    return _spec_function(d)


def metric_from_spec(d: dict) -> "CoordinateMetric":
    _spec_fields(d, ("family", "functions", "p", "fiber"))
    family = str(_spec_entry(d, "family"))
    fds = _spec_function_list(_spec_entry(d, "functions"), "functions")
    functions = [_spec_function(fd) for fd in fds]
    if d.get("fiber", "identity") != "identity":
        raise ValueError("only the identity fiber is serializable")
    return build_metric(family, functions, p=d.get("p"))


# -- coordinate metrics -------------------------------------------------------


class CoordinateMetric:
    """Metric components over a fixed coordinate chart, evaluated as jets.

    ``form`` is the :class:`NormalForm` built on, or None for a custom metric;
    custom metrics support curvature computations but carry no adapted
    coframe or stabilizer data.  ``ricci_display`` maps a point to the
    family's closed-form Ricci display, or is None where it has none.
    """

    def __init__(self, n, signature, coordinates, component_rule, *,
                 form=None, functions=(), coframe_rule=None, constraint_rule=None,
                 ricci_display=None):
        self.n = int(n)
        self.signature = tuple(int(s) for s in signature)
        self.coordinates = tuple(coordinates)
        self.form = form
        self.family, self.p = (None, None) if form is None else (form.tag, form.p)
        self.gram, self.stabilizer = (None, ()) if form is None else (form.gram, form.stabilizer)
        self.functions = tuple(functions)
        self._component_rule = component_rule
        self._coframe_rule = coframe_rule
        self._constraint_rule = constraint_rule
        self.ricci_display = ricci_display
        if len(self.coordinates) != self.n:
            raise ValueError("coordinate names disagree with the dimension")

    def component_jets(self, points, order: int) -> Jet:
        """The (..., n, n) component jets at points (..., n)."""
        return self._component_rule(np.asarray(points, dtype=float), shared_context(self.n, order))

    def components(self, points) -> np.ndarray:
        return self.component_jets(points, order=0).value()

    def coframe_jets(self, points, order: int) -> Jet:
        if self._coframe_rule is None:
            raise ValueError("metric carries no adapted coframe")
        return self._coframe_rule(np.asarray(points, dtype=float), shared_context(self.n, order))

    @property
    def stabilizer_dimension(self) -> int:
        return self.stabilizer_rows().shape[0] if self.stabilizer else 0

    def stabilizer_rows(self) -> np.ndarray:
        if self.form is None:
            raise ValueError("metric carries no stabilizer basis")
        return self.form.stabilizer_rows


def custom_metric(n, signature, coordinates, components) -> CoordinateMetric:
    """Metric from exact polynomial components ``{(i, j): JetSeries}`` with i <= j.

    Each component is a :class:`~spinorlab.jets.JetSeries` in the n coordinates;
    cell (j, i) mirrors cell (i, j), and an absent cell is zero.  The normal
    forms' rule evaluates them, on a zero constant part.
    """
    n = int(n)
    cells = list(components.items())
    if not cells:
        raise ValueError("a custom metric needs at least one component")
    for (i, j), f in cells:
        if not 0 <= i <= j < n:
            raise ValueError(f"component key {(i, j)} is not a cell i <= j < {n}")
        if not isinstance(f, JetSeries) or f.nvars != n:
            raise ValueError(f"component {(i, j)} must be a JetSeries in {n} variables, "
                             f"got {f!r}")
    terms = [(a, b, 1.0, t) for t, ((i, j), _) in enumerate(cells) for a, b in {(i, j), (j, i)}]
    rule = _profile_rule(np.zeros((n, n)), [(f, range(n)) for _, f in cells], terms)
    return CoordinateMetric(n, signature, coordinates, rule)


def probe_points(m: CoordinateMetric, seed: int, count: int = 5) -> np.ndarray:
    """Seeded sample points in the box [-1/2, 1/2]^n, avoiding degeneracies.

    Candidates are drawn ``count`` at a time, up to 100 blocks, and kept in
    draw order where |det g| > ``DEGENERACY_TOL``: the points of drawing and
    testing one candidate at a time.
    """
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(100):
        block = rng.uniform(-0.5, 0.5, (count, m.n))
        pts.extend(block[np.abs(np.linalg.det(m.components(block))) > DEGENERACY_TOL])
        if 0 < count <= len(pts):
            return np.array(pts[:count])
    raise RuntimeError("could not sample nondegenerate probe points")


# -- normal forms ---------------------------------------------------------------


def _matrix(n: int, cells) -> np.ndarray:
    """n x n matrix with the given {(i, j): value} entries, zero elsewhere."""
    m = np.zeros((n, n))
    for (i, j), v in cells.items():
        m[i, j] = v
    return m


def _gram(n: int, cells) -> np.ndarray:
    """Symmetric n x n matrix from its upper-triangle {(i, j): value} entries."""
    m = _matrix(n, cells)
    for (i, j), v in cells.items():
        m[j, i] = v
    return m


def _gl_pair_blocks(p: int, n: int, xoff: int, yoff: int) -> list[np.ndarray]:
    """Traceless q acting as q on the x block and -q^T on the y block."""
    return ([_matrix(n, {(xoff + i, xoff + j): 1.0, (yoff + j, yoff + i): -1.0})
             for i, j in itertools.permutations(range(p), 2)]
            + [_matrix(n, {(xoff + i, xoff + i): 1.0, (xoff + i + 1, xoff + i + 1): -1.0,
                           (yoff + i, yoff + i): -1.0, (yoff + i + 1, yoff + i + 1): 1.0})
               for i in range(p - 1)])


def _skew_pair_blocks(p: int, n: int, xoff: int, yoff: int) -> list[np.ndarray]:
    """Skew s mapping the x block into the y block, one generator per pair i < j."""
    return [_matrix(n, {(yoff + i, xoff + j): 1.0, (yoff + j, xoff + i): -1.0})
            for i, j in itertools.combinations(range(p), 2)]


def _pure_declaration(p: int, odd: bool):
    """PUREODD (odd, a coordinate z first) or PUREEVEN: x and y blocks of size p."""
    z = int(odd)
    n = 2 * p + z
    if odd:
        gram = _gram(n, {(0, 0): 1.0, **{(1 + i, 1 + p + i): 1.0 for i in range(p)}})
        stab = [_matrix(n, {(0, 1 + k): -1.0, (1 + p + k, 0): 1.0}) for k in range(p)]
    else:
        gram, stab = _gram(n, {(i, p + i): 0.5 for i in range(p)}), []
    coords = ("z",) * z + tuple(f"{c}{i + 1}" for c in "xy" for i in range(p))
    stab += _gl_pair_blocks(p, n, z, z + p) + _skew_pair_blocks(p, n, z, z + p)
    return (p + z, p), coords, gram, stab, (n,) * (p * (p + 1) // 2)


_XY3 = ("x1", "x2", "x3", "y1", "y2", "y3")

# tag -> declaration, called with the block size p for PUREODD and PUREEVEN
# only: (signature, coordinates, Gram matrix, stabilizer basis, profile
# arities, or None where the builder checks its profile)
_DECLARATIONS = {
    "M21": lambda: ((2, 1), ("x11", "x21", "x22"), _gram(3, {(0, 2): -0.5, (1, 1): 1.0}),
                    [_matrix(3, {(0, 1): 2.0, (1, 2): 1.0})], (2,)),
    "M31": lambda: ((3, 1), ("x11", "u", "v", "x22"),
                    _gram(4, {(0, 3): -0.5, (1, 1): 1.0, (2, 2): 1.0}),
                    [_matrix(4, {(0, 1): 2.0, (1, 3): 1.0}),
                     _matrix(4, {(0, 2): -2.0, (2, 3): -1.0})], (3,)),
    "M22GEN": lambda: ((2, 2), ("x11", "x12", "x21", "x22"),
                       _gram(4, {(0, 3): 0.5, (1, 2): -0.5}),
                       [_matrix(4, {(0, 2): 1.0, (1, 3): 1.0}),
                        _matrix(4, {(0, 1): -1.0, (2, 3): -1.0})], (3,)),
    "M22DEG": lambda: ((2, 2), ("x1", "x2", "y1", "y2"), _gram(4, {(0, 3): 0.5, (1, 2): -0.5}),
                       [_matrix(4, {(0, 2): 1.0, (1, 3): 1.0}), np.diag([-1.0, 1.0, -1.0, 1.0]),
                        _matrix(4, {(1, 0): -1.0, (3, 2): -1.0}),
                        _matrix(4, {(0, 1): -1.0, (2, 3): -1.0})], (4,)),
    "M41DEG": lambda: ((4, 1), ("x", "s1", "s2", "s3", "r"),
                       _gram(5, {(0, 0): -1.0, (0, 4): -1.0, **{(a, a): 1.0 for a in (1, 2, 3)}}),
                       [_matrix(5, {(a, 0): -2.0, (4, a): -2.0}) for a in (1, 2, 3)], (4,)),
    "M51NULL": lambda: ((5, 1), ("x11", "u1", "u2", "u3", "u4", "x22"),
                        _gram(6, {(0, 5): -0.5, **{(a, a): 1.0 for a in range(1, 5)}}),
                        [_matrix(6, {(0, 1 + a): 2.0, (1 + a, 5): 1.0}) for a in range(4)], (5,)),
    "M33GEN": lambda: ((3, 3), _XY3, _gram(6, {(i, 3 + i): 0.5 for i in range(3)}),
                       _gl_pair_blocks(3, 6, 0, 3), (6,)),
    # q acting as q on x and -q^T on y, q traceless with vanishing third column,
    # and the skew maps of the x block into the y block
    "M33NULL": lambda: ((3, 3), _XY3, _gram(6, {(i, 3 + i): 0.5 for i in range(3)}),
                        [_matrix(6, {(0, 0): 1.0, (1, 1): -1.0, (3, 3): -1.0, (4, 4): 1.0})]
                        + [_matrix(6, {(i, j): 1.0, (3 + j, 3 + i): -1.0})
                           for i, j in ((0, 1), (1, 0), (2, 0), (2, 1))]
                        + _skew_pair_blocks(3, 6, 0, 3), (6, 6, 6)),
    "PUREODD": lambda p: _pure_declaration(p, odd=True),
    "PUREEVEN": lambda p: _pure_declaration(p, odd=False),
    # the null spinor's stabilizer; the profile takes 2, 10 or 11 arguments
    "M101": lambda: ((10, 1), ("x1", "x2", "x3") + tuple(f"w{a + 1}" for a in range(8)),
                     octospin.GRAM_10_1, [e.rho for e in octospin.null_stabilizer_basis()], None),
}
FAMILY_TAGS = tuple(_DECLARATIONS)


@dataclass(frozen=True, eq=False)
class NormalForm:
    """One declared normal form, shared by every metric built from it.

    The Gram matrix and the stabilizer basis are read-only arrays, and so
    are the stabilizer's orthonormal rows, solved on first use.
    """

    tag: str
    p: int | None
    signature: tuple[int, int]
    coordinates: tuple[str, ...]
    gram: np.ndarray
    stabilizer: tuple[np.ndarray, ...]
    arities: tuple[int, ...] | None

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @cached_property
    def stabilizer_rows(self) -> np.ndarray:
        rows = (orthonormal_span(list(self.stabilizer), "stabilizer basis") if self.stabilizer
                else np.zeros((0, self.n * self.n)))
        rows.setflags(write=False)
        return rows


@lru_cache(maxsize=None)
def _declared(tag: str, p: int | None) -> NormalForm:
    declare = _DECLARATIONS[tag]
    signature, coords, gram, stabilizer, arities = declare() if p is None else declare(p)
    arrays = np.array([gram, *stabilizer], dtype=float)
    arrays.setflags(write=False)
    return NormalForm(tag, p, signature, coords, arrays[0], tuple(arrays[1:]), arities)


def _block_size(tag: str, p) -> int | None:
    """The checked block size p of PUREODD and PUREEVEN; every other tag refuses one."""
    if tag in ("PUREODD", "PUREEVEN"):
        p = None if p is None else _spec_integer(p, "p")
        if p is None or p < 1:
            raise ValueError(f"{tag} needs the block size p")
    elif p is not None:
        raise ValueError(f"{tag} takes no block size p, got p = {p!r}")
    return p


def normal_form(tag: str, p=None) -> NormalForm:
    """The normal form ``tag`` (block size ``p`` for PUREODD and PUREEVEN).

    Built on its first request and then shared; nothing is built at import.
    """
    if tag not in _DECLARATIONS:
        raise ValueError(f"unknown family {tag!r}")
    return _declared(tag, _block_size(tag, p))


# -- family builders ----------------------------------------------------------


def _fmatrix(functions, pairs, size):
    grid = [[None] * size for _ in range(size)]
    for (i, j), f in zip(pairs, functions):
        grid[i][j] = grid[j][i] = f
    return grid


def _symmetric_divergence_rule(functions, slot, y_vars):
    """Rows sum_j df_ij/dy_j of the symmetric block f_ij = ``functions[slot[i][j]]``.

    All profiles are expanded in one gather, at all points, and every row reads those jets.
    """
    size = len(slot)
    names = [f"divergence row {i + 1}" for i in range(size)]

    def rule(m: CoordinateMetric, points) -> dict[str, float]:
        jet = expand([(f, range(m.n)) for f in functions], shared_context(m.n, 1), points)
        partials = {v: jet.derivative_value(v) for v in y_vars}
        return {names[i]: _worst(abs(sum(partials[y_vars[j]][..., slot[i][j]]
                                         for j in range(size))))
                for i in range(size)}

    return rule


def _hessian_determinants(hess, points) -> float | np.ndarray:
    """Determinants at points (..., 6) of the nine series ``hess``, row by row, in one gather."""
    cells = expand([(h, range(6)) for h in hess], shared_context(6, 0), points).value()
    return np.linalg.det(cells.reshape(cells.shape[:-1] + (3, 3)))


def _hessian_determinant_rule(hess):
    def rule(m: CoordinateMetric, points) -> dict[str, float]:
        return {"hessian determinant": _worst(np.abs(_hessian_determinants(hess, points) - 1.0))}

    return rule


def _profile_rule(const, profiles, terms):
    """Jet rule (points, ctx) -> const + coeff * f_t(points[..., args_t]) in cell (i, j), per term.

    ``profiles`` lists (profile series, argument indices), each referenced by
    some term, and ``terms`` lists (i, j, coeff, t).  The profiles are
    expanded in one gather per call, at all points (..., n), and every cell
    of every point sums its terms in one bincount.
    """
    const = np.array(const, dtype=float)
    rows, cols, coeffs, which = zip(*terms)
    cells = np.ravel_multi_index((rows, cols), const.shape)
    which = list(which)
    coeffs = np.array(coeffs, dtype=float)[:, None, None]

    def rule(points, ctx):
        lead = points.shape[:-1]
        count = math.prod(lead)
        jets = expand(profiles, ctx, points).c.reshape(count, len(profiles), ctx.nmono)
        vals = coeffs * jets.transpose(1, 0, 2)[which]
        # bin of (term t, point r, monomial k): cell t of point r's matrix, monomial k
        bins = (cells[:, None] + const.size * np.arange(count))[..., None] * ctx.nmono
        bins = bins + np.arange(ctx.nmono)
        c = np.bincount(bins.ravel(), weights=vals.ravel(),
                        minlength=count * const.size * ctx.nmono)
        c = c.reshape(lead + const.shape + (ctx.nmono,))
        c[..., 0] += const
        return Jet(ctx, c)

    return rule


def _assemble(form: NormalForm, functions, profiles, comp_terms, cof_terms, *,
              comp_const=None, cof_const=None, **extra):
    """Metric whose components and coframe are constant parts plus profile terms.

    The constant part of the components defaults to the Gram matrix and that
    of the coframe to the identity.  The signature is checked at the origin.
    """
    comp = _profile_rule(form.gram if comp_const is None else comp_const, profiles, comp_terms)
    cof = _profile_rule(np.eye(form.n) if cof_const is None else cof_const, profiles, cof_terms)
    m = CoordinateMetric(form.n, form.signature, form.coordinates, comp, form=form,
                         functions=functions, coframe_rule=cof, **extra)
    _check_signature(m)
    return m


def _null_corner_form(form, functions, coeff, laplacian=None, corner=-1):
    """One profile f of every coordinate but the far end from the corner (the last or first).

    g gains coeff f in the corner's diagonal cell and the far end's coframe
    row gains f dx_corner.  With ``laplacian``, a list of profile arguments,
    the Ricci display is the Laplacian of f in those arguments, in that cell.
    """
    n = form.n
    c = corner % n
    profile = (functions[0], [a for a in range(n) if a != n - 1 - c])
    display = (None if laplacian is None
               else _laplacian_display(form.tag, n, profile, laplacian, (c, c)))
    return _assemble(form, functions, [profile], [(c, c, coeff, 0)],
                     [(n - 1 - c, c, 1.0, 0)], ricci_display=display)


def _paired_block_form(form, functions, size, xoff, yoff, coeff, **extra):
    """Symmetric profile block f_ij of all coordinates, paired against the y block.

    g gains coeff f_ij at (x_i, x_j), the coframe row of y_i gains f_ij dx_j,
    and the constraints are the divergences sum_j df_ij/dy_j.
    """
    pairs = symmetric_pairs(size)
    slot = _fmatrix(range(len(pairs)), pairs, size)
    cells = list(itertools.product(range(size), repeat=2))
    y_vars = tuple(yoff + j for j in range(size))
    return _assemble(
        form, functions, [(f, range(form.n)) for f in functions],
        [(xoff + i, xoff + j, coeff, slot[i][j]) for i, j in cells],
        [(yoff + i, xoff + j, 1.0, slot[i][j]) for i, j in cells],
        constraint_rule=_symmetric_divergence_rule(functions, slot, y_vars),
        **extra)


def _pure_form(form, functions):
    """PUREODD or PUREEVEN: the paired x and y blocks of size p, after z if there is one."""
    p = form.p
    z = form.n - 2 * p
    return _paired_block_form(form, functions, p, z, z + p, 2.0 if z else 1.0,
                              ricci_display=_bracket_display(form.tag, functions, p, z,
                                                             odd=bool(z)))


def _build_m22deg(form, functions):
    f, = functions
    # profiles s11, s12, s22 with s_ij = f_{y_i y_j}
    s = [f.diff(2 + i).diff(2 + j) for i, j in symmetric_pairs(2)]
    # the Ricci display reads the s_ij in the chart (v1, v2) = (y2, -y1)
    recharted = [JetSeries(4, sij.order, {(e[0], e[1], e[3], e[2]): c * (-1) ** e[2]
                                          for e, c in sij.terms.items()})
                 for sij in s]
    return _assemble(
        form, functions, [(sij, range(4)) for sij in s],
        [(0, 0, 1.0, 0), (0, 1, 1.0, 1), (1, 0, 1.0, 1), (1, 1, 1.0, 2)],
        [(0, 0, -1.0, 1), (0, 1, -1.0, 2), (1, 0, 1.0, 0), (1, 1, 1.0, 1)],
        cof_const=_matrix(4, {(0, 2): 1.0, (1, 3): 1.0, (2, 0): -1.0, (3, 1): -1.0}),
        ricci_display=_bracket_display(
            "M22DEG", recharted, 2, 0,
            chart=lambda x: np.stack([x[..., 0], x[..., 1], x[..., 3], -x[..., 2]], axis=-1)))


def _build_m33gen(form, functions):
    f, = functions
    hess = [f.diff(i).diff(3 + j) for i in range(3) for j in range(3)]
    det = _hessian_determinants(hess, np.zeros(6))
    # a NaN entry makes the determinant NaN, which fails this test too
    if not abs(det - 1.0) <= 1e-8:
        raise ValueError(f"mixed Hessian determinant {det:.6g} at the origin is not 1")
    # profile 3i + j is the mixed Hessian entry f_{x_i y_j}
    cells = list(itertools.product(range(3), repeat=2))
    return _assemble(
        form, functions, [(h, range(6)) for h in hess],
        [(a, b, 0.5, 3 * i + j) for i, j in cells for a, b in ((i, 3 + j), (3 + j, i))],
        [(3 + i, 3 + j, 1.0, 3 * i + j) for i, j in cells],
        comp_const=np.zeros((6, 6)), cof_const=np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        constraint_rule=_hessian_determinant_rule(hess))


def _build_m101(form, functions):
    # g enters the components as -4 g at (x3, x3) and the coframe as g dx3 in theta^0
    if len(functions) != 1:
        raise ValueError("M101 takes a single free profile")
    g, = functions
    if g.nvars not in (2, 10, 11):
        raise ValueError("profile takes (x2,x3), (x2,x3,w) or all coordinates")
    if g.nvars == 11 and g.depends_on(0):
        raise ValueError("profile must not depend on x1")
    args = {2: (1, 2), 10: range(1, 11), 11: range(11)}[g.nvars]
    return _assemble(form, functions, [(g, args)], [(2, 2, -4.0, 0)], [(0, 2, 1.0, 0)])


# tag -> builder (normal form, profiles) -> metric, adding the profile terms
_BUILDERS = {
    "M21": partial(_null_corner_form, coeff=-1.0),
    "M31": partial(_null_corner_form, coeff=-1.0, laplacian=(0, 1)),
    "M22GEN": partial(_null_corner_form, coeff=1.0),
    "M22DEG": _build_m22deg,
    "M41DEG": partial(_null_corner_form, coeff=-2.0, laplacian=(1, 2, 3), corner=0),
    "M51NULL": partial(_null_corner_form, coeff=-1.0, laplacian=range(4)),
    "M33GEN": _build_m33gen,
    "M33NULL": partial(_paired_block_form, size=2, xoff=0, yoff=3, coeff=1.0),
    "PUREODD": _pure_form,
    "PUREEVEN": _pure_form,
    "M101": _build_m101,
}


def build_metric(family: str, functions, p=None) -> CoordinateMetric:
    """Assemble a normal-form metric from its free functions.

    ``p`` is the block size of PUREODD and PUREEVEN; a tag carries none, and
    any other family refuses one.
    """
    tag = str(family).strip().upper()
    if tag not in _DECLARATIONS:
        raise ValueError(f"unknown family {family!r}")
    functions = tuple(functions)
    p = _block_size(tag, p)
    label = tag if p is None else f"{tag} with p = {p}"
    # a block family is counted before it is built, so a huge p builds nothing
    # sized by it; M101 declares no arities, and its builder checks its profile
    count = p * (p + 1) // 2 if p else len(_declared(tag, None).arities or functions)
    if len(functions) != count:
        raise ValueError(f"{label} takes {count} functions, got {len(functions)}")
    form = _declared(tag, p)
    for k, (f, a) in enumerate(zip(functions, form.arities or ())):
        if f.nvars != a:
            raise ValueError(f"{label} needs arity {a}, got {f.nvars} (function {k + 1})")
    return _BUILDERS[tag](form, functions)


def _signature(components: np.ndarray) -> tuple[int, int]:
    """Numbers of positive and negative eigenvalues of metric components."""
    w = np.linalg.eigvalsh(components)
    return int((w > 0).sum()), int((w < 0).sum())


def _check_signature(m: CoordinateMetric) -> None:
    g = m.components(np.zeros(m.n))
    if abs(np.linalg.det(g)) <= DEGENERACY_TOL:
        raise ValueError("metric degenerate at the origin probe")
    found = _signature(g)
    if found != m.signature:
        raise ValueError(f"{m.family} signature {found} != declared {m.signature}")


# -- curvature from jets ------------------------------------------------------


def _christoffel_arrays(m: CoordinateMetric, points, order: int):
    """Christoffel coefficients as (..., n, n, n, nmono) jets to ``order``, and their context.

    They read the first partials of the metric, whose jets are taken one
    order higher.  Any point where |det g| <= ``DEGENERACY_TOL`` raises.
    """
    G = m.component_jets(points, order=order + 1)
    if (np.abs(np.linalg.det(G.value())) <= DEGENERACY_TOL).any():
        raise ValueError("metric degenerate at the probe point")
    ginv = G.truncate(order).inv()
    ctx = ginv.ctx
    n = m.n
    lead = G.shape[:-2]
    # dG[..., b, c, d, t]: the partial in b of g_cd
    dG = np.stack([G.ctx.diff_arrays(G.c, b) for b in range(n)], axis=-4)
    k = dG.swapaxes(-4, -3) + np.einsum("...cdbt->...dbct", dG) - dG
    gam = 0.5 * ctx.matmul_arrays(ginv.c, k.reshape(lead + (n, n * n, -1)))
    return gam.reshape(lead + (n, n, n, -1)), ctx


def christoffel_values(m: CoordinateMetric, points) -> np.ndarray:
    return _christoffel_arrays(m, points, 0)[0][..., 0]


def _linear_parts(c: np.ndarray, n: int) -> np.ndarray:
    """First partials of order-1 jets (..., nmono) in n variables, as (..., n).

    The monomials of degree 1 follow the constant, one per variable in order.
    """
    return c[..., 1:n + 1]


def _curvature_parts(m: CoordinateMetric, points) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel values and their first partials, the derivative axis before (a, b, c)."""
    gam, _ = _christoffel_arrays(m, points, 1)
    return gam[..., 0], np.moveaxis(_linear_parts(gam, m.n), -1, -4)


def ricci_numeric(m: CoordinateMetric, points) -> np.ndarray:
    """Ricci tensor from jet Christoffel symbols (round sphere positive), (..., n, n)."""
    gv, dgam = _curvature_parts(m, points)
    term1 = np.einsum("...aadb->...bd", dgam)
    term2 = np.einsum("...daab->...bd", dgam)
    contr = np.einsum("...aae->...e", gv)
    term3 = np.einsum("...e,...edb->...bd", contr, gv)
    term4 = np.einsum("...ade,...eab->...bd", gv, gv)
    return term1 - term2 + term3 - term4


def riemann_numeric(m: CoordinateMetric, points) -> np.ndarray:
    """Curvature tensor R^a_{bcd} at points (..., n), as (..., n, n, n, n)."""
    gv, dgam = _curvature_parts(m, points)
    t1 = np.einsum("...cadb->...abcd", dgam)
    t2 = np.einsum("...dacb->...abcd", dgam)
    t3 = np.einsum("...ace,...edb->...abcd", gv, gv)
    t4 = np.einsum("...ade,...ecb->...abcd", gv, gv)
    return t1 - t2 + t3 - t4


# -- closed-form Ricci displays ----------------------------------------------

RICCI_CALIBRATION = {
    "PUREODD": -1.0,
    "PUREEVEN": -2.0,
    "M22DEG": -2.0,
    "M31": 0.5,
    "M41DEG": 1.0,
    "M51NULL": 0.5,
}


@lru_cache(maxsize=None)
def _bracket_columns(nvars: int, p: int, xoff: int):
    """Where :func:`_array_bracket` reads an order-2 jet, and the pair grid.

    Returns the coefficient columns of x^k y_k, of y_k and of y_m y_k, the
    (p, p) array of pair indices of (i, j), and its columns j and l of each
    pair (j, l) in pair order, for x^k coordinate xoff + k and y_k
    coordinate xoff + p + k.
    """
    index = shared_context(nvars, 2).index

    def column(*variables):
        exps = [0] * nvars
        for v in variables:
            exps[v] += 1
        return index[tuple(exps)]

    xs, ys = range(xoff, xoff + p), range(xoff + p, xoff + 2 * p)
    linear = [column(x, y) for x, y in zip(xs, ys)]
    first = [column(y) for y in ys]
    second = [[column(ym, yk) for yk in ys] for ym in ys]
    pairs = symmetric_pairs(p)
    grid = np.array(_fmatrix(range(len(pairs)), pairs, p))
    mj, kl = grid[:, [j for j, _ in pairs]], grid[:, [l for _, l in pairs]]
    return linear, first, second, grid, mj, kl


def _array_bracket(coeffs: np.ndarray, nvars: int, p: int, xoff: int) -> np.ndarray:
    """The (..., p, p) bracket B at points from the block's order-2 jet coefficients.

    ``coeffs`` stacks the profiles' jets in ``shared_context(nvars, 2)`` as
    (..., pairs, monomials), in pair order.  Each partial is one coefficient
    (times 2 for y_k y_k), and all pairs are evaluated at once.  The float
    operations and their order are those of the bracket formed term by
    term with jets: the linear part summed over k, then for each (m, k)
    the product -f_mk f_jl,y_m y_k and then f_mj,y_k f_kl,y_m, each
    product added to 0.0 first, as a jet product's coefficient sum is.
    The same bracket on exact series is ``cauchy.bracket_series``.
    """
    linear, first, second, grid, mj, kl = _bracket_columns(nvars, p, xoff)
    value, dy = coeffs[..., 0], coeffs[..., first]
    total = coeffs[..., linear[0]]
    for k in range(1, p):
        total = total + coeffs[..., linear[k]]
    for m in range(p):
        for k in range(p):
            dyy = coeffs[..., second[m][k]] * 2.0 if m == k else coeffs[..., second[m][k]]
            total = total - (0.0 + value[..., grid[m, k], None] * dyy)
            total = total + (0.0 + dy[..., mj[m], k] * dy[..., kl[k], m])
    return total[..., grid]


def _bracket_display(tag, block, p, xoff, odd=False, chart=None):
    """Display c B in the x cells, B the quadratic bracket of the profile block.

    ``block`` lists the profiles f_ij of all n coordinates in pair order,
    x^k being coordinate xoff + k and y_k coordinate xoff + p + k.  The odd
    form adds the second derivative in z, coordinate 0: c (f_zz + 2 B).
    ``chart`` maps points (..., n) to the coordinates the block is written
    in.  The block is expanded in one gather, to order 2, at all points,
    and the bracket is read off the stacked coefficients in floats
    (:func:`_array_bracket`).
    """
    n = block[0].nvars
    ctx = shared_context(n, 2)
    grid = _bracket_columns(n, p, xoff)[3]
    zz = ctx.index[(2,) + (0,) * (n - 1)]
    cells = slice(xoff, xoff + p)
    scale = RICCI_CALIBRATION[tag]

    def display(points):
        if chart is not None:
            points = chart(points)
        coeffs = expand([(f, range(n)) for f in block], ctx, points).c
        bracket = _array_bracket(coeffs, n, p, xoff)
        if odd:
            bracket = coeffs[..., grid, zz] * 2.0 + 2.0 * bracket
        out = np.zeros(points.shape[:-1] + (n, n))
        out[..., cells, cells] = scale * bracket
        return out

    return display


def _laplacian_display(tag, n, profile, lap_vars, cell):
    """Display c (sum_a f_aa) in one cell, a running over the profile arguments ``lap_vars``."""
    f, args = profile
    args = list(args)
    scale = RICCI_CALIBRATION[tag]
    ctx = shared_context(f.nvars, 2)

    def display(points):
        # one order-2 expansion at all points serves every second derivative
        jet = f.jet(ctx, points[..., args], range(f.nvars))
        out = np.zeros(points.shape[:-1] + (n, n))
        out[(...,) + cell] = scale * sum(jet.derivative_value(a, a) for a in lap_vars)
        return out

    return display


def ricci_paper(m: CoordinateMetric, points) -> np.ndarray:
    """Closed-form Ricci display of a normal form that declares one, (..., n, n).

    Output matches ricci_numeric; the per-family constant was calibrated
    once against the jet oracle and is frozen in RICCI_CALIBRATION.
    """
    if m.ricci_display is None:
        raise ValueError(f"{m.family or 'custom metric'} has no closed-form Ricci display")
    return m.ricci_display(np.asarray(points, dtype=float))


# -- constraint reports -------------------------------------------------------


def constraint_check(m: CoordinateMetric, points) -> dict[str, float]:
    """Per-family constraint residuals over probe points (reports, never rejects)."""
    if m._constraint_rule is None:
        return {}
    return dict(m._constraint_rule(m, np.atleast_2d(np.asarray(points, dtype=float))))


# -- adapted coframe and connection ------------------------------------------


@dataclass(frozen=True)
class AdaptedCoframe:
    """Connection values (..., n, n, n) and residuals of the points' leading shape."""

    connection: np.ndarray
    membership_residual: float | np.ndarray
    torsion_residual: float | np.ndarray
    skew_residual: float | np.ndarray
    gram_residual: float | np.ndarray


def _connection_arrays(E: Jet, gram: np.ndarray):
    """Levi-Civita connection A^a_{b,c} in the coframe, as (..., n, n, n, nmono) jet arrays.

    Solves dtheta^a + A^a_b wedge theta^b = 0 with A metric for the constant
    Gram matrix.  A reads the first partials of E, so it is formed in the
    context one order below E's, which is returned with A and the structure
    coefficients.
    """
    einv = E.truncate(E.ctx.order - 1).inv()
    ctx = einv.ctx
    n = E.shape[-1]
    lead = E.shape[:-2]
    # dE[..., j, a, b, t]: the partial in j of E^a_b
    dE = np.stack([E.ctx.diff_arrays(E.c, j) for j in range(n)], axis=-4)
    t = dE.swapaxes(-4, -3)
    f = t - t.swapaxes(-3, -2)
    t1 = ctx.matmul_arrays(f.reshape(lead + (n * n, n, -1)), einv.c)
    t1 = t1.reshape(lead + (n, n, n, -1)).swapaxes(-3, -2)
    t1 = np.ascontiguousarray(t1).reshape(lead + (n * n, n, -1))
    c = ctx.matmul_arrays(t1, einv.c).reshape(lead + (n, n, n, -1)).swapaxes(-3, -2)
    k = np.einsum("ea,...apqt->...epqt", gram, c)
    d = 0.5 * (k - np.einsum("...bact->...abct", k) - np.einsum("...cabt->...abct", k))
    a = np.einsum("ae,...ebct->...abct", np.linalg.inv(gram), d)
    return a, c, ctx


def _first_singular(mats: np.ndarray) -> int:
    """Index of the first matrix of a stack that ``np.linalg.inv`` refuses."""
    for i, mat in enumerate(mats):
        try:
            np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            return i
    raise ValueError("no singular matrix in the stack")


def adapted_coframe(m: CoordinateMetric, points) -> AdaptedCoframe:
    """Coframe, connection and certificate residuals at points (..., n).

    The connection values are (..., n, n, n) and each residual has the
    points' leading shape.
    """
    points = np.asarray(points, dtype=float)
    E = m.coframe_jets(points, order=1)
    try:
        a, c, _ = _connection_arrays(E, m.gram)
    except np.linalg.LinAlgError as exc:
        flat = points.reshape(-1, m.n)
        first = flat[_first_singular(E.value().reshape(len(flat), m.n, m.n))]
        raise ValueError(f"adapted coframe degenerate at {first}") from exc
    av = a[..., 0]
    cv = c[..., 0]
    ev = E.value()
    gram_res = np.abs(ev.swapaxes(-2, -1) @ m.gram @ ev - m.components(points))
    gram_res = gram_res.max(axis=(-2, -1))
    torsion = np.abs((av - av.swapaxes(-2, -1)) - cv).max(axis=(-3, -2, -1))
    # the connection's value on each coordinate c, (..., c, a, b)
    forms = np.moveaxis(av, -1, -3)
    gms = m.gram @ forms
    skew = np.abs(gms + gms.swapaxes(-2, -1)).max(axis=(-3, -2, -1))
    rows = m.stabilizer_rows()
    member = np.array([projection_residual(f, rows) for f in forms.reshape(-1, m.n, m.n)])
    member = member.reshape(forms.shape[:-2]).max(axis=-1)
    return AdaptedCoframe(av, member, torsion, skew, gram_res)


# -- holonomy span ------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyEstimate:
    span_dim: int
    stabilizer_dim: int
    generator_count: int
    sweeps: int
    membership_residual: float


def curvature_operators(m: CoordinateMetric, points) -> np.ndarray:
    """Coframe curvature endomorphisms on all coordinate planes at points (..., n).

    Returns (..., planes, n, n), the planes i < j in ``np.triu_indices`` order.
    """
    points = np.asarray(points, dtype=float)
    E = m.coframe_jets(points, order=2)
    a, _, ctx = _connection_arrays(E, m.gram)
    n = m.n
    lead = E.shape[:-2]
    e1 = E.truncate(ctx.order).c
    ahat = ctx.matmul_arrays(a.reshape(lead + (n * n, n, -1)), e1)
    ahat = ahat.reshape(lead + (n, n, n, -1))
    # values and first partials on coordinate c, (..., c, a, b) and (..., j, c, a, b)
    av = np.moveaxis(ahat[..., 0], -1, -3)
    dav = np.moveaxis(_linear_parts(ahat, n), (-1, -2), (-4, -3))
    i, j = np.triu_indices(n, 1)
    left, right = av[..., i, :, :], av[..., j, :, :]
    return dav[..., i, j, :, :] - dav[..., j, i, :, :] + left @ right - right @ left


def holonomy_span(m: CoordinateMetric, points) -> HolonomyEstimate:
    """Bracket-closed span of sampled curvature operators (cap 10 sweeps).

    The operators are taken point by point, each point's planes in order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = m.stabilizer_rows()
    sdim = rows.shape[0]
    ops = curvature_operators(m, points).reshape(-1, m.n, m.n)
    finite = np.isfinite(ops).all(axis=(1, 2))
    ops = list(ops[finite & (np.abs(ops).max(axis=(1, 2)) > 1e-10)])
    # a non-finite operator's NaN membership fails the check; the closure's
    # SVD would raise on it
    residuals = [projection_residual(th, rows) for th in ops] + [np.nan] * int((~finite).sum())
    member = _worst(residuals)
    if not ops:
        return HolonomyEstimate(0, sdim, 0, 0, member)
    basis, sweeps = bracket_closure(ops, "holonomy span")
    # a span beyond the stabilizer means wrong connection or coframe data;
    # the caller's span check reports it
    return HolonomyEstimate(len(basis), sdim, len(ops), sweeps, member)


# -- formal curvature space ----------------------------------------------------


def so_basis(n: int) -> list[np.ndarray]:
    e = np.eye(n)
    return [np.outer(e[i], e[j]) - np.outer(e[j], e[i])
            for i, j in itertools.combinations(range(n), 2)]


@lru_cache(maxsize=None)
def _faces(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The faces of the k-subsets T of range(n), as four read-only (C(n, k), k) arrays.

    Subsets are in ``itertools.combinations`` order.  At [t, s] they hold the
    row t of T, the index of the face T minus T_s among the (k-1)-subsets,
    the removed element T_s (so the third array lists the subsets), and (-1)^s.
    """
    index = {f: i for i, f in enumerate(itertools.combinations(range(n), k - 1))}
    table = np.array([[(t, index[T[:s] + T[s + 1:]], T[s], (-1) ** s) for s in range(k)]
                      for t, T in enumerate(itertools.combinations(range(n), k))],
                     dtype=np.intp).reshape(-1, k, 4)
    table.setflags(write=False)
    return tuple(np.moveaxis(table, -1, 0))


def _pair_bianchi(forms, n: int) -> Triples:
    """First Bianchi map b on S^2(h) -> Lambda^4, as triples.

    ``forms`` stacks the 2-forms omega_alpha = G h_alpha of an h basis.  Row t
    is the 4-subset (a, b, c, d) at t of ``_faces(n, 4)``, column k the pair
    alpha <= beta at k of ``np.triu_indices``; the cell holds
    b(omega_alpha omega_beta + omega_beta omega_alpha)_abcd, with
    b(R)_abcd = R_abcd + R_acdb + R_adbc, halved when alpha = beta.  Each
    nonzero cell is listed once.
    """
    w = np.asarray(forms)
    a, b, c, d = _faces(n, 4)[2].T
    # b(omega_x omega_y)_abcd sums the splits (ab|cd), (ac|db), (ad|bc): [x, y, t]
    split = np.einsum("xst,yst->xyt", w[:, [a, a, a], [b, c, d]], w[:, [c, d, b], [d, b, c]],
                      optimize=True)
    x, y = np.triu_indices(len(w))
    values = split[x, y] + (x != y)[:, None] * split[y, x]
    cols, rows = np.nonzero(values)
    return Triples(rows, cols, values[cols, rows], values.shape[::-1])


def invariant_forms(mats, k: int, label: str) -> np.ndarray:
    """Orthonormal basis (columns) of the alternating k-forms that -a^T kills for every a.

    ``mats`` is a sequence of n x n matrices or an (m, n, n) array, and m = 0
    keeps every k-form.  Coefficients run over ``combinations(range(n), k)``.
    k-subsets T and U with a common face, T without T_s and U without U_r,
    give -(-1)^(s + r) a[U_r, T_s] at (T, U): pairing the cofaces of each
    face gives the operator's triples, one block of rows per a.
    """
    h = np.asarray(mats, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or not 1 <= k <= h.shape[1]:
        raise ValueError(f"{label}: need an (m, n, n) stack and a degree k in 1..n, "
                         f"got shape {h.shape} and k = {k}")
    n = h.shape[1]
    row, face, removed, sign = _faces(n, k)
    size = len(row)
    # the n - k + 1 cofaces (T, s) of each face, one face per row
    by_face = np.argsort(face, axis=None, kind="stable").reshape(-1, n - k + 1)
    t, r, s = row.ravel()[by_face], removed.ravel()[by_face], sign.ravel()[by_face]
    values = -(s[:, :, None] * s[:, None, :]) * h[:, r[:, None, :], r[:, :, None]]
    rows = np.broadcast_to(np.arange(len(h))[:, None, None, None] * size + t[:, :, None],
                           values.shape)
    cols = np.broadcast_to(t[:, None, :], values.shape)
    return block_kernel(Triples(rows.ravel(), cols.ravel(), values.ravel(),
                                (len(h) * size, size)), label)


def _rank_mod_p(mat: np.ndarray, prime: int = 1_000_003) -> int:
    a = np.mod(mat.astype(np.int64), prime)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        a[[r, r + pivots[0]]] = a[[r + pivots[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), prime - 2, prime) % prime
        sel = r + 1 + np.nonzero(a[r + 1:, c])[0]
        a[sel] = (a[sel] - np.outer(a[sel, c], a[r])) % prime
        r += 1
    return r


def curvature_space_dim(stabilizer, gram) -> int:
    """Dimension of the formal curvature space K(h) of a matrix algebra h.

    ``gram`` is the metric G, for which every element of h must be skew.
    A tensor with the curvature symmetries that satisfies the first Bianchi
    identity is pair-symmetric, R_abcd = R_cdab (Besse, *Einstein
    Manifolds*, 1987), so K(h), the Bianchi kernel on h tensor Lambda^2, is
    the kernel of b on S^2(h), with h read as 2-forms G h.  The rank is taken
    over floats with a guard band on an orthonormal basis of h, built block
    by block so that the operator's triples split into independent blocks,
    and cross-checked by exact elimination mod a large prime on the supplied
    basis whenever it and G are half-integral (their doubles are integral,
    and scaling a basis element or G scales columns only).
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"curvature space: the Gram matrix must be an (n, n) array, "
                         f"got shape {g.shape}")
    n = g.shape[0]
    if np.abs(g - g.T).max(initial=0.0) > SPAN_TOL * max(1.0, np.abs(g).max(initial=0.0)):
        raise ValueError("curvature space: the Gram matrix is not symmetric")
    if guarded_rank(g, "curvature space Gram matrix") < n:
        raise ValueError("curvature space: the Gram matrix is degenerate")
    mats = np.asarray(stabilizer, dtype=float)
    if not len(mats):
        return 0
    if mats.shape[1:] != (n, n):
        raise ValueError(f"curvature space: need ({n}, {n}) algebra elements for a "
                         f"({n}, {n}) Gram matrix, got shape {mats.shape}")
    forms = g @ mats
    for k, w in enumerate(forms):
        residual = np.abs(w + w.T).max()
        if residual > SPAN_TOL * max(1.0, np.abs(w).max()):
            raise ValueError(f"curvature space: algebra element {k} is not skew for the "
                             f"Gram matrix (residual {residual:.2e})")
    rows = block_span(mats, "curvature space basis")
    m = rows.shape[0]
    rank = block_rank(_pair_bianchi(g @ rows.reshape(m, n, n), n), "curvature space")
    doubled = 2 * np.concatenate([mats, g[None]])
    if len(mats) == m and np.abs(doubled - np.round(doubled)).max() < 1e-9:
        ints = np.round(doubled).astype(np.int64)
        # each cell is listed once, so one assignment scatters the triples
        r, c, v, shape = _pair_bianchi(ints[-1] @ ints[:-1], n)
        bint = np.zeros(shape, dtype=np.int64)
        bint[r, c] = v
        rank_int = _rank_mod_p(bint)
        if rank_int != rank:
            raise RuntimeError(
                f"float rank {rank} disagrees with exact rank {rank_int}")
    return m * (m + 1) // 2 - rank


# -- the 11-dimensional family -------------------------------------------------


def _integral_form(mats, k: int, label: str) -> np.ndarray:
    """The one invariant k-form of ``mats``: max |coefficient| 1, first one > 0, integral."""
    kern = invariant_forms(mats, k, label)
    if kern.shape[1] != 1:
        raise RuntimeError(f"{label} space has dimension {kern.shape[1]}")
    v = kern[:, 0] / np.abs(kern[:, 0]).max()
    snapped = np.round(v)
    if np.abs(v - snapped).max() > 1e-9:
        raise RuntimeError(f"{label} coefficients fail to snap to integers")
    return snapped * np.sign(snapped[np.flatnonzero(snapped)[0]])


def _alternating(coeffs, n: int, k: int) -> np.ndarray:
    """Dense alternating k-tensor on R^n with ``coeffs`` over ``combinations(range(n), k)``."""
    perms = np.array(list(itertools.permutations(range(k))))
    signs = np.round(np.linalg.det(np.eye(k)[perms]))
    subsets = _faces(n, k)[2]
    dense = np.zeros((n,) * k)
    dense[tuple(np.moveaxis(subsets[:, perms], -1, 0))] = np.multiply.outer(coeffs, signs)
    return dense


def parallel_forms_10_1(m: CoordinateMetric) -> dict[str, np.ndarray]:
    """dx3, dx2^dx3 and dx3^Phi: the stabilizer's one invariant 1-, 2- and 5-form.

    Each is pulled back by the coframe at the origin.
    """
    if m.family != "M101":
        raise ValueError("parallel-form inventory is specific to M101")
    degrees = {"dx3": 1, "dx2^dx3": 2, "dx3^Phi": 5}
    coframe = m.coframe_jets(np.zeros(m.n), order=0).value()
    out = {}
    for name, k in degrees.items():
        out[name] = _alternating(_integral_form(m.stabilizer, k, f"invariant {k}-form"), m.n, k)
        for _ in range(k):
            out[name] = np.tensordot(out[name], coframe, axes=(0, 0))
    return out


def parallel_form_residual(m: CoordinateMetric, point, form) -> float:
    """Max covariant-derivative component of a constant-coefficient form."""
    form = np.asarray(form, dtype=float)
    k = form.ndim
    gam = christoffel_values(m, point)
    total = np.zeros((m.n,) + form.shape)
    for r in range(k):
        contr = np.tensordot(form, gam, axes=([r], [0]))
        contr = np.moveaxis(contr, [k - 1, k], [0, r + 1])
        total -= contr
    return float(np.abs(total).max())
