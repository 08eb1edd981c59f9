"""Metric normal forms carrying parallel spinors, with jet-based curvature.

Each normal form is declared as data: coordinates, signature, a constant
Gram matrix, a basis of the stabilizer subalgebra the Levi-Civita
connection must take values in, and two independent term lists placing
profile functions in fixed cells of the metric components and of an
adapted coframe.  One rule evaluates such a declaration as truncated
Taylor jets; the 11-dimensional family, built from a fiber coframe, is
assembled separately.  Curvature is read off the jets (Christoffel
symbols, Riemann, Ricci); closed-form Ricci displays, constraint
equations, connection membership and holonomy spans are all checked
against that machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import octospin
from .jets import Jet, JetContext, JetMatrix, JetSeries, monomials_upto
from .linalg import (
    bracket_closure,
    guarded_rank,
    nullspace,
    orthonormal_span,
    projection_residual,
)

DEGENERACY_TOL = 1e-8
FAMILY_TAGS = (
    "M21", "M31", "M22GEN", "M22DEG", "M41DEG", "M51NULL",
    "M33GEN", "M33NULL", "PUREODD", "PUREEVEN", "M101",
)


def _worst(values) -> float:
    """Largest of ``values`` (0.0 for none); NaN as soon as one value is NaN.

    The builtin max keeps a NaN only in first position, so a failed
    evaluation at a later probe would read as a zero residual.
    """
    return float(np.max(np.asarray(list(values), dtype=float), initial=0.0))


# -- free functions ----------------------------------------------------------


class FreeFunction:
    """Scalar function of ``arity`` arguments, evaluated on jets.

    Two backends: a sparse monomial table {exponents: coefficient}, held
    as a :class:`JetSeries` truncated at its own total degree and so
    evaluated and differentiated exactly, or an arbitrary ``rule`` mapping
    argument jets to a jet in the same context.  Families whose components
    are built from derivatives of f (Hessian blocks) require the table
    backend.
    """

    def __init__(self, arity: int, table=None, rule=None, name: str = "f"):
        if (table is None) == (rule is None):
            raise ValueError("provide exactly one of table/rule")
        self.arity = int(arity)
        self.name = name
        self.rule = rule
        if table is None:
            self.series = None
            return
        order = max((sum(int(e) for e in exps) for exps in table), default=0)
        self.series = JetSeries.from_table(self.arity, order, table)

    @property
    def table(self):
        """The {exponents: coefficient} terms of the series, or None for a rule."""
        return None if self.series is None else self.series.terms

    @classmethod
    def zero(cls, arity: int) -> "FreeFunction":
        return cls(arity, table={})

    def __repr__(self) -> str:
        kind = "table" if self.table is not None else "rule"
        return f"FreeFunction({self.name}, arity={self.arity}, {kind})"

    def jet(self, args: list[Jet]) -> Jet:
        if len(args) != self.arity:
            raise ValueError(f"{self.name} takes {self.arity} arguments, got {len(args)}")
        if self.rule is not None:
            return self.rule(*args)
        ctx = args[0].ctx
        powers: list[dict[int, Jet]] = [{0: ctx.constant(1.0)} for _ in range(self.arity)]

        def pw(i: int, e: int) -> Jet:
            cache = powers[i]
            if e not in cache:
                cache[e] = pw(i, e - 1) * args[i]
            return cache[e]

        out = ctx.constant(0.0)
        for exps, coeff in sorted(self.table.items()):
            term = ctx.constant(coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * pw(i, e)
            out = out + term
        return out

    def value(self, point) -> float:
        if self.series is not None:
            return self.series.evaluate(point)
        ctx = JetContext(self.arity, 0)
        return self.jet(ctx.variables(np.asarray(point, dtype=float))).value()

    def derivative(self, point, *vars_: int) -> float:
        """Mixed partial derivative value at ``point``."""
        ctx = JetContext(self.arity, max(len(vars_), 1))
        return self.jet(ctx.variables(np.asarray(point, dtype=float))).derivative_value(*vars_)

    def partial(self, var: int) -> "FreeFunction":
        """Exact partial derivative; table backend only."""
        if self.series is None:
            raise ValueError("partial derivatives need the sparse-table backend")
        return FreeFunction(self.arity, table=self.series.diff(var).terms,
                            name=f"d{var}_{self.name}")

    def fd_gradient_residual(self, point, h: float = 1e-6) -> float:
        """Max mismatch between jet first partials and central differences."""
        point = np.asarray(point, dtype=float)
        mismatches = []
        for v in range(self.arity):
            step = np.zeros(self.arity)
            step[v] = h
            fd = (self.value(point + step) - self.value(point - step)) / (2.0 * h)
            exact = self.derivative(point, v)
            mismatches.append(abs(fd - exact) / max(1.0, abs(exact)))
        return _worst(mismatches)


def random_polynomial(arity: int, rng: np.random.Generator,
                      degree: int = 3, scale: float = 0.5,
                      name: str = "f") -> FreeFunction:
    table = {e: scale * rng.uniform(-1.0, 1.0) for e in monomials_upto(arity, degree)}
    return FreeFunction(arity, table=table, name=name)


def symmetric_pairs(size: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle index pairs (i <= j) in row-major order."""
    return tuple((i, j) for i in range(size) for j in range(i, size))


def divergence_free_draw(size: int, arity: int, y_vars, rng: np.random.Generator,
                         degree: int = 3, scale: float = 0.5) -> list[FreeFunction]:
    """Random symmetric family f_ij with sum_j df_ij/dy_j = 0 identically.

    ``y_vars[j]`` is the argument index paired with the second function
    index j.  The divergence conditions are linear in the coefficient
    tables, so a draw is a random kernel element of the constraint matrix.
    """
    y_vars = tuple(int(v) for v in y_vars)
    if len(y_vars) != size:
        raise ValueError("need one divergence variable per index")
    pairs = symmetric_pairs(size)
    pair_col = {}
    for t, (i, j) in enumerate(pairs):
        pair_col[(i, j)] = t
        pair_col[(j, i)] = t
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
                col = pair_col[(i, j)] * nm + midx[tuple(bumped)]
                row[col] += bumped[y_vars[j]]
            rows.append(row)
    kern = nullspace(np.stack(rows), "divergence constraints")
    coeffs = scale * (kern @ rng.standard_normal(kern.shape[1]))
    out = []
    for t, (i, j) in enumerate(pairs):
        table = {}
        for e, v in midx.items():
            c = coeffs[t * nm + v]
            if abs(c) > 1e-13:
                table[e] = c
        out.append(FreeFunction(arity, table=table, name=f"f{i + 1}{j + 1}"))
    return out


def quadratic_profile_functions(h4: np.ndarray, h2: np.ndarray) -> list[FreeFunction]:
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
        out.append(FreeFunction(arity, table=table, name=f"f{i + 1}{j + 1}"))
    return out


# -- spec files ---------------------------------------------------------------


def _spec_table(coefficients: dict) -> dict[tuple[int, ...], Fraction]:
    """Exact {exponents: coefficient} table from a spec's coefficient map.

    Keys are comma-separated exponent strings; values may be numbers or
    rational strings like "3/4", and are kept as Fractions.  A value that
    is not a finite number (JSON Infinity or NaN, or beyond the float
    range) is rejected with its key.
    """
    table: dict[tuple[int, ...], Fraction] = {}
    for key, val in coefficients.items():
        exps = tuple(int(s) for s in str(key).strip("() ").split(","))
        try:
            coeff = Fraction(val)
            float(coeff)  # OverflowError past the float range
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"coefficient {key!r} is not a finite number: {val!r}") from exc
        table[exps] = table.get(exps, 0) + coeff
    return table


def function_from_spec(d: dict) -> FreeFunction:
    """Build a table-backed function from its serialized form (exact rationals)."""
    return FreeFunction(int(d["arity"]), table=_spec_table(d.get("coefficients", {})),
                        name=d.get("name", "f"))


def metric_from_spec(d: dict) -> "CoordinateMetric":
    family = str(d["family"])
    functions = [function_from_spec(fd) for fd in d["functions"]]
    tag, p = _parse_family_tag(family, d.get("p"))
    if tag == "M101":
        fiber = d.get("fiber", "identity")
        if fiber != "identity":
            raise ValueError("only the identity fiber is serializable")
        return build_metric_10_1(FiberFamily.identity(), functions[0])
    return build_metric(tag, functions, p=p)


# -- coordinate metrics -------------------------------------------------------


class CoordinateMetric:
    """Metric components over a fixed coordinate chart, evaluated as jets.

    ``family`` is one of the normal-form tags or None for a custom metric;
    custom metrics support curvature computations but carry no adapted
    coframe or stabilizer data.
    """

    def __init__(self, n, signature, coordinates, component_rule, *,
                 family=None, functions=(), p=None, coframe_rule=None,
                 gram=None, stabilizer=(), constraint_rule=None, fiber=None):
        self.n = int(n)
        self.signature = tuple(int(s) for s in signature)
        self.coordinates = tuple(coordinates)
        self.family = family
        self.functions = tuple(functions)
        self.p = p
        self.fiber = fiber
        self._component_rule = component_rule
        self._coframe_rule = coframe_rule
        self.gram = None if gram is None else np.asarray(gram, dtype=float)
        self.stabilizer = tuple(np.asarray(h, dtype=float) for h in stabilizer)
        self._constraint_rule = constraint_rule
        self._stab_rows = None
        if len(self.coordinates) != self.n:
            raise ValueError("coordinate names disagree with the dimension")

    def component_jets(self, point, order: int = 2) -> JetMatrix:
        ctx = JetContext(self.n, order)
        return self._component_rule(ctx.variables(np.asarray(point, dtype=float)), ctx)

    def components(self, point) -> np.ndarray:
        return self.component_jets(point, order=0).value()

    def det(self, point) -> float:
        return float(np.linalg.det(self.components(point)))

    def coframe_jets(self, point, order: int = 1) -> JetMatrix:
        if self._coframe_rule is None:
            raise ValueError("metric carries no adapted coframe")
        ctx = JetContext(self.n, order)
        return self._coframe_rule(ctx.variables(np.asarray(point, dtype=float)), ctx)

    @property
    def stabilizer_dimension(self) -> int:
        return self.stabilizer_rows().shape[0] if self.stabilizer else 0

    def stabilizer_rows(self) -> np.ndarray:
        if self._stab_rows is None:
            if self.stabilizer:
                self._stab_rows = orthonormal_span(list(self.stabilizer), "stabilizer basis")
            elif self._coframe_rule is not None:
                # a normal form whose stabilizer is trivial
                self._stab_rows = np.zeros((0, self.n * self.n))
            else:
                raise ValueError("metric carries no stabilizer basis")
        return self._stab_rows


def custom_metric(n, signature, coordinates, component_rule) -> CoordinateMetric:
    """Metric from a raw component rule (jets in, JetMatrix out)."""
    return CoordinateMetric(n, signature, coordinates, component_rule)


def probe_points(m: CoordinateMetric, seed: int, count: int = 5,
                 box: float = 0.5) -> np.ndarray:
    """Seeded sample points in a coordinate box, avoiding degeneracies."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(100 * count):
        x = rng.uniform(-box, box, m.n)
        if abs(np.linalg.det(m.components(x))) > DEGENERACY_TOL:
            pts.append(x)
            if len(pts) == count:
                return np.array(pts)
    raise RuntimeError("could not sample nondegenerate probe points")


# -- family builders ----------------------------------------------------------
#
# Components and coframe are two independent term lists, never one derived
# from the other (say as E^T gram E), so the coframe Gram reproduction check
# compares two separate statements of each normal form.


def _expect(tag: str, functions, arities) -> None:
    if len(functions) != len(arities):
        raise ValueError(f"{tag} takes {len(arities)} functions, got {len(functions)}")
    for f, a in zip(functions, arities):
        if f.arity != a:
            raise ValueError(f"{tag} needs arity {a}, got {f.arity} ({f.name})")


def _expect_block(tag: str, functions, p, base: int) -> int:
    """Check a split family's block size and profiles; return n = 2p + base."""
    if p is None or p < 1:
        raise ValueError(f"{tag} needs the block size p")
    n = 2 * p + base
    _expect(f"{tag}({p})", functions, (n,) * len(symmetric_pairs(p)))
    return n


def _zeros(ctx: JetContext, n: int) -> list[list[Jet]]:
    z = ctx.constant(0.0)
    return [[z for _ in range(n)] for _ in range(n)]


def _fmatrix(functions, pairs, size):
    grid = [[None] * size for _ in range(size)]
    for (i, j), f in zip(pairs, functions):
        grid[i][j] = grid[j][i] = f
    return grid


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


def _symmetric_divergence_rule(fgrid, size, y_vars):
    names = [f"divergence row {i + 1}" for i in range(size)]

    def rule(m: CoordinateMetric, points) -> dict[str, float]:
        return {
            names[i]: _worst(
                abs(sum(fgrid[i][j].derivative(pt, y_vars[j]) for j in range(size)))
                for pt in points)
            for i in range(size)
        }

    return rule


def _profile_rule(const, profiles, terms):
    """Jet rule (X, ctx) -> const + coeff * f_t(X[args_t]) in cell (i, j), per term.

    ``profiles`` lists (FreeFunction, argument indices) and ``terms`` lists
    (i, j, coeff, t).  Each profile is evaluated once per call, and the
    matrix is trusted to the lowest order among the profile jets.
    """
    const = np.array(const, dtype=float)
    profiles = [(f, tuple(args)) for f, args in profiles]
    rows, cols, coeffs, which = zip(*terms)
    cells = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    which = np.array(which, dtype=np.intp)
    coeffs = np.array(coeffs, dtype=float)[:, None]

    def rule(X, ctx):
        jets = [f.jet([X[a] for a in args]) for f, args in profiles]
        c = np.zeros(const.shape + (ctx.nmono,))
        c[..., 0] = const
        np.add.at(c, cells, coeffs * np.stack([j.c for j in jets])[which])
        return JetMatrix(ctx, c, min(j.valid for j in jets))

    return rule


def _normal_form(tag, signature, coords, gram, stabilizer, functions, profiles,
                 comp_terms, cof_terms, *, comp_const=None, cof_const=None, **extra):
    """Metric whose components and coframe are constant parts plus profile terms.

    The constant part of the components defaults to the Gram matrix and that
    of the coframe to the identity.
    """
    n = len(coords)
    comp = _profile_rule(gram if comp_const is None else comp_const, profiles, comp_terms)
    cof = _profile_rule(np.eye(n) if cof_const is None else cof_const, profiles, cof_terms)
    return CoordinateMetric(n, signature, coords, comp, family=tag, functions=functions,
                            coframe_rule=cof, gram=gram, stabilizer=stabilizer, **extra)


def _null_corner_form(tag, functions, signature, coords, gram, stabilizer, coeff):
    """One profile f(x_1..x_{n-1}): g_nn gains coeff f and the coframe theta^0 gains f dx_n."""
    n = len(coords)
    return _normal_form(tag, signature, coords, gram, stabilizer, functions,
                        [(functions[0], range(1, n))],
                        [(n - 1, n - 1, coeff, 0)], [(0, n - 1, 1.0, 0)])


def _paired_block_form(tag, functions, size, xoff, yoff, coeff, signature, coords,
                       gram, stabilizer, **extra):
    """Symmetric profile block f_ij of all coordinates, paired against the y block.

    g gains coeff f_ij at (x_i, x_j), the coframe row of y_i gains f_ij dx_j,
    and the constraints are the divergences sum_j df_ij/dy_j.
    """
    pairs = symmetric_pairs(size)
    slot = {}
    for t, (i, j) in enumerate(pairs):
        slot[i, j] = slot[j, i] = t
    cells = list(itertools.product(range(size), repeat=2))
    y_vars = tuple(yoff + j for j in range(size))
    return _normal_form(
        tag, signature, coords, gram, stabilizer, functions,
        [(f, range(len(coords))) for f in functions],
        [(xoff + i, xoff + j, coeff, slot[i, j]) for i, j in cells],
        [(yoff + i, xoff + j, 1.0, slot[i, j]) for i, j in cells],
        constraint_rule=_symmetric_divergence_rule(
            _fmatrix(functions, pairs, size), size, y_vars),
        **extra)


def _build_m21(functions, p=None):
    _expect("M21", functions, (2,))
    return _null_corner_form(
        "M21", functions, (2, 1), ("x11", "x21", "x22"),
        _gram(3, {(0, 2): -0.5, (1, 1): 1.0}),
        (_matrix(3, {(0, 1): 2.0, (1, 2): 1.0}),), -1.0)


def _build_m31(functions, p=None):
    _expect("M31", functions, (3,))
    return _null_corner_form(
        "M31", functions, (3, 1), ("x11", "u", "v", "x22"),
        _gram(4, {(0, 3): -0.5, (1, 1): 1.0, (2, 2): 1.0}),
        (_matrix(4, {(0, 1): 2.0, (1, 3): 1.0}), _matrix(4, {(0, 2): -2.0, (2, 3): -1.0})),
        -1.0)


def _build_m22gen(functions, p=None):
    _expect("M22GEN", functions, (3,))
    return _null_corner_form(
        "M22GEN", functions, (2, 2), ("x11", "x12", "x21", "x22"),
        _gram(4, {(0, 3): 0.5, (1, 2): -0.5}),
        (_matrix(4, {(0, 2): 1.0, (1, 3): 1.0}), _matrix(4, {(0, 1): -1.0, (2, 3): -1.0})),
        1.0)


def _build_m22deg(functions, p=None):
    _expect("M22DEG", functions, (4,))
    f, = functions
    if f.table is None:
        raise ValueError("M22DEG components are Hessian-derived; need a table function")
    # profiles s11, s12, s22 with s_ij = f_{y_i y_j}
    s = [(f.partial(2 + i).partial(2 + j), range(4)) for i, j in symmetric_pairs(2)]
    stab = (_matrix(4, {(0, 2): 1.0, (1, 3): 1.0}), np.diag([-1.0, 1.0, -1.0, 1.0]),
            _matrix(4, {(1, 0): -1.0, (3, 2): -1.0}), _matrix(4, {(0, 1): -1.0, (2, 3): -1.0}))
    return _normal_form(
        "M22DEG", (2, 2), ("x1", "x2", "y1", "y2"), _gram(4, {(0, 3): 0.5, (1, 2): -0.5}),
        stab, functions, s,
        [(0, 0, 1.0, 0), (0, 1, 1.0, 1), (1, 0, 1.0, 1), (1, 1, 1.0, 2)],
        [(0, 0, -1.0, 1), (0, 1, -1.0, 2), (1, 0, 1.0, 0), (1, 1, 1.0, 1)],
        cof_const=_matrix(4, {(0, 2): 1.0, (1, 3): 1.0, (2, 0): -1.0, (3, 1): -1.0}))


def _build_m41deg(functions, p=None):
    _expect("M41DEG", functions, (4,))
    gram = _gram(5, {(0, 0): -1.0, (0, 4): -1.0, (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0})
    stab = tuple(_matrix(5, {(a, 0): -2.0, (4, a): -2.0}) for a in (1, 2, 3))
    return _normal_form("M41DEG", (4, 1), ("x", "s1", "s2", "s3", "r"), gram, stab,
                        functions, [(functions[0], range(4))],
                        [(0, 0, -2.0, 0)], [(4, 0, 1.0, 0)])


def _build_m51null(functions, p=None):
    _expect("M51NULL", functions, (5,))
    gram = _gram(6, {(0, 5): -0.5, **{(a, a): 1.0 for a in range(1, 5)}})
    stab = tuple(_matrix(6, {(0, 1 + a): 2.0, (1 + a, 5): 1.0}) for a in range(4))
    return _null_corner_form("M51NULL", functions, (5, 1),
                             ("x11", "u1", "u2", "u3", "u4", "x22"), gram, stab, -1.0)


def _build_m33gen(functions, p=None):
    _expect("M33GEN", functions, (6,))
    f, = functions
    if f.table is None:
        raise ValueError("M33GEN components are Hessian-derived; need a table function")
    hess = [[f.partial(i).partial(3 + j) for j in range(3)] for i in range(3)]
    h0 = np.array([[hess[i][j].value(np.zeros(6)) for j in range(3)] for i in range(3)])
    if abs(np.linalg.det(h0) - 1.0) > 1e-8:
        raise ValueError("mixed Hessian determinant differs from 1 at the probe point")

    def constraints(m, points):
        dets = (np.linalg.det([[hess[i][j].value(pt) for j in range(3)] for i in range(3)])
                for pt in points)
        return {"hessian determinant": _worst(abs(d - 1.0) for d in dets)}

    # profile 3i + j is the mixed Hessian entry f_{x_i y_j}
    cells = list(itertools.product(range(3), repeat=2))
    return _normal_form(
        "M33GEN", (3, 3), ("x1", "x2", "x3", "y1", "y2", "y3"),
        _gram(6, {(i, 3 + i): 0.5 for i in range(3)}), tuple(_gl_pair_blocks(3, 6, 0, 3)),
        functions, [(h, range(6)) for row in hess for h in row],
        [(a, b, 0.5, 3 * i + j) for i, j in cells for a, b in ((i, 3 + j), (3 + j, i))],
        [(3 + i, 3 + j, 1.0, 3 * i + j) for i, j in cells],
        comp_const=np.zeros((6, 6)), cof_const=np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        constraint_rule=constraints)


def _build_m33null(functions, p=None):
    _expect("M33NULL", functions, (6, 6, 6))
    return _paired_block_form(
        "M33NULL", functions, 2, 0, 3, 1.0, (3, 3), ("x1", "x2", "x3", "y1", "y2", "y3"),
        _gram(6, {(i, 3 + i): 0.5 for i in range(3)}), _m33null_stabilizer())


def _build_pure_odd(functions, p):
    n = _expect_block("PUREODD", functions, p, 1)
    gram = _gram(n, {(0, 0): 1.0, **{(1 + i, 1 + p + i): 1.0 for i in range(p)}})
    coords = ("z",) + tuple(f"x{i + 1}" for i in range(p)) + tuple(f"y{i + 1}" for i in range(p))
    return _paired_block_form("PUREODD", functions, p, 1, 1 + p, 2.0, (p + 1, p), coords,
                              gram, _pure_odd_stabilizer(p), p=p)


def _build_pure_even(functions, p):
    n = _expect_block("PUREEVEN", functions, p, 0)
    gram = _gram(n, {(i, p + i): 0.5 for i in range(p)})
    coords = tuple(f"x{i + 1}" for i in range(p)) + tuple(f"y{i + 1}" for i in range(p))
    return _paired_block_form("PUREEVEN", functions, p, 0, p, 1.0, (p, p), coords,
                              gram, _pure_even_stabilizer(p), p=p)


def _pure_odd_stabilizer(p: int) -> tuple[np.ndarray, ...]:
    n = 2 * p + 1
    out = [_matrix(n, {(0, 1 + k): -1.0, (1 + p + k, 0): 1.0}) for k in range(p)]
    out.extend(_gl_pair_blocks(p, n, 1, 1 + p))
    out.extend(_skew_pair_blocks(p, n, 1, 1 + p))
    return tuple(out)


def _pure_even_stabilizer(p: int) -> tuple[np.ndarray, ...]:
    return tuple(_gl_pair_blocks(p, 2 * p, 0, p) + _skew_pair_blocks(p, 2 * p, 0, p))


def _gl_pair_blocks(p: int, n: int, xoff: int, yoff: int) -> list[np.ndarray]:
    """Traceless q acting as q on the x block and -q^T on the y block."""
    out = []
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            out.append(_matrix(n, {(xoff + i, xoff + j): 1.0, (yoff + j, yoff + i): -1.0}))
    for i in range(p - 1):
        out.append(_matrix(n, {(xoff + i, xoff + i): 1.0, (xoff + i + 1, xoff + i + 1): -1.0,
                               (yoff + i, yoff + i): -1.0, (yoff + i + 1, yoff + i + 1): 1.0}))
    return out


def _skew_pair_blocks(p: int, n: int, xoff: int, yoff: int) -> list[np.ndarray]:
    """Skew s mapping the x block into the y block, one generator per pair i < j."""
    return [_matrix(n, {(yoff + i, xoff + j): 1.0, (yoff + j, xoff + i): -1.0})
            for i, j in itertools.combinations(range(p), 2)]


def _m33null_stabilizer() -> tuple[np.ndarray, ...]:
    # q runs over traceless matrices with vanishing third column; s is skew.
    qbasis = [_matrix(3, {(0, 0): 1.0, (1, 1): -1.0})]
    qbasis += [_matrix(3, {ij: 1.0}) for ij in ((0, 1), (1, 0), (2, 0), (2, 1))]
    out = []
    for q in qbasis:
        m = np.zeros((6, 6))
        m[:3, :3] = q
        m[3:, 3:] = -q.T
        out.append(m)
    return tuple(out + _skew_pair_blocks(3, 6, 0, 3))


_BUILDERS = {
    "M21": _build_m21,
    "M31": _build_m31,
    "M22GEN": _build_m22gen,
    "M22DEG": _build_m22deg,
    "M41DEG": _build_m41deg,
    "M51NULL": _build_m51null,
    "M33GEN": _build_m33gen,
    "M33NULL": _build_m33null,
    "PUREODD": _build_pure_odd,
    "PUREEVEN": _build_pure_even,
}


def _parse_family_tag(family: str, p=None):
    tag = str(family).strip().upper()
    if "(" in tag:
        base, rest = tag.split("(", 1)
        tag = base.strip()
        p = int(rest.strip(") "))
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}")
    return tag, (None if p is None else int(p))


def build_metric(family: str, functions, p=None) -> CoordinateMetric:
    """Assemble a normal-form metric from its free functions."""
    tag, p = _parse_family_tag(family, p)
    functions = tuple(functions)
    if tag == "M101":
        if len(functions) != 1:
            raise ValueError("M101 takes a single free profile")
        return build_metric_10_1(FiberFamily.identity(), functions[0])
    m = _BUILDERS[tag](functions, p)
    _check_signature(m)
    return m


def _check_signature(m: CoordinateMetric) -> None:
    g0 = m.components(np.zeros(m.n))
    if abs(np.linalg.det(g0)) <= DEGENERACY_TOL:
        raise ValueError("metric degenerate at the origin probe")
    w = np.linalg.eigvalsh(g0)
    found = (int((w > 0).sum()), int((w < 0).sum()))
    if found != m.signature:
        raise ValueError(f"{m.family} signature {found} != declared {m.signature}")


# -- curvature from jets ------------------------------------------------------


def _christoffel_arrays(G: JetMatrix):
    """Christoffel coefficients as jet arrays, shape (n, n, n, nmono)."""
    ctx = G.ctx
    n = G.shape[0]
    ginv = G.inv()
    dG = np.stack([ctx.diff_arrays(G.c, b) for b in range(n)])
    k = dG.transpose(1, 0, 2, 3) + np.einsum("cdbt->dbct", dG) - dG
    gam = 0.5 * ctx.matmul_arrays(ginv.c, k.reshape(n, n * n, -1)).reshape(n, n, n, -1)
    return gam, ctx


def christoffel_values(m: CoordinateMetric, point) -> np.ndarray:
    G = m.component_jets(point, order=1)
    _require_nondegenerate(G)
    gam, _ = _christoffel_arrays(G)
    return gam[..., 0]


def _require_nondegenerate(G: JetMatrix) -> None:
    if abs(np.linalg.det(G.value())) <= DEGENERACY_TOL:
        raise ValueError("metric degenerate at the probe point")


def ricci_numeric(m: CoordinateMetric, point) -> np.ndarray:
    """Ricci tensor from jet Christoffel symbols (round sphere positive)."""
    G = m.component_jets(point, order=2)
    _require_nondegenerate(G)
    gam, ctx = _christoffel_arrays(G)
    gv = gam[..., 0]
    dgam = np.stack([ctx.diff_arrays(gam, j)[..., 0] for j in range(m.n)])
    term1 = np.einsum("aadb->bd", dgam)
    term2 = np.einsum("daab->bd", dgam)
    contr = np.einsum("aae->e", gv)
    term3 = np.einsum("e,edb->bd", contr, gv)
    term4 = np.einsum("ade,eab->bd", gv, gv)
    return term1 - term2 + term3 - term4


def riemann_numeric(m: CoordinateMetric, point) -> np.ndarray:
    """Curvature tensor R^a_{bcd} at a point."""
    G = m.component_jets(point, order=2)
    _require_nondegenerate(G)
    gam, ctx = _christoffel_arrays(G)
    gv = gam[..., 0]
    dgam = np.stack([ctx.diff_arrays(gam, j)[..., 0] for j in range(m.n)])
    t1 = np.einsum("cadb->abcd", dgam)
    t2 = np.einsum("dacb->abcd", dgam)
    t3 = np.einsum("ace,edb->abcd", gv, gv)
    t4 = np.einsum("ade,ecb->abcd", gv, gv)
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

# Ricci is one Laplacian of the profile in one cell:
# tag -> (profile argument slice, Laplacian variables, output cell, n)
_LAPLACIAN_DISPLAYS = {
    "M31": (slice(1, 4), (0, 1), (3, 3), 4),
    "M41DEG": (slice(0, 4), (1, 2, 3), (0, 0), 5),
    "M51NULL": (slice(1, 6), range(4), (5, 5), 6),
}


def _quadratic_bracket(grid, x_vars, y_vars):
    """B_jl = f_jl,x^k y_k - f_mk f_jl,y_m y_k + f_mj,y_k f_kl,y_m (summed), pair order.

    The one quadratic bracket of both split normal forms.  It needs only
    diff, +, - and *, so ``grid`` may hold jets at a point or exact series.
    """
    p = len(grid)
    dy = [[[grid[i][j].diff(y_vars[k]) for k in range(p)] for j in range(p)]
          for i in range(p)]
    out = []
    for j, l in symmetric_pairs(p):
        total = grid[j][l].diff(x_vars[0]).diff(y_vars[0])
        for k in range(1, p):
            total = total + grid[j][l].diff(x_vars[k]).diff(y_vars[k])
        for m in range(p):
            for k in range(p):
                total = total - grid[m][k] * dy[j][l][m].diff(y_vars[k])
                total = total + dy[m][j][k] * dy[k][l][m]
        out.append(total)
    return tuple(out)


def ricci_paper(family: str, functions, point, p=None) -> np.ndarray:
    """Closed-form Ricci display for the families that have one.

    Output matches ricci_numeric; the per-family constant was calibrated
    once against the jet oracle and is frozen in RICCI_CALIBRATION.
    """
    tag, p = _parse_family_tag(family, p)
    functions = tuple(functions)
    point = np.asarray(point, dtype=float)
    if tag in ("PUREODD", "PUREEVEN", "M22DEG"):
        if tag in ("PUREODD", "PUREEVEN"):
            x0 = 1 if tag == "PUREODD" else 0
            n = _expect_block(tag, functions, p, x0)
        else:
            f, = functions
            if f.table is None:
                raise ValueError("M22DEG closed form needs a table function")
            # the display reads s_ij = f_{y_i y_j} in the chart (y1, y2) = (-v2, v1),
            # i.e. at v = (y2, -y1)
            functions = []
            for i, j in symmetric_pairs(2):
                sij = f.partial(2 + i).partial(2 + j)
                table = {(e[0], e[1], e[3], e[2]): c * (-1) ** e[2]
                         for e, c in sij.table.items()}
                functions.append(FreeFunction(4, table=table, name=f"s{i + 1}{j + 1}"))
            point = np.array([point[0], point[1], point[3], -point[2]])
            n, p, x0 = 4, 2, 0
        ctx = JetContext(len(point), 2)
        X = ctx.variables(point)
        jets = _fmatrix([fn.jet(X) for fn in functions], symmetric_pairs(p), p)
        x_vars = range(x0, x0 + p)
        y_vars = range(x0 + p, x0 + 2 * p)
        bracket = np.zeros((p, p))
        for (j, l), b in zip(symmetric_pairs(p), _quadratic_bracket(jets, x_vars, y_vars)):
            bracket[j, l] = bracket[l, j] = b.value()
        out = np.zeros((n, n))
        if tag == "PUREODD":
            zz = np.array([[jets[i][j].diff(0).diff(0).value() for j in range(p)]
                           for i in range(p)])
            out[1:1 + p, 1:1 + p] = RICCI_CALIBRATION[tag] * (zz + 2.0 * bracket)
        else:
            out[:p, :p] = RICCI_CALIBRATION[tag] * bracket
        return out
    if tag in _LAPLACIAN_DISPLAYS:
        f, = functions
        args, lap_vars, cell, n = _LAPLACIAN_DISPLAYS[tag]
        out = np.zeros((n, n))
        out[cell] = RICCI_CALIBRATION[tag] * sum(
            f.derivative(point[args], a, a) for a in lap_vars)
        return out
    raise ValueError(f"{tag} has no closed-form Ricci display")


# -- constraint reports -------------------------------------------------------


@dataclass(frozen=True)
class ConstraintReport:
    family: str
    residuals: dict
    max_residual: float
    points: int


def constraint_check(m: CoordinateMetric, points) -> ConstraintReport:
    """Per-family constraint residuals over probe points (reports, never rejects)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if m._constraint_rule is None:
        return ConstraintReport(m.family or "custom", {}, 0.0, len(points))
    residuals = m._constraint_rule(m, points)
    return ConstraintReport(m.family, dict(residuals), _worst(residuals.values()),
                            len(points))


# -- adapted coframe and connection ------------------------------------------


@dataclass(frozen=True)
class AdaptedCoframe:
    point: np.ndarray
    coframe: np.ndarray
    gram: np.ndarray
    stabilizer: tuple
    connection: np.ndarray
    membership_residual: float
    torsion_residual: float
    skew_residual: float
    gram_residual: float


def _connection_arrays(E: JetMatrix, gram: np.ndarray):
    """Levi-Civita connection A^a_{b,c} in the coframe, as jet arrays.

    Solves dtheta^a + A^a_b wedge theta^b = 0 with A metric for the constant
    Gram matrix; trusted one order below the coframe jets.
    """
    ctx = E.ctx
    n = E.shape[0]
    einv = E.inv()
    dE = np.stack([ctx.diff_arrays(E.c, j) for j in range(n)])
    t = dE.transpose(1, 0, 2, 3)
    f = t - t.transpose(0, 2, 1, 3)
    t1 = ctx.matmul_arrays(f.reshape(n * n, n, -1), einv.c).reshape(n, n, n, -1)
    t1 = np.ascontiguousarray(t1.transpose(0, 2, 1, 3)).reshape(n * n, n, -1)
    c = ctx.matmul_arrays(t1, einv.c).reshape(n, n, n, -1).transpose(0, 2, 1, 3)
    k = np.einsum("ea,apqt->epqt", gram, c)
    d = 0.5 * (k - np.einsum("bact->abct", k) - np.einsum("cabt->abct", k))
    a = np.einsum("ae,ebct->abct", np.linalg.inv(gram), d)
    return a, c


def adapted_coframe(m: CoordinateMetric, point) -> AdaptedCoframe:
    """Coframe, connection and certificate residuals at a point."""
    point = np.asarray(point, dtype=float)
    E = m.coframe_jets(point, order=1)
    try:
        a, c = _connection_arrays(E, m.gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"adapted coframe degenerate at {point}") from exc
    av = a[..., 0]
    cv = c[..., 0]
    ev = E.value()
    gram_res = float(np.abs(ev.T @ m.gram @ ev - m.components(point)).max())
    torsion = float(np.abs((av - av.transpose(0, 2, 1)) - cv).max())
    rows = m.stabilizer_rows()
    gms = [m.gram @ av[:, :, c] for c in range(m.n)]
    skew = _worst(np.abs(gm + gm.T).max() for gm in gms)
    member = _worst(projection_residual(av[:, :, c], rows) for c in range(m.n))
    return AdaptedCoframe(point, ev, m.gram, m.stabilizer, av,
                          member, torsion, skew, gram_res)


def adapted_connection_check(m: CoordinateMetric, point) -> float:
    """Distance of the adapted connection from the stabilizer subalgebra."""
    return adapted_coframe(m, point).membership_residual


# -- holonomy span ------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyEstimate:
    family: str
    span_dim: int
    stabilizer_dim: int
    generator_count: int
    sweeps: int
    membership_residual: float


def curvature_operators(m: CoordinateMetric, point) -> list[np.ndarray]:
    """Coframe curvature endomorphisms on all coordinate planes at a point."""
    point = np.asarray(point, dtype=float)
    E = m.coframe_jets(point, order=2)
    a, _ = _connection_arrays(E, m.gram)
    ctx = E.ctx
    n = m.n
    ahat = ctx.matmul_arrays(a.reshape(n * n, n, -1), E.c).reshape(n, n, n, -1)
    av = ahat[..., 0]
    dav = np.stack([ctx.diff_arrays(ahat, j)[..., 0] for j in range(n)])
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            th = (dav[i][:, :, j] - dav[j][:, :, i]
                  + av[:, :, i] @ av[:, :, j] - av[:, :, j] @ av[:, :, i])
            out.append(th)
    return out


def holonomy_span(m: CoordinateMetric, points) -> HolonomyEstimate:
    """Bracket-closed span of sampled curvature operators (cap 10 sweeps)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rows = m.stabilizer_rows()
    sdim = rows.shape[0]
    ops = []
    residuals = []
    for pt in points:
        for th in curvature_operators(m, pt):
            if not np.isfinite(th).all():
                # NaN membership fails the check; the closure's SVD would raise
                residuals.append(np.nan)
            elif np.abs(th).max() > 1e-10:
                ops.append(th)
                residuals.append(projection_residual(th, rows))
    member = _worst(residuals)
    if not ops:
        return HolonomyEstimate(m.family, 0, sdim, 0, 0, member)
    basis, sweeps = bracket_closure(ops, cap=10, label="holonomy span")
    # a span beyond the stabilizer means wrong connection or coframe data;
    # the caller's span check reports it
    return HolonomyEstimate(m.family, len(basis), sdim, len(ops), sweeps, member)


# -- formal curvature space ----------------------------------------------------


def so_basis(n: int) -> list[np.ndarray]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = -1.0
            out.append(m)
    return out


def _bianchi_matrix(mats: list[np.ndarray], n: int) -> np.ndarray:
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {pq: t for t, pq in enumerate(pairs)}
    triples = list(itertools.combinations(range(n), 3))
    rows = n * len(triples)
    cols = len(mats) * len(pairs)
    b = np.zeros((rows, cols))
    for alpha, h in enumerate(mats):
        for tix, (i, j, k) in enumerate(triples):
            base = tix * n
            b[base:base + n, alpha * len(pairs) + pidx[(i, j)]] += h[:, k]
            b[base:base + n, alpha * len(pairs) + pidx[(j, k)]] += h[:, i]
            b[base:base + n, alpha * len(pairs) + pidx[(i, k)]] -= h[:, j]
    return b


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
        pr = r + pivots[0]
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), prime - 2, prime)
        a[r] = a[r] * inv % prime
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            sel = r + 1 + below
            a[sel] = (a[sel] - np.outer(a[sel, c], a[r])) % prime
        r += 1
    return r


def curvature_space_dim(stabilizer, n: int | None = None) -> int:
    """Dimension of the formal curvature space of a matrix algebra.

    Kernel of the first Bianchi map on h tensor Lambda^2; the rank is taken
    over floats with a guard band, cross-checked by exact elimination mod a
    large prime whenever the supplied basis is integral.
    """
    mats = [np.asarray(h, dtype=float) for h in stabilizer]
    if not mats:
        return 0
    n = mats[0].shape[0] if n is None else int(n)
    rows = orthonormal_span(mats, "curvature space basis")
    m = rows.shape[0]
    if m == 0:
        return 0
    ortho = [rows[t].reshape(n, n) for t in range(m)]
    b = _bianchi_matrix(ortho, n)
    rank = guarded_rank(b, "curvature space")
    integral = (len(mats) == m
                and all(np.abs(h - np.round(h)).max() < 1e-9 for h in mats))
    if integral:
        bint = _bianchi_matrix([np.round(h).astype(np.int64) for h in mats], n)
        rank_int = _rank_mod_p(bint)
        if rank_int != rank:
            raise RuntimeError(
                f"float rank {rank} disagrees with exact rank {rank_int}")
    npairs = n * (n - 1) // 2
    return m * npairs - rank


# -- the 11-dimensional family -------------------------------------------------


class FiberFamily:
    """x3-dependent coframe on the 8-dimensional fiber.

    Entries are numbers or functions of (x3, w1..w8); each slice must be an
    invertible 8x8 matrix.
    """

    def __init__(self, entries):
        grid = []
        constant = True
        arr = np.asarray(entries, dtype=object)
        if arr.shape != (8, 8):
            raise ValueError("fiber coframe must be 8x8")
        for i in range(8):
            row = []
            for j in range(8):
                cell = arr[i, j]
                if isinstance(cell, FreeFunction):
                    if cell.arity != 9:
                        raise ValueError("fiber entries take (x3, w1..w8)")
                    row.append(cell)
                    constant = False
                else:
                    row.append(float(cell))
            grid.append(row)
        self.entries = grid
        self.constant = constant

    @classmethod
    def identity(cls) -> "FiberFamily":
        return cls(np.eye(8))

    def jets(self, x3: Jet, wjets, ctx: JetContext) -> JetMatrix:
        args = [x3] + list(wjets)
        rows = []
        for i in range(8):
            row = []
            for j in range(8):
                cell = self.entries[i][j]
                if isinstance(cell, FreeFunction):
                    row.append(cell.jet(args))
                else:
                    row.append(ctx.constant(cell))
            rows.append(row)
        return JetMatrix.from_entries(rows)

    def values(self, x3v: float, wv) -> np.ndarray:
        ctx = JetContext(9, 0)
        jets = ctx.variables(np.concatenate([[x3v], np.asarray(wv, float)]))
        return self.jets(jets[0], jets[1:], ctx).value()


def build_metric_10_1(fiber, g: FreeFunction) -> CoordinateMetric:
    """Signature (10,1) metric from a fiber coframe family and a free profile.

    The profile g may take (x2, x3), (x2, x3, w1..w8) or all eleven
    coordinates, but must not depend on x1.
    """
    if not isinstance(fiber, FiberFamily):
        fiber = FiberFamily(fiber)
    if g.arity not in (2, 10, 11):
        raise ValueError("profile takes (x2,x3), (x2,x3,w) or all coordinates")
    if g.arity == 11:
        if g.table is not None:
            if any(e[0] for e in g.table):
                raise ValueError("profile must not depend on x1")
        else:
            rng = np.random.default_rng(20260814)
            for _ in range(5):
                x = rng.uniform(-0.5, 0.5, 11)
                if abs(g.derivative(x, 0)) > 1e-9:
                    raise ValueError("profile must not depend on x1")

    def gargs(X):
        if g.arity == 2:
            return [X[1], X[2]]
        if g.arity == 10:
            return [X[1], X[2]] + list(X[3:])
        return list(X)

    def comp(X, ctx):
        e = _zeros(ctx, 11)
        e[0][2] = e[2][0] = ctx.constant(-2.0)
        e[1][1] = ctx.constant(1.0)
        e[2][2] = -4.0 * g.jet(gargs(X))
        ef = fiber.jets(X[2], X[3:], ctx)
        ete = ef.transpose() @ ef
        for a in range(8):
            for bq in range(8):
                e[3 + a][3 + bq] = ete.entry(a, bq)
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 11)
        one = ctx.constant(1.0)
        e[0][0] = one
        e[0][2] = g.jet(gargs(X))
        e[1][1] = one
        e[2][2] = one
        ef = fiber.jets(X[2], X[3:], ctx)
        for a in range(8):
            for bq in range(8):
                e[3 + a][3 + bq] = ef.entry(a, bq)
        return JetMatrix.from_entries(e)

    coords = ("x1", "x2", "x3") + tuple(f"w{a + 1}" for a in range(8))
    stab = tuple(e.rho.astype(float).copy() for e in octospin.null_stabilizer_basis())
    m = CoordinateMetric(11, (10, 1), coords, comp, family="M101",
                         functions=(g,), coframe_rule=cof,
                         gram=octospin.GRAM_10_1.copy(), stabilizer=stab,
                         fiber=fiber)
    if abs(np.linalg.det(fiber.values(0.0, np.zeros(8)))) <= DEGENERACY_TOL:
        raise ValueError("fiber coframe degenerate at the origin")
    _check_signature(m)
    return m


@lru_cache(maxsize=1)
def cayley_four_form() -> np.ndarray:
    """Invariant 4-form of the fiber stabilizer action, unit-normalized.

    Computed as the kernel of the induced action on 4-forms of the 8x8
    blocks of the null-stabilizer vector representation; the kernel is one
    dimensional and its coefficients snap to 0, +1, -1.
    """
    blocks = [e.rho[3:, 3:] for e in octospin.null_stabilizer_basis()]
    quads = list(itertools.combinations(range(8), 4))
    qidx = {q: t for t, q in enumerate(quads)}
    ops = []
    for bmat in blocks:
        if np.abs(bmat).max() == 0.0:
            continue
        op = np.zeros((len(quads), len(quads)))
        for t, quad in enumerate(quads):
            for slot in range(4):
                for s in range(8):
                    coeff = bmat[s, quad[slot]]
                    if coeff == 0.0:
                        continue
                    replaced = list(quad)
                    replaced[slot] = s
                    if len(set(replaced)) < 4:
                        continue
                    order = np.argsort(replaced)
                    sign = _perm_sign(order)
                    key = tuple(sorted(replaced))
                    op[t, qidx[key]] -= sign * coeff
        ops.append(op)
    kern = nullspace(np.vstack(ops), "invariant 4-form")
    if kern.shape[1] != 1:
        raise RuntimeError(f"invariant 4-form space has dimension {kern.shape[1]}")
    v = kern[:, 0]
    v = v / np.abs(v).max()
    lead = v[np.nonzero(np.abs(v) > 0.5)[0][0]]
    v = v * np.sign(lead)
    snapped = np.round(v)
    if np.abs(v - snapped).max() > 1e-9:
        raise RuntimeError("invariant 4-form coefficients fail to snap to integers")
    dense = np.zeros((8,) * 4)
    for t, quad in enumerate(quads):
        if snapped[t] == 0.0:
            continue
        for perm in itertools.permutations(range(4)):
            idx = tuple(quad[s] for s in perm)
            dense[idx] = _perm_sign(np.asarray(perm)) * snapped[t]
    return dense


def _perm_sign(order) -> float:
    order = list(order)
    sign = 1.0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def parallel_forms_10_1(m: CoordinateMetric) -> dict[str, np.ndarray]:
    """Constant-coefficient forms expected to be parallel (flat fiber case).

    dx3 and dx2^dx3 are always included; the 5-form dx3^Phi built from the
    invariant 4-form needs a constant fiber coframe to have constant
    coordinate components.
    """
    if m.family != "M101":
        raise ValueError("parallel-form inventory is specific to M101")
    one = np.zeros(11)
    one[2] = 1.0
    two = np.zeros((11, 11))
    two[1, 2] = 1.0
    two[2, 1] = -1.0
    out = {"dx3": one, "dx2^dx3": two}
    if m.fiber is not None and m.fiber.constant:
        phi = cayley_four_form()
        ev = m.fiber.values(0.0, np.zeros(8))
        pulled = np.einsum("abcd,ai,bj,ck,dl->ijkl", phi, ev, ev, ev, ev)
        five = np.zeros((11,) * 5)
        base = list(itertools.combinations(range(8), 4))
        for quad in base:
            coeff = pulled[quad]
            if abs(coeff) < 1e-14:
                continue
            idx5 = (2,) + tuple(3 + q for q in quad)
            for perm in itertools.permutations(range(5)):
                five[tuple(idx5[s] for s in perm)] = _perm_sign(np.asarray(perm)) * coeff
        out["dx3^Phi"] = five
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
