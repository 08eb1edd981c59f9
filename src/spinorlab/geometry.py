"""Metric normal forms carrying parallel spinors, with jet-based curvature.

Each family builder produces coordinate components as truncated Taylor
jets together with an adapted coframe whose Gram matrix is constant and
a basis of the stabilizer subalgebra the Levi-Civita connection must take
values in.  Curvature is read off the jets (Christoffel symbols, Riemann,
Ricci); closed-form Ricci displays, constraint equations, connection
membership and holonomy spans are all checked against that machinery.
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
    span_dimension,
)

DEGENERACY_TOL = 1e-8
FAMILY_TAGS = (
    "M21", "M31", "M22GEN", "M22DEG", "M41DEG", "M51NULL",
    "M33GEN", "M33NULL", "PUREODD", "PUREEVEN", "M101",
)


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
        worst = 0.0
        for v in range(self.arity):
            step = np.zeros(self.arity)
            step[v] = h
            fd = (self.value(point + step) - self.value(point - step)) / (2.0 * h)
            exact = self.derivative(point, v)
            worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
        return worst


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
        if not self.stabilizer:
            return 0
        return span_dimension(list(self.stabilizer), "stabilizer basis")

    def stabilizer_rows(self) -> np.ndarray:
        if self._stab_rows is None:
            if not self.stabilizer:
                raise ValueError("metric carries no stabilizer basis")
            self._stab_rows = orthonormal_span(list(self.stabilizer), "stabilizer basis")
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


def _expect(tag: str, functions, arities) -> None:
    if len(functions) != len(arities):
        raise ValueError(f"{tag} takes {len(arities)} functions, got {len(functions)}")
    for f, a in zip(functions, arities):
        if f.arity != a:
            raise ValueError(f"{tag} needs arity {a}, got {f.arity} ({f.name})")


def _zeros(ctx: JetContext, n: int) -> list[list[Jet]]:
    z = ctx.constant(0.0)
    return [[z for _ in range(n)] for _ in range(n)]


def _fmatrix(functions, pairs, size):
    grid = [[None] * size for _ in range(size)]
    for (i, j), f in zip(pairs, functions):
        grid[i][j] = grid[j][i] = f
    return grid


def _symmetric_divergence_rule(fgrid, size, y_vars, arg_of):
    names = [f"divergence row {i + 1}" for i in range(size)]

    def rule(m: CoordinateMetric, points) -> dict[str, float]:
        out = {name: 0.0 for name in names}
        for pt in points:
            args = arg_of(pt)
            for i in range(size):
                total = sum(fgrid[i][j].derivative(args, y_vars[j]) for j in range(size))
                out[names[i]] = max(out[names[i]], abs(total))
        return out

    return rule


def _build_m21(functions, p=None):
    _expect("M21", functions, (2,))
    f, = functions

    def comp(X, ctx):
        e = _zeros(ctx, 3)
        fj = f.jet([X[1], X[2]])
        e[0][2] = e[2][0] = ctx.constant(-0.5)
        e[1][1] = ctx.constant(1.0)
        e[2][2] = -fj
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 3)
        one = ctx.constant(1.0)
        e[0][0] = one
        e[0][2] = f.jet([X[1], X[2]])
        e[1][1] = one
        e[2][2] = one
        return JetMatrix.from_entries(e)

    gram = np.array([[0.0, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.0]])
    nil = np.zeros((3, 3))
    nil[0, 1] = 2.0
    nil[1, 2] = 1.0
    return CoordinateMetric(3, (2, 1), ("x11", "x21", "x22"), comp, family="M21",
                            functions=functions, coframe_rule=cof, gram=gram,
                            stabilizer=(nil,))


def _build_m31(functions, p=None):
    _expect("M31", functions, (3,))
    f, = functions

    def comp(X, ctx):
        e = _zeros(ctx, 4)
        fj = f.jet([X[1], X[2], X[3]])
        e[0][3] = e[3][0] = ctx.constant(-0.5)
        e[1][1] = e[2][2] = ctx.constant(1.0)
        e[3][3] = -fj
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 4)
        one = ctx.constant(1.0)
        e[0][0] = one
        e[0][3] = f.jet([X[1], X[2], X[3]])
        e[1][1] = one
        e[2][2] = one
        e[3][3] = one
        return JetMatrix.from_entries(e)

    gram = np.zeros((4, 4))
    gram[0, 3] = gram[3, 0] = -0.5
    gram[1, 1] = gram[2, 2] = 1.0
    na = np.zeros((4, 4))
    na[0, 1] = 2.0
    na[1, 3] = 1.0
    nb = np.zeros((4, 4))
    nb[0, 2] = -2.0
    nb[2, 3] = -1.0
    return CoordinateMetric(4, (3, 1), ("x11", "u", "v", "x22"), comp, family="M31",
                            functions=functions, coframe_rule=cof, gram=gram,
                            stabilizer=(na, nb))


def _build_m22gen(functions, p=None):
    _expect("M22GEN", functions, (3,))
    f, = functions

    def comp(X, ctx):
        e = _zeros(ctx, 4)
        fj = f.jet([X[1], X[2], X[3]])
        e[0][3] = e[3][0] = ctx.constant(0.5)
        e[1][2] = e[2][1] = ctx.constant(-0.5)
        e[3][3] = fj
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 4)
        one = ctx.constant(1.0)
        e[0][0] = one
        e[0][3] = f.jet([X[1], X[2], X[3]])
        e[1][1] = one
        e[2][2] = one
        e[3][3] = one
        return JetMatrix.from_entries(e)

    gram = np.zeros((4, 4))
    gram[0, 3] = gram[3, 0] = 0.5
    gram[1, 2] = gram[2, 1] = -0.5
    na = np.zeros((4, 4))
    na[0, 2] = 1.0
    na[1, 3] = 1.0
    nb = np.zeros((4, 4))
    nb[0, 1] = -1.0
    nb[2, 3] = -1.0
    return CoordinateMetric(4, (2, 2), ("x11", "x12", "x21", "x22"), comp,
                            family="M22GEN", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=(na, nb))


def _build_m22deg(functions, p=None):
    _expect("M22DEG", functions, (4,))
    f, = functions
    if f.table is None:
        raise ValueError("M22DEG components are Hessian-derived; need a table function")
    s = [[f.partial(2 + i).partial(2 + j) for j in range(2)] for i in range(2)]

    def comp(X, ctx):
        e = _zeros(ctx, 4)
        s11, s12, s22 = s[0][0].jet(X), s[0][1].jet(X), s[1][1].jet(X)
        e[0][3] = e[3][0] = ctx.constant(0.5)
        e[1][2] = e[2][1] = ctx.constant(-0.5)
        e[0][0] = s11
        e[0][1] = e[1][0] = s12
        e[1][1] = s22
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 4)
        one = ctx.constant(1.0)
        s11, s12, s22 = s[0][0].jet(X), s[0][1].jet(X), s[1][1].jet(X)
        e[0][2] = one
        e[0][0] = -s12
        e[0][1] = -s22
        e[1][3] = one
        e[1][0] = s11
        e[1][1] = s12
        e[2][0] = -one
        e[3][1] = -one
        return JetMatrix.from_entries(e)

    gram = np.zeros((4, 4))
    gram[0, 3] = gram[3, 0] = 0.5
    gram[1, 2] = gram[2, 1] = -0.5
    na = np.zeros((4, 4))
    na[0, 2] = 1.0
    na[1, 3] = 1.0
    nb11 = np.diag([-1.0, 1.0, -1.0, 1.0])
    nb12 = np.zeros((4, 4))
    nb12[1, 0] = -1.0
    nb12[3, 2] = -1.0
    nb21 = np.zeros((4, 4))
    nb21[0, 1] = -1.0
    nb21[2, 3] = -1.0
    return CoordinateMetric(4, (2, 2), ("x1", "x2", "y1", "y2"), comp,
                            family="M22DEG", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=(na, nb11, nb12, nb21))


def _build_m41deg(functions, p=None):
    _expect("M41DEG", functions, (4,))
    f, = functions

    def comp(X, ctx):
        e = _zeros(ctx, 5)
        fj = f.jet([X[0], X[1], X[2], X[3]])
        e[0][0] = -1.0 - 2.0 * fj
        e[0][4] = e[4][0] = ctx.constant(-1.0)
        e[1][1] = e[2][2] = e[3][3] = ctx.constant(1.0)
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 5)
        one = ctx.constant(1.0)
        for a in range(4):
            e[a][a] = one
        e[4][4] = one
        e[4][0] = f.jet([X[0], X[1], X[2], X[3]])
        return JetMatrix.from_entries(e)

    gram = np.zeros((5, 5))
    gram[0, 0] = -1.0
    gram[0, 4] = gram[4, 0] = -1.0
    gram[1, 1] = gram[2, 2] = gram[3, 3] = 1.0
    stab = []
    for a in (1, 2, 3):
        nmat = np.zeros((5, 5))
        nmat[a, 0] = -2.0
        nmat[4, a] = -2.0
        stab.append(nmat)
    return CoordinateMetric(5, (4, 1), ("x", "s1", "s2", "s3", "r"), comp,
                            family="M41DEG", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=tuple(stab))


def _build_m51null(functions, p=None):
    _expect("M51NULL", functions, (5,))
    f, = functions

    def comp(X, ctx):
        e = _zeros(ctx, 6)
        fj = f.jet([X[1], X[2], X[3], X[4], X[5]])
        e[0][5] = e[5][0] = ctx.constant(-0.5)
        for a in range(1, 5):
            e[a][a] = ctx.constant(1.0)
        e[5][5] = -fj
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 6)
        one = ctx.constant(1.0)
        e[0][0] = one
        e[0][5] = f.jet([X[1], X[2], X[3], X[4], X[5]])
        for a in range(1, 6):
            e[a][a] = one
        return JetMatrix.from_entries(e)

    gram = np.zeros((6, 6))
    gram[0, 5] = gram[5, 0] = -0.5
    for a in range(1, 5):
        gram[a, a] = 1.0
    stab = []
    for a in range(4):
        nmat = np.zeros((6, 6))
        nmat[0, 1 + a] = 2.0
        nmat[1 + a, 5] = 1.0
        stab.append(nmat)
    return CoordinateMetric(6, (5, 1), ("x11", "u1", "u2", "u3", "u4", "x22"), comp,
                            family="M51NULL", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=tuple(stab))


def _build_m33gen(functions, p=None):
    _expect("M33GEN", functions, (6,))
    f, = functions
    if f.table is None:
        raise ValueError("M33GEN components are Hessian-derived; need a table function")
    hess = [[f.partial(i).partial(3 + j) for j in range(3)] for i in range(3)]
    h0 = np.array([[hess[i][j].value(np.zeros(6)) for j in range(3)] for i in range(3)])
    if abs(np.linalg.det(h0) - 1.0) > 1e-8:
        raise ValueError("mixed Hessian determinant differs from 1 at the probe point")

    def comp(X, ctx):
        e = _zeros(ctx, 6)
        for i in range(3):
            for j in range(3):
                hj = 0.5 * hess[i][j].jet(X)
                e[i][3 + j] = hj
                e[3 + j][i] = hj
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 6)
        one = ctx.constant(1.0)
        for i in range(3):
            e[i][i] = one
            for k in range(3):
                e[3 + i][3 + k] = hess[i][k].jet(X)
        return JetMatrix.from_entries(e)

    gram = np.zeros((6, 6))
    gram[:3, 3:] = 0.5 * np.eye(3)
    gram[3:, :3] = 0.5 * np.eye(3)
    stab = _paired_gl_stabilizer(3, skew_part=False)

    def constraints(m, points):
        worst = 0.0
        for pt in points:
            hval = np.array([[hess[i][j].value(pt) for j in range(3)] for i in range(3)])
            worst = max(worst, abs(np.linalg.det(hval) - 1.0))
        return {"hessian determinant": worst}

    return CoordinateMetric(6, (3, 3), ("x1", "x2", "x3", "y1", "y2", "y3"), comp,
                            family="M33GEN", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=stab, constraint_rule=constraints)


def _build_m33null(functions, p=None):
    _expect("M33NULL", functions, (6, 6, 6))
    pairs = ((0, 0), (0, 1), (1, 1))
    fgrid = _fmatrix(functions, pairs, 2)

    def comp(X, ctx):
        e = _zeros(ctx, 6)
        half = ctx.constant(0.5)
        for i in range(3):
            e[i][3 + i] = e[3 + i][i] = half
        e[0][0] = fgrid[0][0].jet(X)
        e[0][1] = e[1][0] = fgrid[0][1].jet(X)
        e[1][1] = fgrid[1][1].jet(X)
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, 6)
        one = ctx.constant(1.0)
        for i in range(3):
            e[i][i] = one
            e[3 + i][3 + i] = one
        for i in range(2):
            for j in range(2):
                e[3 + i][j] = fgrid[i][j].jet(X)
        return JetMatrix.from_entries(e)

    gram = np.zeros((6, 6))
    gram[:3, 3:] = 0.5 * np.eye(3)
    gram[3:, :3] = 0.5 * np.eye(3)
    stab = _m33null_stabilizer()
    constraints = _symmetric_divergence_rule(fgrid, 2, (3, 4), lambda pt: pt)
    return CoordinateMetric(6, (3, 3), ("x1", "x2", "x3", "y1", "y2", "y3"), comp,
                            family="M33NULL", functions=functions, coframe_rule=cof,
                            gram=gram, stabilizer=stab, constraint_rule=constraints)


def _build_pure_odd(functions, p):
    if p is None or p < 1:
        raise ValueError("PUREODD needs the block size p")
    pairs = symmetric_pairs(p)
    arity = 2 * p + 1
    _expect(f"PUREODD({p})", functions, (arity,) * len(pairs))
    fgrid = _fmatrix(functions, pairs, p)
    n = 2 * p + 1

    def comp(X, ctx):
        e = _zeros(ctx, n)
        e[0][0] = ctx.constant(1.0)
        one = ctx.constant(1.0)
        fj = [[fgrid[i][j].jet(X) for j in range(p)] for i in range(p)]
        for i in range(p):
            e[1 + i][1 + p + i] = one
            e[1 + p + i][1 + i] = one
            for j in range(p):
                e[1 + i][1 + j] = 2.0 * fj[i][j]
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, n)
        one = ctx.constant(1.0)
        e[0][0] = one
        for i in range(p):
            e[1 + i][1 + i] = one
            e[1 + p + i][1 + p + i] = one
            for j in range(p):
                e[1 + p + i][1 + j] = fgrid[i][j].jet(X)
        return JetMatrix.from_entries(e)

    gram = np.zeros((n, n))
    gram[0, 0] = 1.0
    for i in range(p):
        gram[1 + i, 1 + p + i] = gram[1 + p + i, 1 + i] = 1.0
    coords = ("z",) + tuple(f"x{i + 1}" for i in range(p)) + tuple(f"y{i + 1}" for i in range(p))
    y_vars = tuple(1 + p + j for j in range(p))
    constraints = _symmetric_divergence_rule(fgrid, p, y_vars, lambda pt: pt)
    return CoordinateMetric(n, (p + 1, p), coords, comp, family="PUREODD",
                            functions=functions, p=p, coframe_rule=cof, gram=gram,
                            stabilizer=_pure_odd_stabilizer(p),
                            constraint_rule=constraints)


def _build_pure_even(functions, p):
    if p is None or p < 1:
        raise ValueError("PUREEVEN needs the block size p")
    pairs = symmetric_pairs(p)
    arity = 2 * p
    _expect(f"PUREEVEN({p})", functions, (arity,) * len(pairs))
    fgrid = _fmatrix(functions, pairs, p)
    n = 2 * p

    def comp(X, ctx):
        e = _zeros(ctx, n)
        half = ctx.constant(0.5)
        for i in range(p):
            e[i][p + i] = half
            e[p + i][i] = half
            for j in range(p):
                e[i][j] = fgrid[i][j].jet(X)
        return JetMatrix.from_entries(e)

    def cof(X, ctx):
        e = _zeros(ctx, n)
        one = ctx.constant(1.0)
        for i in range(p):
            e[i][i] = one
            e[p + i][p + i] = one
            for j in range(p):
                e[p + i][j] = fgrid[i][j].jet(X)
        return JetMatrix.from_entries(e)

    gram = np.zeros((n, n))
    for i in range(p):
        gram[i, p + i] = gram[p + i, i] = 0.5
    coords = tuple(f"x{i + 1}" for i in range(p)) + tuple(f"y{i + 1}" for i in range(p))
    y_vars = tuple(p + j for j in range(p))
    constraints = _symmetric_divergence_rule(fgrid, p, y_vars, lambda pt: pt)
    return CoordinateMetric(n, (p, p), coords, comp, family="PUREEVEN",
                            functions=functions, p=p, coframe_rule=cof, gram=gram,
                            stabilizer=_pure_even_stabilizer(p),
                            constraint_rule=constraints)


def _pure_odd_stabilizer(p: int) -> tuple[np.ndarray, ...]:
    n = 2 * p + 1
    out = []
    for k in range(p):
        m = np.zeros((n, n))
        m[0, 1 + k] = -1.0
        m[1 + p + k, 0] = 1.0
        out.append(m)
    out.extend(_gl_pair_blocks(p, n, 1, 1 + p))
    for i in range(p):
        for j in range(i + 1, p):
            m = np.zeros((n, n))
            m[1 + p + i, 1 + j] = 1.0
            m[1 + p + j, 1 + i] = -1.0
            out.append(m)
    return tuple(out)


def _pure_even_stabilizer(p: int) -> tuple[np.ndarray, ...]:
    n = 2 * p
    out = list(_gl_pair_blocks(p, n, 0, p))
    for i in range(p):
        for j in range(i + 1, p):
            m = np.zeros((n, n))
            m[p + i, j] = 1.0
            m[p + j, i] = -1.0
            out.append(m)
    return tuple(out)


def _gl_pair_blocks(p: int, n: int, xoff: int, yoff: int) -> list[np.ndarray]:
    """Traceless q acting as q on the x block and -q^T on the y block."""
    out = []
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            m = np.zeros((n, n))
            m[xoff + i, xoff + j] = 1.0
            m[yoff + j, yoff + i] = -1.0
            out.append(m)
    for i in range(p - 1):
        m = np.zeros((n, n))
        m[xoff + i, xoff + i] = 1.0
        m[xoff + i + 1, xoff + i + 1] = -1.0
        m[yoff + i, yoff + i] = -1.0
        m[yoff + i + 1, yoff + i + 1] = 1.0
        out.append(m)
    return out


def _paired_gl_stabilizer(p: int, skew_part: bool) -> tuple[np.ndarray, ...]:
    n = 2 * p
    out = list(_gl_pair_blocks(p, n, 0, p))
    if skew_part:
        for i in range(p):
            for j in range(i + 1, p):
                m = np.zeros((n, n))
                m[p + i, j] = 1.0
                m[p + j, i] = -1.0
                out.append(m)
    return tuple(out)


def _m33null_stabilizer() -> tuple[np.ndarray, ...]:
    # q runs over traceless matrices with vanishing third column; s is skew.
    out = []
    qbasis = []
    d = np.zeros((3, 3))
    d[0, 0] = 1.0
    d[1, 1] = -1.0
    qbasis.append(d)
    for i, j in ((0, 1), (1, 0), (2, 0), (2, 1)):
        q = np.zeros((3, 3))
        q[i, j] = 1.0
        qbasis.append(q)
    for q in qbasis:
        m = np.zeros((6, 6))
        m[:3, :3] = q
        m[3:, 3:] = -q.T
        out.append(m)
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((6, 6))
            m[3 + i, j] = 1.0
            m[3 + j, i] = -1.0
            out.append(m)
    return tuple(out)


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
        raise RuntimeError(f"{m.family} signature {found} != declared {m.signature}")


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
        if tag == "PUREODD":
            n = _build_pure_odd(functions, p).n
            x0 = 1
        elif tag == "PUREEVEN":
            n = _build_pure_even(functions, p).n
            x0 = 0
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
    if tag in ("M31", "M41DEG", "M51NULL"):
        f, = functions
        if tag == "M31":
            lap = f.derivative(point[1:4], 0, 0) + f.derivative(point[1:4], 1, 1)
            out = np.zeros((4, 4))
            out[3, 3] = RICCI_CALIBRATION[tag] * lap
            return out
        if tag == "M41DEG":
            args = point[0:4]
            lap = sum(f.derivative(args, a, a) for a in (1, 2, 3))
            out = np.zeros((5, 5))
            out[0, 0] = RICCI_CALIBRATION[tag] * lap
            return out
        args = point[1:6]
        lap = sum(f.derivative(args, a, a) for a in range(4))
        out = np.zeros((6, 6))
        out[5, 5] = RICCI_CALIBRATION[tag] * lap
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
    worst = max(residuals.values(), default=0.0)
    return ConstraintReport(m.family, dict(residuals), float(worst), len(points))


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
    skew = 0.0
    rows = m.stabilizer_rows()
    member = 0.0
    for cdir in range(m.n):
        mat = av[:, :, cdir]
        gm = m.gram @ mat
        skew = max(skew, float(np.abs(gm + gm.T).max()))
        member = max(member, projection_residual(mat, rows))
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
    sdim = m.stabilizer_dimension
    ops = []
    member = 0.0
    for pt in points:
        for th in curvature_operators(m, pt):
            if np.abs(th).max() > 1e-10:
                ops.append(th)
                member = max(member, projection_residual(th, rows))
    if not ops:
        return HolonomyEstimate(m.family, 0, sdim, 0, 0, member)
    basis, sweeps = bracket_closure(ops, cap=10, label="holonomy span")
    dim = len(basis)
    if dim > sdim:
        raise RuntimeError(
            f"holonomy span {dim} exceeds stabilizer dimension {sdim}; "
            "connection or coframe data is wrong")
    return HolonomyEstimate(m.family, dim, sdim, len(ops), sweeps, member)


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
