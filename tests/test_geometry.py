"""Geometry tests: family builders, jet curvature, connections, holonomy."""

import itertools
import json
import math
import zlib
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinorlab import geometry, jets, octospin
from spinorlab.geometry import (
    FAMILY_TAGS,
    RICCI_CALIBRATION,
    adapted_coframe,
    build_metric,
    constraint_check,
    curvature_space_dim,
    custom_metric,
    divergence_free_draw,
    function_from_spec,
    holonomy_span,
    invariant_forms,
    metric_from_spec,
    parallel_form_residual,
    parallel_forms_10_1,
    probe_points,
    quadratic_profile_functions,
    random_polynomial,
    ricci_numeric,
    ricci_paper,
    riemann_numeric,
    so_basis,
    symmetric_pairs,
)
from spinorlab.jets import Jet, JetContext, JetSeries, shared_context
from spinorlab.linalg import guarded_rank, nullspace, orthonormal_span


def _rng(name, salt=0):
    return np.random.default_rng(zlib.crc32(repr((name, salt)).encode()))


def _generic(family, salt=0, p=None):
    """Generic metric of a family with a seeded random profile draw."""
    rng = _rng(family, salt)
    if family == "M21":
        return build_metric(family, [random_polynomial(2, rng, degree=3, scale=0.4)])
    if family == "M31":
        return build_metric(family, [random_polynomial(3, rng, degree=3, scale=0.4)])
    if family == "M22GEN":
        return build_metric(family, [random_polynomial(3, rng, degree=3, scale=0.4)])
    if family == "M22DEG":
        return build_metric(family, [random_polynomial(4, rng, degree=4, scale=0.2)])
    if family == "M41DEG":
        return build_metric(family, [random_polynomial(4, rng, degree=3, scale=0.3)])
    if family == "M51NULL":
        return build_metric(family, [random_polynomial(5, rng, degree=3, scale=0.3)])
    if family == "M33GEN":
        table = {}
        for i in range(3):
            e = [0] * 6
            e[i] += 1
            e[3 + i] += 1
            table[tuple(e)] = 1.0
        table[(2, 0, 0, 0, 3, 0)] = 0.35
        table[(1, 2, 0, 0, 0, 2)] = -0.27
        return build_metric(family, [JetSeries(6, 5, table)])
    if family == "M33NULL":
        fs = divergence_free_draw(2, 6, (3, 4), rng, degree=3, scale=0.4)
        return build_metric(family, fs)
    if family == "PUREODD":
        fs = divergence_free_draw(p, 2 * p + 1, tuple(1 + p + j for j in range(p)),
                                  rng, degree=3, scale=0.3)
        return build_metric(family, fs, p=p)
    if family == "PUREEVEN":
        fs = divergence_free_draw(p, 2 * p, tuple(p + j for j in range(p)),
                                  rng, degree=3, scale=0.3)
        return build_metric(family, fs, p=p)
    if family == "M101":
        g = JetSeries(2, 3, {(1, 0): 0.4, (0, 1): -0.3, (2, 0): 0.6,
                             (1, 1): 0.2, (0, 2): -0.5, (2, 1): 0.15})
        return build_metric(family, [g])
    raise ValueError(family)


GENERIC_CASES = [
    ("M21", None), ("M31", None), ("M22GEN", None), ("M22DEG", None),
    ("M41DEG", None), ("M51NULL", None), ("M33GEN", None), ("M33NULL", None),
    ("PUREODD", 2), ("PUREODD", 3), ("PUREEVEN", 2), ("PUREEVEN", 3),
    ("M101", None),
]


# ---------------------------------------------------------------------------
# Free functions


def _fd_gradient_residual(f, point):
    """Max mismatch between jet first partials and central differences (NaN if any is)."""
    h = 1e-6
    point = np.asarray(point, dtype=float)
    mismatches = []
    for v in range(f.nvars):
        step = np.zeros(f.nvars)
        step[v] = h
        fd = (f.evaluate(point + step) - f.evaluate(point - step)) / (2.0 * h)
        exact = _derivative(f, point, v)
        mismatches.append(abs(fd - exact) / max(1.0, abs(exact)))
    return float(np.max(mismatches))


def _derivative(f, point, *vars_):
    """Mixed partial derivative of a profile at ``point``, read off its jet."""
    ctx = shared_context(f.nvars, max(len(vars_), 1))
    return f.jet(ctx, point, range(f.nvars)).derivative_value(*vars_)


class TestFreeFunction:
    def test_table_evaluation(self):
        f = JetSeries(2, 2, {(2, 0): 3.0, (1, 1): -1.0, (0, 0): 0.5})
        assert f.evaluate([2.0, 5.0]) == pytest.approx(12.0 - 10.0 + 0.5)

    def test_derivative_matches_finite_differences(self):
        rng = _rng("fd")
        for salt in range(4):
            f = random_polynomial(3, rng, degree=4, scale=0.7)
            pt = rng.uniform(-1, 1, 3)
            assert _fd_gradient_residual(f, pt) < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fd_gradient_keeps_nan(self):
        # the x difference is inf - inf; it must not read as a zero mismatch
        f = JetSeries(2, 3, {(3, 0): 1e308, (0, 1): 1.0})
        assert np.isnan(_fd_gradient_residual(f, np.array([5.0, 0.0])))

    def test_partial_is_exact(self):
        f = JetSeries(2, 4, {(3, 1): 2.0, (0, 2): 1.0})
        fx = f.diff(0)
        assert fx.table == {(2, 1): 6.0}
        assert f.diff(1).table == {(3, 0): 2.0, (0, 1): 2.0}

    def test_mixed_partials_commute(self):
        f = JetSeries(2, 4, {(2, 2): 1.0, (3, 1): -0.5})
        pt = [0.7, -0.4]
        assert _derivative(f, pt, 0, 1) == pytest.approx(_derivative(f, pt, 1, 0))

    def test_argument_count_checked(self):
        f = JetSeries(2, 1, {(1, 0): 1.0})
        ctx = JetContext(3, 1)
        with pytest.raises(ValueError):
            f.jet(ctx, np.zeros(3), range(3))

    def test_point_size_checked(self):
        f = JetSeries(2, 1, {(1, 0): 1.0})
        with pytest.raises(ValueError):
            f.jet(JetContext(3, 1), np.zeros(2), (0, 1))


def _exact_jet(f: JetSeries, ctx: JetContext, point, variables) -> np.ndarray:
    """The coefficients in ``ctx`` of f at y_i = p_v + x_v, v = ``variables[i]``, exactly.

    p_v is the float coordinate read as a Fraction; the terms are exact
    JetSeries products of the shifted arguments, rounded once at the end.
    """
    origin = (0,) * ctx.nvars

    def shifted(v):
        unit = tuple(int(u == v) for u in range(ctx.nvars))
        return JetSeries(ctx.nvars, ctx.order, {origin: Fraction(point[v]), unit: 1})

    args = [shifted(v) for v in variables]
    total = JetSeries.zero(ctx.nvars, ctx.order)
    for exps, coeff in f.terms.items():
        term = JetSeries(ctx.nvars, ctx.order, {origin: coeff})
        for arg, e in zip(args, exps):
            for _ in range(e):
                term = term * arg
        total = total + term
    return np.array([float(total.coefficient(e)) for e in ctx.monomials])


# Argument maps of the call sites: all coordinates, the null-corner slice
# x_2..x_n, M101's (x2, x3) among eleven, and a non-contiguous subset.
ARGUMENT_MAPS = {
    "identity": (4, (0, 1, 2, 3)),
    "null-corner": (5, (1, 2, 3, 4)),
    "M101 (x2, x3)": (11, (1, 2)),
    "non-contiguous": (6, (0, 2, 5)),
}


@st.composite
def _table_at_point(draw, arity):
    exps = st.tuples(*[st.integers(0, 3)] * arity).filter(lambda e: sum(e) <= 5)
    exact = draw(st.booleans())
    coeff = (st.fractions(min_value=-20, max_value=20, max_denominator=12) if exact
             else st.floats(-20, 20, allow_subnormal=False))
    table = draw(st.dictionaries(exps, coeff, max_size=12))
    point = draw(st.lists(st.floats(-2, 2, allow_subnormal=False),
                          min_size=arity, max_size=arity))
    return table, point


class TestTaylorShift:
    """JetSeries.jet at a point against the exact expansion of the shifted arguments."""

    @pytest.mark.parametrize("argmap", list(ARGUMENT_MAPS))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(order=st.integers(0, 3), data=st.data())
    def test_shift_matches_product_oracle(self, argmap, order, data):
        nvars, variables = ARGUMENT_MAPS[argmap]
        table, values = data.draw(_table_at_point(len(variables)))
        point = np.zeros(nvars)
        point[list(variables)] = values
        ctx = JetContext(nvars, order)
        f = JetSeries(len(variables), 5, table)
        got, want = f.jet(ctx, point, variables), _exact_jet(f, ctx, point, variables)
        # scale: the same expansion with every coefficient and value made positive
        size = JetSeries(len(variables), 5, {e: abs(c) for e, c in table.items()})
        scale = _exact_jet(size, ctx, np.abs(point), variables)
        assert got.ctx.order == order
        assert np.all(np.abs(got.c - want) <= 1e-12 * scale + np.finfo(float).tiny)

    def test_repeated_variable(self):
        # f(x, x) sums the shifted coefficients of both arguments
        f = JetSeries(2, 3, {(2, 1): 1.0, (1, 0): -3.0})
        ctx = JetContext(1, 3)
        got, want = f.jet(ctx, [0.7], (0, 0)), _exact_jet(f, ctx, [0.7], (0, 0))
        assert np.allclose(got.c, want, rtol=1e-14, atol=1e-14)

    def test_degree_sets_no_table_size(self):
        # y^(10^6) at y = 1 + x has Taylor coefficients binom(10^6, b)
        f = JetSeries(1, 10**6, {(10**6,): 1})
        assert f.jet(JetContext(1, 2), [1.0], (0,)).c.tolist() == [1.0, 1e6, 499999500000.0]

    def test_shift_data_stays_with_its_function(self):
        # functions built and dropped in turn reuse object ids; each must
        # still be expanded from its own table
        ctx = JetContext(2, 2)
        ids = []
        for i in range(20):
            f = JetSeries(2, 3, {(i % 3 + 1, 0): i + 1.0, (0, i % 2 + 1): 0.5})
            got, want = f.jet(ctx, [0.3, -0.2], (0, 1)), _exact_jet(f, ctx, [0.3, -0.2], (0, 1))
            assert np.allclose(got.c, want, rtol=1e-14, atol=1e-14)
            ids.append(id(f))
            del f
        assert len(set(ids)) < len(ids)  # CPython hands freed ids out again

    def test_m22deg_display_on_fresh_functions(self):
        # each metric builds its display's re-charted s_ij functions afresh
        for salt in range(4):
            m = _generic("M22DEG", salt=salt)
            for pt in probe_points(m, 30 + salt, count=2):
                num = ricci_numeric(m, pt)
                form = ricci_paper(m, pt)
                assert np.abs(num - form).max() / max(1.0, np.abs(num).max()) < 1e-9


class TestProfileDraws:
    @pytest.mark.parametrize("size,arity,y_vars", [
        (2, 4, (2, 3)),
        (2, 5, (3, 4)),
        (3, 7, (4, 5, 6)),
    ])
    def test_divergence_free_draw_satisfies_constraint(self, size, arity, y_vars):
        rng = _rng("draw", arity)
        fs = divergence_free_draw(size, arity, y_vars, rng)
        pairs = symmetric_pairs(size)
        grid = {}
        for (i, j), f in zip(pairs, fs):
            grid[(i, j)] = grid[(j, i)] = f
        pt = rng.uniform(-0.7, 0.7, arity)
        for i in range(size):
            total = sum(_derivative(grid[(i, j)], pt, y_vars[j]) for j in range(size))
            assert abs(total) < 1e-12

    @pytest.mark.parametrize("seed", [90, 7, 1])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("extra", [0, 1], ids=["even", "odd"])
    def test_draw_divergence_vanishes_to_rounding(self, seed, p, extra):
        # the exact divergence of the float tables is a nonzero polynomial
        # (largest coefficient 1e-16 to 6e-16 on these draws): it is zero
        # only to rounding, which this bound freezes
        arity = 2 * p + extra
        y_vars = tuple(arity - p + j for j in range(p))
        fs = divergence_free_draw(p, arity, y_vars, np.random.default_rng(seed),
                                  degree=3, scale=0.3)
        grid = geometry._fmatrix(fs, symmetric_pairs(p), p)
        for i in range(p):
            div = grid[i][0].diff(y_vars[0])
            for j in range(1, p):
                div = div + grid[i][j].diff(y_vars[j])
            assert div.max_abs() < 1e-14

    def test_quadratic_profile_rejects_bad_trace(self):
        h4 = np.zeros((2, 2, 2, 2))
        h4[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            quadratic_profile_functions(h4, np.zeros((2, 2)))

    def test_quadratic_profile_tables(self):
        h4 = np.zeros((2, 2, 2, 2))
        h4[0, 1, 0, 1] = h4[1, 0, 0, 1] = h4[0, 1, 1, 0] = h4[1, 0, 1, 0] = 1.0
        h4[0, 0, 0, 0] = -1.0
        h4[1, 1, 1, 1] = -1.0
        h2 = np.array([[1.0, 2.0], [2.0, -1.0]])
        fs = quadratic_profile_functions(h4, h2)
        # f_11 = -y1^2/2 + z^2/2 in variables (z, x1, x2, y1, y2)
        assert fs[0].table == {(2, 0, 0, 0, 0): 0.5, (0, 0, 0, 2, 0): -0.5}
        # f_12 = y1 y2 + z^2
        assert fs[1].table == {(2, 0, 0, 0, 0): 1.0, (0, 0, 0, 1, 1): 1.0}


# ---------------------------------------------------------------------------
# Curvature oracles


def _one(n, order=0):
    """The constant 1 as a series in n variables, trusted to ``order``."""
    return JetSeries(n, order, {(0,) * n: 1})


def _sphere(eps=1):
    """The polynomial surface g = dx^2 + eps (1 - x^2)^2 dy^2, Riemannian or Lorentzian.

    For |x| < 1 its curvature is K = 2 / (1 - x^2) > 0 in both signs: Ric = K g
    and R^x_{yxy} = K g_yy.
    """
    warp = JetSeries(2, 4, {(0, 0): eps, (2, 0): -2 * eps, (4, 0): eps})
    return custom_metric(2, (2, 0) if eps > 0 else (1, 1), ("x", "y"),
                         {(0, 0): _one(2), (1, 1): warp})


def _sphere_curvature(pt):
    return 2.0 / (1.0 - pt[0] ** 2)


class TestCurvatureOracles:
    def test_round_sphere_ricci_is_positive(self):
        # Ric = K g with K > 0; the Lorentzian sign pins the convention too
        for eps in (1, -1):
            m = _sphere(eps)
            for pt in ([0.4, 0.2], [-0.9, 0.3], [0.6, -1.7]):
                pt = np.array(pt)
                want = _sphere_curvature(pt) * m.components(pt)
                assert np.abs(ricci_numeric(m, pt) - want).max() < 1e-12 * _sphere_curvature(pt)

    def test_sphere_sectional_curvature_one(self):
        # R^x_{yxy} = K g_yy, K = 2 / (1 - x^2) the sectional curvature
        for eps in (1, -1):
            m = _sphere(eps)
            pt = np.array([0.8, -0.1])
            r = riemann_numeric(m, pt)
            assert r[0, 1, 0, 1] == pytest.approx(_sphere_curvature(pt) * m.components(pt)[1, 1])

    def test_ricci_matches_finite_differences(self):
        rng = _rng("fd-ricci")
        fs = [random_polynomial(3, rng, degree=2, scale=0.1) for _ in range(6)]
        m = custom_metric(3, (3, 0), ("a", "b", "c"),
                          {(i, j): fs[k] + _one(3, 2) if i == j else fs[k]
                           for k, (i, j) in enumerate(symmetric_pairs(3))})
        pt = np.array([0.11, -0.07, 0.19])
        h = 1e-4
        gam0 = geometry.christoffel_values(m, pt)
        dgam = np.zeros((3, 3, 3, 3))
        for a in range(3):
            step = np.zeros(3)
            step[a] = h
            dgam[a] = (geometry.christoffel_values(m, pt + step)
                       - geometry.christoffel_values(m, pt - step)) / (2 * h)
        fd = (np.einsum("aadb->bd", dgam) - np.einsum("daab->bd", dgam)
              + np.einsum("e,edb->bd", np.einsum("aae->e", gam0), gam0)
              - np.einsum("ade,eab->bd", gam0, gam0))
        assert np.abs(ricci_numeric(m, pt) - fd).max() < 1e-6

    def test_degenerate_point_rejected(self):
        # diag(a, 1) is degenerate at a = 0
        m = custom_metric(2, (2, 0), ("a", "b"),
                          {(0, 0): JetSeries(2, 1, {(1, 0): 1}), (1, 1): _one(2)})
        with pytest.raises(ValueError):
            ricci_numeric(m, np.zeros(2))


class TestCustomMetric:
    def test_absent_cell_is_zero_and_off_diagonal_cell_mirrors(self):
        m = custom_metric(3, (3, 0), ("a", "b", "c"),
                          {(0, 0): _one(3), (0, 2): JetSeries(3, 1, {(1, 0, 0): 1}),
                           (1, 1): _one(3), (2, 2): _one(3)})
        g = m.components(np.array([0.25, 0.5, -0.75]))
        assert np.array_equal(g, [[1.0, 0.0, 0.25], [0.0, 1.0, 0.0], [0.25, 0.0, 1.0]])

    @pytest.mark.parametrize("key", [(1, 0), (0, 2), (2, 2), (-1, 0)])
    def test_key_outside_the_upper_triangle_refused(self, key):
        with pytest.raises(ValueError, match="is not a cell i <= j < 2"):
            custom_metric(2, (2, 0), ("a", "b"), {(0, 0): _one(2), key: _one(2)})

    @pytest.mark.parametrize("value", [_one(3), 1.0, "1"], ids=["nvars", "float", "string"])
    def test_value_that_is_not_a_series_in_n_variables_refused(self, value):
        with pytest.raises(ValueError, match="must be a JetSeries in 2 variables"):
            custom_metric(2, (2, 0), ("a", "b"), {(0, 0): _one(2), (1, 1): value})

    def test_empty_table_refused(self):
        with pytest.raises(ValueError, match="at least one component"):
            custom_metric(2, (2, 0), ("a", "b"), {})


# ---------------------------------------------------------------------------
# Family builders


class TestFamilyBuilders:
    def test_metric_jets_take_all_points_at_once(self, monkeypatch):
        # no metric, normal form or custom, goes point by point: a batch of
        # points costs the JetSeries.jet calls of one point, one per polynomial
        calls = []
        jet = JetSeries.jet
        monkeypatch.setattr(JetSeries, "jet", lambda f, *args: calls.append(f) or jet(f, *args))
        metrics = [_generic(family, p=p) for family, p in GENERIC_CASES] + [_sphere(-1)]
        for m in metrics:
            pts = probe_points(m, 5, count=3)
            routines = [m.component_jets] if m.form is None else [m.component_jets, m.coframe_jets]
            for routine in routines:
                counts = []
                for points in (pts[0], pts):
                    calls.clear()
                    routine(points, 2)
                    counts.append(len(calls))
                assert counts[0] == counts[1] == len(set(map(id, calls)))

    @pytest.mark.parametrize("family,p", GENERIC_CASES)
    def test_signature_and_gram(self, family, p):
        m = _generic(family, p=p)
        g0 = m.components(np.zeros(m.n))
        w = np.linalg.eigvalsh(g0)
        assert (int((w > 0).sum()), int((w < 0).sum())) == m.signature
        for pt in probe_points(m, 3, count=3):
            ev = m.coframe_jets(pt, order=0).value()
            assert np.abs(ev.T @ m.gram @ ev - m.components(pt)).max() < 1e-12

    @pytest.mark.parametrize("family,p", GENERIC_CASES)
    def test_connection_lies_in_stabilizer(self, family, p):
        m = _generic(family, p=p)
        for pt in probe_points(m, 5, count=5):
            ac = adapted_coframe(m, pt)
            assert ac.membership_residual < 1e-9
            assert ac.torsion_residual < 1e-9
            assert ac.skew_residual < 1e-9
            assert ac.gram_residual < 1e-9

    @pytest.mark.parametrize("family,p", GENERIC_CASES)
    def test_stabilizer_is_g_skew(self, family, p):
        m = _generic(family, p=p)
        for h in m.stabilizer:
            gh = m.gram @ h
            assert np.abs(gh + gh.T).max() < 1e-9

    @pytest.mark.parametrize("family,p,dim", [
        ("M21", None, 1), ("M31", None, 2), ("M22GEN", None, 2),
        ("M22DEG", None, 4), ("M41DEG", None, 3), ("M51NULL", None, 4),
        ("M33GEN", None, 8), ("M33NULL", None, 8),
        ("PUREODD", 2, 6), ("PUREODD", 3, 14),
        ("PUREEVEN", 2, 4), ("PUREEVEN", 3, 11),
        ("M101", None, 30),
    ])
    def test_stabilizer_dimension(self, family, p, dim):
        assert _generic(family, p=p).stabilizer_dimension == dim

    @pytest.mark.parametrize("family,p,distinct", [
        ("PUREODD", 3, 6), ("PUREEVEN", 3, 6), ("M33NULL", None, 3), ("M101", None, 1),
        ("M33GEN", None, 9),
    ])
    def test_each_profile_evaluated_once(self, family, p, distinct, monkeypatch):
        m = _generic(family, p=p)
        calls = []
        jet = JetSeries.jet
        monkeypatch.setattr(JetSeries, "jet",
                            lambda f, *args: calls.append(f) or jet(f, *args))
        point = np.full(m.n, 0.1)
        for jets in (m.component_jets, m.coframe_jets):
            calls.clear()
            jets(point, order=1)
            assert len(calls) == len(set(map(id, calls))) == distinct
        # the divergence rows of a paired block share one expansion per profile,
        # taken at both points at once; M101 has no constraint rule
        calls.clear()
        constraint_check(m, [point, -point])
        assert len(calls) == len(set(map(id, calls))) == (0 if family == "M101" else distinct)

    def test_wrong_function_count_rejected(self):
        for family, count, arity in [("M31", 0, 4), ("M33NULL", 1, 6),
                                     ("M101", 0, 2), ("M101", 2, 2)]:
            with pytest.raises(ValueError):
                build_metric(family, [JetSeries.zero(arity, 0)] * count)

    def test_wrong_arity_rejected(self):
        for family, arity in [("M21", 5), ("M101", 3)]:
            with pytest.raises(ValueError):
                build_metric(family, [JetSeries.zero(arity, 0)])

    def test_block_size_required_for_pure_families(self):
        with pytest.raises(ValueError):
            build_metric("PUREODD", [JetSeries.zero(5, 0)] * 3)

    def test_parenthesized_tag_is_unknown(self):
        # the block size is spelled only as p
        with pytest.raises(ValueError, match="unknown family"):
            build_metric("PUREODD(2)", [JetSeries.zero(5, 0)] * 3)
        with pytest.raises(ValueError, match="unknown family"):
            build_metric("PUREODD(1)", [JetSeries.zero(5, 0)] * 3, p=2)
        m = build_metric("PUREODD", [JetSeries.zero(5, 0)] * 3, p=2)
        assert m.p == 2 and m.n == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_metric("M99", [])

    def test_m33gen_rejects_wrong_hessian_determinant(self):
        table = {}
        for i in range(3):
            e = [0] * 6
            e[i] += 1
            e[3 + i] += 1
            table[tuple(e)] = 2.0
        with pytest.raises(ValueError):
            build_metric("M33GEN", [JetSeries(6, 2, table)])


# ---------------------------------------------------------------------------
# Flatness criteria


class TestFlatnessCriteria:
    def test_m21_flat_iff_profile_linear_in_middle_coordinate(self):
        lin = JetSeries(2, 2, {(0, 0): 0.3, (1, 0): 0.7, (0, 1): -0.2, (0, 2): 0.5})
        m = build_metric("M21", [lin])
        pt = np.array([0.1, 0.2, -0.3])
        assert np.abs(riemann_numeric(m, pt)).max() < 1e-10
        quad = JetSeries(2, 2, {(2, 0): 1.0})
        m = build_metric("M21", [quad])
        assert np.abs(riemann_numeric(m, pt)).max() > 0.1

    def test_m22gen_flat_iff_no_mixed_cross_derivative(self):
        sep = JetSeries(3, 3, {(2, 0, 0): 0.7, (0, 0, 3): 0.4,
                               (1, 0, 1): -0.3, (0, 1, 1): 0.5})
        m = build_metric("M22GEN", [sep])
        for pt in probe_points(m, 8, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() < 1e-10
        cross = JetSeries(3, 2, {(1, 1, 0): 1.0})
        m = build_metric("M22GEN", [cross])
        assert np.abs(ricci_numeric(m, np.zeros(4))).max() > 0.1

    def test_m33gen_unimodular_hessian_implies_ricci_flat(self):
        m = _generic("M33GEN")
        flat_pt = None
        for pt in probe_points(m, 9, count=4):
            assert np.abs(ricci_numeric(m, pt)).max() < 1e-10
            flat_pt = pt
        # curvature itself does not vanish: a genuinely non-flat example
        assert np.abs(riemann_numeric(m, flat_pt)).max() > 1e-3

    @pytest.mark.parametrize("family,harmonic,witness", [
        ("M31",
         {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (1, 1, 1): 0.5},
         {(2, 0, 0): 1.0, (0, 2, 0): 1.0}),
        ("M41DEG",
         {(0, 2, 0, 0): 1.0, (0, 0, 2, 0): -1.0, (2, 1, 0, 1): 0.3},
         {(0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}),
        ("M51NULL",
         {(2, 0, 0, 0, 0): 1.0, (0, 2, 0, 0, 0): 1.0, (0, 0, 2, 0, 0): -1.0,
          (0, 0, 0, 2, 0): -1.0, (1, 0, 0, 1, 1): 0.4},
         {(2, 0, 0, 0, 0): 1.0, (0, 2, 0, 0, 0): 1.0}),
    ])
    def test_ricci_flat_iff_profile_harmonic(self, family, harmonic, witness):
        arity = len(next(iter(harmonic)))
        m = build_metric(family, [JetSeries(arity, 4, harmonic)])
        for pt in probe_points(m, 10, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() < 1e-8
        m = build_metric(family, [JetSeries(arity, 4, witness)])
        for pt in probe_points(m, 11, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() > 0.1


# ---------------------------------------------------------------------------
# Derived jets at the order their reader uses


def _full_diff(ctx, c, var):
    """Partial derivative of a ``ctx`` jet, padded with zeros back to ``ctx``'s length."""
    d = ctx.diff_arrays(c, var)
    return np.concatenate([d, np.zeros(d.shape[:-1] + (ctx.nmono - d.shape[-1],))], axis=-1)


def _full_christoffel(m, pt, order):
    """Γ as a jet of the metric's own ``order`` context, truncated nowhere."""
    G = m.component_jets(pt, order=order)
    ctx, n = G.ctx, m.n
    ginv = G.inv()
    dG = np.stack([_full_diff(ctx, G.c, b) for b in range(n)])
    k = dG.transpose(1, 0, 2, 3) + np.einsum("cdbt->dbct", dG) - dG
    return 0.5 * ctx.matmul_arrays(ginv.c, k.reshape(n, n * n, -1)).reshape(n, n, n, -1)


def _full_connection(E, gram):
    """Connection A in the coframe's own context, truncated nowhere."""
    ctx, n = E.ctx, E.shape[0]
    einv = E.inv()
    dE = np.stack([_full_diff(ctx, E.c, j) for j in range(n)])
    t = dE.transpose(1, 0, 2, 3)
    f = t - t.transpose(0, 2, 1, 3)
    t1 = ctx.matmul_arrays(f.reshape(n * n, n, -1), einv.c).reshape(n, n, n, -1)
    t1 = np.ascontiguousarray(t1.transpose(0, 2, 1, 3)).reshape(n * n, n, -1)
    c = ctx.matmul_arrays(t1, einv.c).reshape(n, n, n, -1).transpose(0, 2, 1, 3)
    k = np.einsum("ea,apqt->epqt", gram, c)
    d = 0.5 * (k - np.einsum("bact->abct", k) - np.einsum("cabt->abct", k))
    return np.einsum("ae,ebct->abct", np.linalg.inv(gram), d)


def _full_curvature_operators(m, pt):
    E = m.coframe_jets(pt, order=2)
    ctx, n = E.ctx, m.n
    a = _full_connection(E, m.gram)
    ahat = ctx.matmul_arrays(a.reshape(n * n, n, -1), E.c).reshape(n, n, n, -1)
    av = ahat[..., 0]
    dav = np.stack([ctx.diff_arrays(ahat, j)[..., 0] for j in range(n)])
    return [dav[i][:, :, j] - dav[j][:, :, i]
            + av[:, :, i] @ av[:, :, j] - av[:, :, j] @ av[:, :, i]
            for i in range(n) for j in range(i + 1, n)]


class TestTruncatedDerivedJets:
    """Each derived jet, formed in the context its reader needs, equals the
    same read-out of the jet formed one order higher, bit for bit."""

    @pytest.mark.parametrize("family,p", GENERIC_CASES)
    def test_matches_full_order_jets(self, family, p):
        m = _generic(family, salt=5, p=p)
        for pt in probe_points(m, 5, count=3):
            gam = _full_christoffel(m, pt, 2)
            ctx2 = shared_context(m.n, 2)
            dgam = np.stack([ctx2.diff_arrays(gam, j)[..., 0] for j in range(m.n)])
            gv, dgv = geometry._curvature_parts(m, pt)
            assert np.array_equal(gv, gam[..., 0]) and np.array_equal(dgv, dgam)
            assert np.array_equal(geometry.christoffel_values(m, pt),
                                  _full_christoffel(m, pt, 1)[..., 0])
            assert np.array_equal(geometry.curvature_operators(m, pt),
                                  np.stack(_full_curvature_operators(m, pt)))
            full = _full_connection(m.coframe_jets(pt, order=1), m.gram)
            assert np.array_equal(adapted_coframe(m, pt).connection, full[..., 0])

    @pytest.mark.parametrize("family,p", [("M22DEG", None), ("PUREEVEN", 3), ("M101", None)])
    def test_no_order_two_products(self, family, p, monkeypatch):
        m = _generic(family, salt=5, p=p)
        orders = []
        matmul, inv = JetContext.matmul_arrays, Jet.inv
        monkeypatch.setattr(JetContext, "matmul_arrays",
                            lambda ctx, a, b: orders.append(ctx.order) or matmul(ctx, a, b))
        monkeypatch.setattr(Jet, "inv", lambda jet: orders.append(jet.ctx.order) or inv(jet))
        pt = probe_points(m, 5, count=1)[0]
        geometry._curvature_parts(m, pt)
        geometry.curvature_operators(m, pt)
        assert orders and max(orders) == 1
        orders.clear()
        geometry.christoffel_values(m, pt)
        adapted_coframe(m, pt)
        assert orders and max(orders) == 0


# ---------------------------------------------------------------------------
# Displayed connection forms


class TestDisplayedConnections:
    def _connection_values(self, m, pt):
        a, _, _ = geometry._connection_arrays(m.coframe_jets(pt, order=1), m.gram)
        return a[..., 0]

    def test_m21_display(self):
        m = _generic("M21")
        f = m.functions[0]
        for pt in probe_points(m, 12, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((3, 3, 3))
            closed[:, :, 2] = 0.5 * _derivative(f, pt[1:], 0) * m.stabilizer[0]
            assert np.abs(av - closed).max() < 1e-12

    def test_m31_display(self):
        m = _generic("M31")
        f = m.functions[0]
        for pt in probe_points(m, 13, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((4, 4, 4))
            closed[:, :, 3] = (0.5 * _derivative(f, pt[1:], 0) * m.stabilizer[0]
                               - 0.5 * _derivative(f, pt[1:], 1) * m.stabilizer[1])
            assert np.abs(av - closed).max() < 1e-12

    def test_m22gen_display(self):
        m = _generic("M22GEN")
        f = m.functions[0]
        for pt in probe_points(m, 14, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((4, 4, 4))
            closed[:, :, 3] = (_derivative(f, pt[1:], 1) * m.stabilizer[0]
                               - _derivative(f, pt[1:], 0) * m.stabilizer[1])
            assert np.abs(av - closed).max() < 1e-12

    def test_m41deg_display(self):
        m = _generic("M41DEG")
        f = m.functions[0]
        for pt in probe_points(m, 15, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((5, 5, 5))
            for a in range(3):
                closed[:, :, 0] -= 0.5 * _derivative(f, pt[:4], 1 + a) * m.stabilizer[a]
            assert np.abs(av - closed).max() < 1e-12

    def test_m51null_display(self):
        m = _generic("M51NULL")
        f = m.functions[0]
        for pt in probe_points(m, 16, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((6, 6, 6))
            for a in range(4):
                closed[:, :, 5] += 0.5 * _derivative(f, pt[1:], a) * m.stabilizer[a]
            assert np.abs(av - closed).max() < 1e-12

    def test_pure_odd_display(self):
        # blocks per coframe direction dx^k:
        #   phi^i_j = -f_{jk,y_i},  tau_i = f_{ik,z},
        #   sigma_ij = f_{ik,x^j} - f_{jk,x^i} + f_il f_{jk,y_l} - f_jl f_{ik,y_l}
        p = 3
        m = _generic("PUREODD", p=p)
        fgrid = geometry._fmatrix(m.functions, symmetric_pairs(p), p)
        n = m.n
        for pt in probe_points(m, 17, count=2):
            av = self._connection_values(m, pt)
            fval = np.array([[fgrid[i][j].evaluate(pt) for j in range(p)] for i in range(p)])
            closed = np.zeros((n, n, n))
            for k in range(p):
                phi = np.zeros((p, p))
                tau = np.zeros(p)
                sig = np.zeros((p, p))
                for i in range(p):
                    tau[i] = _derivative(fgrid[i][k], pt, 0)
                    for j in range(p):
                        phi[i, j] = -_derivative(fgrid[j][k], pt, 1 + p + i)
                for i in range(p):
                    for j in range(p):
                        s = (_derivative(fgrid[i][k], pt, 1 + j)
                             - _derivative(fgrid[j][k], pt, 1 + i))
                        for l in range(p):
                            s += fval[i][l] * _derivative(fgrid[j][k], pt, 1 + p + l)
                            s -= fval[j][l] * _derivative(fgrid[i][k], pt, 1 + p + l)
                        sig[i, j] = s
                blk = np.zeros((n, n))
                blk[0, 1:1 + p] = -tau
                blk[1:1 + p, 1:1 + p] = phi
                blk[1 + p:, 0] = tau
                blk[1 + p:, 1:1 + p] = sig
                blk[1 + p:, 1 + p:] = -phi.T
                closed[:, :, 1 + k] = blk
            assert np.abs(av - closed).max() < 1e-12

    def test_pure_even_display(self):
        p = 2
        m = _generic("PUREEVEN", p=p)
        fgrid = geometry._fmatrix(m.functions, symmetric_pairs(p), p)
        for pt in probe_points(m, 18, count=2):
            av = self._connection_values(m, pt)
            for k in range(p):
                blk = av[:, :, k]
                for i in range(p):
                    for j in range(p):
                        q = -_derivative(fgrid[j][k], pt, p + i)
                        assert blk[i, j] == pytest.approx(q, abs=1e-12)
                        assert blk[p + j, p + i] == pytest.approx(-q, abs=1e-12)

    def test_connection_check_certifies(self):
        m = _generic("M51NULL", salt=3)
        for pt in probe_points(m, 19, count=3):
            assert adapted_coframe(m, pt).membership_residual < 1e-9

    def test_connection_check_requires_family_data(self):
        with pytest.raises(ValueError):
            adapted_coframe(_sphere(), np.array([0.7, 0.1]))


# ---------------------------------------------------------------------------
# Closed-form Ricci displays


RICCI_FORM_CASES = [("PUREODD", 2), ("PUREODD", 3), ("PUREEVEN", 2),
                    ("PUREEVEN", 3), ("M22DEG", None), ("M31", None),
                    ("M41DEG", None), ("M51NULL", None)]


class TestRicciDisplays:
    @pytest.mark.parametrize("family,p", RICCI_FORM_CASES)
    def test_display_matches_jet_ricci(self, family, p):
        for salt in range(2):
            m = _generic(family, salt=salt, p=p)
            for pt in probe_points(m, 20 + salt, count=3):
                num = ricci_numeric(m, pt)
                form = ricci_paper(m, pt)
                rel = np.abs(num - form).max() / max(1.0, np.abs(num).max())
                assert rel < 1e-9

    def test_calibration_constants_are_frozen(self):
        assert RICCI_CALIBRATION == {
            "PUREODD": -1.0, "PUREEVEN": -2.0, "M22DEG": -2.0,
            "M31": 0.5, "M41DEG": 1.0, "M51NULL": 0.5,
        }

    def test_families_without_display_raise(self):
        # the families that declare a display are exactly the calibrated ones
        assert {family for family, _ in GENERIC_CASES} == set(FAMILY_TAGS)
        for family, p in GENERIC_CASES:
            m = _generic(family, p=p)
            if family in RICCI_CALIBRATION:
                assert ricci_paper(m, np.zeros(m.n)).shape == (m.n, m.n)
            else:
                with pytest.raises(ValueError, match="no closed-form Ricci display"):
                    ricci_paper(m, np.zeros(m.n))
        with pytest.raises(ValueError, match="no closed-form Ricci display"):
            ricci_paper(_sphere(), np.array([0.7, 0.1]))

    def test_m22deg_display_builds_nothing_per_call(self, monkeypatch):
        m = _generic("M22DEG")
        pts = probe_points(m, 31, count=3)
        first = ricci_paper(m, pts[0])
        built = []
        shift, init = jets.TaylorShift, JetSeries.__init__
        monkeypatch.setattr(jets, "TaylorShift",
                            lambda *a: built.append("shift") or shift(*a))
        monkeypatch.setattr(JetSeries, "__init__",
                            lambda self, *a, **kw: built.append("series") or init(self, *a, **kw))
        for pt in (*pts, pts):
            ricci_paper(m, pt)
        assert built == []
        assert np.array_equal(ricci_paper(m, pts[0]), first)


# ---------------------------------------------------------------------------
# Constraint reports


class TestConstraintReports:
    def test_unconstrained_family_reports_empty(self):
        m = _generic("M31")
        rep = constraint_check(m, probe_points(m, 22, count=3))
        assert rep == {} and geometry._worst(rep.values()) == 0.0

    def test_divergence_free_draws_satisfy_constraints(self):
        for family, p in [("M33NULL", None), ("PUREODD", 3), ("PUREEVEN", 2)]:
            m = _generic(family, p=p)
            rep = constraint_check(m, probe_points(m, 23, count=4))
            assert geometry._worst(rep.values()) < 1e-12

    def test_hand_picked_divergence_free_pattern(self):
        # f_11 = y2, f_12 = -y1/2, f_22 = y2/2: both rows vanish identically
        fs = [JetSeries(4, 1, {(0, 0, 0, 1): 1.0}),
              JetSeries(4, 1, {(0, 0, 1, 0): -0.5}),
              JetSeries(4, 1, {(0, 0, 0, 1): 0.5})]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, probe_points(m, 24, count=3))
        assert geometry._worst(rep.values()) < 1e-14

    def test_y_independent_odd_profiles_pass(self):
        fs = [JetSeries(7, 2, {(0, 1, 0, 0, 0, 0, 0): 0.3,
                               (2, 0, 0, 0, 0, 0, 0): 0.5})
              for _ in range(6)]
        m = build_metric("PUREODD", fs, p=3)
        rep = constraint_check(m, probe_points(m, 25, count=3))
        assert geometry._worst(rep.values()) == 0.0

    def test_violating_profile_is_reported_not_rejected(self):
        fs = [JetSeries(4, 1, {(0, 0, 1, 0): 1.0}),  # d f_11 / d y1 = 1
              JetSeries.zero(4, 0), JetSeries.zero(4, 0)]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, probe_points(m, 26, count=3))
        assert rep["divergence row 1"] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_at_a_later_point_is_kept(self):
        # the divergence is inf - inf = NaN at the second point only
        fs = [JetSeries(4, 3, {(0, 0, 3, 0): 1e308}),
              JetSeries(4, 3, {(0, 0, 0, 3): -1e308}),
              JetSeries.zero(4, 0)]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, [(0, 0, 0.01, 0.01), (0, 0, 5, 5)])
        assert np.isnan(rep["divergence row 1"])

    def test_m33gen_reports_hessian_determinant(self):
        m = _generic("M33GEN")
        rep = constraint_check(m, probe_points(m, 27, count=4))
        assert set(rep) == {"hessian determinant"}
        assert geometry._worst(rep.values()) < 1e-12


# ---------------------------------------------------------------------------
# Holonomy spans


class TestHolonomySpans:
    def test_flat_metric_has_trivial_span(self):
        m = build_metric("M21", [JetSeries(2, 1, {(1, 0): 0.8, (0, 1): 0.2})])
        est = holonomy_span(m, probe_points(m, 30, count=3))
        assert est.span_dim == 0 and est.generator_count == 0

    def test_quartic_hessian_profile_fills_stabilizer(self):
        quartic = JetSeries(4, 4, {(0, 0, 2, 2): 1.0, (0, 0, 4, 0): 1.0,
                                   (0, 0, 0, 4): -1.0, (0, 0, 3, 1): 1.0})
        m = build_metric("M22DEG", [quartic])
        est = holonomy_span(m, probe_points(m, 31, count=3))
        assert est.span_dim == 4 == est.stabilizer_dim
        assert est.membership_residual < 1e-9

    @pytest.mark.parametrize("p,h4_spec,expected", [
        (2, "p2", 6),
        (3, "p3", 14),
    ])
    def test_quadratic_odd_profiles_fill_stabilizer(self, p, h4_spec, expected):
        if h4_spec == "p2":
            h4 = np.zeros((2, 2, 2, 2))
            h4[0, 1, 0, 1] = h4[1, 0, 0, 1] = h4[0, 1, 1, 0] = h4[1, 0, 1, 0] = 1.0
            h4[0, 0, 0, 0] = -1.0
            h4[1, 1, 1, 1] = -1.0
            h2 = np.array([[1.0, 2.0], [2.0, -1.0]])
        else:
            h4 = np.zeros((3, 3, 3, 3))
            pieces = [
                (1.0, np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.0, 1.0])),
                (1.0, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], float),
                 np.diag([0.0, 0.0, 1.0])),
                (-1.0, np.diag([0.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0])),
                (2.0, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float),
                 np.diag([1.0, 0.0, 0.0])),
                (1.0, np.diag([1.0, 0.0, -1.0]), np.diag([0.0, 1.0, 0.0])),
                (-1.0, np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], float),
                 np.diag([0.0, 1.0, 0.0])),
                (1.0, np.diag([0.0, 0.0, 1.0]),
                 np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], float)),
            ]
            for c, a, b in pieces:
                assert np.abs(a @ b).max() == 0.0
                h4 += c * np.einsum("ij,kl->ijkl", a, b)
            h2 = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 2.0]])
        fs = quadratic_profile_functions(h4, h2)
        m = build_metric("PUREODD", fs, p=p)
        rep = constraint_check(m, probe_points(m, 32, count=2))
        assert geometry._worst(rep.values()) < 1e-12
        est = holonomy_span(m, probe_points(m, 32, count=3))
        assert est.span_dim == expected == est.stabilizer_dim
        assert est.membership_residual < 1e-9

    def test_estimate_never_exceeds_stabilizer(self):
        for family, p in [("M22DEG", None), ("M33NULL", None), ("PUREEVEN", 3)]:
            m = _generic(family, p=p)
            est = holonomy_span(m, probe_points(m, 33, count=2))
            assert est.span_dim <= est.stabilizer_dim


# ---------------------------------------------------------------------------
# Formal curvature spaces


def _dense_bianchi(mats, n):
    """The first Bianchi map R -> R(x, y)z + cyclic on h tensor Lambda^2, filled densely.

    Column alpha C(n, 2) + f is R = h_alpha on the pair f = (i, j), i < j, so
    R(e_i, e_j) = h_alpha = -R(e_j, e_i); rows t n .. t n + n - 1 hold the
    vector R(e_i, e_j)e_k + R(e_j, e_k)e_i + R(e_k, e_i)e_j of triple t.
    """
    pairs = {f: i for i, f in enumerate(itertools.combinations(range(n), 2))}
    b = np.zeros((n * math.comb(n, 3), len(mats) * len(pairs)))
    for t, (i, j, k) in enumerate(itertools.combinations(range(n), 3)):
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for alpha, h in enumerate(mats):
                col = alpha * len(pairs) + pairs[min(x, y), max(x, y)]
                b[t * n:(t + 1) * n, col] += (1 if x < y else -1) * h[:, z]
    return b


def _scattered(t):
    """Dense array of triples, each cell the sum of its listed values."""
    out = np.zeros(t.shape, dtype=np.result_type(t.values, float))
    np.add.at(out, (t.rows, t.cols), t.values)
    return out


def _dense_curvature_space_dim(mats):
    """Oracle: one dense orthonormal basis of h and one SVD of the dense Bianchi matrix."""
    n = mats[0].shape[0]
    rows = orthonormal_span(mats, "dense curvature space basis")
    b = _dense_bianchi([row.reshape(n, n) for row in rows], n)
    return rows.shape[0] * n * (n - 1) // 2 - guarded_rank(b, "dense curvature space")


def _alternated_pairs(forms, n):
    """Textbook b on S^2(h): 8 Alt(R) of each pair tensor, on the 4-subsets, column by column.

    On a tensor skew in each pair and symmetric under the pair swap, the 24
    signed permutations of (a, b, c, d) give each term of
    R_abcd + R_acdb + R_adbc eight times.
    """
    perms = list(itertools.permutations(range(4)))
    signs = np.round(np.linalg.det(np.eye(4)[perms]))
    subsets = tuple(np.array(list(itertools.combinations(range(n), 4)), dtype=int).reshape(-1, 4).T)
    pairs = [(x, y) for x in range(len(forms)) for y in range(x, len(forms))]
    out = np.zeros((math.comb(n, 4), len(pairs)))
    for k, (x, y) in enumerate(pairs):
        r = np.einsum("ab,cd->abcd", forms[x], forms[y])
        r = (r + r.transpose(2, 3, 0, 1)) / (2 if x == y else 1)
        alt = sum(sign * r.transpose(perm) for sign, perm in zip(signs, perms))
        out[:, k] = alt[subsets] / 8
    return out


def _curvature_case(case):
    """An algebra and the Gram matrix it is skew for."""
    if case == "null":
        return [e.rho for e in octospin.null_stabilizer_basis()], octospin.GRAM_10_1
    if case == "so4 rotated":
        # conjugate by a random rotation and mix the basis: every entry dense
        rng = np.random.default_rng(11)
        r = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        mix = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        conj = [r @ h @ r.T for h in so_basis(4)]
        return [sum(c * h for c, h in zip(row, conj)) for row in mix], np.eye(4)
    n = int(case[2])
    return so_basis(n), np.eye(n)


# dim K(h) of every declared stabilizer with its own Gram matrix; M101's is
# Bryant's 325, the others are frozen from this code
NORMAL_FORM_CURVATURE = {
    ("M21", None): 1, ("M31", None): 3, ("M22GEN", None): 3, ("M22DEG", None): 9,
    ("M41DEG", None): 6, ("M51NULL", None): 10, ("M33GEN", None): 27,
    ("M33NULL", None): 30, ("PUREODD", 1): 1, ("PUREODD", 2): 18, ("PUREODD", 3): 83,
    ("PUREEVEN", 1): 0, ("PUREEVEN", 2): 9, ("PUREEVEN", 3): 54, ("PUREEVEN", 4): 178,
    ("M101", None): 325,
}


class TestCurvatureSpace:
    def test_trivial_inputs(self):
        assert curvature_space_dim([], np.eye(4)) == 0
        assert curvature_space_dim([np.zeros((4, 4))], np.eye(4)) == 0

    def test_full_rotation_algebra(self):
        # n=4 Riemann tensors: 20 independent components
        assert curvature_space_dim(so_basis(4), np.eye(4)) == 20

    def test_spinor_stabilizer_in_eleven_dimensions(self):
        stab = [e.rho for e in octospin.null_stabilizer_basis()]
        assert curvature_space_dim(stab, octospin.GRAM_10_1) == 325

    @pytest.mark.parametrize("case, expected", [
        ("so3", 6), ("so4", 20), ("so5", 50), ("null", 325), ("so4 rotated", 20)])
    def test_block_route_matches_dense_oracle(self, case, expected):
        mats, gram = _curvature_case(case)
        assert curvature_space_dim(mats, gram) == _dense_curvature_space_dim(mats) == expected

    @pytest.mark.parametrize("family, p", sorted(NORMAL_FORM_CURVATURE, key=str))
    def test_declared_stabilizers(self, family, p, monkeypatch):
        calls = []
        rank_mod_p = geometry._rank_mod_p
        monkeypatch.setattr(geometry, "_rank_mod_p",
                            lambda mat: calls.append(mat.shape) or rank_mod_p(mat))
        form = geometry.normal_form(family, p)
        got = curvature_space_dim(form.stabilizer, form.gram)
        assert got == NORMAL_FORM_CURVATURE[family, p]
        if form.stabilizer:
            assert got == _dense_curvature_space_dim(list(form.stabilizer))
        # every basis but M101's (0.47 away from integral) is half-integral,
        # so its rank is also taken exactly; an empty one ranks nothing
        assert len(calls) == (0 if family == "M101" or not form.stabilizer else 1)

    def test_exact_rank_disagreement_is_refused(self, monkeypatch):
        rank_mod_p = geometry._rank_mod_p
        monkeypatch.setattr(geometry, "_rank_mod_p", lambda mat: rank_mod_p(mat) + 1)
        with pytest.raises(RuntimeError, match="float rank 1 disagrees with exact rank 2"):
            curvature_space_dim(so_basis(4), np.eye(4))

    @pytest.mark.parametrize("gram, message", [
        (np.ones((4, 3)), "must be an \\(n, n\\) array, got shape \\(4, 3\\)"),
        (np.ones(4), "must be an \\(n, n\\) array, got shape \\(4,\\)"),
        (np.triu(np.ones((4, 4))), "Gram matrix is not symmetric"),
        (np.diag([1.0, 1.0, 1.0, 0.0]), "Gram matrix is degenerate"),
        (np.diag([1.0, 1.0, 1.0, 2.0]), "algebra element 2 is not skew for the Gram matrix"),
        (np.eye(5), "need \\(5, 5\\) algebra elements"),
    ])
    def test_bad_input_refused(self, gram, message):
        with pytest.raises(ValueError, match=message):
            curvature_space_dim(so_basis(4), gram)

    def test_null_stabilizer_needs_no_large_svd(self, svd_cells):
        stab = [e.rho for e in octospin.null_stabilizer_basis()]
        assert curvature_space_dim(stab, octospin.GRAM_10_1) == 325
        # the dense h tensor Lambda^2 Bianchi matrix has 1815 x 1650 cells; b
        # on S^2(h) is 330 x 465 in three blocks, the largest 70 x 231
        assert 0 < max(svd_cells) <= 20_000

    @pytest.mark.parametrize("case", ["so3", "so4", "so5", "null"])
    def test_bianchi_triples_match_the_dense_fill(self, case):
        mats, gram = _curvature_case(case)
        n, m = len(gram), len(mats)
        forms = gram @ np.array(mats)
        t = geometry._pair_bianchi(forms, n)
        assert t.shape == (math.comb(n, 4), m * (m + 1) // 2)
        # each cell listed once, and every cell agrees with the textbook loop
        assert np.unique(t.rows * t.shape[1] + t.cols).size == t.rows.size
        assert np.allclose(_scattered(t), _alternated_pairs(forms, n), rtol=0, atol=1e-12)

    def test_so_basis_count(self):
        assert len(so_basis(5)) == 10
        m = so_basis(3)[0]
        assert np.abs(m + m.T).max() == 0.0


def test_bianchi_rows_kill_the_round_sphere():
    # R = sum of omega_f omega_f over the so(n) basis, the pair's own 2-form,
    # satisfies the first Bianchi identity; omega_01 omega_23 + omega_23 omega_01 does not
    for n in (4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        b = geometry._pair_bianchi(so_basis(n), n)
        x, y = np.triu_indices(len(pairs))
        assert b.shape == (math.comb(n, 4), x.size)

        def apply(r):
            return np.bincount(b.rows, weights=b.values * r[b.cols], minlength=b.shape[0])

        assert not np.any(apply((x == y).astype(float)))
        mixed = (x == pairs.index((0, 1))) & (y == pairs.index((2, 3)))
        assert np.any(apply(mixed.astype(float)))


# ---------------------------------------------------------------------------
# Invariant forms


def _stack(m):
    """The declared stabilizer of ``m`` as an (m, n, n) stack, empty or not."""
    return np.reshape(m.stabilizer, (-1, m.n, m.n))


def _invariance_residual(mats, k, basis):
    """Largest entry of -a^T acting on each dense basis form, slot by slot (n^k cells)."""
    n = mats[0].shape[0]
    worst = 0.0
    for v in basis.T:
        form = geometry._alternating(v, n, k)
        for a in mats:
            acted = sum(np.moveaxis(np.tensordot(a, form, axes=(0, r)), 0, r)
                        for r in range(k))
            worst = max(worst, float(np.abs(acted).max()))
    return worst


def _spin7():
    return [t[1] for t in octospin.unit_stabilizer_basis()]


def _g2():
    """g2 in so(7): the unit stabilizer triples with equal first two components, on Im O."""
    triples = octospin.unit_stabilizer_basis()
    coeffs = nullspace(np.column_stack([(t[0] - t[1]).ravel() for t in triples]), "g2")
    return [sum(c * t[1] for c, t in zip(col, triples))[1:, 1:] for col in coeffs.T]


def _two_form(n, *terms):
    """Skew matrix sum of sign (e_i e_j^T - e_j e_i^T) over (sign, i, j) terms."""
    out = np.zeros((n, n))
    for sign, i, j in terms:
        out[i, j] += sign
        out[j, i] -= sign
    return out


def _sp1():
    """The self-dual forms of R^4, a copy of sp(1) in so(4)."""
    return [_two_form(4, (1, 0, 1), (1, 2, 3)), _two_form(4, (1, 0, 2), (-1, 1, 3)),
            _two_form(4, (1, 0, 3), (1, 1, 2))]


def _u2():
    return _sp1() + [_two_form(4, (1, 0, 1), (-1, 2, 3))]


# published holonomy algebras: invariant k-forms {k: count} and dim K(h), after
# Bryant, Ann. of Math. 126 (1987), and Wang, Ann. Global Anal. Geom. 7 (1989)
LITERATURE = {
    "g2": (_g2, 14, {1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 0, 7: 1}, 77),
    "spin7": (_spin7, 21, {4: 1, 8: 1}, 168),
    "sp1": (_sp1, 3, {2: 3}, 5),
    "u2": (_u2, 4, {2: 1}, 9),
    "so4": (lambda: so_basis(4), 6, {2: 0, 4: 1}, 20),
}

# invariant k-forms, k = 1, 2, ..., of each normal form's declared stabilizer;
# frozen from this code (M101 up to k = 5)
NORMAL_FORM_COUNTS = {
    ("M21", None): (1, 1, 1),
    ("M31", None): (1, 2, 1, 1),
    ("M22GEN", None): (1, 2, 1, 1),
    ("M22DEG", None): (0, 1, 0, 1),
    ("M41DEG", None): (1, 3, 3, 1, 1),
    ("M51NULL", None): (1, 4, 6, 4, 1, 1),
    ("M33GEN", None): (0, 1, 2, 1, 0, 1),
    ("M33NULL", None): (0, 1, 2, 1, 0, 1),
    ("PUREODD", 1): (1, 1, 1),
    ("PUREODD", 2): (0, 1, 1, 0, 1),
    ("PUREODD", 3): (0, 0, 1, 1, 0, 0, 1),
    ("PUREEVEN", 1): (2, 1),
    ("PUREEVEN", 2): (0, 1, 0, 1),
    ("PUREEVEN", 3): (0, 0, 1, 0, 0, 1),
    ("M101", None): (1, 1, 0, 0, 1),
}


class TestInvariantForms:
    @pytest.mark.parametrize("name", sorted(LITERATURE))
    def test_literature_anchor(self, name):
        build, dim, counts, kdim = LITERATURE[name]
        mats = build()
        n = mats[0].shape[0]
        assert orthonormal_span(mats, name).shape[0] == dim
        for k, count in counts.items():
            basis = invariant_forms(mats, k, name)
            assert basis.shape == (math.comb(n, k), count)
            assert np.allclose(basis.T @ basis, np.eye(count), atol=1e-12)
            if n ** k <= 10 ** 6:
                assert _invariance_residual(mats, k, basis) < 1e-12
        assert curvature_space_dim(mats, np.eye(n)) == kdim

    @pytest.mark.parametrize("family, p", sorted(NORMAL_FORM_COUNTS, key=str))
    def test_normal_form_counts(self, family, p):
        m = _generic(family, p=p)
        mats = _stack(m)
        counts = NORMAL_FORM_COUNTS[family, p]
        assert tuple(invariant_forms(mats, k, family).shape[1]
                     for k in range(1, len(counts) + 1)) == counts
        if m.n <= 7:
            for k in range(1, m.n + 1):
                basis = invariant_forms(mats, k, family)
                if len(mats) and basis.size:
                    assert _invariance_residual(mats, k, basis) < 1e-12

    def test_cayley_form_matches_spin7(self):
        # the fiber blocks of the null stabilizer and spin(7) fix the same 4-form
        blocks = [e.rho[3:, 3:] for e in octospin.null_stabilizer_basis()]
        fiber = geometry._integral_form(blocks, 4, "fiber 4-form")
        spin7 = geometry._integral_form(_spin7(), 4, "spin(7) 4-form")
        assert np.array_equal(fiber, spin7)

    def test_one_forms_are_the_kernel_of_the_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        a[:, 0] = 0.0
        a[:, 3] = 0.0
        basis = invariant_forms([a], 1, "one-forms")
        assert basis.shape == (5, 2)
        assert np.abs(a.T @ basis).max() < 1e-12

    def test_empty_stabilizer_fixes_every_form(self):
        assert np.array_equal(invariant_forms(np.zeros((0, 4, 4)), 2, "none"), np.eye(6))

    @pytest.mark.parametrize("k", [0, 5])
    def test_degree_out_of_range(self, k):
        with pytest.raises(ValueError, match="degree k in 1..n"):
            invariant_forms(so_basis(4), k, "so4")

    def test_matrices_must_be_square_stack(self):
        with pytest.raises(ValueError, match="stack"):
            invariant_forms([], 1, "none")

    def test_m101_five_forms_need_no_large_svd(self, svd_cells):
        mats = _stack(_generic("M101"))
        assert invariant_forms(mats, 5, "M101").shape == (462, 1)
        # the whole operator has 13,860 x 462 cells, its largest block 2,094 x 70
        assert 0 < max(svd_cells) <= 150_000


# ---------------------------------------------------------------------------
# The eleven-dimensional family


class TestElevenDimensionalFamily:
    def test_gram_is_frozen_reference(self):
        m = _generic("M101")
        assert np.array_equal(m.gram, octospin.GRAM_10_1)
        assert len(m.stabilizer) == 30

    def test_generic_profile_has_nonzero_ricci(self):
        m = _generic("M101")
        pts = probe_points(m, 40, count=3)
        assert max(np.abs(ricci_numeric(m, pt)).max() for pt in pts) > 0.01

    def test_cayley_form_combinatorics(self):
        # the invariant 4-form of the fiber blocks is the Cayley form
        blocks = [e.rho[3:, 3:] for e in octospin.null_stabilizer_basis()]
        coeffs = geometry._integral_form(blocks, 4, "fiber 4-form")
        nz = coeffs[coeffs != 0.0]
        assert len(nz) == 14
        assert set(nz) <= {1.0, -1.0}
        phi = geometry._alternating(coeffs, 8, 4)
        assert np.array_equal([phi[q] for q in itertools.combinations(range(8), 4)], coeffs)
        # full antisymmetry
        for perm in itertools.permutations(range(4)):
            sign = round(np.linalg.det(np.eye(4)[list(perm)]))
            assert np.array_equal(phi.transpose(perm), sign * phi)

    def test_inventory_forms_are_parallel(self):
        m = _generic("M101")
        forms = parallel_forms_10_1(m)
        assert set(forms) == {"dx3", "dx2^dx3", "dx3^Phi"}
        for form in forms.values():
            for pt in probe_points(m, 41, count=5):
                assert parallel_form_residual(m, pt, form) < 1e-9

    def test_generic_one_form_is_not_parallel(self):
        m = _generic("M101")
        e1 = np.zeros(11)
        e1[1] = 1.0
        res = min(parallel_form_residual(m, pt, e1)
                  for pt in probe_points(m, 42, count=3))
        assert res > 1e-3

    def test_profile_must_not_depend_on_first_coordinate(self):
        bad = JetSeries(11, 1, {(1,) + (0,) * 10: 1.0})
        with pytest.raises(ValueError):
            build_metric("M101", [bad])

    def test_fiber_dependent_profile_keeps_connection_adapted(self):
        table = {(1, 0) + (0,) * 8: 0.4, (0, 2) + (0,) * 8: -0.5}
        e = [0] * 10
        e[2] = 2
        table[tuple(e)] = 0.3
        m = build_metric("M101", [JetSeries(10, 2, table)])
        for pt in probe_points(m, 43, count=3):
            assert adapted_coframe(m, pt).membership_residual < 1e-9

    def test_inventory_forms_are_frozen(self):
        forms = parallel_forms_10_1(_generic("M101"))
        assert np.array_equal(forms["dx3"], np.eye(11)[2])
        two = np.zeros((11, 11))
        two[1, 2], two[2, 1] = 1.0, -1.0
        assert np.array_equal(forms["dx2^dx3"], two)
        five = forms["dx3^Phi"]
        # dx3 wedge the 14-term Cayley form: each term in 5! orders
        assert np.count_nonzero(five) == 14 * 120
        assert set(five[five != 0.0]) == {1.0, -1.0}
        assert np.count_nonzero(five[2]) == 14 * 24
        assert not np.any(five[:2]) and not np.any(five[2, 2])

    def test_build_multiplies_no_series(self, monkeypatch):
        # the identity fiber is constant, so a build multiplies no exact series
        calls = []
        mul = JetSeries.__mul__
        monkeypatch.setattr(JetSeries, "__mul__", lambda s, o: calls.append(1) or mul(s, o))
        for _ in range(2):
            build_metric("M101", [JetSeries(2, 2, {(1, 1): 0.3})])
        assert calls == []

    def test_holonomy_span_stays_within_stabilizer(self):
        m = _generic("M101")
        est = holonomy_span(m, probe_points(m, 44, count=2))
        assert 0 < est.span_dim <= 30


# ---------------------------------------------------------------------------
# Serialized descriptions


class TestSpecRoundTrip:
    def test_function_parses_fraction_strings(self):
        f = function_from_spec({"arity": 2, "coefficients": {"1,1": "2/3", "0,2": -0.4}})
        assert f.table[(1, 1)] == pytest.approx(2.0 / 3.0)
        assert f.table[(0, 2)] == pytest.approx(-0.4)

    def test_rational_coefficients_stay_exact(self):
        f = function_from_spec({"arity": 2, "coefficients": {"1,1": "1/3", "0,2": 2}})
        assert f.table == {(1, 1): Fraction(1, 3), (0, 2): 2}
        assert all(isinstance(c, Fraction) for c in f.table.values())
        assert f.diff(0).table == {(0, 1): Fraction(1, 3)}

    def test_one_fraction_per_coefficient(self, monkeypatch):
        # an int or a float is read as an integer pair, a rational string
        # through at most one Fraction
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", staticmethod(
            lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw)))
        numbers = function_from_spec({"arity": 2, "coefficients": {"0,2": 2, "2,0": 0.5}})
        assert made == []
        f = function_from_spec({"arity": 2, "coefficients": {"1,1": "1/3", "0,2": 2, "2,0": 0.5}})
        assert len(made) <= 1
        monkeypatch.undo()
        assert numbers.table == {(0, 2): 2, (2, 0): Fraction(1, 2)}
        assert f.table == {(1, 1): Fraction(1, 3), (0, 2): 2, (2, 0): Fraction(1, 2)}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(arity=st.integers(1, 3), data=st.data())
    def test_integer_reader_matches_fraction_oracle(self, fraction_reader, arity, data):
        spellings = (lambda e: ",".join(map(str, e)),
                     lambda e: "(" + ", ".join(map(str, e)) + ")",
                     lambda e: " " + " , ".join(map(str, e)) + " ")
        key = st.builds(lambda e, spell: spell(e), st.tuples(*[st.integers(0, 4)] * arity),
                        st.sampled_from(spellings))
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308 / 3, -0.0]),
            st.integers(-10 ** 300, 10 ** 300),
            st.fractions(max_denominator=10 ** 6).map(str))
        coefficients = data.draw(st.dictionaries(key, value, max_size=8))
        # two spellings of one exponent tuple, "1,0" and "(1, 0)", that cancel
        cancel = data.draw(value)
        first = (1,) + (0,) * (arity - 1)
        coefficients[spellings[0](first)] = cancel
        coefficients[spellings[1](first)] = (
            str(-Fraction(cancel)) if isinstance(cancel, str) else -cancel)
        fd = {"arity": arity, "coefficients": coefficients}
        assert function_from_spec(fd) == fraction_reader(fd)

    def test_metric_round_trip(self):
        d = {"family": "PUREEVEN", "p": 2, "functions": [
            {"arity": 4, "coefficients": {"0,0,0,1": "1"}},
            {"arity": 4, "coefficients": {"0,0,1,0": "-1/2"}},
            {"arity": 4, "coefficients": {"0,0,0,1": 0.5}},
        ]}
        m = metric_from_spec(d)
        assert m.family == "PUREEVEN" and m.p == 2
        rep = constraint_check(m, probe_points(m, 50, count=3))
        assert geometry._worst(rep.values()) < 1e-14

    def test_eleven_dimensional_spec(self):
        d = {"family": "M101", "fiber": "identity",
             "functions": [{"arity": 2, "coefficients": {"1,1": "2/3"}}]}
        m = metric_from_spec(d)
        assert m.family == "M101" and m.n == 11

    def test_unknown_fiber_rejected(self):
        d = {"family": "M101", "fiber": "custom", "functions": [
            {"arity": 2, "coefficients": {}}]}
        with pytest.raises(ValueError):
            metric_from_spec(d)


class TestProbePoints:
    def test_deterministic_for_fixed_seed(self):
        m = _generic("M31")
        assert np.array_equal(probe_points(m, 7), probe_points(m, 7))

    def test_points_avoid_degeneracies(self):
        m = _generic("M41DEG")
        for pt in probe_points(m, 8, count=6):
            assert abs(np.linalg.det(m.components(pt))) > 1e-8

    @staticmethod
    def _one_at_a_time(m, seed, count):
        """The sampler drawing and testing one candidate at a time; (points, draws)."""
        rng = np.random.default_rng(seed)
        pts = []
        for draws in range(1, 100 * count + 1):
            x = rng.uniform(-0.5, 0.5, m.n)
            if abs(np.linalg.det(m.components(x))) > geometry.DEGENERACY_TOL:
                pts.append(x)
                if len(pts) == count:
                    return np.array(pts), draws
        raise RuntimeError("could not sample nondegenerate probe points")

    @staticmethod
    def _power_metric(k):
        """diag(a^k, 1): |det g| > 1e-8 only where |a| > 10^(-8/k)."""
        return custom_metric(2, (2, 0), ("a", "b"),
                             {(0, 0): JetSeries(2, k, {(k, 0): 1}), (1, 1): _one(2)})

    @pytest.mark.parametrize("seed", [0, 7, 90, 4242])
    @pytest.mark.parametrize("count", [1, 3, 5, 8])
    def test_same_points_as_one_at_a_time(self, seed, count):
        # a spec metric, and a custom one degenerate on |a| <= 0.316, where
        # candidates are refused in the middle of a block
        for m in (_spec_metric("metric_m41deg.json"), self._power_metric(16)):
            want, _ = self._one_at_a_time(m, seed, count)
            assert np.array_equal(probe_points(m, seed, count=count), want)
        _, draws = self._one_at_a_time(self._power_metric(16), seed, 8)
        assert draws > 8

    @pytest.mark.parametrize("k", [24, 40])
    def test_sparse_and_empty_boxes(self, k):
        # a^24 passes on 7% of the box, so 100 candidates may all fail; a^40
        # passes nowhere in it
        m = self._power_metric(k)
        for seed, count in itertools.product(range(6), (1, 2, 5)):
            try:
                want, _ = self._one_at_a_time(m, seed, count)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="nondegenerate probe points"):
                    probe_points(m, seed, count=count)
            else:
                assert np.array_equal(probe_points(m, seed, count=count), want)


DATA = Path(__file__).resolve().parent / "data"
METRIC_SPECS = sorted(path.name for path in DATA.glob("metric_*.json"))


@lru_cache(maxsize=None)
def _spec_metric(name):
    return metric_from_spec(json.loads((DATA / name).read_text()))


def _batch_routines(m):
    """Each batched routine of m as points (..., n) -> one array."""
    def coframe(points):
        ac = adapted_coframe(m, points)
        residuals = (ac.membership_residual, ac.torsion_residual, ac.skew_residual,
                     ac.gram_residual)
        return np.concatenate([ac.connection.reshape(np.shape(ac.gram_residual) + (-1,)),
                               np.stack(residuals, axis=-1)], axis=-1)

    out = {"components": m.components, "adapted_coframe": coframe}
    for order in range(3):
        out[f"component_jets order {order}"] = lambda x, o=order: m.component_jets(x, o).c
        out[f"coframe_jets order {order}"] = lambda x, o=order: m.coframe_jets(x, o).c
    for routine in (geometry.christoffel_values, ricci_numeric, riemann_numeric,
                    geometry.curvature_operators):
        out[routine.__name__] = lambda x, f=routine: f(m, x)
    if m.ricci_display is not None:
        out["ricci_paper"] = lambda x: ricci_paper(m, x)
    return out


class TestPointBatches:
    """A routine at points (P, n) equals the stack of its calls at each point, bit for bit."""

    @staticmethod
    def _check(m, pts):
        for name, routine in _batch_routines(m).items():
            stack = np.stack([routine(x) for x in pts])
            assert np.array_equal(routine(pts), stack), name
            # a (1, n) batch is the (n,) call with one leading axis
            assert np.array_equal(routine(pts[:1]), routine(pts[0])[None]), name

    @pytest.mark.parametrize("spec", METRIC_SPECS)
    def test_batch_equals_stack(self, spec):
        m = _spec_metric(spec)
        self._check(m, probe_points(m, 11, count=5))

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(st.lists(st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
                    min_size=1, max_size=4))
    def test_batch_equals_stack_in_the_box(self, rows):
        m = _spec_metric("metric_m41deg.json")
        pts = np.array(rows)
        assume((np.abs(np.linalg.det(m.components(pts))) > geometry.DEGENERACY_TOL).all())
        self._check(m, pts)

    def test_divergence_rows_batch(self):
        m = _spec_metric("metric_pureodd3.json")
        pts = probe_points(m, 11, count=5)
        rows = constraint_check(m, pts)
        assert rows == {name: geometry._worst(constraint_check(m, [x])[name] for x in pts)
                        for name in rows}

    def test_holonomy_keeps_point_major_order(self, monkeypatch):
        m = _spec_metric("metric_pureodd2.json")
        pts = probe_points(m, 11, count=3)
        seen = []
        closure = geometry.bracket_closure
        monkeypatch.setattr(geometry, "bracket_closure",
                            lambda ops, label: seen.append(np.stack(ops)) or closure(ops, label))
        holonomy_span(m, pts)
        want = np.concatenate([geometry.curvature_operators(m, x) for x in pts])
        assert np.array_equal(seen[0], want[np.abs(want).max(axis=(1, 2)) > 1e-10])

    def test_degenerate_coframe_names_the_first_bad_point(self):
        # E = diag(a, 1) is singular where a = 0
        def rule(points, ctx):
            c = np.zeros(points.shape[:-1] + (2, 2, ctx.nmono))
            c[..., 0, 0, 0] = points[..., 0]
            c[..., 1, 1, 0] = 1.0
            if ctx.order:
                c[..., 0, 0, 1] = 1.0
            return Jet(ctx, c)

        m = geometry.CoordinateMetric(2, (2, 0), ("a", "b"), rule, coframe_rule=rule)
        m.gram = np.eye(2)
        pts = np.array([[0.3, 0.1], [0.0, 0.2], [0.0, -0.4]])
        with pytest.raises(ValueError, match=r"adapted coframe degenerate at \[0.  0.2\]"):
            adapted_coframe(m, pts)
