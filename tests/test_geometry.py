"""Geometry tests: family builders, jet curvature, connections, holonomy."""

import itertools
import zlib
from fractions import Fraction

import numpy as np
import pytest

from spinorlab import geometry, octospin
from spinorlab.geometry import (
    FAMILY_TAGS,
    RICCI_CALIBRATION,
    FiberFamily,
    FreeFunction,
    adapted_coframe,
    adapted_connection_check,
    build_metric,
    build_metric_10_1,
    cayley_four_form,
    constraint_check,
    curvature_space_dim,
    custom_metric,
    divergence_free_draw,
    function_from_spec,
    holonomy_span,
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
from spinorlab.jets import JetMatrix


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
        return build_metric(family, [FreeFunction(6, table=table)])
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
        g = FreeFunction(2, table={(1, 0): 0.4, (0, 1): -0.3, (2, 0): 0.6,
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


class TestFreeFunction:
    def test_table_evaluation(self):
        f = FreeFunction(2, table={(2, 0): 3.0, (1, 1): -1.0, (0, 0): 0.5})
        assert f.value([2.0, 5.0]) == pytest.approx(12.0 - 10.0 + 0.5)

    def test_derivative_matches_finite_differences(self):
        rng = _rng("fd")
        for salt in range(4):
            f = random_polynomial(3, rng, degree=4, scale=0.7)
            pt = rng.uniform(-1, 1, 3)
            assert f.fd_gradient_residual(pt) < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fd_gradient_keeps_nan(self):
        # the x difference is inf - inf; it must not read as a zero mismatch
        f = FreeFunction(2, table={(3, 0): 1e308, (0, 1): 1.0})
        assert np.isnan(f.fd_gradient_residual(np.array([5.0, 0.0])))

    def test_rule_backend_derivatives(self):
        f = FreeFunction(2, rule=lambda u, v: u.sin() * v + v.exp())
        pt = np.array([0.3, -0.2])
        assert f.value(pt) == pytest.approx(np.sin(0.3) * (-0.2) + np.exp(-0.2))
        assert f.derivative(pt, 0) == pytest.approx(np.cos(0.3) * (-0.2))
        assert f.derivative(pt, 1, 1) == pytest.approx(np.exp(-0.2))

    def test_partial_is_exact(self):
        f = FreeFunction(2, table={(3, 1): 2.0, (0, 2): 1.0})
        fx = f.partial(0)
        assert fx.table == {(2, 1): 6.0}
        assert f.partial(1).table == {(3, 0): 2.0, (0, 1): 2.0}

    def test_partial_requires_table(self):
        f = FreeFunction(1, rule=lambda u: u.sin())
        with pytest.raises(ValueError):
            f.partial(0)

    def test_mixed_partials_commute(self):
        f = FreeFunction(2, table={(2, 2): 1.0, (3, 1): -0.5})
        pt = [0.7, -0.4]
        assert f.derivative(pt, 0, 1) == pytest.approx(f.derivative(pt, 1, 0))

    def test_backend_choice_is_exclusive(self):
        with pytest.raises(ValueError):
            FreeFunction(1, table={}, rule=lambda u: u)
        with pytest.raises(ValueError):
            FreeFunction(1)

    def test_argument_count_checked(self):
        f = FreeFunction(2, table={(1, 0): 1.0})
        from spinorlab.jets import JetContext
        ctx = JetContext(3, 1)
        with pytest.raises(ValueError):
            f.jet(ctx.variables(np.zeros(3)))


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
            total = sum(grid[(i, j)].derivative(pt, y_vars[j]) for j in range(size))
            assert abs(total) < 1e-12

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


def _sphere():
    def rule(X, ctx):
        th = X[0]
        return JetMatrix.from_entries([
            [ctx.constant(1.0), ctx.constant(0.0)],
            [ctx.constant(0.0), th.sin() * th.sin()],
        ])
    return custom_metric(2, (2, 0), ("th", "ph"), rule)


class TestCurvatureOracles:
    def test_round_sphere_ricci_is_positive(self):
        m = _sphere()
        for th in (0.4, 0.9, 1.3):
            pt = np.array([th, 0.2])
            want = np.diag([1.0, np.sin(th) ** 2])
            assert np.abs(ricci_numeric(m, pt) - want).max() < 1e-12

    def test_sphere_sectional_curvature_one(self):
        m = _sphere()
        r = riemann_numeric(m, np.array([0.8, -0.1]))
        # R^th_{ph th ph} = sin^2 th
        assert r[0, 1, 0, 1] == pytest.approx(np.sin(0.8) ** 2)

    def test_ricci_matches_finite_differences(self):
        rng = _rng("fd-ricci")
        fs = [random_polynomial(3, rng, degree=2, scale=0.1) for _ in range(6)]

        def rule(X, ctx):
            e = [[None] * 3 for _ in range(3)]
            k = 0
            for i in range(3):
                for j in range(i, 3):
                    base = 1.0 if i == j else 0.0
                    e[i][j] = e[j][i] = base + fs[k].jet(list(X))
                    k += 1
            return JetMatrix.from_entries(e)

        m = custom_metric(3, (3, 0), ("a", "b", "c"), rule)
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
        def rule(X, ctx):
            return JetMatrix.from_entries([
                [X[0], ctx.constant(0.0)],
                [ctx.constant(0.0), ctx.constant(1.0)],
            ])
        m = custom_metric(2, (2, 0), ("a", "b"), rule)
        with pytest.raises(ValueError):
            ricci_numeric(m, np.zeros(2))


# ---------------------------------------------------------------------------
# Family builders


class TestFamilyBuilders:
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
        ("PUREODD", 3, 6), ("PUREEVEN", 3, 6), ("M33NULL", None, 3),
    ])
    def test_each_profile_evaluated_once(self, family, p, distinct, monkeypatch):
        m = _generic(family, p=p)
        calls = []
        jet = FreeFunction.jet
        monkeypatch.setattr(FreeFunction, "jet",
                            lambda f, args: calls.append(f) or jet(f, args))
        for jets in (m.component_jets, m.coframe_jets):
            calls.clear()
            jets(np.full(m.n, 0.1), order=1)
            assert len(calls) == len(set(map(id, calls))) == distinct

    def test_wrong_function_count_rejected(self):
        with pytest.raises(ValueError):
            build_metric("M31", [])
        with pytest.raises(ValueError):
            build_metric("M33NULL", [FreeFunction.zero(6)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            build_metric("M21", [FreeFunction.zero(5)])

    def test_block_size_required_for_pure_families(self):
        with pytest.raises(ValueError):
            build_metric("PUREODD", [FreeFunction.zero(5)] * 3)

    def test_parenthesized_tag_sets_block_size(self):
        m = build_metric("PUREODD(2)", [FreeFunction.zero(5)] * 3)
        assert m.p == 2 and m.n == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_metric("M99", [])

    def test_hessian_families_need_table_backend(self):
        f = FreeFunction(4, rule=lambda *X: X[0] * X[3])
        with pytest.raises(ValueError):
            build_metric("M22DEG", [f])

    def test_m33gen_rejects_wrong_hessian_determinant(self):
        table = {}
        for i in range(3):
            e = [0] * 6
            e[i] += 1
            e[3 + i] += 1
            table[tuple(e)] = 2.0
        with pytest.raises(ValueError):
            build_metric("M33GEN", [FreeFunction(6, table=table)])


# ---------------------------------------------------------------------------
# Flatness criteria


class TestFlatnessCriteria:
    def test_m21_flat_iff_profile_linear_in_middle_coordinate(self):
        lin = FreeFunction(2, table={(0, 0): 0.3, (1, 0): 0.7, (0, 1): -0.2, (0, 2): 0.5})
        m = build_metric("M21", [lin])
        pt = np.array([0.1, 0.2, -0.3])
        assert np.abs(riemann_numeric(m, pt)).max() < 1e-10
        quad = FreeFunction(2, table={(2, 0): 1.0})
        m = build_metric("M21", [quad])
        assert np.abs(riemann_numeric(m, pt)).max() > 0.1

    def test_m22gen_flat_iff_no_mixed_cross_derivative(self):
        sep = FreeFunction(3, table={(2, 0, 0): 0.7, (0, 0, 3): 0.4,
                                     (1, 0, 1): -0.3, (0, 1, 1): 0.5})
        m = build_metric("M22GEN", [sep])
        for pt in probe_points(m, 8, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() < 1e-10
        cross = FreeFunction(3, table={(1, 1, 0): 1.0})
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
        m = build_metric(family, [FreeFunction(arity, table=harmonic)])
        for pt in probe_points(m, 10, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() < 1e-8
        m = build_metric(family, [FreeFunction(arity, table=witness)])
        for pt in probe_points(m, 11, count=3):
            assert np.abs(ricci_numeric(m, pt)).max() > 0.1


# ---------------------------------------------------------------------------
# Displayed connection forms


class TestDisplayedConnections:
    def _connection_values(self, m, pt):
        a, _ = geometry._connection_arrays(m.coframe_jets(pt, order=1), m.gram)
        return a[..., 0]

    def test_m21_display(self):
        m = _generic("M21")
        f = m.functions[0]
        for pt in probe_points(m, 12, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((3, 3, 3))
            closed[:, :, 2] = 0.5 * f.derivative(pt[1:], 0) * m.stabilizer[0]
            assert np.abs(av - closed).max() < 1e-12

    def test_m31_display(self):
        m = _generic("M31")
        f = m.functions[0]
        for pt in probe_points(m, 13, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((4, 4, 4))
            closed[:, :, 3] = (0.5 * f.derivative(pt[1:], 0) * m.stabilizer[0]
                               - 0.5 * f.derivative(pt[1:], 1) * m.stabilizer[1])
            assert np.abs(av - closed).max() < 1e-12

    def test_m22gen_display(self):
        m = _generic("M22GEN")
        f = m.functions[0]
        for pt in probe_points(m, 14, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((4, 4, 4))
            closed[:, :, 3] = (f.derivative(pt[1:], 1) * m.stabilizer[0]
                               - f.derivative(pt[1:], 0) * m.stabilizer[1])
            assert np.abs(av - closed).max() < 1e-12

    def test_m41deg_display(self):
        m = _generic("M41DEG")
        f = m.functions[0]
        for pt in probe_points(m, 15, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((5, 5, 5))
            for a in range(3):
                closed[:, :, 0] -= 0.5 * f.derivative(pt[:4], 1 + a) * m.stabilizer[a]
            assert np.abs(av - closed).max() < 1e-12

    def test_m51null_display(self):
        m = _generic("M51NULL")
        f = m.functions[0]
        for pt in probe_points(m, 16, count=3):
            av = self._connection_values(m, pt)
            closed = np.zeros((6, 6, 6))
            for a in range(4):
                closed[:, :, 5] += 0.5 * f.derivative(pt[1:], a) * m.stabilizer[a]
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
            fval = np.array([[fgrid[i][j].value(pt) for j in range(p)] for i in range(p)])
            closed = np.zeros((n, n, n))
            for k in range(p):
                phi = np.zeros((p, p))
                tau = np.zeros(p)
                sig = np.zeros((p, p))
                for i in range(p):
                    tau[i] = fgrid[i][k].derivative(pt, 0)
                    for j in range(p):
                        phi[i, j] = -fgrid[j][k].derivative(pt, 1 + p + i)
                for i in range(p):
                    for j in range(p):
                        s = (fgrid[i][k].derivative(pt, 1 + j)
                             - fgrid[j][k].derivative(pt, 1 + i))
                        for l in range(p):
                            s += fval[i][l] * fgrid[j][k].derivative(pt, 1 + p + l)
                            s -= fval[j][l] * fgrid[i][k].derivative(pt, 1 + p + l)
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
                        q = -fgrid[j][k].derivative(pt, p + i)
                        assert blk[i, j] == pytest.approx(q, abs=1e-12)
                        assert blk[p + j, p + i] == pytest.approx(-q, abs=1e-12)

    def test_connection_check_certifies(self):
        m = _generic("M51NULL", salt=3)
        for pt in probe_points(m, 19, count=3):
            assert adapted_connection_check(m, pt) < 1e-9

    def test_connection_check_requires_family_data(self):
        with pytest.raises(ValueError):
            adapted_connection_check(_sphere(), np.array([0.7, 0.1]))


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
                form = ricci_paper(family, m.functions, pt, p=p)
                rel = np.abs(num - form).max() / max(1.0, np.abs(num).max())
                assert rel < 1e-9

    def test_calibration_constants_are_frozen(self):
        assert RICCI_CALIBRATION == {
            "PUREODD": -1.0, "PUREEVEN": -2.0, "M22DEG": -2.0,
            "M31": 0.5, "M41DEG": 1.0, "M51NULL": 0.5,
        }

    def test_families_without_display_raise(self):
        m = _generic("M21")
        with pytest.raises(ValueError):
            ricci_paper("M21", m.functions, np.zeros(3))
        with pytest.raises(ValueError):
            ricci_paper("M33GEN", _generic("M33GEN").functions, np.zeros(6))


# ---------------------------------------------------------------------------
# Constraint reports


class TestConstraintReports:
    def test_unconstrained_family_reports_empty(self):
        m = _generic("M31")
        rep = constraint_check(m, probe_points(m, 22, count=3))
        assert rep.residuals == {} and rep.max_residual == 0.0

    def test_divergence_free_draws_satisfy_constraints(self):
        for family, p in [("M33NULL", None), ("PUREODD", 3), ("PUREEVEN", 2)]:
            m = _generic(family, p=p)
            rep = constraint_check(m, probe_points(m, 23, count=4))
            assert rep.max_residual < 1e-12

    def test_hand_picked_divergence_free_pattern(self):
        # f_11 = y2, f_12 = -y1/2, f_22 = y2/2: both rows vanish identically
        fs = [FreeFunction(4, table={(0, 0, 0, 1): 1.0}),
              FreeFunction(4, table={(0, 0, 1, 0): -0.5}),
              FreeFunction(4, table={(0, 0, 0, 1): 0.5})]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, probe_points(m, 24, count=3))
        assert rep.max_residual < 1e-14

    def test_y_independent_odd_profiles_pass(self):
        fs = [FreeFunction(7, table={(0, 1, 0, 0, 0, 0, 0): 0.3,
                                     (2, 0, 0, 0, 0, 0, 0): 0.5})
              for _ in range(6)]
        m = build_metric("PUREODD", fs, p=3)
        assert constraint_check(m, probe_points(m, 25, count=3)).max_residual == 0.0

    def test_violating_profile_is_reported_not_rejected(self):
        fs = [FreeFunction(4, table={(0, 0, 1, 0): 1.0}),  # d f_11 / d y1 = 1
              FreeFunction.zero(4), FreeFunction.zero(4)]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, probe_points(m, 26, count=3))
        assert rep.residuals["divergence row 1"] == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_at_a_later_point_is_kept(self):
        # the divergence is inf - inf = NaN at the second point only
        fs = [FreeFunction(4, table={(0, 0, 3, 0): 1e308}),
              FreeFunction(4, table={(0, 0, 0, 3): -1e308}),
              FreeFunction.zero(4)]
        m = build_metric("PUREEVEN", fs, p=2)
        rep = constraint_check(m, [(0, 0, 0.01, 0.01), (0, 0, 5, 5)])
        assert np.isnan(rep.residuals["divergence row 1"])
        assert np.isnan(rep.max_residual)

    def test_m33gen_reports_hessian_determinant(self):
        m = _generic("M33GEN")
        rep = constraint_check(m, probe_points(m, 27, count=4))
        assert set(rep.residuals) == {"hessian determinant"}
        assert rep.max_residual < 1e-12


# ---------------------------------------------------------------------------
# Holonomy spans


class TestHolonomySpans:
    def test_flat_metric_has_trivial_span(self):
        m = build_metric("M21", [FreeFunction(2, table={(1, 0): 0.8, (0, 1): 0.2})])
        est = holonomy_span(m, probe_points(m, 30, count=3))
        assert est.span_dim == 0 and est.generator_count == 0

    def test_quartic_hessian_profile_fills_stabilizer(self):
        quartic = FreeFunction(4, table={(0, 0, 2, 2): 1.0, (0, 0, 4, 0): 1.0,
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
        m = build_metric(f"PUREODD({p})", fs)
        assert constraint_check(m, probe_points(m, 32, count=2)).max_residual < 1e-12
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


class TestCurvatureSpace:
    def test_trivial_inputs(self):
        assert curvature_space_dim([], n=4) == 0
        assert curvature_space_dim([np.zeros((4, 4))]) == 0

    def test_full_rotation_algebra(self):
        # n=4 Riemann tensors: 20 independent components
        assert curvature_space_dim(so_basis(4)) == 20

    def test_spinor_stabilizer_in_eleven_dimensions(self):
        stab = [e.rho for e in octospin.null_stabilizer_basis()]
        assert curvature_space_dim(stab) == 325

    def test_so_basis_count(self):
        assert len(so_basis(5)) == 10
        m = so_basis(3)[0]
        assert np.abs(m + m.T).max() == 0.0


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
        phi = cayley_four_form()
        base = np.array([phi[q] for q in itertools.combinations(range(8), 4)])
        nz = base[np.abs(base) > 0.5]
        assert len(nz) == 14
        assert set(nz) <= {1.0, -1.0}
        # full antisymmetry
        assert phi[0, 1, 2, 3] == -phi[1, 0, 2, 3] == phi[1, 2, 0, 3]

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
        bad = FreeFunction(11, table={(1,) + (0,) * 10: 1.0})
        with pytest.raises(ValueError):
            build_metric_10_1(FiberFamily.identity(), bad)
        bad_rule = FreeFunction(11, rule=lambda *X: X[0] * X[1])
        with pytest.raises(ValueError):
            build_metric_10_1(FiberFamily.identity(), bad_rule)

    def test_fiber_dependent_profile_keeps_connection_adapted(self):
        table = {(1, 0) + (0,) * 8: 0.4, (0, 2) + (0,) * 8: -0.5}
        e = [0] * 10
        e[2] = 2
        table[tuple(e)] = 0.3
        m = build_metric_10_1(FiberFamily.identity(), FreeFunction(10, table=table))
        for pt in probe_points(m, 43, count=3):
            assert adapted_connection_check(m, pt) < 1e-9

    def test_nonconstant_fiber_drops_four_form(self):
        entries = np.eye(8).astype(object)
        entries[0, 0] = FreeFunction(9, table={(0,) * 9: 1.0, (1,) + (0,) * 8: 0.2})
        fiber = FiberFamily(entries)
        assert not fiber.constant
        g = FreeFunction(2, table={(1, 1): 0.3})
        m = build_metric_10_1(fiber, g)
        assert "dx3^Phi" not in parallel_forms_10_1(m)

    def test_fiber_shape_checked(self):
        with pytest.raises(ValueError):
            FiberFamily(np.eye(7))

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
        assert f.partial(0).table == {(0, 1): Fraction(1, 3)}

    def test_metric_round_trip(self):
        d = {"family": "PUREEVEN(2)", "functions": [
            {"arity": 4, "coefficients": {"0,0,0,1": "1"}},
            {"arity": 4, "coefficients": {"0,0,1,0": "-1/2"}},
            {"arity": 4, "coefficients": {"0,0,0,1": 0.5}},
        ]}
        m = metric_from_spec(d)
        assert m.family == "PUREEVEN" and m.p == 2
        assert constraint_check(m, probe_points(m, 50, count=3)).max_residual < 1e-14

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
            assert abs(m.det(pt)) > 1e-8
