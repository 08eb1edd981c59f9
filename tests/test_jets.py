"""Truncated Taylor arithmetic against naive polynomial and sympy oracles."""

import numpy as np
import pytest
import sympy as sp

from spinorlab.jets import Jet, JetContext, JetOrderError, shared_context


# Independent oracle: truncated polynomials as exponent-tuple dicts.
def _poly_mul(p1, p2, nvars, order):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > order:
                continue
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _poly_diff(p, var):
    out = {}
    for e, c in p.items():
        if e[var] == 0:
            continue
        low = list(e)
        low[var] -= 1
        out[tuple(low)] = c * e[var]
    return out


def _random_poly(rng, nvars, order):
    ctx_monos = JetContext(nvars, order).monomials
    return {m: rng.standard_normal() for m in ctx_monos}


def _jet_from_poly(ctx, poly):
    c = np.zeros(ctx.nmono)
    for e, v in poly.items():
        c[ctx.index[e]] = v
    return Jet(ctx, c)


def _assert_jet_equals_poly(jet, poly, tol=1e-12):
    for e, v in poly.items():
        if sum(e) <= jet.ctx.order:
            assert abs(jet.coefficient(e) - v) < tol


class TestContextTables:
    @pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_product_matches_naive_polynomial_multiply(self, nvars, order):
        rng = np.random.default_rng(11)
        ctx = JetContext(nvars, order)
        for _ in range(5):
            p1 = _random_poly(rng, nvars, order)
            p2 = _random_poly(rng, nvars, order)
            want = _poly_mul(p1, p2, nvars, order)
            got = _jet_from_poly(ctx, p1) * _jet_from_poly(ctx, p2)
            _assert_jet_equals_poly(got, want)

    def test_derivative_matches_naive(self):
        rng = np.random.default_rng(12)
        ctx = JetContext(3, 4)
        p = _random_poly(rng, 3, 4)
        for var in range(3):
            want = _poly_diff(p, var)
            got = _jet_from_poly(ctx, p).diff(var)
            _assert_jet_equals_poly(got, want)

    def test_monomial_count(self):
        # C(nvars + order, order) basis monomials
        assert JetContext(11, 3).nmono == 364
        assert JetContext(11, 2).nmono == 78
        assert JetContext(2, 6).nmono == 28


class TestSharedContext:
    def test_one_context_per_size_and_order(self):
        assert shared_context(4, 2) is shared_context(4, 2)
        assert shared_context(4, 2) is not shared_context(4, 3)

    def test_tables_are_read_only(self):
        ctx = shared_context(3, 2)
        for table in (ctx._mul_i, ctx._mul_j, ctx._mul_k,
                      *ctx._dsrc, *ctx._ddst, *ctx._dfac):
            with pytest.raises(ValueError):
                table[0] = 0


class TestValidityTracking:
    def test_diff_lowers_trusted_order(self):
        ctx = JetContext(2, 3)
        x, y = ctx.variables([0.5, -0.25])
        f = x * x * y
        assert f.ctx.order == 3
        assert f.diff(0).ctx.order == 2
        assert f.diff(0).diff(1).ctx.order == 1

    def test_extraction_past_trusted_order_raises(self):
        ctx = JetContext(2, 3)
        x, _ = ctx.variables([1.0, 2.0])
        g = (x * x * x).diff(0)  # order 2
        g.coefficient((2, 0))
        with pytest.raises(JetOrderError):
            g.coefficient((3, 0))

    def test_product_keeps_weaker_order(self):
        ctx = JetContext(1, 4)
        (x,) = ctx.variables([2.0])
        a = x.diff(0)  # order 3
        assert (a * x).ctx.order == 3


class TestScalarCalculus:
    def test_rational_function_derivatives_match_finite_differences(self):
        def f(u, v):
            return (u * u * v + 3.0) / (1.0 + u * v * v)

        u0, v0 = 0.7, -0.4
        ctx = JetContext(2, 3)
        u, v = ctx.variables([u0, v0])
        jet = (u * u * v + 3.0) / (1.0 + u * v * v)

        h = 1e-5
        fd_u = (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
        fd_uv = (
            f(u0 + h, v0 + h) - f(u0 + h, v0 - h) - f(u0 - h, v0 + h) + f(u0 - h, v0 - h)
        ) / (4 * h * h)
        assert abs(jet.value() - f(u0, v0)) < 1e-14
        assert abs(jet.diff(0).value() - fd_u) < 1e-8
        assert abs(jet.diff(0).diff(1).value() - fd_uv) < 1e-6

    def test_inverse_matches_sympy_series(self):
        x_s, y_s = sp.symbols("x y")
        expr = 1 / (2 + x_s + 3 * x_s * y_s)
        ctx = JetContext(2, 4)
        x, y = ctx.variables([0.0, 0.0])
        jet = (2.0 + x + 3.0 * x * y).inv()
        poly = sp.Poly(sp.series(expr, x_s, 0, 5).removeO().expand(), x_s, y_s)
        for e in ctx.monomials:
            want = float(poly.coeff_monomial(x_s ** e[0] * y_s ** e[1]))
            assert abs(jet.coefficient(e) - want) < 1e-12

    def test_jet_times_inverse_is_one(self):
        rng = np.random.default_rng(5)
        ctx = JetContext(3, 4)
        p = _random_poly(rng, 3, 4)
        p[(0, 0, 0)] = 1.5
        u = _jet_from_poly(ctx, p)
        prod = u * u.inv()
        assert abs(prod.value() - 1.0) < 1e-12
        for e in ctx.monomials[1:]:
            assert abs(prod.coefficient(e)) < 1e-12


class TestMatrixJets:
    def test_matmul_matches_entrywise(self):
        rng = np.random.default_rng(7)
        ctx = JetContext(2, 3)
        a = Jet(ctx, rng.standard_normal((3, 4, ctx.nmono)))
        b = Jet(ctx, rng.standard_normal((4, 2, ctx.nmono)))
        prod = a @ b
        assert prod.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                want = ctx.constant(0.0)
                for k in range(4):
                    want = want + a[i, k] * b[k, j]
                assert np.allclose(prod[i, j].c, want.c, atol=1e-12)

    def test_inverse_of_jet_matrix(self):
        rng = np.random.default_rng(8)
        ctx = JetContext(3, 3)
        c = rng.standard_normal((4, 4, ctx.nmono))
        c[..., 0] += 4.0 * np.eye(4)  # keep the value part invertible
        a = Jet(ctx, c)
        prod = (a @ a.inv()).c
        eye = np.zeros_like(prod)
        eye[..., 0] = np.eye(4)
        assert np.max(np.abs(prod - eye)) < 1e-10

    def test_diff_and_valid_propagation(self):
        ctx = JetContext(2, 2)
        x, y = ctx.variables([1.0, 2.0])
        m = Jet.stack([[x * y, x], [y, ctx.constant(1.0)]])
        d = m.diff(1)
        assert d.ctx.order == 1
        assert abs(d[0, 0].value() - 1.0) < 1e-14
        assert abs(d[0, 1].value()) < 1e-14

    def test_product_is_entrywise(self):
        ctx = JetContext(2, 2)
        x, y = ctx.variables([0.5, -1.5])
        a = Jet.stack([[x, y], [x * y, ctx.constant(2.0)]])
        b = Jet.stack([[y, y], [x, x + y]])
        prod = a * b
        for i in range(2):
            for j in range(2):
                assert np.array_equal(prod[i, j].c, (a[i, j] * b[i, j]).c)

    def test_constant_stack_and_indexing_round_trip(self):
        ctx = JetContext(3, 2)
        mat = np.arange(6.0).reshape(2, 3) - 2.5
        k = ctx.constant(mat)
        assert k.shape == (2, 3) and k.ctx.order == ctx.order
        assert np.array_equal(k.value(), mat)
        back = Jet.stack([[k[i, j] for j in range(3)] for i in range(2)])
        assert np.array_equal(back.c, k.c) and back.ctx.order == k.ctx.order
        X = ctx.variables([0.1, 0.2, 0.3])
        m = Jet.stack([[X[0], X[1] * X[2]], [X[2].diff(2), X[0] + 1.0]])
        assert m.ctx.order == ctx.order - 1
        for i, j, want in ((0, 0, X[0]), (0, 1, X[1] * X[2]), (1, 1, X[0] + 1.0)):
            assert np.array_equal(m[i, j].c, want.truncate(m.ctx.order).c)
        assert m[1].shape == (2,) and np.array_equal(m[1].c, m.c[1])

    def test_scalar_value_is_a_float(self):
        ctx = JetContext(2, 1)
        x, _ = ctx.variables([0.25, 0.5])
        assert type(x.value()) is float
        assert type(Jet.stack([[x]])[0, 0].value()) is float

    def test_zero_scalar_inverse_raises(self):
        ctx = JetContext(2, 2)
        x, _ = ctx.variables([0.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            x.inv()
        with pytest.raises(ZeroDivisionError):
            1.0 / (x * 3.0)

    def test_non_square_inverse_raises(self):
        ctx = JetContext(2, 1)
        for shape in ((2, 3), (4, 2, 3), (3,)):
            with pytest.raises(ValueError):
                ctx.constant(np.ones(shape)).inv()

    def test_leading_axes_are_points(self):
        # @ and the inverse of a (P, n, n) jet equal the stack of the P matrix
        # jets' results, bit for bit
        rng = np.random.default_rng(17)
        ctx = JetContext(3, 2)
        a = rng.standard_normal((4, 3, 3, ctx.nmono))
        a[..., 0] += 4.0 * np.eye(3)
        b = rng.standard_normal((4, 3, 2, ctx.nmono))
        batch, single = Jet(ctx, a), [Jet(ctx, m) for m in a]
        assert np.array_equal(ctx.matmul_arrays(a, b),
                              np.stack([ctx.matmul_arrays(x, y) for x, y in zip(a, b)]))
        assert np.array_equal(batch.inv().c, np.stack([m.inv().c for m in single]))

    def test_mixed_contexts_raise(self):
        a = JetContext(2, 2).variables([0.0, 1.0])[0]
        b = JetContext(2, 2).variables([0.0, 1.0])[1]
        for op in (lambda: a + b, lambda: a * b, lambda: a - b):
            with pytest.raises(ValueError):
                op()
        ma, mb = Jet.stack([[a]]), Jet.stack([[b]])
        with pytest.raises(ValueError):
            ma @ mb


class TestTruncate:
    def test_prefix_is_the_jet_of_the_lower_context(self):
        def build(ctx):
            x, y, z = ctx.variables([0.7, -0.4, 0.2])
            return (x * x * y + 3.0 * z) / (1.0 + x * y * y) - y * z / (2.0 + z * z)

        high = build(shared_context(3, 3))
        for order in range(4):
            low = high.truncate(order)
            assert low.ctx is shared_context(3, order)
            assert low.ctx.order == order
            assert np.array_equal(low.c, build(shared_context(3, order)).c)

    def test_arithmetic_commutes_with_truncation(self):
        rng = np.random.default_rng(13)
        ctx = shared_context(3, 3)
        a = Jet(ctx, rng.standard_normal((4, 4, ctx.nmono)))
        b = Jet(ctx, rng.standard_normal((4, 4, ctx.nmono)))
        a.c[..., 0] += 4.0 * np.eye(4)  # keep the value part invertible
        for order in range(4):
            at, bt = a.truncate(order), b.truncate(order)
            assert np.array_equal((at * bt).c, (a * b).truncate(order).c)
            assert np.array_equal((at @ bt).c, (a @ b).truncate(order).c)
            assert np.array_equal(at.inv().c, a.inv().truncate(order).c)
            assert np.array_equal(at[1, 2].inv().c, a[1, 2].inv().truncate(order).c)

    def test_trusted_order_is_carried(self):
        ctx = shared_context(2, 3)
        x, y = ctx.variables([0.5, -1.5])
        g = (x * x * x * y).diff(0).diff(1)  # order 1
        assert [g.truncate(k).ctx.order for k in range(2)] == [0, 1]
        assert np.array_equal(g.truncate(0).c, g.c[:1])
        for k in (2, 3):
            with pytest.raises(ValueError):
                g.truncate(k)

    def test_raising_the_order_is_refused(self):
        (x,) = shared_context(1, 2).variables([0.3])
        x.truncate(2)
        with pytest.raises(ValueError):
            x.truncate(3)

    def test_reading_past_the_trusted_order_still_raises(self):
        ctx = shared_context(2, 3)
        x, _ = ctx.variables([1.0, 2.0])
        g = (x * x * x).diff(0).diff(0)  # order 1
        low = g.truncate(1)
        assert low.coefficient((1, 0)) == g.coefficient((1, 0))
        with pytest.raises(JetOrderError):
            low.coefficient((2, 0))
        with pytest.raises(JetOrderError):
            low.diff(0).diff(0).value()


class TestMixedOrders:
    """Jets of the same variables but different orders meet in the lower order."""

    @staticmethod
    def _scalars():
        x, y = shared_context(2, 2).variables([0.5, -1.5])
        high = (x * x + 2.0) * (y + 1.0)
        low = (x * x + y).diff(0).diff(0)  # order 0
        return high, low

    def test_ops_equal_the_ops_after_an_explicit_truncate(self):
        high, low = self._scalars()
        cut = high.truncate(0)
        ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b)
        for op in ops:
            for got, want in ((op(high, low), op(cut, low)), (op(low, high), op(low, cut))):
                assert got.ctx is shared_context(2, 0)
                assert np.array_equal(got.c, want.c)

    def test_matmul_and_stack_meet_in_the_lower_order(self):
        high, low = self._scalars()
        cut = high.truncate(0)
        m = Jet.stack([[high, low], [low, high]])
        assert m.ctx is shared_context(2, 0)
        assert np.array_equal(m.c, Jet.stack([[cut, low], [low, cut]]).c)
        full = Jet.stack([[high, high * high], [high + 1.0, high]])
        got = full @ m
        assert got.ctx is shared_context(2, 0)
        assert np.array_equal(got.c, (full.truncate(0) @ m).c)

    def test_diff_below_order_zero_raises(self):
        ctx = shared_context(2, 0)
        x = ctx.variable(0, 1.0)
        with pytest.raises(JetOrderError):
            x.diff(0)
        with pytest.raises(JetOrderError):
            ctx.diff_arrays(x.c, 1)

    def test_diff_is_a_prefix_in_the_lower_context(self):
        ctx = shared_context(2, 3)
        x, y = ctx.variables([0.5, -1.5])
        f = x * x * y + 1.0 / (1.0 + y * y)
        for var in range(2):
            d = f.diff(var)
            assert d.ctx is shared_context(2, 2) and d.c.shape == (d.ctx.nmono,)

    def test_distinct_contexts_of_one_order_raise(self):
        a = JetContext(2, 2).variables([0.0, 1.0])[0]
        b = JetContext(2, 2).variables([0.0, 1.0])[1]
        with pytest.raises(ValueError):
            Jet.stack([[a, b]])
        with pytest.raises(ValueError):
            a * shared_context(3, 1).variable(0, 0.0)
