"""Truncated Taylor arithmetic against naive polynomial and sympy oracles."""

import numpy as np
import pytest
import sympy as sp

from spinorlab.jets import Jet, JetContext, JetOrderError, JetSeries, shared_context


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


def _coeffs(ctx, poly):
    """The coefficient vector of a poly in ``ctx``'s basis."""
    c = np.zeros(ctx.nmono)
    for e, v in poly.items():
        c[ctx.index[e]] = v
    return c


def _jet_from_poly(ctx, poly):
    return Jet(ctx, _coeffs(ctx, poly))


def _array_from_polys(ctx, polys):
    """A jet array from a nested list of polys, one per cell."""
    return np.array([[_coeffs(ctx, p) for p in row] for row in polys])


def _assert_jet_equals_poly(jet, poly, tol=1e-12):
    for e, v in poly.items():
        if sum(e) <= jet.ctx.order:
            assert abs(jet.coefficient(e) - v) < tol


def _shifted(ctx, table, point):
    """The jet of the polynomial ``table`` in ctx.nvars variables at ``point``."""
    return JetSeries(ctx.nvars, 20, table).jet(ctx, point, range(ctx.nvars))


class TestContextTables:
    @pytest.mark.parametrize("nvars,order", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_product_matches_naive_polynomial_multiply(self, nvars, order):
        # mul_arrays is entrywise over the leading axes
        rng = np.random.default_rng(11)
        ctx = JetContext(nvars, order)
        p1 = [[_random_poly(rng, nvars, order) for _ in range(3)] for _ in range(2)]
        p2 = [[_random_poly(rng, nvars, order) for _ in range(3)] for _ in range(2)]
        got = ctx.mul_arrays(_array_from_polys(ctx, p1), _array_from_polys(ctx, p2))
        assert got.shape == (2, 3, ctx.nmono)
        for i in range(2):
            for j in range(3):
                want = _poly_mul(p1[i][j], p2[i][j], nvars, order)
                _assert_jet_equals_poly(Jet(ctx, got[i, j]), want)

    def test_matrix_product_matches_naive_polynomial_multiply(self):
        rng = np.random.default_rng(14)
        ctx = JetContext(2, 3)
        a = [[_random_poly(rng, 2, 3) for _ in range(4)] for _ in range(3)]
        b = [[_random_poly(rng, 2, 3) for _ in range(2)] for _ in range(4)]
        got = ctx.matmul_arrays(_array_from_polys(ctx, a), _array_from_polys(ctx, b))
        assert got.shape == (3, 2, ctx.nmono)
        for i in range(3):
            for j in range(2):
                want = {}
                for k in range(4):
                    for e, v in _poly_mul(a[i][k], b[k][j], 2, 3).items():
                        want[e] = want.get(e, 0.0) + v
                _assert_jet_equals_poly(Jet(shared_context(2, 3), got[i, j]), want)

    def test_derivative_matches_naive(self):
        rng = np.random.default_rng(12)
        ctx = JetContext(3, 4)
        p = _random_poly(rng, 3, 4)
        for var in range(3):
            want = _poly_diff(p, var)
            got = Jet(shared_context(3, 3), ctx.diff_arrays(_coeffs(ctx, p), var))
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
        f = _shifted(JetContext(2, 3), {(2, 1): 1.0}, [0.5, -0.25])
        assert f.ctx.order == 3
        assert f.diff(0).ctx.order == 2
        assert f.diff(0).diff(1).ctx.order == 1

    def test_extraction_past_trusted_order_raises(self):
        g = _shifted(JetContext(2, 3), {(3, 0): 1.0}, [1.0, 2.0]).diff(0)  # order 2
        g.coefficient((2, 0))
        with pytest.raises(JetOrderError):
            g.coefficient((3, 0))


def _one_by_one(jet):
    """A scalar jet as a 1 x 1 matrix jet."""
    return Jet(jet.ctx, jet.c[..., None, None, :])


class TestScalarCalculus:
    def test_rational_function_derivatives_match_finite_differences(self):
        def f(u, v):
            return (u * u * v + 3.0) / (1.0 + u * v * v)

        u0, v0 = 0.7, -0.4
        ctx = JetContext(2, 3)
        num = _one_by_one(_shifted(ctx, {(2, 1): 1.0, (0, 0): 3.0}, [u0, v0]))
        den = _one_by_one(_shifted(ctx, {(0, 0): 1.0, (1, 2): 1.0}, [u0, v0]))
        jet = Jet(ctx, ctx.matmul_arrays(num.c, den.inv().c)[0, 0])

        h = 1e-5
        fd_u = (f(u0 + h, v0) - f(u0 - h, v0)) / (2 * h)
        fd_uv = (
            f(u0 + h, v0 + h) - f(u0 + h, v0 - h) - f(u0 - h, v0 + h) + f(u0 - h, v0 - h)
        ) / (4 * h * h)
        assert abs(jet.value() - f(u0, v0)) < 1e-14
        assert abs(jet.diff(0).value() - fd_u) < 1e-8
        assert abs(jet.diff(0).diff(1).value() - fd_uv) < 1e-6

    def test_inverse_matches_sympy_series(self):
        # the inverse of a 1 x 1 and of a 2 x 2 polynomial matrix at the origin
        x_s, y_s = sp.symbols("x y")
        cells = [[2 + x_s + 3 * x_s * y_s, y_s], [x_s * x_s - y_s, 1 + y_s]]
        ctx = JetContext(2, 4)
        for size in (1, 2):
            mat = sp.Matrix(cells)[:size, :size]
            polys = [[{e: float(c) for e, c in sp.Poly(mat[i, j], x_s, y_s).terms()}
                      for j in range(size)] for i in range(size)]
            jet = Jet(ctx, _array_from_polys(ctx, polys)).inv()
            want = mat.inv()
            for i in range(size):
                for j in range(size):
                    series = sp.series(sp.series(want[i, j], x_s, 0, 5).removeO(), y_s, 0, 5)
                    poly = sp.Poly(series.removeO().expand(), x_s, y_s)
                    for e in ctx.monomials:
                        coeff = float(poly.coeff_monomial(x_s ** e[0] * y_s ** e[1]))
                        assert abs(jet.c[i, j, ctx.index[e]] - coeff) < 1e-12

    def test_jet_times_inverse_is_one(self):
        rng = np.random.default_rng(5)
        ctx = JetContext(3, 4)
        p = _random_poly(rng, 3, 4)
        p[(0, 0, 0)] = 1.5
        a = _one_by_one(_jet_from_poly(ctx, p))
        prod = Jet(ctx, ctx.matmul_arrays(a.c, a.inv().c)[0, 0])
        assert abs(prod.value() - 1.0) < 1e-12
        for e in ctx.monomials[1:]:
            assert abs(prod.coefficient(e)) < 1e-12


class TestMatrixJets:
    def test_matmul_matches_entrywise(self):
        # entry (i, j) of the matrix product is the sum over k of entrywise products
        rng = np.random.default_rng(7)
        ctx = JetContext(2, 3)
        a = rng.standard_normal((3, 4, ctx.nmono))
        b = rng.standard_normal((4, 2, ctx.nmono))
        prod = ctx.matmul_arrays(a, b)
        assert prod.shape == (3, 2, ctx.nmono)
        for i in range(3):
            for j in range(2):
                want = sum(ctx.mul_arrays(a[i, k], b[k, j]) for k in range(4))
                assert np.allclose(prod[i, j], want, atol=1e-12)

    def test_inverse_of_jet_matrix(self):
        rng = np.random.default_rng(8)
        ctx = JetContext(3, 3)
        c = rng.standard_normal((4, 4, ctx.nmono))
        c[..., 0] += 4.0 * np.eye(4)  # keep the value part invertible
        prod = ctx.matmul_arrays(c, Jet(ctx, c).inv().c)
        eye = np.zeros_like(prod)
        eye[..., 0] = np.eye(4)
        assert np.max(np.abs(prod - eye)) < 1e-10

    def test_diff_and_valid_propagation(self):
        ctx = JetContext(2, 2)
        # [[x y, x], [y, 1]] at (1, 2)
        cells = [[{(1, 1): 1.0}, {(1, 0): 1.0}], [{(0, 1): 1.0}, {(0, 0): 1.0}]]
        m = Jet(ctx, np.array([[_shifted(ctx, t, [1.0, 2.0]).c for t in row] for row in cells]))
        d = m.diff(1)
        assert d.ctx.order == 1 and d.shape == (2, 2)
        assert np.array_equal(d.value(), [[1.0, 0.0], [1.0, 0.0]])

    def test_product_is_entrywise(self):
        rng = np.random.default_rng(9)
        ctx = JetContext(2, 2)
        a = rng.standard_normal((2, 2, ctx.nmono))
        b = rng.standard_normal((2, 2, ctx.nmono))
        prod = ctx.mul_arrays(a, b)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(prod[i, j], ctx.mul_arrays(a[i, j], b[i, j]))

    def test_constant_holds_the_value_part(self):
        ctx = JetContext(3, 2)
        mat = np.arange(6.0).reshape(2, 3) - 2.5
        k = ctx.constant(mat)
        assert k.shape == (2, 3) and k.ctx.order == ctx.order
        assert np.array_equal(k.value(), mat)
        assert not k.c[..., 1:].any()
        assert k.coefficient((0, 1, 0)).shape == (2, 3)

    def test_scalar_value_is_a_float(self):
        x = _shifted(JetContext(2, 1), {(1, 0): 1.0}, [0.25, 0.5])
        assert x.shape == () and type(x.value()) is float
        assert type(x.coefficient((1, 0))) is float
        assert type(_one_by_one(x).value()) is np.ndarray

    def test_non_square_inverse_raises(self):
        # a scalar jet is no 1 x 1 matrix and has no inverse
        ctx = JetContext(2, 1)
        for shape in ((2, 3), (4, 2, 3), (3,), ()):
            with pytest.raises(ValueError):
                ctx.constant(np.ones(shape)).inv()

    def test_leading_axes_are_points(self):
        # the matrix product and the inverse of a (P, n, n) jet equal the
        # stack of the P matrix jets' results, bit for bit
        rng = np.random.default_rng(17)
        ctx = JetContext(3, 2)
        a = rng.standard_normal((4, 3, 3, ctx.nmono))
        a[..., 0] += 4.0 * np.eye(3)
        b = rng.standard_normal((4, 3, 2, ctx.nmono))
        batch, single = Jet(ctx, a), [Jet(ctx, m) for m in a]
        assert np.array_equal(ctx.matmul_arrays(a, b),
                              np.stack([ctx.matmul_arrays(x, y) for x, y in zip(a, b)]))
        assert np.array_equal(batch.inv().c, np.stack([m.inv().c for m in single]))


_TABLE = {(2, 1, 0): 1.0, (0, 0, 1): 3.0, (1, 2, 0): -1.0, (0, 1, 1): -0.5, (0, 0, 3): 0.25}
_POINT = [0.7, -0.4, 0.2]


class TestTruncate:
    def test_prefix_is_the_jet_of_the_lower_context(self):
        high = _shifted(shared_context(3, 3), _TABLE, _POINT)
        for order in range(4):
            low = high.truncate(order)
            assert low.ctx is shared_context(3, order)
            assert low.ctx.order == order
            assert np.array_equal(low.c, _shifted(shared_context(3, order), _TABLE, _POINT).c)

    def test_arithmetic_commutes_with_truncation(self):
        rng = np.random.default_rng(13)
        ctx = shared_context(3, 3)
        a = Jet(ctx, rng.standard_normal((4, 4, ctx.nmono)))
        b = Jet(ctx, rng.standard_normal((4, 4, ctx.nmono)))
        a.c[..., 0] += 4.0 * np.eye(4)  # keep the value part invertible
        corner = Jet(ctx, a.c[1:2, 1:2])
        for order in range(4):
            at, bt, low = a.truncate(order), b.truncate(order), shared_context(3, order)
            assert np.array_equal(low.mul_arrays(at.c, bt.c),
                                  ctx.mul_arrays(a.c, b.c)[..., :low.nmono])
            assert np.array_equal(low.matmul_arrays(at.c, bt.c),
                                  ctx.matmul_arrays(a.c, b.c)[..., :low.nmono])
            assert np.array_equal(at.inv().c, a.inv().truncate(order).c)
            assert np.array_equal(corner.truncate(order).inv().c,
                                  corner.inv().truncate(order).c)

    def test_trusted_order_is_carried(self):
        x3y = _shifted(shared_context(2, 3), {(3, 1): 1.0}, [0.5, -1.5])
        g = x3y.diff(0).diff(1)  # order 1
        assert [g.truncate(k).ctx.order for k in range(2)] == [0, 1]
        assert np.array_equal(g.truncate(0).c, g.c[:1])
        for k in (2, 3):
            with pytest.raises(ValueError):
                g.truncate(k)

    def test_raising_the_order_is_refused(self):
        x = _shifted(shared_context(1, 2), {(1,): 1.0}, [0.3])
        x.truncate(2)
        with pytest.raises(ValueError):
            x.truncate(3)

    def test_reading_past_the_trusted_order_still_raises(self):
        x3 = _shifted(shared_context(2, 3), {(3, 0): 1.0}, [1.0, 2.0])
        g = x3.diff(0).diff(0)  # order 1
        low = g.truncate(1)
        assert low.coefficient((1, 0)) == g.coefficient((1, 0))
        with pytest.raises(JetOrderError):
            low.coefficient((2, 0))
        with pytest.raises(JetOrderError):
            low.diff(0).diff(0).value()


class TestMixedOrders:
    """Jets of one set of variables at different orders: derivatives land one lower."""

    def test_diff_below_order_zero_raises(self):
        ctx = shared_context(2, 0)
        x = ctx.constant(1.0)
        with pytest.raises(JetOrderError):
            x.diff(0)
        with pytest.raises(JetOrderError):
            ctx.diff_arrays(x.c, 1)

    def test_diff_is_a_prefix_in_the_lower_context(self):
        f = _shifted(shared_context(2, 3), {(2, 1): 1.0, (0, 0): 1.0, (0, 4): -1.0}, [0.5, -1.5])
        for var in range(2):
            d = f.diff(var)
            assert d.ctx is shared_context(2, 2) and d.c.shape == (d.ctx.nmono,)
