"""Series-solver tests: exact recursion, constraint propagation, oracles."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import cauchy, cli, geometry
from spinorlab.cauchy import (
    CauchyData,
    JetSeries,
    bracket_series,
    cauchy_data,
    cauchy_data_from_spec,
    constraint_residual,
    ricci_series,
    series_to_spec,
    solve_ricci_ivp,
    verify_ricci_flat,
)
from spinorlab.jets import JetContext


def _potential_tables(phi_terms, x_extra, order):
    """Divergence-free symmetric tables from a scalar potential in (y1, y2).

    a_11 = phi_y2y2, a_12 = -phi_y1y2, a_22 = phi_y1y1 kill both divergence
    rows identically; x-only extras never touch the constraint.
    """
    phi = JetSeries(5, order + 2, phi_terms)
    picks = (phi.diff(4).diff(4), -phi.diff(3).diff(4), phi.diff(3).diff(3))
    tables = []
    for s, extra in zip(picks, x_extra):
        t = {e[1:]: c for e, c in s.terms.items()}
        for e, c in extra.items():
            t[e] = t.get(e, 0) + c
        tables.append(t)
    return tables


def _generic_data(order=6):
    phi = {
        (0, 1, 0, 2, 1): Fr(1, 2),
        (0, 0, 1, 1, 2): Fr(1, 3),
        (0, 0, 0, 2, 2): Fr(1, 5),
        (0, 1, 1, 3, 0): Fr(-1, 4),
        (0, 0, 0, 0, 4): Fr(1, 7),
    }
    a_extra = [{(2, 0, 0, 0): Fr(1, 2)}, {(1, 1, 0, 0): Fr(1, 3)},
               {(0, 2, 0, 0): Fr(-1, 5)}]
    psi = {(0, 0, 1, 2, 0): Fr(1, 6), (0, 1, 0, 1, 1): Fr(-1, 2)}
    b_extra = [{}, {(0, 1, 0, 0): Fr(1, 9)}, {}]
    return cauchy_data(2, order, _potential_tables(phi, a_extra, order),
                       _potential_tables(psi, b_extra, order))


_SERIES_TABLES = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=6)
_SERIES_OPERANDS = st.one_of(st.just({}), _SERIES_TABLES)
# a point whose coordinates and powers are exact floats
_POINT = (0.5, -2.0, 1.5)
# nonzero factors of low degree, so that most products keep terms and
# several products of different denominators meet in one sum
_FACTOR_TABLES = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2),
    st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=4)


class _OracleSeries:
    """Reference truncated series: a plain {exponents: Fraction} dict, term by term."""

    def __init__(self, nvars, order, terms):
        self.nvars, self.order = nvars, order
        self.terms = {}
        for e, c in terms.items():
            if sum(e) <= order:
                self.terms[e] = self.terms.get(e, 0) + Fr(c)
        self.terms = {e: c for e, c in self.terms.items() if c != 0}

    def _new(self, order, terms):
        return _OracleSeries(self.nvars, order, terms)

    def plus(self, other, sign=1):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + sign * c
        return self._new(min(self.order, other.order), out)

    def times(self, scal):
        return self._new(self.order, {e: c * scal for e, c in self.terms.items()})

    def product(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._new(min(self.order, other.order), out)

    def diff(self, var):
        out = {}
        for e, c in self.terms.items():
            if e[var]:
                out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c * e[var]
        return self._new(self.order - 1, out)

    def truncate(self, order):
        return self._new(min(self.order, order), self.terms)

    def z_coefficient(self, k):
        return self._new(self.order - k, {(0,) + e[1:]: c for e, c in self.terms.items()
                                          if e[0] == k})

    def times_z_power(self, k):
        return self._new(self.order + k, {(e[0] + k,) + e[1:]: c
                                          for e, c in self.terms.items()})


class TestJetSeries:
    def test_rational_coercion_and_lookup(self):
        s = JetSeries(2, 4, {(1, 0): "1/3", (0, 2): 2})
        assert s.coefficient((1, 0)) == Fr(1, 3)
        assert s.coefficient((0, 2)) == Fr(2)
        assert s.coefficient((5, 5)) == 0
        with pytest.raises(TypeError):  # the terms are a read-only view
            s.terms[(0, 1)] = 1

    def test_float_coefficients_are_held_exactly(self):
        s = JetSeries(2, 4, {(1, 0): 0.1, (0, 1): np.float64(-2.5)})
        assert all(type(c) is Fr for c in s.terms.values())
        assert s.coefficient((1, 0)) == Fr(0.1) != Fr(1, 10)
        assert s.float_terms()[1].tolist() == [-2.5, 0.1]
        assert (s * 0.5).coefficient((0, 1)) == Fr(-5, 4)

    def test_construction_drops_high_degree_terms(self):
        s = JetSeries(2, 2, {(3, 0): Fr(1), (1, 1): Fr(1)})
        assert s.coefficient((3, 0)) == 0 and s.coefficient((1, 1)) == 1

    def test_multiplication_truncates_by_total_degree(self):
        s = JetSeries(2, 3, {(1, 0): 1, (0, 1): 1})
        sq = s * s
        cube = sq * s
        assert cube.coefficient((2, 1)) == 3
        assert (cube * s).coefficient((2, 2)) == 0  # degree 4 > order 3

    def test_diff_lowers_order_by_one(self):
        s = JetSeries(3, 5, {(2, 1, 0): Fr(1, 2)})
        ds = s.diff(0)
        assert ds.order == 4
        assert ds.coefficient((1, 1, 0)) == 1

    def test_mixed_partials_commute(self):
        s = JetSeries(2, 6, {(3, 2): Fr(5, 7), (1, 1): 2})
        assert s.diff(0).diff(1) == s.diff(1).diff(0)

    def test_z_slice_and_shift_roundtrip(self):
        s = JetSeries(3, 4, {(2, 1, 0): 3, (0, 0, 1): 1})
        sl = s.z_coefficient(2)
        assert sl.coefficient((0, 1, 0)) == 3
        back = sl.times_z_power(2)
        assert back.coefficient((2, 1, 0)) == 3

    def test_evaluation_matches_free_function(self):
        # the value part of the series' jet (its Taylor shift) is its evaluation
        s = JetSeries(2, 4, {(2, 1): Fr(1, 4), (0, 3): "-2/3"})
        pt = np.array([0.3, -0.7])
        assert s.evaluate(pt) == pytest.approx(s.jet(JetContext(2, 0), pt, (0, 1)).value())

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            JetSeries(2, 3, {(1,): Fr(1)})
        with pytest.raises(ValueError):
            JetSeries(2, 3, {(-1, 0): Fr(1)})

    def test_negative_variable_count_rejected(self):
        # both constructors used to escape with a struct.error
        with pytest.raises(ValueError, match="nvars >= 0"):
            JetSeries(-1, 2)
        with pytest.raises(ValueError, match="nvars >= 0"):
            JetSeries.from_ratios(-1, 2, [])

    def test_variable_count_mismatch_rejected(self):
        a = JetSeries(2, 3, {(1, 0): 1})
        b = JetSeries(3, 3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            a + b

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(t1=_SERIES_OPERANDS, t2=_SERIES_OPERANDS, o1=st.integers(0, 5),
           o2=st.integers(0, 5), var=st.integers(0, 2), k=st.integers(0, 4),
           scal=st.one_of(st.just(Fr(0)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=5)))
    def test_arithmetic_results_are_validated_series(self, t1, t2, o1, o2, var, k, scal):
        a = JetSeries(3, o1, t1)
        b = JetSeries(3, o2, t2)
        ra, rb = _OracleSeries(3, o1, t1), _OracleSeries(3, o2, t2)
        pairs = ((a + b, ra.plus(rb)), (a - b, ra.plus(rb, -1)), (b - a, rb.plus(ra, -1)),
                 (a - a, ra.plus(ra, -1)), (-a, ra.times(-1)), (a * b, ra.product(rb)),
                 (b * a, rb.product(ra)), (a * scal, ra.times(scal)), (scal * a, ra.times(scal)),
                 (a.diff(var), ra.diff(var)), (a.truncate(k), ra.truncate(k)),
                 (a.z_coefficient(k), ra.z_coefficient(k)),
                 (a.times_z_power(k), ra.times_z_power(k)))
        for r, want in pairs:
            assert (r.nvars, r.order, r.terms) == (want.nvars, want.order, want.terms)
            assert all(type(c) is Fr for c in r.terms.values())
            rebuilt = JetSeries(r.nvars, r.order, want.terms)
            assert r == rebuilt and hash(r) == hash(rebuilt)
            # one positive denominator, in lowest terms
            assert r.den > 0 and math.gcd(r.den, *r.nums.values()) == 1
            assert all(r.coefficient(e) == c for e, c in want.terms.items())
            assert [r.depends_on(v) for v in range(3)] == [
                any(e[v] for e in want.terms) for v in range(3)]
            # the float value against the exact one, at a point of exact floats
            values = [want.terms[e] * math.prod(Fr(x) ** n for x, n in zip(_POINT, e))
                      for e in want.terms]
            assert abs(r.evaluate(_POINT) - float(sum(values))) <= 1e-12 * (
                1 + float(sum(map(abs, values))))
            # float terms in lexicographic exponent order
            rows, floats = r.float_terms()
            assert rows.shape == (len(want.terms), 3)
            assert list(map(tuple, rows.tolist())) == sorted(want.terms)
            assert floats.tolist() == [float(want.terms[e]) for e in sorted(want.terms)]
        assert (a == b) == (ra.order == rb.order and ra.terms == rb.terms)

    def test_exponents_fill_their_64_bit_digits(self):
        # products whose exponents reach 2^64 - 1, the last value a key's
        # digit holds, against the term-by-term oracle; the degree passes it
        top = 2 ** 64 - 1
        a_terms = {(2 ** 63, 0, 0): Fr(1, 2), (1, 2 ** 63, 0): 3, (0, 0, 1): -1}
        b_terms = {(2 ** 63 - 1, 0, 0): 5, (0, 2 ** 63 - 1, 1): Fr(-2, 3), (1, 0, 0): 1}
        a, b = JetSeries(3, top, a_terms), JetSeries(3, 2 ** 66, b_terms)
        ra, rb = _OracleSeries(3, top, a_terms), _OracleSeries(3, 2 ** 66, b_terms)
        edge = JetSeries(3, top - 2, {(2 ** 63, 2 ** 62, 1): 7})
        pairs = ((a * b, ra.product(rb)), (b * a, rb.product(ra)),
                 (a.add_products([(2, b, a), (-1, a, b)]), ra.plus(rb.product(ra))),
                 (edge.times_z_power(2),
                  _OracleSeries(3, top - 2, edge.terms).times_z_power(2)))
        for r, want in pairs:
            assert (r.nvars, r.order, r.terms) == (want.nvars, want.order, want.terms)
        assert (a * b).coefficient((top, 0, 0)) == Fr(5, 2)
        assert b.coefficient((0, 2 ** 63 - 1, 1)) == Fr(-2, 3)
        # an order that would let a digit reach 2^64 refuses, never carries
        with pytest.raises(ValueError, match="2\\^64"):
            b * b
        with pytest.raises(ValueError, match="exponent range"):
            edge.times_z_power(3)
        assert JetSeries.zero(3, top).times_z_power(3).order == top + 3
        with pytest.raises(ValueError, match="bad exponent tuple"):
            JetSeries(3, 2 ** 66, {(2 ** 64, 0, 0): 1})

    def test_coefficient_of_a_tuple_no_term_has_is_zero(self):
        s = JetSeries(2, 4, {(1, 0): 3, (0, 1): 2, (1, 1): 5, (0, 0): 1})
        for exps in ((1,), (1, 0, 0), (), (-1, 1), (2, -1), (1, 2 ** 64), (2 ** 64 + 1, 0),
                     (2 ** 64, 1)):
            assert s.coefficient(exps) == 0
        assert s.coefficient(np.array([1, 1])) == 5

    def test_numpy_integer_arguments_act_as_ints(self):
        terms = {(1, 2, 0): Fr(1, 3), (2, 0, 1): -2, (0, 1, 1): 5, (3, 0, 0): 1}
        a = JetSeries(3, 5, terms)
        made = JetSeries(np.int64(3), np.int64(5),
                         {tuple(map(np.int64, e)): c for e, c in terms.items()})
        assert made == a and type(made.nvars) is type(made.order) is int
        for i in range(3):
            n = np.int64(i)
            for op in ("diff", "z_coefficient", "times_z_power", "truncate"):
                got, want = getattr(a, op)(n), getattr(a, op)(i)
                assert got == want and type(got.order) is int
                assert got.terms == want.terms
            assert a.depends_on(n) == a.depends_on(i)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(base=_SERIES_OPERANDS, base_order=st.integers(0, 5),
           products=st.lists(st.tuples(st.sampled_from((1, -1, 2, -2)), _FACTOR_TABLES,
                                       st.integers(1, 5), _FACTOR_TABLES, st.integers(1, 5)),
                             min_size=1, max_size=5),
           zeroed=st.sets(st.integers(0, 9), max_size=2))
    def test_sum_of_products_matches_term_by_term_oracle(self, base, base_order, products,
                                                         zeroed):
        # factors of mixed orders and denominators, zero factors (the
        # ``zeroed`` ones), product terms past the order, a base of lower
        # order than its factors and weights +-2 all occur among the draws
        series, want = [], _OracleSeries(3, base_order, base)
        for i, (weight, t1, o1, t2, o2) in enumerate(products):
            t1, t2 = ({} if 2 * i in zeroed else t1), ({} if 2 * i + 1 in zeroed else t2)
            series.append((weight, JetSeries(3, o1, t1), JetSeries(3, o2, t2)))
            want = want.plus(_OracleSeries(3, o1, t1).product(_OracleSeries(3, o2, t2)), weight)
        got = JetSeries(3, base_order, base).add_products(series)
        assert (got.nvars, got.order, got.terms) == (want.nvars, want.order, want.terms)
        assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
        assert all(got.nums.values())
        # each product and its mirror image: the sum cancels to zero
        mirrored = series + [(-weight, g, f) for weight, f, g in series]
        cancelled = JetSeries.zero(3, 5).add_products(mirrored)
        low = min(min(f.order, g.order) for _, f, g in series)
        assert (cancelled.order, cancelled.nums, cancelled.den) == (low, {}, 1)

    def test_zero_operands_and_high_truncation_cost_nothing(self):
        a = JetSeries(2, 4, {(1, 0): Fr(1, 3), (0, 3): 2})
        zero = JetSeries.zero(2, 6)
        assert a.truncate(4) is a and a.truncate(9) is a
        assert a + zero is a and zero + a is a and a - zero is a
        assert (zero - a) == -a
        assert (a * zero).is_zero() and (a * zero).order == 4
        assert (a + JetSeries.zero(2, 2)) == a.truncate(2)

    def test_exact_coefficients_past_float_range_saturate(self):
        huge = Fr(10) ** 400
        s = JetSeries(2, 3, {(1, 0): huge, (0, 1): -huge})
        assert s.max_abs() == np.inf
        assert s.z_coefficient(0).evaluate([0.0, 2.0]) == -np.inf
        with np.errstate(invalid="ignore"):  # inf * 0 in the value part
            jet = s.jet(JetContext(2, 1), [0.0, 0.0], (0, 1))
        assert jet.coefficient((1, 0)) == np.inf and jet.coefficient((0, 1)) == -np.inf
        assert s.diff(0).evaluate([0.5, 0.5]) == np.inf

    def test_nonzero_coefficients_below_float_range_never_read_as_zero(self):
        tiny = Fr(1, 10 ** 400)
        s = JetSeries(2, 3, {(1, 0): tiny, (0, 1): -tiny})
        assert s.max_abs() == math.ulp(0.0)
        assert s.float_terms()[1].tolist() == [-math.ulp(0.0), math.ulp(0.0)]
        assert s.z_coefficient(0).evaluate([0.0, 1.0]) == -math.ulp(0.0)
        assert (s - s).max_abs() == 0.0


class TestCauchyData:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            cauchy_data(1, 1, [{}])

    def test_pair_count_checked(self):
        with pytest.raises(ValueError):
            cauchy_data(2, 6, [{}, {}])

    def test_data_must_not_depend_on_z(self):
        s = JetSeries(3, 6, {(1, 0, 0): 1})
        z = JetSeries.zero(3, 6)
        with pytest.raises(ValueError):
            CauchyData(1, 6, (s,), (z,))

    def test_block_size_floor(self):
        with pytest.raises(ValueError, match="at least 1"):
            cauchy_data(0, 6, [])

    def test_series_order_must_match(self):
        s = JetSeries(3, 5, {(0, 1, 0): 1})
        z = JetSeries.zero(3, 6)
        with pytest.raises(ValueError, match="order"):
            CauchyData(1, 6, (s,), (z,))

    @pytest.mark.parametrize("key, value", [("p", 1.5), ("order", 2.7), ("order", "7/2"),
                                            ("p", None), ("order", float("inf"))])
    def test_spec_integers_are_not_rounded(self, key, value):
        d = {"p": 1, "order": 4, "a": [{"coefficients": {"2,0": 1}}]}
        d[key] = value
        with pytest.raises(ValueError, match=key):
            cauchy_data_from_spec(d)

    def test_integral_spec_numbers_accepted(self):
        data = cauchy_data_from_spec({"p": 1, "order": 5, "a": [{"coefficients": {}}]})
        assert (data.p, data.order) == (1, 5)
        # a spec integer is a JSON integer: 1.0, "5" and true are not converted
        for key, value in (("p", 1.0), ("order", "5"), ("p", True)):
            d = {"p": 1, "order": 5, "a": [{"coefficients": {}}], key: value}
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                cauchy_data_from_spec(d)

    def test_potential_data_satisfies_constraints_exactly(self):
        assert _generic_data().max_constraint_residual() == 0.0

    def test_violation_is_visible_in_residuals(self):
        bad = cauchy_data(2, 6, [{(0, 0, 1, 0): 1}, {}, {}])
        assert bad.max_constraint_residual() == 1.0


class TestSolver:
    def test_zero_data_gives_zero_profile(self):
        f = solve_ricci_ivp(cauchy_data(2, 6, [{}, {}, {}]))
        assert all(s.is_zero() for s in f)

    def test_p1_reduces_to_linear_profile(self):
        # constraint kills y-dependence, so the bracket vanishes identically
        data = cauchy_data(1, 6, [{(2, 0): Fr(1, 3), (1, 0): Fr(-1, 2)}],
                           [{(3, 0): Fr(2, 7)}])
        f, = solve_ricci_ivp(data)
        assert f == data.a[0] + data.b[0].times_z_power(1).truncate(6)

    def test_constraint_propagation_is_exact(self):
        f = solve_ricci_ivp(_generic_data())
        for a_l in constraint_residual(f, 2):
            assert a_l.is_zero()
            assert a_l.order == 5

    def test_ricci_series_vanishes_identically(self):
        f = solve_ricci_ivp(_generic_data())
        for r in ricci_series(f, 2):
            assert r.is_zero()
            assert r.order == 4

    def test_z2_coefficient_by_brute_force_substitution(self):
        data = _generic_data()
        f = solve_ricci_ivp(data)
        for t, b_a in enumerate(bracket_series(data.a, 2)):
            assert (f[t].z_coefficient(2) + b_a).is_zero()

    def test_z2_coefficient_ignores_initial_velocity(self):
        # triangularity: the first recursion step sees only the z^0 slice
        data = _generic_data()
        still = cauchy_data(2, 6,
                            [{e[1:]: c for e, c in s.terms.items()} for s in data.a])
        f1 = solve_ricci_ivp(data)
        f2 = solve_ricci_ivp(still)
        for t in range(3):
            assert f1[t].z_coefficient(2) == f2[t].z_coefficient(2)

    def test_violating_data_is_rejected_by_default(self):
        bad = cauchy_data(2, 6, [{(0, 0, 1, 0): 1}, {}, {}])
        with pytest.raises(ValueError):
            solve_ricci_ivp(bad)

    def test_violating_data_breaks_propagation_at_order_zero(self):
        bad = cauchy_data(2, 6, [{(0, 0, 1, 0): 1}, {}, {}])
        f = solve_ricci_ivp(bad, check_constraints=False)
        a_1 = constraint_residual(f, 2)[0]
        assert a_1.z_coefficient(0).max_abs() == 1.0

    def test_truncation_consistency(self):
        f6 = solve_ricci_ivp(_generic_data(order=6))
        f8 = solve_ricci_ivp(_generic_data(order=8))
        for t in range(3):
            assert f8[t].truncate(6) == f6[t]

    def test_solver_is_deterministic(self):
        data = _generic_data()
        f1 = solve_ricci_ivp(data)
        f2 = solve_ricci_ivp(data)
        assert all(s1 == s2 for s1, s2 in zip(f1, f2))


def _oracle_bracket(flat, p):
    """B_jl = f_jl,x^k y_k - f_mk f_jl,y_m y_k + f_mj,y_k f_kl,y_m, pair order.

    Written out with the series' +, - and * alone, one product at a time,
    so it shares no code with the library's bracket and meets its sums of
    products only in their one-term case, ``*``.
    """
    pairs = geometry.symmetric_pairs(p)
    f = {}
    for (i, j), s in zip(pairs, flat):
        f[i, j] = f[j, i] = s
    x, y = range(1, 1 + p), range(1 + p, 1 + 2 * p)
    out = []
    for j, l in pairs:
        b = f[j, l].diff(x[0]).diff(y[0])
        for k in range(1, p):
            b = b + f[j, l].diff(x[k]).diff(y[k])
        for m in range(p):
            for k in range(p):
                b = b - f[m, k] * f[j, l].diff(y[m]).diff(y[k])
                b = b + f[m, j].diff(y[k]) * f[k, l].diff(y[m])
        out.append(b)
    return out


def _full_bracket_solve(data):
    """Oracle: the ungraded recursion, one full bracket of the whole solution per step."""
    order = data.order
    f = [a + b.times_z_power(1).truncate(order) for a, b in zip(data.a, data.b)]
    for m in range(order - 1):
        bracket = _oracle_bracket(f, data.p)
        for t in range(len(f)):
            phi = bracket[t].z_coefficient(m) * Fr(-2, (m + 2) * (m + 1))
            f[t] = f[t] + phi.times_z_power(m + 2).truncate(order)
    return tuple(f)


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _ivp_data(draw, p):
    """(data, divergence_free): random tables, or potential blocks plus x-only terms.

    Each pair j < k of a potential phi(x, y) adds phi_{y_k y_k} to a_jj,
    -phi_{y_j y_k} to a_jk and phi_{y_j y_j} to a_kk, which cancels in every
    divergence row.
    """
    order = draw(st.integers(2, 8))
    n = 2 * p
    pairs = geometry.symmetric_pairs(p)
    free = draw(st.booleans())

    def exps(top):
        return st.lists(st.integers(0, n - 1), max_size=top).map(
            lambda vs: tuple(vs.count(v) for v in range(n)))

    def layer():
        if not free:
            return [draw(st.dictionaries(exps(3), _COEFFS, max_size=4)) for _ in pairs]
        tables = [draw(st.dictionaries(exps(2).map(lambda e: e[:p] + (0,) * p),
                                       _COEFFS, max_size=2)) for _ in pairs]
        for j in range(p):
            for k in range(j + 1, p):
                phi = JetSeries(n, 6, draw(st.dictionaries(exps(5), _COEFFS, max_size=4)))
                yj, yk = p + j, p + k
                for pair, s in (((j, j), phi.diff(yk).diff(yk)),
                                ((j, k), -phi.diff(yj).diff(yk)),
                                ((k, k), phi.diff(yj).diff(yj))):
                    t = tables[pairs.index(pair)]
                    for e, c in s.terms.items():
                        t[e] = t.get(e, 0) + c
        return tables

    return cauchy_data(p, order, layer(), layer()), free


class _UnreadNums(dict):
    """Numerators whose terms fail the test as soon as they are read."""

    def _unread(self, *args):
        raise AssertionError("a product with a zero factor reached the product loop")

    items = keys = values = get = __iter__ = __getitem__ = _unread


class TestGradedRecursion:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_graded_solver_matches_full_bracket_recursion(self, p, data):
        data, free = data.draw(_ivp_data(p))
        if free:
            assert data.max_constraint_residual() == 0.0
        f = solve_ricci_ivp(data, check_constraints=free)
        assert f == _full_bracket_solve(data)
        assert all(s.order == data.order for s in f)

    def test_fixed_data_matches_full_bracket_recursion(self):
        cases = [_generic_data(order) for order in (2, 6, 8)]
        cases += [cauchy_data(p, 8, *cli._builtin_cauchy_tables(p)) for p in (1, 2, 3)]
        for data in cases:
            assert solve_ricci_ivp(data) == _full_bracket_solve(data)

    def test_solver_makes_no_full_bracket_and_verify_makes_one(self, monkeypatch):
        calls = []
        full = cauchy.bracket_series

        def counted(flat, p):
            calls.append(p)
            return full(flat, p)

        monkeypatch.setattr(cauchy, "bracket_series", counted)
        f = solve_ricci_ivp(_generic_data())
        assert calls == []
        # the even row reads the z^0 coefficient of the one full bracket
        verify_ricci_flat(f, 2)
        assert calls == [2]

    def test_p3_solve_loops_over_no_product_with_a_zero_factor(self, monkeypatch):
        zero_factors, live = [], []
        add_products = JetSeries.add_products

        def guarded(self, products):
            # both factors of a product with a zero factor get numerators
            # that fail the test when the product loop reads them
            checked = []
            for sign, f, g in products:
                if f.is_zero() or g.is_zero():
                    zero_factors.append((f, g))
                    f, g = (s._like(s.order, _UnreadNums(s.nums), s.den) for s in (f, g))
                else:
                    live.append((f, g))
                checked.append((sign, f, g))
            return add_products(self, checked)

        data = cauchy_data(3, 8, *cli._builtin_cauchy_tables(3))
        want = solve_ricci_ivp(data)
        monkeypatch.setattr(JetSeries, "add_products", guarded)
        # the zero factors are there, and none of them reaches the product loop
        assert solve_ricci_ivp(data) == want
        assert len(zero_factors) > 0 and len(live) > 0


class TestResidualReport:
    def test_report_is_exactly_zero_on_solved_data(self):
        f = solve_ricci_ivp(_generic_data())
        rep = verify_ricci_flat(f, 2)
        assert rep == {"odd_ricci": 0.0, "even_bracket": 0.0, "constraint": 0.0}

    def test_even_bracket_detects_wrong_recursion_constant(self):
        f = solve_ricci_ivp(_generic_data())
        tampered = [s + s.z_coefficient(2).times_z_power(2) for s in f]
        rep = verify_ricci_flat(tampered, 2)
        assert rep["even_bracket"] > 0.0

    @pytest.mark.parametrize("tamper", ["double_z2", "z0_term", "z3_term", "truncated"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_rows_match_the_bracket_of_the_initial_slice(self, p, tamper):
        # the even row against its old route, B of the z^0 slices, and the
        # odd row against ricci_series, on solutions broken four ways
        data = _generic_data() if p == 2 else cauchy_data(3, 8, *cli._builtin_cauchy_tables(3))
        f = list(solve_ricci_ivp(data))
        n, order = 2 * p + 1, data.order
        x1_y1, z3_y1y2 = [0] * n, [0] * n
        x1_y1[1] = x1_y1[1 + p] = 1
        z3_y1y2[0], z3_y1y2[1 + p], z3_y1y2[2 + p] = 3, 1, 1
        if tamper == "double_z2":
            f = [s + s.z_coefficient(2).times_z_power(2) for s in f]
        elif tamper == "z0_term":
            f[1] = f[1] + JetSeries(n, order, {tuple(x1_y1): Fr(2, 7)})
        elif tamper == "z3_term":
            f[-1] = f[-1] + JetSeries(n, order, {tuple(z3_y1y2): Fr(1, 5)})
        else:
            f[0] = f[0].truncate(order - 1)
        even = bracket_series([s.z_coefficient(0) for s in f], p)
        rep = verify_ricci_flat(f, p)
        assert rep["even_bracket"] == max(
            (s.z_coefficient(2) + b).max_abs() for s, b in zip(f, even))
        assert rep["odd_ricci"] == max(s.max_abs() for s in ricci_series(f, p))
        if tamper in ("double_z2", "z0_term"):
            assert rep["even_bracket"] > 0.0
        if tamper == "z3_term":
            assert rep["odd_ricci"] > 0.0

    def test_float_cross_validation_against_geometry(self):
        f = solve_ricci_ivp(_generic_data())
        m = geometry.build_metric("PUREODD", f, p=2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            pt = rng.uniform(-0.01, 0.01, 5)
            num = geometry.ricci_numeric(m, pt)
            form = geometry.ricci_paper(m, pt)
            assert np.abs(num - form).max() < 1e-12
            # series Ricci is zero to order 4; only the truncation tail remains
            assert np.abs(num).max() < 1e-8


# degree <= 3 profiles in (z, x1, x2, y1, y2); the bracket has degree <= 4,
# so series of order 6 carry it without truncation
_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 5).filter(lambda e: sum(e) <= 3)
_TABLES = st.dictionaries(
    _EXPONENTS, st.fractions(min_value=-5, max_value=5, max_denominator=9), max_size=6)


class TestSharedBracket:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(tables=st.lists(_TABLES, min_size=3, max_size=3),
           point=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
    def test_series_bracket_matches_jet_bracket_at_a_point(self, tables, point):
        # the exact bracket against the displays' array bracket, read off
        # the order-2 jets at the point (x^k coordinate 1 + k, y_k 3 + k)
        series = [JetSeries(5, 6, t) for t in tables]
        exact = bracket_series(series, 2)
        ctx = JetContext(5, 2)
        coeffs = np.stack([s.jet(ctx, point, range(5)).c for s in series])
        at_point = geometry._array_bracket(coeffs, 5, 2, 1)
        for (j, l), s in zip(geometry.symmetric_pairs(2), exact):
            ref = s.evaluate(point)
            assert abs(at_point[j, l] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert at_point[l, j] == at_point[j, l]


class TestSpecRoundTrip:
    def test_data_from_spec_and_back(self):
        d = {"p": 2, "order": 6,
             "a": [{"coefficients": {"2,0,0,0": "1/2"}},
                   {"coefficients": {"1,1,0,0": "1/3"}},
                   {"coefficients": {"0,2,0,0": "-1/5"}}],
             "b": [{"coefficients": {}}, {"coefficients": {}},
                   {"coefficients": {}}]}
        data = cauchy_data_from_spec(d)
        assert data.p == 2 and data.order == 6
        assert data.a[0].coefficient((0, 2, 0, 0, 0)) == Fr(1, 2)
        assert data.max_constraint_residual() == 0.0
        f = solve_ricci_ivp(data)
        spec = series_to_spec(f[0])
        rebuilt = JetSeries(5, 6, {
            tuple(int(v) for v in k.split(",")): c
            for k, c in spec["coefficients"].items()})
        assert rebuilt == f[0]
