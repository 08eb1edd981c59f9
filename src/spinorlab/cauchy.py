"""Recursive power-series solver for the Ricci-flat initial value problem.

The odd split-signature normal form reduces Ricci-flatness to a second
order evolution in the distinguished coordinate z for the profile matrix
f_jl(z, x, y): the z^2-coefficients are determined recursively from lower
z-degrees through the quadratic bracket that also governs the even case.
This module holds that bracket on exact series; the Ricci displays of
``geometry`` evaluate it in floats at a point.  With rational data the
recursion is exact, so the constraint-propagation statement
(divergence-type residuals stay zero) becomes a zero-tolerance identity
check rather than a numerical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    _fmatrix,
    _spec_entry,
    _spec_fields,
    _spec_function_list,
    _spec_integer,
    _spec_ratios,
    symmetric_pairs,
)
from .jets import _DIGIT_MASK, JetSeries


# -- initial data ---------------------------------------------------------


@dataclass(frozen=True)
class CauchyData:
    """Initial profile and velocity on the z = 0 slice.

    a and b are symmetric arrays in pair order (i <= j, row major), stored
    as z-independent series in all 2p+1 variables.
    """

    p: int
    order: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("block size p must be at least 1")
        npairs = self.p * (self.p + 1) // 2
        if self.order < 2:
            raise ValueError("truncation order must be at least 2")
        if self.order > _DIGIT_MASK:
            # a packed series key holds each exponent in one 64-bit digit
            raise ValueError(f"truncation order {self.order} is past 2^64 - 1")
        if len(self.a) != npairs or len(self.b) != npairs:
            raise ValueError(f"need {npairs} series for p = {self.p}")
        for s in self.a + self.b:
            if s.nvars != 2 * self.p + 1:
                raise ValueError("series must use the z,x,y variable layout")
            if s.order != self.order:
                raise ValueError("series must be truncated at the data's order")
            if s.depends_on(0):
                raise ValueError("initial data must not depend on z")

    def constraint_residuals(self):
        """A_l of a and of b: exact divergence series of the data."""
        return tuple(constraint_residual(layer, self.p) for layer in (self.a, self.b))

    def max_constraint_residual(self) -> float:
        return max((s.max_abs() for layer in self.constraint_residuals()
                    for s in layer), default=0.0)


def _check_counts(p: int, a_entries, b_entries=None) -> None:
    """Refuse p < 1, and an a or b list (b None for none) whose length is not p(p+1)/2."""
    if p < 1:
        raise ValueError("block size p must be at least 1")
    npairs = p * (p + 1) // 2
    if len(a_entries) != npairs or (b_entries is not None and len(b_entries) != npairs):
        raise ValueError(f"need {npairs} series for p = {p}")


def cauchy_data(p: int, order: int, a_tables, b_tables=None) -> CauchyData:
    """Data from {exponents: rational} tables over (x^1..x^p, y_1..y_p), counted before lifting."""
    _check_counts(p, a_tables, b_tables)
    if b_tables is None:
        b_tables = [{}] * len(a_tables)

    def lift(table):
        lifted = {(0,) + tuple(e): c for e, c in table.items()}
        return JetSeries(2 * p + 1, order, lifted)

    return CauchyData(p, order, tuple(lift(t) for t in a_tables),
                      tuple(lift(t) for t in b_tables))


def cauchy_data_from_spec(d: dict) -> CauchyData:
    """Data from the JSON polynomial format shared with geometry specs."""
    _spec_fields(d, ("p", "order", "a", "b"))
    p = _spec_integer(_spec_entry(d, "p"), "p")
    order = _spec_integer(d.get("order", 6), "order")
    entries = {key: _spec_function_list(d.get(key, []), key) for key in ("a", "b")}
    # counted before any table is read, so a huge p reads nothing
    _check_counts(p, entries["a"], entries["b"] or None)

    def layer(key):
        out = []
        for fd in entries[key]:
            ratios = _spec_ratios(_spec_entry(fd, "coefficients"), 2 * p)
            _spec_fields(fd, ("name", "arity", "coefficients"))
            # a profile takes the 2p arguments (x^1..x^p, y_1..y_p)
            if "arity" in fd and _spec_integer(fd["arity"], "arity") != 2 * p:
                raise ValueError(f"{key} entry arity must be 2p = {2 * p}, got {fd['arity']!r}")
            lifted = [((0,) + e, num, den) for e, num, den in ratios]
            out.append(JetSeries.from_ratios(2 * p + 1, order, lifted))
        return tuple(out)

    a = layer("a")
    return CauchyData(p, order, a, layer("b") or (JetSeries.zero(2 * p + 1, order),) * len(a))


def series_to_spec(series: JetSeries) -> dict:
    coeffs = {",".join(str(e) for e in exps): str(coeff)
              for exps, coeff in sorted(series.terms.items())}
    return {"arity": series.nvars, "coefficients": coeffs}


# -- the quadratic bracket --------------------------------------------------
#
# Series in (z, x^1..x^p, y_1..y_p): x^k is variable 1 + k, y_k is 1 + p + k.


def _bracket_parts(grid):
    """``grid`` with the y-derivatives the bracket's product part reads.

    Returns (grid, dy, dyy) with dy[i][j][k] = f_ij,y_k (shared by the
    symmetric entries) and dyy[t][m][k] = f_jl,y_m y_k for the t-th pair (j, l)
    (shared by (m, k) and (k, m)).
    """
    p = len(grid)
    pairs = symmetric_pairs(p)
    dy = _fmatrix([[grid[j][l].diff(1 + p + k) for k in range(p)] for j, l in pairs],
                  pairs, p)
    dyy = [_fmatrix([dy[j][l][m].diff(1 + p + k) for m, k in pairs], pairs, p)
           for j, l in pairs]
    return grid, dy, dyy


def _bracket_linear(grid) -> list:
    """Linear part of the bracket: L_jl = f_jl,x^k y_k (summed), pair order."""
    p = len(grid)
    out = []
    for j, l in symmetric_pairs(p):
        total = grid[j][l].diff(1).diff(1 + p)
        for k in range(1, p):
            total = total + grid[j][l].diff(1 + k).diff(1 + p + k)
        out.append(total)
    return out


def _add_bracket_products(totals: list, factors) -> list:
    """Add Q_jl(f, g) = -f_mk g_jl,y_m y_k + f_mj,y_k g_kl,y_m to ``totals``, per (f, g).

    f and g are :func:`_bracket_parts`; Q(f, f) is the bracket's product
    part.  f_mk and g_jl,y_m y_k are symmetric in (m, k), so their product
    is passed once per m <= k, with weight -2 when m < k; the p^2 products
    f_mj,y_k g_kl,y_m follow.  Each pair's products for all (f, g) go to
    its total's ``add_products`` in one call, and the total is replaced in
    place.
    """
    p = len(factors[0][0][0])
    pairs = symmetric_pairs(p)
    for t, (j, l) in enumerate(pairs):
        products = []
        for (f_grid, f_dy, _), (_, g_dy, g_dyy) in factors:
            products += [(-1 if m == k else -2, f_grid[m][k], g_dyy[t][m][k]) for m, k in pairs]
            products += [(1, f_dy[m][j][k], g_dy[k][l][m]) for m in range(p) for k in range(p)]
        totals[t] = totals[t].add_products(products)
    return totals


def bracket_series(flat, p: int):
    """B_jl = f_jl,x^k y_k - f_mk f_jl,y_m y_k + f_mj,y_k f_kl,y_m (summed), pair order.

    The same quadratic bracket drives both split cases: for z-independent
    series it is the even-system Ricci up to the calibrated constant.
    B = L + Q(f, f) (:func:`_bracket_linear`, :func:`_add_bracket_products`).
    """
    grid = _fmatrix(flat, symmetric_pairs(p), p)
    parts = _bracket_parts(grid)
    return tuple(_add_bracket_products(_bracket_linear(grid), [(parts, parts)]))


# -- solver ------------------------------------------------------------------


def solve_ricci_ivp(data: CauchyData, check_constraints: bool = True):
    """Solve f_zz = -2 B(f) with f|_{z=0} = a, f_z|_{z=0} = b.

    Returns the symmetric profile array (pair order) as series of total
    degree <= N.  f is built from its z-slices S_k, the z-free coefficients
    of z^k, trusted to degree N - k.  With B = L + Q(f, f), L linear and Q
    bilinear, and x, y derivatives keeping z-degrees, the z^m coefficient
    of B(f) is L(S_m) + sum_{i<=m} Q(S_i, S_{m-i}) up to degree N - 2 - m,
    and it fixes S_{m+2}: the recursion is triangular and, with rational
    data, exact.  Each slice's y-derivatives are formed once.  L(S_m) is
    trusted to that degree, so each pair's products, all summed onto it in
    one call, form no term past it.
    """
    if check_constraints and data.max_constraint_residual() != 0.0:
        raise ValueError("initial data violates the divergence constraints")
    p, order = data.p, data.order
    pairs = symmetric_pairs(p)
    slices = [list(data.a), [b.truncate(order - 1) for b in data.b]]
    parts = []  # bracket parts of each final slice; None for a zero slice
    for m in range(order - 1):
        grid = _fmatrix(slices[m], pairs, p)
        empty = all(s.is_zero() for s in slices[m])
        parts.append(None if empty else _bracket_parts(grid))
        totals = _bracket_linear(grid)
        factors = [(parts[i], parts[m - i]) for i in range(m + 1)
                   if parts[i] is not None and parts[m - i] is not None]
        if factors:
            _add_bracket_products(totals, factors)
        scale = Fraction(-2, (m + 2) * (m + 1))
        slices.append([s * scale for s in totals])
    zero = JetSeries.zero(2 * p + 1, order)
    return tuple(sum((s.times_z_power(k) for k, s in enumerate(column)), zero)
                 for column in zip(*slices))


def constraint_residual(f, p: int):
    """Divergence series A_l = sum_j df_jl/dy_j of a solved profile array."""
    grid = _fmatrix(f, symmetric_pairs(p), p)
    zero = JetSeries.zero(2 * p + 1, grid[0][0].order - 1)
    return tuple(sum((grid[j][l].diff(1 + p + j) for j in range(p)), zero) for l in range(p))


def _ricci(f, bracket):
    """Odd-case Ricci series -(f_jl,zz + 2 B_jl) from the bracket B of f, pair order."""
    return tuple(-(s.diff(0).diff(0) + 2 * b) for s, b in zip(f, bracket))


def ricci_series(f, p: int):
    """Odd-case Ricci series -(f_jl,zz + 2 B_jl), pair order."""
    f = tuple(f)
    return _ricci(f, bracket_series(f, p))


def verify_ricci_flat(f, p: int) -> dict:
    """Residual report for a solved profile array.

    odd_ricci: max coefficient of the odd closed-form Ricci series (trusted
    to order N-2).  even_bracket: the even-system bracket of the initial
    slice must equal the z^2 coefficient up to the recursion constant,
    tying the even pipeline to the same quadratic bracket.  The bracket
    differentiates in x and y only, so B(a), a the z^0 slice, is the z^0
    coefficient of B(f), to the same order: the full bracket is formed once.
    constraint: max coefficient over the divergence series A_l.
    """
    f = tuple(f)
    bracket = bracket_series(f, p)
    even_res = 0.0
    for s, b in zip(f, bracket):
        # phi_2 = -B(a): the first recursion step is the even system's value
        mismatch = s.z_coefficient(2) + b.z_coefficient(0)
        even_res = max(even_res, mismatch.max_abs())
    return {
        "odd_ricci": max(s.max_abs() for s in _ricci(f, bracket)),
        "even_bracket": even_res,
        "constraint": max(s.max_abs() for s in constraint_residual(f, p)),
    }
