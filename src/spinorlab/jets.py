"""Truncated multivariate Taylor arithmetic.

A jet is a polynomial truncated at a fixed total degree, used to carry a
function value together with its partial derivatives at a base point.
A :class:`Jet` is a coefficient array: the monomial coefficients sit on
the last axis, and the axes before them index points and then the cells
of a scalar, vector or matrix (the metric components, a coframe).  A jet
of shape (P, n, n) holds one n x n matrix at each of P points, and a
single point is the (n, n) case of the same code.  A jet reads its
values, coefficients and partial derivatives, and a square matrix jet has
an inverse on its last two axes.
All jets attached to one :class:`JetContext` share the monomial basis and
the precomputed sparse multiplication table, so products and derivatives
of coefficient arrays are plain indexed numpy operations.
``shared_context`` hands out one read-only context per (nvars, order).

A jet is trusted to its context's order and carries no other.  ``diff``
lands one order lower, in the context ``shared_context(nvars, order - 1)``.
Reading a coefficient past the order raises :class:`JetOrderError`.  As
the monomials are ordered by degree, a lower context is a prefix of the
coefficients (:meth:`Jet.truncate`), and sums, products, inverses and
derivatives of prefixes equal the prefixes of the full results.

A derived jet lives in the context of the order its reader needs, not
that of its inputs: a quantity read through its first partials is formed
at order 1 even when it is built from the derivatives of order-2 jets.

:class:`JetSeries` is the sparse counterpart: an exact truncated
polynomial stored as {packed monomial: integer numerator} over one
positive denominator, in lowest terms, so ``==`` and ``hash`` compare
structure.  A packed monomial is one Python int, sum e_i 2^(64 i) +
deg 2^(64 nvars), so the key of a product is the sum of the keys and a
degree bound is a bound on the key; an exponent must be below 2^64, and
the constructor, or a product or z-shift that could reach it, raises
``ValueError``.  Exponent tuples appear only where a series is built or
read.  Arithmetic runs on Python ints: a sum scales each operand by the
lcm of the denominators; a series is built from (exponents, numerator,
denominator) triples (:meth:`JetSeries.from_ratios`), the constructor
reading an int or a float as such a pair with no Fraction; a sum of
products self + sum of w * f * g with integer weights w
(:meth:`JetSeries.add_products`, ``*`` its one-term case; a product that
occurs twice may be passed once with weight 2) fills one numerator map;
each result is reduced once.  A zero operand costs no loop, and
truncating to an order at or above the series' own returns the series.
A coefficient beyond the float range reads as +-inf in ``max_abs``,
``float_terms`` and ``evaluate``, and a nonzero one below it as
+-``math.ulp(0.0)``, never 0.0.  A normal form's profile function is such
a series, as is each series of the exact Cauchy solver.
:func:`expand` takes the jets of a list of such polynomials at points
(..., n) whose arguments are coordinates (argument i is y_i = p_i +
x_{v_i}), as one jet (..., P): one power table of the coordinates, one
weighted product and one bincount, with no jet products and the same
saturating read, from float coefficients converted once per series.  Its
index arrays depend only on each series' monomial support, its argument
variables and the context's size and order, so one bounded cache keyed by
those serves every draw of a normal form; it holds no series.
:meth:`JetSeries.jet` is the one-series case.  The leading axes index
points; a single point is the (n,) case.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np


class JetOrderError(Exception):
    """Requested data of higher degree than the jet can certify."""


def monomials_upto(nvars: int, order: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= order, by degree."""
    out = []
    for deg in range(order + 1):
        for combo in combinations_with_replacement(range(nvars), deg):
            exps = [0] * nvars
            for v in combo:
                exps[v] += 1
            out.append(tuple(exps))
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _exponent_rows(nvars: int, order: int) -> np.ndarray:
    """``monomials_upto(nvars, order)`` as a read-only integer array, one row each."""
    monomials = monomials_upto(nvars, order)
    rows = np.array(monomials, dtype=np.intp).reshape(len(monomials), nvars)
    return _frozen(rows)


@lru_cache(maxsize=None)
def shared_context(nvars: int, order: int) -> "JetContext":
    """The one JetContext for (nvars, order); building one costs up to tens of ms."""
    return JetContext(nvars, order)


class JetContext:
    """Shared basis and operation tables for jets in ``nvars`` variables.

    The tables are read-only, so one context can serve every caller; see
    :func:`shared_context`.
    """

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        self.monomials = tuple(monomials_upto(nvars, order))
        self.nmono = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}

        # Sparse multiplication table: products of basis monomials that
        # survive truncation, as parallel index arrays.
        mi, mj, mk = [], [], []
        for i, ei in enumerate(self.monomials):
            di = sum(ei)
            for j, ej in enumerate(self.monomials):
                if di + sum(ej) > order:
                    continue
                mi.append(i)
                mj.append(j)
                mk.append(self.index[tuple(a + b for a, b in zip(ei, ej))])
        self._mul_i = _frozen(np.array(mi, dtype=np.intp))
        self._mul_j = _frozen(np.array(mj, dtype=np.intp))
        self._mul_k = _frozen(np.array(mk, dtype=np.intp))

        # Per-variable differentiation maps: src monomial -> dst monomial
        # with integer factor (the exponent being lowered).
        self._dsrc, self._ddst, self._dfac = [], [], []
        for v in range(nvars):
            src, dst, fac = [], [], []
            for i, e in enumerate(self.monomials):
                if e[v] == 0:
                    continue
                lowered = list(e)
                lowered[v] -= 1
                src.append(i)
                dst.append(self.index[tuple(lowered)])
                fac.append(e[v])
            self._dsrc.append(_frozen(np.array(src, dtype=np.intp)))
            self._ddst.append(_frozen(np.array(dst, dtype=np.intp)))
            self._dfac.append(_frozen(np.array(fac, dtype=float)))

    # -- raw array kernels (last axis = monomial coefficients) -------------

    def _sum_products(self, vals: np.ndarray) -> np.ndarray:
        """Sum table products (first axis of ``vals``) by monomial: (T, ...) -> (nmono, ...).

        Each monomial sums its products in table order.
        """
        lead = vals.shape[1:]
        width = math.prod(lead)
        bins = self._mul_k
        if width != 1:
            bins = (bins[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(bins, weights=vals.ravel(), minlength=self.nmono * width)
        return out.reshape((self.nmono,) + lead)

    def mul_arrays(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """Entrywise product of jet arrays; only the tracer and the table tests call it."""
        # reversing the axes puts the products first and back last
        return self._sum_products((c1[..., self._mul_i] * c2[..., self._mul_j]).T).T

    def matmul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of jet matrices, shapes (..., n, k, nmono) x (..., k, m, nmono)."""
        products = np.moveaxis(a, -1, 0)[self._mul_i] @ np.moveaxis(b, -1, 0)[self._mul_j]
        return np.moveaxis(self._sum_products(products), 0, -1)

    def diff_arrays(self, c: np.ndarray, var: int) -> np.ndarray:
        """Partial derivative in ``var``, as coefficients of the context one order lower."""
        if self.order == 0:
            raise JetOrderError("an order-0 jet has no derivative")
        out = np.zeros(c.shape[:-1] + (math.comb(self.nvars + self.order - 1, self.nvars),))
        out[..., self._ddst[var]] = c[..., self._dsrc[var]] * self._dfac[var]
        return out

    # -- constructors -------------------------------------------------------

    def constant(self, value) -> "Jet":
        """Jet of a number or an array that does not vary."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.nmono,))
        c[..., 0] = value
        return Jet(self, c)


class Jet:
    """Truncated Taylor expansion of an array, trusted to ``ctx.order``.

    The monomial coefficients sit on the last axis of ``c``, so ``shape`` is
    () for a scalar at one point and (P, n, n) for a matrix at P points.
    """

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = np.asarray(coeffs, dtype=float)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[:-1]

    def truncate(self, order: int) -> "Jet":
        """The same jet in ``shared_context(nvars, order)``, for ``order`` at most its own.

        Monomials are ordered by degree, so this is a prefix of the
        coefficient axis.
        """
        if order > self.ctx.order:
            raise ValueError(f"cannot raise a jet of order {self.ctx.order} to {order}")
        ctx = shared_context(self.ctx.nvars, order)
        return Jet(ctx, self.c[..., :ctx.nmono])

    # -- extraction ---------------------------------------------------------

    def _read(self, k: int) -> float | np.ndarray:
        """Coefficient k: a float for a scalar jet, an array otherwise."""
        return float(self.c[k]) if not self.shape else self.c[..., k].copy()

    def value(self) -> float | np.ndarray:
        return self._read(0)

    def coefficient(self, exps: tuple[int, ...]) -> float | np.ndarray:
        deg = sum(exps)
        if deg > self.ctx.order:
            raise JetOrderError(
                f"degree {deg} coefficient requested, trusted only to {self.ctx.order}"
            )
        return self._read(self.ctx.index[tuple(exps)])

    def derivative_value(self, *vars_: int) -> float | np.ndarray:
        """Value of the mixed partial derivative (with factorial factors)."""
        j = self
        for v in vars_:
            j = j.diff(v)
        return j.value()

    # -- calculus -----------------------------------------------------------

    def diff(self, var: int) -> "Jet":
        """Partial derivative in ``var``, in the context one order lower."""
        c = self.ctx.diff_arrays(self.c, var)
        return Jet(shared_context(self.ctx.nvars, self.ctx.order - 1), c)

    def inv(self) -> "Jet":
        """Inverse of a square matrix jet on its last two axes."""
        if len(self.shape) < 2 or self.shape[-1] != self.shape[-2]:
            raise ValueError("square matrices only")
        a0inv = np.linalg.inv(self.c[..., 0])
        # A = A0 + H with H valueless, so A^-1 = sum (-A0^-1 H)^k A0^-1.
        h = self.c.copy()
        h[..., 0] = 0.0
        ninv = -np.einsum("...ik,...kjt->...ijt", a0inv, h)
        out = term = self.ctx.constant(np.broadcast_to(np.eye(self.shape[-1]), self.shape)).c
        for _ in range(self.ctx.order):
            term = self.ctx.matmul_arrays(ninv, term)
            out = out + term
        return Jet(self.ctx, np.einsum("...ikt,...kj->...ijt", out, a0inv))


class JetSeries:
    """Truncated multivariate power series with exact rational coefficients.

    Terms of total degree above ``order`` are dropped; multiplication
    truncates to the smaller operand order and differentiation lowers the
    trusted order by one.  ``nums`` maps packed monomials to integer
    numerators over ``den`` > 0, with gcd 1 (the zero series has ``den`` 1);
    see the module notes.  ``terms`` and ``coefficient`` read Fractions.
    """

    __slots__ = ("nvars", "order", "nums", "den", "_floats")

    def __init__(self, nvars: int, order: int, terms=None):
        ratios = []
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if (len(exps) != int(nvars) or min(exps, default=0) < 0
                    or max(exps, default=0) > _DIGIT_MASK):
                raise ValueError(f"bad exponent tuple {exps}")
            ratios.append((exps, *_ratio(coeff)))
        self._fill(nvars, order, ratios)

    @classmethod
    def from_ratios(cls, nvars: int, order: int, ratios) -> "JetSeries":
        """Sum of num / den x^exps over the (exps, num, den) of ``ratios``.

        Each ``exps`` is a tuple of ``nvars`` ints in [0, 2^64) and each
        ``den`` a positive int; a repeated ``exps`` adds up.  The public
        constructor converts its terms to such triples and comes here too.
        """
        out = cls.__new__(cls)
        out._fill(nvars, order, ratios)
        return out

    def _fill(self, nvars: int, order: int, ratios) -> None:
        """Set the fields from (exps, num, den) triples: one lcm, one reduction."""
        self.nvars = nvars = int(nvars)
        self.order = order = int(order)
        if nvars < 0:
            raise ValueError(f"a series needs nvars >= 0, got {nvars}")
        pack, shift = _digits(nvars).pack, _DIGIT_BITS * nvars
        keyed = [(int.from_bytes(pack(*exps), "little") + (deg << shift), n, d)
                 for exps, n, d in ratios if (deg := sum(exps)) <= order]
        den = math.lcm(*(d for _, _, d in keyed))
        nums = {}
        for key, n, d in keyed:
            nums[key] = nums.get(key, 0) + n * (den // d)
        self.nums, self.den = _lowest({k: n for k, n in nums.items() if n}, den)
        self._floats = None

    @classmethod
    def zero(cls, nvars: int, order: int) -> "JetSeries":
        return cls(nvars, order)

    @property
    def terms(self) -> MappingProxyType:
        """The {exponents: Fraction} terms, read-only, built anew on each read."""
        return MappingProxyType({_unpack(k, self.nvars): Fraction(n, self.den)
                                 for k, n in self.nums.items()})

    @property
    def arity(self) -> int:
        """``nvars``; only the benchmark's spec writer (``perfbench/workloads.py``) reads it."""
        return self.nvars

    @property
    def table(self) -> MappingProxyType:
        """``terms``; only the benchmark's spec writer (``perfbench/workloads.py``) reads it."""
        return self.terms

    def coefficient(self, exps) -> Fraction:
        """The coefficient of x^exps; 0 for a tuple no term can have."""
        try:
            key = _pack(tuple(int(e) for e in exps), self.nvars)
        except struct.error:  # a wrong length, or an exponent outside [0, 2^64)
            return Fraction(0)
        return Fraction(self.nums.get(key, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def float_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponent rows and float coefficients of the terms, in sorted exponent order.

        The keys' exponent digits are read in one buffer, and the rows
        sorted lexicographically, first variable first.
        """
        nvars, low = self.nvars, _low_mask(self.nvars)
        digits = b"".join([(k & low).to_bytes(8 * nvars, "little") for k in self.nums])
        exps = np.frombuffer(digits, dtype="<i8").reshape(len(self.nums), nvars)
        if (exps < 0).any():  # an exponent of 2^63 or more reads as negative
            raise OverflowError("an exponent does not fit a machine integer")
        # a series in no variables has at most its constant term: nothing to sort
        rank = np.lexsort(exps.T[::-1]) if nvars else np.arange(len(self.nums))
        nums = list(self.nums.values())
        floats = np.array([_saturating_float(nums[i], self.den) for i in rank.tolist()])
        return _frozen(exps[rank].astype(np.intp, copy=False)), _frozen(floats)

    def max_abs(self) -> float:
        top = max(map(abs, self.nums.values()), default=0)
        return _saturating_float(top, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, JetSeries) and self.nvars == other.nvars
                and self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.order, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        return f"JetSeries(nvars={self.nvars}, order={self.order}, nterms={len(self.nums)})"

    def _like(self, order: int, nums: dict, den: int = 1) -> "JetSeries":
        """Result of internal arithmetic, ``nums`` over ``den`` already in lowest terms.

        Skips the public constructor's checks: ``nums`` has well-formed
        packed keys within ``order`` and no zero numerator.
        """
        out = JetSeries.__new__(JetSeries)
        out.nvars = self.nvars
        out.order = order
        out.nums = nums
        out.den = den
        out._floats = None
        return out

    def _reduced(self, order: int, nums: dict, den: int) -> "JetSeries":
        """:meth:`_like` after dividing out the common content of ``den`` and ``nums``."""
        return self._like(order, *_lowest(nums, den))

    def _digit(self, var) -> int:
        """The bit offset of variable ``var``'s exponent, indexed as a tuple would be."""
        return _DIGIT_BITS * range(self.nvars)[var]

    def _combine(self, other: "JetSeries", sign: int) -> "JetSeries":
        """self + sign * other, in the lower order of the two."""
        self._check(other)
        order = min(self.order, other.order)
        if not other.nums:
            return self.truncate(order)
        if not self.nums:
            return (other if sign > 0 else -other).truncate(order)
        den = math.lcm(self.den, other.den)
        left, right = den // self.den, sign * (den // other.den)
        out = {k: n * left for k, n in _upto(self.nums, self.order, order, self.nvars).items()}
        for k, n in _upto(other.nums, other.order, order, self.nvars).items():
            total = out.get(k, 0) + n * right
            if total:
                out[k] = total
            else:
                del out[k]
        return self._reduced(order, out, den)

    def __add__(self, other: "JetSeries") -> "JetSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "JetSeries") -> "JetSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "JetSeries":
        return self._like(self.order, {k: -n for k, n in self.nums.items()}, self.den)

    def add_products(self, products) -> "JetSeries":
        """self + sum of w * f * g over the (w, f, g) of ``products``, w any int weight.

        A product that occurs twice may come once with weight 2.  The result
        is trusted to the lowest order of self and every factor, a zero
        factor included, as the sum formed one product at a time is.
        A product with a zero factor forms no term.  The others are summed
        in one {key: numerator} map over D, the lcm of self's and each
        product's denominator, each weighted by w * D / (f.den * g.den); a
        term pair's key is the sum of its keys.  The right terms are taken
        by degree, so each left term stops at the first pair whose key
        passes the order's bound, and a left term past it is skipped.  Zero
        sums are dropped and the content divided out once.  An order of
        2^64 or more, which would let an exponent pass its digit, raises
        ``ValueError``.
        """
        order = self.order
        live = []
        for weight, f, g in products:
            self._check(f)
            self._check(g)
            order = min(order, f.order, g.order)
            if f.nums and g.nums:
                live.append((weight, f, g))
        if not live:
            return self.truncate(order)
        if order > _DIGIT_MASK:
            raise ValueError(f"a product of order {order} may hold an exponent past 2^64")
        shift = _DIGIT_BITS * self.nvars
        limit = _key_limit(order, self.nvars)
        den = math.lcm(self.den, *(f.den * g.den for _, f, g in live))
        scale = den // self.den
        out = {k: n * scale for k, n in _upto(self.nums, self.order, order, self.nvars).items()}
        for weight, f, g in live:
            weight *= den // (f.den * g.den)
            rows = sorted(g.nums.items(), key=lambda row: row[0] >> shift)
            for k1, n1 in f.nums.items():
                if k1 >= limit:
                    continue
                n1 *= weight
                for k2, n2 in rows:
                    k = k1 + k2
                    if k >= limit:
                        break
                    out[k] = out.get(k, 0) + n1 * n2
        return self._reduced(order, {k: n for k, n in out.items() if n}, den)

    def __mul__(self, other):
        if isinstance(other, JetSeries):
            return self._like(self.order, {}).add_products(((1, self, other),))
        top, bottom = _ratio(other)
        if not top or not self.nums:
            return self._like(self.order, {})
        return self._reduced(self.order, {k: n * top for k, n in self.nums.items()},
                             self.den * bottom)

    __rmul__ = __mul__

    def _check(self, other: "JetSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts disagree")

    def diff(self, var: int) -> "JetSeries":
        at = self._digit(var)
        step = (1 << at) + (1 << _DIGIT_BITS * self.nvars)
        out = {}
        for k, n in self.nums.items():
            e = k >> at & _DIGIT_MASK
            if e:
                out[k - step] = n * e
        return self._reduced(self.order - 1, out, self.den)

    def truncate(self, order: int) -> "JetSeries":
        """The series to total degree ``order``; itself when that is at or above its order."""
        order = int(order)
        if order >= self.order:
            return self
        return self._reduced(order, _upto(self.nums, self.order, order, self.nvars), self.den)

    def z_coefficient(self, k: int) -> "JetSeries":
        """Coefficient of z^k: a series in the same variables, z-free."""
        k = int(k)
        drop = k * (1 + (1 << _DIGIT_BITS * self.nvars))
        out = {key - drop: n for key, n in self.nums.items() if key & _DIGIT_MASK == k}
        return self._reduced(self.order - k, out, self.den)

    def times_z_power(self, k: int) -> "JetSeries":
        """z^k times the series, for k >= 0; an order of 2^64 or more raises ``ValueError``."""
        k = int(k)
        order = self.order + k
        if k < 0 or (self.nums and order > _DIGIT_MASK):
            raise ValueError(f"z^{k} of a series of order {self.order} leaves the exponent range")
        lift = k * (1 + (1 << _DIGIT_BITS * self.nvars))
        return self._like(order, {key + lift: n for key, n in self.nums.items()}, self.den)

    def depends_on(self, var: int) -> bool:
        at = self._digit(var)
        return any(k >> at & _DIGIT_MASK for k in self.nums)

    def jet(self, ctx: JetContext, points, variables) -> Jet:
        """The jet in ``ctx`` at ``points``, argument i being coordinate ``variables[i]``.

        ``points`` is (..., ctx.nvars) and the jet has the leading shape: the
        one-profile case of :func:`expand`.
        """
        return Jet(ctx, expand(((self, variables),), ctx, points).c[..., 0, :])

    def _float_rows(self) -> tuple[bytes, np.ndarray]:
        """:meth:`float_terms` with the exponent rows as bytes, converted once per series."""
        if self._floats is None:
            exps, floats = self.float_terms()
            self._floats = exps.tobytes(), floats
        return self._floats

    def evaluate(self, point) -> float:
        point = np.asarray(point, dtype=float)
        total = 0.0
        for k, n in self.nums.items():
            exps = _unpack(k, self.nvars)
            total += _saturating_float(n, self.den) * float(np.prod(point ** np.asarray(exps)))
        return total


# one 64-bit digit per exponent of a packed monomial key, the degree above them
_DIGIT_BITS = 64
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


@lru_cache(maxsize=None)
def _digits(nvars: int) -> struct.Struct:
    """The little-endian layout of ``nvars`` exponent digits."""
    return struct.Struct(f"<{nvars}Q")


def _low_mask(nvars: int) -> int:
    """The bits of a key's ``nvars`` exponent digits, below its degree."""
    return (1 << _DIGIT_BITS * nvars) - 1


def _key_limit(order: int, nvars: int) -> int:
    """The least key of total degree above ``order``."""
    return (order + 1) << _DIGIT_BITS * nvars


def _pack(exps: tuple, nvars: int) -> int:
    """The key of exponent tuple ``exps``; ``struct.error`` unless it is ``nvars`` digits."""
    digits = int.from_bytes(_digits(nvars).pack(*exps), "little")
    return digits + (sum(exps) << _DIGIT_BITS * nvars)


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a key."""
    return _digits(nvars).unpack((key & _low_mask(nvars)).to_bytes(8 * nvars, "little"))


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """Nonzero numerators over a positive ``den``, with their common content divided out."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return nums, den


def _upto(nums: dict, have: int, order: int, nvars: int) -> dict:
    """The terms of total degree <= ``order`` of numerators trusted to ``have``."""
    if have <= order:
        return nums
    limit = _key_limit(order, nvars)
    return {k: n for k, n in nums.items() if k < limit}


def expand(profiles, ctx: JetContext, points) -> Jet:
    """Jets in ``ctx`` at ``points`` of the (series, argument variables) of ``profiles``.

    Argument i of a series is coordinate ``variables[i]``.  ``points`` is
    (..., ctx.nvars) and the jet has shape (..., P), one profile after the
    other.  One power table of the coordinates, one weighted product and one
    bincount serve every profile and point, over the cached structure of
    :func:`_shift_structure`; each bin sums its profile's terms in the same
    order as that profile's expansion on its own.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (ctx.nvars,):
        raise ValueError("need one value per variable")
    shapes, coeffs = [], []
    for f, variables in profiles:
        variables = tuple(variables)
        if len(variables) != f.nvars:
            raise ValueError(f"series takes {f.nvars} arguments, got {len(variables)}")
        rows, floats = f._float_rows()
        shapes.append((rows, len(floats), variables))
        coeffs.append(floats)
    gaps, at, terms, binom, cols = _shift_structure(tuple(shapes), ctx.nvars, ctx.order)
    lead = points.shape[:-1]
    count = math.prod(lead)
    width = len(shapes) * ctx.nmono
    # row v len(gaps) + g: coordinate v to the power gaps[g], at every point
    coords = points.reshape(count, ctx.nvars).T
    powers = (coords[:, None, :] ** gaps[:, None]).reshape(-1, count)
    # each pair's factors multiplied left to right, as a product over them is
    picked = powers[at[0]]
    for factor in at[1:]:
        picked = picked * powers[factor]
    weights = np.concatenate(coeffs)[terms, None] * (binom[:, None] * picked)
    # point r's bins come after those of the points before it; a bin takes
    # its pairs in order whatever the layout
    bins = cols[:, None] + np.arange(count) * width
    out = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=count * width)
    return Jet(ctx, out.reshape(lead + (len(shapes), ctx.nmono)))


# Structures held by the cache of _shift_structure; every op of the
# benchmark's metric-certify plans at seeds 90 and 7 needs 36 together.
_SHIFT_STRUCTURES = 128


@lru_cache(maxsize=_SHIFT_STRUCTURES)
def _shift_structure(shapes: tuple, nvars: int, order: int) -> tuple[np.ndarray, ...]:
    """Index arrays that expand polynomials of the given supports at coordinates.

    ``shapes`` lists per profile its exponent rows (the bytes of
    :meth:`JetSeries.float_terms`' intp rows), its term count and its
    argument variables; the context is (nvars, order).  For P(y) = sum_a c_a
    y^a at y_i = p_i + x_{v_i}, the coefficient of x^E(b) is sum_a c_a prod_i
    binom(a_i, b_i) p_i^(a_i - b_i), where E(b) puts b_i on variable v_i.
    Over the pairs (a, b) with b <= a and |b| within the order, profile by
    profile, this returns: the distinct gaps a_i - b_i, 0 among them; a
    (factor, pair) array of the rows v_i len(gaps) + (gap index) of the
    (nvars, gaps) power table, padded with x_0^0 = 1 to the widest arity
    and at least one factor; each pair's term in the profiles' concatenated
    coefficients; its binomial weight; and its bin, profile p's column E(b)
    offset by p nmono.  Only the exponents, never the largest of them, size
    the tables.
    """
    index = shared_context(nvars, order).index
    steps = np.arange(order + 1)
    terms, binoms, gaps, cols = [], [], [], []
    offset = 0
    for p, (rows, count, variables) in enumerate(shapes):
        for v in variables:
            if not 0 <= v < nvars:
                raise ValueError(f"argument variable {v} is not one of the {nvars} coordinates")
        k = len(variables)
        alphas = np.frombuffer(rows, dtype=np.intp).reshape(count, k)
        betas = _exponent_rows(k, order)
        fits = np.ones((count, len(betas)), dtype=bool)
        for i in range(k):
            fits &= betas[:, i] <= alphas[:, i, None]
        a, b = np.nonzero(fits)
        # per distinct exponent e: binom(e, j) for j <= order, each step's
        # product an integer (exact as a float below 2^53)
        exps = np.unique(alphas)
        binom = np.ones((len(exps), len(steps)))
        for j in steps[1:]:
            binom[:, j] = binom[:, j - 1] * (exps - j + 1) / j
        cell = np.searchsorted(exps, alphas)[a] * len(steps) + betas[b]
        binoms.append(binom.ravel()[cell].prod(axis=1))
        place = np.zeros((k, nvars), dtype=np.intp)
        place[np.arange(k), variables] = 1
        placed = [index[tuple(e)] for e in (betas @ place).tolist()]
        cols.append(np.array(placed, dtype=np.intp)[b] + p * len(index))
        terms.append(a + offset)
        gaps.append(alphas[a] - betas[b])
        offset += count
    gap_set = np.unique(np.concatenate([np.zeros(1, dtype=np.intp)] + [g.ravel() for g in gaps]))
    at = np.zeros((max([1, *(len(v) for _, _, v in shapes)]), sum(map(len, terms))), dtype=np.intp)
    start = 0
    for gap, (_, _, variables) in zip(gaps, shapes):
        at[:len(variables), start:start + len(gap)] = (
            np.array(variables, dtype=np.intp) * len(gap_set) + np.searchsorted(gap_set, gap)).T
        start += len(gap)
    return tuple(map(_frozen, (gap_set, at, np.concatenate(terms), np.concatenate(binoms),
                               np.concatenate(cols))))


def _ratio(val) -> tuple[int, int]:
    """A number as (numerator, positive denominator) in lowest terms, exactly.

    An int is (val, 1) and a float its ``as_integer_ratio()`` (dyadic); any
    other value goes through one ``Fraction``, so a rational string parses.
    """
    if isinstance(val, float):
        return val.as_integer_ratio()
    if isinstance(val, int) and not isinstance(val, bool):
        return val, 1
    val = val if isinstance(val, Fraction) else Fraction(val)
    return val.numerator, val.denominator


def _saturating_float(num: int, den: int) -> float:
    """num / den as a float, never losing its sign or its nonzero-ness.

    An exact value past the float range reads as +-inf, and a nonzero one
    below it as +-``math.ulp(0.0)`` rather than 0.0.
    """
    try:
        val = num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf
    if val == 0.0 and num:
        return math.copysign(math.ulp(0.0), num)
    return val
