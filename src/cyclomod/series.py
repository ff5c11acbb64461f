"""Exact power series attached to each power class.

For class j define I_j(T) = sum c_k T^k by c_0 = 1 and

    c_k = -(1/k) * sum_{l=0}^{k-1} c_l * n(k-1-l, j).

This makes -I_j'/I_j the generating series sum_k n(k, j) T^k, so the
difference D = 1/(1 - f*T) - I_j'/I_j has k-th coefficient
D_k = f^k + n(k, j), which is p times the representation count.  Its
valuation (index of the first nonzero coefficient) is therefore the minimal
representation length for the class with class(-a) = j, giving a third,
series-side route to the same answer.

The valuation is read without inverting I_j.  I_j and 1 - f*T both have
constant term 1, so both are units of Q[[T]], and

    I_j - (1 - f*T) * I_j' = (1 - f*T) * I_j * D

has the same valuation as D and the same leading coefficient.  Its k-th
coefficient is (1 + f*k) c_k - (k+1) c_{k+1}.  k! * c_k is always an
integer (immediate from the recurrence by induction), so the scan runs on
C_k = k! c_k, where that coefficient becomes E_k = (1 + f*k) C_k - C_{k+1}
and each step is one binomial-weighted integer convolution.  No Fraction
is built or normalised, and the zero test is exact integer arithmetic.

The one exactness check sits at the valuation v: E_v = v! * D_v =
v! * p * N(v, a), so E_v must be a positive multiple of v! * p, and
SanityFailure is raised otherwise.  Fraction remains only in i_series,
the public exact view of I_j, whose integrality the test suite asserts
independently.  Floating point is banned in this module because the
valuation is a strict zero test.

For j = 0 the series is the reversed period polynomial: all coefficients
past degree d vanish.  For j != 0 it is never a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from weakref import WeakKeyDictionary

from .errors import AllZeroToOrder, SanityFailure, ScaleGuard
from .waring import NSequence

#: Cap on the truncation order of i_series.  The exact Fraction recurrence
#: costs roughly order^3.  On a 2-vCPU host with CPython 3.11, order 400
#: takes ~1.2 s at p = 7, d = 3 and ~3.7 s at p = 4194301, d = 4, while
#: order 1200 at p = 7 takes ~30 s.
MAX_SERIES_ORDER = 400

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalSeries:
    """A truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        """Truncation order: coefficients 0..order are meaningful."""
        return len(self.coeffs) - 1

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None


def require_order(order: int) -> None:
    """Refuse a truncation order below 0 or above MAX_SERIES_ORDER."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > MAX_SERIES_ORDER:
        raise ScaleGuard(
            f"series order {order} is over the cap of {MAX_SERIES_ORDER}"
        )


def i_series(seq: NSequence, j: int, order: int) -> RationalSeries:
    """The class series I_j to the given truncation order."""
    require_order(order)
    j %= seq.ctx.d
    if order >= 1:
        seq.extend(order - 1)
    nvals = [seq.n(k, j) for k in range(order)]
    c = [_ONE]
    for k in range(1, order + 1):
        acc = _ZERO
        for l in range(k):
            acc += c[l] * nvals[k - 1 - l]
        c.append(-acc / k)
    return RationalSeries(tuple(c))


class _Pascal:
    """Binomial rows binom(k, 0..k) and factorials k!, grown on demand."""

    def __init__(self):
        self.rows = [[1]]
        self.factorials = [1]

    def grow(self) -> None:
        """Append the next row and the next factorial."""
        last = self.rows[-1]
        self.rows.append([1, *map(add, last, last[1:]), 1])
        self.factorials.append(self.factorials[-1] * len(self.factorials))


# One _Pascal per field context: every class of one (p, d) reuses the rows,
# and they are dropped with the context.  Keyed on seq.ctx alone, so any
# sequence exposing ctx, n and extend shares them.
_PASCAL: WeakKeyDictionary = WeakKeyDictionary()


def _difference_terms(seq: NSequence, j: int, order: int):
    """Yield (k, E_k) for k = 0..order, one coefficient at a time.

    E_k is k! times the k-th coefficient of I_j - (1 - f*T) * I_j'.  With
    C_k = k! c_k and N_t = t! n(t, j), step k does one convolution:

        C_{k+1} = -sum_{l<=k} binom(k, l) C_l N_{k-l}
        E_k = (1 + f*k) C_k - C_{k+1}

    The binomial rows and factorials come from the context's shared
    _Pascal.  Terms are lazy, so a caller hunting for the valuation stops
    at the first nonzero coefficient.
    """
    ctx = seq.ctx
    j %= ctx.d
    pascal = _PASCAL.get(ctx)
    if pascal is None:
        pascal = _PASCAL[ctx] = _Pascal()
    rows, facts = pascal.rows, pascal.factorials
    f = ctx.f
    big_c = [1]  # C_0..C_k
    big_n: list[int] = []  # N_0..N_k
    for k in range(order + 1):
        if k == len(rows):
            pascal.grow()
        big_n.append(facts[k] * seq.n(k, j))
        following = -sum(map(mul, map(mul, rows[k], big_c), reversed(big_n)))
        yield k, (1 + f * k) * big_c[-1] - following
        big_c.append(following)


def log_derivative_ord(seq: NSequence, j: int) -> int:
    """Valuation of the difference series: the series route to the answer.

    One lazy scan runs to order max(d + 2, 2d) (past d, the most any
    reachable class needs) and stops at the first nonzero coefficient; an
    all-zero series at that order raises AllZeroToOrder, for the caller to
    route to the brute-force oracle.  That leading
    coefficient E_v = v! * p * N(v, a) must be a positive multiple of
    v! * p; anything else raises SanityFailure.
    """
    ctx = seq.ctx
    cap = max(ctx.d + 2, 2 * ctx.d)
    for k, lead in _difference_terms(seq, j, cap):
        if lead:
            if lead < 0 or lead % (math.factorial(k) * ctx.p):
                raise SanityFailure(
                    f"leading coefficient {k}! * D_{k} = {lead} is not a "
                    f"positive multiple of {k}! * p for class j={j} "
                    f"(p={ctx.p}, d={ctx.d})"
                )
            return k
    raise AllZeroToOrder(
        f"difference series vanishes to order {cap} for class j={j} "
        f"(p={ctx.p}, d={ctx.d})"
    )
