"""Exact power series attached to each power class.

For class j define I_j(T) = sum c_k T^k by c_0 = 1 and

    c_k = -(1/k) * sum_{l=0}^{k-1} c_l * n(k-1-l, j).

This makes -I_j'/I_j the generating series sum_k n(k, j) T^k, so the
difference D = 1/(1 - f*T) - I_j'/I_j has k-th coefficient
D_k = f^k + n(k, j), which is p times the representation count.  Its
valuation (index of the first nonzero coefficient) is therefore the minimal
representation length for the class with class(-a) = j, giving a third,
series-side route to the same answer.  D_k is m(k, j) of the recurrence,
so on any integer rows the valuation is the recurrence's first k again:
it reproduces the paper's criterion on demand, and checks no table.

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
SanityFailure is raised otherwise.  i_series, the public exact view of
I_j, reads the same integers C_k and divides each by k!; the test suite
checks it against the Fraction recurrence above.  Floating point is
banned in this module because the valuation is a strict zero test.

For j = 0 the series is the reversed period polynomial: all coefficients
past degree d vanish.  For j != 0 it is never a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from operator import add, mul
from typing import TYPE_CHECKING

from .errors import AllZeroToOrder, SanityFailure, ScaleGuard
from .waring import NSequence

if TYPE_CHECKING:  # i_series, which builds them, imports it when it runs
    from fractions import Fraction

#: Cap on the truncation order of i_series, which the series command
#: prints; nothing else scans the series.  Each coefficient is one
#: integer convolution, and the integers grow with the order.  On a 2-vCPU
#: host with CPython 3.11 and the rows already grown, order 400 takes
#: ~0.18 s at p = 7, d = 3 and ~0.6 s at p = 4194301, d = 4, while order
#: 1200 at p = 7 takes ~15 s.
MAX_SERIES_ORDER = 400


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
    from fractions import Fraction

    require_order(order)
    if order >= 1:
        seq.extend(order - 1)
    terms = zip(range(order + 1), _scaled_coefficients(seq, j))
    return RationalSeries(tuple(Fraction(c, math.factorial(k)) for k, c in terms))


def _scaled_coefficients(seq: NSequence, j: int):
    """Yield C_k = k! c_k of I_j for k = 0, 1, 2, ..., one at a time.

    With N_t = t! n(t, j), each step is one integer convolution:

        C_{k+1} = -sum_{l<=k} binom(k, l) C_l N_{k-l}

    C_{k+1} reads n(0..k, j) only.  The binomial row and the factorial
    are grown alongside.  Terms are lazy, so a caller stops at the order
    it needs.
    """
    j %= seq.ctx.d
    row, fact = [1], 1  # binom(k, 0..k) and k!
    big_c = [1]  # C_0..C_k
    big_n: list[int] = []  # N_0..N_k
    yield 1
    for k in count():
        big_n.append(fact * seq.n(k, j))
        big_c.append(-sum(map(mul, map(mul, row, big_c), reversed(big_n))))
        yield big_c[-1]
        row = [1, *map(add, row, row[1:]), 1]
        fact *= k + 1


def _difference_terms(seq: NSequence, j: int, order: int):
    """Yield (k, E_k) for k = 0..order, one coefficient at a time.

    E_k = (1 + f*k) C_k - C_{k+1} is k! times the k-th coefficient of
    I_j - (1 - f*T) * I_j'.  Terms are lazy, so a caller hunting for the
    valuation stops at the first nonzero coefficient.
    """
    f = seq.ctx.f
    terms = _scaled_coefficients(seq, j)
    current = next(terms)
    for k, following in zip(range(order + 1), terms):
        yield k, (1 + f * k) * current - following
        current = following


def log_derivative_ord(seq: NSequence, j: int) -> int:
    """Valuation of the difference series: the series route to the answer.

    One lazy scan runs to order max(d + 2, 2d) (past d, the most any
    reachable class needs) and stops at the first nonzero coefficient.
    That leading coefficient E_v = v! * p * N(v, a) must be a positive
    multiple of v! * p; anything else raises SanityFailure.  An all-zero
    series at that order raises AllZeroToOrder, not an answer.
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
