"""Exact power series attached to each power class.

For class j define I_j(T) = sum c_k T^k by c_0 = 1 and

    c_k = -(1/k) * sum_{l=0}^{k-1} c_l * n(k-1-l, j).

This makes -I_j'/I_j the generating series sum_k n(k, j) T^k, so the
difference 1/(1 - f*T) - I_j'/I_j has k-th coefficient f^k + n(k, j),
which is p times the representation count.  Its valuation (index of the
first nonzero coefficient) is therefore the minimal representation length
for the class with class(-a) = j, giving a third, series-side route to the
same answer.

k! * c_k is always an integer (immediate from the recurrence by
induction), and so is k! * b_k for the coefficients b_k of 1/I_j.  The
valuation scan therefore runs on these k!-scaled integers: every product
becomes a binomial-weighted integer convolution, the zero test is exact
integer arithmetic, and no Fraction is built or normalised.  Fraction
remains only in i_series, the public exact view of I_j, whose
integrality the test suite asserts independently.  Floating point is
banned in this module because the valuation is a strict zero test.

For j = 0 the series is the reversed period polynomial: all coefficients
past degree d vanish.  For j != 0 it is never a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import AllZeroToOrder, SanityFailure
from .periods import PeriodPolynomial
from .waring import NSequence

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


def i_series(seq: NSequence, j: int, order: int) -> RationalSeries:
    """The class series I_j to the given truncation order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
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


def _difference_terms(seq: NSequence, j: int, order: int):
    """Yield (k, D_k) for the difference series, one coefficient at a time.

    Inverts I_j and multiplies by I_j' in k!-scaled integers, with
    C_k = k! c_k, B_k = k! b_k for 1/I_j and N_t = t! n(t, j):

        C_{m+1} = -sum_{l<=m} binom(m, l) C_l N_{m-l}
        B_m = -sum_{1<=l<=m} binom(m, l) C_l B_{m-l}
        k! D_k = k! f^k - sum_{i<=k} binom(k, i) C_{i+1} B_{k-i}

    All three sums at step k use the same binomial row.  D_k is recovered
    by an exact division by k!, so the integrality of every scanned
    coefficient is checked: a remainder raises SanityFailure.  Terms are
    lazy, so a caller hunting for the valuation stops at the first nonzero
    coefficient.
    """
    ctx = seq.ctx
    j %= ctx.d
    big_c = [1]  # C_0..C_{k+1}
    big_b = [1]  # B_0..B_k
    big_n: list[int] = []  # N_0..N_k
    row = [1]  # binom(k, 0..k)
    kfac = 1
    fk = 1
    for k in range(order + 1):
        if k:
            row = [1, *map(add, row, row[1:]), 1]
            kfac *= k
        big_n.append(kfac * seq.n(k, j))
        weighted = list(map(mul, row, big_c))  # binom(k, l) C_l, l <= k
        big_c.append(-sum(map(mul, weighted, reversed(big_n))))
        if k:
            big_b.append(-sum(map(mul, weighted[1:], reversed(big_b))))
        scaled = kfac * fk - sum(
            map(mul, map(mul, row, big_c[1:]), reversed(big_b))
        )
        value, rem = divmod(scaled, kfac)
        if rem:
            raise SanityFailure(
                f"{k}! * D_{k} is not divisible by {k}! for class j={j} "
                f"(p={ctx.p}, d={ctx.d})"
            )
        yield k, value
        fk *= ctx.f


def log_derivative_ord(seq: NSequence, j: int) -> int:
    """Valuation of the difference series: the series route to the answer.

    Truncation starts at d + 2 (enough for every reachable class, where
    the answer is at most d) and extends once to 2d before giving up; an
    all-zero series at that point is handed back to the caller to route to
    the brute-force oracle.  Coefficients are produced lazily, so the scan
    stops as soon as the first nonzero one appears.
    """
    d = seq.ctx.d
    cap = max(d + 2, 2 * d)
    for k, value in _difference_terms(seq, j, cap):
        if value:
            return k
    raise AllZeroToOrder(
        f"difference series vanishes to order {cap} for class j={j} "
        f"(p={seq.ctx.p}, d={d})"
    )


def reciprocal_check(series: RationalSeries, poly: PeriodPolynomial) -> bool:
    """True iff the series is exactly the reversed period polynomial.

    Checks c_k against the reversed coefficients for k <= d and demands
    c_k = 0 for d < k <= order, certifying the series is that integer
    polynomial up to the computed truncation.
    """
    d = poly.degree
    if series.order < d + 2:
        raise ValueError(
            f"series order {series.order} too small; need at least {d + 2}"
        )
    rev = poly.reversed_coeffs()
    for k in range(d + 1):
        if series.coeffs[k] != rev[k]:
            return False
    return all(series.coeffs[k] == 0 for k in range(d + 1, series.order + 1))


def factorial_denominator_violations(series: RationalSeries) -> list[int]:
    """Indices k where k! * c_k is not an integer (always empty if correct).

    Equivalent to checking that each reduced denominator divides k!.
    """
    bad = []
    kfac = 1
    for k, c in enumerate(series.coeffs):
        if k:
            kfac *= k
        if kfac % c.denominator:
            bad.append(k)
    return bad
