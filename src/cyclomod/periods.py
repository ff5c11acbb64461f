"""The degree-d integer polynomial whose roots are the Gauss periods.

The periods eta_0..eta_{d-1} are the class sums of p-th roots of unity.
Their power sums are already available exactly: sum_i eta_i^m = n(m-1, 0),
with the m = 0 sum equal to d.  Newton's identities then produce the
elementary symmetric functions, hence the monic integer polynomial
G(T) = prod (T - eta_i), without ever touching complex numbers.  The
discriminant is the determinant of the Hankel matrix of the power sums,
which it recovers from the coefficients.  The floating-point periods that
validate both live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import SanityFailure, ScaleGuard
from .waring import NSequence

#: Cap on the degree d of the polynomial whose discriminant `period` prints:
#: a fraction-free elimination of a d x d Hankel matrix whose integers widen
#: with d and with log f.  On a 2-vCPU host with CPython 3.11 and p near the
#: default cap on p, it takes ~0.6 s at d = 40 and 6-7 s at d = 60 (~0.4 s
#: at d = 240 for f = 1).
MAX_PERIOD_DEGREE = 40


@dataclass(frozen=True)
class PeriodPolynomial:
    """Monic integer polynomial with the periods as roots.

    coeffs are ascending (constant term first), length d + 1.  The leading
    coefficient is 1 and the T^(d-1) coefficient is 1 because the periods
    sum to -1.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def discriminant(self) -> int:
        """prod_{i<j} (eta_i - eta_j)^2, an exact (possibly huge) integer.

        With V the Vandermonde matrix of the roots, V * V^T is the Hankel
        matrix [P_{i+j}] of their power sums, i, j < d, so its determinant
        is det(V)^2, the discriminant.  P_0 .. P_{2d-2} follow from the
        coefficients by Newton's identities: with a_i the coefficient of
        T^(d-i), P_m = -(m * a_m [m <= d] + sum_{i=1..min(m-1, d)} a_i P_{m-i}).
        """
        d = self.degree
        a = self.reversed_coeffs()
        ps = [d]
        for m in range(1, 2 * d - 1):
            acc = m * a[m] if m <= d else 0
            for i in range(1, min(m - 1, d) + 1):
                acc += a[i] * ps[m - i]
            ps.append(-acc)
        return _bareiss_determinant([ps[i : i + d] for i in range(d)])

    def __call__(self, x):
        """Evaluate at x by Horner; works for ints, Fractions, complex."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def reversed_coeffs(self) -> tuple[int, ...]:
        """Coefficients of T^d * G(1/T), ascending."""
        return tuple(reversed(self.coeffs))


def require_degree(p: int, d: int) -> None:
    """Refuse, with ScaleGuard, an order d over MAX_PERIOD_DEGREE.

    Takes (p, d) alone, so make_context can run it before the O(p) field.
    The cap is far below the table's (cyclotomy.require_table_fits), so it
    prices the table too.
    """
    if d > MAX_PERIOD_DEGREE:
        raise ScaleGuard(
            f"p={p}, d={d}: the degree-{d} period polynomial is over the cap "
            f"of {MAX_PERIOD_DEGREE}"
        )


def power_sums(seq: NSequence, m_max: int) -> list[int]:
    """[P_0, P_1, ..., P_m_max] with P_m = sum_i eta_i^m, exactly.

    P_0 = d by convention; P_m = n(m-1, 0) for m >= 1.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    return [seq.ctx.d] + [seq.n(m - 1, 0) for m in range(1, m_max + 1)]


def period_polynomial(seq: NSequence) -> PeriodPolynomial:
    """Integer coefficients of G(T) via Newton's identities on power sums.

    e_m = (1/m) * sum_{i=1..m} (-1)^(i-1) e_{m-i} P_i; every division must
    be exact because the e_m are integers (they are symmetric functions of
    algebraic integers fixed by the Galois action).  A remainder is a bug.
    """
    d = seq.ctx.d
    ps = power_sums(seq, d)
    e = [1]
    for m in range(1, d + 1):
        acc = 0
        sign = 1
        for i in range(1, m + 1):
            acc += sign * e[m - i] * ps[i]
            sign = -sign
        quot, rem = divmod(acc, m)
        if rem:
            raise SanityFailure(
                f"Newton step m={m} not integral for p={seq.ctx.p}, d={d}"
            )
        e.append(quot)
    # G(T) = sum_m (-1)^m e_m T^(d-m); ascending index j = d - m.
    coeffs = tuple((-1) ** (d - j) * e[d - j] for j in range(d + 1))
    if coeffs[d] != 1 or coeffs[d - 1] != 1:
        raise SanityFailure(
            f"period polynomial for p={seq.ctx.p}, d={d} is not monic with "
            f"trace -1: leading coefficients {coeffs[d - 1:]}"
        )
    return PeriodPolynomial(coeffs=coeffs)


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c]:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        for r in range(c + 1, n):
            mrc = m[r][c]
            row_r = m[r]
            row_c = m[c]
            for j in range(c + 1, n):
                row_r[j] = (row_r[j] * pivot - mrc * row_c[j]) // prev
            row_r[c] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]
