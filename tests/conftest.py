"""Shared helpers: independent oracles the implementation must agree with.

Everything here is deliberately naive and self-contained so it can
arbitrate against the production code paths: the power classes come from
a walk over every power of omega, the cyclotomic table from the literal
definitional double loop and from a per-residue Counter tally, the least
length of one residue from its own sumset growth (brute_s), the rows
n(k, v) from the dense recurrence, reachability from literal boolean
matrix powers, the count identities from integer matrix powers of the
table itself, the class series I_j from its defining Fraction recurrence
and its differences from literal Fraction arithmetic on it, and the
periods from floating-point sums of roots of unity.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

from cyclomod import make_context
from cyclomod.cyclotomy import CyclotomyTable
from cyclomod.errors import SanityFailure, ScaleGuard, ZeroArgument
from cyclomod.ffield import FieldContext
from cyclomod.periods import PeriodPolynomial
from cyclomod.series import RationalSeries
from cyclomod.waring import NSequence

#: numeric_periods is for validation only; summing 10^4 complex terms is
#: already pushing what double precision can certify.
NUMERIC_MAX_P = 10_000


def index_of(ctx: FieldContext, a: int) -> int:
    """ind(a): the k in 0..p-2 with omega^k = a mod p.

    Only ind(a) mod d is stored, so this walks the f powers
    omega^(alpha + d*u) of a's class alpha until one equals a: O(f).
    """
    alpha = ctx.class_of(a)
    p, r = ctx.p, a % ctx.p
    step = pow(ctx.omega, ctx.d, p)
    x = pow(ctx.omega, alpha, p)
    for u in range(ctx.f):
        if x == r:
            return alpha + ctx.d * u
        x = x * step % p
    raise SanityFailure(
        f"{r} is not a power omega^k with k = {alpha} mod {ctx.d}"
    )


def numeric_tolerance(p: int) -> float:
    """Absolute tolerance policy for float-period comparisons."""
    return 1e-8 if p <= 100 else 1e-6


def numeric_periods(ctx: FieldContext) -> list[complex]:
    """Float approximations of the periods.

    eta_i = sum over k of exp(2*pi*I * omega^(d*k+i) / p).  Each eta is a
    sum of f unit vectors, accumulated with compensated (exact-rounding)
    summation to keep cancellation error near machine epsilon.
    """
    p, d, f = ctx.p, ctx.d, ctx.f
    if p > NUMERIC_MAX_P:
        raise ScaleGuard(f"numeric periods capped at p <= {NUMERIC_MAX_P}, got {p}")
    # powers[m] = omega^m mod p
    powers = [1] * (p - 1)
    for m in range(1, p - 1):
        powers[m] = powers[m - 1] * ctx.omega % p
    tau = 2.0 * math.pi
    out = []
    for i in range(d):
        terms = [cmath.exp(1j * tau * powers[d * k + i] / p) for k in range(f)]
        out.append(
            complex(
                math.fsum(t.real for t in terms),
                math.fsum(t.imag for t in terms),
            )
        )
    return out


def walk_classes(p: int, omega: int, d: int) -> list[int]:
    """ind(a) mod d for every residue a, by walking all p - 1 powers of omega.

    Entry 0 is unused and left 0, as in FieldContext.index_table.
    """
    classes = [0] * p
    x = 1
    for k in range(p - 1):
        classes[x] = k % d
        x = x * omega % p
    return classes


def counter_row_supports(ctx: FieldContext) -> tuple:
    """row_supports from one Counter over the codes class(x)*d + class(x+1)."""
    p, d = ctx.p, ctx.d
    classes = ctx.index_table
    tally = Counter(map(add, map(d.__mul__, classes[1 : p - 1]), classes[2:p]))
    rows: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for code in sorted(tally):
        rows[code // d].append((code % d, tally[code]))
    return tuple(map(tuple, rows))


def witness_problems(p: int, d: int, omega: int, witnesses, per_class_s) -> list:
    """What is wrong with upper-bound witnesses, from p, d and omega alone.

    Independent of cyclotomy.check_witnesses: the d-th powers are listed
    as omega^(d*u), and each b's class is read off walk_classes, not
    tested by a power.  Every class needs exactly one witness, after its
    parent's, whose b = b_parent + y (b = y = 1 at the root, class 0) is a
    sum of per_class_s[j] powers.
    """
    powers = {pow(omega, d * u, p) for u in range((p - 1) // d)}
    classes = walk_classes(p, omega, d)
    done: dict = {}
    problems = []
    for w in witnesses:
        parent = done.get(w.parent)
        if w.parent is None and w.j == 0 and w.y == 1:
            base, length = 0, 0
        elif parent is not None:
            base, length = parent.b, parent.length
        else:
            problems.append(w)
            continue
        if (w.j in done or w.y not in powers or classes[w.b] != w.j
                or w.b != (base + w.y) % p or w.length != length + 1
                or w.length != per_class_s[w.j]):
            problems.append(w)
            continue
        done[w.j] = w
    if len(done) != d:
        problems.append(sorted(set(range(d)) - set(done)))
    return problems


def brute_s(ctx: FieldContext, a: int) -> int:
    """Least k such that a is a sum of k nonzero d-th powers.

    Grows S_1 = powers, S_{k+1} = S_k + S_1 as p-bit integers until a
    appears: a step ORs together the cyclic shifts of the reachable set by
    each power omega^(d*u).  Gives up after p - 1 steps, by which point
    the sets have stabilized.
    """
    p, d = ctx.p, ctx.d
    a %= p
    if a == 0:
        raise ZeroArgument(a)
    powers = sorted({pow(ctx.omega, d * u, p) for u in range(ctx.f)})
    full = (1 << p) - 1
    cur = 0
    for s in powers:
        cur |= 1 << s
    for k in range(1, p):
        if cur >> a & 1:
            return k
        nxt = 0
        for s in powers:
            nxt |= (cur << s) | (cur >> (p - s))
        cur = nxt & full
    raise AssertionError(f"residue {a} not reached mod {p}")


def definitional_cyclotomic_counts(ctx: FieldContext) -> list[list[int]]:
    """(i, j) counted straight from the defining double loop over (u, v)."""
    p, d, f = ctx.p, ctx.d, ctx.f
    powers = [1] * (p - 1)
    for m in range(1, p - 1):
        powers[m] = powers[m - 1] * ctx.omega % p
    counts = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            hits = 0
            for u in range(f):
                lhs = (1 + powers[d * u + i]) % p
                for v in range(f):
                    if lhs == powers[d * v + j]:
                        hits += 1
            counts[i][j] = hits
    return counts


def table_from_counts(ctx: FieldContext, counts) -> CyclotomyTable:
    """A table holding the given dense counts, for doctored-table tests.

    The nonzero entries are laid out column by column, as compute_table
    lays them out, so a doctored table reaches NSequence and the walks.
    """
    d = len(counts)
    return CyclotomyTable(ctx=ctx, columns=tuple(
        tuple((i, counts[i][j]) for i in range(d) if counts[i][j]) for j in range(d)))


def dense_rows(table: CyclotomyTable, k_max: int) -> list[list[int]]:
    """Rows n(0..k_max, v) from the literal dense recurrence.

    Every row v sums (v, l) * n(k, l) over its whole support, plus
    f * n(k-1, 0) at theta; nothing is shifted and no zero is skipped.
    """
    ctx = table.ctx
    p, d, f, theta = ctx.p, ctx.d, ctx.f, ctx.theta
    rows = [[-1] * d, [p * (v == theta) - f for v in range(d)]]
    while len(rows) <= k_max:
        prev, prev2 = rows[-1], rows[-2]
        row = [
            sum(c * prev[l] for l, c in support) for support in table.row_supports
        ]
        row[theta] += f * prev2[0]
        rows.append(row)
    return rows


def bool_matrix(table: CyclotomyTable) -> list[list[int]]:
    """0/1 matrix with entry 1 exactly where the count is nonzero.

    Read off row_supports, independently of the dense counts view.
    """
    d = table.ctx.d
    marks = [[0] * d for _ in range(d)]
    for i, support in enumerate(table.row_supports):
        for j, _ in support:
            marks[i][j] = 1
    return marks


def bool_matrix_multiply(a, b):
    n = len(a)
    return [
        [1 if any(a[i][k] and b[k][j] for k in range(n)) else 0 for j in range(n)]
        for i in range(n)
    ]


def s_by_matrix_powers(table: CyclotomyTable, alpha: int) -> int | None:
    """Least s with a nonzero (alpha+theta, theta) entry of M^(s-1).

    Literal translation of the matrix formulation, powers taken one by one;
    None if no power up to M^(d-1)... in fact up to M^d shows a walk.
    """
    ctx = table.ctx
    d = ctx.d
    src = (alpha + ctx.theta) % d
    tgt = ctx.theta
    marks = bool_matrix(table)
    power = [[1 if i == j else 0 for j in range(d)] for i in range(d)]  # M^0
    for s in range(1, d + 2):
        if power[src][tgt]:
            return s
        power = bool_matrix_multiply(power, marks)
    return None


def int_matrix_multiply(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def count_matrix_powers(table: CyclotomyTable, up_to: int) -> list:
    """[C^0, C^1, ..., C^up_to] for the integer count matrix C."""
    d = table.ctx.d
    powers = [[[1 if i == j else 0 for j in range(d)] for i in range(d)]]
    counts = [list(row) for row in table.counts]
    for _ in range(up_to):
        powers.append(int_matrix_multiply(powers[-1], counts))
    return powers


def series_derivative(s: RationalSeries) -> RationalSeries:
    return RationalSeries(tuple(k * c for k, c in enumerate(s.coeffs) if k >= 1))


def series_inverse(s: RationalSeries, order: int) -> RationalSeries:
    """Multiplicative inverse, truncated; requires a nonzero constant."""
    a = s.coeffs
    if not a or a[0] == 0:
        raise ZeroDivisionError("series with zero constant term")
    inv0 = 1 / a[0]
    b = [inv0]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for l in range(1, min(k, s.order) + 1):
            acc += a[l] * b[k - l]
        b.append(-inv0 * acc)
    return RationalSeries(tuple(b))


def series_multiply(
    s: RationalSeries, other: RationalSeries, order: int
) -> RationalSeries:
    a, b = s.coeffs, other.coeffs
    out = []
    for k in range(order + 1):
        acc = Fraction(0)
        lo = max(0, k - len(b) + 1)
        hi = min(k, len(a) - 1)
        for i in range(lo, hi + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return RationalSeries(tuple(out))


def series_subtract(s: RationalSeries, other: RationalSeries) -> RationalSeries:
    order = min(s.order, other.order)
    return RationalSeries(
        tuple(s.coeffs[k] - other.coeffs[k] for k in range(order + 1))
    )


def geometric_series(ratio: int, order: int) -> RationalSeries:
    """1 / (1 - ratio*T) truncated: coefficients ratio^k."""
    out = [Fraction(1)]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return RationalSeries(tuple(out))


def fraction_i_series(seq: NSequence, j: int, order: int) -> RationalSeries:
    """The class series I_j to the given order, by its defining recurrence.

    c_0 = 1 and c_k = -(1/k) * sum_{l<k} c_l * n(k-1-l, j), in Fractions:
    independent of the integer convolution on k! c_k that cyclomod.series
    runs.
    """
    nvals = [seq.n(k, j) for k in range(order)]
    c = [Fraction(1)]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for l in range(k):
            acc += c[l] * nvals[k - 1 - l]
        c.append(-acc / k)
    return RationalSeries(tuple(c))


def log_derivative_series(seq: NSequence, j: int, order: int) -> RationalSeries:
    """The difference series 1/(1 - f*T) - I_j'/I_j, truncated at order.

    Built literally in Fractions: invert I_j, multiply by its derivative,
    subtract from the geometric series.  The k-th coefficient equals
    f^k + n(k, j); the coefficient at k = 0 is always zero.
    """
    source = fraction_i_series(seq, j, order + 1)
    ratio = series_multiply(
        series_derivative(source), series_inverse(source, order), order
    )
    return series_subtract(geometric_series(seq.ctx.f, order), ratio)


def unit_difference_series(seq: NSequence, j: int, order: int) -> RationalSeries:
    """I_j - (1 - f*T) * I_j', truncated at order, in literal Fractions.

    It equals (1 - f*T) * I_j times the difference series, so it has the
    same valuation and the same leading coefficient f^v + n(v, j).
    """
    source = fraction_i_series(seq, j, order + 1)
    one_minus_ft = RationalSeries((Fraction(1), Fraction(-seq.ctx.f)))
    return series_subtract(
        source, series_multiply(one_minus_ft, series_derivative(source), order)
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


@pytest.fixture(scope="session")
def ctx_7_3():
    return make_context(7, 3)


@pytest.fixture(scope="session")
def ctx_13_4():
    return make_context(13, 4)


@pytest.fixture(scope="session")
def ctx_5_4():
    return make_context(5, 4)
