import math
from fractions import Fraction

import pytest

from conftest import (
    factorial_denominator_violations,
    geometric_series,
    log_derivative_series,
    reciprocal_check,
    series_derivative,
    series_inverse,
    series_multiply,
    unit_difference_series,
)
from cyclomod import (
    compute_table,
    i_series,
    log_derivative_ord,
    make_context,
    period_polynomial,
    primes_in_range,
    solve,
)
from cyclomod.errors import AllZeroToOrder, SanityFailure, ScaleGuard
from cyclomod.series import MAX_SERIES_ORDER, RationalSeries, _difference_terms
from cyclomod.sweep import admissible_orders
from cyclomod.waring import NSequence


def _seq(p, d):
    return NSequence(compute_table(make_context(p, d)))


def test_rational_series_basics():
    s = RationalSeries((Fraction(0), Fraction(0), Fraction(3), Fraction(1)))
    assert s.order == 3
    assert s.valuation() == 2
    assert RationalSeries((Fraction(0),)).valuation() is None
    assert series_derivative(s).coeffs == (Fraction(0), Fraction(6), Fraction(3))


def test_rational_series_inverse_and_multiply():
    one_minus_t = RationalSeries((Fraction(1), Fraction(-1)))
    inv = series_inverse(one_minus_t, 5)
    assert inv.coeffs == tuple(Fraction(1) for _ in range(6))
    assert series_multiply(one_minus_t, inv, 5).coeffs == (Fraction(1),) + tuple(
        Fraction(0) for _ in range(5)
    )
    geo = geometric_series(3, 4)
    assert geo.coeffs == (1, 3, 9, 27, 81)


def test_first_two_coefficients_are_one():
    for p, d in [(7, 3), (13, 4), (5, 4), (29, 4), (11, 5)]:
        seq = _seq(p, d)
        for j in range(d):
            s = i_series(seq, j, 3)
            assert s.coeffs[0] == 1
            assert s.coeffs[1] == 1  # -n(0, j) = 1 for every class


def test_i_series_p7_d3_class0_is_reversed_polynomial():
    seq = _seq(7, 3)
    s = i_series(seq, 0, 5)
    assert s.coeffs == (1, 1, -2, -1, 0, 0)


def test_reciprocal_check_p13_d2():
    seq = _seq(13, 2)
    poly = period_polynomial(seq)
    s = i_series(seq, 0, 4)
    assert s.coeffs == (1, 1, -3, 0, 0)
    assert reciprocal_check(s, poly)


def test_reciprocal_check_rejects_wrong_series():
    seq = _seq(13, 2)
    poly = period_polynomial(seq)
    s = i_series(seq, 1, 4)  # nontrivial class: not a polynomial
    assert not reciprocal_check(s, poly)


def test_reciprocal_check_needs_enough_coefficients():
    seq = _seq(13, 2)
    poly = period_polynomial(seq)
    with pytest.raises(ValueError):
        reciprocal_check(i_series(seq, 0, 3), poly)


def test_reciprocal_identity_everywhere_small():
    for p in primes_in_range(3, 60):
        for d in admissible_orders(p):
            seq = _seq(p, d)
            assert reciprocal_check(
                i_series(seq, 0, d + 2), period_polynomial(seq)
            ), (p, d)


def test_nontrivial_classes_have_nonzero_tail():
    found = 0
    for p, d in [(13, 3), (13, 4), (17, 4), (19, 3), (29, 4), (31, 6), (37, 6), (41, 8)]:
        seq = _seq(p, d)
        for j in range(1, d):
            s = i_series(seq, j, d + 4)
            if any(s.coeffs[k] for k in range(d + 1, d + 5)):
                found += 1
    assert found >= 20


def test_factorial_scaled_coefficients_are_integers():
    for p, d in [(7, 3), (13, 4), (29, 4), (31, 30), (97, 8)]:
        seq = _seq(p, d)
        for j in range(d):
            s = i_series(seq, j, d + 2)
            assert factorial_denominator_violations(s) == []


def test_log_derivative_series_coefficients_are_scaled_counts():
    # coefficient k of the difference series is exactly f^k + n(k, j)
    for p, d in [(7, 3), (13, 4), (5, 4), (11, 5), (17, 8)]:
        ctx = make_context(p, d)
        seq = NSequence(compute_table(ctx), d + 3)
        for j in range(d):
            diff = log_derivative_series(seq, j, d + 2)
            for k, c in enumerate(diff.coeffs):
                assert c.denominator == 1
                assert c == ctx.f**k + seq.n(k, j), (p, d, j, k)


def _scaled(series):
    """k! times each coefficient of a series."""
    return [math.factorial(k) * c for k, c in enumerate(series.coeffs)]


def test_incremental_terms_match_materialized_series():
    for p, d in [(7, 3), (13, 4), (29, 7), (13, 12)]:
        seq = _seq(p, d)
        for j in range(d):
            full = unit_difference_series(seq, j, d + 2)
            lazy = [v for _, v in _difference_terms(seq, j, d + 2)]
            assert _scaled(full) == lazy
            # same valuation and leading coefficient as 1/(1-fT) - I'/I
            diff = log_derivative_series(seq, j, d + 2)
            v = diff.valuation()
            assert full.valuation() == v
            if v is not None:
                assert full.coeffs[v] == diff.coeffs[v]


def test_ord_examples_p7_d3():
    ctx = make_context(7, 3)
    seq = NSequence(compute_table(ctx))
    values = {
        alpha: log_derivative_ord(seq, (alpha + ctx.theta) % 3)
        for alpha in (1, 2)
    }
    assert sorted(values.values()) == [2, 3]
    assert max(values.values()) == 3


def test_ord_matches_recurrence_solver():
    for p, d in [(13, 4), (17, 4), (29, 4), (11, 5), (31, 6), (13, 12)]:
        ctx = make_context(p, d)
        solution = solve(ctx)
        for alpha in range(1, d):
            j = (alpha + ctx.theta) % d
            assert log_derivative_ord(solution.seq, j) == solution.per_class_s[alpha]


def test_ord_matches_recurrence_p199_d198_every_class():
    ctx = make_context(199, 198)
    solution = solve(ctx)
    for alpha in range(1, 198):
        j = (alpha + ctx.theta) % 198
        s = solution.per_class_s[alpha]
        assert log_derivative_ord(solution.seq, j) == s, alpha


def test_integer_terms_match_fraction_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from(primes_in_range(3, 400)))
        orders = [d for d in admissible_orders(p) if d <= 40]
        hypothesis.assume(orders)
        d = draw(st.sampled_from(orders))
        return p, d, draw(st.integers(min_value=0, max_value=d - 1))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        p, d, j = case
        solution = solve(make_context(p, d))
        seq, ctx = solution.seq, solution.ctx
        oracle = unit_difference_series(seq, j, d + 2)
        lazy = [v for _, v in _difference_terms(seq, j, d + 2)]
        assert lazy == _scaled(oracle)
        alpha = (j - ctx.theta) % d
        assert log_derivative_ord(seq, j) == solution.per_class_s[alpha]

    check()


def test_all_zero_guard_raises():
    # a stub sequence with n(k, j) = -f^k makes every difference
    # coefficient vanish, which must trip the retry cap, not loop
    real = _seq(7, 3)

    class VanishingStub:
        ctx = real.ctx

        def n(self, k, j):
            return -(self.ctx.f**k)

        def extend(self, k_max):
            pass

    with pytest.raises(AllZeroToOrder):
        log_derivative_ord(VanishingStub(), 1)


def test_non_integral_difference_coefficient_raises():
    # a half-integer n(k, j) makes the leading coefficient D_0 = 3/2, which
    # is no multiple of p and must raise instead of being reported
    real = _seq(7, 3)

    class HalfStub:
        ctx = real.ctx

        def n(self, k, j):
            return Fraction(1, 2)

        def extend(self, k_max):
            pass

    with pytest.raises(SanityFailure):
        log_derivative_ord(HalfStub(), 1)


@pytest.mark.parametrize("lead", [1, -7])
def test_leading_coefficient_off_a_multiple_of_p_raises(lead):
    # D_k = f^k + n(k, j) vanishes except D_2 = lead: a nonzero integer
    # that p = 7 does not divide, or a negative multiple of p, so it
    # cannot be p times a count
    real = _seq(7, 3)

    class LeadStub:
        ctx = real.ctx

        def n(self, k, j):
            return lead - self.ctx.f**2 if k == 2 else -(self.ctx.f**k)

        def extend(self, k_max):
            pass

    with pytest.raises(SanityFailure, match="positive multiple"):
        log_derivative_ord(LeadStub(), 1)


def test_argument_validation():
    seq = _seq(7, 3)
    with pytest.raises(ValueError):
        i_series(seq, 0, -1)
    with pytest.raises(ScaleGuard):
        i_series(seq, 0, MAX_SERIES_ORDER + 1)


def test_ord_at_class_of_minus_one():
    # j = 0 with theta != 0 is the class of -1; the criterion still holds
    for p, d in [(5, 4), (13, 4), (29, 4), (13, 6)]:
        ctx = make_context(p, d)
        if ctx.theta == 0:
            continue
        solution = solve(ctx)
        alpha = (-ctx.theta) % d
        assert log_derivative_ord(solution.seq, 0) == solution.per_class_s[alpha]
