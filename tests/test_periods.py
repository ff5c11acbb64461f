import cmath
import math

import pytest

from cyclomod import (
    compute_table,
    make_context,
    period_polynomial,
    power_sums,
    primes_in_range,
)
from cyclomod.errors import ScaleGuard
from cyclomod.sweep import admissible_orders
from cyclomod.waring import NSequence

from conftest import numeric_periods, numeric_tolerance


def _seq(p, d, k=None):
    ctx = make_context(p, d)
    return NSequence(compute_table(ctx), k if k is not None else max(ctx.d, 2))


def test_power_sums_examples():
    seq = _seq(13, 2)
    ps = power_sums(seq, 2)
    assert ps[0] == 2  # d terms of eta^0
    assert ps[1] == -1  # periods always sum to -1
    assert ps[2] == 7  # p - f with f = 6 even

    assert power_sums(_seq(7, 3), 2)[2] == 5


def test_power_sums_first_is_minus_one_everywhere():
    for p, d in [(7, 3), (5, 4), (13, 4), (11, 5), (29, 28)]:
        assert power_sums(_seq(p, d), 1)[1] == -1


def test_period_polynomial_p13_d2():
    poly = period_polynomial(_seq(13, 2))
    assert poly.coeffs == (-3, 1, 1)  # T^2 + T - 3, ascending
    # roots are (-1 +- sqrt(13))/2
    root = (-1 + math.sqrt(13)) / 2
    assert abs(poly(root)) < 1e-9


def test_period_polynomial_p7_d3():
    poly = period_polynomial(_seq(7, 3))
    assert poly.coeffs == (-1, -2, 1, 1)  # T^3 + T^2 - 2T - 1
    assert poly.degree == 3


def test_period_polynomial_monic_trace_everywhere():
    for p in primes_in_range(3, 80):
        for d in admissible_orders(p):
            poly = period_polynomial(_seq(p, d))
            assert poly.coeffs[-1] == 1
            assert poly.coeffs[-2] == 1  # sum of periods is -1


def test_polynomial_vanishes_on_numeric_periods():
    for p, d in [(7, 3), (13, 4), (17, 4), (31, 6), (13, 12)]:
        ctx = make_context(p, d)
        poly = period_polynomial(_seq(p, d))
        tol = numeric_tolerance(p)
        for eta in numeric_periods(ctx):
            assert abs(poly(eta)) < tol * 100, (p, d)


def test_numeric_periods_p13_d2():
    etas = sorted(numeric_periods(make_context(13, 2)), key=lambda z: z.real)
    assert abs(etas[1] - (-1 + math.sqrt(13)) / 2) < 1e-9
    assert abs(etas[0] - (-1 - math.sqrt(13)) / 2) < 1e-9


def test_numeric_periods_sum_to_minus_one():
    for p, d in [(7, 3), (13, 4), (101, 4), (97, 96)]:
        total = sum(numeric_periods(make_context(p, d)))
        assert abs(total - (-1)) < 1e-9


def test_numeric_periods_match_quadratic_identity():
    # sum_i eta_i * eta_{i+k} = p*[k == theta] - f, here at k = 0 for p=7,d=3
    ctx = make_context(7, 3)
    etas = numeric_periods(ctx)
    value = sum(e * e for e in etas)
    assert abs(value - 5) < 1e-8  # theta = 0: p - f = 5


def test_numeric_periods_scale_guard():
    with pytest.raises(ScaleGuard):
        numeric_periods(make_context(10007, 2, max_p=1 << 22))


def test_coefficients_match_numeric_expansion():
    # expand prod (T - eta_i) in floats and compare coefficient by coefficient
    for p, d in [(7, 3), (13, 4), (29, 4), (101, 10), (499, 6)]:
        ctx = make_context(p, d)
        poly = period_polynomial(_seq(p, d))
        coeffs = [complex(1)]
        for eta in numeric_periods(ctx):
            nxt = [complex(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * (-eta)
                nxt[i + 1] += c
            coeffs = nxt
        for exact, approx in zip(poly.coeffs, coeffs):
            assert abs(approx.imag) < 1e-6
            assert abs(approx.real - exact) < 1e-6, (p, d)


def test_discriminant_p13_d2():
    poly = period_polynomial(_seq(13, 2))
    assert poly.discriminant == 13  # 1 + 12 from the quadratic formula


def test_discriminant_degree_two_definition():
    # degree 2: disc = (eta_0 - eta_1)^2
    for p in (5, 13, 17, 29, 101):
        ctx = make_context(p, 2)
        poly = period_polynomial(_seq(p, 2))
        e0, e1 = numeric_periods(ctx)
        assert abs(poly.discriminant - (e0 - e1) ** 2) < 1e-6


def test_discriminant_positive_p7_d3():
    poly = period_polynomial(_seq(7, 3))
    disc = poly.discriminant
    assert disc > 0
    etas = numeric_periods(make_context(7, 3))
    product = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            product *= abs(etas[i] - etas[j]) ** 2
    assert abs(disc - product) < 1e-8


def test_discriminant_matches_float_product_at_degree_six():
    # f = 5 is odd, so the periods are complex and the discriminant negative;
    # the float product reads neither the power sums nor the coefficients
    ctx = make_context(31, 6)
    disc = period_polynomial(_seq(31, 6)).discriminant
    etas = numeric_periods(ctx)
    product = complex(1)
    for i in range(6):
        for j in range(i + 1, 6):
            product *= (etas[i] - etas[j]) ** 2
    assert disc == -30019840638976
    assert abs(product - disc) < 1e-9 * abs(disc)


def test_discriminant_nonzero_and_matches_power_sum_gram():
    # Gram-determinant form: det[P_{i+j}] equals the discriminant
    for p, d in [(7, 3), (13, 4), (13, 3), (29, 4), (11, 5), (31, 6)]:
        seq = _seq(p, d, k=2 * d)
        poly = period_polynomial(seq)
        ps = power_sums(seq, 2 * d - 2)
        gram = [[ps[i + j] for j in range(d)] for i in range(d)]
        assert poly.discriminant == _det(gram) != 0


def _det(matrix):
    from fractions import Fraction

    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] * inv
            for j in range(c, n):
                m[r][j] -= factor * m[c][j]
    assert det.denominator == 1
    return det.numerator
