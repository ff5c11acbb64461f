import pytest

from cyclomod import (
    compute_table,
    dp_counts,
    make_context,
    power_set,
    primes_in_range,
)
from cyclomod.errors import ScaleGuard, ZeroArgument
from cyclomod.sweep import admissible_orders
from cyclomod.waring import NSequence

from conftest import brute_s


def test_power_set_examples():
    assert power_set(make_context(7, 3)) == {1, 6}
    assert power_set(make_context(5, 4)) == {1}
    assert power_set(make_context(13, 2)) == {1, 3, 4, 9, 10, 12}


def test_power_set_is_the_set_of_dth_powers():
    for p, d in [(13, 4), (17, 8), (29, 7), (31, 6)]:
        ctx = make_context(p, d)
        assert power_set(ctx) == {pow(x, d, p) for x in range(1, p)}
        assert len(power_set(ctx)) == ctx.f


def test_dp_counts_examples():
    counts = dp_counts(make_context(7, 3), 2)
    assert counts.count(2, 2) == 1  # only 1 + 1
    assert counts.count(2, 3) == 0
    assert counts.count(2, 0) == 2  # (1,6) and (6,1)

    fourth = dp_counts(make_context(5, 4), 3)
    assert fourth.count(3, 3) == 1
    assert fourth.count(3, 4) == 0


def test_dp_counts_total_is_f_to_the_k():
    counts = dp_counts(make_context(13, 2), 4)
    assert sum(counts.row(4)) == 6**4 == 1296
    for p, d in [(7, 3), (17, 4), (11, 5)]:
        ctx = make_context(p, d)
        table = dp_counts(ctx, 5)
        for k in range(1, 6):
            assert sum(table.row(k)) == ctx.f**k


def test_dp_counts_row_one_is_indicator():
    ctx = make_context(17, 4)
    counts = dp_counts(ctx, 1)
    powers = power_set(ctx)
    assert all(
        counts.count(1, a) == (1 if a in powers else 0) for a in range(17)
    )


def test_dp_counts_scale_guards():
    ctx = make_context(13, 4)
    with pytest.raises(ScaleGuard):
        dp_counts(ctx, 20)
    with pytest.raises(ScaleGuard):
        dp_counts(make_context(2003, 2, max_p=3000), 2)


def test_brute_s_examples():
    ctx = make_context(7, 3)
    assert brute_s(ctx, 6) == 1
    assert brute_s(ctx, 3) == 3  # {1,6} -> {2,0,5} -> first hit of 3
    assert brute_s(make_context(5, 4), 4) == 4


def test_brute_s_rejects_zero():
    with pytest.raises(ZeroArgument):
        brute_s(make_context(7, 3), 0)


def test_brute_s_minimality_against_dp():
    # brute_s(a) is exactly the first k with a positive count
    for p, d in [(7, 3), (13, 4), (11, 5), (13, 12)]:
        ctx = make_context(p, d)
        counts = dp_counts(ctx, ctx.p - 1 if ctx.f == 1 else 8)
        for a in range(1, p):
            s = brute_s(ctx, a)
            assert counts.count(s, a) > 0
            assert all(counts.count(k, a) == 0 for k in range(1, s))


def test_bridge_identity_to_exact_sequence():
    # p * N(k, a) - f^k = n(k, class(-a)) exactly
    for p in primes_in_range(3, 40):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            seq = NSequence(compute_table(ctx), 6)
            counts = dp_counts(ctx, 6)
            for k in range(1, 7):
                fk = ctx.f**k
                for a in range(1, p):
                    v = ctx.class_of(p - a)
                    assert p * counts.count(k, a) - fk == seq.n(k, v)
