import tracemalloc
from array import array
from collections import Counter

import pytest

from cyclomod import compute_table, ffield, make_context, primes_in_range
from cyclomod.errors import (
    DegenerateOrder, InputError, NotPrime, SanityFailure, ScaleGuard, ZeroArgument,
)
from cyclomod.ffield import is_prime, prime_factors, smallest_primitive_root
from cyclomod.sweep import admissible_orders

from conftest import (
    counter_row_supports, definitional_cyclotomic_counts, index_of, walk_classes,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(7919)
    assert is_prime(104729)
    assert not is_prime(7919 * 104729)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_prime_factors():
    assert prime_factors(96) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []


@pytest.mark.parametrize("n", [0, -12])
def test_prime_factors_rejects_non_positive(n):
    with pytest.raises(ValueError):
        prime_factors(n)


def test_primes_in_range():
    assert primes_in_range(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(20, 22) == []
    assert primes_in_range(0, 1) == []


def test_primes_in_range_sieves_only_the_range_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ranges(draw):
        lo = draw(st.integers(min_value=-5, max_value=10**8))
        return lo, lo + draw(st.integers(min_value=-3, max_value=3000))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(ranges())
    @hypothesis.example((-5, 1))
    @hypothesis.example((0, 2))
    @hypothesis.example((2, 3))
    @hypothesis.example((2, 1))
    @hypothesis.example((10**8 - 100, 10**8))
    def check(bounds):
        lo, hi = bounds
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    check()


def test_primes_in_range_memory_follows_the_width():
    # a sieve sized by hi would take 10^8 bytes here
    tracemalloc.start()
    try:
        primes = primes_in_range(10**8 - 100, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes == [n for n in range(10**8 - 100, 10**8 + 1) if is_prime(n)]
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "p,root", [(3, 2), (5, 2), (7, 3), (13, 2), (17, 3), (29, 2), (41, 6)]
)
def test_smallest_primitive_root(p, root):
    assert smallest_primitive_root(p) == root
    # candidates below are not generators: some strict power hits 1 early
    for g in range(2, root):
        assert any(pow(g, (p - 1) // q, p) == 1 for q in prime_factors(p - 1))


def test_make_context_refuses_a_non_generator(monkeypatch):
    # 3 has order 3 mod 13: 3^12 = 1 as for every unit, but 3^6 = 1 too
    monkeypatch.setattr(ffield, "smallest_primitive_root", lambda p: 3)
    with pytest.raises(SanityFailure, match="omega=3 does not have order"):
        make_context(13, 4)


@pytest.mark.parametrize(
    "p,omega,message",
    [
        (13, 4, r"omega\^6 is not -1"),  # a square: order (p-1)/2
        (7, 2, r"omega\^3 is not -1"),  # order (p-1)/2, and -1 is not a square
        (13, 5, "does not have order"),  # order (p-1)/3, 5^6 = -1
        (1543, 125, "does not have order"),  # 5^3, two-byte lanes
    ],
)
def test_power_classes_refuse_a_non_generator(p, omega, message):
    for d in admissible_orders(p):
        with pytest.raises(SanityFailure, match=message):
            ffield._power_classes(p, omega, d)


def test_make_context_basic():
    ctx = make_context(7, 3)
    assert (ctx.omega, ctx.f, ctx.theta) == (3, 2, 0)
    # omega's powers enumerate all units exactly once
    seen = {pow(ctx.omega, k, 7) for k in range(6)}
    assert seen == set(range(1, 7))


def test_make_context_f_odd():
    ctx = make_context(5, 4)
    assert (ctx.omega, ctx.f, ctx.theta) == (2, 1, 2)


def test_make_context_boundary_d_equals_p_minus_1():
    ctx = make_context(13, 12)
    assert (ctx.d, ctx.f, ctx.theta) == (12, 1, 6)
    assert ctx.d * ctx.f == 12


def test_make_context_reduces_d_by_gcd():
    # 9 does not divide 6; gcd(9, 6) = 3 takes over
    ctx = make_context(7, 9)
    assert ctx.d == 3


def test_make_context_rejects_degenerate_order():
    with pytest.raises(DegenerateOrder) as err:
        make_context(7, 5)
    assert err.value.trivial_g == 1
    with pytest.raises(DegenerateOrder):
        make_context(2, 2)  # p - 1 = 1 forces gcd 1


def test_make_context_rejects_composite():
    with pytest.raises(NotPrime):
        make_context(9, 2)
    with pytest.raises(NotPrime):
        make_context(1, 2)


def test_make_context_scale_guard():
    with pytest.raises(ScaleGuard):
        make_context(101, 4, max_p=50)
    make_context(101, 4, max_p=101)  # exactly at the cap is fine


def test_scale_guard_env_override(monkeypatch):
    monkeypatch.setenv("CYCLOMOD_MAX_P", "50")
    with pytest.raises(ScaleGuard):
        make_context(101, 4)
    monkeypatch.setenv("CYCLOMOD_MAX_P", "200")
    make_context(101, 4)


def test_scale_guard_env_malformed(monkeypatch):
    monkeypatch.setenv("CYCLOMOD_MAX_P", "2**22")
    with pytest.raises(InputError, match="CYCLOMOD_MAX_P"):
        make_context(101, 4)
    make_context(101, 4, max_p=200)  # the argument beats the environment


def test_index_of_examples():
    ctx = make_context(7, 3)
    assert index_of(ctx, 1) == 0
    assert index_of(ctx, 3) == 1
    assert index_of(ctx, 6) == 3  # 3^3 = 27 = 6 mod 7


def test_index_of_zero_rejected():
    ctx = make_context(7, 3)
    with pytest.raises(ZeroArgument):
        index_of(ctx, 0)
    with pytest.raises(ZeroArgument):
        index_of(ctx, 7)


def test_index_is_group_homomorphism():
    for p, d in [(13, 4), (29, 7), (31, 5)]:
        ctx = make_context(p, d)
        for a in range(1, p):
            for b in range(1, p, 3):
                lhs = index_of(ctx, a * b % p)
                rhs = (index_of(ctx, a) + index_of(ctx, b)) % (p - 1)
                assert lhs == rhs


def test_theta_is_class_of_minus_one():
    for p, d in [(7, 3), (5, 4), (13, 4), (13, 6), (29, 4), (31, 30)]:
        ctx = make_context(p, d)
        assert ctx.class_of(p - 1) == ctx.theta
        assert ctx.theta == (0 if ctx.f % 2 == 0 else ctx.d // 2)


def test_dth_powers_are_class_zero():
    for p, d in [(7, 3), (13, 4), (17, 4), (29, 14)]:
        ctx = make_context(p, d)
        powers = {pow(x, d, p) for x in range(1, p)}
        class_zero = {a for a in range(1, p) if ctx.class_of(a) == 0}
        assert powers == class_zero
        assert len(class_zero) == ctx.f


def test_class_array_is_compact():
    assert type(make_context(13, 4).index_table) is bytearray
    assert type(make_context(1009, 252).index_table) is bytearray
    wide = make_context(1009, 336).index_table
    assert isinstance(wide, array) and wide.typecode == "H"
    assert len(wide) == 1009
    # 0 marks an unset residue during the walk, so 256 classes need 'H'
    assert type(make_context(1021, 255).index_table) is bytearray
    assert make_context(257, 256).index_table.typecode == "H"


@pytest.mark.parametrize("d,typecode", [(16384, "H"), (32768, "I"), (65536, "I")])
def test_wide_classes_match_the_walk(d, typecode):
    # lanes keep a spare top bit, so d >= 2^15 takes four bytes
    ctx = make_context(65537, d)
    assert ctx.index_table.typecode == typecode
    assert list(ctx.index_table) == walk_classes(65537, ctx.omega, d)


def test_compact_field_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from(primes_in_range(3, 3000)))
        d = draw(st.sampled_from(admissible_orders(p)))
        ks = draw(st.lists(st.integers(min_value=0, max_value=p - 2), max_size=4))
        return p, d, ks

    @hypothesis.settings(max_examples=8, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((1009, 336, [335, 1007]))  # d > 256: two-byte classes
    @hypothesis.example((2017, 288, [0, 289]))
    def check(case):
        p, d, ks = case
        ctx = make_context(p, d)
        for a in range(1, p):
            alpha = ctx.class_of(a)
            assert 0 <= alpha < d
            assert pow(a, ctx.f, p) == pow(ctx.omega, ctx.f * alpha, p), a
        for k in ks:
            assert index_of(ctx, pow(ctx.omega, k, p)) == k
        table = compute_table(ctx)
        oracle = definitional_cyclotomic_counts(ctx)
        assert [list(row) for row in table.counts] == oracle
        assert table.row_supports == tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in oracle
        )

    check()


def test_half_walk_and_lane_tally_match_the_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(st.sampled_from(primes_in_range(3, 3000)))
    @hypothesis.example(3)  # smallest half: one pair
    @hypothesis.example(5)
    @hypothesis.example(17)  # d = 16: codes fill one byte
    @hypothesis.example(103)  # d = 17: codes need two bytes
    @hypothesis.example(1021)  # d = 255: last byte classes
    @hypothesis.example(257)  # d = 256: two-byte classes and codes
    @hypothesis.example(769)
    @hypothesis.example(1543)  # d = 257: codes need four bytes
    @hypothesis.example(4001)  # d = 4000
    def check(p):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            assert list(ctx.index_table) == walk_classes(p, ctx.omega, d), d
            assert compute_table(ctx).row_supports == counter_row_supports(ctx), d

    check()


def _count_fill_stages(monkeypatch) -> Counter:
    """Count multiplier passes (by sign of m) and straggler fills."""
    ran: Counter = Counter()
    fill_pass, fill_stragglers = ffield._fill_pass, ffield._fill_stragglers

    def counted_pass(classes, p, m, c, d):
        ran["mirror" if m == -1 else "multiplier"] += 1
        return fill_pass(classes, p, m, c, d)

    def counted_stragglers(*args):
        ran["stragglers"] += 1
        fill_stragglers(*args)

    monkeypatch.setattr(ffield, "_fill_pass", counted_pass)
    monkeypatch.setattr(ffield, "_fill_stragglers", counted_stragglers)
    return ran


def test_multiplier_passes_match_the_walk(monkeypatch):
    # a short walk and a high straggler threshold, so that small p take
    # every stage of the fill
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ran = _count_fill_stages(monkeypatch)

    @hypothesis.settings(max_examples=12, deadline=None)
    @hypothesis.given(
        st.sampled_from(primes_in_range(3, 3000)),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
    )
    @hypothesis.example(3, 1, 8)
    @hypothesis.example(109, 8, 8)  # the pass by 3 stalls: stragglers finish
    @hypothesis.example(1021, 8, 8)  # d = 255: last byte classes
    @hypothesis.example(1543, 4, 3)  # d = 257 on two-byte lanes
    @hypothesis.example(2999, 16, 2)
    def check(p, seed, few_shift):
        monkeypatch.setattr(ffield, "_SEED_POWERS", seed)
        monkeypatch.setattr(ffield, "_FEW_SHIFT", few_shift)
        omega = smallest_primitive_root(p)
        for d in admissible_orders(p):
            classes = ffield._power_classes(p, omega, d)
            assert list(classes) == walk_classes(p, omega, d), (d, seed)

    check()
    assert ran["mirror"] and ran["multiplier"] and ran["stragglers"], ran


@pytest.mark.parametrize(
    "p,d,typecode",
    [
        (65537, 16384, "H"),
        (65537, 32768, "I"),
        (65537, 65536, "I"),
        (1543, 257, "H"),  # two-byte lanes
    ],
)
def test_multiplier_passes_on_wide_lanes(monkeypatch, p, d, typecode):
    ran = _count_fill_stages(monkeypatch)
    monkeypatch.setattr(ffield, "_SEED_POWERS", 64)
    omega = smallest_primitive_root(p)
    classes = ffield._power_classes(p, omega, d)
    assert classes.typecode == typecode
    assert list(classes) == walk_classes(p, omega, d)
    assert ran["multiplier"], ran


def test_power_classes_at_a_million():
    # the walk covers about an eighth of the residues; passes do the rest
    ctx = make_context(1000003, 6)
    assert list(ctx.index_table) == walk_classes(1000003, ctx.omega, 6)


@pytest.mark.parametrize("p,d", [(13, 4), (1009, 252), (1009, 336), (65537, 65536)])
def test_one_wrong_label_fails_the_check(p, d):
    omega = smallest_primitive_root(p)
    truth = walk_classes(p, omega, d)
    labels = [0] + [c + 1 for c in truth[1:]]

    def lanes(values):
        if d < 256:
            return bytearray(values)
        return array("H" if d < 1 << 15 else "I", values)

    classes = lanes(labels)
    ffield._check_classes(classes, p, omega, d)
    assert list(classes) == truth
    for a in {1, 2, omega, p // 2, p - 2, p - 1}:
        wrong = labels.copy()
        wrong[a] = wrong[a] % d + 1
        with pytest.raises(SanityFailure, match="omega="):
            ffield._check_classes(lanes(wrong), p, omega, d)
    # every class one up still steps by one under omega: only class(1) shows it
    shifted = [0] + [label % d + 1 for label in labels[1:]]
    with pytest.raises(SanityFailure, match="1 is not in class 0"):
        ffield._check_classes(lanes(shifted), p, omega, d)
