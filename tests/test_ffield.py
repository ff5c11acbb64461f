import tracemalloc
from array import array
from collections import Counter
from itertools import islice

import pytest

from cyclomod import compute_table, ffield, fillplan, make_context, primes_in_range
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
            table = compute_table(ctx)
            rows = counter_row_supports(ctx)
            assert table.row_supports == rows, d
            # the flat column slices are the transpose of the row view
            columns = [[] for _ in range(d)]
            for i, row in enumerate(rows):
                for j, c in row:
                    columns[j].append((i, c))
            assert [list(column) for column in table.columns] == columns, d

    check()


def _same_context(derived, built):
    assert (derived.p, derived.omega, derived.d, derived.f, derived.theta) == (
        built.p, built.omega, built.d, built.f, built.theta)
    assert type(derived.index_table) is type(built.index_table)
    assert getattr(derived.index_table, "typecode", None) == getattr(
        built.index_table, "typecode", None)
    assert bytes(derived.index_table) == bytes(built.index_table)


def test_derived_orders_equal_their_own_fields_property():
    # a context derived from a field of any multiple L of d is the one
    # make_context(p, d) builds: the same omega, f and theta, and a class
    # array of the same type with the same bytes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from(primes_in_range(3, 3000)))
        big = draw(st.sampled_from(admissible_orders(p)))
        divisors = [d for d in range(2, big + 1) if big % d == 0]
        return p, big, draw(st.sampled_from(divisors))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((1543, 1542, 2))  # 'H' lanes to bytes: m = 256
    @hypothesis.example((1543, 1542, 3))  # m = 192: two lane steps
    @hypothesis.example((1543, 1542, 257))  # 'H' to 'H'
    @hypothesis.example((1543, 514, 257))
    @hypothesis.example((4001, 4000, 2))
    @hypothesis.example((4001, 4000, 125))  # m = 250
    @hypothesis.example((4001, 4000, 250))  # m = 250 = d: no translate
    @hypothesis.example((4001, 4000, 800))
    @hypothesis.example((4001, 2000, 400))
    @hypothesis.example((1021, 255, 5))  # byte lanes: one translate
    def check(case):
        p, big, d = case
        field = make_context(p, big)
        _same_context(field.for_order(d), make_context(p, d))

    check()
    # every order of p from one field of order p - 1
    for p in (1543, 4001):
        field = make_context(p, p - 1)
        for d in admissible_orders(p):
            _same_context(field.for_order(d), make_context(p, d))


def test_derived_orders_from_four_byte_lanes():
    field = make_context(65537, 65536)
    assert field.index_table.typecode == "I"
    for d in (2, 255 + 1, 4096, 32768):
        _same_context(field.for_order(d), make_context(65537, d))


@pytest.mark.parametrize(
    "p,d,derived",
    [
        (100003, 6, (2, 3)),  # byte lanes, four chunks at the default
        (65537, 16384, (256, 128, 2)),  # 'H' lanes, reduced a chunk at a time
    ],
)
def test_classes_do_not_depend_on_the_chunk(monkeypatch, p, d, derived):
    # the passes, the check and the reduction all walk _chunks
    arrays = []
    for chunk in (1 << 10, 1 << 13, ffield._FILL_CHUNK):
        monkeypatch.setattr(ffield, "_FILL_CHUNK", chunk)
        field = make_context(p, d)
        arrays.append([bytes(field.index_table),
                       *(bytes(field.for_order(e).index_table) for e in derived)])
    assert arrays[0] == arrays[1] == arrays[2]


def test_derived_order_must_divide_the_field_order():
    field = make_context(13, 6)
    assert field.for_order(6) is field
    for d in (4, 12, 1, 0):
        with pytest.raises(ValueError, match="does not divide"):
            field.for_order(d)


def _assert_mirrored(classes, p: int, d: int) -> None:
    """The upper half of a class array is its lower half mirrored with + theta.

    Labels are class + 1, with 0 for an unset residue, which stays 0.
    """
    theta = ((p - 1) // 2) % d
    labels = list(classes)
    for x in range(1, (p + 1) // 2):
        label = labels[x]
        assert labels[p - x] == (label and (label - 1 + theta) % d + 1), (p, d, x)


def _count_fill_stages(monkeypatch) -> Counter:
    """Count fill passes by kind and lane type, and plans that leave a gap.

    Every pass is checked as it returns: it blended no chunk above (p-1)/2
    (the chunks are those of the images it read), and its upper half is
    its lower half mirrored with + theta.
    """
    ran: Counter = Counter()
    fill_pass, plan_passes, image = ffield._fill_pass, fillplan.plan_passes, ffield._image
    read = []

    def recorded_image(classes, p, m, x0, x1):
        read.append(x1)
        return image(classes, p, m, x0, x1)

    def counted_pass(classes, p, m, c, d):
        ran["mirror" if m == -1 else "multiplier"] += 1
        ran[getattr(classes, "typecode", "B")] += 1
        read.clear()
        fill_pass(classes, p, m, c, d)
        assert read and max(read) <= (p + 1) // 2, (p, m, max(read))
        _assert_mirrored(classes, p, d)

    def counted_plan(*args):
        passes, gap = plan_passes(*args)
        ran["stragglers"] += bool(gap)
        return passes, gap

    monkeypatch.setattr(ffield, "_fill_pass", counted_pass)
    monkeypatch.setattr(ffield, "_image", recorded_image)
    monkeypatch.setattr(fillplan, "plan_passes", counted_plan)
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
    @hypothesis.example(109, 8, 8)  # five passes close the plan
    @hypothesis.example(1021, 8, 8)  # d = 255: last byte classes
    @hypothesis.example(1543, 4, 3)  # d = 257 on two-byte lanes; a gap is walked
    @hypothesis.example(2999, 16, 2)  # a gap of 88 runs is walked
    @hypothesis.example(2999, 1, 8)  # fourteen passes
    def check(p, seed, few_shift):
        monkeypatch.setattr(ffield, "_SEED_POWERS", seed)
        monkeypatch.setattr(ffield, "_FEW_SHIFT", few_shift)
        omega = smallest_primitive_root(p)
        for d in admissible_orders(p):
            classes = ffield._power_classes(p, omega, d)
            assert list(classes) == walk_classes(p, omega, d), (d, seed)

    check()
    assert ran["mirror"] and ran["multiplier"] and ran["stragglers"], ran


def test_plan_closes_the_largest_fields_in_seven_passes(monkeypatch):
    # the 16 largest primes p = 1 mod 4 up to the default cap; the plan
    # needs neither the class array nor, at p <= 2^18, any discrete log
    top = list(islice(filter(is_prime, range(ffield.DEFAULT_MAX_P - 3, 0, -4)), 16))
    assert top[0] == 4194301 and 4193869 in top
    for p in top:
        omega = smallest_primitive_root(p)
        few = p >> ffield._FEW_SHIFT
        passes, gap = fillplan.plan_passes(p, omega, ffield._SEED_POWERS, few)
        assert passes[0] == (-1, (p - 1) // 2), p
        assert len(passes) <= 7, (p, passes)
        assert sum(b - a for a, b in gap) <= few, (p, gap)
        assert all(pow(omega, ind, p) == m % p for m, ind in passes), p

    def no_log(p, omega):
        raise AssertionError(f"a discrete log was computed at p={p}")

    monkeypatch.setattr(fillplan, "discrete_log", no_log)
    for p in (262139, 65537, 13, 3):  # 262139 is the largest prime below 2^18
        half = (p - 1) // 2
        assert fillplan.plan_passes(p, smallest_primitive_root(p), half, 0) == (
            [(-1, half)], []), p


def test_plan_gap_is_what_the_passes_leave():
    # the runs of the gap are sorted, disjoint and exactly the exponents
    # outside the planned set, on plans that close and plans that stop short
    for p, seed, few in ((109, 2, 0), (1543, 4, 192), (2999, 16, 749), (2999, 1, 11)):
        omega = smallest_primitive_root(p)
        passes, gap = fillplan.plan_passes(p, omega, seed, few)
        walked = [e for a, b in gap for e in range(a, b)]
        assert walked == sorted(set(walked))
        assert len(walked) <= few
        labelled = set(range(seed))
        for _, ind in passes:
            labelled |= {(e + ind) % (p - 1) for e in labelled}
        assert set(walked) == set(range(p - 1)) - labelled, (p, seed)


def test_skipping_the_stragglers_fails_the_check(monkeypatch):
    # a plan that claims no gap where one is left: the unset residues read
    # as class 0, which the proof of class(omega * a) = class(a) + 1 refuses
    plan_passes = fillplan.plan_passes
    gaps = []

    def no_stragglers(*args):
        passes, gap = plan_passes(*args)
        gaps.append(gap)
        return passes, []

    monkeypatch.setattr(fillplan, "plan_passes", no_stragglers)
    monkeypatch.setattr(ffield, "_SEED_POWERS", 16)
    monkeypatch.setattr(ffield, "_FEW_SHIFT", 2)
    for p, d in ((2999, 2), (2999, 1499), (1543, 257)):
        with pytest.raises(SanityFailure, match="omega="):
            ffield._power_classes(p, smallest_primitive_root(p), d)
        assert gaps.pop(), (p, d)


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


@pytest.mark.parametrize(
    "p,d,typecode,theta",
    [
        (1009, 4, "B", 0),
        (1009, 16, "B", 8),
        (65537, 16384, "H", 0),
        (1543, 514, "H", 257),
        (65537, 32768, "I", 0),
        (65537, 65536, "I", 32768),
    ],
)
def test_passes_blend_the_lower_half_and_mirror_it(monkeypatch, p, d, typecode, theta):
    # a short walk, so that several multiplier passes run on each lane type;
    # _count_fill_stages checks every pass as it returns
    assert ((p - 1) // 2) % d == theta
    ran = _count_fill_stages(monkeypatch)
    monkeypatch.setattr(ffield, "_SEED_POWERS", 16)
    omega = smallest_primitive_root(p)
    classes = ffield._power_classes(p, omega, d)
    assert list(classes) == walk_classes(p, omega, d)
    assert ran["mirror"] == 1 and ran["multiplier"] >= 3, ran
    assert ran[typecode] == ran["mirror"] + ran["multiplier"], ran


@pytest.mark.parametrize("p,d", [(13, 4), (65537, 32768)])
def test_a_mirror_relabelled_wrong_fails_the_check(monkeypatch, p, d):
    # the upper half written with theta + 1 in place of theta: theta = 2 on
    # byte lanes, theta = 0 on four-byte lanes
    theta = ffield._theta
    monkeypatch.setattr(ffield, "_theta", lambda p, d: (theta(p, d) + 1) % d)
    with pytest.raises(SanityFailure, match="omega="):
        ffield._power_classes(p, smallest_primitive_root(p), d)


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
