import json
from dataclasses import replace

import pytest

from cyclomod import (
    compute_table,
    dp_counts,
    make_context,
    primes_in_range,
    solve,
)
from cyclomod.closedform import small_f_lengths
from cyclomod.cyclotomy import coset_walk, walks
from cyclomod.errors import InternalDisagreement, SanityFailure, ScaleGuard
from cyclomod.ffield import is_prime
from cyclomod.oracle import sumset_lengths
from cyclomod.sweep import admissible_orders, full_checks
from cyclomod.waring import NSequence

from conftest import (
    brute_s, count_matrix_powers, dense_rows, rectangle_moves, s_by_matrix_powers,
    table_from_counts,
)


def n_rows(seq):
    """Every n(k, v) the sequence holds, as dense rows by k."""
    d = seq.ctx.d
    return [[seq.n(k, v) for v in range(d)] for k in range(seq.k_max + 1)]


def by_recurrence(table):
    """Each class's least k with m(k, alpha + theta) != 0, grown to k <= d."""
    ctx = table.ctx
    seq = NSequence(table)
    seq.extend(ctx.d, until_covered=True)
    return [seq.first_k[(alpha + ctx.theta) % ctx.d] for alpha in range(ctx.d)]


def by_walks(table):
    """One more than each class's shortest walk from alpha + theta to theta."""
    ctx = table.ctx
    dist = walks(table.columns, ctx.theta)
    return [dist[(alpha + ctx.theta) % ctx.d] + 1 for alpha in range(ctx.d)]


def representations(seq, a, k):
    """N(k, a) read off m(k, v) = p * N(k, a), with v the class of -a."""
    ctx = seq.ctx
    quot, rem = divmod(seq.support(k).get(ctx.class_of(-a), 0), ctx.p)
    assert rem == 0, (a, k)
    return quot


def test_base_values_p7_d3():
    seq = NSequence(compute_table(make_context(7, 3)), 3)
    assert all(seq.n(0, v) == -1 for v in range(3))
    assert seq.n(1, 0) == 5  # p - f with theta = 0
    assert seq.n(1, 1) == -2
    assert seq.n(1, 2) == -2


def test_base_values_f_odd():
    # p=5, d=4: theta = 2, so the p-term lands at v = 2
    seq = NSequence(compute_table(make_context(5, 4)), 2)
    assert [seq.n(1, v) for v in range(4)] == [-1, -1, 4, -1]


def test_divisibility_invariant_enforced():
    for p, d in [(7, 3), (13, 4), (11, 5), (29, 28), (31, 6)]:
        seq = NSequence(compute_table(make_context(p, d)), 12)
        for k in range(13):
            fk = seq.f_power(k)
            for v in range(d):
                assert (fk + seq.n(k, v)) % p == 0


def test_sanity_failure_on_corrupt_table():
    table = compute_table(make_context(7, 3))
    corrupt = table_from_counts(table.ctx, ((0, 1, 1), (0, 1, 1), (1, 1, 0)))
    with pytest.raises(SanityFailure):
        NSequence(corrupt, 3)


def test_wrong_row_sum_refused_at_construction():
    # row 2 sums to 3, not f = 2: the shifted rows would no longer be the
    # counts, so the table is refused before any row is built
    table = compute_table(make_context(7, 3))
    wrong = table_from_counts(table.ctx, ((1, 0, 0), (0, 2, 0), (0, 1, 2)))
    with pytest.raises(SanityFailure, match="row 2 of the table sums to 3"):
        NSequence(wrong, 1)


def test_row_swap_breaks_the_tuple_count():
    # swapping two unequal entries of one row keeps every row sum, so the
    # table passes construction; the moved column sums show by row 2d
    swaps = 0
    for p, d in [(7, 3), (13, 4), (13, 3), (31, 5), (37, 6), (41, 8)]:
        table = compute_table(make_context(p, d))
        for v, row in enumerate(table.counts):
            for i in range(d):
                for j in range(i + 1, d):
                    if row[i] == row[j]:
                        continue
                    swapped = [list(r) for r in table.counts]
                    swapped[v][i], swapped[v][j] = row[j], row[i]
                    seq = NSequence(table_from_counts(table.ctx, swapped), 1)
                    with pytest.raises(SanityFailure, match="not p\\*f\\^"):
                        seq.extend(2 * d)
                    swaps += 1
    assert swaps == 272


def test_bound_exceeded_on_doctored_table():
    # row sums are right, but class 1 never feeds class theta = 0, so the
    # rows grow to the cap k = d with classes 1 and 2 still unanswered
    table = compute_table(make_context(7, 3))
    doctored = table_from_counts(table.ctx, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    seq = NSequence(doctored, 1)
    seq.extend(3, until_covered=True)
    assert seq.k_max == 3
    assert seq.first_k == [1, None, None]


def test_cancelled_entries_leave_the_support():
    # doctored (5, 4) rows with negative counts, and with the row and column
    # sums of a real table: m(3, 3) = -5 + 5 cancels, and an exact zero must
    # not count as class 3 entering the support
    table = compute_table(make_context(5, 4))
    doctored = table_from_counts(
        table.ctx, ((0, 0, 1, 0), (0, 0, 1, 0), (1, 0, -1, 0), (-1, 1, 0, 1))
    )
    seq = NSequence(doctored, 4)
    assert seq.first_k == [2, 2, 1, None]
    assert n_rows(seq) == dense_rows(doctored, 4)


def test_sparse_rows_match_dense_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from(primes_in_range(3, 400)))
        return p, draw(st.sampled_from(admissible_orders(p)))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((397, 396))  # f = 1
    @hypothesis.example((389, 194))  # f = 2
    @hypothesis.example((397, 4))  # large f
    def check(case):
        p, d = case
        ctx = make_context(p, d)
        table = compute_table(ctx)
        seq = NSequence(table, d)
        assert n_rows(seq) == dense_rows(table, d)
        for v in range(d):
            scan = next(
                (k for k in range(1, d + 1) if ctx.f**k + seq.n(k, v)), None
            )
            assert seq.first_k[v] == scan, (p, d, v)
        solution = solve(ctx)
        # solve grows no row: they start at k = 1 when first read
        assert solution.seq.k_max == 1
        if ctx.f >= 3:  # the full checks compare the recurrence's answer
            first = seq.first_k[ctx.theta:] + seq.first_k[:ctx.theta]
            assert tuple(first) == solution.per_class_s

    check()


@pytest.mark.parametrize("p, d", [(3001, 3000), (2003, 1001), (1009, 504)])
def test_deep_recurrence_matches_closed_answer(p, d):
    # f = 1: 1 is the only power, so class alpha needs r = omega^alpha ones;
    # f = 2: the powers are +-1, so it needs min(r, p - r).  solve answers
    # these orders from the closed form, so the rows are grown here
    ctx = make_context(p, d)
    expected = []
    for alpha in range(d):
        r = ctx.element_of_class(alpha)
        expected.append(r if ctx.f == 1 else min(r, p - r))
    assert by_recurrence(compute_table(ctx)) == expected
    assert max(expected) == (p - 1 if ctx.f == 1 else (p - 1) // 2)
    solution = solve(ctx)
    assert solution.per_class_s == tuple(expected)
    assert solution.method == "closed-form"


def test_quadratic_identity_links_counts_to_table():
    # n(2, v) + f^2 = p * (v, theta) for every class
    for p, d in [(7, 3), (13, 4), (17, 4), (11, 5), (29, 4), (31, 30)]:
        ctx = make_context(p, d)
        table = compute_table(ctx)
        seq = NSequence(table, 2)
        for v in range(d):
            assert seq.n(2, v) + ctx.f**2 == p * table.counts[v][ctx.theta]


def test_cubic_identity():
    # n(3, v) + f^3 = p * sum_i (v,i)(i,theta) + f*[theta==0]*(n(1,v) + f)
    for p, d in [(7, 3), (13, 4), (17, 4), (11, 5), (19, 9), (29, 4)]:
        ctx = make_context(p, d)
        table = compute_table(ctx)
        seq = NSequence(table, 3)
        for v in range(d):
            walk2 = sum(
                table.counts[v][i] * table.counts[i][ctx.theta] for i in range(d)
            )
            expect = p * walk2
            if ctx.theta == 0:
                expect += ctx.f * (seq.n(1, v) + ctx.f)
            assert seq.n(3, v) + ctx.f**3 == expect


def test_expanded_identity_higher_k():
    # the closed expansion over consecutive table products, checked through
    # integer matrix powers of the count matrix, for k = 3..8
    for p, d in [(7, 3), (13, 4), (11, 5), (17, 8), (13, 12)]:
        ctx = make_context(p, d)
        table = compute_table(ctx)
        seq = NSequence(table, 8)
        f, theta = ctx.f, ctx.theta
        powers = count_matrix_powers(table, 7)
        for v in range(d):
            for k in range(3, 9):
                total = p * powers[k - 1][v][theta]
                if theta == 0:
                    total += f * (seq.n(k - 2, v) + f ** (k - 2))
                total += f * table.counts[0][theta] * (
                    seq.n(k - 3, v) + f ** (k - 3)
                )
                for j in range(4, k):
                    total += (
                        f
                        * powers[j - 2][0][theta]
                        * (seq.n(k - j, v) + f ** (k - j))
                    )
                assert seq.n(k, v) + f**k == total, (p, d, v, k)


def test_count_representations_p7_d3():
    ctx = make_context(7, 3)
    seq = NSequence(compute_table(ctx), 3)
    # k = 1 counts membership in the cube set {1, 6}
    assert representations(seq, 1, 1) == 1
    assert representations(seq, 6, 1) == 1
    assert representations(seq, 3, 1) == 0
    # 2 = 1 + 1 is the only ordered pair summing to 2
    assert representations(seq, 2, 2) == 1
    assert representations(seq, 3, 2) == 0
    assert representations(seq, 8, 1) == 1  # residues normalize mod p


def test_count_representations_matches_oracle():
    for p, d in [(13, 4), (13, 3), (17, 4), (11, 5), (29, 4)]:
        ctx = make_context(p, d)
        seq = NSequence(compute_table(ctx), 6)
        oracle = dp_counts(ctx, 6)
        for k in range(1, 7):
            for a in range(1, p):
                assert representations(seq, a, k) == oracle.count(k, a)


def test_s_by_recurrence_examples():
    values = by_recurrence(compute_table(make_context(7, 3)))
    assert values[0] == 1
    assert max(values) == 3
    assert by_recurrence(compute_table(make_context(13, 3)))[1:] == [2, 2]


def test_s_by_reachability_examples():
    values = by_walks(compute_table(make_context(7, 3)))
    assert values[0] == 1
    assert sorted(values[1:]) == [2, 3]


def test_reachability_equals_matrix_powers():
    for p, d in [(7, 3), (13, 4), (5, 4), (11, 5), (17, 8), (13, 12), (29, 7)]:
        table = compute_table(make_context(p, d))
        assert by_walks(table) == [
            s_by_matrix_powers(table, alpha) for alpha in range(d)
        ], (p, d)


def test_unreachable_raises_on_doctored_table():
    table = compute_table(make_context(7, 3))
    # cut every edge into class 0 = theta: classes 1, 2 can no longer reach it
    doctored = table_from_counts(
        table.ctx,
        tuple(
            tuple(0 if j == 0 else c for j, c in enumerate(row))
            for row in table.counts
        ),
    )
    assert walks(doctored.columns, table.ctx.theta) == (0, None, None)


def test_solve_examples():
    assert solve(make_context(7, 3)).g == 3
    assert solve(make_context(5, 4)).g == 4
    assert solve(make_context(29, 4)).g == 3
    sol = solve(make_context(13, 4))
    assert sol.per_class_s[0] == 1
    assert sol.method == "reachability"
    assert solve(make_context(7, 3)).method == "closed-form"
    assert all(1 <= s <= 13 - 1 for s in sol.per_class_s)


def test_solve_per_class_bounds():
    for p, d in [(13, 4), (31, 6), (29, 28), (13, 12)]:
        sol = solve(make_context(p, d))
        assert sol.per_class_s[0] == 1
        assert sol.g == max(sol.per_class_s)
        assert all(1 <= s <= d for s in sol.per_class_s)


def long_walks(monkeypatch):
    """Walks of 98 steps from every class but theta itself, as solve reads them."""
    import cyclomod.waring as waring_module

    monkeypatch.setattr(
        waring_module, "walks",
        lambda columns, theta: tuple(0 if v == theta else 98
                                     for v in range(len(columns))),
    )


def coset_walk_with_lengths(monkeypatch, lengths):
    """Make solve's coset walk report the given lengths, class by class."""
    import cyclomod.waring as waring_module

    real = waring_module.coset_walk
    monkeypatch.setattr(waring_module, "coset_walk",
                        lambda ctx: replace(real(ctx), lengths=tuple(lengths)))


def counted_extend_calls(monkeypatch):
    """The positional arguments of every NSequence.extend call, as a list."""
    calls = []
    extend = NSequence.extend

    def counted(seq, *args, **kwargs):
        calls.append(args)
        return extend(seq, *args, **kwargs)

    monkeypatch.setattr(NSequence, "extend", counted)
    return calls


def test_solve_raises_on_forced_disagreement(monkeypatch):
    # (13, 3) has f = 4: class 0 still agrees, class 1 is the first to differ
    long_walks(monkeypatch)
    with pytest.raises(InternalDisagreement) as info:
        solve(make_context(13, 3))
    assert info.value.alpha == 1
    assert info.value.values == {"coset-walk": 2, "reachability": 99}


def test_solve_raises_on_forced_disagreement_with_the_closed_form(monkeypatch):
    # (7, 3) has f = 2, so the coset walk is compared with the closed form
    coset_walk_with_lengths(monkeypatch, (1, 99, 99))
    with pytest.raises(InternalDisagreement) as info:
        solve(make_context(7, 3))
    assert info.value.alpha == 1
    assert info.value.values == {"coset-walk": 99, "closed-form": 3}


def test_solve_raises_on_classes_both_routes_leave_unanswered(monkeypatch):
    # classes 1 and 2 of this doctored (13, 3) table (f = 4) never feed
    # theta = 0, and its row and column sums are a real table's, so the
    # walks leave them unanswered; so does a coset walk made to stop at
    # class 0: a silent route is no answer, and solve refuses
    import cyclomod.waring as waring_module

    ctx = make_context(13, 3)
    doctored = table_from_counts(ctx, ((3, 0, 0), (0, 4, 0), (0, 0, 4)))
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 1
    assert info.value.values == {"coset-walk": 2, "reachability": None}
    coset_walk_with_lengths(monkeypatch, (1, None, None))
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 1
    assert info.value.values == {"coset-walk": None, "reachability": None}


def test_full_checks_grow_the_rows_in_one_call_that_checks_column_sums(monkeypatch):
    # swapping (1, 0) and (1, 1) of the (13, 3) table (f = 4) keeps every
    # row sum and moves column theta = 0's.  The walks still agree with the
    # coset walk, and solve grows no row; recurrence-agreement grows them in
    # one call, whose row 2 shows the column sums
    import cyclomod.waring as waring_module

    ctx = make_context(13, 3)
    swapped = table_from_counts(ctx, ((0, 1, 2), (2, 1, 1), (2, 1, 1)))
    calls = counted_extend_calls(monkeypatch)
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: swapped)
    solution = waring_module.solve(ctx)
    assert solution.per_class_s == (1, 2, 2)
    assert calls == []
    with pytest.raises(SanityFailure, match="row 2: .* not p\\*f\\^1"):
        full_checks(solution)
    assert calls == [(1,), (3,)]  # construction, then the one growth call


def test_solve_grows_no_row_at_f_2_and_the_walks_see_a_column_swap(monkeypatch):
    # the same swap in the (7, 3) table: at f = 2 solve counts no table and
    # grows no row, so its answer stays the closed form's, although the
    # table's walks would give class 1 two powers; the full checks count
    # the table, and its row 2 shows the column sums
    import cyclomod.waring as waring_module

    ctx = make_context(7, 3)
    swapped = table_from_counts(ctx, ((0, 0, 1), (1, 0, 1), (1, 1, 0)))
    assert by_walks(swapped) == [1, 2, 2]
    calls = counted_extend_calls(monkeypatch)
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: swapped)
    solution = waring_module.solve(ctx)
    assert solution.per_class_s == (1, 3, 2)
    assert solution.counted is None and calls == []
    with pytest.raises(SanityFailure, match="row 2: .* not p\\*f\\^1"):
        full_checks(solution)
    assert solution.table is swapped


def test_a_doctored_f_2_table_leaves_solve_right_and_fails_verify(monkeypatch, capsys):
    # +1 at (1, 2) and (4, 3), -1 at (1, 3) and (4, 2) keeps every row and
    # column sum of the (11, 5) table (f = 2), and its new edge 1 -> 2 would
    # shorten class 4's walk from 4 steps to 3.  solve compares the coset
    # walk with the closed form, reads no table and stays right; verify
    # counts the table, and the table identities fail on it
    import cyclomod.waring as waring_module
    from cyclomod.cli import main

    ctx = make_context(11, 5)
    moved = [list(row) for row in compute_table(ctx).counts]
    for (i, j), delta in {(1, 2): 1, (4, 3): 1, (1, 3): -1, (4, 2): -1}.items():
        moved[i][j] += delta
    doctored = table_from_counts(ctx, moved)
    assert all(sum(row) == ctx.f - (v == ctx.theta) for v, row in enumerate(moved))
    assert all(sum(col) == ctx.f - (l == 0) for l, col in enumerate(zip(*moved)))
    assert by_walks(doctored)[4] == 4
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    per_class_s = solve(ctx).per_class_s
    assert per_class_s == small_f_lengths(11, 5, ctx.omega) and per_class_s[4] == 5
    assert main(["verify", "-p", "11", "-d", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in lines if line.startswith("FAIL")][0] == (
        "table-identities:")


def test_fast_mode_never_answers_wrong_from_a_rectangle_move(monkeypatch):
    # every rectangle move keeps the row and column sums; with the doctored
    # table in place of the counted one, solve either refuses or gives the
    # true answer, since the coset walk reads no table
    import cyclomod.waring as waring_module

    refused = 0
    for p, d in [(13, 3), (37, 6), (61, 6), (73, 8)]:
        ctx = make_context(p, d)
        truth = sumset_lengths(ctx)
        for _, _, _, _, counts in rectangle_moves(compute_table(ctx).counts):
            doctored = table_from_counts(ctx, counts)
            monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
            try:
                solution = waring_module.solve(ctx)
            except InternalDisagreement:
                refused += 1
            else:
                assert solution.per_class_s == truth, (p, d, counts)
    assert refused > 0


def test_closed_form_route_at_small_f_property():
    # solve's answer at f <= 2 is the closed form; the recurrence, grown to
    # full depth under its running budget, gives the same vector, and so
    # does brute force below 2000 on the sampled classes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(
        st.sampled_from(primes_in_range(5, 3000)),
        st.sampled_from([1, 2]),
        st.lists(st.integers(0, 3000), min_size=1, max_size=3),
    )
    @hypothesis.example(2999, 2, [0])  # the deepest f = 2 rows in range
    def check(p, f, picks):
        d = (p - 1) // f
        ctx = make_context(p, d)
        closed = small_f_lengths(p, d, ctx.omega)
        solution = solve(ctx)
        assert solution.per_class_s == closed
        assert solution.method == "closed-form"
        assert by_recurrence(solution.seq.table) == list(closed)
        if p < 2000:
            for alpha in {x % d for x in picks}:
                assert brute_s(ctx, ctx.element_of_class(alpha)) == closed[alpha]

    check()


def test_f_equal_2_keys_from_2393_are_answered(capsys):
    # the 75 f = 2 keys of 2393..3000 grow no row: each is answered from its
    # table, and the answer is the closed form and the sumset growth
    keys = primes_in_range(2393, 3000)
    assert len(keys) == 75
    for p in keys[:2] + keys[-1:]:
        ctx = make_context(p, (p - 1) // 2)
        solution = solve(ctx)
        assert solution.seq.k_max == 1
        assert solution.per_class_s == small_f_lengths(p, ctx.d, ctx.omega)
        assert solution.per_class_s == sumset_lengths(ctx), p
        worst = solution.per_class_s.index(solution.g)
        for alpha in (1, 2, worst):  # brute force grows one sumset per class
            s = brute_s(ctx, ctx.element_of_class(alpha))
            assert s == solution.per_class_s[alpha], (p, alpha)
    from cyclomod.cli import main

    assert main(["sweep", "-p", "2393", "-d", "1196"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["g"] == str(max(small_f_lengths(2393, 1196, 3)))


def test_f_equal_3_key_is_answered_like_brute_force(capsys):
    # (3511, 1170): 64 rows at f = 3, well inside the running budget
    from cyclomod.cli import main

    assert main(["sd", "-p", "3511", "-d", "1170"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    per_class_s = [int(s) for s in json.loads(captured.out)["per_class_s"]]
    assert max(per_class_s) == 64
    ctx = make_context(3511, 1170)
    worst = per_class_s.index(64)
    for alpha in (0, 1, 2, 585, worst):
        assert brute_s(ctx, ctx.element_of_class(alpha)) == per_class_s[alpha]


def test_coset_walk_matches_the_oracles_below_400():
    # every key with p < 400: the walk over the class array, which reads no
    # table, against one sumset growth per key and one per class
    keys = 0
    for p in primes_in_range(3, 400):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            lengths = coset_walk(ctx).lengths
            assert lengths == sumset_lengths(ctx), (p, d)
            assert lengths == tuple(
                brute_s(ctx, ctx.element_of_class(alpha)) for alpha in range(d)), (p, d)
            keys += 1
    assert keys == 611


def test_coset_walk_table_walks_and_recurrence_agree_up_to_the_default_cap():
    # primes up to 2^22 with 3 <= d <= 8, where the sumset growth would take
    # too long: the three routes give the same vector
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def keys(draw):
        d = draw(st.integers(min_value=3, max_value=8))
        bits = draw(st.integers(min_value=3, max_value=21))  # every size alike
        top = min((2 << bits) - 1, (1 << 22) - 4096)  # room for the search
        p = draw(st.integers(min_value=1 << bits, max_value=top)) | 1
        while (p - 1) % d or not is_prime(p):  # the next prime with d | p - 1
            p += 2
        return p, d

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(keys())
    @hypothesis.example((4194301, 5))  # the largest prime under the cap
    def check(key):
        ctx = make_context(*key)
        table = compute_table(ctx)
        lengths = coset_walk(ctx).lengths
        assert list(lengths) == by_walks(table) == by_recurrence(table), key

    check()


def test_sumset_growth_matches_brute_force():
    for p, d in [(7, 3), (13, 6), (29, 14), (31, 15), (37, 9)]:
        ctx = make_context(p, d)
        assert sumset_lengths(ctx) == tuple(
            brute_s(ctx, ctx.element_of_class(alpha)) for alpha in range(d))


def test_small_f_lengths_refuses_other_orders():
    with pytest.raises(ValueError, match="f <= 2"):
        small_f_lengths(13, 4, 2)
    with pytest.raises(ValueError, match="f <= 2"):
        small_f_lengths(13, 5, 2)


def test_f_equal_1_stores_at_most_one_entry_per_row():
    # 1 is the only power, so k powers reach the single residue k: the
    # stored rows hold O(d) entries in all, not O(d^2)
    seq = NSequence(compute_table(make_context(3001, 3000)))
    seq.extend(3000, until_covered=True)
    assert seq.k_max == 3000
    assert all(len(seq.support(k)) == (k > 0) for k in range(seq.k_max + 1))


def test_three_way_equivalence_small():
    for p in primes_in_range(3, 60):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            table = compute_table(ctx)
            routes = zip(by_recurrence(table), by_walks(table))
            for alpha, (s1, s2) in enumerate(routes):
                s3 = brute_s(ctx, ctx.element_of_class(alpha))
                assert s1 == s2 == s3, (p, d, alpha)


def test_recurrence_guard_spares_d_equal_p_minus_1_near_3000():
    # f = 1: 1 is the only power, so each of the d rows holds one value of
    # one word and costs one multiply-add
    for p in primes_in_range(3001, 3061):
        seq = NSequence(compute_table(make_context(p, p - 1)))
        seq.extend(p - 1, until_covered=True)
        assert seq.k_max == p - 1
        assert seq.cells == 2 * (p - 2), p


def test_recurrence_guard_refuses_before_any_row(monkeypatch):
    import cyclomod.waring as waring_module

    ctx = make_context(4001, 4000)
    table = compute_table(ctx)
    # rows 0 and 1 cost nothing; row 2 is charged before it is grown
    monkeypatch.setattr(waring_module, "MAX_CELLS", 0)
    seq = NSequence(table)
    assert seq.cells == 0
    with pytest.raises(ScaleGuard, match="row 2 of the recurrence"):
        seq.extend(2)
    assert seq.k_max == 1
    with pytest.raises(ScaleGuard, match="row 2 of the recurrence"):
        NSequence(table, 2)
    # solve grows no row at f = 1, so it answers from the closed form
    solution = solve(ctx)
    assert solution.per_class_s == small_f_lengths(4001, 4000, ctx.omega)
    assert solution.seq.k_max == 1


def test_recurrence_budget_names_the_row_that_passes_it(monkeypatch):
    import cyclomod.waring as waring_module

    table = compute_table(make_context(31, 6))
    spent = []
    seq = NSequence(table)
    for k in range(2, 7):
        seq.extend(k)
        spent.append(seq.cells)
    assert spent == sorted(spent) and spent[0] > 0
    # a cap of exactly the first four rows' cost admits them, not row 5
    monkeypatch.setattr(waring_module, "MAX_CELLS", spent[2])
    seq = NSequence(table, 4)
    assert seq.cells == spent[2]
    with pytest.raises(ScaleGuard) as info:
        seq.extend(6)
    assert str(info.value) == (
        f"p=31, d=6: row 5 of the recurrence brings it to {seq.cells} cells, "
        f"over the cap of {spent[2]}"
    )
    assert seq.k_max == 4
    assert solve(table.ctx).g == 4  # every class is in by row 4: it fits


def _unreadable_field(p, d):
    """The context of (p, d) with a class array no table can be counted from."""
    from dataclasses import replace

    return replace(make_context(p, d), index_table=None)


def test_solve_refuses_before_counting_the_table():
    # f = 3: the 5482 x 5482 table is over the cap, whatever the rows cost
    with pytest.raises(ScaleGuard, match="the 5482 x 5482 table would need"):
        solve(_unreadable_field(16447, 5482))


def test_solve_at_small_f_is_charged_its_table_before_counting_it():
    with pytest.raises(ScaleGuard, match="the 20010 x 20010 table would need"):
        solve(_unreadable_field(20011, 20010))


def test_recurrence_cells_price_wide_values():
    # f = 2 and d = 249: row k is charged 2 multiply-adds per value of row
    # k - 1 and 1 + bits(p * 2^(k-1)) // 64 words per value it stores
    seq = NSequence(compute_table(make_context(499, 249)))
    seq.extend(249)
    expect = sum(2 * len(seq.support(k - 1))
                 + len(seq.support(k)) * (1 + (499 << (k - 1)).bit_length() // 64)
                 for k in range(2, 250))
    assert seq.cells == expect
    assert (499 << 247).bit_length() // 64 == 4  # the last row takes 5 words


def test_recurrence_cells_spare_large_p_with_moderate_d():
    # p = 4194301, d = 110: the rows the full checks read, up to k = 3, cost
    # 110 + 110 cells for row 2 and 110 * 110 + 110 for row 3, each value
    # one word; the width of p does not scale the work
    seq = NSequence(compute_table(make_context(4194301, 110)), 3)
    assert [len(seq.support(k)) for k in (2, 3)] == [110, 110]
    assert seq.cells == 110 + 110 + 110 * 110 + 110
