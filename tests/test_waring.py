import pytest

from cyclomod import (
    brute_s,
    compute_table,
    dp_counts,
    make_context,
    primes_in_range,
    solve,
)
from cyclomod.closedform import small_f_lengths
from cyclomod.cyclotomy import MAX_CELLS, CyclotomyTable
from cyclomod.errors import InternalDisagreement, SanityFailure, ScaleGuard
from cyclomod.sweep import admissible_orders
from cyclomod.waring import NSequence, recurrence_cells

from conftest import (
    count_matrix_powers, dense_rows, s_by_matrix_powers, table_from_counts,
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
    walks = table.walk_lengths_to_theta
    return [walks[(alpha + ctx.theta) % ctx.d] + 1 for alpha in range(ctx.d)]


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
        if ctx.f >= 3:
            # solve grows no row past the last class to enter the support
            assert solution.seq.k_max == solution.g
            assert solution.seq.first_k == seq.first_k
        else:
            # the closed form answers f <= 2, so solve grows no row past k = 1
            assert solution.seq.k_max == 1

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
    assert doctored.walk_lengths_to_theta == (0, None, None)


def test_solve_examples():
    assert solve(make_context(7, 3)).g == 3
    assert solve(make_context(5, 4)).g == 4
    assert solve(make_context(29, 4)).g == 3
    sol = solve(make_context(13, 4))
    assert sol.per_class_s[0] == 1
    assert sol.method == "recurrence"
    assert solve(make_context(7, 3)).method == "closed-form"
    assert all(1 <= s <= 13 - 1 for s in sol.per_class_s)


def test_solve_per_class_bounds():
    for p, d in [(13, 4), (31, 6), (29, 28), (13, 12)]:
        sol = solve(make_context(p, d))
        assert sol.per_class_s[0] == 1
        assert sol.g == max(sol.per_class_s)
        assert all(1 <= s <= d for s in sol.per_class_s)


def long_walks(monkeypatch):
    """Walks of 98 steps from every class but theta itself."""
    monkeypatch.setattr(
        CyclotomyTable,
        "walk_lengths_to_theta",
        property(lambda table: tuple(0 if v == table.ctx.theta else 98
                                     for v in range(table.ctx.d))),
    )


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
    assert info.value.values == {"recurrence": 2, "reachability": 99}


def test_solve_raises_on_forced_disagreement_with_the_closed_form(monkeypatch):
    # (7, 3) has f = 2, so the walks are compared with the closed form
    long_walks(monkeypatch)
    with pytest.raises(InternalDisagreement) as info:
        solve(make_context(7, 3))
    assert info.value.alpha == 1
    assert info.value.values == {"closed-form": 3, "reachability": 99}


def test_solve_raises_on_classes_both_routes_leave_unanswered(monkeypatch):
    # classes 1 and 2 of this doctored (13, 3) table (f = 4) never feed
    # theta = 0, and its row and column sums are a real table's, so neither
    # route answers them: a silent route is no answer, and solve refuses
    import cyclomod.waring as waring_module

    ctx = make_context(13, 3)
    doctored = table_from_counts(ctx, ((3, 0, 0), (0, 4, 0), (0, 0, 4)))
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 1
    assert info.value.values == {"recurrence": None, "reachability": None}


def test_solve_raises_on_unwalked_classes_at_f_2(monkeypatch):
    # the same cut at (7, 3): the closed form answers every class, the walks
    # leave classes 1 and 2 unanswered, and one answer alone is refused
    import cyclomod.waring as waring_module

    ctx = make_context(7, 3)
    doctored = table_from_counts(ctx, ((1, 0, 0), (0, 2, 0), (0, 0, 2)))
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 1
    assert info.value.values == {"closed-form": 3, "reachability": None}


def test_solve_grows_the_rows_in_one_call_that_checks_column_sums(monkeypatch):
    # swapping (1, 0) and (1, 1) of the (13, 3) table (f = 4) keeps every
    # row sum and moves column theta = 0's, which row 2 of the single growth
    # call shows
    import cyclomod.waring as waring_module

    ctx = make_context(13, 3)
    swapped = table_from_counts(ctx, ((0, 1, 2), (2, 1, 1), (2, 1, 1)))
    calls = counted_extend_calls(monkeypatch)
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: swapped)
    with pytest.raises(SanityFailure, match="row 2: .* not p\\*f\\^1"):
        waring_module.solve(ctx)
    assert calls == [(1,), (3,)]  # construction, then the one growth call


def test_solve_grows_no_row_at_f_2_and_the_walks_see_a_column_swap(monkeypatch):
    # the same swap in the (7, 3) table: solve grows no row past
    # construction, and the walks disagree with the closed form instead
    import cyclomod.waring as waring_module

    ctx = make_context(7, 3)
    swapped = table_from_counts(ctx, ((0, 0, 1), (1, 0, 1), (1, 1, 0)))
    calls = counted_extend_calls(monkeypatch)
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: swapped)
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 1
    assert info.value.values == {"closed-form": 3, "reachability": 2}
    assert calls == [(1,)]  # construction only


def test_rectangle_move_at_f_2_disagrees_with_the_closed_form(monkeypatch):
    # +1 at (1, 2) and (4, 3), -1 at (1, 3) and (4, 2) keeps every row and
    # column sum of the (11, 5) table, which the recurrence's checks read;
    # the new edge 1 -> 2 shortens class 4's walk from 4 steps to 3, which
    # the closed form, reading no table, refuses
    import cyclomod.waring as waring_module

    ctx = make_context(11, 5)
    moved = [list(row) for row in compute_table(ctx).counts]
    for (i, j), delta in {(1, 2): 1, (4, 3): 1, (1, 3): -1, (4, 2): -1}.items():
        moved[i][j] += delta
    doctored = table_from_counts(ctx, moved)
    assert all(sum(row) == ctx.f - (v == ctx.theta) for v, row in enumerate(moved))
    assert all(sum(col) == ctx.f - (l == 0) for l, col in enumerate(zip(*moved)))
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    with pytest.raises(InternalDisagreement) as info:
        waring_module.solve(ctx)
    assert info.value.alpha == 4
    assert info.value.values == {"closed-form": 5, "reachability": 4}


def test_closed_form_route_at_small_f_property():
    # solve's answer at f <= 2 is the closed form, the recurrence grown to
    # full depth gives the same vector, and so does brute force below 2000;
    # keys over the recurrence price are still refused, as at every f
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(
        st.sampled_from(primes_in_range(5, 3000)), st.sampled_from([1, 2]), st.data()
    )
    @hypothesis.example(2393, 2, st.data())  # the least refused f = 2 key
    def check(p, f, data):
        d = (p - 1) // f
        ctx = make_context(p, d)
        closed = small_f_lengths(p, d, ctx.omega)
        if recurrence_cells(p, d) > MAX_CELLS:
            with pytest.raises(ScaleGuard, match="the recurrence may need"):
                solve(ctx)
            return
        solution = solve(ctx)
        assert solution.per_class_s == closed
        assert solution.method == "closed-form"
        assert by_recurrence(solution.seq.table) == list(closed)
        if p < 2000:
            sample = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3))
            for alpha in sample:
                assert brute_s(ctx, ctx.element_of_class(alpha)) == closed[alpha]

    check()


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
    for p in primes_in_range(3001, 3061):
        assert recurrence_cells(p, p - 1) <= MAX_CELLS, p


def test_recurrence_guard_refuses_before_any_row():
    ctx = make_context(4001, 4000)  # f = 1: every table entry is 0 or 1
    table = compute_table(ctx)
    assert sum(map(len, table.row_supports)) == 4001 - 2
    assert recurrence_cells(4001, 4000) == 4000 * (4000 + 3999) > MAX_CELLS
    with pytest.raises(ScaleGuard, match="the recurrence may need"):
        NSequence(table)
    with pytest.raises(ScaleGuard, match="the recurrence may need"):
        solve(ctx)


def test_solve_refuses_before_counting_the_table(monkeypatch):
    import cyclomod.waring as waring_module

    def never(ctx):
        raise AssertionError("table counted for a refused context")

    monkeypatch.setattr(waring_module, "compute_table", never)
    with pytest.raises(ScaleGuard):
        solve(make_context(4001, 4000))


def test_recurrence_cells_price_wide_values():
    # f = 2 and d = 249: stored values reach 2^249, four 64-bit words each;
    # the 249 * 497 multiply-adds are priced one cell each
    assert recurrence_cells(499, 249) == 249 * 249 * 4 + 249 * 497


def test_recurrence_cells_spare_large_p_with_moderate_d():
    # p = 4194301, d = 110: 110 rows of 110 values up to 26 words wide, and
    # 110 rows of 12100 multiply-adds; the width must not scale the work
    assert recurrence_cells(4194301, 110) == 110 * 110 * 26 + 110 * 12100 <= MAX_CELLS
