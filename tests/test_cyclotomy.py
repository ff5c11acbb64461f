import pytest

from cyclomod import (
    compute_table, cyclotomy, make_context, primes_in_range, solve, verify_identities,
)
from cyclomod.cyclotomy import check_witnesses, field_witnesses, walks
from cyclomod.errors import ScaleGuard
from cyclomod.ffield import is_prime
from cyclomod.oracle import sumset_lengths
from cyclomod.sweep import admissible_orders

from conftest import (
    bool_matrix, counter_row_supports, definitional_cyclotomic_counts,
    table_from_counts, witness_problems,
)


def test_table_p7_d3():
    table = compute_table(make_context(7, 3))
    assert table.counts == ((0, 0, 1), (0, 1, 1), (1, 1, 0))


def test_row_sums_p7_d3():
    # f = 2, theta = 0: row sums must be (f-1, f, f) = (1, 2, 2)
    table = compute_table(make_context(7, 3))
    assert [sum(row) for row in table.counts] == [1, 2, 2]


def test_total_count_p7_d3():
    table = compute_table(make_context(7, 3))
    assert sum(sum(row) for row in table.counts) == 3 * 2 - 1


def test_table_p13_d3_entry_01():
    # frozen from the definitional count; also pins the resolved-sign value
    # used by the order-3 formulas (L = -5, M = -1 for the generator 2)
    table = compute_table(make_context(13, 3))
    assert table.counts[0][1] == 1
    assert table.counts == ((0, 1, 2), (1, 2, 1), (2, 1, 1))


def test_matches_definitional_double_loop_everywhere(monkeypatch):
    # whole tables: each column's (i, count) pairs, with () for an empty one
    tally_by_planes = cyclotomy._tally_by_planes
    tallied = []

    def counted(ctx):
        tallied.append(ctx.p)
        return tally_by_planes(ctx)

    monkeypatch.setattr(cyclotomy, "_tally_by_planes", counted)
    for p in primes_in_range(3, 100):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            assert compute_table(ctx) == table_from_counts(
                ctx, definitional_cyclotomic_counts(ctx)), (p, d)
    assert tallied == []  # every table up to here fits one chunk: the Counter
    for p, d in ((7, 6), (13, 12)):
        assert () in compute_table(make_context(p, d)).columns, (p, d)
    # past one chunk, at d <= 8, the tally takes the bit planes
    monkeypatch.setattr(cyclotomy, "_TALLY_CHUNK", 16)
    for p, d in ((97, 4), (113, 8), (101, 10)):
        ctx = make_context(p, d)
        tallied.clear()
        assert compute_table(ctx) == table_from_counts(
            ctx, definitional_cyclotomic_counts(ctx)), (p, d)
        assert tallied == ([p] if d <= 8 else []), (p, d)


def test_bit_plane_tally_matches_the_oracles(monkeypatch):
    # a small tally chunk sends small p through the bit planes, with chunk
    # edges, a short last chunk and runs of eight chunks sharing the planes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tally_by_planes = cyclotomy._tally_by_planes
    tallied = []

    def counted(ctx):
        tallied.append(ctx.p)
        return tally_by_planes(ctx)

    monkeypatch.setattr(cyclotomy, "_tally_by_planes", counted)

    @st.composite
    def cases(draw):
        p = draw(st.sampled_from(primes_in_range(5, 2000)))
        d = draw(st.sampled_from([d for d in range(2, 9) if (p - 1) % d == 0]))
        return p, d, draw(st.integers(min_value=1, max_value=p - 3))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((5, 2, 1))  # three chunks of one incidence
    @hypothesis.example((5, 4, 2))  # a last chunk of one incidence
    @hypothesis.example((13, 2, 5))  # p - 2 = 2 * 5 + 1: just above a chunk multiple
    @hypothesis.example((13, 3, 5))
    @hypothesis.example((13, 4, 5))
    @hypothesis.example((13, 4, 1))  # eleven chunks: a second run of eight
    @hypothesis.example((1009, 4, 63))  # sixteen chunks, the last short
    @hypothesis.example((1993, 3, 1990))  # two chunks, the last of one incidence
    @hypothesis.example((29, 7, 5))  # three bits per class, a short last chunk
    @hypothesis.example((41, 8, 4))  # ten chunks of classes 0..7
    def check(case):
        p, d, chunk = case
        monkeypatch.setattr(cyclotomy, "_TALLY_CHUNK", chunk)
        ctx = make_context(p, d)
        tallied.clear()
        table = compute_table(ctx)
        assert tallied == [p], case
        assert table.row_supports == counter_row_supports(ctx), case
        if p < 400:
            assert [list(row) for row in table.counts] == (
                definitional_cyclotomic_counts(ctx)), case

    check()
    # the default chunk: at d <= 8 two chunks take the planes; one chunk,
    # or any d > 8, takes the Counter
    monkeypatch.undo()
    monkeypatch.setattr(cyclotomy, "_tally_by_planes", counted)
    for p, d, planes in (
        (16411, 3, [16411]), (16417, 4, [16417]), (16411, 5, [16411]),
        (16451, 7, [16451]), (16417, 8, [16417]),
        (16381, 4, []), (16381, 5, []), (16417, 9, []),
    ):
        tallied.clear()
        ctx = make_context(p, d)
        assert compute_table(ctx).row_supports == counter_row_supports(ctx), p
        assert tallied == planes, p


def test_row_sum_identity_all_primes():
    for p in primes_in_range(3, 150):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            table = compute_table(ctx)
            for k, row in enumerate(table.counts):
                expect = ctx.f - (1 if k == ctx.theta else 0)
                assert sum(row) == expect, (p, d, k)


def test_symmetry_when_f_even():
    for p, d in [(13, 3), (17, 4), (29, 2), (41, 10)]:
        ctx = make_context(p, d)
        assert ctx.f % 2 == 0
        t = compute_table(ctx).counts
        for i in range(d):
            for j in range(d):
                assert t[i][j] == t[j][i]


def test_bool_matrix_marks_nonzero_entries():
    for p, d in [(7, 3), (13, 4), (11, 5), (29, 28)]:
        table = compute_table(make_context(p, d))
        marks = bool_matrix(table)
        for i in range(table.ctx.d):
            for j in range(table.ctx.d):
                assert marks[i][j] == (1 if table.counts[i][j] else 0)


def test_row_supports_match_counts():
    table = compute_table(make_context(31, 6))
    for i, support in enumerate(table.row_supports):
        assert dict(support) == {
            j: c for j, c in enumerate(table.counts[i]) if c
        }


def test_verify_identities_pass():
    report = verify_identities(compute_table(make_context(7, 3)))
    assert [c for c in report if not c.passed] == []


def test_verify_identities_checks_the_relations_at_odd_f():
    # f = 7: (i, j) = (j + d/2, i + d/2) stands in for symmetry
    table = compute_table(make_context(29, 4))
    report = verify_identities(table)
    assert all(c.passed for c in report)
    assert [c.name for c in report] == ["row-sums", "reflection", "symmetry"]
    assert table.counts == ((2, 3, 0, 2), (1, 1, 2, 3), (2, 1, 2, 1), (1, 2, 3, 1))
    # a rectangle move keeps the row sums; (0,0) = 3 is not (2,2) = 2
    doctored = table_from_counts(
        table.ctx, ((3, 2, 0, 2), (0, 2, 2, 3), (2, 1, 2, 1), (1, 2, 3, 1)))
    by_name = {c.name: c for c in verify_identities(doctored)}
    assert by_name["row-sums"].passed
    assert not by_name["symmetry"].passed
    assert by_name["symmetry"].detail.startswith(
        "(i, j) = (j + d/2, i + d/2) fails at: [(0, 0)")


def test_verify_identities_p13_d4():
    report = verify_identities(compute_table(make_context(13, 4)))
    assert all(c.passed for c in report)


def test_verify_identities_reports_violations():
    table = compute_table(make_context(7, 3))
    broken = table_from_counts(
        table.ctx,
        ((1, 0, 1), (0, 1, 1), (1, 1, 0)),  # (0,0) bumped by one
    )
    report = verify_identities(broken)
    names = {c.name for c in report if not c.passed}
    assert "row-sums" in names


@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (29, 4), (11, 5)])
def test_walk_lengths_reach_theta(p, d):
    table = compute_table(make_context(p, d))
    theta = table.ctx.theta
    dist = walks(table.columns, theta)
    assert dist[theta] == 0
    assert all(x is not None for x in dist)
    # every other class's nearest out-neighbour is one walk shorter
    for i, row in enumerate(table.counts):
        assert i == theta or min(
            dist[j] for j, c in enumerate(row) if c) == dist[i] - 1, i


def test_table_past_the_cap_is_refused_before_counting():
    with pytest.raises(ScaleGuard, match="would need 400400100 cells"):
        compute_table(make_context(20011, 20010))


def test_witnesses_check_from_the_field_alone_for_every_key_below_200():
    # the field's witnesses have the least lengths: solve's and the oracle's
    for p in primes_in_range(3, 199):
        for d in admissible_orders(p):
            solution = solve(make_context(p, d))
            ctx = solution.ctx
            witnesses = field_witnesses(ctx, solution.walk)
            lengths = [None] * d
            for w in witnesses:
                lengths[w.j] = w.length
            assert tuple(lengths) == solution.per_class_s == sumset_lengths(ctx), (p, d)
            assert witness_problems(
                p, ctx.d, ctx.omega, witnesses, solution.per_class_s) == [], (p, d)
            assert check_witnesses(
                p, ctx.d, ctx.omega, witnesses, solution.per_class_s) == [], (p, d)


def test_witnesses_check_against_solve_up_to_the_default_cap():
    # primes up to 2^22, where sumset_lengths would take too long: the
    # witnesses, built without the table, must prove solve's answer
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def keys(draw):
        d = draw(st.integers(min_value=2, max_value=8))
        bits = draw(st.integers(min_value=2, max_value=21))  # every size alike
        top = min((2 << bits) - 1, (1 << 22) - 4096)  # room for the search
        p = draw(st.integers(min_value=1 << bits, max_value=top)) | 1
        while (p - 1) % d or not is_prime(p):  # the next prime with d | p - 1
            p += 2
        return p, d

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(keys())
    @hypothesis.example((4194301, 4))  # the largest prime under the cap
    def check(key):
        p, d = key
        ctx = make_context(p, d)
        solution = solve(ctx)
        assert check_witnesses(
            p, d, ctx.omega, field_witnesses(ctx, solution.walk),
            solution.per_class_s) == [], key

    check()
