"""Acceptance suite: one test per headline criterion, exact tolerances.

Each test prints a single ACCEPTANCE line (visible with pytest -s) and then
asserts: exact equality everywhere, plus the stated wall-clock budgets for
the timed criteria.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import io
import json
import time

from cyclomod import (
    closed_g,
    compute_table,
    diophantine_witness,
    dp_counts,
    i_series,
    log_derivative_ord,
    make_context,
    period_polynomial,
    primes_in_range,
    represent,
    resolve_sign,
    solve,
)
from cyclomod.closedform import KIND_D3, KIND_D4
from cyclomod.cyclotomy import walks
from cyclomod.sweep import admissible_orders, run_sweep
from cyclomod.waring import NSequence

from conftest import (
    brute_s, factorial_denominator_violations, fraction_i_series, reciprocal_check,
)


def _report(name: str, violations, elapsed: float | None = None, budget=None):
    status = "PASS" if not violations else f"FAIL ({violations[:5]})"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s"
        timing += f" / budget {budget:.0f}s]" if budget else "]"
    print(f"ACCEPTANCE {name}: {status}{timing}")


def test_order3_closed_form_reproduction():
    start = time.perf_counter()
    bad = []
    for p in primes_in_range(3, 5000):
        if p % 3 != 1:
            continue
        g = solve(make_context(p, 3)).g
        expected = 3 if p == 7 else 2
        if g != expected or g != closed_g(p, 3):
            bad.append((p, g, expected))
    elapsed = time.perf_counter() - start
    _report("order-3 worst case over p<=5000", bad, elapsed, 10)
    assert not bad
    assert elapsed < 10


def test_order4_closed_form_reproduction():
    start = time.perf_counter()
    bad = []
    for p in primes_in_range(5, 5000):
        if p % 4 != 1:
            continue
        g = solve(make_context(p, 4)).g
        expected = 4 if p == 5 else (3 if p in (13, 17, 29) else 2)
        if g != expected or g != closed_g(p, 4):
            bad.append((p, g, expected))
    elapsed = time.perf_counter() - start
    _report("order-4 worst case over p<=5000", bad, elapsed, 10)
    assert not bad
    assert elapsed < 10


def test_three_way_solver_equivalence():
    start = time.perf_counter()
    bad = []
    for p in primes_in_range(3, 300):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            table = compute_table(ctx)
            seq = NSequence(table)
            seq.extend(d, until_covered=True)
            dist = walks(table.columns, ctx.theta)
            for alpha in range(d):
                v = (alpha + ctx.theta) % d
                s1 = seq.first_k[v]
                s2 = None if dist[v] is None else dist[v] + 1
                s3 = brute_s(ctx, ctx.element_of_class(alpha))
                if not s1 == s2 == s3:
                    bad.append((p, d, alpha, s1, s2, s3))
    elapsed = time.perf_counter() - start
    _report("three-way equivalence p<=300", bad, elapsed, 60)
    assert not bad
    assert elapsed < 60


def test_count_bridge_exact():
    bad = []
    for p in primes_in_range(3, 200):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            seq = NSequence(compute_table(ctx), 6)
            counts = dp_counts(ctx, 6)
            for k in range(1, 7):
                fk = ctx.f**k
                for a in range(1, p):
                    v = (ctx.class_of(a) + ctx.theta) % d
                    lhs, rem = divmod(fk + seq.n(k, v), p)
                    if rem or lhs != counts.count(k, a):
                        bad.append((p, d, k, a))
    _report("count bridge p<=200, k<=6", bad)
    assert not bad


def test_low_order_count_identities():
    bad = []
    for p in primes_in_range(3, 200):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            table = compute_table(ctx)
            seq = NSequence(table, 3)
            f, theta = ctx.f, ctx.theta
            for v in range(d):
                if seq.n(2, v) + f * f != p * table.counts[v][theta]:
                    bad.append(("k=2", p, d, v))
                walk2 = sum(
                    table.counts[v][i] * table.counts[i][theta] for i in range(d)
                )
                expect = p * walk2
                if theta == 0:
                    expect += f * (seq.n(1, v) + f)
                if seq.n(3, v) + f**3 != expect:
                    bad.append(("k=3", p, d, v))
    _report("low-order count identities p<=200", bad)
    assert not bad


def test_series_valuation_criterion():
    start = time.perf_counter()
    bad = []
    for p in primes_in_range(3, 100):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            solution = solve(ctx)
            for alpha in range(1, d):
                j = (alpha + ctx.theta) % d
                val = log_derivative_ord(solution.seq, j)
                s = solution.per_class_s[alpha]
                if val != s:
                    bad.append((p, d, alpha, val, s))
    elapsed = time.perf_counter() - start
    _report("series valuation = solver p<=100", bad, elapsed, 30)
    assert not bad
    assert elapsed < 30


def test_class_zero_series_is_reversed_polynomial():
    bad = []
    nonpoly_witnesses = 0
    sampled = 0
    for p in primes_in_range(3, 200):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            seq = NSequence(compute_table(ctx))
            series0 = i_series(seq, 0, d + 2)
            poly = period_polynomial(seq)
            if not reciprocal_check(series0, poly):
                bad.append((p, d))
            # sample nontrivial classes: their series must leak past degree d
            if sampled < 40 and d >= 3:
                for j in (1, d - 1):
                    sampled += 1
                    tail = i_series(seq, j, d + 4).coeffs[d + 1 :]
                    if any(tail):
                        nonpoly_witnesses += 1
    _report(
        "class-0 series reverses the period polynomial p<=200",
        bad + ([] if nonpoly_witnesses >= 20 else ["too few nonpoly witnesses"]),
    )
    assert not bad
    assert nonpoly_witnesses >= 20, nonpoly_witnesses


def test_cyclotomy_cross_validation_orders_3_and_4():
    bad = []
    for p in primes_in_range(7, 1000):
        if p % 3 == 1:
            table = compute_table(make_context(p, 3))
            try:
                resolve_sign(represent(p, KIND_D3), table)
            except Exception as exc:  # noqa: BLE001 - report, then fail
                bad.append((p, 3, str(exc)))
        if p % 4 == 1:
            table = compute_table(make_context(p, 4))
            try:
                resolve_sign(represent(p, KIND_D4), table)
            except Exception as exc:  # noqa: BLE001
                bad.append((p, 4, str(exc)))
    _report("formula tables match counted tables p<=1000", bad)
    assert not bad


def test_factorial_scaled_integrality():
    bad = []
    for p in primes_in_range(3, 60):
        for d in admissible_orders(p):
            ctx = make_context(p, d)
            seq = NSequence(compute_table(ctx))
            for j in range(d):
                if factorial_denominator_violations(fraction_i_series(seq, j, d + 2)):
                    bad.append((p, d, j))
    for p, d in [(97, 96), (89, 88), (101, 100), (211, 14), (499, 6)]:
        ctx = make_context(p, d)
        seq = NSequence(compute_table(ctx))
        for j in (0, 1, d // 2):
            if factorial_denominator_violations(fraction_i_series(seq, j, d + 2)):
                bad.append((p, d, j))
    _report("k! * c_k integrality", bad)
    assert not bad


def test_sweep_determinism():
    def body() -> list[dict]:
        buf = io.StringIO()
        list(run_sweep(3, 500, verify_level="fast", out=buf, fmt="json"))
        return [
            {k: v for k, v in json.loads(line).items() if k != "elapsed"}
            for line in buf.getvalue().splitlines()
        ]

    first = body()
    second = body()
    same = first == second
    _report("sweep determinism p<=500", [] if same else ["bodies differ"])
    assert same
    assert len(first) > 700  # every admissible (p, d) pair is present


def test_witness_certificate_matches_solver():
    # the order-4 diophantine certificate exists exactly when g > 2
    bad = []
    for p in primes_in_range(5, 1000):
        if p % 4 != 1:
            continue
        has = diophantine_witness(p) is not None
        if has != (solve(make_context(p, 4)).g > 2):
            bad.append(p)
    _report("order-4 certificate iff worst case > 2", bad)
    assert not bad
