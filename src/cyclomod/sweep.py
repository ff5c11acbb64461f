"""Prime-range sweep harness: solve, cross-check, and emit stable records.

A sweep walks primes in ascending order and, for each admissible order d
(every divisor of p-1 that is at least 2, or a single requested one),
solves all classes and emits one record.  Records are written incrementally
in ascending (p, d) order so interrupted runs can resume by skipping keys
already present in the output file.  Worker processes fan out over primes:
one job solves every order of its prime.  The job first runs each order's
cheap checks and its table's price, then builds one field of p at the lcm
L of the orders that pass (prime_fields), and derives each order's context
from it (FieldContext.for_order) instead of building a field per order.
An order refused by its price, or every order when the shared field cannot
be built, falls back to building its own context, so each failure is still
reported against its own (p, d) key and the prime's other orders still
print.  The writer consumes results in submission order, which keeps the
output deterministic regardless of the worker count.  A sweep runs
min(--jobs, primes) workers and imports the process pool only for more
than one, so a single-worker sweep does not load multiprocessing.  A
record's elapsed counts its own work, from deriving its context; the
shared field's build time is added to the first record of the prime
answered from it.

verify_level "fast" compares solve's two exact routes, as solve always
does: the walks on the class digraph against the n(k, v) recurrence at
f >= 3, and against the +-1 closed form at f <= 2.  A record is emitted
only when they agree on every class; otherwise the key fails.  "full"
additionally runs full_checks: the classical table identities and
relations, which see a table that both routes read wrong; one
brute-force sumset growth (which never supplies an answer) for the lower
bounds; for the upper bounds, an explicit sum of per_class_s[alpha]
powers in every class alpha, checked from p, d and omega alone; the
low-order count identities, which grow the recurrence rows to k = 3 at
every f; and (for d = 3 or 4) the closed forms and the formula tables.
Both levels price only the table before the field; the rows are charged
as they grow (waring.NSequence).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterable, Iterator, TextIO

from . import closedform, cyclotomy, oracle, waring
from .cyclotomy import CheckResult
from .errors import CyclomodError
from .ffield import (
    FieldContext, _max_p_limit, make_context, prime_factors, primes_in_range,
    reduced_order,
)

CSV_COLUMNS = (
    "p",
    "d",
    "f",
    "theta",
    "omega",
    "per_class_s",
    "g",
    "methods_agree",
    "closed_form_match",
    "elapsed",
)


@dataclass(frozen=True)
class SweepRecord:
    """One solved (p, d) pair plus its verification outcome.

    elapsed (milliseconds) is the only nondeterministic field and is
    excluded from the determinism contract; everything else must be
    byte-identical across runs.
    """

    p: int
    d: int
    f: int
    theta: int
    omega: int
    per_class_s: tuple[int, ...]
    g: int
    methods_agree: bool
    closed_form_match: bool | None
    elapsed: int


def admissible_orders(p: int, d_filter: int | None = None) -> list[int]:
    """Divisors of p-1 that are >= 2, ascending; optionally one requested d."""
    if p < 3:
        return []
    if d_filter is not None:
        return [d_filter] if d_filter >= 2 and (p - 1) % d_filter == 0 else []
    divisors = [1]
    for q in prime_factors(p - 1):
        powers = [1]
        while (p - 1) % (powers[-1] * q) == 0:
            powers.append(powers[-1] * q)
        divisors = [a * b for a in divisors for b in powers]
    return sorted(divisors)[1:]


def record_keys(
    p_min: int, p_max: int, d_filter: int | None = None
) -> list[tuple[int, int]]:
    """Every (p, d) key of a prime range in ascending order."""
    if not 2 < p_min <= p_max:
        raise ValueError(f"need 2 < p_min <= p_max, got {p_min}..{p_max}")
    return [
        (p, d)
        for p in primes_in_range(p_min, p_max)
        for d in admissible_orders(p, d_filter)
    ]


def prime_orders(keys: Iterable[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    """Ascending (p, d) keys grouped by prime: (p, [its orders, ascending])."""
    return [(p, [d for _, d in group]) for p, group in groupby(keys, lambda k: k[0])]


def prime_fields(
    p: int, orders: Iterable[int], max_p: int | None = None
) -> dict[int, FieldContext]:
    """The one field of p that each order's context derives from.

    Each order d runs make_context's cheap checks (reduced_order) and the
    table's price (cyclotomy.require_table_fits), as every solving caller
    does.  One field is built at the lcm of the orders that pass, and each
    of them maps to it.  An order that fails is left out, and so is every
    order when the shared field cannot be built: those build their own
    context, which raises their own error.
    """
    passed = []
    for d in orders:
        try:
            cyclotomy.require_table_fits(p, reduced_order(p, d, max_p=max_p))
        except Exception:  # raised again, keyed, when d builds its own context
            continue
        passed.append(d)
    if not passed:
        return {}
    try:
        field = make_context(p, math.lcm(*passed), max_p=max_p)
    except Exception:
        return {}
    return dict.fromkeys(passed, field)


def order_context(
    p: int, d: int, field: FieldContext | None = None, max_p: int | None = None
) -> FieldContext:
    """The order-d context of p, from field when prime_fields gave d one.

    field is a field of p that d divides, already priced for d; without
    one, the context is built here, priced as prime_fields prices it.
    """
    if field is None:
        return make_context(p, d, max_p=max_p, guard=cyclotomy.require_table_fits)
    return field.for_order(d)


def full_checks(solution: waring.WaringSolution) -> list[CheckResult]:
    """The verification battery behind verify_level=full and the verify command.

    table-identities runs the row sums, the total count and the classical
    relations on the table (cyclotomy.verify_identities).  oracle-agreement
    compares every class with one brute-force sumset growth, which gives
    the lower bounds.  witness-upper-bounds builds an element of each class
    as a sum of exactly per_class_s[alpha] powers along the walks that
    solve answered with, the breadth-first tree cached on the table, and
    checks it from p, d and omega alone (cyclotomy.check_witnesses).
    low-order-count-identities checks rows k = 2 and 3 of the recurrence
    against walks on the table, growing them when solve did not.  For
    d = 3 or 4, closed-form-agreement compares the closed forms and
    Dickson's formula tables.
    """
    checks: list[CheckResult] = []
    seq = solution.seq
    ctx, table = seq.ctx, seq.table
    p, d, f, theta = ctx.p, ctx.d, ctx.f, ctx.theta

    failed = [c for c in cyclotomy.verify_identities(table) if not c.passed]
    checks.append(
        CheckResult(
            name="table-identities",
            passed=not failed,
            detail="; ".join(c.name + ": " + c.detail for c in failed),
        )
    )

    brute = oracle.sumset_lengths(ctx)
    mismatches = [(alpha, s, b) for alpha, (s, b)
                  in enumerate(zip(solution.per_class_s, brute)) if s != b]
    checks.append(
        CheckResult(
            name="oracle-agreement",
            passed=not mismatches,
            detail="" if not mismatches else f"classes off: {mismatches}",
        )
    )

    witnesses, missing = cyclotomy.upper_bound_witnesses(table)
    problems = [f"tree edge {c} -> {j} has no incidence" for c, j in missing]
    problems += cyclotomy.check_witnesses(
        p, d, ctx.omega, witnesses, solution.per_class_s)
    checks.append(
        CheckResult(
            name="witness-upper-bounds",
            passed=not problems,
            detail="; ".join(problems),
        )
    )

    # m(2, v) = p * (v, theta), and m(3, v) = p * sum_i (v, i) * (i, theta)
    # plus f * m(1, v) when theta = 0, read off the columns in O(nnz)
    into_theta = dict(table.columns[theta])
    walk2 = [0] * d
    for i, c in into_theta.items():
        for v, c_vi in table.columns[i]:
            walk2[v] += c_vi * c
    low_bad = []
    for v in range(d):
        if seq.n(2, v) + f * f != p * into_theta.get(v, 0):
            low_bad.append(("k=2", v))
        expect3 = p * walk2[v] + (f * (seq.n(1, v) + f) if theta == 0 else 0)
        if seq.n(3, v) + f ** 3 != expect3:
            low_bad.append(("k=3", v))
    checks.append(
        CheckResult(
            name="low-order-count-identities",
            passed=not low_bad,
            detail="" if not low_bad else f"violations: {low_bad}",
        )
    )

    if d in (3, 4):
        problems = []
        try:
            cert = closedform.certify(table)
        except CyclomodError as exc:
            problems.append(f"formula table: {exc}")
        else:
            if cert.g != solution.g:
                problems.append(f"closed g={cert.g} vs solved g={solution.g}")
            if d == 4 and (cert.witness is not None) != (solution.g > 2):
                problems.append(
                    f"witness presence {cert.witness is not None} vs g={solution.g}"
                )
        checks.append(
            CheckResult(
                name="closed-form-agreement",
                passed=not problems,
                detail="; ".join(problems),
            )
        )

    return checks


def solve_single(
    p: int,
    d: int,
    verify_level: str,
    max_p: int | None = None,
    field: FieldContext | None = None,
) -> SweepRecord:
    """Solve one (p, d) pair and run the checks for the requested level.

    field, when given, is the field prime_fields gave d (order_context).
    """
    start = time.perf_counter()
    ctx = order_context(p, d, field, max_p)
    solution = waring.solve(ctx)
    closed_match: bool | None = None
    if verify_level == "full":
        checks = full_checks(solution)
        failures = [c for c in checks if not c.passed]
        if failures:
            raise CyclomodError(
                f"verification failed for (p={p}, d={ctx.d}): "
                + "; ".join(f"{c.name}: {c.detail}" for c in failures)
            )
        if ctx.d in (3, 4):
            closed_match = True
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepRecord(
        p=ctx.p,
        d=ctx.d,
        f=ctx.f,
        theta=ctx.theta,
        omega=ctx.omega,
        per_class_s=solution.per_class_s,
        g=solution.g,
        methods_agree=True,
        closed_form_match=closed_match,
        elapsed=elapsed_ms,
    )


def emit(record: SweepRecord, fmt: str = "json") -> str:
    """One output line per record, stable field order.

    Mathematical integers are rendered as decimal strings (they can exceed
    64 bits in principle and must survive any JSON parser unchanged);
    booleans stay booleans and elapsed stays a plain integer.
    """
    if fmt == "json":
        body: dict[str, object] = {
            "p": str(record.p),
            "d": str(record.d),
            "f": str(record.f),
            "theta": str(record.theta),
            "omega": str(record.omega),
            "per_class_s": [str(s) for s in record.per_class_s],
            "g": str(record.g),
            "methods_agree": record.methods_agree,
        }
        if record.closed_form_match is not None:
            body["closed_form_match"] = record.closed_form_match
        body["elapsed"] = record.elapsed
        return json.dumps(body, separators=(",", ":"))
    if fmt == "csv":
        closed = (
            "" if record.closed_form_match is None
            else ("true" if record.closed_form_match else "false")
        )
        cells = (
            str(record.p),
            str(record.d),
            str(record.f),
            str(record.theta),
            str(record.omega),
            ";".join(str(s) for s in record.per_class_s),
            str(record.g),
            "true" if record.methods_agree else "false",
            closed,
            str(record.elapsed),
        )
        return ",".join(cells)
    raise ValueError(f"unknown format {fmt!r}")


def parse_record_key(line: str, fmt: str) -> tuple[int, int] | None:
    """(p, d) key of an emitted line, or None for headers/blank lines."""
    line = line.strip()
    if not line:
        return None
    if fmt == "json":
        data = json.loads(line)
        return int(data["p"]), int(data["d"])
    cells = line.split(",")
    if cells[0] == "p":
        return None
    return int(cells[0]), int(cells[1])


def scan_completed(path: str, fmt: str) -> set[tuple[int, int]]:
    """Keys already present in an output file; tolerates a torn last line.

    A trailing line without a newline (an interrupted write) is truncated
    away so the resumed run can append cleanly.
    """
    done: set[tuple[int, int]] = set()
    if not os.path.exists(path):
        return done
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            keep = data.rfind(b"\n") + 1
            fh.truncate(keep)
            data = data[:keep]
    for line in data.decode("utf-8").splitlines():
        try:
            key = parse_record_key(line, fmt)
        except (ValueError, KeyError, json.JSONDecodeError):
            import logging

            logging.getLogger(__name__).warning(
                "ignoring unparseable line in %s: %.60s", path, line)
            continue
        if key is not None:
            done.add(key)
    return done


def _prime_job(args: tuple[int, list[int], str, int]) -> list[tuple]:
    """Every order of one prime, from one shared field, each outcome keyed."""
    p, orders, verify_level, max_p = args
    start = time.perf_counter()
    fields = prime_fields(p, orders, max_p)
    field_ms = int((time.perf_counter() - start) * 1000)
    outcomes = []
    for d in orders:
        field = fields.get(d)
        try:
            record = solve_single(p, d, verify_level, max_p, field)
        except Exception as exc:  # whatever the type, the failure stays keyed
            outcomes.append(("err", (p, d), f"{type(exc).__name__}: {exc}"))
            continue
        if field is not None and field_ms:  # the first record answered from it
            record = replace(record, elapsed=record.elapsed + field_ms)
            field_ms = 0
        outcomes.append(("ok", record))
    return outcomes


def run_sweep(
    p_min: int,
    p_max: int,
    d_filter: int | None = None,
    verify_level: str = "fast",
    *,
    out: TextIO | None = None,
    fmt: str = "json",
    skip: set[tuple[int, int]] | None = None,
    strict: bool = False,
    jobs: int = 1,
    write_header: bool = False,
    max_p: int | None = None,
) -> Iterator[SweepRecord]:
    """Yield records for every admissible (p, d) in range, ascending.

    With out set, each record is also written (and flushed) as it is
    produced, so a killed run leaves a resumable file behind.  Failures,
    including primes above the max_p cap, are reported on stderr and
    skipped unless strict is set.
    """
    if verify_level not in ("fast", "full"):
        raise ValueError(f"verify_level must be fast or full, got {verify_level!r}")
    skip = skip or set()
    keys = [k for k in record_keys(p_min, p_max, d_filter) if k not in skip]
    # a malformed CYCLOMOD_MAX_P refuses the sweep instead of every record
    max_p = _max_p_limit(max_p)
    if out is not None and write_header and fmt == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        out.flush()

    def results() -> Iterable:
        tasks = [(p, orders, verify_level, max_p) for p, orders in prime_orders(keys)]
        # the pool forks all its workers as it starts: one per prime at most
        workers = min(jobs, len(tasks))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                # map() preserves submission order: it is the reorder buffer.
                for outcomes in pool.map(_prime_job, tasks):
                    yield from outcomes
        else:
            for outcomes in map(_prime_job, tasks):
                yield from outcomes

    for outcome in results():
        if outcome[0] == "err":
            _, key, message = outcome
            print(f"sweep: (p={key[0]}, d={key[1]}) failed: {message}",
                  file=sys.stderr)
            if strict:
                raise CyclomodError(message)
            continue
        record = outcome[1]
        if out is not None:
            out.write(emit(record, fmt) + "\n")
            out.flush()
        yield record
