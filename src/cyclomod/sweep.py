"""Prime-range sweep harness: solve, cross-check, and emit stable records.

A sweep walks primes in ascending order and, for each admissible order d
(every divisor of p-1 that is at least 2, or a single requested one),
solves all classes and emits one record.  Records are written incrementally
in ascending (p, d) order so interrupted runs can resume by skipping keys
already present in the output file.  Worker processes fan out over primes:
one job solves every order of its prime through prime_results, as the
verify command does: the orders derive their contexts from one field of
p unless that needs 4-byte lanes, and each failure is reported against
its own (p, d) key while the prime's other orders still print.  The
writer consumes results in submission order, which keeps the output
deterministic regardless of the worker count.  A sweep runs
min(--jobs, primes, CPUs) workers and imports the process pool only for
more than one, so a single-worker sweep does not load multiprocessing.
A record's elapsed counts its own work, from building or deriving its
context; the shared field's build time is added to the first record of
the prime answered from it.

verify_level "fast" compares solve's two exact routes, as solve always
does: the walks on the class digraph against the n(k, v) recurrence at
f >= 3, and against the +-1 closed form at f <= 2.  A record is emitted
only when they agree on every class; otherwise the key fails.  "full"
additionally runs full_checks: the classical table identities and
relations, which see a table that both routes read wrong; one
brute-force sumset growth (which never supplies an answer) for the lower
bounds; for the upper bounds, an explicit sum of per_class_s[alpha]
powers in every class alpha, built from the power-class array without
the table and checked from p, d and omega alone; the low-order count
identities, which grow the recurrence rows to k = 3 at every f; and (for
d = 3 or 4) the closed forms and the formula tables.
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
from functools import partial
from itertools import groupby
from typing import Callable, Iterable, Iterator, TextIO

from . import closedform, cyclotomy, oracle, waring
from .cyclotomy import CheckResult
from .errors import CyclomodError
from .ffield import (
    _WIDE_ORDER, FieldContext, _max_p_limit, make_context, prime_factors,
    primes_in_range, reduced_order,
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


def prime_results(
    p: int, orders: list[int], work: Callable[..., object], max_p: int | None = None
) -> Iterator[tuple[int, object, int]]:
    """Run work(d, context) for each order d of p; context() gives d's context.

    Each order runs make_context's cheap checks (reduced_order) and the
    table's price (cyclotomy.require_table_fits), as every solving caller
    does.  One field is built at the lcm L of the orders that pass, and
    each of them derives its context from it (FieldContext.for_order).  An
    order that fails builds its own context, which raises its own error;
    so does every order when the field cannot be built, or when L needs
    4-byte lanes, where deriving costs more than a field per order.
    Yields (d, what work returned or the exception raised, without its
    traceback, elapsed ms), in the order given; elapsed counts work, which
    builds or derives the context, and the shared field's build time is
    added to the first order answered from it.
    """
    start = time.perf_counter()
    shared, field = [], None
    for d in orders:
        try:
            cyclotomy.require_table_fits(p, reduced_order(p, d, max_p=max_p))
        except Exception:  # raised again, keyed, when d builds its own context
            continue
        shared.append(d)
    if shared and math.lcm(*shared) < _WIDE_ORDER:
        try:
            field = make_context(p, math.lcm(*shared), max_p=max_p)
        except Exception:
            pass
    field_s = time.perf_counter() - start
    for d in orders:
        own = field is None or d not in shared
        context = (partial(make_context, p, d, max_p=max_p,
                           guard=cyclotomy.require_table_fits)
                   if own else partial(field.for_order, d))
        start = time.perf_counter()
        try:
            result = work(d, context)
        except Exception as exc:  # whatever the type, the failure stays keyed
            result = exc.with_traceback(None)  # frees the frames it ran in
        elapsed = time.perf_counter() - start
        if not own and field_s and not isinstance(result, Exception):
            elapsed, field_s = elapsed + field_s, 0.0
        yield d, result, int(elapsed * 1000)


def full_checks(solution: waring.WaringSolution) -> list[CheckResult]:
    """The verification battery behind verify_level=full and the verify command.

    table-identities runs the row sums and the classical relations on the
    table (cyclotomy.verify_identities).  oracle-agreement compares every
    class with one brute-force sumset growth, which gives the lower
    bounds.  witness-upper-bounds builds, from the power-class array and
    not the table, an element of each class as a sum of least many powers
    (cyclotomy.field_witnesses), and checks from p, d and omega alone that
    each is a sum of exactly per_class_s[alpha] powers
    (cyclotomy.check_witnesses), which gives the upper bounds.
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

    problems = cyclotomy.check_witnesses(
        p, d, ctx.omega, cyclotomy.field_witnesses(ctx), solution.per_class_s)
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
    p: int, d: int, verify_level: str, context: Callable[[], FieldContext]
) -> SweepRecord:
    """Solve (p, d) and run the checks for the level; raise if one fails.

    context() builds or derives the order-d context (prime_results).  The
    record's elapsed is left 0 for the caller that timed the order.
    """
    ctx = context()
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
        elapsed=0,
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
    """Every order of one prime (prime_results), each outcome keyed."""
    p, orders, verify_level, max_p = args
    outcomes = []
    for d, result, ms in prime_results(
        p, orders, lambda d, context: solve_single(p, d, verify_level, context),
        max_p,
    ):
        if isinstance(result, Exception):
            outcomes.append(("err", (p, d), f"{type(result).__name__}: {result}"))
        else:
            outcomes.append(("ok", replace(result, elapsed=ms) if ms else result))
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
        # the pool forks all its workers as it starts: one per prime and
        # one per CPU at most
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
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
