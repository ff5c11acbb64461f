"""Prime-range sweep harness: solve, cross-check, and emit stable records.

A sweep walks primes in ascending order and, for each admissible order d
(every divisor of p-1 that is at least 2, or a single requested one),
solves all classes and emits one record.  Records are written incrementally
in ascending (p, d) order so interrupted runs can resume by skipping keys
already present in the output file.  Worker processes fan out over (p, d)
jobs; the writer consumes results in submission order, which keeps the
output deterministic regardless of the worker count.

verify_level "fast" compares solve's two exact routes, as solve always
does: the walks on the class digraph against the n(k, v) recurrence at
f >= 3, and against the +-1 closed form at f <= 2.  A record is emitted
only when they agree on every class; otherwise the key fails.  "full"
additionally checks every class against the brute-force oracle (which
never supplies an answer), the series-side valuation for every nontrivial
class (a class whose scan gives up counts as off) and the low-order count
identities (both grow the recurrence rows on demand, at every f), the
classical table identities, and (for d = 3 or 4) the closed forms and the
formula tables.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from . import closedform, cyclotomy, oracle, series, waring
from .errors import AllZeroToOrder, CyclomodError, ScaleGuard
from .ffield import _max_p_limit, prime_factors, primes_in_range

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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


def full_checks(solution: waring.WaringSolution) -> list[CheckResult]:
    """The verification battery behind verify_level=full and the verify command."""
    checks: list[CheckResult] = []
    seq = solution.seq
    ctx, table = seq.ctx, seq.table
    p, d, f, theta = ctx.p, ctx.d, ctx.f, ctx.theta
    # the series route scans class alpha to order s_alpha, at most g
    if solution.g > series.MAX_SERIES_ORDER:
        raise ScaleGuard(
            f"p={p}, d={d}: the series route would scan to order {solution.g}, "
            f"over the cap of {series.MAX_SERIES_ORDER}"
        )

    report = cyclotomy.verify_identities(table)
    checks.append(
        CheckResult(
            name="table-identities",
            passed=report.passed,
            detail="; ".join(c.name + ": " + c.detail for c in report.failures()),
        )
    )

    brute = [
        oracle.brute_s(ctx, ctx.element_of_class(alpha)) for alpha in range(d)
    ]
    mismatches = [
        (alpha, s, b)
        for alpha, (s, b) in enumerate(zip(solution.per_class_s, brute))
        if s != b
    ]
    checks.append(
        CheckResult(
            name="oracle-agreement",
            passed=not mismatches,
            detail="" if not mismatches else f"classes off: {mismatches}",
        )
    )

    ord_bad = []
    for alpha in range(1, d):
        j = (alpha + theta) % d
        try:
            val = series.log_derivative_ord(seq, j)
        except AllZeroToOrder:
            val = None  # the scan gave up: no answer, so the class is off
        if val != solution.per_class_s[alpha]:
            ord_bad.append((alpha, val, solution.per_class_s[alpha]))
    checks.append(
        CheckResult(
            name="series-valuation-agreement",
            passed=not ord_bad,
            detail="" if not ord_bad else f"classes off: {ord_bad}",
        )
    )

    low_bad = []
    for v in range(d):
        if seq.n(2, v) + f * f != p * table.counts[v][theta]:
            low_bad.append(("k=2", v))
        walk2 = sum(table.counts[v][i] * table.counts[i][theta] for i in range(d))
        expect3 = p * walk2 + (f * (seq.n(1, v) + f) if theta == 0 else 0)
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
    p: int, d: int, verify_level: str, max_p: int | None = None
) -> SweepRecord:
    """Solve one (p, d) pair and run the checks for the requested level."""
    start = time.perf_counter()
    ctx = waring.solver_context(p, d, max_p=max_p)
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
            log.warning("ignoring unparseable line in %s: %.60s", path, line)
            continue
        if key is not None:
            done.add(key)
    return done


def _solve_job(args: tuple[int, int, str, int]):
    p, d, verify_level, max_p = args
    try:
        return ("ok", solve_single(p, d, verify_level, max_p))
    except Exception as exc:  # whatever the type, the failure stays keyed
        return ("err", (p, d), f"{type(exc).__name__}: {exc}")


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
        tasks = [(p, d, verify_level, max_p) for p, d in keys]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # map() preserves submission order: it is the reorder buffer.
                yield from pool.map(_solve_job, tasks, chunksize=4)
        else:
            yield from map(_solve_job, tasks)

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
