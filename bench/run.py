"""Benchmark cyclomod end to end through its CLI entry point.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Each workload is one ``cyclomod.cli.main`` command (see workloads.py) run
in a closed loop: one caller, one command at a time, each in a fresh
child process (child.py) with its address space capped, until the run has
measured for ``--seconds``.  Every call's output is checked against the
pinned reference (reference.json).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the first half of the run is untraced and the second half traced, and the
JSON carries the per-layer metrics of the traced call with the median wall
time.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
AS_LIMIT = 1 << 30  # bytes of address space per child; peak RSS is ~0.2 GiB
RUN_BUDGET_S = 170.0  # a whole run, probes included, ends within this

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

# Span names whose self time is reported under "<name>.self_s".
SELF_SPANS = (
    "ffield.make_context",
    "cyclotomy.compute_table",
    "cyclotomy.verify_identities",
    "waring.solve",
    "waring.s_by_recurrence",
    "waring.NSequence.extend",
    "waring.s_by_reachability",
    "series.log_derivative_ord",
    "oracle.brute_s",
    "sweep.run_sweep",
    "sweep.solve_single",
    "sweep.full_checks",
    "sweep.admissible_orders",
    "sweep.emit",
    "cli.main",
    "trace.inspect",
)

PER_LAYER = (
    ("ffield.make_context.calls", "count"),
    ("ffield.make_context.self_s", "s"),
    ("ffield.contexts_per_prime", "contexts/prime"),
    ("ffield.index_table_bytes", "bytes"),
    ("cyclotomy.compute_table.calls", "count"),
    ("cyclotomy.compute_table.self_s", "s"),
    ("cyclotomy.tables_per_record", "tables/record"),
    ("cyclotomy.table_entries", "count"),
    ("cyclotomy.verify_identities.self_s", "s"),
    ("waring.solve.self_s", "s"),
    ("waring.s_by_recurrence.self_s", "s"),
    ("waring.NSequence.extend.self_s", "s"),
    ("waring.recurrence_rows", "count"),
    ("waring.recurrence_row_ops", "count"),
    ("waring.max_int_bits", "bits"),
    ("waring.s_by_reachability.self_s", "s"),
    ("waring.oracle_fallbacks", "count"),
    ("series.log_derivative_ord.calls", "count"),
    ("series.log_derivative_ord.self_s", "s"),
    ("series.coeffs_scanned", "count"),
    ("series.fallbacks", "count"),
    ("oracle.brute_s.calls", "count"),
    ("oracle.brute_s.self_s", "s"),
    ("closedform.calls", "count"),
    ("closedform.self_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.solve_single.self_s", "s"),
    ("sweep.full_checks.self_s", "s"),
    ("sweep.admissible_orders.self_s", "s"),
    ("sweep.emit.self_s", "s"),
    ("sweep.records", "count"),
    ("sweep.failed_records", "count"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.inspect.self_s", "s"),
    ("trace.gap_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

NOTES = {
    "ffield.index_table_bytes": "computed from the largest index table's length",
    "cyclotomy.table_entries": "computed: sum of d*d over tables built",
    "other.self_s": "self time of traced functions not listed above",
    "trace.gap_s": "traced wall time outside the cli.main span",
    "trace.overhead_s": "traced wall_s minus untraced median wall_s",
}


@dataclass
class Call:
    """One command run in one child process, and how its output checked out."""

    expected: int
    correct: int = 0
    failed: int = 0
    setup_s: float | None = None
    import_s: float | None = None
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    trace: dict | None = None
    spans: Path | None = None
    problem: str = ""


@dataclass
class Run:
    name: str
    seed: int
    command: list[str]
    seconds: float
    traced: bool
    setup: list[float] = field(default_factory=list)
    untraced: list[Call] = field(default_factory=list)
    traced_calls: list[Call] = field(default_factory=list)
    chosen: Call | None = None  # the traced call whose layers are reported

    @property
    def calls(self) -> list[Call]:
        return self.untraced + self.traced_calls


def spawn(command, *, spans=None, timeout=60.0, as_limit=AS_LIMIT):
    """Run child.py once; return (result or None, stdout, problem text)."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    args = [sys.executable, str(BENCH / "child.py"), str(SRC), str(result_path),
            str(as_limit), str(spans) if spans else "-", *command]
    spawned = time.monotonic()
    with subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "", f"killed after the {timeout:.0f} s timeout"
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            raise
    result = None
    if result_path.exists():
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result["setup_s"] = result["imported_at"] - spawned
    if proc.returncode != 0 or result is None:
        tail = err.strip().splitlines()[-1:] or ["no result"]
        return result, out, f"exit {proc.returncode}: {tail[0]}"
    return result, out, ""


def check_output(stdout: str, expected: dict[str, str]) -> tuple[int, int]:
    """(correct, failed) records: missing, extra and differing ones fail.

    The exit code is not trusted: a non-strict sweep exits 0 even when
    records failed, so every expected key must be present and match.
    """
    matched: dict[str, bool] = {}
    extra = 0
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key = workloads.record_key(record)
        except (ValueError, KeyError, TypeError):
            extra += 1
            continue
        if key in matched or key not in expected:
            extra += 1
            continue
        matched[key] = workloads.digest(record) == expected[key]
    correct = sum(matched.values())
    return correct, len(expected) - correct + extra


def run_call(command, expected, *, deadline, spans=None, as_limit=AS_LIMIT,
             timeout=None) -> Call:
    left = max(1.0, deadline - time.monotonic())
    result, out, problem = spawn(command, spans=spans, as_limit=as_limit,
                                 timeout=min(left, timeout or left))
    call = Call(expected=len(expected), problem=problem)
    if result is not None:
        call.setup_s = result["setup_s"]
        call.import_s = result["import_s"]
        call.wall_s = result.get("wall_s")
        call.peak_rss_mb = result.get("peak_rss_mb")
        call.trace = result.get("trace")
        call.spans = spans
        if result.get("error"):
            call.problem = result["error"]
        elif result.get("rc") != 0:
            call.problem = call.problem or f"cyclomod exit code {result.get('rc')}"
    if call.problem or call.wall_s is None:
        call.failed = len(expected)
    else:
        call.correct, call.failed = check_output(out, expected)
    return call


def measure(name, command, expected, *, seconds, traced, seed=0) -> Run:
    """Set-up probes, then calls in a closed loop for ``seconds``."""
    run = Run(name=name, seed=seed, command=command, seconds=seconds, traced=traced)
    deadline = time.monotonic() + RUN_BUDGET_S
    for _ in range(SETUP_PROBES):
        result, _, problem = spawn([], timeout=30.0)
        if problem:
            raise RuntimeError(f"set-up probe failed: {problem}")
        run.setup.append(result["setup_s"])
    start = time.monotonic()
    phases = [(run.untraced, seconds / 2 if traced else seconds)]
    if traced:
        phases.append((run.traced_calls, seconds))
    for calls, until in phases:
        took: list[float] = []
        # Start another call only while it should end near the window's end,
        # so a run overshoots ``seconds`` by half a call at most, typically.
        while not calls or (time.monotonic() - start + statistics.median(took) / 2
                            < until and time.monotonic() < deadline):
            traced_call = calls is run.traced_calls
            spans = OUT / f"{name}.spans.{len(calls)}.jsonl" if traced_call else None
            began = time.monotonic()
            call = run_call(command, expected, deadline=deadline, spans=spans)
            took.append(time.monotonic() - began)
            calls.append(call)
            if call.wall_s is None:  # killed or crashed: do not keep trying
                break
    run.setup += [c.setup_s for c in run.calls if c.setup_s is not None]
    done = sorted((c for c in run.traced_calls if c.trace), key=lambda c: c.wall_s)
    run.chosen = done[(len(done) - 1) // 2] if done else None
    for call in run.traced_calls:
        if call is not run.chosen and call.spans is not None:
            call.spans.unlink(missing_ok=True)
    if run.chosen is not None:
        run.chosen.spans = run.chosen.spans.rename(OUT / f"{name}.spans.jsonl")
    return run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(run: Run) -> dict[str, list[float]]:
    """Per-call samples of each end-to-end metric, untraced calls only."""
    done = [c for c in run.untraced if c.wall_s is not None]
    return {
        "setup_s": run.setup,
        "wall_s": [c.wall_s for c in done],
        "records_per_s": [c.correct / c.wall_s for c in done],
        "peak_rss_mb": [c.peak_rss_mb for c in done],
    }


def per_layer(call: Call, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced call; self times add up exactly."""
    t = call.trace
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    out: dict[str, float] = {}
    grouped = set(SELF_SPANS)
    for span in SELF_SPANS:
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    closed = [n for n in self_s if n.startswith("closedform.")]
    grouped.update(closed)
    out["closedform.self_s"] = sum(self_s[n] for n in closed)
    out["closedform.calls"] = sum(calls[n] for n in closed)
    out["other.self_s"] = sum(v for n, v in self_s.items() if n not in grouped)
    contexts = calls.get("ffield.make_context", 0)
    tables = calls.get("cyclotomy.compute_table", 0)
    out.update({
        "ffield.make_context.calls": contexts,
        "ffield.contexts_per_prime": contexts / max(1, t["distinct_primes"]),
        "ffield.index_table_bytes": t["index_table_bytes"],
        "cyclotomy.compute_table.calls": tables,
        "cyclotomy.tables_per_record": tables / max(1, call.correct),
        "cyclotomy.table_entries": counts.get("table_entries", 0),
        "waring.recurrence_rows": counts.get("recurrence_rows", 0),
        "waring.recurrence_row_ops": counts.get("recurrence_row_ops", 0),
        "waring.max_int_bits": t["max_int_bits"],
        "waring.oracle_fallbacks": counts.get("oracle_fallbacks", 0),
        "series.log_derivative_ord.calls": calls.get("series.log_derivative_ord", 0),
        "series.coeffs_scanned": counts.get("coeffs_scanned", 0),
        "series.fallbacks": counts.get("series_fallbacks", 0),
        "oracle.brute_s.calls": calls.get("oracle.brute_s", 0),
        "sweep.records": counts.get("records", 0),
        "sweep.failed_records": counts.get("failed_records", 0),
        "cli.import_s": call.import_s,
        "trace.gap_s": call.wall_s - t["root_s"],
        "trace.wall_s": call.wall_s,
        "trace.overhead_s": call.wall_s - untraced_wall,
        "trace.spans": t["spans"],
    })
    return {name: out[name] for name, _ in PER_LAYER}


def provenance() -> dict:
    """Machine and code identity; ``git_dirty`` is about ``src/`` only."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None

    def proc_line(path, prefix):
        try:
            with open(path, encoding="utf-8") as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh
                             if ln.startswith(prefix)), None)
        except OSError:
            return None

    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_line("/proc/cpuinfo", "model name"),
        "mem_total": proc_line("/proc/meminfo", "MemTotal"),
    }


def summarize(run: Run) -> dict:
    """Everything a run measured, as one JSON-ready record."""
    calls = run.calls
    attempted = sum(c.expected for c in calls)
    failed = sum(c.failed for c in calls)
    stats = {}
    samples = end_to_end(run)
    for name, unit in END_TO_END:
        values = samples[name]
        if values:
            q1, med, q3 = _quartiles(values)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                           "unit": unit, "samples": values}
    record = {
        "workload": run.name,
        "seed": run.seed,
        "command": ["cyclomod", *run.command],
        "seconds": run.seconds,
        "loop": "closed: one caller, one command at a time, each in its own "
                "process; sweeps run with --jobs 1",
        "correct": failed == 0 and bool(calls),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "expected_keys": calls[0].expected if calls else 0,
        "problems": sorted({c.problem for c in calls if c.problem}),
        "end_to_end": stats,
        "wait_time": "not reported: one caller and --jobs 1, so no layer queues",
    }
    chosen = run.chosen
    if chosen is not None and "wall_s" in stats:
        layers = per_layer(chosen, stats["wall_s"]["median"])
        record["per_layer"] = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
        record["traced_calls"] = len(run.traced_calls)
        record["spans_file"] = str(chosen.spans.relative_to(ROOT))
        others = [(v, n) for n, v in chosen.trace["self_s"].items()
                  if n not in SELF_SPANS and not n.startswith("closedform.")]
        record["other_spans"] = {n: v for v, n in sorted(others, reverse=True)[:4]}
        record["exact_counts_repeat"] = all(
            c.trace["counts"] == chosen.trace["counts"]
            for c in run.traced_calls if c.trace)
    return record


def report(record: dict, traced: bool) -> dict:
    """Print a record for people, then return the driver's result object."""
    print(f"== {record['workload']} (seed {record['seed']}): "
          f"{' '.join(record['command'])}")
    print(f"   {record['loop']}")
    for name, s in record["end_to_end"].items():
        print(f"   {name:<14} {s['median']:.6g} {s['unit']}  median of {s['n']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"   {'error_rate':<14} {record['error_rate']:.6g} share  "
          f"{record['failed']} failed of {record['attempted']} expected records "
          f"({record['expected_keys']} keys per call)")
    print("   too few samples for a percentile above the median with ten "
          "samples beyond it")
    print(f"   wait time: {record['wait_time']}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    layers = record.get("per_layer", {})
    if layers:
        print(f"   per layer, traced call with the median wall time of "
              f"{record['traced_calls']}; spans in {record['spans_file']}:")
        for name, m in layers.items():
            note = f"  ({NOTES[name]})" if name in NOTES else ""
            print(f"   {name:<36} {m['value']:.6g} {m['unit']}{note}")
        print("   other.self_s is mostly: " + ", ".join(
            f"{n} {v:.3g} s" for n, v in record["other_spans"].items()))
        print(f"   exact counts repeat over the traced calls: "
              f"{record['exact_counts_repeat']}")
    if traced:
        metrics = layers
    else:
        metrics = {n: {"value": s["median"], "unit": s["unit"]}
                   for n, s in record["end_to_end"].items()}
    return {"correct": record["correct"] and len(metrics) > 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "cyclomod" / "cli.py").is_file():
        print(f"error: no cyclomod sources under {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results, records = [], {}
    for name in names:
        command = workloads.argv_for(name, args.seed)
        expected = workloads.expected_digests(name, command, reference)
        run = measure(name, command, expected, seconds=args.seconds,
                      traced=bool(args.trace), seed=args.seed)
        records[name] = summarize(run)
        results.append((name, report(records[name], bool(args.trace))))
    machine = provenance()
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"provenance": machine, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "workloads": records}, indent=1) + "\n")
    print("provenance: " + json.dumps(machine))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{m}": v for n, r in results
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
