"""Smoke and self-tests of the benchmark, at toy sizes.

    python3 -m pytest -q -p no:cacheprovider bench

Every workload runs at a toy size, untraced and traced, through the same
code the real runs use.
"""

from __future__ import annotations

import json
import re
import time

import pytest

import run
import workloads

TOYS = {
    "field_large": ["sd", "-p", "13", "-d", "4"],
    "order_high": ["sd", "-p", "7", "-d", "6"],
    "sweep_fast": ["sweep", "--pmin", "3", "--pmax", "30", "--verify", "fast",
                   "--jobs", "1"],
    "verify_full": ["sweep", "--pmin", "3", "--pmax", "30", "--verify", "full",
                    "--jobs", "1"],
}
EXACT_COUNTS = ("waring.recurrence_rows", "waring.recurrence_row_ops",
                "series.coeffs_scanned", "cyclotomy.tables_per_record")


def toy_expected(command):
    return {workloads.record_key(r): workloads.digest(r)
            for r in workloads.expected_records(command)}


def toy_run(name, traced, expected=None):
    command = TOYS[name]
    measured = run.measure(name, command, expected or toy_expected(command),
                           seconds=0.2, traced=traced)
    return run.summarize(measured)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TOYS))
def test_toy_run_prints_every_metric_with_its_unit(name, traced, capsys):
    record = toy_run(name, traced)
    final = run.report(record, traced)
    printed = capsys.readouterr().out

    assert final["correct"] and final["failed"] == 0 and record["error_rate"] == 0
    wanted = run.PER_LAYER if traced else run.END_TO_END
    assert {n: m["unit"] for n, m in final["metrics"].items()} == dict(wanted)
    shown = (*run.END_TO_END, ("error_rate", "share"), *(run.PER_LAYER if traced else ()))
    for metric, unit in shown:
        line = rf"^\s+{re.escape(metric)}\s+\S+ {re.escape(unit)}(\s|$)"
        assert re.search(line, printed, re.M), metric
    json.dumps(final, allow_nan=False)

    if traced:
        layers = {n: m["value"] for n, m in final["metrics"].items()}
        self_total = sum(v for n, v in layers.items() if n.endswith(".self_s"))
        assert layers["trace.gap_s"] >= 0
        assert self_total + layers["trace.gap_s"] == pytest.approx(
            layers["trace.wall_s"], rel=1e-9, abs=1e-9)


def test_exact_counts_repeat_between_runs():
    first, second = (toy_run("verify_full", True)["per_layer"] for _ in range(2))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name


@pytest.mark.parametrize("doctor", ["differing", "extra", "missing"])
def test_doctored_reference_makes_error_rate_nonzero(doctor):
    expected = toy_expected(TOYS["sweep_fast"])
    key = next(iter(expected))
    if doctor == "differing":
        expected[key] = "0" * 16
    elif doctor == "extra":  # the program prints a key the reference lacks
        del expected[key]
    else:
        expected["2,2"] = "0" * 16
    record = toy_run("sweep_fast", False, expected)
    calls = record["attempted"] // len(expected)
    assert record["failed"] == calls >= 1
    assert record["error_rate"] > 0 and not record["correct"]


def test_memory_cap_fails_the_call_not_the_benchmark():
    # About 0.2 GiB is needed for this index table; the cap allows 0.125.
    call = run.run_call(["sd", "-p", "4194301", "-d", "4"], {"4194301,4": "x"},
                        deadline=time.monotonic() + 60, as_limit=128 << 20)
    assert call.failed == 1 and "MemoryError" in call.problem


def test_timeout_kills_the_call():
    call = run.run_call(["sd", "-p", "4194301", "-d", "4"], {"4194301,4": "x"},
                        deadline=time.monotonic() + 60, timeout=0.5)
    assert call.failed == 1 and call.wall_s is None and "killed" in call.problem


def test_pinned_reference_matches_the_independent_derivation():
    reference = workloads.load_reference()
    assert reference == workloads.build_reference()
    for name, entry in reference.items():
        default = workloads.argv_for(name, workloads.DEFAULT_SEED)
        assert entry["default_argv"] == default
        if "full" in entry:
            full = entry["full"]
            assert entry["digests"][workloads.record_key(full)] == workloads.digest(full)


def test_seed_picks_from_the_band():
    assert workloads.argv_for("field_large", 0) == ["sd", "-p", "4194301", "-d", "4"]
    assert workloads.argv_for("order_high", 0) == ["sd", "-p", "3001", "-d", "3000"]
    assert workloads.argv_for("order_high", 9) == workloads.argv_for("order_high", 1)
    assert all(p % 4 == 1 for p in workloads.FIELD_LARGE_BAND)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workloads.WORKLOADS[workload["name"]] == workload["why"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
