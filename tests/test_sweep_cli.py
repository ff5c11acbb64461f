import io
import json
import logging
import os
import sys
import time
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from cyclomod import compute_table, ffield, make_context, period_polynomial, solve
from cyclomod.cli import main
from cyclomod.closedform import small_f_lengths
from cyclomod.errors import CyclomodError, InputError, ScaleGuard
from cyclomod.ffield import primes_in_range
from cyclomod.periods import MAX_PERIOD_DEGREE
from cyclomod.series import MAX_SERIES_ORDER
from cyclomod.sweep import (
    SweepRecord,
    admissible_orders,
    emit,
    full_checks,
    parse_record_key,
    prime_results,
    run_sweep,
    scan_completed,
    solve_single,
)
from cyclomod.waring import NSequence

from conftest import table_from_counts


def test_admissible_orders():
    assert admissible_orders(13) == [2, 3, 4, 6, 12]
    assert admissible_orders(13, 4) == [4]
    assert admissible_orders(13, 5) == []
    assert admissible_orders(7) == [2, 3, 6]
    for p in primes_in_range(2, 2000):
        naive = [d for d in range(2, p) if (p - 1) % d == 0]
        assert admissible_orders(p) == naive, p
        for d in (1, p - 1, p, p + 1, 0, -2):
            assert admissible_orders(p, d) == ([d] if d in naive else []), (p, d)
    assert admissible_orders(31, 7) == []  # 7 does not divide 30


def test_solve_single_record_fields():
    rec = solve_single(7, 3, "full", lambda: make_context(7, 3))
    assert (rec.p, rec.d, rec.f, rec.theta, rec.omega) == (7, 3, 2, 0, 3)
    assert rec.per_class_s == (1, 3, 2)
    assert rec.g == 3
    assert rec.methods_agree
    assert rec.closed_form_match is True
    assert rec.elapsed >= 0


def test_solve_single_fast_leaves_closed_form_unset():
    rec = solve_single(7, 3, "fast", lambda: make_context(7, 3))
    assert rec.closed_form_match is None


def test_full_checks_grow_the_rows_that_solve_skips_at_small_f():
    # at f <= 2 solve answers from the closed form and leaves the rows at
    # k = 1; the low-order identities grow them to k = 3
    for p, d in [(7, 3), (31, 15), (37, 36)]:
        solution = solve(make_context(p, d))
        assert solution.method == "closed-form"
        assert solution.seq.k_max == 1
        checks = full_checks(solution)
        assert [c.name for c in checks if not c.passed] == [], (p, d)
        assert {"witness-upper-bounds", "low-order-count-identities"} <= {
            c.name for c in checks
        }
        assert solution.seq.k_max >= 3, (p, d)


def test_emit_json_field_order_and_strings():
    rec = solve_single(7, 3, "full", lambda: make_context(7, 3))
    line = emit(rec, "json")
    data = json.loads(line)
    assert list(data) == [
        "p", "d", "f", "theta", "omega", "per_class_s", "g",
        "methods_agree", "closed_form_match", "elapsed",
    ]
    assert data["g"] == "3"
    assert data["per_class_s"] == ["1", "3", "2"]
    assert data["methods_agree"] is True
    assert isinstance(data["elapsed"], int) and data["elapsed"] >= 0


def test_emit_json_omits_closed_form_when_not_applicable():
    rec = solve_single(11, 5, "fast", lambda: make_context(11, 5))
    data = json.loads(emit(rec, "json"))
    assert "closed_form_match" not in data
    assert data["f"] == "2"
    assert data["per_class_s"] == ["1", "2", "4", "3", "5"]


def test_emit_csv():
    rec = solve_single(7, 3, "full", lambda: make_context(7, 3))
    assert emit(rec, "csv") == f"7,3,2,0,3,1;3;2,3,true,true,{rec.elapsed}"
    with pytest.raises(ValueError):
        emit(rec, "toml")


def test_parse_record_key():
    rec = solve_single(7, 3, "fast", lambda: make_context(7, 3))
    assert parse_record_key(emit(rec, "json"), "json") == (7, 3)
    assert parse_record_key(emit(rec, "csv"), "csv") == (7, 3)
    assert parse_record_key("p,d,f", "csv") is None
    assert parse_record_key("", "json") is None


def test_run_sweep_order_and_content():
    records = list(run_sweep(5, 30, d_filter=4, verify_level="full"))
    assert [(r.p, r.g) for r in records] == [(5, 4), (13, 3), (17, 3), (29, 3)]
    assert all(r.methods_agree and r.closed_form_match for r in records)


def test_run_sweep_ascending_keys():
    keys = [(r.p, r.d) for r in run_sweep(3, 40, verify_level="fast")]
    assert keys == sorted(keys)
    assert (31, 6) in keys and (37, 36) in keys


def test_run_sweep_validates_arguments():
    with pytest.raises(ValueError):
        list(run_sweep(2, 10))
    with pytest.raises(ValueError):
        list(run_sweep(10, 5))
    with pytest.raises(ValueError):
        list(run_sweep(5, 10, verify_level="paranoid"))


def test_run_sweep_skip_keys():
    full = [(r.p, r.d) for r in run_sweep(3, 20, verify_level="fast")]
    skip = {(7, 2), (13, 4)}
    partial = [
        (r.p, r.d) for r in run_sweep(3, 20, verify_level="fast", skip=skip)
    ]
    assert partial == [k for k in full if k not in skip]


def test_resume_after_interruption(tmp_path):
    out = tmp_path / "records.jsonl"
    body_full = io.StringIO()
    list(run_sweep(3, 30, verify_level="fast", out=body_full))
    lines = body_full.getvalue().splitlines()

    # simulate an interrupted run: half the records, plus a torn final line
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
        fh.write(lines[len(lines) // 2][: 17])  # torn write, no newline

    done = scan_completed(str(out), "json")
    assert len(done) == len(lines) // 2
    with open(out, "a", encoding="utf-8") as fh:
        list(run_sweep(3, 30, verify_level="fast", out=fh, skip=done))

    resumed = out.read_text().splitlines()
    strip = lambda ls: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed"} for l in ls
    ]
    assert strip(resumed) == strip(lines)


def test_resume_warns_once_on_an_unparseable_line(tmp_path, caplog):
    body = io.StringIO()
    list(run_sweep(3, 13, verify_level="fast", out=body))
    lines = body.getvalue().splitlines()
    out = tmp_path / "records.jsonl"
    out.write_text("\n".join([lines[0], "{not a record", *lines[1:]]) + "\n")

    with caplog.at_level(logging.WARNING, logger="cyclomod.sweep"):
        done = scan_completed(str(out), "json")

    assert done == {parse_record_key(line, "json") for line in lines}
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1
    assert str(out) in warned[0].getMessage()


def test_sweep_determinism_without_elapsed():
    a, b = io.StringIO(), io.StringIO()
    list(run_sweep(3, 60, verify_level="fast", out=a))
    list(run_sweep(3, 60, verify_level="fast", out=b))
    strip = lambda body: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed"}
        for l in body.splitlines()
    ]
    assert strip(a.getvalue()) == strip(b.getvalue())


def test_sweep_parallel_matches_serial():
    serial = io.StringIO()
    parallel = io.StringIO()
    list(run_sweep(3, 40, verify_level="fast", out=serial, jobs=1))
    list(run_sweep(3, 40, verify_level="fast", out=parallel, jobs=2))
    strip = lambda body: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed"}
        for l in body.splitlines()
    ]
    assert strip(serial.getvalue()) == strip(parallel.getvalue())


def test_sweep_strict_aborts_on_failure(monkeypatch, capsys):
    import cyclomod.sweep as sweep_module
    from cyclomod.errors import CyclomodError

    real = sweep_module.solve_single

    def failing(p, d, verify_level, context):
        if (p, d) == (7, 3):
            raise CyclomodError("synthetic failure")
        return real(p, d, verify_level, context)

    monkeypatch.setattr(sweep_module, "solve_single", failing)
    with pytest.raises(CyclomodError):
        list(run_sweep(3, 11, verify_level="fast", strict=True))

    # non-strict: diagnostic on stderr, the bad key skipped, the rest kept
    records = list(run_sweep(3, 11, verify_level="fast"))
    assert (7, 3) not in {(r.p, r.d) for r in records}
    assert (7, 2) in {(r.p, r.d) for r in records}
    assert "(p=7, d=3) failed" in capsys.readouterr().err


def test_sweep_reports_any_exception_by_key(monkeypatch, capsys):
    import cyclomod.sweep as sweep_module
    from cyclomod.errors import CyclomodError

    real = sweep_module.solve_single

    def failing(p, d, verify_level, context):
        if (p, d) == (7, 3):
            raise RuntimeError("synthetic bug")
        return real(p, d, verify_level, context)

    monkeypatch.setattr(sweep_module, "solve_single", failing)
    records = list(run_sweep(3, 11, verify_level="fast"))
    keys = [(r.p, r.d) for r in records]
    assert keys == [
        (3, 2), (5, 2), (5, 4), (7, 2), (7, 6), (11, 2), (11, 5), (11, 10)
    ]
    assert capsys.readouterr().err == (
        "sweep: (p=7, d=3) failed: RuntimeError: synthetic bug\n"
    )
    with pytest.raises(CyclomodError, match="RuntimeError: synthetic bug"):
        list(run_sweep(3, 11, verify_level="fast", strict=True))
    assert main(["sweep", "--pmin", "3", "--pmax", "11", "--strict"]) == 1


# --- CLI surface ---


def _count_fields(monkeypatch) -> list:
    """Record the (p, d) of every power-class array built."""
    built = []
    real = ffield._power_classes

    def counting(p, omega, d):
        built.append((p, d))
        return real(p, omega, d)

    monkeypatch.setattr(ffield, "_power_classes", counting)
    return built


def test_sweep_builds_one_field_per_prime(monkeypatch):
    built = _count_fields(monkeypatch)
    records = list(run_sweep(3, 100, verify_level="fast"))
    primes = primes_in_range(3, 100)
    assert [p for p, _ in built] == primes
    # each field is built at the lcm of the prime's orders, here p - 1
    assert built == [(p, p - 1) for p in primes]
    assert len(records) == sum(len(admissible_orders(p)) for p in primes)
    built.clear()
    assert main(["verify", "--pmin", "3", "--pmax", "30"]) == 0
    assert built == [(p, p - 1) for p in primes_in_range(3, 30)]


def test_a_refused_order_is_keyed_and_left_out_of_the_shared_field(
    monkeypatch, capsys
):
    import cyclomod.cyclotomy as cyclotomy_module

    real = cyclotomy_module.require_table_fits

    def refuse_7_3(p, d):
        if (p, d) == (7, 3):
            raise ScaleGuard("synthetic price")
        real(p, d)

    monkeypatch.setattr(cyclotomy_module, "require_table_fits", refuse_7_3)
    built = _count_fields(monkeypatch)
    keys = [(r.p, r.d) for r in run_sweep(7, 7, verify_level="fast")]
    assert keys == [(7, 2), (7, 6)]
    assert built == [(7, 6)]  # 3 passed no guard, so it built nothing
    assert capsys.readouterr().err == (
        "sweep: (p=7, d=3) failed: ScaleGuard: synthetic price\n"
    )


def test_a_failed_shared_field_leaves_each_order_its_own(monkeypatch, capsys):
    # the field at the lcm fails: every order builds its own context, and
    # only the order whose own field fails too is reported
    built = _count_fields(monkeypatch)
    counting = ffield._power_classes

    def no_order_6(p, omega, d):
        if d == 6:
            raise RuntimeError("synthetic field failure")
        return counting(p, omega, d)

    monkeypatch.setattr(ffield, "_power_classes", no_order_6)
    keys = [(r.p, r.d) for r in run_sweep(7, 7, verify_level="fast")]
    assert keys == [(7, 2), (7, 3)]
    assert built == [(7, 2), (7, 3)]
    assert capsys.readouterr().err == (
        "sweep: (p=7, d=6) failed: RuntimeError: synthetic field failure\n"
    )


def test_verify_and_sweep_share_one_field_and_the_same_contexts(
    monkeypatch, capsys
):
    import cyclomod.waring as waring_module

    built = _count_fields(monkeypatch)
    real = waring_module.solve
    seen = []

    def recording(ctx):
        seen.append((ctx.p, ctx.d, ctx.omega, bytes(ctx.index_table)))
        return real(ctx)

    monkeypatch.setattr(waring_module, "solve", recording)
    assert main(["verify", "-p", "13"]) == 0
    verified, seen[:] = seen[:], []
    assert built == [(13, 12)]
    built.clear()
    assert main(["sweep", "-p", "13", "--verify", "full"]) == 0
    assert built == [(13, 12)]
    assert seen == verified
    assert [(p, d) for p, d, _, _ in seen] == [(13, d) for d in admissible_orders(13)]
    assert capsys.readouterr().err == ""


def test_the_shared_field_needs_no_wide_lanes(monkeypatch):
    # at p = 5479 the orders that pass their price have lcm L = 5478, an
    # order whose own table is priced out, and share one field of 2-byte
    # lanes; at p = 32771, L = 32770 would take 4-byte lanes, so each order
    # that passes builds its own
    built = _count_fields(monkeypatch)
    orders = admissible_orders(5479)
    results = list(prime_results(5479, orders, lambda d, context: context().d))
    assert built == [(5479, 5478)]
    assert [(d, r) for d, r, _ in results if d != 5478] == [
        (d, d) for d in orders if d != 5478]
    [(_, refused, _)] = [r for r in results if r[0] == 5478]
    assert isinstance(refused, ScaleGuard) and refused.__traceback__ is None
    built.clear()
    orders = admissible_orders(32771)
    results = list(prime_results(32771, orders, lambda d, context: context().d))
    passed = [d for d in orders if d <= 5477]
    assert built == [(32771, d) for d in passed]
    assert [d for d, r, _ in results if r == d] == passed


def test_a_key_refused_at_its_context_fails_out_of_solve_single(
    monkeypatch, capsys
):
    # the context is built inside solve_single, so whatever wraps it sees
    # a refused key fail as it sees a failed check
    import cyclomod.sweep as sweep_module

    real = sweep_module.solve_single
    raised = []

    def watching(p, d, verify_level, context):
        try:
            return real(p, d, verify_level, context)
        except Exception as exc:
            raised.append((p, d, type(exc).__name__))
            raise

    monkeypatch.setattr(sweep_module, "solve_single", watching)
    keys = [(r.p, r.d) for r in run_sweep(7, 11, verify_level="fast", max_p=7)]
    assert keys == [(7, 2), (7, 3), (7, 6)]
    assert raised == [(11, 2, "ScaleGuard"), (11, 5, "ScaleGuard"),
                      (11, 10, "ScaleGuard")]
    assert capsys.readouterr().err.count(": ScaleGuard: p=11 exceeds") == 3


def test_sweep_charges_the_shared_field_to_one_record(monkeypatch):
    import cyclomod.sweep as sweep_module

    real = sweep_module.make_context

    def slow(p, d, **kwargs):
        if d == 12:  # the shared field, at the lcm of 13's orders
            time.sleep(0.2)
        return real(p, d, **kwargs)

    monkeypatch.setattr(sweep_module, "make_context", slow)
    elapsed = [r.elapsed for r in run_sweep(13, 13, verify_level="fast")]
    assert elapsed[0] >= 200 and max(elapsed[1:]) < 200


def test_cli_gd(capsys):
    assert main(["gd", "-p", "7", "-d", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_gd_degenerate_order(capsys):
    assert main(["gd", "-p", "7", "-d", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1"


_TRIVIAL_7_5 = (
    '{"p":"7","d_requested":"5","trivial":true,"g":"1",'
    '"note":"gcd(d, p-1) = 1: every unit is a d-th power"}\n'
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["gd"], "1\n"),
        (["sd"], _TRIVIAL_7_5),
        (["cyclo"], _TRIVIAL_7_5),
        (["period"], _TRIVIAL_7_5),
        (["series", "-j", "1"], _TRIVIAL_7_5),
        (["oracle", "-k", "2"], _TRIVIAL_7_5),
    ],
    ids=["gd", "sd", "cyclo", "period", "series", "oracle"],
)
def test_cli_degenerate_order_every_command(argv, expected, capsys):
    assert main(argv + ["-p", "7", "-d", "5"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_sd(capsys):
    assert main(["sd", "-p", "13", "-d", "4", "-a", "11"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["per_class_s"] == ["1", "2", "2", "3"]
    assert data["g"] == "3"
    assert (data["a"], data["class"], data["s"]) == ("11", "3", "3")


def test_cli_sd_degenerate_is_flagged_json(capsys):
    assert main(["sd", "-p", "11", "-d", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is True
    assert data["g"] == "1"


def test_cli_cyclo_csv(capsys):
    assert main(["cyclo", "-p", "7", "-d", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0,0,1", "0,1,1", "1,1,0"]


def test_cli_cyclo_json(capsys):
    assert main(["cyclo", "-p", "7", "-d", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == [[0, 0, 1], [0, 1, 1], [1, 1, 0]]


def test_cli_period(capsys):
    assert main(["period", "-p", "13", "-d", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == ["-3", "1", "1"]
    assert data["discriminant"] == "13"


def test_cli_period_prints_a_discriminant_past_the_digit_limit(capsys):
    # the discriminant of (10009, 24) has 726 digits; str() of it refuses
    # under a 640-digit limit, and the printed value must not depend on it
    ctx = make_context(10009, 24)
    expected = period_polynomial(NSequence(compute_table(ctx), 23)).discriminant
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(expected)
        assert main(["period", "-p", "10009", "-d", "24"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    printed = json.loads(capsys.readouterr().out)["discriminant"]
    assert len(printed) == 726
    assert int(printed) == expected


def test_cli_series(capsys):
    assert main(["series", "-p", "7", "-d", "3", "-j", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"][0] == "1"
    assert data["coefficients"][2] == "3/2"  # exact fraction text


def test_cli_series_order_cap(capsys, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the refusal")

    with monkeypatch.context() as patch:
        patch.setattr(ffield, "_power_classes", no_field)
        start = time.perf_counter()
        assert main(["series", "-p", "7", "-d", "3", "-j", "1",
                     "--series-order", "20000"]) == 2
        assert time.perf_counter() - start < 1
    assert f"over the cap of {MAX_SERIES_ORDER}" in capsys.readouterr().err
    # the default order d + 2 is still accepted
    assert main(["series", "-p", "7", "-d", "3", "-j", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "5"
    assert main(["series", "-p", "97", "-d", "96", "-j", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "98"


def test_oversized_recurrence_refused_before_the_field(monkeypatch, capsys):
    def no_field(*args):
        raise AssertionError("the power-class array was built")

    # period's degree and series' default order d + 2 are refused from
    # (p, d) alone, though at f = 1 the rows would cost 2 cells each
    with monkeypatch.context() as patch:
        patch.setattr(ffield, "_power_classes", no_field)
        for p in (3001, 4001):
            start = time.perf_counter()
            assert main(["period", "-p", str(p), "-d", str(p - 1)]) == 2
            assert time.perf_counter() - start < 1
            assert capsys.readouterr().err == (
                f"error: p={p}, d={p - 1}: the degree-{p - 1} period polynomial "
                f"is over the cap of {MAX_PERIOD_DEGREE}\n"
            )
        assert main(["series", "-j", "1", "-p", "4001", "-d", "4000"]) == 2
        assert capsys.readouterr().err == (
            f"error: series order 4002 is over the cap of {MAX_SERIES_ORDER}\n"
        )
    # the full checks grow the rows to k = 3 only, and pass at g = 4000
    assert main(["verify", "-p", "4001", "-d", "4000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4/4 checks passed"
    assert all(line.startswith("PASS (p=4001, d=4000) ") for line in lines[:-1])
    # gd and sd read the table, whose 1.6e7 cells fit, and grow no row
    assert main(["gd", "-p", "4001", "-d", "4000"]) == 0
    assert capsys.readouterr().out == "4000\n"
    assert main(["sd", "-p", "4001", "-d", "4000", "-a", "4000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["g"], data["class"], data["s"]) == ("4000", "2000", "4000")
    record = solve_single(4001, 4000, "fast", lambda: make_context(4001, 4000))
    assert record.per_class_s == small_f_lengths(4001, 4000, record.omega)


def test_oversized_table_refused_before_the_field(monkeypatch, capsys):
    def no_field(*args):
        raise AssertionError("the power-class array was built")

    monkeypatch.setattr(ffield, "_power_classes", no_field)
    assert main(["cyclo", "-p", "1000003", "-d", "333334"]) == 2
    assert capsys.readouterr().err == (
        "error: p=1000003, d=333334: the 333334 x 333334 table would need "
        "111111555556 cells, over the cap of 30000000\n"
    )


def test_oversized_oracle_counts_refused_before_the_field(monkeypatch, capsys):
    def no_field(*args):
        raise AssertionError("the power-class array was built")

    monkeypatch.setattr(ffield, "_power_classes", no_field)
    assert main(["oracle", "-p", "4194301", "-d", "4", "-k", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: oracle counts capped at p <= 2000, got 4194301\n"
    )
    assert main(["oracle", "-p", "7", "-d", "3", "-k", "17"]) == 2
    assert capsys.readouterr().err == (
        "error: oracle counts capped at k <= 16, got 17\n"
    )


def test_full_checks_fail_a_witness_that_does_not_check(monkeypatch):
    # a witness whose y is no d-th power proves nothing for its class, and
    # the classes below it go unproved too
    import cyclomod.cyclotomy as cyclotomy_module

    real = cyclotomy_module.field_witnesses

    def tampered(ctx):
        witnesses = real(ctx)
        w = witnesses[1]
        witnesses[1] = replace(w, y=w.y * ctx.omega % ctx.p)
        return witnesses

    solution = solve(make_context(13, 3))
    monkeypatch.setattr(cyclotomy_module, "field_witnesses", tampered)
    failed = [c for c in full_checks(solution) if not c.passed]
    assert [c.name for c in failed] == ["witness-upper-bounds"]
    assert failed[0].detail == (
        "class 1: y is not a d-th power, b is not b_parent + y; "
        "no proved witness for classes [1]"
    )


def test_a_spurious_incidence_makes_solve_disagree_with_the_field_witnesses(
        monkeypatch, capsys):
    # (37, 6) has theta = 0 and no incidence at (2, 0); a rectangle move
    # that puts one there (and keeps every row and column sum) gives class 2
    # a walk of one step, so solve answers 2 for it, while the witnesses,
    # built from the class array and not the table, need 3 powers
    import cyclomod.waring as waring_module

    ctx = make_context(37, 6)
    counts = [list(row) for row in compute_table(ctx).counts]
    assert counts[2][0] == 0 and counts[0][0] and counts[2][2]
    counts[0][2] += 1
    counts[2][0] += 1
    counts[0][0] -= 1
    counts[2][2] -= 1
    doctored = table_from_counts(ctx, counts)
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    assert main(["verify", "-p", "37", "-d", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL (p=37, d=6) witness-upper-bounds: class 2: 3 powers, not s = 2"
            in lines)
    # the table's own checks and the oracle see the move too
    assert [line.split()[3] for line in lines if line.startswith("FAIL")] == [
        "table-identities:", "oracle-agreement:", "witness-upper-bounds:"]
    assert lines[-1] == "1/4 checks passed"


def test_sweep_full_reports_a_failing_check_against_its_key(monkeypatch, capsys):
    import cyclomod.oracle as oracle_module

    real = oracle_module.sumset_lengths

    def off(ctx):  # class 1 of (7, 3) one power too long
        lengths = real(ctx)
        if (ctx.p, ctx.d) == (7, 3):
            lengths = (lengths[0], lengths[1] + 1, *lengths[2:])
        return lengths

    monkeypatch.setattr(oracle_module, "sumset_lengths", off)
    failure = ("CyclomodError: verification failed for (p=7, d=3): "
               "oracle-agreement: classes off: [(1, 3, 4)]")
    assert main(["sweep", "-p", "7", "--verify", "full"]) == 0
    captured = capsys.readouterr()
    assert [parse_record_key(l, "json") for l in captured.out.splitlines()] == [
        (7, 2), (7, 6)]
    assert captured.err == f"sweep: (p=7, d=3) failed: {failure}\n"
    assert main(["sweep", "-p", "7", "--verify", "full", "--strict"]) == 1
    captured = capsys.readouterr()
    assert [parse_record_key(l, "json") for l in captured.out.splitlines()] == [
        (7, 2)]
    assert captured.err.endswith(f"verification error: CyclomodError: {failure}\n")


def test_low_order_count_identities_fail_on_shifted_rows(monkeypatch, capsys):
    # m(2, 1) and m(3, 2) of (13, 3), each one off once the rows are grown
    import cyclomod.waring as waring_module

    real = waring_module.solve

    def shifted(ctx):
        solution = real(ctx)
        solution.seq.extend(3)
        solution.seq._m[2][1] += 1
        solution.seq._m[3][2] -= 1
        return solution

    monkeypatch.setattr(waring_module, "solve", shifted)
    assert main(["verify", "-p", "13", "-d", "3"]) == 1
    assert (
        "FAIL (p=13, d=3) low-order-count-identities: "
        "violations: [('k=2', 1), ('k=3', 2)]"
    ) in capsys.readouterr().out.splitlines()


def test_closed_form_agreement_fails_on_a_wrong_closed_g(monkeypatch, capsys):
    import cyclomod.closedform as closedform_module

    real = closedform_module.closed_g
    monkeypatch.setattr(closedform_module, "closed_g", lambda p, d: real(p, d) + 1)
    assert main(["verify", "-p", "13", "-d", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL (p=13, d=3) closed-form-agreement: closed g=3 vs solved g=2",
        "4/5 checks passed",
    ]


def test_closed_form_agreement_fails_on_a_missing_witness(monkeypatch, capsys):
    # (29, 4) has g = 3, so its order-4 certificate must carry a witness
    import cyclomod.closedform as closedform_module

    monkeypatch.setattr(closedform_module, "_witness", lambda p, rep: None)
    assert main(["verify", "-p", "29", "-d", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL (p=29, d=4) closed-form-agreement: witness presence False vs g=3",
        "4/5 checks passed",
    ]


@pytest.mark.parametrize("argv", [
    ["sweep"], ["verify"], ["sweep", "--pmin", "3"], ["verify", "--pmax", "7"],
])
def test_a_range_needs_both_bounds(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {argv[0]} needs --pmin/--pmax (or -p for a single prime)\n")


@pytest.mark.parametrize("p,d,moves", [(13, 3, 14), (37, 6, 218), (61, 6, 354),
                                       (73, 8, 920)])
def test_every_rectangle_move_fails_the_table_identities(p, d, moves):
    # +1 at (i, j) and (i2, j2), -1 at (i, j2) and (i2, j) keeps every row
    # and column sum, so the row-sum and tuple-count checks cannot see it
    solution = solve(make_context(p, d))
    table = solution.seq.table
    dense = table.counts
    seen = 0
    for i, i2 in combinations(range(d), 2):
        for j, j2 in permutations(range(d), 2):
            if not (dense[i][j2] and dense[i2][j]):
                continue
            counts = [list(row) for row in dense]
            counts[i][j] += 1
            counts[i2][j2] += 1
            counts[i][j2] -= 1
            counts[i2][j] -= 1
            doctored = replace(
                solution, seq=NSequence(table_from_counts(table.ctx, counts)))
            failed = [c.name for c in full_checks(doctored) if not c.passed]
            assert "table-identities" in failed, (i, j, i2, j2)
            seen += 1
    assert seen == moves


def test_a_table_both_routes_leave_unanswered_gives_no_record(monkeypatch, capsys):
    # classes 1 and 2 of this doctored (13, 3) table never reach theta = 0:
    # the key fails instead of emitting an answer neither route gave
    import cyclomod.waring as waring_module

    doctored = table_from_counts(
        make_context(13, 3), ((3, 0, 0), (0, 4, 0), (0, 0, 4))
    )
    monkeypatch.setattr(waring_module, "compute_table", lambda ctx: doctored)
    assert main(["sweep", "--pmin", "13", "--pmax", "13", "-d", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "sweep: (p=13, d=3) failed: InternalDisagreement"
    )
    assert main(["sd", "-p", "13", "-d", "3"]) == 1
    assert "InternalDisagreement" in capsys.readouterr().err


def test_full_verification_answers_past_the_series_cap(capsys):
    # g = 600 is over series.MAX_SERIES_ORDER, which caps the series command
    # alone; every check passes along a 600-deep witness tree
    assert main(["verify", "-p", "601", "-d", "600"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4/4 checks passed"
    assert [line.split(") ")[1] for line in lines[:-1]] == [
        "table-identities", "oracle-agreement", "witness-upper-bounds",
        "low-order-count-identities"]
    assert all(line.startswith("PASS (p=601, d=600) ") for line in lines[:-1])
    assert main(["sweep", "-p", "601", "-d", "600", "--verify", "full"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    record = json.loads(captured.out)
    assert record["g"] == "600"
    fast = solve_single(601, 600, "fast", lambda: make_context(601, 600))
    assert record["per_class_s"] == [str(s) for s in fast.per_class_s]


def test_cli_closed(capsys):
    assert main(["closed", "-p", "29", "-d", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["g"] == "3"
    assert data["representation"]["x"] == "5"
    assert data["witness"]["alphas"] == ["2"]


def test_cli_closed_rejects_other_orders(capsys):
    assert main(["closed", "-p", "29", "-d", "7"]) == 2


_D3 = '{"p":"%s","d":"3","g":"%s","representation":{"kind":"d3","L":"%s","M":"%s"}}\n'
_D4 = '{"p":"%s","d":"4","g":"%s","representation":{"kind":"d4","x":"%s","y":"%s"},'
_W = '"witness":{"parity":"%s","alphas":[%s],"worst_case_4":%s}}\n'


@pytest.mark.parametrize(
    "p, d, expected",
    [
        (7, 3, _D3 % (7, 3, 1, -1)),
        (13, 3, _D3 % (13, 2, -5, -1)),
        (9973, 3, _D3 % (9973, 2, 70, 36)),
        (5, 4, _D4 % (5, 4, 1, -1) + _W % ("odd", '"1","2"', "true")),
        (13, 4, _D4 % (13, 3, -3, -1) + _W % ("odd", '"1"', "false")),
        (17, 4, _D4 % (17, 3, 1, 2) + _W % ("even", '"3"', "false")),
        (29, 4, _D4 % (29, 3, 5, -1) + _W % ("odd", '"2"', "false")),
        (41, 4, _D4 % (41, 2, 5, 2) + '"witness":null}\n'),
        (97, 4, _D4 % (97, 2, 9, -2) + '"witness":null}\n'),
    ],
)
def test_cli_closed_golden(p, d, expected, capsys):
    assert main(["closed", "-p", str(p), "-d", str(d)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize(
    "p, d, message",
    [
        # gcd(3, 28) = 1: refused before a field could answer it as degenerate
        (29, 3, "p=29 is not 1 mod 3"),
        (7, 4, "p=7 is not 1 mod 4"),
        (25, 4, "25 is not a supported prime modulus"),
    ],
)
def test_cli_closed_refusals_exit_2(p, d, message, capsys):
    assert main(["closed", "-p", str(p), "-d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_oracle(capsys):
    assert main(["oracle", "-p", "7", "-d", "3", "-k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,0,1,2,3,4,5,6"
    assert lines[1] == "1,0,1,0,0,0,0,1"
    assert lines[2] == "2,2,0,1,0,0,1,0"


def test_cli_invalid_inputs_exit_2(capsys):
    assert main(["gd", "-p", "8", "-d", "3"]) == 2
    assert main(["gd", "-p", "7"]) == 2  # missing -d
    assert main(["sweep", "--pmin", "10", "--pmax", "5"]) == 2


def test_input_error_family():
    from cyclomod.errors import (
        DegenerateOrder, NotPrime, ScaleGuard, WrongResidueClass, ZeroArgument,
    )

    for cls in (NotPrime, WrongResidueClass, ZeroArgument, ScaleGuard):
        assert issubclass(cls, InputError)
    assert not issubclass(DegenerateOrder, InputError)


def test_cli_not_prime_exits_2(capsys):
    assert main(["sd", "-p", "9", "-d", "2"]) == 2
    assert capsys.readouterr().err == "error: 9 is not a supported prime modulus\n"


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize(
    "bounds, shown",
    [(["-p", "2"], "2..2"), (["--pmin", "5", "--pmax", "3"], "5..3")],
    ids=["p2", "inverted"],
)
def test_cli_bad_range_exits_2(command, bounds, shown, capsys):
    assert main([command] + bounds) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need 2 < p_min <= p_max, got {shown}\n"


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_cli_single_non_prime_exits_2(command, capsys):
    assert main([command, "-p", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 9 is not a supported prime modulus\n"


def test_cli_prime_free_range_is_empty_not_refused(capsys):
    assert main(["sweep", "--pmin", "8", "--pmax", "10"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", "--pmin", "8", "--pmax", "10"]) == 0
    assert capsys.readouterr().out == "0/0 checks passed\n"


def test_cli_malformed_jobs_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CYCLOMOD_JOBS", "abc")
    assert main(["sweep", "-p", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CYCLOMOD_JOBS='abc' is not an integer\n"
    assert "ignoring" not in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_exits_2(jobs, capsys):
    assert main(["sweep", "-p", "5", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs {jobs}: need at least 1 worker\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_jobs_env_below_one_exits_2(jobs, monkeypatch, capsys):
    monkeypatch.setenv("CYCLOMOD_JOBS", jobs)
    assert main(["sweep", "-p", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: CYCLOMOD_JOBS='{jobs}': need at least 1 worker\n"


def test_cli_jobs_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("CYCLOMOD_JOBS", "0")
    assert main(["sweep", "-p", "5", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 2  # d = 2 and d = 4


def in_process_pools(monkeypatch):
    """Patch in a process pool that maps in-process; returns each max_workers."""
    import concurrent.futures

    opened = []

    class Pool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return opened


def test_sweep_opens_no_more_workers_than_primes(monkeypatch, capsys):
    # the pool forks all of its workers as it starts, whatever the work
    opened = in_process_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(["sweep", "-p", "7", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.count("\n") == 3  # d = 2, 3 and 6
    assert opened == []  # one prime runs in-process
    assert main(["sweep", "--pmin", "3", "--pmax", "7", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    assert opened == [3]  # primes 3, 5 and 7


def test_sweep_opens_no_more_workers_than_cpus(monkeypatch, capsys):
    opened = in_process_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert main(["sweep", "--pmin", "3", "--pmax", "7", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    assert opened == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one, in-process
    assert main(["sweep", "--pmin", "3", "--pmax", "7", "--jobs", "64"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    assert opened == [2]


def test_cli_bare_cyclomod_error_exits_1(monkeypatch, capsys):
    import cyclomod.sweep as sweep_module

    def failing(p, d, verify_level, context):
        raise CyclomodError("synthetic failure")

    monkeypatch.setattr(sweep_module, "solve_single", failing)
    assert main(["sweep", "--pmin", "3", "--pmax", "7", "--strict"]) == 1
    err = capsys.readouterr().err
    assert err.endswith("verification error: CyclomodError: "
                        "CyclomodError: synthetic failure\n")


@pytest.mark.parametrize("command", [
    ["sd", "-p", "7", "-d", "3"],
    ["sweep", "--pmin", "3", "--pmax", "7"],
    ["verify", "-p", "7"],
])
def test_cli_malformed_max_p_env_exits_2(command, monkeypatch, capsys):
    monkeypatch.setenv("CYCLOMOD_MAX_P", "abc")
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CYCLOMOD_MAX_P='abc' is not an integer\n"


def test_cli_sweep_honours_max_p(monkeypatch, capsys):
    monkeypatch.delenv("CYCLOMOD_MAX_P", raising=False)
    assert main(["sweep", "--pmin", "11", "--pmax", "13", "--max-p", "12"]) == 0
    captured = capsys.readouterr()
    keys = [(json.loads(l)["p"], json.loads(l)["d"]) for l in captured.out.splitlines()]
    assert keys == [("11", "2"), ("11", "5"), ("11", "10")]
    assert "(p=13, d=2) failed: ScaleGuard" in captured.err


def test_one_table_per_record(monkeypatch, capsys):
    import cyclomod.cyclotomy as cyclotomy_module
    import cyclomod.waring as waring_module

    real = cyclotomy_module.compute_table
    built = []

    def counting(ctx):
        built.append((ctx.p, ctx.d))
        return real(ctx)

    # waring binds compute_table by name, so count under both bindings
    monkeypatch.setattr(cyclotomy_module, "compute_table", counting)
    monkeypatch.setattr(waring_module, "compute_table", counting)
    solve_single(7, 3, "full", lambda: make_context(7, 3))
    assert built == [(7, 3)]
    built.clear()
    assert main(["verify", "-p", "7"]) == 0
    assert built == [(7, 2), (7, 3), (7, 6)]


def test_cli_verification_failures_exit_1(monkeypatch, capsys):
    import cyclomod.cli as cli_module
    from cyclomod.errors import InternalDisagreement

    def explode(ctx):
        raise InternalDisagreement(1, {"recurrence": 2, "reachability": 3})

    monkeypatch.setattr(cli_module.waring, "solve", explode)
    assert main(["gd", "-p", "7", "-d", "3"]) == 1
    assert "InternalDisagreement" in capsys.readouterr().err


def test_cli_sweep_stdout(capsys):
    assert main(["sweep", "--pmin", "5", "--pmax", "30", "-d", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(l)["p"] for l in lines] == ["5", "13", "17", "29"]


def test_cli_sweep_to_file_with_resume(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    assert main(
        ["sweep", "--pmin", "3", "--pmax", "20", "--out", str(out)]
    ) == 0
    first = out.read_text()
    # resuming a complete file adds nothing
    assert main(
        ["sweep", "--pmin", "3", "--pmax", "20", "--out", str(out), "--resume"]
    ) == 0
    assert out.read_text() == first


def test_cli_sweep_resume_without_out_is_refused(capsys):
    assert main(["sweep", "-p", "7", "--resume"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--resume" in captured.err and "--out" in captured.err


def test_cli_sweep_resume_completes_a_partial_file(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    assert main(["sweep", "--pmin", "3", "--pmax", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:5]) + "\n")
    assert main(
        ["sweep", "--pmin", "3", "--pmax", "20", "--out", str(out), "--resume"]
    ) == 0
    assert capsys.readouterr().out == ""
    resumed = out.read_text().splitlines()
    assert resumed[:5] == lines[:5]
    strip = lambda ls: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed"} for l in ls
    ]
    assert strip(resumed) == strip(lines)


def test_cli_sweep_csv_header(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--pmin", "5", "--pmax", "13", "-d", "4",
         "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,d,f,theta,omega,per_class_s,g")
    assert lines[1].startswith("5,4,1,2,2,1;2;4;3,4,true")


def test_cli_verify_pass(capsys):
    assert main(["verify", "-p", "7", "-d", "3"]) == 0
    out = capsys.readouterr().out
    assert "5/5 checks passed" in out
    assert "FAIL" not in out


def test_cli_verify_range(capsys):
    assert main(["verify", "--pmin", "5", "--pmax", "13", "-d", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    import cyclomod.cli as cli_module
    from cyclomod.sweep import CheckResult

    monkeypatch.setattr(
        cli_module.sweep,
        "full_checks",
        lambda *a, **k: [CheckResult(name="synthetic", passed=False, detail="boom")],
    )
    assert main(["verify", "-p", "7", "-d", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL (p=7, d=3) synthetic: boom" in out
    assert "0/1 checks passed" in out


def test_cli_verify_keys_refused_orders_and_goes_on(capsys):
    # the three largest orders of 20011 pass the table's cap; the others
    # are still checked, and the run exits 2 for the refusals
    assert main(["verify", "-p", "20011"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "113/113 checks passed"
    refused = captured.err.splitlines()
    assert len(refused) == 3
    for line, d in zip(refused, (6670, 10005, 20010)):
        assert line.startswith(
            f"verify: (p=20011, d={d}) failed: ScaleGuard: p=20011, d={d}: "), line


def test_cli_verify_keys_a_disagreement_and_exits_1(monkeypatch, capsys):
    import cyclomod.waring as waring_module
    from cyclomod.errors import InternalDisagreement

    real = waring_module.solve

    def solve_13(ctx):
        if ctx.d == 4:
            raise InternalDisagreement(1, {"recurrence": 2, "reachability": 3})
        return real(ctx)

    monkeypatch.setattr(waring_module, "solve", solve_13)
    assert main(["verify", "-p", "13"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[-1] == "17/17 checks passed"
    assert {line.split(")")[0] + ")" for line in lines[:-1]} == {
        f"PASS (p=13, d={d})" for d in (2, 3, 6, 12)}
    assert captured.err == (
        "verify: (p=13, d=4) failed: InternalDisagreement: solvers disagree "
        "for class 1: recurrence=2, reachability=3\n")
