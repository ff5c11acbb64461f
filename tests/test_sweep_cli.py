import io
import json
import os
import time

import pytest

from cyclomod import ffield, make_context, solve
from cyclomod.cli import main
from cyclomod.errors import CyclomodError, InputError, ScaleGuard
from cyclomod.ffield import primes_in_range
from cyclomod.series import MAX_SERIES_ORDER
from cyclomod.sweep import (
    SweepRecord,
    admissible_orders,
    emit,
    full_checks,
    parse_record_key,
    run_sweep,
    scan_completed,
    solve_single,
)

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
    rec = solve_single(7, 3, "full")
    assert (rec.p, rec.d, rec.f, rec.theta, rec.omega) == (7, 3, 2, 0, 3)
    assert rec.per_class_s == (1, 3, 2)
    assert rec.g == 3
    assert rec.methods_agree
    assert rec.closed_form_match is True
    assert rec.elapsed >= 0


def test_solve_single_fast_leaves_closed_form_unset():
    rec = solve_single(7, 3, "fast")
    assert rec.closed_form_match is None


def test_full_checks_grow_the_rows_that_solve_skips_at_small_f():
    # at f <= 2 solve answers from the closed form and leaves the rows at
    # k = 1; the series valuation and the low-order identities grow them
    for p, d in [(7, 3), (31, 15), (37, 36)]:
        solution = solve(make_context(p, d))
        assert solution.method == "closed-form"
        assert solution.seq.k_max == 1
        checks = full_checks(solution)
        assert [c.name for c in checks if not c.passed] == [], (p, d)
        assert {"series-valuation-agreement", "low-order-count-identities"} <= {
            c.name for c in checks
        }
        assert solution.seq.k_max >= max(3, solution.g), (p, d)


def test_emit_json_field_order_and_strings():
    rec = solve_single(7, 3, "full")
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
    rec = solve_single(11, 5, "fast")
    data = json.loads(emit(rec, "json"))
    assert "closed_form_match" not in data
    assert data["f"] == "2"
    assert data["per_class_s"] == ["1", "2", "4", "3", "5"]


def test_emit_csv():
    rec = solve_single(7, 3, "full")
    assert emit(rec, "csv") == f"7,3,2,0,3,1;3;2,3,true,true,{rec.elapsed}"
    with pytest.raises(ValueError):
        emit(rec, "toml")


def test_parse_record_key():
    rec = solve_single(7, 3, "fast")
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

    def failing(p, d, verify_level, max_p=None):
        if (p, d) == (7, 3):
            raise CyclomodError("synthetic failure")
        return real(p, d, verify_level, max_p)

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

    def failing(p, d, verify_level, max_p=None):
        if (p, d) == (7, 3):
            raise RuntimeError("synthetic bug")
        return real(p, d, verify_level, max_p)

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

    monkeypatch.setattr(ffield, "_power_classes", no_field)
    for command in (["gd"], ["sd"], ["period"], ["verify"], ["series", "-j", "1"]):
        assert main(command + ["-p", "4001", "-d", "4000"]) == 2, command
        assert capsys.readouterr().err == (
            "error: p=4001, d=4000: the recurrence may need 31996000 cells, "
            "over the cap of 30000000\n"
        )
    with pytest.raises(ScaleGuard, match="the recurrence may need"):
        solve_single(4001, 4000, "fast")


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


def test_full_checks_count_a_series_scan_that_gives_up_as_off(monkeypatch):
    # (13, 3) has theta = 0, so class alpha is scanned as j = alpha; a scan
    # that gives up is no answer, whatever brute force says
    import cyclomod.series as series_module
    from cyclomod.errors import AllZeroToOrder

    real = series_module.log_derivative_ord

    def gives_up_on_class_2(seq, j):
        if j == 2:
            raise AllZeroToOrder("synthetic: all zero")
        return real(seq, j)

    solution = solve(make_context(13, 3))
    monkeypatch.setattr(series_module, "log_derivative_ord", gives_up_on_class_2)
    failed = [c for c in full_checks(solution) if not c.passed]
    assert [c.name for c in failed] == ["series-valuation-agreement"]
    assert failed[0].detail == (
        f"classes off: [(2, None, {solution.per_class_s[2]})]"
    )


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


def test_full_verification_refuses_series_scan_over_the_cap(monkeypatch, capsys):
    import cyclomod.series as series_module

    refusal = (
        "p=601, d=600: the series route would scan to order 600, "
        f"over the cap of {MAX_SERIES_ORDER}"
    )
    start = time.perf_counter()
    assert main(["verify", "-p", "601", "-d", "600"]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert main(["sweep", "-p", "601", "-d", "600", "--verify", "full"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"sweep: (p=601, d=600) failed: ScaleGuard: {refusal}\n"
    )
    # g = 3 for (7, 3): refused only once the cap is below it
    monkeypatch.setattr(series_module, "MAX_SERIES_ORDER", 3)
    assert main(["verify", "-p", "7", "-d", "3"]) == 0
    monkeypatch.setattr(series_module, "MAX_SERIES_ORDER", 2)
    assert main(["verify", "-p", "7", "-d", "3"]) == 2


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


def test_cli_bare_cyclomod_error_exits_1(monkeypatch, capsys):
    import cyclomod.sweep as sweep_module

    def failing(p, d, verify_level, max_p=None):
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
    solve_single(7, 3, "full")
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
