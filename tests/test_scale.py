"""Memory and work limits, checked in a child process under RLIMIT_AS.

Each test runs the CLI as `python -m cyclomod` in its own child process
with an address-space limit set on that child only, so a regression shows
up as a MemoryError or a kill instead of exhausting the machine.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import cyclomod

SRC = str(Path(cyclomod.__file__).resolve().parents[1])


def run_limited(argv: list[str], limit_mib: int) -> subprocess.CompletedProcess:
    def limit():
        cap = limit_mib << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cyclomod", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_sd_near_the_cap_fits_128_mib():
    done = run_limited(["sd", "-p", "4194301", "-d", "4"], 128)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "p": "4194301", "d": "4", "f": "1048575", "theta": "2", "omega": "7",
        "per_class_s": ["1", "2", "2", "2"], "g": "2",
    }


def test_closed_near_the_cap_fits_128_mib():
    done = run_limited(["closed", "-p", "4194301", "-d", "4"], 128)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        '{"p":"4194301","d":"4","g":"2","representation":'
        '{"kind":"d4","x":"-1915","y":"363"},"witness":null}\n'
    )


def test_large_p_with_moderate_d_is_solved():
    # g = 2: the rows cost 220 cells of the running budget
    done = run_limited(["sd", "-p", "4194301", "-d", "110"], 128)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "p": "4194301", "d": "110", "f": "38130", "theta": "0", "omega": "7",
        "per_class_s": ["1"] + ["2"] * 109, "g": "2",
    }


def test_recurrence_guard_refuses_before_allocating():
    # d = p - 1 = 20010: the 20010 x 20010 table passes the cap, so sd is
    # refused from (p, d) before the field is built
    done = run_limited(["sd", "-p", "20011", "-d", "20010"], 256)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == (
        "error: p=20011, d=20010: the 20010 x 20010 table would need "
        "400400100 cells, over the cap of 30000000\n"
    )


def test_large_d_with_few_rows_fits_1_gib():
    # f = 198: the 5051 x 5051 table fits the cap, and every class is in by
    # row 4 of the recurrence, at under 10^6 cells of its running budget
    done = run_limited(["sd", "-p", "1000099", "-d", "5051"], 1024)
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert (data["d"], data["f"], data["theta"], data["g"]) == ("5051", "198", "0", "4")
    assert [data["per_class_s"].count(str(s)) for s in (1, 2, 3, 4)] == [
        1, 98, 3626, 1326]
