"""What importing the package and the CLI loads, and the package's lazy names.

Every CLI call is a fresh process, so whatever ``import cyclomod.cli``
loads is paid at each call's start-up.  Run as a script,
``python tests/test_imports.py`` checks the import set of whichever
cyclomod the interpreter finds (an installed one, say) and prints it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclomod

SRC = str(Path(cyclomod.__file__).resolve().parents[1])

#: Modules that no sd, sweep --jobs 1 or verify call runs.
NOT_AT_START = (
    "concurrent.futures.process",
    "multiprocessing",
    "logging",
    "fractions",
    "decimal",
    "cyclomod.periods",
)

PUBLIC = (
    "closed_g", "compute_table", "diophantine_witness", "dp_counts", "i_series",
    "log_derivative_ord", "make_context", "period_polynomial", "power_set",
    "power_sums", "primes_in_range", "represent", "resolve_sign", "solve",
    "verify_identities",
)

# The modules each import adds over what the interpreter loaded before it,
# so a site hook that preloads something does not count.
_ADDED = """\
import sys
seen = set(sys.modules)
import cyclomod
print(*sorted(set(sys.modules) - seen))
seen = set(sys.modules)
import cyclomod.cli
print(*sorted(set(sys.modules) - seen))
"""


def added_modules(env: dict[str, str]) -> tuple[set[str], set[str]]:
    """What import cyclomod, then import cyclomod.cli, add in a fresh process."""
    done = subprocess.run([sys.executable, "-c", _ADDED], env=env,
                          capture_output=True, text=True, check=True)
    package, cli = done.stdout.splitlines()
    return set(package.split()), set(cli.split())


def test_cli_imports_only_what_its_commands_run():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    package, cli = added_modules({**os.environ, "PYTHONPATH": path})
    assert {m for m in package if m.startswith("cyclomod")} == {"cyclomod"}
    assert {"cyclomod.cli", "cyclomod.sweep", "cyclomod.ffield"} <= cli
    assert not (package | cli) & set(NOT_AT_START)


def test_public_names_resolve_on_first_use():
    assert tuple(cyclomod.__all__) == PUBLIC
    for name in PUBLIC:
        value = getattr(cyclomod, name)
        assert value is getattr(sys.modules[value.__module__], name)
    assert set(PUBLIC) <= set(dir(cyclomod))
    namespace: dict = {}
    exec("from cyclomod import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclomod.no_such_name  # noqa: B018


if __name__ == "__main__":
    package, cli = added_modules(dict(os.environ))
    print("import cyclomod adds:", *sorted(package))
    print("import cyclomod.cli adds:", *sorted(cli))
    loaded = sorted((package | cli) & set(NOT_AT_START))
    print("of which no sd, sweep or verify call runs:", *loaded or ["none"])
    sys.exit(bool(loaded) or any(m.startswith("cyclomod.") for m in package))
