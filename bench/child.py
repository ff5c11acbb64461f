"""Run one cyclomod command in a fresh process and report how it went.

    child.py SRC RESULT AS_BYTES SPANS|- [ARG...]

Caps this process's address space at AS_BYTES, imports ``cyclomod.cli``
from SRC, and, when ARGs are given, calls ``cyclomod.cli.main(ARGs)`` once
with its output going to this process's stdout.  With SPANS other than
``-`` the call is traced and the spans are written there.  RESULT receives
a JSON object: the monotonic time the import finished (the parent spawned
this process, so it can subtract), import and call durations, exit code,
peak RSS and, when traced, the trace summary.  Without ARGs the process
only imports: a set-up probe.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, as_bytes, spans_path, *command = argv
    limit = int(as_bytes)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import cyclomod.cli
    result = {"import_s": time.perf_counter() - start,
              "imported_at": time.monotonic()}
    if not Path(cyclomod.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"cyclomod imported from {cyclomod.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    if command:
        tracer = None
        if spans_path != "-":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        run = cyclomod.cli.main  # looked up after install, so traced if asked
        error = None
        start = time.perf_counter()
        try:
            rc = run(command)
        except Exception as exc:  # an uncaught failure is a result to report
            rc, error = None, f"{type(exc).__name__}: {exc}"
        sys.stdout.flush()
        result.update(
            wall_s=time.perf_counter() - start,
            rc=rc,
            error=error,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(spans_path)

    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
