"""Span tracing for one cyclomod run, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
and ``NSequence.extend``, by a wrapper that records a span: name, start,
end, parent span and trace id.  A function is replaced under every name
that binds it in a cyclomod module, so ``waring.compute_table`` is traced
as well as ``cyclotomy.compute_table``.  The trace id is the (p, d) key of
the record the call works for, read from its arguments or inherited from
the calling span; spans above any record carry ``run``.

A few wrappers also count work at the same boundary (rows the recurrence
computed, coefficients the series scanned, ...).  That bookkeeping runs in
its own ``trace.inspect`` spans so it never lands in a layer's self time.
Nothing under ``src/`` is changed; the spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

MODULES = ("ffield", "cyclotomy", "waring", "series", "oracle", "closedform",
           "sweep", "cli")
METHODS = (("waring", "NSequence", "extend"),)

INSPECT = "trace.inspect"
# An index table of distinct ints holds one int object per entry outside
# CPython's small-int cache (-5..256).
_SMALL_INTS = 262
_INT_BYTES = sys.getsizeof(1 << 29)


def _key_getter(fn):
    """Return args -> "p,d" for functions whose arguments name a record."""
    params = list(inspect.signature(fn).parameters)
    if "p" in params and "d" in params:
        ip, idd = params.index("p"), params.index("d")
        n = max(ip, idd)
        return lambda args: f"{args[ip]},{args[idd]}" if len(args) > n else None
    first = params[0] if params else None
    if first in ("ctx", "record"):
        return lambda args: f"{args[0].p},{args[0].d}" if args else None
    if first in ("table", "seq", "self"):
        def from_ctx(args):
            ctx = getattr(args[0], "ctx", None) if args else None
            return f"{ctx.p},{ctx.d}" if ctx is not None else None
        return from_ctx
    return None


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, trace, error)
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.primes: set[int] = set()
        self.index_table_bytes = 0
        self.max_int_bits = 0
        self.root_s = 0.0
        self._stack: list[list] = []  # [span id, trace id, child seconds]
        self._seqs = weakref.WeakKeyDictionary()  # NSequence -> [k_max, nnz]

    # -- recording -------------------------------------------------------

    def _open(self, key):
        stack = self._stack
        parent = stack[-1] if stack else None
        trace = key or (parent[1] if parent else "run")
        frame = [len(self.spans), trace, 0.0]
        self.spans.append(None)  # reserve the id; filled in by _close
        stack.append(frame)
        return frame, (parent[0] if parent else None)

    def _close(self, frame, parent_id, name, start, end, error=None):
        self._stack.pop()
        dur = end - start
        self.spans[frame[0]] = (frame[0], name, start, end, parent_id, frame[1], error)
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur

    def _inspect(self, hook, *args):
        frame, parent_id = self._open(None)
        start = time.perf_counter()
        hook(*args)
        self._close(frame, parent_id, INSPECT, start, time.perf_counter())

    def wrap(self, fn, name, after=None, on_error=None):
        key_of = _key_getter(fn) or (lambda args: None)
        perf = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # The span runs from the first resume to exhaustion; the only
            # traced generator (run_sweep) is drained by a loop doing no work.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame, parent_id = self._open(key_of(args))
                start = perf()
                try:
                    yield from fn(*args, **kwargs)
                except BaseException as exc:
                    self._close(frame, parent_id, name, start, perf(), type(exc).__name__)
                    raise
                self._close(frame, parent_id, name, start, perf())
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent_id = self._open(key_of(args))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent_id, name, start, perf(), type(exc).__name__)
                if on_error is not None:
                    self._inspect(on_error, exc)
                raise
            self._close(frame, parent_id, name, start, perf())
            if after is not None:
                self._inspect(after, args, result)
            return result
        return wrapper

    # -- counters at layer boundaries ------------------------------------

    def _after_make_context(self, args, ctx):
        self.primes.add(ctx.p)
        table = ctx.index_table
        size = sys.getsizeof(table) + _INT_BYTES * max(0, len(table) - _SMALL_INTS)
        self.index_table_bytes = max(self.index_table_bytes, size)

    def _after_compute_table(self, args, table):
        self.counts["table_entries"] += table.ctx.d ** 2

    def _after_extend(self, args, result):
        seq = args[0]
        state = self._seqs.get(seq)
        if state is None:
            nnz = sum(len(s) for s in seq.table.row_supports)
            state = self._seqs[seq] = [1, nnz]  # rows 0 and 1 come from __init__
            self._note_bits(seq._rows[:2])
        added = seq.k_max - state[0]
        if added > 0:
            self.counts["recurrence_rows"] += added
            self.counts["recurrence_row_ops"] += added * state[1]
            self._note_bits(seq._rows[state[0] + 1:])
            state[0] = seq.k_max

    def _note_bits(self, rows):
        # Rows are private to NSequence; reading them is the one way to see
        # the integer sizes without recomputing the recurrence.
        for row in rows:
            big = max(max(row), -min(row))
            self.max_int_bits = max(self.max_int_bits, big.bit_length())

    def _after_solve(self, args, solution):
        if solution.method == "oracle":
            self.counts["oracle_fallbacks"] += 1

    def _after_log_derivative_ord(self, args, valuation):
        self.counts["coeffs_scanned"] += valuation + 1

    def _series_gave_up(self, exc):
        if type(exc).__name__ == "AllZeroToOrder":
            self.counts["series_fallbacks"] += 1

    def _record_failed(self, exc):
        self.counts["failed_records"] += 1

    def _after_emit(self, args, line):
        self.counts["records"] += 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions under every name that binds them."""
        hooks = {
            "ffield.make_context": (self._after_make_context, None),
            "cyclotomy.compute_table": (self._after_compute_table, None),
            "waring.NSequence.extend": (self._after_extend, None),
            "waring.solve": (self._after_solve, None),
            "series.log_derivative_ord": (self._after_log_derivative_ord,
                                          self._series_gave_up),
            "sweep.solve_single": (None, self._record_failed),
            "sweep.emit": (self._after_emit, None),
        }
        mods = {m: importlib.import_module(f"cyclomod.{m}") for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    replaced[fn] = self.wrap(fn, name, *hooks.get(name, (None, None)))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(getattr(cls, meth), name,
                                         *hooks.get(name, (None, None))))
        targets = [m for n, m in sys.modules.items()
                   if n == "cyclomod" or n.startswith("cyclomod.")]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct_primes": len(self.primes),
            "index_table_bytes": self.index_table_bytes,
            "max_int_bits": self.max_int_bits,
            "root_s": self.root_s,
            "spans": len(self.spans),
        }

    def write_spans(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "trace", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
