"""Cyclotomic numbers of order d, counted exactly, plus the classical checks.

Fix a context (p, omega, d).  The cyclotomic number (i, j) counts pairs
(u, v) with 1 + omega^(d*u+i) = omega^(d*v+j) mod p, for 0 <= u, v < f.
Equivalently: elements x of power class i such that 1 + x lands in power
class j.  The whole table holds only p-2 incidences (x = 1..p-2, skipping
x = p-1, where 1 + x = 0), so it is counted in one O(p) pass straight into
a column-major sparse form: three flat tuples holding, column by column,
the row and the count of every nonzero entry, with the offset at which
each column starts.  The pass works a chunk of the power-class array at a
time, with every incidence of the chunk coded at once in integer lanes, so
no Python-level step runs per residue except in the final tally.  The
recurrence pushes values along the columns, the walks read them as the
reversed edges, and the classical checks read the flat tuples once; the
row view and the dense d x d matrix are derived only when a printer, the
order-3 and order-4 closed forms or a test asks for them.  The
definitional double loop and the per-residue tally are kept in the test
suite as independent oracles.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterator, Sequence

from .errors import ScaleGuard
from .ffield import FieldContext

#: Cap on the memory and work one (p, d) may take, in cells.  The d x d
#: table is priced d*d cells and refused with ScaleGuard from (p, d) alone,
#: before anything d-sized is built: p = 20011, d = 20010 would need 4e8.
#: The recurrence spends the same cap as a running budget, one cell per
#: multiply-add and per stored 64-bit word (waring.NSequence), and is
#: refused at the row that would pass it.
MAX_CELLS = 3 * 10**7

# Incidences are coded and tallied this many at a time, so every transient
# stays far below the p-entry class array.
_TALLY_CHUNK = 1 << 14

# Up to this many codes, one bytes.count per code beats a Counter.
_COUNTED_CODES = 64


@dataclass(frozen=True)
class CyclotomyTable:
    """The cyclotomic numbers of order d for one context, stored sparsely.

    The nonzero entries are kept column by column, in three flat tuples:
    column j's entries are those at positions col_starts[j] ..
    col_starts[j+1] - 1, each (i, j) with its row i in col_rows and its
    count in col_counts, by ascending i.  The whole table holds p-2
    incidences, so the recurrence, which pushes each value along a column,
    and the walks, which read the columns as the reversed edges, cost
    O(min(d*d, p)) per step.
    """

    ctx: FieldContext
    col_starts: tuple[int, ...] = field(repr=False)
    col_rows: tuple[int, ...] = field(repr=False)
    col_counts: tuple[int, ...] = field(repr=False)

    def column(self, j: int) -> Iterator[tuple[int, int]]:
        """The nonzero (i, count) pairs of column j, by ascending i."""
        a, b = self.col_starts[j], self.col_starts[j + 1]
        return zip(self.col_rows[a:b], self.col_counts[a:b])

    @cached_property
    def row_supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (j, count) pairs of each row i, by column; built on first use."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.ctx.d)]
        for j in range(self.ctx.d):
            for i, c in self.column(j):
                rows[i].append((j, c))
        return tuple(map(tuple, rows))

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The dense d x d matrix, built on first use."""
        d = self.ctx.d
        dense = [[0] * d for _ in range(d)]
        for j in range(d):
            for i, c in self.column(j):
                dense[i][j] = c
        return tuple(map(tuple, dense))

    @cached_property
    def walk_lengths_to_theta(self) -> tuple[int | None, ...]:
        """Shortest walk length from each class to the class of -1."""
        return walk_lengths(self.col_starts, self.col_rows, self.ctx.theta)


def walk_lengths(
    col_starts: Sequence[int], col_rows: Sequence[int], target: int
) -> tuple[int | None, ...]:
    """Shortest walk length from each class to target.

    Walks live in the digraph with an edge i -> j for every nonzero entry
    (i, j), given in CyclotomyTable's column-major form: the rows listed
    in column j are the sources of the edges into j.  One breadth-first
    search over those reversed edges serves every source class at once;
    None marks an unreachable class.
    """
    dist: list[int | None] = [None] * (len(col_starts) - 1)
    dist[target] = 0
    frontier = deque([target])
    while frontier:
        j = frontier.popleft()
        for i in col_rows[col_starts[j] : col_starts[j + 1]]:
            if dist[i] is None:
                dist[i] = dist[j] + 1
                frontier.append(i)
    return tuple(dist)


def require_table_fits(p: int, d: int) -> None:
    """Refuse, with ScaleGuard, an order whose d x d table passes MAX_CELLS.

    Its dense view would exceed the cap.  Takes (p, d) alone, so every
    caller that counts a table runs it as make_context's guard, before the
    O(p) field is built.
    """
    if d * d > MAX_CELLS:
        raise ScaleGuard(
            f"p={p}, d={d}: the {d} x {d} table would need {d * d} cells, "
            f"over the cap of {MAX_CELLS}"
        )


def compute_table(ctx: FieldContext) -> CyclotomyTable:
    """Count all cyclotomic numbers of order d in one pass over the units.

    Each incidence x = 1..p-2 is coded as class(x + 1) * d + class(x).  A
    chunk of the power-class array is read as two integers X and Y of
    lanes, one lane per x, shifted by one residue; the lanes are widened
    first if d*d - 1 does not fit them.  Then Y * d + X holds every code of
    the chunk in its own lane, with no carry between lanes.  The codes are
    tallied with one bytes.count per code when there are few, else with a
    Counter.  Sorted, the codes are the entries in column-major order:
    column j holds the codes j*d .. j*d + d-1, and each code's row is its
    value mod d.  No d x d matrix is built, and the tally holds at most
    min(d*d, p-2) codes.

    Orders refused by require_table_fits are refused before counting.
    """
    p, d = ctx.p, ctx.d
    require_table_fits(p, d)
    cells = d * d
    typecode = "B" if cells <= 1 << 8 else "H" if cells <= 1 << 16 else "I"
    classes = memoryview(ctx.index_table)
    tally: Counter[int] = Counter()
    for lo in range(1, p - 1, _TALLY_CHUNK):
        hi = min(lo + _TALLY_CHUNK, p - 1)
        lanes = classes[lo : hi + 1]  # class(x) for x = lo .. hi
        if lanes.format != typecode:
            lanes = memoryview(array(typecode, lanes))
        x = int.from_bytes(lanes[:-1], sys.byteorder)
        y = int.from_bytes(lanes[1:], sys.byteorder)
        coded = (y * d + x).to_bytes(lanes[1:].nbytes, sys.byteorder)
        if cells <= _COUNTED_CODES:
            tally.update({c: n for c in range(cells) if (n := coded.count(c))})
        else:
            tally.update(memoryview(coded).cast(typecode))
    codes = sorted(tally)
    col_counts = tuple(map(tally.__getitem__, codes))
    del tally
    col_starts = tuple(map(bisect_left, repeat(codes), range(0, d * d + 1, d)))
    row = list(range(d))  # one shared int object per class
    col_rows = tuple(map(row.__getitem__, map(d.__rmod__, codes)))
    return CyclotomyTable(
        ctx=ctx, col_starts=col_starts, col_rows=col_rows, col_counts=col_counts
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    """Structured pass/fail report for the classical table identities."""

    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


def verify_identities(table: CyclotomyTable) -> IdentityReport:
    """Check row sums, the total count, and (f even) symmetry.

    Row k must sum to f - 1 when k is the class of -1 and to f otherwise;
    the full table must hold p - 2 incidences; and for even f the table is
    symmetric.  Each check reads the flat column lists once, O(nnz).
    Violations are reported, never raised: these identities are theorems,
    so a failure means the table was built incorrectly.
    """
    ctx = table.ctx
    d, f, theta = ctx.d, ctx.f, ctx.theta
    checks = []

    sums = [0] * d
    for i, c in zip(table.col_rows, table.col_counts):
        sums[i] += c
    bad_rows = [
        (k, total) for k, total in enumerate(sums)
        if total != f - (1 if k == theta else 0)
    ]
    checks.append(
        IdentityCheck(
            name="row-sums",
            passed=not bad_rows,
            detail="" if not bad_rows else f"rows with wrong sum: {bad_rows}",
        )
    )

    total = sum(table.col_counts)
    checks.append(
        IdentityCheck(
            name="total-count",
            passed=total == d * f - 1,
            detail="" if total == d * f - 1 else f"total {total} != {d * f - 1}",
        )
    )

    if f % 2 == 0:
        entries = {}
        for j in range(d):
            for i, c in table.column(j):
                entries[i, j] = c
        # an entry whose mirror is missing or different is off, both ways
        asym = sorted({
            (min(i, j), max(i, j))
            for (i, j), c in entries.items() if entries.get((j, i)) != c
        })
        checks.append(
            IdentityCheck(
                name="symmetry",
                passed=not asym,
                detail="" if not asym else f"asymmetric at: {asym}",
            )
        )
    else:
        checks.append(
            IdentityCheck(
                name="symmetry", passed=True, skipped=True, detail="skipped: f odd"
            )
        )

    return IdentityReport(checks=tuple(checks))
