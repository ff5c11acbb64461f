"""Cyclotomic numbers of order d, counted exactly, plus the checks on them.

Fix a context (p, omega, d).  The cyclotomic number (i, j) counts pairs
(u, v) with 1 + omega^(d*u+i) = omega^(d*v+j) mod p, for 0 <= u, v < f.
Equivalently: elements x of power class i such that 1 + x lands in power
class j.  The whole table holds only p-2 incidences (x = 1..p-2, skipping
x = p-1, where 1 + x = 0), so it is counted in one O(p) pass straight into
its one stored shape: the columns, each the (i, count) pairs of its
nonzero entries by ascending i.  The pass works a chunk of the power-class
array at a time and tallies it one of two ways.  At d <= 8, past one
chunk, no code is formed: the class bits of x and x + 1 are read as bit
planes, and each cell follows from popcounts of their ANDs.  Every other
table codes each chunk's incidences at once in integer lanes and tallies
them with one Counter, so no Python-level step runs per residue.  The
recurrence pushes values along the columns, the walks read them as the
reversed edges, and the classical checks read them once and return one
CheckResult each; the row view and the dense d x d matrix are derived only
when a printer, the order-3 and order-4 closed forms or a test asks for
them.  One breadth-first search toward the class of -1 gives every
class's walk length, which solve compares at f >= 3 with the coset walk:
a breadth-first walk over the power-class array itself, which reads no
table and records every class's least length and how it was reached
(coset_walk).  The upper-bound witnesses, explicit sums of powers in
every class that check_witnesses proves from p, d and omega alone, follow
that record (field_witnesses), so full verification reuses solve's walk.
The definitional double loop and the per-residue tally are kept in the
test suite as independent oracles.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import ne
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


@dataclass(frozen=True)
class CyclotomyTable:
    """The cyclotomic numbers of order d for one context, stored sparsely.

    columns[j] holds column j's nonzero entries (i, j) as (i, count) pairs,
    by ascending i; an empty column is ().  The whole table holds p-2
    incidences, so the recurrence, which pushes each value along a column,
    and the walks, which read the columns as the reversed edges, cost
    O(min(d*d, p)) per step.
    """

    ctx: FieldContext
    columns: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False)

    @cached_property
    def row_supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (j, count) pairs of each row i, by column; built on first use."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.ctx.d)]
        for j, column in enumerate(self.columns):
            for i, c in column:
                rows[i].append((j, c))
        return tuple(map(tuple, rows))

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The dense d x d matrix, built on first use."""
        d = self.ctx.d
        dense = [[0] * d for _ in range(d)]
        for j, column in enumerate(self.columns):
            for i, c in column:
                dense[i][j] = c
        return tuple(map(tuple, dense))

    @cached_property
    def row_sums(self) -> tuple[int, ...]:
        """The sum of each row i, read once off the columns."""
        sums = [0] * self.ctx.d
        for column in self.columns:
            for i, c in column:
                sums[i] += c
        return tuple(sums)


def walks(
    columns: Sequence[Sequence[tuple[int, int]]], target: int
) -> tuple[int | None, ...]:
    """Each class's shortest walk length to target; None if it has none.

    Walks live in the digraph with an edge i -> j for every nonzero entry
    (i, j), given as CyclotomyTable.columns: the rows i of column j's
    (i, count) pairs are the sources of the edges into j.  One
    breadth-first search over those reversed edges serves every source
    class at once.
    """
    dist: list[int | None] = [None] * len(columns)
    dist[target] = 0
    frontier = deque([target])
    while frontier:
        j = frontier.popleft()
        for i, _ in columns[j]:
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


def _code_typecode(d: int) -> str:
    """The array typecode whose lanes hold every code below d*d."""
    cells = d * d
    return "B" if cells <= 1 << 8 else "H" if cells <= 1 << 16 else "I"


def _coded_chunks(ctx: FieldContext) -> Iterator[bytes]:
    """The codes class(x + 1) * d + class(x) of x = 1..p-2, a chunk at a time.

    Each chunk holds the codes of consecutive x in consecutive lanes of
    _code_typecode(d), native byte order.  A chunk of the power-class array
    is read as two integers X and Y of lanes, one lane per x, shifted by
    one residue; the lanes are widened first if d*d - 1 does not fit them.
    Then Y * d + X holds every code of the chunk in its own lane, with no
    carry between lanes.
    """
    p, d = ctx.p, ctx.d
    typecode = _code_typecode(d)
    classes = memoryview(ctx.index_table)
    for lo in range(1, p - 1, _TALLY_CHUNK):
        hi = min(lo + _TALLY_CHUNK, p - 1)
        lanes = classes[lo : hi + 1]  # class(x) for x = lo .. hi
        if lanes.format != typecode:
            lanes = memoryview(array(typecode, lanes))
        x = int.from_bytes(lanes[:-1], sys.byteorder)
        y = int.from_bytes(lanes[1:], sys.byteorder)
        yield (y * d + x).to_bytes(lanes[1:].nbytes, sys.byteorder)


def _tally_by_planes(ctx: FieldContext) -> dict[int, int]:
    """The tally of the codes class(x + 1) * d + class(x), for d <= 8.

    Classes below d take w = (d - 1).bit_length() bits: 1 at d = 2, 2 at
    d = 3 and 4, 3 at d = 5..8.  A chunk of the byte-wide class array,
    x = lo .. hi, is read once as an integer A: bit b of class(x) is the
    plane (A >> b) & ones, one bit per lane, and bit b of class(x + 1) the
    same plane one lane up.  Eight chunks in turn take the eight bits of
    each lane, so every plane is dense.  For each set T of the 2w planes,
    c(T) sums the popcount of their AND (c of no plane is p - 2), holding
    one AND per plane on the way.  The incidences whose set bits are
    exactly U then number the sum over T containing U of (-1)^|T - U| c(T),
    by inclusion-exclusion, one step per plane; U holds the w bits of
    class(x) below those of class(x + 1).
    """
    p, d = ctx.p, ctx.d
    w = (d - 1).bit_length()
    counts = [0] * (1 << 2 * w)
    counts[0] = p - 2
    shifts = [*range(w), *range(8, 8 + w)]  # the planes' bits in a lane pair

    def add_ands(planes, both, mask, first):
        # both is the AND of the planes in mask, all below first
        for t in range(first, len(planes)):
            more = planes[t] if both is None else both & planes[t]
            counts[mask | 1 << t] += more.bit_count()
            add_ands(planes, more, mask | 1 << t, t + 1)

    classes = ctx.index_table
    ones = {}
    planes = [0] * len(shifts)
    for k, lo in enumerate(range(1, p - 1, _TALLY_CHUNK)):
        hi = min(lo + _TALLY_CHUNK, p - 1)
        if hi - lo not in ones:
            ones[hi - lo] = int.from_bytes(b"\1" * (hi - lo), "little")
        # lane x - lo holds class(x), moved up to bit k % 8 of the lane
        lanes = int.from_bytes(classes[lo : hi + 1], "little") << k % 8
        at = ones[hi - lo] << k % 8
        for t, b in enumerate(shifts):
            planes[t] |= lanes >> b & at
        if k % 8 == 7 or hi == p - 1:
            add_ands(planes, None, 0, 0)
            planes = [0] * len(shifts)
    for t in range(2 * w):
        for mask in range(len(counts)):
            if not mask >> t & 1:
                counts[mask] -= counts[mask | 1 << t]
    low = (1 << w) - 1
    return {(u >> w) * d + (u & low): n for u, n in enumerate(counts)
            if n and u & low < d and u >> w < d}


def compute_table(ctx: FieldContext) -> CyclotomyTable:
    """Count all cyclotomic numbers of order d in one pass over the units.

    Each incidence x = 1..p-2 is coded as class(x + 1) * d + class(x).
    The codes are tallied on one of two paths.  At d <= 8, past one
    _TALLY_CHUNK of incidences, they are counted from the bit planes of the
    classes (_tally_by_planes), none of them formed.  Every other table
    codes them a chunk of lanes at a time (_coded_chunks) and tallies them
    with one Counter.
    Sorted, the codes are the entries in column-major order: column j
    holds the codes j*d .. j*d + d-1, and each code's row is its value
    mod d, so each column's (i, count) pairs are one run of them.  No
    d x d matrix is built, and the tally holds at most min(d*d, p-2)
    codes.

    Orders refused by require_table_fits are refused before counting.
    """
    p, d = ctx.p, ctx.d
    require_table_fits(p, d)
    if d <= 8 and p - 2 > _TALLY_CHUNK:
        tally = _tally_by_planes(ctx)
    else:
        typecode = _code_typecode(d)
        tally = Counter()
        for coded in _coded_chunks(ctx):
            tally.update(memoryview(coded).cast(typecode))
    codes = sorted(tally)
    counts = list(map(tally.__getitem__, codes))
    del tally
    starts = list(map(bisect_left, repeat(codes), range(0, d * d + 1, d)))
    row = list(range(d))  # one shared int object per class
    rows = list(map(row.__getitem__, map(d.__rmod__, codes)))
    del codes  # the pairs are built only once the tally and codes are freed
    pairs = tuple(zip(rows, counts))
    del rows, counts
    columns = tuple(map(pairs.__getitem__, map(slice, starts[:-1], starts[1:])))
    return CyclotomyTable(ctx=ctx, columns=columns)


@dataclass(frozen=True)
class CheckResult:
    """One named check's outcome; detail says what failed, if it did."""

    name: str
    passed: bool
    detail: str = ""


def verify_identities(table: CyclotomyTable) -> tuple[CheckResult, ...]:
    """Check the row sums and the classical relations.

    Row k must sum to f - 1 when k is the class of -1 and to f otherwise,
    so the full table holds d*f - 1 = p - 2 incidences.  The relations
    (Berndt, Evans and Williams, Gauss and Jacobi Sums, ch. 2) hold on
    every table: (i, j) = (-i, j - i), and (i, j) = (j, i) for even f or
    (i, j) = (j + d/2, i + d/2) for odd f.  Each relation maps the table
    onto itself, so it is checked entry by entry on one dict of the
    nonzero entries.  Every check is O(nnz).  One CheckResult per check
    comes back, in the order row-sums, reflection, symmetry.
    Violations are reported, never raised: these identities are theorems,
    so a failure means the table was built incorrectly.
    """
    ctx = table.ctx
    d, f, theta = ctx.d, ctx.f, ctx.theta
    checks = []

    bad_rows = [
        (k, total) for k, total in enumerate(table.row_sums)
        if total != f - (1 if k == theta else 0)
    ]
    checks.append(
        CheckResult(
            name="row-sums",
            passed=not bad_rows,
            detail="" if not bad_rows else f"rows with wrong sum: {bad_rows}",
        )
    )

    # entry (i, j) is keyed by its code j*d + i; each relation maps codes
    entries = {j * d + i: c
               for j, column in enumerate(table.columns) for i, c in column}
    if f % 2 == 0:
        swap = "(i, j) = (j, i)", lambda code: code % d * d + code // d
    else:  # d*f = p - 1 is even, so d is
        half = d // 2
        swap = "(i, j) = (j + d/2, i + d/2)", lambda code: (
            (code + half) % d * d + (code // d + half) % d)
    relations = (
        ("reflection", "(i, j) = (-i, j - i)",
         lambda code: (code // d - code) % d * d + -code % d),
        ("symmetry", *swap),
    )
    for name, relation, image in relations:
        # each relation maps the cells onto themselves, so an entry whose
        # image holds another count (or none) shows every violation
        off = []
        if any(map(ne, map(entries.get, map(image, entries)), entries.values())):
            off = sorted({
                min((code % d, code // d), (to % d, to // d))
                for code, to in zip(entries, map(image, entries))
                if entries.get(to) != entries[code]
            })
        checks.append(
            CheckResult(
                name=name,
                passed=not off,
                detail="" if not off else f"{relation} fails at: {off}",
            )
        )

    return tuple(checks)


@dataclass(frozen=True)
class Witness:
    """An element b of class j that is a sum of length nonzero d-th powers.

    b = b_parent + y with y a nonzero d-th power, where b_parent is the
    witness of class parent; the root, class 0, has parent None and
    b = y = 1.
    """

    j: int
    parent: int | None
    y: int
    b: int
    length: int


@dataclass(frozen=True)
class CosetWalk:
    """Every class's least number of nonzero d-th powers, with how it was reached.

    order lists the classes in the order the walk reached them, from class
    0.  A class j it reached has its least length lengths[j] and an element
    b[j] that is a sum of that many powers: 1 in class 0, and below it
    b[parent[j]] plus one power.  A class it never reached has length,
    parent and element None; on a proved class array there is none.
    """

    order: tuple[int, ...]
    lengths: tuple[int | None, ...]
    parent: tuple[int | None, ...] = field(repr=False)
    b: tuple[int | None, ...] = field(repr=False)


def coset_walk(ctx: FieldContext) -> CosetWalk:
    """Walk the power classes breadth-first from class 0, reading no table.

    The sums of k nonzero d-th powers, 0 left out, form a union of power
    classes (Dickson, 1935).  So if b in class c is a sum of k powers, so
    is every element of class c, each of them b * h' for a power h', and
    the classes that k + 1 powers reach from class c are those of
    b * h' + h = h' * (b + h / h'), that is, of b + h for the f powers h,
    with b + h != 0.  From b = 1 in class 0, each class reached is
    expanded once, in breadth-first order, through its own b and the
    powers h = omega^(d*u), each one multiplication from the last, and
    each class keeps the first element that reaches it; the walk stops
    once every class is reached.  Its lengths are therefore the least
    ones, and it reads at most d*f = p - 1 classes and takes no power per
    class.
    """
    p, d, f = ctx.p, ctx.d, ctx.f
    classes = ctx.index_table
    step = pow(ctx.omega, d, p)
    lengths: list[int | None] = [None] * d
    parent: list[int | None] = [None] * d
    element: list[int | None] = [None] * d
    lengths[0], element[0] = 1, 1
    order = [0]
    unreached = d - 1
    for c in order:  # grows as it is read: breadth-first
        if not unreached:
            break
        length, b, h = lengths[c] + 1, element[c], 1
        for _ in range(f):
            x = b + h  # in 2 .. 2p - 2, and p is 0
            if x != p:
                if x > p:
                    x -= p
                j = classes[x]
                if lengths[j] is None:
                    lengths[j], parent[j], element[j] = length, c, x
                    order.append(j)
                    unreached -= 1
                    if not unreached:
                        break
            h = h * step % p
    return CosetWalk(tuple(order), tuple(lengths), tuple(parent), tuple(element))


def field_witnesses(ctx: FieldContext, walk: CosetWalk) -> list[Witness]:
    """A witness of least length for every class the coset walk reached.

    Each class's witness is the walk's element, in the order the walk
    reached them: class 0 has b = y = 1, and the class j reached from
    class c has y = b - b_c, the power the walk added.  The witnesses
    prove upper bounds only (check_witnesses).
    """
    p, b, parent = ctx.p, walk.b, walk.parent
    return [
        Witness(j=j, parent=parent[j],
                y=b[j] if parent[j] is None else (b[j] - b[parent[j]]) % p,
                b=b[j], length=walk.lengths[j])
        for j in walk.order
    ]


def check_witnesses(
    p: int, d: int, omega: int, witnesses: Sequence[Witness],
    per_class_s: Sequence[int],
) -> list[str]:
    """What is wrong with the witnesses, checked from p, d and omega alone.

    Each witness must follow its parent's, and with f = (p-1)/d:
    y^f = 1 (y is a nonzero d-th power), (b * omega^-j)^f = 1 (b lies in
    class j), b = b_parent + y (b = y at the root, class 0) and length =
    parent's length + 1 (1 at the root).  So b is a sum of length powers,
    and length must be per_class_s[j], the claimed answer for class j.
    Every class needs a witness.  An empty list proves that no class needs
    more powers than claimed; it says nothing of fewer, which is the
    lower bound the brute-force oracle checks.
    """
    f = (p - 1) // d
    proved: dict[int, Witness] = {}
    problems = []
    for w in witnesses:
        if w.parent is None:  # b = y is then in class 0, or fails below
            base, base_length = 0, 0
        elif w.parent in proved:
            base, base_length = proved[w.parent].b, proved[w.parent].length
        else:
            problems.append(f"class {w.j}: parent {w.parent} not proved before it")
            continue
        wrong = [
            what for what, holds in (
                ("y is not a d-th power", pow(w.y, f, p) == 1),
                (f"b is not in class {w.j}", pow(w.b * pow(omega, -w.j, p), f, p) == 1),
                ("b is not b_parent + y", w.b == (base + w.y) % p),
                ("length is not the parent's + 1", w.length == base_length + 1),
            ) if not holds
        ]
        if wrong:
            problems.append(f"class {w.j}: " + ", ".join(wrong))
            continue
        proved[w.j] = w
        if w.length != per_class_s[w.j]:
            problems.append(
                f"class {w.j}: {w.length} powers, not s = {per_class_s[w.j]}")
    unproved = [j for j in range(d) if j not in proved]
    if unproved:
        problems.append(f"no proved witness for classes {unproved}")
    return problems
