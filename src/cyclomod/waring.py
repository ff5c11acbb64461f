"""Exact solvers for the minimal number of d-th powers representing a class.

solve() answers every power class only where two independent exact routes
agree.  The first is the coset walk (cyclotomy.coset_walk): the sums of k
nonzero d-th powers, 0 left out, form a union of power classes (Dickson,
1935), so one breadth-first walk over the power-class array from class 0
gives every class's least length without the table.  The second depends
on f = (p-1)/d.  At f <= 2 the powers are +-1, and
closedform.small_f_lengths proves every answer from p and omega alone, so
no table is counted.  At f >= 3 it is the digraph on classes with an edge
i -> j wherever the cyclotomic number (i, j) != 0: the minimal length of
class alpha is one more than the shortest walk from alpha + theta to
theta, read off the table's columns (cyclotomy.walks).

The paper's route runs on demand.  It is driven by the integer sequences
n(k, v), indexed by power class v, which encode p * N(k, a) - f^k where
N(k, a) counts ordered representations of a by k nonzero d-th powers and
v is the class of -a.  They start at n(0, v) = -1 and
n(1, v) = p*[v == theta] - f and obey the coupled linear recurrence

    n(k+1, v) = sum_l (v, l) * n(k, l) + f * [v == theta] * n(k-1, 0)

over the cyclotomic numbers (v, l).  The minimal representation length for
class alpha is then the least k with f^k + n(k, alpha + theta) != 0.

Row v of the table sums to f - [v == theta], so the constant f^k solves the
same recurrence, and so does the shift m(k, v) = f^k + n(k, v) = p * N(k, a),
from m(0, v) = 0 and m(1, v) = p*[v == theta].  m(k, .) is zero on every
class k powers cannot reach yet (one entry per row at f = 1), so NSequence
stores only the support of each m(k, .), propagates it, and records in the
same pass the first k at which each class enters it: the recurrence's
answer for class alpha is first_k[alpha + theta].  A WaringSolution counts
the table and starts the rows only when they are first read: the full
checks compare the first-k vector with solve's answer at f >= 3
(sweep.full_checks), and period and series read n(k, v).  At f <= 2 the
rows would run to k = g, which is p - 1 or (p - 1)/2, with values up to
2^g at f = 2.

Work is charged as it is done, not guessed from (p, d): solve prices the
table at every f and refuses one over MAX_CELLS before the walk,
compute_table does the same before counting it, and NSequence refuses
the row that would take its running budget past that cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import closedform
from .cyclotomy import (
    MAX_CELLS, CosetWalk, CyclotomyTable, coset_walk, compute_table,
    require_table_fits, walks,
)
from .errors import InternalDisagreement, SanityFailure, ScaleGuard
from .ffield import FieldContext


class NSequence:
    """Rows n(k, 0..d-1) of the class-coupled recurrence, exact and growable.

    Only the sparse shifted rows m(k, .) (module docstring) are stored, one
    dict of the nonzero entries per k, with f^k alongside; n(k, v) is read
    as m(k, v) - f^k.  Each nonzero m(k, l) is pushed along column l of the
    table, f * m(k-1, 0) is added at theta, and exact zeros are dropped.
    first_k[v] is the least k with m(k, v) != 0 so far, or None.  The shift
    needs every table row to sum to f - [v == theta], checked once on the
    table's row_sums (SanityFailure).  Each new row must also keep the
    count of all f^k ordered k-tuples: f/p * sum_v m(k, v) of them sum to a
    unit and f/p * m(k-1, 0) to 0, so

        sum_v m(k, v) + m(k-1, 0) = p * f^(k-1)

    (SanityFailure otherwise).  It holds while every column l of the table
    sums to f - [l == 0], which the row sums do not show.

    cells counts the budget the rows have spent; rows 0 and 1 are free.  Row
    k is charged a cell per multiply-add before it is grown, min(f, d) per
    entry of row k - 1 (a column holds at most f entries), and a cell per
    64-bit word stored after, its values being at most p * f^(k-1).  Past
    MAX_CELLS, ScaleGuard names the row, which is not stored.
    """

    def __init__(self, table: CyclotomyTable, k_max: int = 1):
        ctx = table.ctx
        p, d, f, theta = ctx.p, ctx.d, ctx.f, ctx.theta
        self.table = table
        self._p, self._d, self._f, self._theta = p, d, f, theta
        for v, total in enumerate(table.row_sums):
            if total != f - (v == theta):
                raise SanityFailure(f"row {v} of the table sums to {total}, "
                                    f"not {f - (v == theta)} (p={p}, d={d})")
        self._m: list[dict[int, int]] = [{}, {theta: p}]  # m(k, .) by k
        self._fk = [1, f]  # f^k alongside each row
        self.first_k: list[int | None] = [None] * d
        self.first_k[theta] = 1
        self._unset = d - 1  # classes whose first_k is still None
        self.cells = 0
        self.extend(k_max)

    @property
    def ctx(self) -> FieldContext:
        return self.table.ctx

    @property
    def k_max(self) -> int:
        return len(self._m) - 1

    @property
    def _rows(self) -> list[list[int]]:
        """Every dense row n(k, 0..d-1), derived on each read.

        Nothing in the package reads it: bench/spans.py does, to see the
        integer sizes of a traced run without recomputing the recurrence.
        """
        rows = []
        for m, fk in zip(self._m, self._fk):
            row = [-fk] * self._d
            for v, value in m.items():
                row[v] = value - fk
            rows.append(row)
        return rows

    def extend(self, k_max: int, *, until_covered: bool = False) -> None:
        """Grow the rows up to index k_max (no-op if already there).

        With until_covered, stop as soon as every class has entered the
        support, so first_k is complete without computing a row past it.
        """
        first, rows, fks = self.first_k, self._m, self._fk
        columns = self.table.columns
        p, f, theta = self._p, self._f, self._theta
        column_entries = min(f, self._d)
        while len(rows) <= k_max and (self._unset or not until_covered):
            k = len(rows)
            before, prev = rows[-2], rows[-1]
            self._charge(k, len(prev) * column_entries)
            acc: dict[int, int] = {}
            get = acc.get
            for l, value in prev.items():
                for v, c in columns[l]:
                    acc[v] = get(v, 0) + c * value
            if 0 in before:
                acc[theta] = get(theta, 0) + f * before[0]
            # counts are nonnegative, so only a doctored table cancels an entry
            support = acc
            if 0 in acc.values():
                support = {v: value for v, value in acc.items() if value}
            total = sum(support.values()) + prev.get(0, 0)
            if total != p * fks[-1]:
                raise SanityFailure(
                    f"row {k}: the sum of m({k}, v) plus m({k - 1}, 0) is "
                    f"{total}, not p*f^{k - 1} (p={p}, d={self._d})")
            self._charge(k, len(support) * (1 + total.bit_length() // 64))
            if self._unset:
                for v in support:
                    if first[v] is None:
                        first[v] = k
                        self._unset -= 1
            rows.append(support)
            fks.append(fks[-1] * f)

    def _charge(self, k: int, cells: int) -> None:
        self.cells += cells
        if self.cells > MAX_CELLS:
            raise ScaleGuard(
                f"p={self._p}, d={self._d}: row {k} of the recurrence brings it "
                f"to {self.cells} cells, over the cap of {MAX_CELLS}"
            )

    def support(self, k: int) -> dict[int, int]:
        """The nonzero m(k, v) = f^k + n(k, v) by class v, as a new dict."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k > self.k_max:
            self.extend(k)
        return dict(self._m[k])

    def n(self, k: int, v: int) -> int:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k > self.k_max:
            self.extend(k)
        return self._m[k].get(v % self._d, 0) - self._fk[k]

    def f_power(self, k: int) -> int:
        if k > self.k_max:
            self.extend(k)
        return self._fk[k]

    def __repr__(self):
        ctx = self.ctx
        return f"NSequence(p={ctx.p}, d={ctx.d}, k_max={self.k_max})"


@dataclass(frozen=True)
class WaringSolution:
    """Per-class minimal lengths and their maximum.

    per_class_s is the coset walk's answer vector, on which a second exact
    route agreed in full; method names that route: "closed-form" at
    f <= 2, "reachability" (the table's walks) at f >= 3.  walk is the
    coset walk's record, from which the full checks build the witnesses.
    table is the one solve counted at f >= 3 (counted), else counted on
    first read; seq, the recurrence rows over it, starts on first read at
    k_max = 1, with its row-sum check, and grows on demand.
    """

    ctx: FieldContext
    per_class_s: tuple[int, ...]
    g: int
    method: str
    walk: CosetWalk = field(repr=False)
    counted: CyclotomyTable | None = field(default=None, repr=False)

    @cached_property
    def table(self) -> CyclotomyTable:
        return compute_table(self.ctx) if self.counted is None else self.counted

    @cached_property
    def seq(self) -> NSequence:
        return NSequence(self.table)


def solve(ctx: FieldContext) -> WaringSolution:
    """Solve all classes, answering only where two exact routes agree.

    The d x d table is priced from (p, d) first (require_table_fits), at
    every f, so a key whose table would not fit is refused before the
    walk, whether or not the table is then counted.  The coset walk then
    gives every class's least length from the class array.  At f <= 2 the
    other route is the closed form (small_f_lengths), a proof from the
    powers being +-1 that reads neither the class array nor the table, and
    no table is counted.  At f >= 3 it is one breadth-first search over
    the counted table's columns.  The two vectors are compared whole.  The
    first class on which they differ, or on which either route gives no
    answer (None: a class the coset walk did not reach, or one with no
    walk to theta), raises InternalDisagreement carrying both values,
    keyed "coset-walk" and "closed-form" or "reachability".  On a true
    field and table neither route is ever silent, so that is the headline
    correctness contract, not a recoverable condition.  The recurrence
    and brute force only check the answers (sweep.full_checks); they
    never supply one.
    """
    p, d, theta = ctx.p, ctx.d, ctx.theta
    require_table_fits(p, d)
    walk = coset_walk(ctx)
    table = None
    if ctx.f <= 2:
        route, by_route = "closed-form", closedform.small_f_lengths(p, d, ctx.omega)
    else:
        table = compute_table(ctx)
        # the walks read class alpha at alpha + theta
        dist = walks(table.columns, theta)
        route = "reachability"
        by_route = tuple(None if w is None else w + 1
                         for w in dist[theta:] + dist[:theta])
    by_walk = walk.lengths
    if by_walk != by_route or None in by_walk:
        alpha = next(a for a, s in enumerate(by_walk) if s is None or s != by_route[a])
        raise InternalDisagreement(
            alpha, {"coset-walk": by_walk[alpha], route: by_route[alpha]})
    return WaringSolution(ctx=ctx, per_class_s=by_walk, g=max(by_walk),
                          method=route, walk=walk, counted=table)
