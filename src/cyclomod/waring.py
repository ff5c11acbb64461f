"""Exact solvers for the minimal number of d-th powers representing a class.

Everything is driven by the integer sequences n(k, v), indexed by power
class v, which encode p * N(k, a) - f^k where N(k, a) counts ordered
representations of a by k nonzero d-th powers and v is the class of -a.
They start at n(0, v) = -1 and n(1, v) = p*[v == theta] - f and obey the
coupled linear recurrence

    n(k+1, v) = sum_l (v, l) * n(k, l) + f * [v == theta] * n(k-1, 0)

over the cyclotomic numbers (v, l).  The minimal representation length for
class alpha is then the least k with f^k + n(k, alpha + theta) != 0.

Row v of the table sums to f - [v == theta], so the constant f^k solves the
same recurrence, and so does the shift m(k, v) = f^k + n(k, v) = p * N(k, a),
from m(0, v) = 0 and m(1, v) = p*[v == theta].  m(k, .) is zero on every
class k powers cannot reach yet (one entry per row at f = 1), so NSequence
stores only the support of each m(k, .), propagates it, and records in the
same pass the first k at which each class enters it: the first route's
answer for class alpha is first_k[alpha + theta].

A second, independent route reads the same answer off the digraph on
classes with an edge i -> j wherever (i, j) != 0: the minimal length is one
more than the shortest walk from alpha + theta to theta.  At f >= 3 solve()
grows the rows once, until every class has entered the support, builds both
routes' answers for every class, and refuses to return if they ever
disagree or either leaves a class unanswered.  At f <= 2 the recurrence
would run to k = g, which is p - 1 or (p - 1)/2 (with values up to 2^g at
f = 2), so solve() compares the walks with the closed form
closedform.small_f_lengths instead: the powers are +-1 there, and the
answer is proved from p and omega alone, without the table.
The rows still start, with the row-sum check, and grow on demand for the
callers that read n(k, v).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import closedform
from .cyclotomy import MAX_CELLS, CyclotomyTable, compute_table
from .errors import InternalDisagreement, SanityFailure, ScaleGuard
from .ffield import FieldContext, make_context


class NSequence:
    """Rows n(k, 0..d-1) of the class-coupled recurrence, exact and growable.

    Only the sparse shifted rows m(k, .) (module docstring) are stored, one
    dict of the nonzero entries per k, with f^k alongside; n(k, v) is read
    as m(k, v) - f^k.  Each nonzero m(k, l) is pushed along column l of the
    table, f * m(k-1, 0) is added at theta, and exact zeros are dropped.
    first_k[v] is the least k with m(k, v) != 0 so far, or None.  The shift
    needs every table row to sum to f - [v == theta], checked once
    (SanityFailure).  Each new row must also keep the count of all f^k
    ordered k-tuples: f/p * sum_v m(k, v) of them sum to a unit and
    f/p * m(k-1, 0) to 0, so

        sum_v m(k, v) + m(k-1, 0) = p * f^(k-1)

    (SanityFailure otherwise).  It holds while every column l of the table
    sums to f - [l == 0], which the row sums do not show.  A context over
    MAX_CELLS (recurrence_cells) is refused with ScaleGuard before any row
    is built.
    """

    def __init__(self, table: CyclotomyTable, k_max: int = 1):
        ctx = table.ctx
        p, d, f, theta = ctx.p, ctx.d, ctx.f, ctx.theta
        require_recurrence_fits(p, d)
        self.table = table
        self._p, self._d, self._f, self._theta = p, d, f, theta
        self._columns: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for v, support in enumerate(table.row_supports):
            total = sum(c for _, c in support)
            if total != f - (v == theta):
                raise SanityFailure(f"row {v} of the table sums to {total}, "
                                    f"not {f - (v == theta)} (p={p}, d={d})")
            for l, c in support:
                self._columns[l].append((v, c))
        self._m: list[dict[int, int]] = [{}, {theta: p}]  # m(k, .) by k
        self._fk = [1, f]  # f^k alongside each row
        self.first_k: list[int | None] = [None] * d
        self.first_k[theta] = 1
        self._unset = d - 1  # classes whose first_k is still None
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
        columns, first, rows, fks = self._columns, self.first_k, self._m, self._fk
        p, f, theta = self._p, self._f, self._theta
        while len(rows) <= k_max and (self._unset or not until_covered):
            k = len(rows)
            before, prev = rows[-2], rows[-1]
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
            if self._unset:
                for v in support:
                    if first[v] is None:
                        first[v] = k
                        self._unset -= 1
            rows.append(support)
            fks.append(fks[-1] * f)

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


def recurrence_cells(p: int, d: int) -> int:
    """The recurrence's worst case for order d mod p, in cells.

    solve may grow every row up to k = d at f >= 3, and the callers that
    read n(k, v) (period, series, the full checks) at every f; the price is
    charged at every f, so at f <= 2, where solve grows no row past k = 1,
    it overstates solve's own work.  Memory: d stored rows, each the
    support of m(k, .) and so at most d values, each up to d*log2(f) bits
    since values grow like f^k, priced in 64-bit words.
    Work: one multiply-add per row and nonzero table entry, of which there
    are at most min(d*d, p-2), priced one cell each.  Both terms are upper
    bounds, since rows are stored and propagated on their support only (one
    value per row at f = 1).
    """
    f = (p - 1) // d
    words = 1 + d * (f.bit_length() - 1) // 64
    multiply_adds = d * min(d * d, p - 2)
    return d * d * words + multiply_adds


def require_recurrence_fits(p: int, d: int) -> None:
    """Refuse, with ScaleGuard, a reduced order whose recurrence passes MAX_CELLS."""
    cells = recurrence_cells(p, d)
    if cells > MAX_CELLS:
        raise ScaleGuard(
            f"p={p}, d={d}: the recurrence may need {cells} cells, "
            f"over the cap of {MAX_CELLS}"
        )


def solver_context(p: int, d: int, *, max_p: int | None = None) -> FieldContext:
    """make_context, refusing an oversized recurrence before the O(p) field."""
    return make_context(p, d, max_p=max_p, guard=require_recurrence_fits)


@dataclass(frozen=True)
class WaringSolution:
    """Per-class minimal lengths and their maximum.

    seq holds the recurrence rows; its table and context hang off it, so
    checks reuse them instead of rebuilding, and it grows further rows on
    demand (at f <= 2 solve leaves it at k_max = 1).  per_class_s is the
    answer vector on which two exact routes agreed in full; method names
    the route compared with the walks on the class digraph: "recurrence"
    at f >= 3, "closed-form" at f <= 2.
    """

    seq: NSequence
    per_class_s: tuple[int, ...]
    g: int
    method: str

    @property
    def ctx(self) -> FieldContext:
        return self.seq.ctx


def solve(ctx: FieldContext) -> WaringSolution:
    """Solve all classes, answering only where two exact routes agree.

    One breadth-first search over the table gives every walk length.  At
    f >= 3 the recurrence grows once, until every class has entered the
    support or k = d, and its first-k vector is the other route.  At f <= 2
    the other route is the closed form (small_f_lengths), a proof from the
    powers being +-1 that reads neither the class array nor the table, and
    no row past k = 1 is grown.  The two vectors are compared whole.  The
    first class on which they differ, or on which either route gives no
    answer (None: a class the recurrence did not reach by k = d, or one
    with no walk to theta), raises InternalDisagreement carrying both
    values, keyed "recurrence" or "closed-form" and "reachability".  On a
    true table neither route is ever silent, so that is the headline
    correctness contract, not a recoverable condition.  Brute force only
    checks the answers (sweep.full_checks); it never supplies one.
    A context the recurrence could not handle is refused before its table
    is counted, at every f.
    """
    require_recurrence_fits(ctx.p, ctx.d)
    table = compute_table(ctx)
    seq = NSequence(table)
    p, d, theta = ctx.p, ctx.d, ctx.theta
    # the walks and the recurrence read class alpha at alpha + theta
    walks = table.walk_lengths_to_theta
    by_walks = tuple(None if w is None else w + 1
                     for w in walks[theta:] + walks[:theta])
    if ctx.f <= 2:
        route, by_route = "closed-form", closedform.small_f_lengths(p, d, ctx.omega)
    else:
        seq.extend(d, until_covered=True)
        first = tuple(seq.first_k)
        route, by_route = "recurrence", first[theta:] + first[:theta]
    if by_route != by_walks or None in by_walks:
        alpha = next(a for a, w in enumerate(by_walks) if w is None or w != by_route[a])
        raise InternalDisagreement(
            alpha, {route: by_route[alpha], "reachability": by_walks[alpha]})
    return WaringSolution(seq=seq, per_class_s=by_route, g=max(by_route), method=route)
