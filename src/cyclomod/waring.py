"""Exact solvers for the minimal number of d-th powers representing a class.

Everything is driven by the integer sequences n(k, v), indexed by power
class v, which encode p * N(k, a) - f^k where N(k, a) counts ordered
representations of a by k nonzero d-th powers and v is the class of -a.
They start at n(0, v) = -1 and n(1, v) = p*[v == theta] - f and obey the
coupled linear recurrence

    n(k+1, v) = sum_l (v, l) * n(k, l) + f * [v == theta] * n(k-1, 0)

over the cyclotomic numbers (v, l).  The minimal representation length for
class alpha is then the least k with f^k + n(k, alpha + theta) != 0.

A second, independent route reads the same answer off the digraph on
classes with an edge i -> j wherever (i, j) != 0: the minimal length is one
more than the shortest walk from alpha + theta to theta.  solve() runs both
and refuses to return if they ever disagree.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import oracle
from .cyclotomy import MAX_CELLS, CyclotomyTable, compute_table
from .errors import (
    BoundExceeded,
    InternalDisagreement,
    SanityFailure,
    ScaleGuard,
    Unreachable,
)
from .ffield import FieldContext

log = logging.getLogger(__name__)


class NSequence:
    """Rows n(k, 0..d-1) of the class-coupled recurrence, exact and growable.

    Values grow like f^k, so rows are plain Python integers; nothing here
    may ever round.  Every computed row is checked against the divisibility
    p | f^k + n(k, v), which holds because (f^k + n(k, v)) / p is a count.
    A context whose worst case (recurrence_cells) exceeds MAX_CELLS is
    refused with ScaleGuard before any row is built.
    """

    def __init__(self, table: CyclotomyTable, k_max: int = 1):
        require_recurrence_fits(table.ctx)
        self.table = table
        ctx = table.ctx
        self._p, self._d, self._f, self._theta = ctx.p, ctx.d, ctx.f, ctx.theta
        row0 = [-1] * self._d
        row1 = [
            self._p * (1 if v == self._theta else 0) - self._f
            for v in range(self._d)
        ]
        self._rows = [row0, row1]
        self._fk = [1, self._f]  # f^k alongside each row
        self._check_row(0)
        self._check_row(1)
        self.extend(k_max)

    @property
    def ctx(self) -> FieldContext:
        return self.table.ctx

    @property
    def k_max(self) -> int:
        return len(self._rows) - 1

    def _check_row(self, k: int) -> None:
        fk = self._fk[k]
        for v, value in enumerate(self._rows[k]):
            if (fk + value) % self._p:
                raise SanityFailure(
                    f"p={self._p} does not divide f^{k} + n({k},{v}) = {fk + value}"
                )

    def extend(self, k_max: int) -> None:
        """Grow the table of rows up to index k_max (no-op if already there)."""
        supports = self.table.row_supports
        f, theta = self._f, self._theta
        while len(self._rows) <= k_max:
            prev = self._rows[-1]
            prev2 = self._rows[-2]
            row = []
            for support in supports:
                acc = 0
                for l, c in support:
                    acc += c * prev[l]
                row.append(acc)
            row[theta] += f * prev2[0]
            self._rows.append(row)
            self._fk.append(self._fk[-1] * f)
            self._check_row(len(self._rows) - 1)

    def n(self, k: int, v: int) -> int:
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k > self.k_max:
            self.extend(k)
        return self._rows[k][v % self._d]

    def f_power(self, k: int) -> int:
        if k > self.k_max:
            self.extend(k)
        return self._fk[k]

    def __repr__(self):
        ctx = self.ctx
        return f"NSequence(p={ctx.p}, d={ctx.d}, k_max={self.k_max})"


def recurrence_cells(ctx: FieldContext) -> int:
    """The recurrence's worst case for this context, in cells.

    s_by_recurrence may need every row up to k = d.  Memory: d stored rows
    of d values, each up to d*log2(f) bits since values grow like f^k, priced
    in 64-bit words.  Work: each row takes one multiply-add per nonzero table
    entry, of which there are at most min(d*d, p-2), priced one cell each.
    """
    d = ctx.d
    words = 1 + d * (ctx.f.bit_length() - 1) // 64
    multiply_adds = d * min(d * d, ctx.p - 2)
    return d * d * words + multiply_adds


def require_recurrence_fits(ctx: FieldContext) -> None:
    """Refuse, with ScaleGuard, a context whose recurrence could exceed MAX_CELLS."""
    cells = recurrence_cells(ctx)
    if cells > MAX_CELLS:
        raise ScaleGuard(
            f"p={ctx.p}, d={ctx.d}: the recurrence may need {cells} cells, "
            f"over the cap of {MAX_CELLS}"
        )


def n_sequence(table: CyclotomyTable, k_max: int) -> NSequence:
    """All rows n(0..k_max, v) for the given table, exactly."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return NSequence(table, k_max)


def count_representations(seq: NSequence, a: int, k: int) -> int:
    """N(k, a): ordered k-tuples of nonzero d-th powers summing to a.

    Computed as (f^k + n(k, v)) / p with v the class of -a; the division is
    exact by construction and asserted anyway.
    """
    ctx = seq.ctx
    alpha = ctx.class_of(a)  # raises ZeroArgument on a = 0
    v = (alpha + ctx.theta) % ctx.d
    num = seq.f_power(k) + seq.n(k, v)
    quot, rem = divmod(num, ctx.p)
    if rem:
        raise SanityFailure(f"count for (k={k}, a={a}) is not integral")
    return quot


def s_by_recurrence(seq: NSequence, alpha: int) -> int:
    """Minimal length for class alpha via the exact integer recurrence.

    Class 0 is the d-th powers themselves, so the answer there is 1.  For
    any other class the k = 1 term vanishes identically, so the search
    starts at 2 and is capped at d; the cap holding is a theorem for every
    reachable class, so running past it raises instead of looping.
    """
    ctx = seq.ctx
    d = ctx.d
    alpha %= d
    if alpha == 0:
        return 1
    v = (alpha + ctx.theta) % d
    for k in range(2, d + 1):
        if seq.k_max < k:
            seq.extend(k)
        if seq._fk[k] + seq._rows[k][v] != 0:
            return k
    raise BoundExceeded(
        f"no representation length <= d={d} found for class {alpha} (p={ctx.p})"
    )


def s_by_reachability(table: CyclotomyTable, alpha: int) -> int:
    """Minimal length for class alpha via shortest walks on the class digraph.

    Edge i -> j exists iff the cyclotomic number (i, j) is nonzero.  A walk
    of length s - 1 from alpha + theta to theta is exactly a nonvanishing
    product of s - 1 consecutive cyclotomic numbers, which is the condition
    for length s to be achievable once all shorter lengths fail.  Shortest
    walk lengths come from one breadth-first search per table (cached on
    it); the literal boolean matrix-power formulation is kept in the tests
    as an equivalence check.
    """
    ctx = table.ctx
    d = ctx.d
    alpha %= d
    if alpha == 0:
        return 1
    src = (alpha + ctx.theta) % d
    walk = table.walk_lengths_to_theta[src]
    if walk is None:
        raise Unreachable(
            f"class {ctx.theta} not reachable from class {src} (p={ctx.p}, d={d})"
        )
    return walk + 1


@dataclass(frozen=True)
class WaringSolution:
    """Per-class minimal lengths and their maximum.

    seq is the recurrence that drove the solve; its table and context hang
    off it, so checks reuse them instead of rebuilding.  method records
    which solver produced the values: "recurrence" when the two exact paths
    agreed everywhere (the normal case), "oracle" when a guard tripped and
    brute force arbitrated.
    """

    seq: NSequence
    per_class_s: tuple[int, ...]
    g: int
    method: str

    @property
    def ctx(self) -> FieldContext:
        return self.seq.ctx


def solve(ctx: FieldContext) -> WaringSolution:
    """Solve all classes, cross-checking the two exact solvers per class.

    Any disagreement raises InternalDisagreement carrying both values; that
    is the headline correctness contract, not a recoverable condition.  The
    guarded failure modes (recurrence cap, unreachable class) fall back to
    the brute-force oracle and are logged; they are not expected to occur.
    A context the recurrence could not handle is refused before its table
    is counted.
    """
    require_recurrence_fits(ctx)
    table = compute_table(ctx)
    seq = n_sequence(table, 1)
    per_class = []
    fallback = False
    for alpha in range(ctx.d):
        values: dict[str, int] = {}
        try:
            values["recurrence"] = s_by_recurrence(seq, alpha)
        except BoundExceeded as exc:
            log.warning("recurrence cap hit for (p=%s, d=%s, alpha=%s): %s",
                        ctx.p, ctx.d, alpha, exc)
        try:
            values["reachability"] = s_by_reachability(table, alpha)
        except Unreachable as exc:
            log.warning("unreachable class for (p=%s, d=%s, alpha=%s): %s",
                        ctx.p, ctx.d, alpha, exc)
        if len(values) < 2:
            fallback = True
            values["oracle"] = oracle.brute_s(ctx, ctx.element_of_class(alpha))
        if len(set(values.values())) != 1:
            raise InternalDisagreement(alpha, values)
        per_class.append(next(iter(values.values())))
    return WaringSolution(
        seq=seq,
        per_class_s=tuple(per_class),
        g=max(per_class),
        method="oracle" if fallback else "recurrence",
    )
