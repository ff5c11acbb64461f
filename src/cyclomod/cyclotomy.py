"""Cyclotomic numbers of order d, counted exactly, plus the classical checks.

Fix a context (p, omega, d).  The cyclotomic number (i, j) counts pairs
(u, v) with 1 + omega^(d*u+i) = omega^(d*v+j) mod p, for 0 <= u, v < f.
Equivalently: elements x of power class i such that 1 + x lands in power
class j.  One pass over x = 1..p-2 (skipping x = p-1, where 1 + x = 0)
fills the whole d x d table in O(p); the definitional double loop is kept
in the test suite as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .ffield import FieldContext


@dataclass(frozen=True)
class CyclotomyTable:
    """The d x d integer matrix of cyclotomic numbers for one context."""

    ctx: FieldContext
    counts: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def bool_matrix(self) -> tuple[tuple[int, ...], ...]:
        """0/1 matrix with entry 1 exactly where the count is nonzero."""
        return tuple(
            tuple(1 if c else 0 for c in row) for row in self.counts
        )

    @cached_property
    def row_supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the nonzero (column, count) pairs.

        The whole table holds p-2 incidences, so iterating supports instead
        of full rows keeps the linear-recurrence step at O(min(d*d, p)).
        """
        return tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.counts
        )

    @cached_property
    def walk_lengths_to_theta(self) -> tuple[int | None, ...]:
        """Shortest walk length from each class to the class of -1."""
        return walk_lengths(self.row_supports, self.ctx.theta)


def walk_lengths(row_supports: Sequence, target: int) -> tuple[int | None, ...]:
    """Shortest walk length from each class to target.

    Walks live in the digraph with an edge i -> j for every nonzero
    (j, count) pair in row_supports[i].  One breadth-first search over the
    reversed edges serves every source class at once; None marks an
    unreachable class.
    """
    reverse: list[list[int]] = [[] for _ in row_supports]
    for i, support in enumerate(row_supports):
        for j, _ in support:
            reverse[j].append(i)
    dist: list[int | None] = [None] * len(reverse)
    dist[target] = 0
    frontier = deque([target])
    while frontier:
        j = frontier.popleft()
        for i in reverse[j]:
            if dist[i] is None:
                dist[i] = dist[j] + 1
                frontier.append(i)
    return tuple(dist)


def compute_table(ctx: FieldContext) -> CyclotomyTable:
    """Count all cyclotomic numbers of order d in one pass over the units."""
    p, d = ctx.p, ctx.d
    index = ctx.index_table
    counts = [[0] * d for _ in range(d)]
    # x runs over units with 1 + x != 0; x = p-1 is the single exclusion.
    for x in range(1, p - 1):
        counts[index[x] % d][index[x + 1] % d] += 1
    return CyclotomyTable(ctx=ctx, counts=tuple(tuple(row) for row in counts))


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
    symmetric.  Violations are reported, never raised: these identities are
    theorems, so a failure means the table was built incorrectly.
    """
    ctx = table.ctx
    d, f, theta = ctx.d, ctx.f, ctx.theta
    checks = []

    bad_rows = [
        (k, sum(row))
        for k, row in enumerate(table.counts)
        if sum(row) != f - (1 if k == theta else 0)
    ]
    checks.append(
        IdentityCheck(
            name="row-sums",
            passed=not bad_rows,
            detail="" if not bad_rows else f"rows with wrong sum: {bad_rows}",
        )
    )

    total = sum(sum(row) for row in table.counts)
    checks.append(
        IdentityCheck(
            name="total-count",
            passed=total == d * f - 1,
            detail="" if total == d * f - 1 else f"total {total} != {d * f - 1}",
        )
    )

    if f % 2 == 0:
        asym = [
            (i, j)
            for i in range(d)
            for j in range(i + 1, d)
            if table.counts[i][j] != table.counts[j][i]
        ]
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
