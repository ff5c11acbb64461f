"""Brute-force ground truth, independent of the cyclotomic machinery.

Representation counts come from a dynamic program over residues (row k+1 is
the cyclic convolution of row k with the d-th power indicator), and minimal
representation lengths from one direct sumset growth for every class
(sumset_lengths).  Nothing here touches cyclotomic numbers, so these
results can check the exact solvers' answers; they never supply one.

Sumsets are held as p-bit integers (bit a set iff residue a is reachable);
adding the power set is an OR of cyclic shifts.  That is still the naive
set-growth algorithm, just on a compact representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScaleGuard
from .ffield import FieldContext

#: dp_counts is a test fixture, not a production path; keep it small.
ORACLE_MAX_P = 2000
ORACLE_MAX_K = 16


@dataclass(frozen=True)
class CountTable:
    """Exact representation counts N(k, a) for k = 1..k_max and all residues.

    Residue 0 is carried too: it costs nothing and lets the f^k total-count
    identity be checked over the full rows.
    """

    p: int
    k_max: int
    counts: tuple[tuple[int, ...], ...] = field(repr=False)

    def count(self, k: int, a: int) -> int:
        """Number of ordered k-tuples of nonzero d-th powers summing to a."""
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k={k} outside computed range 1..{self.k_max}")
        return self.counts[k - 1][a % self.p]

    def row(self, k: int) -> tuple[int, ...]:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k={k} outside computed range 1..{self.k_max}")
        return self.counts[k - 1]


def power_set(ctx: FieldContext) -> frozenset[int]:
    """The f distinct nonzero d-th powers mod p."""
    step = pow(ctx.omega, ctx.d, ctx.p)
    out = set()
    x = 1
    for _ in range(ctx.f):
        out.add(x)
        x = x * step % ctx.p
    return frozenset(out)


def require_counts_fit(p: int, k_max: int) -> None:
    """Refuse dp_counts arguments over the caps, needing p and k_max alone."""
    if p > ORACLE_MAX_P:
        raise ScaleGuard(f"oracle counts capped at p <= {ORACLE_MAX_P}, got {p}")
    if k_max > ORACLE_MAX_K:
        raise ScaleGuard(f"oracle counts capped at k <= {ORACLE_MAX_K}, got {k_max}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")


def dp_counts(ctx: FieldContext, k_max: int) -> CountTable:
    """Exact counts by repeated cyclic convolution with the power indicator."""
    p = ctx.p
    require_counts_fit(p, k_max)

    base = sorted(power_set(ctx))
    row = [0] * p
    for s in base:
        row[s] = 1
    rows = [tuple(row)]
    for _ in range(k_max - 1):
        nxt = [0] * p
        for a, v in enumerate(row):
            if v:
                for s in base:
                    t = a + s
                    nxt[t if t < p else t - p] += v
        row = nxt
        rows.append(tuple(row))
    return CountTable(p=p, k_max=k_max, counts=tuple(rows))


def sumset_lengths(ctx: FieldContext) -> tuple[int | None, ...]:
    """Every class's least k from one growth of a p-bit sumset of the powers.

    R_k, 0 and the sums of at most k powers, grows from R_0 = {0} as
    R_{k+1} = R_k | (R_k + powers).  Every element of a class needs the same
    k, so class alpha is read at omega^alpha mod p, and one growth answers
    all d classes where a per-residue growth answers one.  It stops once
    every class is reached, or once R_k stops growing, leaving the rest None.
    """
    p, powers = ctx.p, power_set(ctx)
    todo = {ctx.element_of_class(alpha): alpha for alpha in range(ctx.d)}
    lengths: list[int | None] = [None] * ctx.d
    reach, k = 1, 0
    while todo:
        grown = reach
        for x in powers:  # R_k + x, cyclically
            grown |= (reach << x) | (reach >> (p - x))
        grown &= (1 << p) - 1
        if grown == reach:
            break
        reach, k = grown, k + 1
        for r in [r for r in todo if reach >> r & 1]:
            lengths[todo.pop(r)] = k
    return tuple(lengths)
