"""Brute-force ground truth, independent of the cyclotomic machinery.

Representation counts come from a dynamic program over residues (row k+1 is
the cyclic convolution of row k with the d-th power indicator), and minimal
representation lengths from direct sumset growth.  Nothing here touches
cyclotomic numbers, so these results can check the exact solvers' answers;
they never supply one.

Sumsets are held as p-bit integers (bit a set iff residue a is reachable);
adding the power set is an OR of cyclic shifts.  That is still the naive
set-growth algorithm, just on a compact representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScaleGuard, Unrepresentable, ZeroArgument
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


def brute_s(ctx: FieldContext, a: int) -> int:
    """Least k such that a is a sum of k nonzero d-th powers.

    Grows S_1 = powers, S_{k+1} = S_k + S_1 until a appears.  Growth is
    cyclic: a step ORs together the shifts of the current reachable set by
    each power.  Gives up after p - 1 steps, by which point the sets have
    stabilized.
    """
    p = ctx.p
    a %= p
    if a == 0:
        raise ZeroArgument(a)
    base = sorted(power_set(ctx))
    full = (1 << p) - 1
    cur = 0
    for s in base:
        cur |= 1 << s
    target = 1 << a
    for k in range(1, p):
        if cur & target:
            return k
        nxt = 0
        for s in base:
            nxt |= (cur << s) | (cur >> (p - s))
        cur = nxt & full
    raise Unrepresentable(f"residue {a} not reached mod {p}")
