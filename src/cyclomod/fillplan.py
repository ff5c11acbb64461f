"""The plan of the power-class fill, made on the exponents mod p - 1.

ffield labels omega^k for a short run of exponents k and fills the rest of
the class array with passes by small multipliers m: a pass labels m*a
wherever a is labelled, which on the exponents is a shift of the labelled
set by ind(m).  So which passes to run, and which exponents they leave, is
decided here from ind(m) alone, before any pass reads the array: the plan
is a few runs of exponents, and the passes can label more than it claims,
never less.  ind(m) comes from one baby-step giant-step table shared by
every multiplier.
"""

from __future__ import annotations

import math

from .errors import SanityFailure

# The passes are chosen from -1 and these primes.  A pass adds at most as
# many exponents as are labelled, so at the default cap on p the mirror and
# four passes that double the labelled set leave about half unset; these
# primes then close it in one or two more passes at the 16 largest primes
# p = 1 mod 4 under the cap.  A pass by m costs more as m grows.
PLAN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79)


def plan_passes(
    p: int, omega: int, seed: int, few: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The multiplier passes to run after a walk of seed powers, and the gap.

    Planned on the exponents mod p - 1, from which the class array is not
    needed: the walk labels the run [0, seed), and a pass by m labels at
    least the exponents S + ind(m) of a labelled set S (reads within a
    pass can label more, never less).  Each pass is the candidate that
    adds the most exponents to the plan, of -1 (ind = (p-1)/2, the
    mirror) and the PLAN_PRIMES below p - 1 but omega.  The scan stops
    early at a candidate that adds all one pass can (as many exponents as
    the smaller of the plan and its gap) or leaves at most few unset.
    Passes are planned until at most few are left, or no candidate adds
    any.

    Returns the passes as (m, ind(m)) in order, and the gap, the exponents
    the plan leaves unset, as runs [a, b) of 0 <= a < b <= p - 1.  The
    indices come from discrete_log, computed only when a pass past the
    mirror is planned.
    """
    n = p - 1
    candidates = [-1, *(m for m in PLAN_PRIMES if m != omega and m < p - 1)]
    indices = {-1: n // 2}
    log = None
    runs, covered = [(0, seed)], seed
    passes = []
    while n - covered > few and candidates:
        best = None
        top = min(covered, n - covered)  # the most one pass can add
        for m in candidates:
            if m not in indices:
                log = log or discrete_log(p, omega)
                indices[m] = log(m)
            merged, size = _spread(runs, indices[m], n)
            if best is None or size > best[2]:
                best = (m, merged, size)
            if size - covered == top or n - size <= few:
                break
        m, merged, size = best
        if size == covered:
            break
        candidates.remove(m)
        passes.append((m, indices[m]))
        runs, covered = merged, size
    # the space before each run and after the last
    gap = [(b, a) for (_, b), (a, _) in zip([(0, 0), *runs], [*runs, (n, n)]) if b < a]
    return passes, gap


def _spread(
    runs: list[tuple[int, int]], t: int, n: int
) -> tuple[list[tuple[int, int]], int]:
    """runs together with runs + t mod n, as sorted disjoint runs, and their size.

    runs are sorted, disjoint, non-adjacent runs [a, b) with
    0 <= a < b <= n; so are those returned, and 0 <= t < n.
    """
    moved = []
    for a, b in runs:
        a, b = a + t, b + t
        if a >= n:
            moved.append((a - n, b - n))
        elif b > n:
            moved += [(a, n), (0, b - n)]
        else:
            moved.append((a, b))
    merged: list[tuple[int, int]] = []
    for a, b in sorted(runs + moved):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged, sum(b - a for a, b in merged)


def discrete_log(p: int, omega: int):
    """ind: m -> the e in [0, p - 1) with omega^e = m mod p, for units m.

    Baby-step giant-step over <omega>: one table of omega^j for the
    ceil(sqrt(p - 1)) exponents j below s, shared by every call, and at
    most s giant steps by omega^-s per call.  omega must have order p - 1.
    """
    n = p - 1
    s = math.isqrt(n - 1) + 1  # s * s >= n
    baby: dict[int, int] = {}
    x = 1
    for j in range(s):
        baby[x] = j  # distinct, as s <= p - 1
        x = x * omega % p
    giant = pow(x, -1, p)

    def ind(m: int) -> int:
        target = m % p
        for i in range(s):
            j = baby.get(target)
            if j is not None:
                return (i * s + j) % n
            target = target * giant % p
        raise SanityFailure(f"{m} is not a power of omega={omega} mod {p}")

    return ind
