"""Prime fields: primality, primitive roots, and the power-class array.

A FieldContext fixes an odd prime p, the smallest positive primitive root
omega, an order d dividing p-1, the cofactor f = (p-1)/d, theta, the class
of -1 mod d, and for every residue a its power class ind(a) mod d, where
omega^ind(a) = a.  Every answer depends on the field only through those
classes, so the full discrete log is not stored: the classes are one typed
array (one byte per residue when d <= 255, two or four above that).  It is
filled by a walk over half the powers of omega: omega^((p-1)/2) = -1, so
class(p - a) = class(a) + theta, and the other half is copied across the
pairs (a, p - a) a chunk at a time with whole-chunk integer and translate
operations.  Construction is O(p) in time and O(p) bytes.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import cycle

from .errors import (
    DegenerateOrder, InputError, NotPrime, SanityFailure, ScaleGuard, ZeroArgument,
)

#: Default cap on p.  The power-class array takes one byte per residue for
#: d <= 256 (4 MiB at the cap) and the table pass is O(p); raise the cap
#: explicitly (max_p argument or CYCLOMOD_MAX_P) when you mean it.
DEFAULT_MAX_P = 1 << 22

# Powers of omega are produced and classified this many at a time.
_WALK_BLOCK = 4096

# Pairs (a, p - a) are completed this many at a time.  The transients stay
# small: at 2^16 the peak RSS at p = 4194301 rose by ~0.8 MiB, at no gain.
_FILL_CHUNK = 1 << 14

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10^24, far
# beyond the supported range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported range.

    >>> [k for k in range(2, 20) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    m = n - 1
    r = (m & -m).bit_length() - 1
    odd = m >> r
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    found = []
    for q in (2, 3):
        if n % q == 0:
            found.append(q)
            while n % q == 0:
                n //= q
    q = 5
    while q * q <= n:
        for c in (q, q + 2):
            if n % c == 0:
                found.append(c)
                while n % c == 0:
                    n //= c
        q += 6
    if n > 1:
        found.append(n)
    return found


def smallest_primitive_root(p: int) -> int:
    """Smallest positive generator of the multiplicative group mod p."""
    if p == 3:
        return 2
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise SanityFailure(f"no primitive root found for p={p}")


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] via a sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(sieve[q * q :: q])
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def _max_p_limit(max_p: int | None) -> int:
    """The cap on p: max_p if given, else CYCLOMOD_MAX_P, else DEFAULT_MAX_P."""
    if max_p is not None:
        return max_p
    env = os.environ.get("CYCLOMOD_MAX_P")
    if not env:
        return DEFAULT_MAX_P
    try:
        return int(env)
    except ValueError:
        raise InputError(f"CYCLOMOD_MAX_P={env!r} is not an integer") from None


@dataclass(frozen=True)
class FieldContext:
    """Immutable field data shared by every solver.

    Safe to hand to concurrent workers: nothing here mutates after
    construction.
    """

    p: int
    omega: int
    d: int
    f: int
    theta: int
    #: Index mod d per residue: index_table[a] = ind(a) mod d for a in
    #: 1..p-1 (entry 0 is unused).  A bytearray for d <= 255, else an array.
    index_table: bytearray | array = field(repr=False, compare=False)

    def class_of(self, a: int) -> int:
        """Power class of a: ind(a) mod d.  Class 0 is the d-th powers."""
        r = a % self.p
        if r == 0:
            raise ZeroArgument(a)
        return self.index_table[r]

    def element_of_class(self, alpha: int) -> int:
        """A canonical representative of class alpha: omega^alpha mod p."""
        return pow(self.omega, alpha % self.d, self.p)


def make_context(
    p: int, d: int, *, max_p: int | None = None, guard=None
) -> FieldContext:
    """Build the field context for (p, d).

    d is replaced by gcd(d, p-1) since d-th powers only depend on that gcd.
    A reduced order of 1 means every unit is a d-th power; that case raises
    DegenerateOrder (carrying the trivial answer) rather than producing a
    context no solver accepts.  guard(p, d_eff), when given, runs after
    these cheap checks and before the O(p) field is built.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if d < 1:
        raise ValueError(f"order must be a positive integer, got {d}")
    d_eff = math.gcd(d, p - 1)
    if d_eff < 2:
        raise DegenerateOrder(p, d)
    limit = _max_p_limit(max_p)
    if p > limit:
        raise ScaleGuard(f"p={p} exceeds the configured cap {limit}")
    if guard is not None:
        guard(p, d_eff)

    omega = smallest_primitive_root(p)
    if any(pow(omega, (p - 1) // q, p) == 1 for q in prime_factors(p - 1)):
        raise SanityFailure(f"omega={omega} does not have order p-1 mod {p}")
    classes = _power_classes(p, omega, d_eff)

    f = (p - 1) // d_eff
    theta = ((p - 1) // 2) % d_eff
    expected_theta = 0 if f % 2 == 0 else d_eff // 2
    if theta != expected_theta:
        raise SanityFailure(
            f"theta={theta} contradicts the parity rule for p={p}, d={d_eff}"
        )
    return FieldContext(
        p=p, omega=omega, d=d_eff, f=f, theta=theta, index_table=classes
    )


def _power_classes(p: int, omega: int, d: int) -> bytearray | array:
    """ind(a) mod d for every residue a.

    Only omega^0 .. omega^((p-3)/2) are walked, a block at a time, each
    block as one multiple of a fixed run of consecutive powers; the k-th
    power is labelled k mod d + 1, so 0 marks a residue not reached.  As
    omega^((p-1)/2) = -1, each pair (a, p - a) has one side walked, and the
    other side's class is that class plus theta.  The pairs are completed a
    chunk at a time, each side read as one integer of lanes: one side's
    classes (label - 1) are OR-ed with the other side's mirrored classes
    (label - 1 + theta mod d), reversed.  No p-length list is built.

    SanityFailure is raised unless omega^((p-1)/2) = -1 and every pair has
    a side walked.  The walk writes (p-1)/2 times, so the second check
    also rules out a pair walked on both sides; together they hold only
    for a generator.
    """
    half = (p - 1) // 2
    if pow(omega, half, p) != p - 1:
        raise SanityFailure(f"omega={omega}: omega^{half} is not -1 mod {p}")
    if d < 1 << 8:
        classes: bytearray | array = bytearray(p)
        unit = bytearray(b"\1")
    else:
        # a spare top bit per lane lets _lane_classes compare without carries
        unit = array("H" if d < 1 << 15 else "I", [1])
        classes = array(unit.typecode, [0]) * p
    size = min(_WALK_BLOCK, half)
    run = [1] * size
    for j in range(1, size):
        run[j] = run[j - 1] * omega % p
    stride = run[-1] * omega % p  # omega^size
    labels = cycle(range(1, d + 1))
    label = classes.__setitem__
    start = 1  # omega^k at the head of the current block
    for k in range(0, half, size):
        block = [start * r % p for r in run[: half - k]]
        deque(map(label, block, labels), 0)
        start = start * stride % p

    theta = half % d
    bits = 8 * memoryview(unit).nbytes
    if type(classes) is bytearray:
        walked = bytes([0, *range(d)]).ljust(256, b"\0")
        mirrored = bytes([0, *range(theta, d), *range(theta)]).ljust(256, b"\0")

        def relabel(lanes, ones):
            return (
                _as_int(lanes.translate(walked)),
                _as_int(lanes.translate(mirrored)),
            )
    else:

        def relabel(lanes, ones):
            return _lane_classes(_as_int(lanes), ones, bits, d, theta)

    for lo in range(1, half + 1, _FILL_CHUNK):
        hi = min(lo + _FILL_CHUNK, half + 1)
        mirror = slice(p - hi + 1, p - lo + 1)
        near = classes[lo:hi]  # residues a = lo .. hi-1
        far = classes[mirror][::-1]  # residues p - a, in the same order
        ones = _as_int(unit * (hi - lo))
        if _set_lanes(_as_int(near) | _as_int(far), ones, bits) != ones:
            raise SanityFailure(
                f"omega={omega}: the walk missed both a and {p} - a "
                f"for some {lo} <= a < {hi}"
            )
        near_walked, near_mirrored = relabel(near, ones)
        far_walked, far_mirrored = relabel(far, ones)
        classes[lo:hi] = _typed(near_walked | far_mirrored, near)
        classes[mirror] = _typed(far_walked | near_mirrored, near)[::-1]
    return classes


def _as_int(lanes) -> int:
    """The lanes of a bytearray or array as one integer, in native order."""
    return int.from_bytes(lanes, sys.byteorder)


def _typed(value: int, like: bytearray | array) -> bytearray | array:
    """The inverse of _as_int, as lanes of the same type and length as like."""
    raw = value.to_bytes(memoryview(like).nbytes, sys.byteorder)
    return bytearray(raw) if type(like) is bytearray else array(like.typecode, raw)


def _set_lanes(x: int, ones: int, bits: int) -> int:
    """1 in each bits-wide lane of x that is not 0, else 0.

    ones holds 1 in every lane.  The low bits of each lane plus all-ones
    below the top bit carry into the top bit exactly when they are not all
    0, and never past it.
    """
    low = ones * ((1 << (bits - 1)) - 1)
    return ((((x & low) + low) | x) >> (bits - 1)) & ones


def _lane_classes(
    x: int, ones: int, bits: int, d: int, theta: int
) -> tuple[int, int]:
    """Walked and mirrored classes of walk labels packed in lanes of x.

    A lane holds k mod d + 1 for a walked residue or 0 for an unset one,
    and d < 2^(bits-1).  Walked classes are label - 1, mirrored classes
    label - 1 + theta mod d, and unset lanes give 0 in both.  The mirrored
    class wraps where the walked one is at least d - theta; adding
    2^(bits-1) - (d - theta) sets the top bit of exactly those lanes.
    """
    top = bits - 1
    walked_set = _set_lanes(x, ones, bits)
    walked = x - walked_set
    wraps = ((walked + ones * ((1 << top) - d + theta)) >> top) & ones
    return walked, walked + theta * walked_set - d * wraps
