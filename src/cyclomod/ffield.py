"""Prime fields: primality, primitive roots, and the power-class array.

A FieldContext fixes an odd prime p, the smallest positive primitive root
omega, an order d dividing p-1, the cofactor f = (p-1)/d, theta, the class
of -1 mod d, and for every residue a its power class ind(a) mod d, where
omega^ind(a) = a.  Every answer depends on the field only through those
classes, so the full discrete log is not stored: the classes are one typed
array (one byte per residue when d <= 256, two or four above that), filled
by one walk over the powers of omega.  Construction is O(p) in time and
O(p) bytes.
"""

from __future__ import annotations

import math
import os
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
    #: 1..p-1 (entry 0 is unused).  A bytearray for d <= 256, else an array.
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

    The powers omega^0 .. omega^(p-2) are produced a block at a time, each
    block as one multiple of a fixed run of consecutive powers, and the k-th
    power is labelled k mod d.  No p-length list of Python ints is built.
    """
    if d <= 256:
        classes: bytearray | array = bytearray(p)
    else:
        classes = array("H" if d <= 1 << 16 else "I", [0]) * p
    size = min(_WALK_BLOCK, p - 1)
    run = [1] * size
    for j in range(1, size):
        run[j] = run[j - 1] * omega % p
    stride = run[-1] * omega % p  # omega^size
    labels = cycle(range(d))
    label = classes.__setitem__
    start = 1  # omega^k at the head of the current block
    for k in range(0, p - 1, size):
        block = [start * r % p for r in run[: p - 1 - k]]
        deque(map(label, block, labels), 0)
        start = start * stride % p
    return classes
