"""Prime fields: primality, primitive roots, and the power-class array.

A FieldContext fixes an odd prime p, the smallest positive primitive root
omega, an order d dividing p-1, the cofactor f = (p-1)/d, theta, the class
of -1 mod d, and for every residue a its power class ind(a) mod d, where
omega^ind(a) = a.  Every answer depends on the field only through those
classes, so the full discrete log is not stored: the classes are one typed
array (one byte per residue when d <= 255, two or four above that).

Walking the powers of omega writes the classes at random positions, which
costs cache and TLB misses at every write.  So only a short run of powers
is walked, and class(m*a) = class(a) + class(m) fills the rest in residue
order: a pass with a small multiplier m (-1, then small primes) reads m
contiguous slices and writes one chunk, with whole-chunk translate and
integer operations.  A last pass proves class(omega*a) = class(a) + 1 for
every a, which pins every class.  Construction is O(p) in time and O(p)
bytes.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, cycle

from .errors import (
    DegenerateOrder, InputError, NotPrime, SanityFailure, ScaleGuard, ZeroArgument,
)

#: Default cap on p.  The power-class array takes one byte per residue for
#: d <= 255 (4 MiB at the cap) and the table pass is O(p); raise the cap
#: explicitly (max_p argument or CYCLOMOD_MAX_P) when you mean it.
DEFAULT_MAX_P = 1 << 22

# Powers of omega are produced and classified this many at a time.
_WALK_BLOCK = 4096

# The walk labels at most this many powers, each at a random position of the
# class array; the multiplier passes label the rest in residue order.  At
# the default cap on p that is about p/32.
_SEED_POWERS = 1 << 17

# The passes and the check read and write this many residues at a time.
_FILL_CHUNK = 1 << 16

# Passes stop once at most p >> _FEW_SHIFT residues are unset: labelling
# those one at a time costs less than another O(p) pass.
_FEW_SHIFT = 8

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
    """All primes in [lo, hi], by a segmented sieve.

    A base sieve finds the primes up to isqrt(hi), and they strike their
    multiples from one segment of hi - lo + 1 bytes (lo raised to 2), so
    the memory follows the width of the range, not hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    segment = bytearray([1]) * (hi - lo + 1)
    # compress reads base as the loop strikes it, so every q is prime
    for q in compress(range(root + 1), base):
        base[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
        start = max(q * q, -(-lo // q) * q)
        segment[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(compress(range(lo, hi + 1), segment))


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
    _require_generator(p, omega)
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

    The class of omega^k is labelled k mod d + 1, 0 marking a residue not
    labelled yet, in four stages on the one array:

    1. A walk labels omega^0 .. omega^(W-1), W = min((p-1)/2, _SEED_POWERS),
       a block of consecutive powers at a time.  These writes land at
       random positions, so W is kept small.
    2. Passes use class(m*a) = class(a) + class(m).  A pass with multiplier
       m labels every unset x whose x/m mod p is labelled, a chunk of x at a
       time: the chunk's image (_image) is relabelled by + class(m) mod d
       and OR-ed into the chunk.  The first pass multiplies by -1, of class
       theta; when W = (p-1)/2 it completes every pair (a, p - a) and is
       the only one.  Later passes use the primes 2, 3, 5, ... but omega
       (whose pass would label only the ends of the walked runs), with
       class(m) found from m^f by baby-step giant-step.  Passes stop once
       at most p >> _FEW_SHIFT residues are unset, or after a pass that
       labels less than a quarter of the smaller of the labelled and the
       unset residues: the labelled set is then nearly closed under the
       multipliers, and more passes would gain little.
    3. Each residue a still unset is labelled from the first labelled
       a*omega^k, and so is each residue on the way (_fill_stragglers).
    4. _check_classes relabels to classes and proves every one right.

    SanityFailure is raised before any of that unless omega^((p-1)/2) = -1
    and omega has order p - 1, and by the check.
    """
    half = (p - 1) // 2
    if pow(omega, half, p) != p - 1:
        raise SanityFailure(f"omega={omega}: omega^{half} is not -1 mod {p}")
    _require_generator(p, omega)
    if d < 1 << 8:
        classes: bytearray | array = bytearray(p)
    else:
        # a spare top bit per lane lets _lane_add compare without carries
        classes = array("H" if d < 1 << 15 else "I", [0]) * p
    seed = min(half, _SEED_POWERS)
    size = min(_WALK_BLOCK, seed)
    run = [1] * size
    for j in range(1, size):
        run[j] = run[j - 1] * omega % p
    stride = run[-1] * omega % p  # omega^size
    labels = cycle(range(1, d + 1))
    label = classes.__setitem__
    start = 1  # omega^k at the head of the current block
    for k in range(0, seed, size):
        block = [start * r % p for r in run[: seed - k]]
        deque(map(label, block, labels), 0)
        start = start * stride % p

    few = p >> _FEW_SHIFT
    unset = p - 1 - seed
    primes = (m for m in range(2, p) if m != omega and is_prime(m))
    for m in chain([-1], primes):
        if unset <= few:
            break
        c = half % d if m == -1 else _class_of_unit(p, omega, d, m)
        left = _fill_pass(classes, p, m, c, d)
        # had the labels been at random positions, the pass would have
        # labelled at least half the smaller of the two sets
        stalled = 4 * (unset - left) < min(p - 1 - unset, unset)
        unset = left
        if stalled:
            break
    if unset:
        _fill_stragglers(classes, p, omega, d)
    _check_classes(classes, p, omega, d)
    return classes


def _require_generator(p: int, omega: int) -> None:
    """Raise SanityFailure unless omega has order p - 1 mod p."""
    if any(pow(omega, (p - 1) // q, p) == 1 for q in prime_factors(p - 1)):
        raise SanityFailure(f"omega={omega} does not have order p-1 mod {p}")


def _class_of_unit(p: int, omega: int, d: int, m: int) -> int:
    """ind(m) mod d, by baby-step giant-step in the order-d group <omega^f>.

    m^f = (omega^f)^ind(m) with f = (p-1)/d, and omega^f has order d.
    """
    f = (p - 1) // d
    base = pow(omega, f, p)
    target = pow(m, f, p)
    n = math.isqrt(d - 1) + 1  # n * n >= d
    baby: dict[int, int] = {}
    x = 1
    for j in range(n):
        baby[x] = j  # distinct, as n <= d
        x = x * base % p
    giant = pow(base, -n, p)
    for i in range(n):
        j = baby.get(target)
        if j is not None:
            return i * n + j
        target = target * giant % p
    raise SanityFailure(f"{m}^{f} is not a power of omega^{f} mod {p}")


def _lane_bits(classes: bytearray | array) -> int:
    """Bits in one lane of the class array."""
    return 8 * memoryview(classes).itemsize


def _chunks(p: int, bits: int):
    """Residues 1 .. p-1 as (x0, x1, ones), a chunk [x0, x1) at a time.

    Chunks hold at most _FILL_CHUNK residues, and ones holds 1 in each of
    the chunk's bits-wide lanes.
    """
    lane = (1).to_bytes(bits // 8, sys.byteorder)
    ones = {}
    for x0 in range(1, p, _FILL_CHUNK):
        x1 = min(x0 + _FILL_CHUNK, p)
        if x1 - x0 not in ones:
            ones[x1 - x0] = _as_int(lane * (x1 - x0))
        yield x0, x1, ones[x1 - x0]


def _image(
    classes: bytearray | array, p: int, m: int, x0: int, x1: int
) -> bytearray:
    """The lanes classes[x / m mod p] for x = x0 .. x1-1, as bytes in memory order.

    m is -1 or a positive integer below p.  The x = m*a - j*p with x in
    [x0, x1) have the contiguous quotients a in [a0, a1) and step m, one
    such run for each j < m.  Lanes are copied as byte planes, since
    bytearray slices with a step are cheap and array ones are not.
    """
    w = memoryview(classes).itemsize
    image = bytearray((x1 - x0) * w)
    if m == -1:
        # reversing the bytes reverses the lanes and the bytes within each
        mirror = bytes(classes[p - x1 + 1 : p - x0 + 1])[::-1]
        for k in range(w):
            image[k::w] = mirror[w - 1 - k :: w]
        return image
    for j in range(m):
        a0 = -(-(x0 + j * p) // m)
        a1 = -(-(x1 + j * p) // m)
        t = w * (m * a0 - j * p - x0)
        if w == 1:
            image[t::m] = classes[a0:a1]
            continue
        run = bytes(classes[a0:a1])
        for k in range(w):
            image[t + k :: w * m] = run[k::w]
    return image


def _fill_pass(classes: bytearray | array, p: int, m: int, c: int, d: int) -> int:
    """Label each unset x whose x / m is labelled; return how many stay unset.

    m has class c, so x gets the label of x / m plus c mod d.  Unset lanes
    of the image stay 0, and OR keeps the labels the chunk already has.
    """
    bits = _lane_bits(classes)
    if bits == 8:
        table = bytes([0, *range(c + 1, d + 1), *range(1, c + 1)]).ljust(256, b"\0")

        def relabel(lanes, ones):
            return _as_int(lanes.translate(table))
    else:

        def relabel(lanes, ones):
            # labels above d - c wrap; unset lanes are below that and stay 0
            x = _as_int(lanes)
            live = _set_lanes(x, ones, bits)
            return _lane_add(x, live, ones, bits, c, d, d - c + 1)

    unset = 0
    for x0, x1, ones in _chunks(p, bits):
        chunk = classes[x0:x1]
        merged = _as_int(chunk) | relabel(_image(classes, p, m, x0, x1), ones)
        unset += x1 - x0 - _set_lanes(merged, ones, bits).bit_count()
        classes[x0:x1] = _typed(merged, chunk)
    return unset


def _fill_stragglers(
    classes: bytearray | array, p: int, omega: int, d: int
) -> None:
    """Label each unset a from the first labelled a*omega^k, and the run between."""
    bits = _lane_bits(classes)
    width = bits // 8
    for x0, x1, ones in _chunks(p, bits):
        unset = ones ^ _set_lanes(_as_int(classes[x0:x1]), ones, bits)
        # the lanes in memory order, one nonzero byte in each unset lane
        flags = unset.to_bytes((x1 - x0) * width, sys.byteorder)
        i = flags.find(1)
        while i >= 0:
            a = x0 + i // width
            if not classes[a]:
                k = 1
                y = a * omega % p
                while not classes[y]:
                    k += 1
                    y = y * omega % p
                label = (classes[y] - 1 - k) % d + 1
                for _ in range(k):
                    classes[a] = label
                    label = label % d + 1
                    a = a * omega % p
            i = flags.find(1, i + 1)


def _check_classes(classes: bytearray | array, p: int, omega: int, d: int) -> None:
    """Relabel labels to classes (label - 1) in place, then prove them right.

    The proof needs class(1) = 0 and class(omega * a) = class(a) + 1 mod d
    for every a, compared a chunk of targets omega * a at a time with
    _image.  As omega generates the units, that forces class(omega^k) =
    k mod d for every k: one wrong class anywhere raises SanityFailure.  The
    array checked is the one returned, so a label the fill got wrong or
    left unset cannot pass.
    """
    bits = _lane_bits(classes)
    if bits == 8:
        to_class = bytes([0, *range(d)]).ljust(256, b"\0")
        successor = bytes([*range(1, d), 0]).ljust(256, b"\0")
        for x0, x1, _ in _chunks(p, bits):
            classes[x0:x1] = classes[x0:x1].translate(to_class)

        def step(lanes, ones):
            return lanes.translate(successor)
    else:
        for x0, x1, ones in _chunks(p, bits):
            chunk = classes[x0:x1]
            x = _as_int(chunk)
            classes[x0:x1] = _typed(x - _set_lanes(x, ones, bits), chunk)

        def step(lanes, ones):
            x = _lane_add(_as_int(lanes), ones, ones, bits, 1, d, d - 1)
            return x.to_bytes(len(lanes), sys.byteorder)

    if classes[1] != 0:
        raise SanityFailure(f"omega={omega}: 1 is not in class 0 mod {p}")
    for x0, x1, ones in _chunks(p, bits):
        if step(_image(classes, p, omega, x0, x1), ones) != bytes(classes[x0:x1]):
            raise SanityFailure(
                f"omega={omega}: class(omega * a) is not class(a) + 1 "
                f"for some omega * a in [{x0}, {x1}) mod {p}"
            )


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


def _lane_add(
    x: int, live: int, ones: int, bits: int, c: int, d: int, t: int
) -> int:
    """x plus c in each lane of live, less d in each lane of x at least t.

    Every lane of x is below 2^(bits-1) and t >= 1, so adding 2^(bits-1) - t
    sets the top bit of exactly the lanes at least t, with no carry out of
    the lane.
    """
    top = bits - 1
    wraps = ((x + ones * ((1 << top) - t)) >> top) & ones
    return x + c * live - d * wraps
