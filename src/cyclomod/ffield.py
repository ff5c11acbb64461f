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
order: a pass with a small multiplier m (-1 or a small prime) reads m
contiguous slices and writes one chunk, with whole-chunk translate and
integer operations.  The first pass is the mirror by -1, and from then on
the labelled set is closed under a -> p - a, with class(p - a) =
class(a) + theta.  So every pass blends only the lower half, residues
1 .. (p-1)/2, and writes each blended chunk, relabelled by + theta and
reversed, over its mirror in the upper half, which it neither reads nor
ORs.  The passes are planned beforehand on the exponents mod p - 1, where
a pass by m shifts the labelled set by ind(m) (fillplan), so no pass
counts what it labelled; the few exponents the plan leaves are walked.
A last pass proves class(omega*a) = class(a) + 1 for every a, which pins
every class.
Construction is O(p) in time and O(p) bytes.  The passes work 2^15
residues at a time (_FILL_CHUNK): small enough that a chunk's transients
do not make the allocator trim and regrow the heap between chunks, so the
field's speed does not depend on what was imported before it.

One field serves every order of its prime.  For d dividing the field's
order L, class_d(a) = class_L(a) mod d, so FieldContext.for_order(d)
derives the order-d context from the proven order-L array, over the whole
array at once (bytes.translate for byte classes, integer-lane steps a
chunk at a time for wider ones), and the proof holds for it as it stands.
A sweep builds one field per prime, at the lcm L of its orders, when L
needs no 4-byte lanes (sweep.prime_results).
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, cycle

from . import fillplan
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

# The passes and the check read and write this many residues at a time; a
# pass blends this many lower-half residues and writes as many mirrored
# ones.  Each chunk of a pass makes a few transients of a chunk's bytes
# (image, their ints, the merged and mirrored lanes).  At 2^16 byte lanes,
# glibc trimmed and regrew the heap between chunks unless an earlier import
# had raised its trim threshold: make_context(4194301, 4) (CPython 3.11,
# x86-64) took ~14 000 minor faults after a bare import of cyclomod.cli and
# ~2 000 after one that also loaded multiprocessing.  At 2^15 it takes
# ~1 100 either way.
_FILL_CHUNK = 1 << 15

# Passes are planned until at most p >> _FEW_SHIFT exponents are left
# unset: walking those costs less than another O(p) pass.
_FEW_SHIFT = 8

# Orders from here take 4-byte lanes in the class array (_class_array).
_WIDE_ORDER = 1 << 15

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

    def for_order(self, d: int) -> FieldContext:
        """The context of order d, a divisor of self.d, on the same field.

        Its classes are class(a) mod d, reduced over the whole array
        (_reduce_classes), so the proof that make_context ran on this
        array holds for them too.  omega, f and theta are the ones
        make_context(p, d) gives, and so is the array's type.
        """
        if d == self.d:
            return self
        if d < 2 or self.d % d:
            raise ValueError(f"order {d} does not divide {self.d} (p={self.p})")
        return _context(self.p, self.omega, d,
                        _reduce_classes(self.index_table, self.p, self.d, d))


def reduced_order(p: int, d: int, *, max_p: int | None = None) -> int:
    """gcd(d, p-1), after the cheap checks make_context runs on (p, d).

    p must be prime and d positive.  A reduced order of 1 means every unit
    is a d-th power; that case raises DegenerateOrder (carrying the trivial
    answer) rather than producing a context no solver accepts.  p over the
    cap (_max_p_limit) raises ScaleGuard.
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
    return d_eff


def make_context(
    p: int, d: int, *, max_p: int | None = None, guard=None
) -> FieldContext:
    """Build the field context for (p, d).

    d is replaced by gcd(d, p-1) (reduced_order, which also runs the cheap
    checks), since d-th powers only depend on that gcd.  guard(p, d_eff),
    when given, runs after those checks and before the O(p) field is built.
    """
    d_eff = reduced_order(p, d, max_p=max_p)
    if guard is not None:
        guard(p, d_eff)
    omega = smallest_primitive_root(p)
    return _context(p, omega, d_eff, _power_classes(p, omega, d_eff))


def _context(p: int, omega: int, d: int, classes: bytearray | array) -> FieldContext:
    """The context of order d over a proven class array, with f and theta."""
    return FieldContext(p=p, omega=omega, d=d, f=(p - 1) // d,
                        theta=_theta(p, d), index_table=classes)


def _theta(p: int, d: int) -> int:
    """theta, the class of -1 mod d: ind(-1) = (p-1)/2 = d*f/2."""
    return ((p - 1) // 2) % d


def _class_array(d: int, p: int) -> bytearray | array:
    """A zeroed class array for order d: one byte per residue for d < 2^8.

    Wider orders take 'H' lanes, and 'I' lanes from 2^15, so that every
    label up to d leaves a spare top bit in its lane (_lane_add).
    """
    if d < 1 << 8:
        return bytearray(p)
    return array("H" if d < _WIDE_ORDER else "I", [0]) * p


def _reduce_classes(
    classes: bytearray | array, p: int, big: int, d: int
) -> bytearray | array:
    """class(a) mod d for every residue, from the classes of order big.

    d divides big.  Byte classes are reduced by one bytes.translate.  Wider
    classes are reduced a chunk at a time in integer lanes: each lane at
    least m * 2^k loses m * 2^k, for k = K .. 0, which leaves it below m.
    For a byte-wide result m is the largest d * 2^j up to 256, and the low
    byte of each lane is kept and translated mod d (when m is 256 the low
    byte is already the class mod 256, and no lane step runs); otherwise m
    is d.  No Python step runs per residue.
    """
    if type(classes) is bytearray:
        return classes.translate(_mod_bytes(d))
    out = _class_array(d, p)
    bits, width = _lane_bits(classes), memoryview(out).itemsize
    lane = bits // 8
    m = d << ((256 // d).bit_length() - 1) if width == 1 else d
    steps = [] if width == 1 and m == 256 else [m]
    while steps and 2 * steps[-1] < big:
        steps.append(2 * steps[-1])
    # the bytes of each lane that the result keeps
    low = 0 if sys.byteorder == "little" else lane - width
    target = memoryview(out).cast("B")
    for x0, x1, ones in _chunks(p, bits):
        x = _as_int(classes[x0:x1])
        for t in reversed(steps):  # every lane is below 2t here
            x = _lane_add(x, 0, ones, bits, 0, t, t)
        raw = x.to_bytes((x1 - x0) * lane, sys.byteorder)
        if width == lane:
            target[x0 * width : x1 * width] = raw
            continue
        for k in range(width):
            target[x0 * width + k : x1 * width : width] = raw[low + k :: lane]
    return out if m == d else out.translate(_mod_bytes(d))


def _mod_bytes(d: int) -> bytes:
    """The bytes.translate table taking each byte b to b mod d, for d < 256."""
    return (bytes(range(d)) * (256 // d + 1))[:256]


def _power_classes(p: int, omega: int, d: int) -> bytearray | array:
    """ind(a) mod d for every residue a.

    The class of omega^k is labelled k mod d + 1, 0 marking a residue not
    labelled yet, in four stages on the one array:

    1. A walk labels omega^0 .. omega^(W-1), W = min((p-1)/2, _SEED_POWERS),
       a block of consecutive powers at a time (_walk).  These writes land
       at random positions, so W is kept small.
    2. Passes use class(m*a) = class(a) + class(m).  A pass with multiplier
       m labels every unset x whose x/m mod p is labelled, a chunk of x at a
       time: the chunk's image (_image) is relabelled by + class(m) mod d
       and OR-ed into the chunk.  Only the chunks of x = 1 .. (p-1)/2 are
       blended; each is then written, relabelled by + theta and reversed,
       over its mirror p - x (_fill_pass).  Which passes run is planned
       beforehand on the exponents mod p - 1 (fillplan.plan_passes), from
       ind(m) alone: the first is the mirror by -1, after which the
       labelled set is closed under x -> p - x, as the half blend needs;
       when W = (p-1)/2 the mirror labels every residue and is the only
       pass.
    3. The exponents the plan leaves unset, at most p >> _FEW_SHIFT of
       them unless the candidates run out first, are walked like the seed
       (_walk); the passes may have labelled some of them already, with
       the same labels.
    4. _check_classes relabels to classes and proves every one right.

    SanityFailure is raised before any of that unless omega has order
    p - 1 (omega^((p-1)/2) = -1 is the quick first test of it), and by the
    check.
    """
    half = (p - 1) // 2
    if pow(omega, half, p) != p - 1:
        raise SanityFailure(
            f"omega={omega} does not have order p-1 mod {p}: "
            f"omega^{half} is not -1"
        )
    _require_generator(p, omega)
    classes = _class_array(d, p)
    seed = min(half, _SEED_POWERS)
    _walk(classes, p, omega, d, [(0, seed)])
    passes, gap = fillplan.plan_passes(p, omega, seed, p >> _FEW_SHIFT)
    for m, ind in passes:
        _fill_pass(classes, p, m, ind % d, d)
    if gap:
        _walk(classes, p, omega, d, gap)
    _check_classes(classes, p, omega, d)
    return classes


def _require_generator(p: int, omega: int) -> None:
    """Raise SanityFailure unless omega has order p - 1 mod p."""
    if any(pow(omega, (p - 1) // q, p) == 1 for q in prime_factors(p - 1)):
        raise SanityFailure(f"omega={omega} does not have order p-1 mod {p}")


def _walk(
    classes: bytearray | array, p: int, omega: int, d: int,
    runs: list[tuple[int, int]],
) -> None:
    """Label omega^e with e mod d + 1 for every exponent e of each run [a, b).

    The powers of a run are made _WALK_BLOCK at a time, each block from
    its first power and the shared powers omega^0 .. omega^(size-1).
    """
    size = min(_WALK_BLOCK, max(b - a for a, b in runs))
    steps = [1] * size
    for j in range(1, size):
        steps[j] = steps[j - 1] * omega % p
    stride = steps[-1] * omega % p  # omega^size
    label = classes.__setitem__
    for a, b in runs:
        labels = chain(range(a % d + 1, d + 1), cycle(range(1, d + 1)))
        start = pow(omega, a, p)  # the power at the head of the current block
        for k in range(a, b, size):
            block = [start * r % p for r in steps[: b - k]]
            deque(map(label, block, labels), 0)
            start = start * stride % p


def _lane_bits(classes: bytearray | array) -> int:
    """Bits in one lane of the class array."""
    return 8 * memoryview(classes).itemsize


def _chunks(n: int, bits: int):
    """Residues 1 .. n-1 as (x0, x1, ones), a chunk [x0, x1) at a time.

    Chunks hold at most _FILL_CHUNK residues, and ones holds 1 in each of
    the chunk's bits-wide lanes.
    """
    lane = (1).to_bytes(bits // 8, sys.byteorder)
    ones = {}
    for x0 in range(1, n, _FILL_CHUNK):
        x1 = min(x0 + _FILL_CHUNK, n)
        if x1 - x0 not in ones:
            ones[x1 - x0] = _as_int(lane * (x1 - x0))
        yield x0, x1, ones[x1 - x0]


def _image(
    classes: bytearray | array, p: int, m: int, x0: int, x1: int
) -> bytes | bytearray:
    """The lanes classes[x / m mod p] for x = x0 .. x1-1, as bytes in memory order.

    m is -1 or a positive integer below p.  The x = m*a - j*p with x in
    [x0, x1) have the contiguous quotients a in [a0, a1) and step m, one
    such run for each j < m.  Lanes are copied as byte planes, since
    bytearray slices with a step are cheap and array ones are not; for
    m = -1 the image is one reversed slice.
    """
    if m == -1:
        return bytes(classes[p - x0 : p - x1 : -1])
    w = memoryview(classes).itemsize
    image = bytearray((x1 - x0) * w)
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


def _fill_pass(classes: bytearray | array, p: int, m: int, c: int, d: int) -> None:
    """Label each unset x whose x / m is labelled, blending only the lower half.

    m has class c, so x gets the label of x / m plus c mod d.  Unset lanes
    of the image stay 0, and OR keeps the labels the chunk already has.
    Only the chunks of x = 1 .. (p-1)/2 are blended, and each merged chunk
    [x0, x1) is written back in place.  It is then relabelled by + theta
    and written, lanes reversed, over its mirror [p - x1 + 1, p - x0 + 1),
    as class(p - x) = class(x) + theta; the mirror is neither read nor
    OR-ed.  No label is lost when m is -1, as the merged chunk holds its
    mirror's labels, or when the labelled set is closed under x -> p - x,
    as it is after the mirror pass.  Byte lanes are relabelled by one
    translate each, wider lanes by integer-lane steps (_lane_add).
    """
    bits = _lane_bits(classes)
    w = bits // 8
    theta = _theta(p, d)
    if bits == 8:
        by = {k: bytes([0, *range(k + 1, d + 1), *range(1, k + 1)]).ljust(256, b"\0")
              for k in (c, theta)}

        def relabel(lanes, ones):
            return _as_int(lanes.translate(by[c]))

        def mirrored(lanes, x, ones):
            return lanes.translate(by[theta])
    else:

        def add(x, ones, k):
            if not k:
                return x
            # labels above d - k wrap; unset lanes are below that and stay 0
            return _lane_add(x, _set_lanes(x, ones, bits), ones, bits, k, d, d - k + 1)

        def relabel(lanes, ones):
            return add(_as_int(lanes), ones, c)

        def mirrored(lanes, x, ones):
            x = add(x, ones, theta)
            return array(classes.typecode, x.to_bytes(len(lanes), sys.byteorder))

    view = memoryview(classes).cast("B")
    for x0, x1, ones in _chunks((p + 1) // 2, bits):
        lower = view[x0 * w : x1 * w]
        x = _as_int(lower) | relabel(_image(classes, p, m, x0, x1), ones)
        lanes = x.to_bytes(len(lower), sys.byteorder)
        lower[:] = lanes
        classes[p - x0 : p - x1 : -1] = mirrored(lanes, x, ones)


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
        view, w = memoryview(classes).cast("B"), bits // 8
        for x0, x1, ones in _chunks(p, bits):
            lanes = view[x0 * w : x1 * w]
            x = _as_int(lanes)
            lanes[:] = (x - _set_lanes(x, ones, bits)).to_bytes(len(lanes), sys.byteorder)

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
