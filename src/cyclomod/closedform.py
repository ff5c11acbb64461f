"""Closed forms: orders 3 and 4 via binary quadratic forms, and f <= 2.

For d = 3, write 4p = L^2 + 27 M^2 with L = 1 mod 3; for d = 4, write
p = x^2 + 4 y^2 with x = 1 mod 4.  Dickson's classical formulas give the
whole cyclotomic table of order 3 or 4 in terms of (L, M) or (x, y), up to
the sign of the second component, which depends on the choice of
generator.  formula_table builds it: four numbers A..D laid out as
[[A, B, C], [B, C, D], [C, D, B]] for order 3, five numbers A..E in one
of two layouts (f even or odd) for order 4.  resolve_sign pins the sign by
comparing the whole formula table with the counted one.

The closed-form answers themselves collapse to tiny case lists: order 3
needs 3 summands only at p = 7, order 4 needs 4 at p = 5 and 3 exactly at
p in {13, 17, 29}.  diophantine_witness reproduces the certificate behind
those lists: a handful of diophantine equations that the representation of
p satisfies precisely when some class needs more than two summands.
certify bundles the closed g, the sign-resolved representation and the
witness for one counted table.

At f = (p - 1)/d <= 2 the powers are +-1 and every class's answer has a
closed form of its own, small_f_lengths, which solve compares with the
coset walk over the power classes, so no table is counted there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .cyclotomy import CyclotomyTable, walks
from .errors import (
    FormulaMismatch,
    NoRepresentation,
    NotPrime,
    SanityFailure,
    WrongResidueClass,
)
from .ffield import is_prime

#: kind tags for the two supported quadratic forms
KIND_D3 = "d3"  # 4p = L^2 + 27 M^2, L = 1 mod 3
KIND_D4 = "d4"  # p = x^2 + 4 y^2,  x = 1 mod 4
KINDS = {3: KIND_D3, 4: KIND_D4}


@dataclass(frozen=True)
class QuadFormRep:
    """One representation of p by the quadratic form for its order.

    first is L (kind d3) or x (kind d4), sign-normalized by its congruence
    condition.  second is |M| or |y| until resolve_sign picks the sign that
    matches a counted table built from a concrete generator.
    """

    kind: str
    first: int
    second: int
    sign_resolved: bool = False


def _require_class(p: int, d: int) -> None:
    """Refuse p unless it is a prime with p = 1 mod d."""
    if not is_prime(p):
        raise NotPrime(p)
    if p % d != 1:
        raise WrongResidueClass(f"p={p} is not 1 mod {d}")


def represent(p: int, kind: str) -> QuadFormRep:
    """Exhaustive search for the (essentially unique) representation.

    The search doubles as a uniqueness check: finding zero or several
    solutions means the input was invalid or an assumption broke.
    """
    if kind == KIND_D3:
        modulus, target, scale = 3, 4 * p, 27
    elif kind == KIND_D4:
        modulus, target, scale = 4, p, 4
    else:
        raise ValueError(f"unknown kind {kind!r}")
    _require_class(p, modulus)

    found = []
    second = 1
    while scale * second * second < target:
        rest = target - scale * second * second
        root = math.isqrt(rest)
        if root * root == rest:
            for cand in (root, -root):
                if cand % modulus == 1:
                    found.append((cand, second))
                    break
        second += 1
    if not found:
        raise NoRepresentation(f"no representation of p={p} for kind {kind}")
    if len(found) > 1:
        raise SanityFailure(
            f"representation of p={p} (kind {kind}) is not unique: {found}"
        )
    first, second = found[0]
    return QuadFormRep(kind=kind, first=first, second=second)


def formula_table(
    p: int, kind: str, first: int, second: int
) -> list[list[int]] | None:
    """Dickson's full d x d cyclotomic table, or None if non-integral.

    scaled lists Dickson's numbers A, B, C, ... times a common scale, and
    layout places them.  Order 3 (f is always even): 9A = p - 8 + L,
    18B = 2p - 4 - L + 9M, 18C = 2p - 4 - L - 9M and 9D = p + 1 + L.
    Order 4 has an even-f and an odd-f variant (f is even exactly when
    p = 1 mod 8).
    """
    if kind == KIND_D3:
        big_l, m = first, second
        scale, layout = 18, ("ABC", "BCD", "CDB")
        scaled = (2 * (p - 8 + big_l), 2 * p - 4 - big_l + 9 * m,
                  2 * p - 4 - big_l - 9 * m, 2 * (p + 1 + big_l))
    elif kind == KIND_D4:
        x, y = first, second
        scale = 16
        if (p - 1) % 8 == 0:
            layout = ("ABCD", "BDEE", "CECE", "DEEB")
            scaled = (p - 11 - 6 * x, p - 3 + 2 * x + 8 * y, p - 3 + 2 * x,
                      p - 3 + 2 * x - 8 * y, p + 1 - 2 * x)
        else:
            layout = ("ABCD", "EEDB", "AEAE", "EDBE")
            scaled = (p - 7 + 2 * x, p + 1 + 2 * x - 8 * y, p + 1 - 6 * x,
                      p + 1 + 2 * x + 8 * y, p - 3 - 2 * x)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if any(value % scale or value < 0 for value in scaled):
        return None
    entries = {name: value // scale for name, value in zip("ABCDE", scaled)}
    return [[entries[name] for name in row] for row in layout]


def resolve_sign(rep: QuadFormRep, table: CyclotomyTable) -> QuadFormRep:
    """Pick the sign of the second component that reproduces the table.

    Exactly one sign can work (the two candidate tables differ whenever the
    second component is nonzero); FormulaMismatch means the formulas and
    the counted table disagree, i.e. a bug in one of the two modules.
    """
    ctx = table.ctx
    if KINDS.get(ctx.d) != rep.kind:
        raise ValueError(f"kind {rep.kind} representation against a d={ctx.d} table")
    counts = [list(row) for row in table.counts]
    for second in (rep.second, -rep.second):
        if formula_table(ctx.p, rep.kind, rep.first, second) == counts:
            return replace(rep, second=second, sign_resolved=True)
    raise FormulaMismatch(
        f"no sign of {rep.second} matches the counted table for p={ctx.p}, "
        f"kind {rep.kind}"
    )


def closed_g(p: int, d: int) -> int:
    """The closed form for order d; refuses p outside the order's class.

    Order 3 needs 3 summands at p = 7, else 2.  Order 4 needs 4 at p = 5,
    3 at p in {13, 17, 29}, else 2.
    """
    if d not in KINDS:
        raise ValueError(f"closed forms exist for d=3 and d=4 only, got {d}")
    _require_class(p, d)
    if d == 3:
        return 3 if p == 7 else 2
    return {5: 4, 13: 3, 17: 3, 29: 3}.get(p, 2)


def small_f_lengths(p: int, d: int, omega: int) -> tuple[int, ...]:
    """Every class's minimal number of d-th powers when f = (p-1)/d <= 2.

    The nonzero d-th powers are the f-th roots of unity: 1 alone at f = 1,
    and +-1 at f = 2.  A sum of k of them is an integer t with |t| <= k and
    t = k mod 2 (t = k at f = 1), and every such t occurs.  So class alpha,
    with representative r = omega^alpha mod p, needs exactly r powers at
    f = 1 (the least k = r mod p), and min(r, p - r) at f = 2 (the least
    |t| with t = r mod p; the class is {r, p - r}).  This is a proof from
    p and omega alone: it reads neither the class array nor the cyclotomic
    table, and costs d modular multiplications.
    """
    f, rem = divmod(p - 1, d)
    if rem or f > 2:
        raise ValueError(f"closed form needs d | p-1 with f <= 2, got p={p}, d={d}")
    lengths, r = [], 1
    for _ in range(d):
        lengths.append(r if f == 1 else min(r, p - r))
        r = r * omega % p
    return tuple(lengths)


#: the six certificate equations, keyed by (parity, class); each returns 0
#: at a representation (x, y) exactly when class alpha needs > 2 summands
_WITNESS_EQUATIONS = {
    ("even", 1): lambda x, y: x * x + 4 * y * y + 2 * x + 8 * y - 3,
    ("even", 2): lambda x, y: x * x + 4 * y * y + 2 * x - 3,
    ("even", 3): lambda x, y: x * x + 4 * y * y + 2 * x - 8 * y - 3,
    ("odd", 1): lambda x, y: x * x + 4 * y * y + 2 * x - 8 * y + 1,
    ("odd", 2): lambda x, y: x * x + 4 * y * y - 6 * x + 1,
    ("odd", 3): lambda x, y: x * x + 4 * y * y + 2 * x + 8 * y + 1,
}


@dataclass(frozen=True)
class DiophantineWitness:
    """Certificate that some order-4 class needs more than two summands.

    alphas lists the classes whose equation the normalized representation
    satisfies; worst_case_4 marks the stronger condition that some class
    needs four (true only at p = 5).
    """

    parity: str
    alphas: tuple[int, ...]
    worst_case_4: bool


def diophantine_witness(p: int) -> DiophantineWitness | None:
    """Which of the six certificate equations p's representation satisfies.

    Evaluated at the normalized representation (second component taken
    nonnegative); flipping the sign of y only swaps the alpha = 1 and
    alpha = 3 tags, so whether a witness exists is sign-independent.
    Returns None when no equation matches, which is the generic case and
    means every class is a sum of two fourth powers.
    """
    return _witness(p, represent(p, KIND_D4))


def _witness(p: int, rep: QuadFormRep) -> DiophantineWitness | None:
    parity = "even" if (p - 1) % 8 == 0 else "odd"
    x, y = rep.first, abs(rep.second)
    alphas = tuple(
        a for a in (1, 2, 3) if _WITNESS_EQUATIONS[(parity, a)](x, y) == 0
    )
    if not alphas:
        return None
    formula = formula_table(p, KIND_D4, x, y)
    if formula is None:
        raise SanityFailure(f"formula table not integral for p={p}")
    theta = 0 if parity == "even" else 2
    # each column's (i, count) pairs, as walks reads them
    columns = [[(i, formula[i][j]) for i in range(4) if formula[i][j]]
               for j in range(4)]
    dist = walks(columns, theta)
    # class alpha needs dist + 1 summands: four means no walk of length <= 2
    return DiophantineWitness(
        parity=parity,
        alphas=alphas,
        worst_case_4=any(dist[(a + theta) % 4] not in (1, 2) for a in (1, 2, 3)),
    )


@dataclass(frozen=True)
class Certificate:
    """Closed-form view of one order-3 or order-4 table.

    rep is sign-resolved against the table; witness is None for d = 3.
    """

    g: int
    rep: QuadFormRep
    witness: DiophantineWitness | None


def certify(table: CyclotomyTable) -> Certificate:
    """Closed g, sign-resolved representation and (d = 4) witness for a table.

    FormulaMismatch means no sign of the representation reproduces the
    counted table.
    """
    p, d = table.ctx.p, table.ctx.d
    g = closed_g(p, d)
    rep = resolve_sign(represent(p, KINDS[d]), table)
    return Certificate(g=g, rep=rep, witness=_witness(p, rep) if d == 4 else None)
