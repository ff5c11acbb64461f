"""The benchmark's workloads and the outputs each must produce.

Each workload is one cyclomod CLI command.  Its expected records are
derived here without importing cyclomod: primitive roots by trial, the
per-class answers by breadth-first search over residues for small p, and
by two closed families for the large single-record inputs.  Running this
file rewrites ``reference.json`` from those derivations:

    python3 bench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import islice
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def primitive_root(p: int) -> int:
    """Smallest g in 2..p-1 of multiplicative order p - 1."""
    qs = prime_factors(p - 1)
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs)
    )


# The seed picks the prime of a single-record workload from a band of
# primes of nearly the same size, so every seed does nearly the same work.
# Seed 0 gives the first entry, whose outputs are also pinned in full.
# field_large: p = 1 mod 4, at most the default cap 2**22, largest first.
FIELD_LARGE_BAND = tuple(islice(filter(is_prime, range(4194301, 0, -4)), 16))
ORDER_HIGH_BAND = tuple(islice(filter(is_prime, range(3001, 4000, 2)), 8))

SWEEP_RANGES = {
    "sweep_fast": (3, 500, "fast"),
    # 3..70 keeps a call near 4 s on two cores; the series valuation is
    # still well over 90 % of it (see README.md).
    "verify_full": (3, 70, "full"),
}

WORKLOADS = {
    "field_large": "O(p) field and table work near the default size cap: "
                   "sd, d = 4, p near 4.19e6",
    "order_high": "one deep recurrence over a dense d x d table: "
                  "sd, d = p - 1, p near 3000",
    "sweep_fast": "799 small (p, d) records, recurrence and per-record "
                  "overhead: sweep 3..500 --verify fast",
    "verify_full": "full verification, dominated by the series valuation: "
                   "sweep 3..70 --verify full",
}


def argv_for(name: str, seed: int) -> list[str]:
    """The cyclomod command line a workload runs for a seed."""
    if name == "field_large":
        p = FIELD_LARGE_BAND[seed % len(FIELD_LARGE_BAND)]
        return ["sd", "-p", str(p), "-d", "4"]
    if name == "order_high":
        p = ORDER_HIGH_BAND[seed % len(ORDER_HIGH_BAND)]
        return ["sd", "-p", str(p), "-d", str(p - 1)]
    lo, hi, level = SWEEP_RANGES[name]
    return ["sweep", "--pmin", str(lo), "--pmax", str(hi),
            "--verify", level, "--jobs", "1"]


def record_key(record: dict) -> str:
    return f"{record['p']},{record['d']}"


def digest(record: dict) -> str:
    """Digest of a record's deterministic body (``elapsed`` stripped)."""
    body = {k: v for k, v in record.items() if k != "elapsed"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def per_class_by_search(p: int, d: int, omega: int) -> list[int]:
    """Least number of nonzero d-th powers summing to omega^alpha, per alpha.

    Breadth-first search from residue 0 with one step per added power:
    the distance of a is the least k with a in k * {x^d}.
    """
    powers = sorted({pow(x, d, p) for x in range(1, p)})
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for w in powers:
                b = (a + w) % p
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return [dist[pow(omega, alpha, p)] for alpha in range(d)]


def per_class(p: int, d: int, omega: int) -> list[int]:
    if d == p - 1:
        # 1 is the only nonzero (p-1)-th power, so a needs exactly a ones.
        return [pow(omega, alpha, p) for alpha in range(d)]
    r = (d - 1) * (d - 2)
    if p + 1 - r * (math.isqrt(p) + 1) - 3 * d > 0:
        # Weil's bound on the curve x^d + y^d = a leaves points with x, y
        # nonzero for every a != 0, so each non-power class needs 2.
        return [1] + [2] * (d - 1)
    return per_class_by_search(p, d, omega)


def expected_record(p: int, d: int, level: str | None = None) -> dict:
    """The record cyclomod prints for (p, d); level None is the sd form."""
    omega = primitive_root(p)
    s = per_class(p, d, omega)
    record = {
        "p": str(p), "d": str(d), "f": str((p - 1) // d),
        "theta": str(((p - 1) // 2) % d), "omega": str(omega),
        "per_class_s": [str(v) for v in s], "g": str(max(s)),
    }
    if level is not None:
        record["methods_agree"] = True
        if level == "full" and d in (3, 4):
            record["closed_form_match"] = True
    return record


def command_keys(argv: list[str]) -> list[tuple[int, int]]:
    """The (p, d) keys a workload command prints, in output order."""
    if argv[0] == "sd":
        return [(int(argv[2]), int(argv[4]))]
    lo, hi = int(argv[2]), int(argv[4])
    return [
        (p, d)
        for p in range(lo, hi + 1) if is_prime(p)
        for d in range(2, p) if (p - 1) % d == 0
    ]


def expected_records(argv: list[str]) -> list[dict]:
    level = None if argv[0] == "sd" else argv[6]
    return [expected_record(p, d, level) for p, d in command_keys(argv)]


def build_reference() -> dict:
    """Digests for every key any seed can produce, plus the full default sd."""
    out = {}
    for name in WORKLOADS:
        seeds = {
            "field_large": range(len(FIELD_LARGE_BAND)),
            "order_high": range(len(ORDER_HIGH_BAND)),
        }.get(name, [DEFAULT_SEED])
        digests, full = {}, None
        for seed in seeds:
            records = expected_records(argv_for(name, seed))
            digests.update((record_key(r), digest(r)) for r in records)
            if seed == DEFAULT_SEED and len(records) == 1:
                full = records[0]
        entry = {"default_argv": argv_for(name, DEFAULT_SEED), "digests": digests}
        if full is not None:
            entry["full"] = full
        out[name] = entry
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def expected_digests(name: str, argv: list[str], reference: dict) -> dict[str, str]:
    """Expected key -> digest for one command, from the pinned reference."""
    pinned = reference[name]["digests"]
    return {f"{p},{d}": pinned[f"{p},{d}"] for p, d in command_keys(argv)}


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build_reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
