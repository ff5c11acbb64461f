"""Command-line surface.

One subcommand per module surface: gd, sd, cyclo, period, series, closed,
oracle, sweep, verify.  All structured output goes to stdout as JSON (or
CSV where a table is the natural shape); diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
Configuration precedence: flags, then CYCLOMOD_* environment variables,
then defaults.  The environment controls only scale guards (CYCLOMOD_MAX_P)
and worker count (CYCLOMOD_JOBS).  Both follow one policy: a malformed
value is refused as invalid input (exit 2) with the variable named, never
ignored.  A worker count below 1, from --jobs or CYCLOMOD_JOBS, is refused
the same way.

Importing this module loads only what sd, sweep and verify run, since
every call pays for its imports at start-up: period imports
cyclomod.periods and decimal when it runs, and sweep imports its process
pool only at --jobs > 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import closedform, cyclotomy, oracle, series, sweep, waring
from .ffield import _max_p_limit, is_prime, make_context
from .errors import CyclomodError, DegenerateOrder, InputError, NotPrime

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2


def _worker_count(args) -> int:
    """--jobs, else CYCLOMOD_JOBS, else 1; a count below 1 is refused."""
    if args.jobs is not None:
        jobs, source = args.jobs, f"--jobs {args.jobs}"
    else:
        raw = os.environ.get("CYCLOMOD_JOBS")
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise InputError(f"CYCLOMOD_JOBS={raw!r} is not an integer") from None
        source = f"CYCLOMOD_JOBS={raw!r}"
    if jobs < 1:
        raise InputError(f"{source}: need at least 1 worker")
    return jobs


def _prime_bounds(args) -> tuple[int, int]:
    """The sweep/verify range; a lone -p must itself be prime."""
    single = args.pmin is None and args.pmax is None and args.prime is not None
    if single and not is_prime(args.prime):
        raise NotPrime(args.prime)
    pmin = args.pmin if args.pmin is not None else args.prime
    pmax = args.pmax if args.pmax is not None else args.prime
    if pmin is None or pmax is None:
        raise ValueError(
            f"{args.command} needs --pmin/--pmax (or -p for a single prime)"
        )
    return pmin, pmax


def _print_json(payload) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _decimal(n: int) -> str:
    """n in decimal digits, however long.

    str(n) refuses past sys.get_int_max_str_digits() digits (4300 by
    default); Decimal converts an int exactly without that limit.
    """
    from decimal import Decimal

    return str(Decimal(n))


def _trivial_payload(exc: DegenerateOrder) -> dict:
    return {
        "p": str(exc.p),
        "d_requested": str(exc.d),
        "trivial": True,
        "g": str(exc.trivial_g),
        "note": "gcd(d, p-1) = 1: every unit is a d-th power",
    }


def cmd_gd(args) -> int:
    try:
        ctx = make_context(args.prime, args.order, max_p=args.max_p,
                           guard=cyclotomy.require_table_fits)
        solution = waring.solve(ctx)
    except DegenerateOrder as exc:
        print(exc.trivial_g)
        return EXIT_OK
    print(solution.g)
    return EXIT_OK


def cmd_sd(args) -> int:
    ctx = make_context(args.prime, args.order, max_p=args.max_p,
                       guard=cyclotomy.require_table_fits)
    solution = waring.solve(ctx)
    payload = {
        "p": str(ctx.p),
        "d": str(ctx.d),
        "f": str(ctx.f),
        "theta": str(ctx.theta),
        "omega": str(ctx.omega),
        "per_class_s": [str(s) for s in solution.per_class_s],
        "g": str(solution.g),
    }
    if args.element is not None:
        alpha = ctx.class_of(args.element)
        payload["a"] = str(args.element % ctx.p)
        payload["class"] = str(alpha)
        payload["s"] = str(solution.per_class_s[alpha])
    _print_json(payload)
    return EXIT_OK


def cmd_cyclo(args) -> int:
    ctx = make_context(
        args.prime, args.order, max_p=args.max_p,
        guard=cyclotomy.require_table_fits,
    )
    table = cyclotomy.compute_table(ctx)
    if args.format == "csv":
        for row in table.counts:
            print(",".join(str(c) for c in row))
    else:
        # entries are below p, so plain JSON integers stay exact
        _print_json(
            {
                "p": ctx.p,
                "d": ctx.d,
                "omega": ctx.omega,
                "counts": table.counts,
            }
        )
    return EXIT_OK


def cmd_period(args) -> int:
    from . import periods

    ctx = make_context(args.prime, args.order, max_p=args.max_p,
                       guard=periods.require_degree)
    table = cyclotomy.compute_table(ctx)
    seq = waring.NSequence(table, max(ctx.d - 1, 1))
    poly = periods.period_polynomial(seq)
    _print_json(
        {
            "p": str(ctx.p),
            "d": str(ctx.d),
            "coefficients": [_decimal(c) for c in poly.coeffs],
            "discriminant": _decimal(poly.discriminant),
        }
    )
    return EXIT_OK


def cmd_series(args) -> int:
    def guard(p, d):  # the order and the table, before the O(p) field
        series.require_order(d + 2 if args.series_order is None else args.series_order)
        cyclotomy.require_table_fits(p, d)

    ctx = make_context(args.prime, args.order, max_p=args.max_p, guard=guard)
    order = ctx.d + 2 if args.series_order is None else args.series_order
    table = cyclotomy.compute_table(ctx)
    seq = waring.NSequence(table)
    result = series.i_series(seq, args.class_index, order)
    _print_json(
        {
            "p": str(ctx.p),
            "d": str(ctx.d),
            "j": str(args.class_index % ctx.d),
            "order": str(order),
            "coefficients": [str(c) for c in result.coeffs],
        }
    )
    return EXIT_OK


def cmd_closed(args) -> int:
    p, d = args.prime, args.order
    # refuse p outside the order's class before make_context, which would
    # answer a degenerate order (gcd(d, p-1) = 1) with the trivial payload
    closedform.closed_g(p, d)
    table = cyclotomy.compute_table(make_context(p, d, max_p=args.max_p))
    cert = closedform.certify(table)
    names = ("L", "M") if d == 3 else ("x", "y")
    payload: dict[str, object] = {
        "p": str(p),
        "d": str(d),
        "g": str(cert.g),
        "representation": {
            "kind": cert.rep.kind,
            names[0]: str(cert.rep.first),
            names[1]: str(cert.rep.second),
        },
    }
    if d == 4:
        w = cert.witness
        payload["witness"] = None if w is None else {
            "parity": w.parity,
            "alphas": [str(a) for a in w.alphas],
            "worst_case_4": w.worst_case_4,
        }
    _print_json(payload)
    return EXIT_OK


def cmd_oracle(args) -> int:
    ctx = make_context(
        args.prime, args.order, max_p=args.max_p,
        guard=lambda p, d: oracle.require_counts_fit(p, args.k_max),
    )
    counts = oracle.dp_counts(ctx, args.k_max)
    print("k," + ",".join(str(a) for a in range(ctx.p)))
    for k in range(1, counts.k_max + 1):
        print(f"{k}," + ",".join(str(c) for c in counts.row(k)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.resume and not args.out:
        raise InputError("--resume skips the keys already in --out, so it needs --out")
    pmin, pmax = _prime_bounds(args)
    jobs = _worker_count(args)
    skip: set[tuple[int, int]] = set()
    out = sys.stdout
    opened = None
    write_header = args.format == "csv"
    if args.out:
        if args.resume:
            skip = sweep.scan_completed(args.out, args.format)
        has_body = (
            args.resume
            and os.path.exists(args.out)
            and os.path.getsize(args.out) > 0
        )
        opened = open(args.out, "a" if args.resume else "w", encoding="utf-8")
        out = opened
        write_header = args.format == "csv" and not has_body
    try:
        for _ in sweep.run_sweep(
            pmin,
            pmax,
            d_filter=args.order,
            verify_level=args.verify,
            out=out,
            fmt=args.format,
            skip=skip,
            strict=args.strict,
            jobs=jobs,
            write_header=write_header,
            max_p=args.max_p,
        ):
            pass
    finally:
        if opened is not None:
            opened.close()
    return EXIT_OK


def cmd_verify(args) -> int:
    """Print each check of every order; an order that raises is keyed on stderr.

    Each prime's orders get their contexts as in sweep (sweep.prime_results),
    and a failing order does not stop the run.  The exit code is 1 if a
    check failed or an order raised anything but an InputError, else 2 if
    an order was refused with an InputError, else 0.
    """
    pmin, pmax = _prime_bounds(args)
    # a malformed CYCLOMOD_MAX_P refuses the run instead of every order
    max_p = _max_p_limit(args.max_p)
    failed = total = 0
    refused = broken = False
    keys = sweep.record_keys(pmin, pmax, args.order)
    for p, orders in sweep.prime_orders(keys):
        for d, checks, _ in sweep.prime_results(
            p, orders, lambda d, context: sweep.full_checks(waring.solve(context())),
            max_p,
        ):
            if isinstance(checks, Exception):
                print(f"verify: (p={p}, d={d}) failed: "
                      f"{type(checks).__name__}: {checks}", file=sys.stderr)
                if isinstance(checks, InputError):
                    refused = True
                else:
                    broken = True
                continue
            for check in checks:
                total += 1
                mark = "PASS" if check.passed else "FAIL"
                line = f"{mark} (p={p}, d={d}) {check.name}"
                if check.detail and not check.passed:
                    line += f": {check.detail}"
                print(line)
                if not check.passed:
                    failed += 1
    print(f"{total - failed}/{total} checks passed")
    if failed or broken:
        return EXIT_VERIFICATION
    return EXIT_INVALID if refused else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclomod",
        description=(
            "Minimal numbers of d-th powers mod p, computed exactly from "
            "cyclotomic numbers, with independent cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, prime_required=True):
        sp.add_argument("-p", "--prime", type=int, required=prime_required,
                        help="odd prime modulus")
        sp.add_argument("--max-p", type=int,
                        help="override the size guard on p")

    sp = sub.add_parser("gd", help="print the worst-case summand count alone")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.set_defaults(func=cmd_gd)

    sp = sub.add_parser("sd", help="per-class summand counts as JSON")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.add_argument("-a", "--element", type=int,
                    help="also report the class and count for this residue")
    sp.set_defaults(func=cmd_sd)

    sp = sub.add_parser("cyclo", help="the d x d cyclotomic-number table")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_cyclo)

    sp = sub.add_parser("period", help="period polynomial and discriminant")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.set_defaults(func=cmd_period)

    sp = sub.add_parser("series", help="class series coefficients as fractions")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.add_argument("-j", "--class-index", type=int, required=True,
                    help="power class of -a")
    sp.add_argument("--series-order", type=int,
                    help="truncation order (default d+2, at most "
                         f"{series.MAX_SERIES_ORDER})")
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("closed", help="closed form, representation, witness")
    common(sp)
    sp.add_argument("-d", "--order", type=int, choices=(3, 4), required=True)
    sp.set_defaults(func=cmd_closed)

    sp = sub.add_parser("oracle", help="brute-force count table as CSV")
    common(sp)
    sp.add_argument("-d", "--order", type=int, required=True)
    sp.add_argument("-k", "--k-max", type=int, required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("sweep", help="solve a prime range, one record per (p, d)")
    common(sp, prime_required=False)
    sp.add_argument("--pmin", type=int)
    sp.add_argument("--pmax", type=int)
    sp.add_argument("-d", "--order", type=int,
                    help="restrict to one order (default: all divisors of p-1)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", help="append records to this file")
    sp.add_argument("--resume", action="store_true",
                    help="skip (p, d) keys already present in --out")
    sp.add_argument("--strict", action="store_true",
                    help="abort on the first failed record")
    sp.add_argument("--verify", choices=("fast", "full"), default="fast")
    sp.add_argument("--jobs", type=int,
                    help="worker processes, at least 1 (default 1); no more "
                         "than the primes or the CPUs are started")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the full check battery, print PASS/FAIL")
    common(sp, prime_required=False)
    sp.add_argument("--pmin", type=int)
    sp.add_argument("--pmax", type=int)
    sp.add_argument("-d", "--order", type=int)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DegenerateOrder as exc:
        _print_json(_trivial_payload(exc))
        return EXIT_OK
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CyclomodError as exc:
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
