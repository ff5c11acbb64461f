"""Exact solvers for Waring's problem in prime fields via cyclotomic numbers.

The package computes, for an odd prime p and an order d dividing p - 1, the
minimal number of nonzero d-th powers needed to represent each power class
mod p, and the maximum of those counts.  solve() reports an answer only
when two independent exact routes agree on every class.  One is always the
shortest walks on the class digraph, read off the cyclotomic numbers.  At
f = (p-1)/d >= 3 the other is an integer recurrence over the same numbers;
at f <= 2 it is a closed form proved from the powers being +-1, which
reads neither the table nor the class array.  A class on which either
route is silent fails like a disagreement.  A brute-force oracle only
checks: the full checks compare it with every class, and it never
supplies an answer.

Importing the package loads none of its modules.  Each name of __all__
is resolved from its module on first use (PEP 562), so a command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_SOURCES = {
    "closed_g": "closedform",
    "compute_table": "cyclotomy",
    "diophantine_witness": "closedform",
    "dp_counts": "oracle",
    "i_series": "series",
    "log_derivative_ord": "series",
    "make_context": "ffield",
    "period_polynomial": "periods",
    "power_set": "oracle",
    "power_sums": "periods",
    "primes_in_range": "ffield",
    "represent": "closedform",
    "resolve_sign": "closedform",
    "solve": "waring",
    "verify_identities": "cyclotomy",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
