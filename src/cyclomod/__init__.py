"""Exact solvers for Waring's problem in prime fields via cyclotomic numbers.

The package computes, for an odd prime p and an order d dividing p - 1, the
minimal number of nonzero d-th powers needed to represent each power class
mod p, and the maximum of those counts.  solve() reports an answer only
when two independent exact routes agree on every class.  One is always the
shortest walks on the class digraph, read off the cyclotomic numbers.  At
f = (p-1)/d >= 3 the other is an integer recurrence over the same numbers;
at f <= 2 it is a closed form proved from the powers being +-1, which
reads neither the table nor the class array.  A brute-force oracle
arbitrates a class either route leaves unanswered, and the full checks
compare it with every class.
"""

from .closedform import closed_g, diophantine_witness, represent, resolve_sign
from .cyclotomy import compute_table, verify_identities
from .ffield import make_context, primes_in_range
from .oracle import brute_s, dp_counts, power_set
from .periods import period_polynomial, power_sums
from .series import i_series, log_derivative_ord
from .waring import solve

__version__ = "0.1.0"

__all__ = [
    "brute_s",
    "closed_g",
    "compute_table",
    "diophantine_witness",
    "dp_counts",
    "i_series",
    "log_derivative_ord",
    "make_context",
    "period_polynomial",
    "power_set",
    "power_sums",
    "primes_in_range",
    "represent",
    "resolve_sign",
    "solve",
    "verify_identities",
]
