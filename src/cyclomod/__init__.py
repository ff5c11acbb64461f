"""Exact solvers for Waring's problem in prime fields via cyclotomic numbers.

The package computes, for an odd prime p and an order d dividing p - 1, the
minimal number of nonzero d-th powers needed to represent each power class
mod p, and the maximum of those counts.  Three independent routes (an exact
integer recurrence, shortest walks on a small digraph, and a brute-force
oracle) must agree before an answer is reported.
"""

from .closedform import closed_g, diophantine_witness, represent, resolve_sign
from .cyclotomy import compute_table, verify_identities
from .ffield import make_context, primes_in_range
from .oracle import brute_s, dp_counts, power_set
from .periods import period_polynomial, power_sums
from .series import i_series, log_derivative_ord
from .waring import (
    count_representations,
    n_sequence,
    s_by_reachability,
    s_by_recurrence,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "brute_s",
    "closed_g",
    "compute_table",
    "count_representations",
    "diophantine_witness",
    "dp_counts",
    "i_series",
    "log_derivative_ord",
    "make_context",
    "n_sequence",
    "period_polynomial",
    "power_set",
    "power_sums",
    "primes_in_range",
    "represent",
    "resolve_sign",
    "s_by_reachability",
    "s_by_recurrence",
    "solve",
    "verify_identities",
]
