"""Exact solvers for Waring's problem in prime fields via cyclotomic numbers.

The package computes, for an odd prime p and an order d dividing p - 1, the
minimal number of nonzero d-th powers needed to represent each power class
mod p, and the maximum of those counts.  Three independent routes (an exact
integer recurrence, shortest walks on a small digraph, and a brute-force
oracle) must agree before an answer is reported.
"""

from .closedform import (
    DiophantineWitness,
    QuadFormRep,
    closed_g,
    diophantine_witness,
    represent,
    resolve_sign,
)
from .cyclotomy import CyclotomyTable, IdentityReport, compute_table, verify_identities
from .errors import CyclomodError
from .ffield import FieldContext, is_prime, make_context, primes_in_range
from .oracle import CountTable, brute_s, dp_counts, power_set
from .periods import (
    PeriodPolynomial,
    numeric_periods,
    period_polynomial,
    power_sums,
)
from .series import (
    RationalSeries,
    i_series,
    log_derivative_ord,
    reciprocal_check,
)
from .sweep import SweepRecord, admissible_orders, emit, run_sweep
from .waring import (
    NSequence,
    WaringSolution,
    count_representations,
    n_sequence,
    s_by_reachability,
    s_by_recurrence,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "CyclomodError",
    "CyclotomyTable",
    "DiophantineWitness",
    "FieldContext",
    "IdentityReport",
    "NSequence",
    "PeriodPolynomial",
    "QuadFormRep",
    "RationalSeries",
    "SweepRecord",
    "WaringSolution",
    "admissible_orders",
    "brute_s",
    "closed_g",
    "compute_table",
    "count_representations",
    "diophantine_witness",
    "dp_counts",
    "emit",
    "i_series",
    "is_prime",
    "log_derivative_ord",
    "make_context",
    "n_sequence",
    "numeric_periods",
    "period_polynomial",
    "power_set",
    "power_sums",
    "primes_in_range",
    "represent",
    "reciprocal_check",
    "resolve_sign",
    "run_sweep",
    "s_by_reachability",
    "s_by_recurrence",
    "solve",
    "verify_identities",
]
