"""Exception types shared across the package.

Two families matter to callers.  InputError and its subclasses (bad prime,
bad residue class, zero argument, size cap exceeded) mean the request was
invalid; the CLI maps them to exit code 2.  Every other CyclomodError except
DegenerateOrder signals an implementation bug rather than bad input; the
CLI maps those to exit code 1.
"""


class CyclomodError(Exception):
    """Base class for all package errors."""


class InputError(CyclomodError):
    """The request itself is invalid; base of the exit-code-2 family."""


class NotPrime(InputError):
    """The modulus is not an odd prime."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"{n} is not a supported prime modulus")


class DegenerateOrder(CyclomodError):
    """gcd(d, p-1) = 1: every unit is a d-th power, so every s equals 1.

    This is a well-defined but trivial problem instance.  The exception
    carries the answer so callers can report it instead of crashing.
    """

    def __init__(self, p, d):
        self.p = p
        self.d = d
        self.trivial_g = 1
        super().__init__(
            f"order {d} is degenerate for p={p}: gcd(d, p-1)=1, "
            "all units are d-th powers and g=1"
        )


class ScaleGuard(InputError):
    """Input exceeds a configured size cap."""


class ZeroArgument(InputError):
    """A nonzero residue was required."""

    def __init__(self, a):
        self.a = a
        super().__init__(f"residue {a} is 0 mod p; a nonzero residue is required")


class SanityFailure(CyclomodError):
    """A mathematical invariant failed; this signals a bug, not bad input."""


class InternalDisagreement(CyclomodError):
    """Two independent solvers did not give the same answer for a class.

    values maps each route to its answer; None marks a route that gave no
    answer, which raises this too, since an answer needs two that agree.
    """

    def __init__(self, alpha, values):
        self.alpha = alpha
        self.values = dict(values)
        super().__init__(
            f"solvers disagree for class {alpha}: "
            + ", ".join(f"{k}={v}" for k, v in self.values.items())
        )


class AllZeroToOrder(CyclomodError):
    """Every computed series coefficient vanished up to the retry cap."""


class NoRepresentation(CyclomodError):
    """The quadratic-form search found no (or no unique) representation."""


class FormulaMismatch(CyclomodError):
    """Neither sign choice reproduces the counted cyclotomic table."""


class WrongResidueClass(InputError):
    """The prime is not in the residue class the closed form requires."""
