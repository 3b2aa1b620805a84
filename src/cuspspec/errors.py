"""Typed errors shared across the package.

Numerical routines never return NaN for out-of-domain input; they raise one
of these instead.  The CLI maps the two families onto distinct exit codes
(precondition violations vs. numerical non-convergence).
"""


class CuspSpecError(Exception):
    """Base class for all package errors."""


class PreconditionError(CuspSpecError, ValueError):
    """An input violates a stated precondition."""


class DomainError(PreconditionError):
    """Argument outside the supported domain of an operation."""


class PoleError(PreconditionError):
    """Evaluation requested at (or too close to) a pole."""


class UnknownGroupError(PreconditionError):
    """Unrecognized built-in group name."""


class NumericsError(CuspSpecError):
    """Base class for numerical failures (non-convergence etc.)."""


class OverflowRangeError(NumericsError):
    """A scaled evaluation would exceed the representable range."""


class BudgetExceededError(NumericsError):
    """Enumeration outgrew its configured node budget."""


class QuadratureError(NumericsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ExpansionMismatchError(NumericsError):
    """Declared small-t expansion does not match the trace function."""


class TailFitError(NumericsError):
    """Large-t exponential tail fit failed or decayed too slowly."""

    def __init__(self, message, fitted_mu=None):
        super().__init__(message)
        self.fitted_mu = fitted_mu


class TruncationError(PreconditionError):
    """Spectrum cutoff too small for the requested Mellin window.

    ``required_cutoff`` is the smallest cutoff that would make the
    requested t_max admissible.
    """

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff
