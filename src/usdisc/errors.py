"""Exception types raised by the discrimination toolkit.

The command line exits 1 on InvalidInput and 2 on any other error;
solvers.solve answers a BranchNotApplicable or NumericalFailure from an
analytic branch by falling back to the oracle.
"""


class UsdError(Exception):
    """Base class for all toolkit errors.

    ``cause`` names the condition that failed, where callers tell
    failures apart by it.
    """

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class InvalidInput(UsdError):
    """A problem, report or argument is malformed or lies outside the
    domain of the operation asked of it."""


class BranchNotApplicable(UsdError):
    """An analytic branch does not cover this instance, or its
    construction failed its own checks there.

    ``cause`` is one of "dimension", "priors", "involution_missing",
    "involution_invalid", "rank", "gu_involution", "rank_conditions",
    "spectrum" or "certificate".
    """


class NumericalFailure(UsdError):
    """A numerical step failed: a matrix required to be PSD is not, an
    eigensolver did not converge, or a root bracket holds no sign change."""
