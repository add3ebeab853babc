"""Exception types raised by the discrimination toolkit."""


class UsdError(Exception):
    """Base class for all toolkit errors."""


class DomainError(UsdError):
    """An input lies outside the mathematical domain of an operation."""


class NotPositiveSemidefinite(UsdError):
    """A matrix required to be PSD has an eigenvalue below tolerance.

    The offending eigenvalue is stored in ``min_eigenvalue``.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class EigenDecompositionError(UsdError):
    """The iterative eigensolver failed to converge."""


class OverlappingSupports(UsdError):
    """The two states' supports intersect, so error-free identification
    of at least one state is impossible."""


class DegenerateBound(UsdError):
    """A bound is undefined for this instance (division by a vanishing
    quantity)."""


class RankConditionsFail(UsdError):
    """The positivity conditions required by the general analytic branch
    do not hold for this instance."""


class PreconditionFail(UsdError):
    """A solver was called on an instance outside its stated scope.

    ``cause`` names the first violated precondition.
    """

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class SpectrumAnomaly(UsdError):
    """A kernel-restricted operator does not show the sign structure the
    analytic branch relies on."""


class CertificateRejected(UsdError):
    """An internally constructed solution failed its own validity or
    optimality checks; residuals are attached for diagnosis."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class BracketFail(UsdError):
    """A root bracket does not contain a sign change."""


class ProblemFormatError(UsdError):
    """A problem or report document is malformed."""
