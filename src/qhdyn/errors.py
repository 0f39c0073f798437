"""Exception hierarchy and warning categories shared across the package."""

from __future__ import annotations


class QhdynError(Exception):
    """Base class for all package errors."""


class ScenarioError(QhdynError, ValueError):
    """Invalid scenario document, model description, or parameter domain.

    Maps to CLI exit code 2.
    """


class NumericalDomainError(QhdynError, RuntimeError):
    """Computation left its numerical domain of validity.

    ``t`` is the grid time at which it did, when known.  Maps to CLI exit
    code 3.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class ExceptionalPointError(NumericalDomainError):
    """Eigensystem defective or nearly so; the biorthogonal frame breaks down."""


class ComplexSpectrumError(NumericalDomainError):
    """A spectrum required to be real came out complex."""


class ConditioningError(NumericalDomainError):
    """Metric condition number beyond the trustworthy range."""


class AmbiguousMatchError(NumericalDomainError):
    """Eigenpair continuity matching has no unique permutation."""


class MetricPositivityError(NumericalDomainError):
    """Metric lost positive definiteness (broken dressing map upstream)."""


class IntegrationError(NumericalDomainError):
    """Non-finite values produced during time stepping."""


class ConditioningWarning(UserWarning):
    """Metric condition number high enough that residual checks lose accuracy."""
