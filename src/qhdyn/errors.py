"""Exception hierarchy and warning categories shared across the package.  The two error
families a run can end in carry the CLI's exit code and its stderr label (``label: message``)."""

from __future__ import annotations

import re

_LONG_RUN = re.compile(r"\S{161,}")  # a quoted name or a list printed whole


class QhdynError(Exception):
    """Base class for all package errors.  Its message is one line of at most 400 characters: CR and LF
    are escaped, a run of more than 160 non-space characters is cut to its first and last 70, and a
    message still too long to its first and last 195, around ``" ... "``."""

    def __init__(self, message: str):
        message = message.replace("\r", "\\r").replace("\n", "\\n")
        message = _LONG_RUN.sub(lambda run: f"{run[0][:70]}...{run[0][-70:]}", message)
        super().__init__(message if len(message) <= 400 else f"{message[:195]} ... {message[-195:]}")


class ScenarioError(QhdynError, ValueError):
    """Invalid scenario document, model description, or parameter domain."""

    exit_code = 2
    label = "configuration error"


class NumericalDomainError(QhdynError, RuntimeError):
    """Computation left its numerical domain of validity at grid time ``t``, when known."""

    exit_code = 3
    label = "numerical-domain error"

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
