"""Quasi-Hermitian quantum dynamics with time-dependent metrics.

Finite-dimensional engine for evolving states of a non-Hermitian Hamiltonian
H(t) that is Hermitian with respect to a moving metric Theta(t) = Omega'(t)
Omega(t): it assembles the dressing map from the biorthogonal eigensystem,
forms the corrected generator H_gen = H - i Omega^-1 dOmega/dt, integrates
the twin right/left Schrodinger equations, and verifies that the metric norm
of the evolving state stays constant even though H_gen differs from H.
"""

__version__ = "0.1.0"

from .dressing import DressingTrack, build_dressing_track
from .errors import (
    AmbiguousMatchError,
    ComplexSpectrumError,
    ConditioningError,
    ExceptionalPointError,
    IntegrationError,
    MetricPositivityError,
    NumericalDomainError,
    QhdynError,
    ScenarioError,
)
from .evolution import Trajectory, propagate_quasi, time_grid
from .model import HamiltonianModel, ObservableSpec
from .runner import RunReport, run, sweep, write_outputs
from .scenario import ScenarioConfig, apply_overrides, parse_scenario, scenario_from_dict
from .schedules import ScheduleSpec
from .verify import DEFAULT_THRESHOLDS, InvariantReport, run_standard_checks

# the Python API example of the README, the entry points of the command line,
# the result types and the errors; everything else lives in its submodule
__all__ = [
    "AmbiguousMatchError",
    "ComplexSpectrumError",
    "ConditioningError",
    "DEFAULT_THRESHOLDS",
    "DressingTrack",
    "ExceptionalPointError",
    "HamiltonianModel",
    "IntegrationError",
    "InvariantReport",
    "MetricPositivityError",
    "NumericalDomainError",
    "ObservableSpec",
    "QhdynError",
    "RunReport",
    "ScenarioConfig",
    "ScenarioError",
    "ScheduleSpec",
    "Trajectory",
    "apply_overrides",
    "build_dressing_track",
    "parse_scenario",
    "propagate_quasi",
    "run",
    "run_standard_checks",
    "scenario_from_dict",
    "sweep",
    "time_grid",
    "write_outputs",
]
