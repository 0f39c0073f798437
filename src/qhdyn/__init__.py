"""Quasi-Hermitian quantum dynamics with time-dependent metrics.

Finite-dimensional engine for evolving states of a non-Hermitian Hamiltonian
H(t) that is Hermitian with respect to a moving metric Theta(t) = Omega'(t)
Omega(t): it assembles the dressing map from the biorthogonal eigensystem,
forms the corrected generator H_gen = H - i Omega^-1 dOmega/dt, integrates
the twin right/left Schrodinger equations, and verifies that the metric norm
of the evolving state stays constant even though H_gen differs from H.
"""

__version__ = "0.1.0"

from .dressing import (
    DressingTrack,
    build_dressing_track,
    build_generator,
    build_omega,
    build_theta,
    hermitize,
    omega_inverse,
    quasi_hermiticity_residual,
    theta_inner,
)
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
from .evolution import (
    EvolutionState,
    Trajectory,
    expectation,
    propagate_quasi,
    propagate_standard,
    step_generator,
    time_grid,
)
from .model import HamiltonianModel, ObservableSpec, build_hamiltonian, realize_observable
from .runner import RunReport, run, sweep, write_outputs
from .scenario import ScenarioConfig, apply_overrides, parse_scenario, scenario_from_dict
from .schedules import ScheduleSpec, eval_schedule, eval_schedule_derivative
from .spectral import BiorthogonalFrame, eig_biorthogonal, track_continuity
from .verify import DEFAULT_THRESHOLDS, InvariantReport, run_standard_checks

__all__ = [
    "__version__",
    "AmbiguousMatchError",
    "BiorthogonalFrame",
    "ComplexSpectrumError",
    "ConditioningError",
    "DEFAULT_THRESHOLDS",
    "DressingTrack",
    "EvolutionState",
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
    "build_generator",
    "build_hamiltonian",
    "build_omega",
    "build_theta",
    "eig_biorthogonal",
    "eval_schedule",
    "eval_schedule_derivative",
    "expectation",
    "hermitize",
    "omega_inverse",
    "parse_scenario",
    "propagate_quasi",
    "propagate_standard",
    "quasi_hermiticity_residual",
    "realize_observable",
    "run",
    "run_standard_checks",
    "scenario_from_dict",
    "step_generator",
    "sweep",
    "theta_inner",
    "time_grid",
    "track_continuity",
    "write_outputs",
]
