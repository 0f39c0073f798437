"""Named invariant checks with measured residuals.

Each check condenses one structural identity of the dressed dynamics into a
max-norm residual over the run and compares it against a threshold.  The
defaults target desk scale (N <= 8, dt = 1e-3, T <= 1) and every threshold
can be overridden per scenario.  Every check is one row of the table
`CHECKS`: an array expression over one `dressing.Block` and the trajectory rows
it covers, giving a residual per grid time of the block.  `run_standard_checks`
feeds each block of one pass over the track to every check, so no temporary
spans the grid and H, Theta, Omega and Omega^-1 are formed once per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dressing import Block, DressingTrack, dagger, hermitize, quasi_hermiticity_residual, theta_inner
from .errors import ScenarioError
from .evolution import Trajectory, expectation


class Check(NamedTuple):
    """One row of `CHECKS`.

    residuals     (trajectory, block) -> the residuals of one `dressing.Block`:
                  at its ``points`` on the fine grid, or at its reporting ``rows``
    threshold     default threshold; a residual at or above it fails the check
    on_fine_grid  True when the residuals sit on the track's fine grid, False
                  when they sit on the trajectory's reporting grid
    needs         'left' (the integrated left ket), 'observables' (declared
                  observables) or None; see `unmet_need`
    """

    residuals: Callable[[Trajectory, Block], np.ndarray]
    threshold: float
    on_fine_grid: bool
    needs: str | None = None


@dataclass(frozen=True)
class InvariantReport:
    """One check's verdict, with the (K,) residual at each of its K times."""

    name: str
    max_residual: float
    threshold: float
    passed: bool
    times: np.ndarray | None = field(default=None, compare=False, repr=False)
    residuals: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_series(cls, name, times, residuals, threshold):
        residuals = np.asarray(residuals, dtype=float)
        worst = float(np.max(residuals)) if residuals.size else 0.0
        return cls(
            name=name,
            max_residual=worst,
            threshold=float(threshold),
            passed=worst < threshold,
            times=np.asarray(times, dtype=float),
            residuals=residuals,
        )

    @property
    def worst_t(self) -> float:
        """The time of the first non-finite residual, else of the largest."""
        return float(self.times[np.argmax(np.where(np.isfinite(self.residuals), self.residuals, np.inf))])


def _norm_drift(trajectory, block):
    """Drift of the metric norm <Phi(t)|Theta(t)|Phi(t)> from its value at t0."""
    phi, rows = trajectory.phi_right, block.rows
    norms = theta_inner(phi[rows], phi[rows], block.theta[block.coarse]).real
    return np.abs(norms - theta_inner(phi[:1], phi[:1], block.origin.theta).real)


def _duality_drift(trajectory, block):
    """Drift of <<Phi(t)|Phi(t)> built from the independently integrated left ket."""
    left, right = trajectory.phi_left, trajectory.phi_right
    pairing = np.sum(np.conj(left[block.rows]) * right[block.rows], axis=-1)
    return np.abs(pairing - np.sum(np.conj(left[:1]) * right[:1], axis=-1))


def _state_consistency(trajectory, block):
    """||Phi(t)>> - Theta(t)|Phi(t)>|| -- the left ket is a check, not a construction."""
    expected = (block.theta[block.coarse] @ trajectory.phi_right[block.rows][..., None])[..., 0]
    return np.linalg.norm(trajectory.phi_left[block.rows] - expected, axis=-1)


def _equivalence(trajectory, block):
    """Relative distance of the integrated right ket from the oracle path
    Omega^-1(t) u(t) Omega(0) Phi(0)."""
    phi0 = trajectory.phi_right[0]
    seed = block.origin.omega[0] @ phi0
    oracle = (block.omega_inv[block.coarse] @ (trajectory.u[block.rows] * seed)[..., None])[..., 0]
    return np.linalg.norm(trajectory.phi_right[block.rows] - oracle, axis=-1) / float(np.linalg.norm(phi0))


def _standard_unitarity(trajectory, block):
    """||u' u - I|| over the standard-space propagators (diagonal, so only
    the diagonal of u' u can differ from I)."""
    u = trajectory.u[block.rows]
    return np.max(np.abs(np.conj(u) * u - 1.0), axis=-1)


def _intertwining(trajectory, block):
    """U_L(t) U_R(t) = I -- the product whose collapse conserves the metric norm.

    U_R(t) = Omega^-1(t) u(t) Omega(0) moves right kets and
    U_L(t) = (Omega(t)' u(t) Omega^-1(0)')' = Omega^-1(0) u(t)' Omega(t)
    is the pulled-back left action.
    """
    omega0, inv0 = block.origin.omega[0], dagger(block.origin.omega_inv[0])
    u = trajectory.u[block.rows, None, :]
    u_right = (block.omega_inv[block.coarse] * u) @ omega0
    u_left = dagger((dagger(block.omega[block.coarse]) * u) @ inv0)
    return np.max(np.abs(u_left @ u_right - np.eye(len(omega0))), axis=(-2, -1))


def _quasi_hermiticity(trajectory, block):
    """||H' Theta - Theta H|| at every point of the block."""
    return quasi_hermiticity_residual(block.hamiltonian, block.theta)


def _isospectrality(trajectory, block):
    """Spectra of h = Omega H Omega^-1 and H agree, certified by Gershgorin discs.

    The spectrum of H is the track's energies E, validated against H by their
    eigen-residuals.  In the canonical reference basis h must equal diag(E),
    and the residual per point is r = max_i (|h_ii - E_i| + sum_{j!=i} |h_ij|).
    Every eigenvalue of h lies in a Gershgorin disc about some h_ii, and that
    disc lies inside the disc of radius r about E_i.  Where r is below half
    the smallest distance between two E_i, these discs are disjoint and each
    holds exactly one eigenvalue of h, so r bounds how far each eigenvalue of
    h lies from its own E_i; no eigensolve is needed.  Only where the discs
    overlap (levels closer than 2r) is h eigensolved, and the residual there
    is the largest distance between the (Re, Im)-sorted spectra of h and E.
    """
    levels = np.arange(block.track.dimension)
    energies = block.track.energies[block.points]
    distances = np.abs(energies[:, :, None] - energies[:, None, :])
    distances[:, levels, levels] = np.inf
    gaps = np.min(distances, axis=(-2, -1))
    h = hermitize(block.omega, block.hamiltonian, block.omega_inv)
    deviation = np.abs(h)
    deviation[:, levels, levels] = np.abs(h[:, levels, levels] - energies)
    residuals = np.max(np.sum(deviation, axis=-1), axis=-1)
    overlap = ~(residuals < 0.5 * gaps)
    if overlap.any():
        spec_h = _lexsorted(np.linalg.eigvals(h[overlap]))
        residuals[overlap] = np.max(np.abs(spec_h - _lexsorted(energies[overlap])), axis=-1)
    return residuals


def _observable_reality(trajectory, block):
    """Imaginary part of every declared observable's mean value along the run.

    Each observable of the model's ``a_observables`` is formed at the block's
    reporting points and must first pass the quasi-Hermiticity residual gate,
    at the default `quasi-hermiticity` threshold, at every reporting point; a
    failed or non-finite gate fails the check outright (the mean value of an
    illegitimate observable has no reality claim).
    """
    gate_threshold = CHECKS["quasi-hermiticity"].threshold
    theta, phi = block.theta[block.coarse], trajectory.phi_right[block.rows]
    residuals = np.zeros(len(phi))
    for spec in block.track.model.a_observables:
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN gate fails below, as NaN
            a = block.observable(spec)
            gate = quasi_hermiticity_residual(a, theta)
            mean = expectation(phi, a, theta, trajectory.times[block.rows])
        # not a Theta-observable where the gate fails; report the violation itself
        residuals = np.maximum(residuals, np.where(gate <= gate_threshold, np.abs(mean.imag), gate))
    return residuals


# every named check, in reporting order
CHECKS = {
    "theta-norm-conservation": Check(_norm_drift, 1e-8, False),
    "left-right-duality": Check(_duality_drift, 1e-8, False, "left"),
    "state-consistency": Check(_state_consistency, 1e-7, False, "left"),
    "equivalence": Check(_equivalence, 1e-7, False),
    "standard-unitarity": Check(_standard_unitarity, 1e-10, False),
    "propagator-intertwining": Check(_intertwining, 1e-7, False),
    "quasi-hermiticity": Check(_quasi_hermiticity, 1e-9, True),
    "isospectrality": Check(_isospectrality, 1e-9, True),
    "observable-reality": Check(_observable_reality, 1e-9, False, "observables"),
}

DEFAULT_THRESHOLDS = {name: check.threshold for name, check in CHECKS.items()}


def unmet_need(name: str, left: bool, observables) -> str | None:
    """Why check ``name`` cannot run with (``left``) or without the left ket and with these
    observables (any collection, empty or None when none are declared), or None when it can."""
    needs = CHECKS[name].needs
    if needs == "left" and not left:
        return "check needs the 'left' picture, which was not integrated"
    if needs == "observables" and not observables:
        return f"{name} requested but no observables declared"
    return None


def run_standard_checks(
    trajectory: Trajectory,
    track: DressingTrack,
    selection: Sequence[str] | None = None,
    overrides: Mapping[str, float] | None = None,
) -> list[InvariantReport]:
    """Run the named checks (all by default) with optional threshold overrides,
    in one pass over the track's blocks that feeds every check each block.

    A check whose `unmet_need` is not None is skipped when no selection is
    given, and raises `ScenarioError` when explicitly selected.
    """
    overrides = dict(overrides or {})
    for name in [*overrides, *(selection or ())]:
        if name not in CHECKS:
            raise ScenarioError(f"unknown check name {name!r}")
    series = []  # (name, check, times, residuals) per check to run
    for name in CHECKS if selection is None else selection:
        check = CHECKS[name]
        problem = check.needs and unmet_need(name, trajectory.phi_left is not None, track.model.a_observables)
        if problem and selection is not None:
            raise ScenarioError(problem)
        if not problem:
            times = track.times if check.on_fine_grid else trajectory.times
            series.append((name, check, times, np.empty(len(times))))
    for block in track.blocks():
        for _, check, _, residuals in series:
            residuals[block.points if check.on_fine_grid else block.rows] = check.residuals(trajectory, block)
    return [
        InvariantReport.from_series(name, times, residuals, overrides.get(name, check.threshold))
        for name, check, times, residuals in series
    ]


def _lexsorted(values: np.ndarray) -> np.ndarray:
    return np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), axis=-1)
