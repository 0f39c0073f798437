"""Named invariant checks with measured residuals.

Each check condenses one structural identity of the dressed dynamics into a
max-norm residual over the run and compares it against a threshold.  The
defaults target desk scale (N <= 8, dt = 1e-3, T <= 1) and every threshold
can be overridden per scenario.  Every check is one array expression over
the stacked track and trajectory, giving a residual per grid time, and one
row of the table `CHECKS`; the checks whose expressions form matrix
products run over `dressing.grid_blocks`, so no temporary spans the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dressing import (
    DressingTrack, dagger, grid_blocks, hermitize, quasi_hermiticity_residual, reporting_blocks, theta_inner
)
from .errors import ScenarioError
from .evolution import Trajectory, expectation


class Check(NamedTuple):
    """One row of `CHECKS`.

    residuals     (trajectory, track) -> (K,) residual per time
    threshold     default threshold; a residual at or above it fails the check
    on_fine_grid  True when the residuals sit on the track's fine grid, False
                  when they sit on the trajectory's reporting grid
    needs         'left' (the integrated left ket), 'observables' (declared
                  observables) or None; see `unmet_need`
    """

    residuals: Callable[[Trajectory, DressingTrack], np.ndarray]
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


def equivalence_residuals(trajectory: Trajectory, track: DressingTrack) -> np.ndarray:
    """(K,) relative distance of the integrated right ket from the oracle path
    Omega^-1(t) u(t) Omega(0) Phi(0)."""
    phi0 = trajectory.phi_right[0]
    seed, scale = track.omega(0) @ phi0, float(np.linalg.norm(phi0))
    residuals = np.empty(len(trajectory.times))
    for rows, points in reporting_blocks(track):
        oracle = (track.omega_inv(points) @ (trajectory.u_diagonals(rows) * seed)[..., None])[..., 0]
        residuals[rows] = np.linalg.norm(trajectory.phi_right[rows] - oracle, axis=-1) / scale
    return residuals


def _norm_drift(trajectory, track):
    """Drift of the metric norm <Phi(t)|Theta(t)|Phi(t)> along the run."""
    phi = trajectory.phi_right
    norms = np.empty(len(phi))
    for rows, points in reporting_blocks(track):
        norms[rows] = theta_inner(phi[rows], phi[rows], track.theta(points)).real
    return np.abs(norms - norms[0])


def _duality_drift(trajectory, track):
    """Drift of <<Phi(t)|Phi(t)> built from the independently integrated left ket."""
    left, right = trajectory.phi_left, trajectory.phi_right
    vals = [np.sum(np.conj(left[rows]) * right[rows], axis=-1) for rows, _ in reporting_blocks(track)]
    return np.abs(np.concatenate(vals) - vals[0][0])


def _state_consistency(trajectory, track):
    """||Phi(t)>> - Theta(t)|Phi(t)>|| -- the left ket is a check, not a construction."""
    residuals = np.empty(len(trajectory.times))
    for rows, points in reporting_blocks(track):
        expected = (track.theta(points) @ trajectory.phi_right[rows][..., None])[..., 0]
        residuals[rows] = np.linalg.norm(trajectory.phi_left[rows] - expected, axis=-1)
    return residuals


def _standard_unitarity(trajectory, track):
    """||u' u - I|| over the standard-space propagators (diagonal, so only
    the diagonal of u' u can differ from I)."""
    blocks = (trajectory.u_diagonals(rows) for rows, _ in reporting_blocks(track))
    return np.concatenate([np.max(np.abs(np.conj(u) * u - 1.0), axis=-1) for u in blocks])


def _intertwining(trajectory, track):
    """U_L(t) U_R(t) = I -- the product whose collapse conserves the metric norm.

    U_R(t) = Omega^-1(t) u(t) Omega(0) moves right kets and
    U_L(t) = (Omega(t)' u(t) Omega^-1(0)')' = Omega^-1(0) u(t)' Omega(t)
    is the pulled-back left action.
    """
    omega0, inv0 = track.omega(0), dagger(track.omega_inv(0))
    eye = np.eye(track.dimension)
    residuals = np.empty(len(trajectory.times))
    for rows, points in reporting_blocks(track):
        u = trajectory.u_diagonals(rows)[:, None, :]
        u_right = (track.omega_inv(points) * u) @ omega0
        u_left = dagger((dagger(track.omega(points)) * u) @ inv0)
        residuals[rows] = np.max(np.abs(u_left @ u_right - eye), axis=(-2, -1))
    return residuals


def _quasi_hermiticity(trajectory, track):
    """||H' Theta - Theta H|| at every grid point, with H and Theta formed per block."""
    residuals = np.empty(len(track.times))
    for block in grid_blocks(len(track.times), track.dimension):
        residuals[block] = quasi_hermiticity_residual(track.hamiltonian(block), track.theta(block))
    return residuals


def _isospectrality(trajectory, track):
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
    The certificate runs over grid blocks; the points whose discs overlap are
    eigensolved together afterwards.
    """
    levels = np.arange(track.dimension)
    residuals = np.empty(len(track.times))
    overlap = np.empty(len(track.times), dtype=bool)
    for block in grid_blocks(len(track.times), track.dimension):
        h = hermitize(track.omega(block), track.hamiltonian(block), track.omega_inv(block))
        energies = track.energies[block]
        h[:, levels, levels] -= energies
        residuals[block] = np.max(np.sum(np.abs(h), axis=-1), axis=-1)
        distances = np.abs(energies[:, :, None] - energies[:, None, :])
        distances[:, levels, levels] = np.inf
        overlap[block] = ~(residuals[block] < 0.5 * np.min(distances, axis=(-2, -1)))
    if overlap.any():
        h = hermitize(track.omega(overlap), track.hamiltonian(overlap), track.omega_inv(overlap))
        spec_h = _lexsorted(np.linalg.eigvals(h))
        residuals[overlap] = np.max(np.abs(spec_h - _lexsorted(track.energies[overlap])), axis=-1)
    return residuals


def _observable_reality(trajectory, track):
    """Imaginary part of every declared observable's mean value along the run.

    Each observable of ``track.model.a_observables`` is formed per block of
    reporting points and must first pass the quasi-Hermiticity residual gate,
    at the default `quasi-hermiticity` threshold, at every reporting point; a
    failed or non-finite gate fails the check outright (the mean value of an
    illegitimate observable has no reality claim).
    """
    gate_threshold = CHECKS["quasi-hermiticity"].threshold
    residuals = np.zeros(len(trajectory.times))
    for rows, points in reporting_blocks(track):
        theta, phi = track.theta(points), trajectory.phi_right[rows]
        for spec in track.model.a_observables:
            with np.errstate(over="ignore", invalid="ignore"):  # a NaN gate fails below, as NaN
                a = track.observable(spec, points)
                gate = quasi_hermiticity_residual(a, theta)
                mean = expectation(phi, a, theta, trajectory.times[rows])
            # not a Theta-observable where the gate fails; report the violation itself
            residuals[rows] = np.maximum(residuals[rows], np.where(gate <= gate_threshold, np.abs(mean.imag), gate))
    return residuals


# every named check, in reporting order
CHECKS = {
    "theta-norm-conservation": Check(_norm_drift, 1e-8, False),
    "left-right-duality": Check(_duality_drift, 1e-8, False, "left"),
    "state-consistency": Check(_state_consistency, 1e-7, False, "left"),
    "equivalence": Check(equivalence_residuals, 1e-7, False),
    "standard-unitarity": Check(_standard_unitarity, 1e-10, False),
    "propagator-intertwining": Check(_intertwining, 1e-7, False),
    "quasi-hermiticity": Check(_quasi_hermiticity, 1e-9, True),
    "isospectrality": Check(_isospectrality, 1e-9, True),
    "observable-reality": Check(_observable_reality, 1e-9, False, "observables"),
}

DEFAULT_THRESHOLDS = {name: check.threshold for name, check in CHECKS.items()}


def unmet_need(name: str, pictures: Sequence[str], observables) -> str | None:
    """Why check ``name`` cannot run with these pictures and observables (any
    collection, empty or None when none are declared), or None when it can."""
    needs = CHECKS[name].needs
    if needs == "left" and "left" not in pictures:
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
    """Run the named checks (all by default) with optional threshold overrides.

    A check whose `unmet_need` is not None is skipped when no selection is
    given, and raises `ScenarioError` when explicitly selected.
    """
    overrides = dict(overrides or {})
    for name in [*overrides, *(selection or ())]:
        if name not in CHECKS:
            raise ScenarioError(f"unknown check name {name!r}")
    reports = []
    for name in CHECKS if selection is None else selection:
        check = CHECKS[name]
        problem = check.needs and unmet_need(name, trajectory.pictures, track.model.a_observables)
        if problem and selection is None:
            continue
        if problem:
            raise ScenarioError(problem)
        times = track.times if check.on_fine_grid else trajectory.times
        residuals = check.residuals(trajectory, track)
        reports.append(InvariantReport.from_series(name, times, residuals, overrides.get(name, check.threshold)))
    return reports


def _lexsorted(values: np.ndarray) -> np.ndarray:
    return np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), axis=-1)
