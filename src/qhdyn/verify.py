"""Named invariant checks with measured residuals.

Each check condenses one structural identity of the dressed dynamics into a
max-norm residual over the run and compares it against a threshold.  The
defaults target desk scale (N <= 8, dt = 1e-3, T <= 1); `select_checks` picks the
checks of a scenario or an API call, and their thresholds.  Every check is one row of the table
`CHECKS`: an array expression over one `dressing.Block` and the trajectory rows
it covers, giving a residual per grid time of the block.  `run_standard_checks`
feeds each block of one pass over the track to every check, so no temporary
spans the grid and H, Theta, Omega, Omega^-1 and the `Block` quantities the checks share are
formed once per block; it fills the CSV's `Table` from the norms, residuals and means they read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dressing import Block, DressingTrack, dagger, hermitize
from .errors import ScenarioError
from .evolution import Trajectory
from .schedules import finite_number
from .spectral import matmul


class Check(NamedTuple):
    """One row of `CHECKS`.

    residuals     (trajectory, block) -> the residuals of one `dressing.Block`:
                  at its ``points`` on the fine grid, or at its reporting ``rows``
    threshold     default threshold; a residual at or above it fails the check
    on_fine_grid  True when the residuals sit on the track's fine grid, False
                  when they sit on the trajectory's reporting grid
    needs         'left' (the integrated left ket), 'observables' (declared
                  observables) or None; see `select_checks`
    """

    residuals: Callable[[Trajectory, Block], np.ndarray]
    threshold: float
    on_fine_grid: bool
    needs: str | None = None


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """One check's (K,) residuals at its K times and its threshold, from which its verdict is read:
    a residual at or above the threshold, or a NaN one, fails the check."""

    name: str
    times: np.ndarray
    residuals: np.ndarray
    threshold: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold

    @property
    def worst_t(self) -> float:
        """The time of the first non-finite residual, else of the largest."""
        return float(self.times[np.argmax(np.where(np.isfinite(self.residuals), self.residuals, np.inf))])


class Table(NamedTuple):
    """The (K,) CSV columns a check pass fills: Theta-norm, two residuals, each named observable's mean."""

    theta_norm: np.ndarray
    equivalence: np.ndarray
    quasi_hermiticity: np.ndarray
    means: dict[str, np.ndarray]


def _norm_drift(trajectory, block):
    """Drift of the metric norm <Phi(t)|Theta(t)|Phi(t)> from its value at t0."""
    return np.abs(block.norms - block.origin.norms)


def _duality_drift(trajectory, block):
    """Drift of <<Phi(t)|Phi(t)> built from the independently integrated left ket."""
    left, right = trajectory.phi_left, trajectory.phi_right
    pairing = np.sum(np.conj(left[block.rows]) * right[block.rows], axis=-1)
    return np.abs(pairing - np.sum(np.conj(left[:1]) * right[:1], axis=-1))


def _state_consistency(trajectory, block):
    """||Phi(t)>> - Theta(t)|Phi(t)>|| -- the left ket is a check, not a construction."""
    return np.linalg.norm(trajectory.phi_left[block.rows] - block.theta_phi, axis=-1)


def _equivalence(trajectory, block):
    """Relative distance of the integrated right ket from the oracle path
    Omega^-1(t) u(t) Omega(0) Phi(0)."""
    phi0 = trajectory.phi_right[0]
    seed = block.origin.omega[0] @ phi0
    oracle = matmul(block.omega_inv[block.coarse], (trajectory.u[block.rows] * seed)[..., None])[..., 0]
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
    u_right = matmul(block.omega_inv[block.coarse] * u, omega0)
    u_left = dagger(matmul(dagger(block.omega[block.coarse]) * u, inv0))
    return np.max(np.abs(matmul(u_left, u_right) - np.eye(len(omega0))), axis=(-2, -1))


def _quasi_hermiticity(trajectory, block):
    """||H' Theta - Theta H|| at every point of the block."""
    return block.h_residual


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
    residuals = np.zeros(len(block.phi))
    for gate, mean in block.observed.values():  # a NaN gate fails below, as NaN
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


def select_checks(selection: Sequence[str] | None, overrides: Mapping[str, float] | None, left: bool,
                  observables) -> dict[str, float]:
    """The threshold of each check to run, in order: every check in ``selection``, or when it is None every
    check whose input exists, the left ket (integrated when ``left``) and the declared ``observables``
    (any collection, empty or None when none are declared).  Raises `ScenarioError` for an empty selection,
    an unknown or repeated name, an override that is not a finite positive number, or a selected check
    whose input is missing; an override of a check outside the selection is checked, then ignored."""
    if selection is not None and len(selection) == 0:
        raise ScenarioError("checks names no check; omit the key or set it to null to run every applicable check")
    overrides = dict(overrides or {})
    for name in [*overrides, *(selection or ())]:
        if name not in CHECKS:
            raise ScenarioError(f"unknown check name {name!r}")
    for name, threshold in overrides.items():
        if not finite_number(threshold, real=True):
            raise ScenarioError(f"check {name!r}: threshold must be a finite real number, got {threshold!r}")
        if threshold <= 0:
            raise ScenarioError(f"check {name!r}: threshold must be a positive number")
    thresholds = {}
    for name in CHECKS if selection is None else selection:
        if name in thresholds:
            raise ScenarioError(f"checks lists {name!r} more than once")
        needs = CHECKS[name].needs
        if needs == "left" and not left or needs == "observables" and not observables:
            if selection is None:
                continue
            raise ScenarioError("check needs the 'left' picture, which was not integrated" if needs == "left"
                                else f"{name} requested but no observables declared")
        thresholds[name] = float(overrides.get(name, CHECKS[name].threshold))
    return thresholds


def run_standard_checks(
    trajectory: Trajectory,
    track: DressingTrack,
    selection: Sequence[str] | None = None,
    overrides: Mapping[str, float] | None = None,
    table: Table | None = None,
) -> list[InvariantReport]:
    """Run the named checks (all by default) with optional threshold overrides,
    in one pass over the track's blocks that feeds every check each block.

    `select_checks` decides which checks run, at what threshold, and raises `ScenarioError` for a
    bad setting.  The pass fills ``table`` too, from the blocks' `norms`, `observed` means and
    `h_residual`, and from `equivalence`'s residuals, which alone are formed for it when not selected.
    """
    left = getattr(trajectory, "phi_left", None) is not None  # isospectrality needs no trajectory
    thresholds = select_checks(selection, overrides, left, track.model.a_observables)
    checks = {name: CHECKS[name] for name in thresholds}
    if table is not None:  # its equivalence column is formed even where that check does not run
        checks |= {"equivalence": CHECKS["equivalence"]}
    times = {name: track.times if check.on_fine_grid else trajectory.times for name, check in checks.items()}
    residuals = {name: np.empty(len(grid)) for name, grid in times.items()}
    for block in track.blocks(getattr(trajectory, "phi_right", None)):
        for name, check in checks.items():
            residuals[name][block.points if check.on_fine_grid else block.rows] = check.residuals(trajectory, block)
        if table is not None:
            table.theta_norm[block.rows] = block.norms
            table.quasi_hermiticity[block.rows] = block.h_residual[block.coarse]
            table.equivalence[block.rows] = residuals["equivalence"][block.rows]
            for name, mean in table.means.items():
                mean[block.rows] = block.observed[name][1]
    return [InvariantReport(name, times[name], residuals[name], threshold) for name, threshold in thresholds.items()]


def _lexsorted(values: np.ndarray) -> np.ndarray:
    return np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), axis=-1)
