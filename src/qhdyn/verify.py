"""Named invariant checks with measured residuals.

Each check condenses one structural identity of the dressed dynamics into a
max-norm residual over the run and compares it against a threshold.  The
defaults target desk scale (N <= 8, dt = 1e-3, T <= 1) and every threshold
can be overridden per scenario.  Every check is one array expression over
the stacked track and trajectory, giving a residual per grid time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dressing import DressingTrack, dagger, hermitize, quasi_hermiticity_residual, theta_inner
from .errors import ScenarioError
from .evolution import Trajectory, expectation

DEFAULT_THRESHOLDS = {
    "theta-norm-conservation": 1e-8,
    "left-right-duality": 1e-8,
    "state-consistency": 1e-7,
    "equivalence": 1e-7,
    "standard-unitarity": 1e-10,
    "propagator-intertwining": 1e-7,
    "quasi-hermiticity": 1e-9,
    "isospectrality": 1e-9,
    "observable-reality": 1e-9,
}

CHECK_NAMES = tuple(DEFAULT_THRESHOLDS)


@dataclass(frozen=True)
class InvariantReport:
    name: str
    max_residual: float
    threshold: float
    passed: bool
    per_time_series: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def from_series(cls, name, times, residuals, threshold):
        residuals = np.asarray(residuals, dtype=float)
        worst = float(np.max(residuals)) if residuals.size else 0.0
        return cls(
            name=name,
            max_residual=worst,
            threshold=float(threshold),
            passed=worst < threshold,
            per_time_series=tuple(zip(np.asarray(times, dtype=float).tolist(), residuals.tolist())),
        )


def equivalence_residuals(trajectory: Trajectory, track: DressingTrack) -> np.ndarray:
    """(K,) relative distance of the integrated right ket from the oracle path
    Omega^-1(t) u(t) Omega(0) Phi(0)."""
    phi0 = trajectory.phi_right[0]
    seed = track.omega[0] @ phi0
    oracle = (track.omega_inv[::2] @ (trajectory.u_diagonals * seed)[..., None])[..., 0]
    return np.linalg.norm(trajectory.phi_right - oracle, axis=-1) / float(np.linalg.norm(phi0))


def check_norm_conservation(trajectory: Trajectory, track: DressingTrack, threshold=None) -> InvariantReport:
    """Drift of the metric norm <Phi(t)|Theta(t)|Phi(t)> along the run."""
    threshold = DEFAULT_THRESHOLDS["theta-norm-conservation"] if threshold is None else threshold
    phi = trajectory.phi_right
    norms = theta_inner(phi, phi, track.theta[::2]).real
    return InvariantReport.from_series(
        "theta-norm-conservation", trajectory.times, np.abs(norms - norms[0]), threshold
    )


def check_left_right_duality(trajectory: Trajectory, threshold=None) -> InvariantReport:
    """Drift of <<Phi(t)|Phi(t)> built from the independently integrated left ket."""
    threshold = DEFAULT_THRESHOLDS["left-right-duality"] if threshold is None else threshold
    _require_picture(trajectory, "left")
    vals = np.sum(np.conj(trajectory.phi_left) * trajectory.phi_right, axis=-1)
    return InvariantReport.from_series("left-right-duality", trajectory.times, np.abs(vals - vals[0]), threshold)


def check_state_consistency(trajectory: Trajectory, track: DressingTrack, threshold=None) -> InvariantReport:
    """||Phi(t)>> - Theta(t)|Phi(t)>|| -- the left ket is a check, not a construction."""
    threshold = DEFAULT_THRESHOLDS["state-consistency"] if threshold is None else threshold
    _require_picture(trajectory, "left")
    expected = (track.theta[::2] @ trajectory.phi_right[..., None])[..., 0]
    residuals = np.linalg.norm(trajectory.phi_left - expected, axis=-1)
    return InvariantReport.from_series("state-consistency", trajectory.times, residuals, threshold)


def check_equivalence(trajectory: Trajectory, track: DressingTrack, threshold=None) -> InvariantReport:
    """Relative distance of the integrated right ket from the oracle path
    Omega^-1(t) u(t) Omega(0) Phi(0)."""
    threshold = DEFAULT_THRESHOLDS["equivalence"] if threshold is None else threshold
    return InvariantReport.from_series(
        "equivalence", trajectory.times, equivalence_residuals(trajectory, track), threshold
    )


def check_standard_unitarity(trajectory: Trajectory, threshold=None) -> InvariantReport:
    """max ||u' u - I|| over the standard-space propagators (diagonal, so only
    the diagonal of u' u can differ from I)."""
    threshold = DEFAULT_THRESHOLDS["standard-unitarity"] if threshold is None else threshold
    u = trajectory.u_diagonals
    residuals = np.max(np.abs(np.conj(u) * u - 1.0), axis=-1)
    return InvariantReport.from_series("standard-unitarity", trajectory.times, residuals, threshold)


def check_propagator_intertwining(
    trajectory: Trajectory, track: DressingTrack, threshold=None
) -> InvariantReport:
    """U_L(t) U_R(t) = I -- the product whose collapse conserves the metric norm.

    U_R(t) = Omega^-1(t) u(t) Omega(0) moves right kets and
    U_L(t) = (Omega(t)' u(t) Omega^-1(0)')' = Omega^-1(0) u(t)' Omega(t)
    is the pulled-back left action.
    """
    threshold = DEFAULT_THRESHOLDS["propagator-intertwining"] if threshold is None else threshold
    u = trajectory.u_diagonals[:, None, :]
    u_right = (track.omega_inv[::2] * u) @ track.omega[0]
    u_left = dagger((dagger(track.omega[::2]) * u) @ dagger(track.omega_inv[0]))
    residuals = np.max(np.abs(u_left @ u_right - np.eye(track.dimension)), axis=(-2, -1))
    return InvariantReport.from_series("propagator-intertwining", trajectory.times, residuals, threshold)


def check_quasi_hermiticity(track: DressingTrack, threshold=None) -> InvariantReport:
    """||H' Theta - Theta H|| at every grid point of the track."""
    threshold = DEFAULT_THRESHOLDS["quasi-hermiticity"] if threshold is None else threshold
    residuals = quasi_hermiticity_residual(track.hamiltonians, track.theta)
    return InvariantReport.from_series("quasi-hermiticity", track.times, residuals, threshold)


def check_isospectrality(track: DressingTrack, threshold=None) -> InvariantReport:
    """Spectra of h = Omega H Omega^-1 (a fresh eigensolve) and H (the track's
    energies, validated against H by their eigen-residuals) agree."""
    threshold = DEFAULT_THRESHOLDS["isospectrality"] if threshold is None else threshold
    h = hermitize(track.omega, track.hamiltonians, track.omega_inv)
    spec_h = _lexsorted(np.linalg.eigvals(h))
    spec_big = _lexsorted(track.energies)
    residuals = np.max(np.abs(spec_h - spec_big), axis=-1)
    return InvariantReport.from_series("isospectrality", track.times, residuals, threshold)


def check_observable_reality(
    trajectory: Trajectory,
    observable_series: Mapping[str, np.ndarray],
    track: DressingTrack,
    threshold=None,
    residual_threshold=None,
) -> InvariantReport:
    """Imaginary part of every declared observable's mean value along the run.

    ``observable_series`` maps each name to its matrices on the reporting
    grid, (K, N, N) or one (N, N) matrix for all times.  Each observable must
    first pass the quasi-Hermiticity residual gate at every reporting point; a
    failed gate fails the check outright (the mean value of an illegitimate
    observable has no reality claim).
    """
    threshold = DEFAULT_THRESHOLDS["observable-reality"] if threshold is None else threshold
    residual_threshold = (
        DEFAULT_THRESHOLDS["quasi-hermiticity"] if residual_threshold is None else residual_threshold
    )
    theta = track.theta[::2]
    residuals = np.zeros(len(trajectory.times))
    for series in observable_series.values():
        a = np.asarray(series)
        gate = quasi_hermiticity_residual(a, theta)
        # not a Theta-observable where the gate fails; report the violation itself
        value = np.where(gate > residual_threshold, gate, np.abs(expectation(trajectory, a, theta).imag))
        residuals = np.maximum(residuals, value)
    return InvariantReport.from_series("observable-reality", trajectory.times, residuals, threshold)


def run_standard_checks(
    trajectory: Trajectory,
    track: DressingTrack,
    observable_series: Mapping[str, Sequence[np.ndarray]] | None = None,
    selection: Sequence[str] | None = None,
    overrides: Mapping[str, float] | None = None,
) -> list[InvariantReport]:
    """Run the named checks (all by default) with optional threshold overrides.

    Checks that need the left picture are skipped automatically when it was
    not integrated, unless explicitly selected.
    """
    overrides = dict(overrides or {})
    for name in overrides:
        if name not in DEFAULT_THRESHOLDS:
            raise ScenarioError(f"unknown check name {name!r}")
    explicit = selection is not None
    if selection is None:
        selection = list(CHECK_NAMES)
        if "left" not in trajectory.pictures:
            selection = [s for s in selection if s not in ("left-right-duality", "state-consistency")]
        if observable_series is None:
            selection = [s for s in selection if s != "observable-reality"]
    for name in selection:
        if name not in DEFAULT_THRESHOLDS:
            raise ScenarioError(f"unknown check name {name!r}")

    def thr(name):
        return overrides.get(name, DEFAULT_THRESHOLDS[name])

    reports = []
    for name in selection:
        if name == "theta-norm-conservation":
            reports.append(check_norm_conservation(trajectory, track, thr(name)))
        elif name == "left-right-duality":
            reports.append(check_left_right_duality(trajectory, thr(name)))
        elif name == "state-consistency":
            reports.append(check_state_consistency(trajectory, track, thr(name)))
        elif name == "equivalence":
            reports.append(check_equivalence(trajectory, track, threshold=thr(name)))
        elif name == "standard-unitarity":
            reports.append(check_standard_unitarity(trajectory, thr(name)))
        elif name == "propagator-intertwining":
            reports.append(check_propagator_intertwining(trajectory, track, thr(name)))
        elif name == "quasi-hermiticity":
            reports.append(check_quasi_hermiticity(track, thr(name)))
        elif name == "isospectrality":
            reports.append(check_isospectrality(track, thr(name)))
        elif name == "observable-reality":
            if observable_series is None:
                if explicit:
                    raise ScenarioError("observable-reality requested but no observables declared")
                continue
            reports.append(check_observable_reality(trajectory, observable_series, track, thr(name)))
    return reports


def _require_picture(trajectory: Trajectory, picture: str):
    if picture not in trajectory.pictures:
        raise ScenarioError(f"check needs the {picture!r} picture, which was not integrated")


def _lexsorted(values: np.ndarray) -> np.ndarray:
    return np.take_along_axis(values, np.lexsort((values.imag, values.real), axis=-1), axis=-1)
