"""Dressing maps, metrics, and the corrected evolution generator.

Given a biorthogonal frame of H(t) and nonzero coefficients mu_n(t), the
dressing map is assembled row-wise as Omega = sum_n e_n mu_n <<n| (the
reference basis |n> of the friendly space is fixed to the canonical basis, so
Omega H Omega^-1 is exactly diagonal).  The metric Theta = Omega' Omega turns
H into a Hermitian operator of the Theta-inner-product space, and the
operator that actually moves kets in time is

    H_gen(t) = H(t) - i Omega^-1(t) dOmega/dt.

Two routes produce dOmega/dt: exact differentiation of the mu schedules when
H is static (frames constant), or 4th-order finite differences applied to the
continuity-tracked Omega(t) samples when H itself moves.

The track is one set of stacked arrays over the time grid: every matrix
quantity is an (M, N, N) array and every per-level quantity an (M, N) array,
with the grid index first.  The functions below take a single (N, N) matrix
or such a stack alike.  The track is built with one batched eigensolve that
solves each distinct H along the grid once (a static H once in all), one
batched metric spectrum, and array expressions for everything else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditioningError, ConditioningWarning, MetricPositivityError, NumericalDomainError, ScenarioError
from .model import HamiltonianModel, build_hamiltonian, real_gauge
from .schedules import ScheduleSpec, eval_schedule, eval_schedule_derivative
from .spectral import BiorthogonalFrame, eig_biorthogonal, track_continuity

OMEGA_DOT_MODES = ("auto", "analytic-mu-only", "finite-difference")

# metric conditioning guard: warn above the first bound, abort above the second
THETA_COND_WARN = 1e8
THETA_COND_ABORT = 1e12


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def build_omega(frame: BiorthogonalFrame, mu: Sequence[complex]) -> np.ndarray:
    """Omega = sum_n e_n mu_n <<n|: row n is mu_n times the left bra."""
    mu = np.asarray(mu, dtype=complex)
    if mu.shape != frame.energies.shape:
        raise ScenarioError(f"need {frame.dimension} mu coefficients per point, got shape {mu.shape}")
    if np.any(mu == 0):
        raise ScenarioError("mu coefficients must be nonzero")
    return mu[..., :, None] * frame.left_bras


def omega_inverse(frame: BiorthogonalFrame, mu: Sequence[complex]) -> np.ndarray:
    """Frame-exact inverse: column n is |n> / mu_n (uses <<m|n> = delta_mn)."""
    mu = np.asarray(mu, dtype=complex)
    if np.any(mu == 0):
        raise ScenarioError("mu coefficients must be nonzero")
    return frame.right_kets / mu[..., None, :]


def build_theta(omega: np.ndarray) -> np.ndarray:
    """Metric Theta = Omega' Omega; Hermitian positive definite by construction."""
    # inf/nan from an overflowing Omega is reported by the track's metric guard
    with np.errstate(over="ignore", invalid="ignore"):
        theta = dagger(omega) @ omega
        return 0.5 * (theta + dagger(theta))


def hermitize(omega: np.ndarray, H: np.ndarray, omega_inv: np.ndarray | None = None) -> np.ndarray:
    """h = Omega H Omega^-1, the Hermitian partner acting in the friendly space."""
    if omega_inv is None:
        # solve X Omega = Omega H instead of forming the inverse
        return np.swapaxes(np.linalg.solve(np.swapaxes(omega, -1, -2), np.swapaxes(omega @ H, -1, -2)), -1, -2)
    return omega @ H @ omega_inv


def quasi_hermiticity_residual(A: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """max-norm of A' Theta - Theta A (one value per point of a stack); zero
    certifies A as a Theta-observable."""
    return np.max(np.abs(dagger(A) @ theta - theta @ A), axis=(-2, -1))


def build_generator(
    H: np.ndarray,
    omega: np.ndarray,
    omega_dot: np.ndarray,
    omega_inv: np.ndarray | None = None,
) -> np.ndarray:
    """H_gen = H - i Omega^-1 dOmega/dt."""
    if omega_inv is None:
        correction = np.linalg.solve(omega, omega_dot)
    else:
        correction = omega_inv @ omega_dot
    return H - 1j * correction


def theta_inner(a: np.ndarray, b: np.ndarray, theta: np.ndarray):
    """Metric inner product <a|Theta|b> (one value per point of a stack)."""
    return np.sum(np.conj(a) * (theta @ b[..., None])[..., 0], axis=-1)


def _guard_metric(theta_eigs: np.ndarray, times: np.ndarray):
    """Abort at the earliest point whose metric lost positivity or whose
    condition number passed the abort bound; warn once about the worst point
    inside the warning band."""
    smallest = theta_eigs[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smallest > 0.0, theta_eigs[:, -1] / smallest, np.inf)
    bad = np.flatnonzero((smallest <= 0.0) | (cond > THETA_COND_ABORT))
    if bad.size:
        k = int(bad[0])
        if smallest[k] <= 0.0:
            raise MetricPositivityError(
                f"metric lost positive definiteness at t={times[k]:g} (min eigenvalue "
                f"{smallest[k]:.3e}); the dressing map upstream is broken",
                t=float(times[k]),
            )
        raise ConditioningError(
            f"cond(Theta) = {cond[k]:.3e} > {THETA_COND_ABORT:.0e} at t={times[k]:g}; "
            "metric-norm checks are no longer meaningful",
            t=float(times[k]),
        )
    k = int(np.argmax(cond))
    if cond[k] > THETA_COND_WARN:
        warnings.warn(
            f"cond(Theta) = {cond[k]:.3e} at t={times[k]:g} exceeds {THETA_COND_WARN:.0e}; "
            "residual checks lose accuracy",
            ConditioningWarning,
            stacklevel=3,
        )


def mu_values(schedules: Sequence[ScheduleSpec], times: np.ndarray) -> np.ndarray:
    """(M, N) metric coefficients mu_n(t) on the grid."""
    return np.stack([np.broadcast_to(eval_schedule(s, times), times.shape) for s in schedules], axis=-1)


def mu_derivatives(schedules: Sequence[ScheduleSpec], times: np.ndarray) -> np.ndarray:
    """(M, N) exact time derivatives of the metric coefficients on the grid."""
    return np.stack(
        [np.broadcast_to(eval_schedule_derivative(s, times), times.shape) for s in schedules], axis=-1
    )


# 4th-order one-sided first-derivative stencils on a uniform grid, in units of
# 1/(12 h), for the first and second point (mirrored at the end); interior
# points use the centered (1, -8, 0, 8, -1).
_FORWARD_0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_FORWARD_1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])


def differentiate_samples(samples: np.ndarray, step: float) -> np.ndarray:
    """4th-order finite-difference time derivative of (M, ...) samples on a
    uniform grid; one-sided stencils at the two points nearest each
    boundary."""
    s = np.asarray(samples)
    m = len(s)
    if m < 5:
        raise ScenarioError(f"need at least 5 samples for 4th-order differences, got {m}")
    out = np.empty_like(s)
    out[2:-2] = s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]
    out[0] = np.tensordot(_FORWARD_0, s[:5], axes=1)
    out[1] = np.tensordot(_FORWARD_1, s[:5], axes=1)
    out[-2] = np.tensordot(-_FORWARD_1[::-1], s[-5:], axes=1)
    out[-1] = np.tensordot(-_FORWARD_0[::-1], s[-5:], axes=1)
    return out * (1.0 / (12.0 * step))


@dataclass(frozen=True)
class DressingTrack:
    """Frames and dressing maps sampled on a uniform grid, as stacked arrays.

    The grid is the integrator's fine grid (spacing = half the reporting
    step), so every Runge-Kutta substep time is a sample.  Coarse reporting
    points sit at the even indices.  With M grid points and dimension N:

    times                          (M,)
    hamiltonians                   (M, N, N)  H(t)
    right_kets, left_bras          (M, N, N)  continuity-tracked frames
                                              (columns |n>, rows <<n|)
    omega, omega_inv, omega_dot    (M, N, N)  Omega, Omega^-1, dOmega/dt
    theta                          (M, N, N)  metric Omega' Omega
    energies                       (M, N)     tracked E_n(t)
    raw_overlaps                   (M, N)     exceptional-point margins
    mu                             (M, N)     metric coefficients
    theta_eigs                     (M, N)     ascending eigenvalues of Theta
    omega_dot_source               'analytic' (exact mu differentiation,
                                   static frames) or 'finite-difference'
    """

    times: np.ndarray
    hamiltonians: np.ndarray
    right_kets: np.ndarray
    left_bras: np.ndarray
    omega: np.ndarray
    omega_inv: np.ndarray
    omega_dot: np.ndarray
    theta: np.ndarray
    energies: np.ndarray
    raw_overlaps: np.ndarray
    mu: np.ndarray
    theta_eigs: np.ndarray
    omega_dot_source: str

    @property
    def dimension(self) -> int:
        return self.energies.shape[1]

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def omega_dot_series(
    model: HamiltonianModel,
    frames: BiorthogonalFrame,
    mu_schedules: Sequence[ScheduleSpec],
    times: np.ndarray,
    mode: str,
) -> tuple[np.ndarray, str]:
    """(M, N, N) dOmega/dt on the grid of a frame stack, by the requested route.

    'analytic-mu-only' differentiates the mu schedules exactly and reuses the
    (necessarily constant) left bras; it is rejected when H carries a genuine
    time dependence.  'finite-difference' applies 4th-order stencils to the
    tracked Omega samples.  'auto' picks analytic when H is static.
    """
    if mode not in OMEGA_DOT_MODES:
        raise ScenarioError(f"unknown omega_dot mode {mode!r}; expected one of {OMEGA_DOT_MODES}")
    if mode == "auto":
        mode = "finite-difference" if model.is_time_dependent else "analytic-mu-only"
    if mode == "analytic-mu-only":
        if model.is_time_dependent:
            raise ScenarioError(
                "omega_dot mode 'analytic-mu-only' is inconsistent with a "
                "time-dependent Hamiltonian schedule"
            )
        return mu_derivatives(mu_schedules, times)[:, :, None] * frames.left_bras, "analytic"
    omega = build_omega(frames, mu_values(mu_schedules, times))
    return differentiate_samples(omega, float(times[1] - times[0])), "finite-difference"


def _tracked_frames(
    hams: np.ndarray, times: np.ndarray, reality_policy: str, gauge: np.ndarray | None = None
) -> BiorthogonalFrame:
    """Solve and continuity-track each distinct H once (a point whose H differs
    from its predecessor's), then gather the frames back onto the grid.
    ``gauge`` is the model's real gauge, passed on to `eig_biorthogonal`.

    A point-by-point sweep would match point j against j - 1 before solving
    point j + 1, so when the solve fails at point k, a continuity failure
    before k is the error to report.
    """
    distinct = np.concatenate(([True], np.any(hams[1:] != hams[:-1], axis=(-2, -1))))
    hams, solve_times = hams[distinct], times[distinct]
    try:
        frames = eig_biorthogonal(hams, reality_policy=reality_policy, t=solve_times, gauge=gauge)
    except NumericalDomainError as exc:
        k = int(np.searchsorted(solve_times, exc.t))
        if k > 1:
            prefix = eig_biorthogonal(hams[:k], reality_policy=reality_policy, t=solve_times[:k], gauge=gauge)
            track_continuity(prefix)
        raise
    frames = track_continuity(frames)
    at = np.cumsum(distinct) - 1
    return BiorthogonalFrame(
        times, frames.energies[at], frames.right_kets[at], frames.left_bras[at], frames.raw_overlaps[at]
    )


def build_dressing_track(
    model: HamiltonianModel,
    mu_schedules: Sequence[ScheduleSpec],
    times: np.ndarray,
    omega_dot_mode: str = "auto",
    reality_policy: str = "assert",
) -> DressingTrack:
    """Assemble frames and dressing maps along a uniform time grid.

    Frames are solved once per distinct H in one batch, continuity-tracked
    and gathered back onto the grid; the dressing then follows the tracked
    gauge, so the sampled Omega(t) lies on one smooth curve and finite
    differences of it are meaningful.  dOmega/dt comes from exact mu derivatives when H is
    static and from 4th-order stencils over the Omega samples otherwise
    (see `omega_dot_series`).
    """
    times = np.asarray(times, dtype=float)
    if len(mu_schedules) != model.dimension:
        raise ScenarioError(
            f"need {model.dimension} mu schedules, got {len(mu_schedules)}"
        )

    hams = build_hamiltonian(model, times)
    frames = _tracked_frames(hams, times, reality_policy, real_gauge(model))

    mu = mu_values(mu_schedules, times)
    omega_dot, source = omega_dot_series(model, frames, mu_schedules, times, omega_dot_mode)
    omega = build_omega(frames, mu)
    theta = build_theta(omega)
    theta_eigs = np.linalg.eigvalsh(theta)
    _guard_metric(theta_eigs, times)

    return DressingTrack(
        times=times,
        hamiltonians=hams,
        right_kets=frames.right_kets,
        left_bras=frames.left_bras,
        omega=omega,
        omega_inv=omega_inverse(frames, mu),
        omega_dot=omega_dot,
        theta=theta,
        energies=frames.energies,
        raw_overlaps=frames.raw_overlaps,
        mu=mu,
        theta_eigs=theta_eigs,
        omega_dot_source=source,
    )
