"""Dressing maps, metrics, and the corrected evolution generator.

Given a biorthogonal frame of H(t) and nonzero coefficients mu_n(t), the
dressing map is assembled row-wise as Omega = sum_n e_n mu_n <<n| (the
reference basis |n> of the friendly space is fixed to the canonical basis, so
Omega H Omega^-1 is exactly diagonal).  The metric Theta = Omega' Omega turns
H into a Hermitian operator of the Theta-inner-product space, and the
operator that actually moves kets in time is

    H_gen(t) = H(t) - i Omega^-1(t) dOmega/dt.

Whether H moves is the model's to say (`HamiltonianModel.is_time_dependent`).
A static H is solved once, and dOmega/dt is the exact mu derivative times
its constant left bras; a moving H is solved at every grid point, and
dOmega/dt is taken by 4th-order finite differences of the tracked Omega(t).

The track is one set of stacked arrays over the time grid: every matrix
quantity is an (M, N, N) array and every per-level quantity an (M, N) array,
with the grid index first.  The functions below take a single (N, N) matrix
or such a stack alike.  The track is built with one batched eigensolve, one
batched metric spectrum, and array expressions for everything else.

Each quantity is stored once: the track keeps the right kets (the eigenstate
preset reads them) but not the left bras, which live on only as the rows of
Omega.  Products over the grid (Theta, H_gen, the check residuals) are
formed over blocks of `_STEP_BLOCK` points, and the stencils accumulate in
place, so no temporary the size of the track outlives one expression.
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

# metric conditioning guard: warn above the first bound, abort above the second
THETA_COND_WARN = 1e8
THETA_COND_ABORT = 1e12

# grid points whose products are formed together (RK4 increments, Theta, the
# check residuals): enough to amortise the batched products, few enough that
# a block's temporaries stay small next to the track (forming a product over
# the whole grid at once raises the run's memory high-water mark)
_STEP_BLOCK = 64


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def build_omega(frame: BiorthogonalFrame, mu: Sequence[complex]) -> np.ndarray:
    """Omega = sum_n e_n mu_n <<n|: row n is mu_n times the left bra."""
    mu = np.asarray(mu, dtype=complex)
    if np.any(mu == 0):
        raise ScenarioError("mu coefficients must be nonzero")
    return mu[..., :, None] * frame.left_bras


def omega_inverse(frame: BiorthogonalFrame, mu: Sequence[complex]) -> np.ndarray:
    """Frame-exact inverse: column n is |n> / mu_n (uses <<m|n> = delta_mn);
    the nonzero ``mu`` that `build_omega` accepted."""
    return frame.right_kets / np.asarray(mu, dtype=complex)[..., None, :]


def grid_blocks(stack: np.ndarray) -> list:
    """Index expressions that cover an (M, ...) stack in blocks of at most
    `_STEP_BLOCK` grid points; a single (N, N) matrix is one block (``...``)."""
    if np.ndim(stack) == 2:
        return [...]
    return [slice(k, k + _STEP_BLOCK) for k in range(0, len(stack), _STEP_BLOCK)]


def blockwise(func, *stacks) -> np.ndarray:
    """The per-point values ``func`` gives for (M, ...) stacks, computed one
    grid block at a time so that func's temporaries never span the grid.
    All stacks share the leading axis of the first; a first argument that is
    a single (N, N) matrix gives one value."""
    out = np.empty(np.shape(stacks[0])[:-2])
    for block in grid_blocks(stacks[0]):
        out[block] = func(*(a[block] for a in stacks))
    return out[()]


def build_theta(omega: np.ndarray) -> np.ndarray:
    """Metric Theta = Omega' Omega; Hermitian positive definite by construction."""
    theta = np.empty_like(omega)
    # inf/nan from an overflowing Omega is reported by the track's metric guard
    with np.errstate(over="ignore", invalid="ignore"):
        for block in grid_blocks(omega):
            product = dagger(omega[block]) @ omega[block]
            theta[block] = 0.5 * (product + dagger(product))
    return theta


def hermitize(omega: np.ndarray, H: np.ndarray, omega_inv: np.ndarray) -> np.ndarray:
    """h = Omega H Omega^-1, the Hermitian partner acting in the friendly space."""
    return omega @ H @ omega_inv


def _quasi_hermiticity(A: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.max(np.abs(dagger(A) @ theta - theta @ A), axis=(-2, -1))


def quasi_hermiticity_residual(A: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """max-norm of A' Theta - Theta A (one value per point of a stack); zero
    certifies A as a Theta-observable."""
    return blockwise(_quasi_hermiticity, *np.broadcast_arrays(A, theta))


def build_generator(H: np.ndarray, omega_dot: np.ndarray, omega_inv: np.ndarray) -> np.ndarray:
    """H_gen = H - i Omega^-1 dOmega/dt."""
    return H - 1j * (omega_inv @ omega_dot)


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


def mu_series(schedules: Sequence[ScheduleSpec], times: np.ndarray, evaluate=eval_schedule) -> np.ndarray:
    """(M, N) metric coefficients mu_n(t) on the grid; with ``evaluate`` =
    `eval_schedule_derivative`, their exact time derivatives."""
    return np.stack([np.broadcast_to(evaluate(s, times), times.shape) for s in schedules], axis=-1)


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
    # s0 - 8 s1 + 8 s3 - s4, accumulated in place in that order: scaling by a
    # power of two is exact, so (t / 8 + s3) * 8 rounds as t + 8 s3 does
    interior = out[2:-2]
    np.multiply(s[1:-3], 8.0, out=interior)
    np.subtract(s[:-4], interior, out=interior)
    interior *= 0.125
    interior += s[3:-1]
    interior *= 8.0
    interior -= s[4:]
    out[0] = np.tensordot(_FORWARD_0, s[:5], axes=1)
    out[1] = np.tensordot(_FORWARD_1, s[:5], axes=1)
    out[-2] = np.tensordot(-_FORWARD_1[::-1], s[-5:], axes=1)
    out[-1] = np.tensordot(-_FORWARD_0[::-1], s[-5:], axes=1)
    out *= 1.0 / (12.0 * step)
    return out


@dataclass(frozen=True)
class DressingTrack:
    """Frames and dressing maps sampled on a uniform grid, as stacked arrays.

    The grid is the integrator's fine grid (spacing = half the reporting
    step), so every Runge-Kutta substep time is a sample.  Coarse reporting
    points sit at the even indices.  With M grid points and dimension N:

    times                          (M,)
    hamiltonians                   (M, N, N)  H(t)
    right_kets                     (M, N, N)  continuity-tracked kets |n>
                                              (columns)
    omega, omega_inv, omega_dot    (M, N, N)  Omega, Omega^-1, dOmega/dt
    theta                          (M, N, N)  metric Omega' Omega
    energies                       (M, N)     tracked E_n(t)
    theta_eigs                     (M, N)     ascending eigenvalues of Theta

    The tracked bras are not kept: row n of Omega is mu_n <<n|.  The
    hamiltonians, right kets and energies are read-only; for a static H they
    are one solve broadcast over the grid (stride 0 along the grid axis).
    """

    times: np.ndarray
    hamiltonians: np.ndarray
    right_kets: np.ndarray
    omega: np.ndarray
    omega_inv: np.ndarray
    omega_dot: np.ndarray
    theta: np.ndarray
    energies: np.ndarray
    theta_eigs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.energies.shape[1]

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def _tracked_frames(
    hams: np.ndarray, times: np.ndarray, reality_policy: str, gauge: np.ndarray | None = None
) -> BiorthogonalFrame:
    """Solve the (M, N, N) stack of H at ``times`` in one batch and
    continuity-track it.  ``gauge`` is the model's real gauge, passed on to
    `eig_biorthogonal`.

    A point-by-point sweep would match point j against j - 1 before solving
    point j + 1, so when the solve fails at point k, a continuity failure
    before k is the error to report.
    """
    try:
        frames = eig_biorthogonal(hams, reality_policy=reality_policy, t=times, gauge=gauge)
    except NumericalDomainError as exc:
        k = int(np.searchsorted(times, exc.t))
        if k > 1:
            prefix = eig_biorthogonal(hams[:k], reality_policy=reality_policy, t=times[:k], gauge=gauge)
            track_continuity(prefix)
        raise
    return track_continuity(frames)


def build_dressing_track(
    model: HamiltonianModel,
    mu_schedules: Sequence[ScheduleSpec],
    times: np.ndarray,
    reality_policy: str = "assert",
) -> DressingTrack:
    """Assemble frames and dressing maps along a uniform time grid.

    A static H (`HamiltonianModel.is_time_dependent` false) is built and
    solved at ``times[0]`` alone; dOmega/dt is then the exact mu derivatives
    times its constant left bras.  A moving H is solved at every point in
    one batch and continuity-tracked, so the sampled Omega(t) lies on one
    smooth curve, and dOmega/dt is taken by 4th-order stencils over it.
    """
    times = np.asarray(times, dtype=float)
    if len(mu_schedules) != model.dimension:
        raise ScenarioError(
            f"need {model.dimension} mu schedules, got {len(mu_schedules)}"
        )
    solved = times if model.is_time_dependent else times[:1]

    hams = build_hamiltonian(model, solved)
    frames = _tracked_frames(hams, solved, reality_policy, real_gauge(model))

    mu = mu_series(mu_schedules, times)
    omega = build_omega(frames, mu)
    omega_inv = omega_inverse(frames, mu)
    if model.is_time_dependent:
        omega_dot = differentiate_samples(omega, float(times[1] - times[0]))
    else:
        omega_dot = mu_series(mu_schedules, times, eval_schedule_derivative)[:, :, None] * frames.left_bras
    # read-only (M, ...) views: one solve of a static H stands for every point
    hams, right_kets, energies = (
        np.broadcast_to(a, times.shape + a.shape[1:]) for a in (hams, frames.right_kets, frames.energies)
    )
    del frames  # nothing below reads the bras: free them before Theta is built
    theta = build_theta(omega)
    theta_eigs = np.linalg.eigvalsh(theta)
    _guard_metric(theta_eigs, times)

    return DressingTrack(
        times=times,
        hamiltonians=hams,
        right_kets=right_kets,
        omega=omega,
        omega_inv=omega_inv,
        omega_dot=omega_dot,
        theta=theta,
        energies=energies,
        theta_eigs=theta_eigs,
    )
