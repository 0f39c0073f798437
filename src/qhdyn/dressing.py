"""Dressing maps, metrics, and the corrected evolution generator.

Given a biorthogonal frame of H(t) and nonzero coefficients mu_n(t), the
dressing map is assembled row-wise as Omega = sum_n e_n mu_n <<n| (the
reference basis |n> of the friendly space is fixed to the canonical basis, so
Omega H Omega^-1 is exactly diagonal).  The metric Theta = Omega' Omega turns
H into a Hermitian operator of the Theta-inner-product space, and the
operator that actually moves kets in time is

    H_gen(t) = H(t) - i Omega^-1(t) dOmega/dt.

Whether H moves is the model's to say (`HamiltonianModel.is_time_dependent`).
A static H is solved once, and dOmega/dt is `build_omega` of its constant left
bras and the exact mu derivatives; a moving H is solved at every grid point, and
dOmega/dt is taken by 4th-order finite differences of the tracked Omega(t).
Every solved point must have a real spectrum (`spectral.eig_biorthogonal`
aborts at the first that has not), so the frame of a real gauge stays real.

The track is one set of stacked arrays over the time grid: every matrix
quantity is an (M, N, N) array and every per-level quantity an (M, N) array,
with the grid index first.  The functions below take a single (N, N) matrix
or such a stack alike.  The track holds the frame, not the dressing map:
the tracked kets and bras of D* H D in the model's real gauge D (real for
cubic-trunc), mu(t), the energies and Theta's eigenvalues; the frame at t0 is
its row 0, with no copy of its own.  Omega, Omega^-1, H, Theta, dOmega/dt, the
observables and every other product over the grid (a moving H's frames, H_gen,
the check residuals) are formed over the blocks of `grid_blocks`, of at most
`_FRAME_ENTRIES` entries: no temporary the size of the track outlives one
expression.  The checks and the CSV each make one pass of
`DressingTrack.blocks`, on those blocks, sharing each block's matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import model as _models
from .errors import ConditioningError, ConditioningWarning, MetricPositivityError, NumericalDomainError, ScenarioError
from .model import HamiltonianModel, ObservableSpec, build_hamiltonian, real_gauge
from .schedules import ScheduleSpec, eval_schedule, eval_schedule_derivative
from .spectral import eig_biorthogonal, track_continuity

# metric conditioning guard: warn above the first bound, abort above the second
THETA_COND_WARN = 1e8
THETA_COND_ABORT = 1e12

# matrix entries per block of grid points whose products are formed together
# (a moving H's frames, Theta, the check residuals): 64 points at N = 8, 1024
# at N = 2; enough to amortise the batched products, few enough that a
# block's temporaries stay small next to the track (forming a product over
# the whole grid at once raises the run's memory high-water mark)
_FRAME_ENTRIES = 64 * 8 * 8


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def build_omega(bras: np.ndarray, mu: Sequence[complex], gauge: np.ndarray | None = None) -> np.ndarray:
    """Omega = diag(mu) L D*: row n is mu_n times the left bra <<n| of L, the
    bras of D* H D for the phases ``gauge`` = diag(D) (of H without them).
    With dmu/dt in place of mu, a static H's dOmega/dt."""
    omega = np.multiply(np.asarray(mu)[..., :, None], bras, dtype=None if gauge is None else complex)
    return omega if gauge is None else np.multiply(omega, np.conj(gauge), out=omega)


def omega_inverse(kets: np.ndarray, mu: Sequence[complex], gauge: np.ndarray | None = None) -> np.ndarray:
    """Frame-exact inverse D R diag(1/mu) (uses <<m|n> = delta_mn), for the ``gauge`` of `build_omega`."""
    inverse = np.divide(kets, np.asarray(mu)[..., None, :], dtype=None if gauge is None else complex)
    return inverse if gauge is None else np.multiply(inverse, gauge[:, None], out=inverse)


def grid_blocks(count: int, n: int, most: float = 256) -> list[slice]:
    """Slices covering ``count`` grid points of N x N matrices in blocks of an even number of
    points, at most `_FRAME_ENTRIES` entries and ``most`` points (more only raises the memory
    peak at N = 2)."""
    size = max(2, min(most, _FRAME_ENTRIES // n**2) // 2 * 2)
    return [slice(k, k + size) for k in range(0, count, size)]


def build_theta(omega: np.ndarray) -> np.ndarray:
    """Metric Theta = Omega' Omega; Hermitian positive definite by construction.
    A stack's temporaries span it: pass one block of points at a time."""
    product = dagger(omega) @ omega
    return 0.5 * (product + dagger(product))


def hermitize(omega: np.ndarray, H: np.ndarray, omega_inv: np.ndarray) -> np.ndarray:
    """h = Omega H Omega^-1, the Hermitian partner acting in the friendly space."""
    return omega @ H @ omega_inv


def quasi_hermiticity_residual(A: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """max-norm of A' Theta - Theta A (one value per point of a stack, for
    one block of points at a time); zero certifies A as a Theta-observable."""
    return np.max(np.abs(dagger(A) @ theta - theta @ A), axis=(-2, -1))


def build_generator(H: np.ndarray, omega_dot: np.ndarray, omega_inv: np.ndarray, out=None) -> np.ndarray:
    """H_gen = H - i Omega^-1 dOmega/dt, formed in ``out`` when given."""
    out = np.matmul(omega_inv, omega_dot, out=out)
    np.multiply(1j, out, out=out)
    return np.subtract(H, out, out=out)


def theta_inner(a: np.ndarray, b: np.ndarray, theta: np.ndarray):
    """Metric inner product <a|Theta|b> (one value per point of a stack)."""
    return np.sum(np.conj(a) * (theta @ b[..., None])[..., 0], axis=-1)


def _guard_metric(theta_eigs: np.ndarray, times: np.ndarray):
    """Abort at the earliest point whose metric is not finite (NaN eigenvalues),
    clearly indefinite, too ill-conditioned or below the normal double range;
    warn once about the worst point in the warning band.  Theta = Omega' Omega is
    semidefinite up to rounding: a smallest eigenvalue within N eps lambda_max of
    zero is conditioning, not lost positivity."""
    smallest, largest = theta_eigs[:, 0], theta_eigs[:, -1]
    rounding = theta_eigs.shape[1] * np.finfo(float).eps * largest
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smallest > rounding, largest / smallest, np.inf)
    bad = np.flatnonzero((cond > THETA_COND_ABORT) | (smallest < np.finfo(float).tiny))
    if bad.size:
        k = int(bad[0])
        t = float(times[k])
        if smallest[k] < -rounding[k]:
            raise MetricPositivityError(
                f"metric lost positive definiteness at t={t:g} (min eigenvalue "
                f"{smallest[k]:.3e}); the dressing map upstream is broken",
                t=t,
            )
        if np.isnan(largest[k]):
            what = "metric Theta = Omega' Omega is not finite (Omega is too large for double precision)"
        elif np.isinf(cond[k]):
            what = f"cond(Theta) is beyond double precision (min eigenvalue {smallest[k]:.3e}, max {largest[k]:.3e})"
        elif cond[k] > THETA_COND_ABORT:
            what = f"cond(Theta) = {cond[k]:.3e} > {THETA_COND_ABORT:.0e}"
        else:
            what = f"Theta's min eigenvalue {smallest[k]:.3e} is below the normal double range"
        raise ConditioningError(f"{what} at t={t:g}; metric-norm checks are no longer meaningful", t=t)
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


def differentiate_samples(samples: np.ndarray, step: float, points: slice = slice(None)) -> np.ndarray:
    """4th-order finite-difference time derivative of (M, ...) samples on a
    uniform grid, at its ``points`` (a unit-step slice; the same bits as the
    whole grid's); one-sided stencils at the two points nearest each end."""
    s = np.asarray(samples)
    m = len(s)
    if m < 5:
        raise ScenarioError(f"need at least 5 samples for 4th-order differences, got {m}")
    lo, hi, _ = points.indices(m)
    out = np.empty((hi - lo,) + s.shape[1:], dtype=s.dtype)
    # s0 - 8 s1 + 8 s3 - s4, accumulated in place in that order: scaling by a
    # power of two is exact, so (t / 8 + s3) * 8 rounds as t + 8 s3 does
    a, b = max(lo, 2), max(min(hi, m - 2), lo, 2)
    interior = out[a - lo : b - lo]
    np.multiply(s[a - 1 : b - 1], 8.0, out=interior)
    np.subtract(s[a - 2 : b - 2], interior, out=interior)
    interior *= 0.125
    interior += s[a + 1 : b + 1]
    interior *= 8.0
    interior -= s[a + 2 : b + 2]
    for k, weights in ((0, _FORWARD_0), (1, _FORWARD_1), (m - 2, -_FORWARD_1[::-1]), (m - 1, -_FORWARD_0[::-1])):
        if lo <= k < hi:
            out[k - lo] = np.tensordot(weights, s[:5] if k < 2 else s[-5:], axes=1)
    out *= 1.0 / (12.0 * step)
    return out


@dataclass(frozen=True)
class DressingTrack:
    """Solved frames on a uniform grid, as stacked arrays.

    The grid is the integrator's fine grid (spacing = half the reporting
    step), so every Runge-Kutta substep time is a sample.  Coarse reporting
    points sit at the even indices.  With M grid points and dimension N:

    times               (M,)
    kets, bras          (M, N, N)  tracked kets R and bras L of G = D* H D, D = `model.real_gauge`
    mu                  (M, N)     metric coefficients mu_n(t) times conj(z_n), see below
    energies            (M, N)     tracked E_n(t)
    theta_eigs          (M, N)     ascending eigenvalues of the metric Omega' Omega
    mu_dot              (M, N)     exact dmu/dt times conj(z_n) for a static H; None if H moves
    model                          the model: H(t) and the declared observables

    The pivot convention holds for G's kets, so H's kets D R differ from H's own by a
    constant phase z_n = conj(d_p) per branch, p its largest component at t0; with z* in
    mu, Omega = diag(mu) L D* and Omega^-1 = D R diag(1/mu) are those of H's own frame.
    H's kets at t0 are D R diag(z) (`initial_ket`), and its bras diag(z*) L D*.
    `omega`, `omega_inv`, `omega_dot` and `hamiltonian` form Omega, Omega^-1, dOmega/dt and H at
    the points asked for; `blocks` walks the grid once, in `Block`s that form each of H, Theta, Omega
    and Omega^-1 at most once.  kets, bras and energies are read-only; for a static H, one solve.
    """

    times: np.ndarray
    kets: np.ndarray
    bras: np.ndarray
    mu: np.ndarray
    energies: np.ndarray
    theta_eigs: np.ndarray
    mu_dot: np.ndarray | None
    model: HamiltonianModel

    @property
    def dimension(self) -> int:
        return self.energies.shape[1]

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def initial_ket(self, n: int) -> np.ndarray:
        """H's tracked ket n at t0, D R_n conj(d_p) with p the largest component of R_n."""
        ket, gauge = self.kets[0][:, n], real_gauge(self.model)
        return ket.copy() if gauge is None else gauge * ket * np.conj(gauge[np.argmax(np.abs(ket))])

    def omega(self, points=slice(None)) -> np.ndarray:
        """Omega at the grid points ``points`` (a slice, mask, index array or one index)."""
        return build_omega(self.bras[points], self.mu[points], real_gauge(self.model))

    def omega_inv(self, points=slice(None)) -> np.ndarray:
        """Omega^-1 at the grid points ``points``."""
        return omega_inverse(self.kets[points], self.mu[points], real_gauge(self.model))

    def hamiltonian(self, points=slice(None)) -> np.ndarray:
        """H at the grid points ``points`` (a slice, mask or index array), from the
        model; only the frame solve calls this module's `build_hamiltonian`."""
        return _models.build_hamiltonian(self.model, self.times[points])

    def omega_dot(self, points: slice = slice(None)) -> np.ndarray:
        """dOmega/dt at the grid points ``points`` (a unit-step slice): exact for a
        static H; for a moving one, 4th-order stencils over Omega formed on the
        points plus a two-point halo, the same bits as over the whole grid."""
        if self.mu_dot is not None:
            return build_omega(self.bras[points], self.mu_dot[points], real_gauge(self.model))
        lo, hi, _ = points.indices(m := len(self.times))
        start, stop = min(max(lo - 2, 0), m - 5), max(min(hi + 2, m), 5)
        return differentiate_samples(self.omega(slice(start, stop)), self.step, slice(lo - start, hi - start))

    def blocks(self, step: int = 1) -> Iterator[Block]:
        """The `Block`s of one pass over the grid, in order: with ``step`` 1 the runs of fine
        points of `grid_blocks`, each from an even index, so its reporting points are its even
        ones; with ``step`` 2, only those points."""
        origin, m = Block(self, slice(0, 1, 1), slice(0, 1)), len(self.times)
        for start, stop in ((s.start, min(s.stop, m)) for s in grid_blocks(m, self.dimension)):
            yield Block(self, slice(start, stop, step), slice(start // 2, (stop + 1) // 2), origin)


@dataclass(frozen=True, eq=False)
class Block:
    """One block of a `DressingTrack.blocks` pass: the grid slice ``points`` it covers, the
    reporting ``rows`` at its own ``[coarse]`` points, and ``origin``, the pass's one-point
    block at t0.  H, Theta, Omega and Omega^-1 at its points are each formed on first use
    and kept: a consumer forms only what it reads, and every later one reuses it."""

    track: DressingTrack = field(repr=False)
    points: slice
    rows: slice
    origin: Block | None = field(default=None, repr=False)

    coarse = property(lambda self: slice(None, None, 2 // self.points.step))
    hamiltonian = cached_property(lambda self: self.track.hamiltonian(self.points))
    omega = cached_property(lambda self: self.track.omega(self.points))
    omega_inv = cached_property(lambda self: self.track.omega_inv(self.points))
    theta = cached_property(lambda self: build_theta(self.omega))

    def observable(self, spec: ObservableSpec) -> np.ndarray:
        """The declared observable A(t) at the block's reporting points: H itself,
        the user's matrix broadcast read-only, or Omega^-1 . data . Omega."""
        if spec.source == "hamiltonian-itself":
            return self.hamiltonian[self.coarse]
        if spec.source == "user-matrix":
            return np.broadcast_to(spec.data, (self.rows.stop - self.rows.start,) + spec.data.shape)
        return self.omega_inv[self.coarse] @ spec.data @ self.omega[self.coarse]


def _gauged(hams: np.ndarray, gauge: np.ndarray | None) -> np.ndarray:
    """D* H D for ``gauge`` = diag(D) (H without one), as a contiguous real stack if exactly real."""
    if gauge is None:
        return hams
    gauged = hams * (np.conj(gauge)[:, None] * gauge)
    return gauged if np.any(gauged.imag) else gauged.real.copy()


def _tracked_blocks(hamiltonian, times: np.ndarray, dimension: int):
    """Solve H at ``times`` in blocks of at most `_FRAME_ENTRIES` entries, each refined (N >= 3)
    and tracked on from the `Continuation` of the block before, and yield (grid slice, tracked
    frame) per block; ``hamiltonian`` maps a block of times to its stack.

    A point-by-point sweep would match point j against j - 1 before solving
    point j + 1, so when the solve fails at point k, a continuity failure
    before k is the error to report.
    """
    carry = None
    for block in grid_blocks(len(times), dimension, most=np.inf):
        k = block.start
        hams = hamiltonian(times[block])
        try:
            raw = eig_biorthogonal(hams, t=times[block], start=carry)
        except NumericalDomainError as exc:
            j = int(np.searchsorted(times[block], exc.t))
            if j > 0:
                prefix = eig_biorthogonal(hams[:j], t=times[k : k + j], start=carry)
                track_continuity(prefix, carry)
            raise
        frame = track_continuity(raw, carry)
        del raw
        yield block, frame
        carry = frame.continuation


def build_dressing_track(
    model: HamiltonianModel, mu_schedules: Sequence[ScheduleSpec], times: np.ndarray
) -> DressingTrack:
    """Assemble frames and dressing maps along a uniform time grid.

    A static H (`HamiltonianModel.is_time_dependent` false) is built and
    solved at ``times[0]`` alone; dOmega/dt is then the exact mu derivatives
    times its constant left bras.  A moving H is built, solved and
    continuity-tracked block by block, so the sampled Omega(t) lies on one
    smooth curve, and dOmega/dt is taken by 4th-order stencils over it.
    What is solved is G = D* H D in the model's real gauge (real for cubic-trunc, to
    Theta's eigenvalues); a complex pair of a real G aborts the run, so the stored frame stays real.
    """
    times = np.asarray(times, dtype=float)
    if len(mu_schedules) != model.dimension:
        raise ScenarioError(
            f"need {model.dimension} mu schedules, got {len(mu_schedules)}"
        )
    moving = model.is_time_dependent
    solved = times if moving else times[:1]

    mu = mu_series(mu_schedules, times)
    if np.any(mu == 0):
        raise ScenarioError("mu coefficients must be nonzero")
    mu_dot = None if moving else mu_series(mu_schedules, times, eval_schedule_derivative)
    gauge = real_gauge(model)
    hamiltonian = lambda t: _gauged(build_hamiltonian(model, t), gauge)
    for block, frame in _tracked_blocks(hamiltonian, solved, model.dimension):
        if block.start == 0:  # allocated once the first block's raw frame is freed
            if gauge is not None:  # H's frame: kets D R diag(z), bras diag(z*) L D*, z* = d_p
                z_conj = gauge[np.argmax(np.abs(frame.right_kets[0]), axis=0)]
                mu *= z_conj  # mu_series gives fresh complex stacks
                if mu_dot is not None:
                    mu_dot *= z_conj
            kets = np.empty(solved.shape + frame.right_kets.shape[1:], dtype=frame.right_kets.dtype)
            bras = np.empty_like(kets)
            energies = np.empty(solved.shape + mu.shape[-1:], dtype=kets.dtype)
        kets[block], bras[block], energies[block] = frame.right_kets, frame.left_bras, frame.energies
    # read-only (M, ...) views: one solve of a static H stands for every point
    kets, bras, energies = (np.broadcast_to(a, times.shape + a.shape[1:]) for a in (kets, bras, energies))
    theta_eigs = np.empty(mu.shape)
    for block in grid_blocks(len(times), model.dimension):
        with np.errstate(over="ignore", invalid="ignore"):  # the guard reports a non-finite Theta
            theta = build_theta(build_omega(bras[block], np.abs(mu[block])))  # L' |mu|^2 L = D* Theta D
        finite = np.isfinite(theta).all(axis=(-2, -1))
        theta[~finite] = 0.0  # eigvalsh rejects inf and NaN; the guard names these points
        theta_eigs[block] = np.where(finite[:, None], np.linalg.eigvalsh(theta), np.nan)
    _guard_metric(theta_eigs, times)

    return DressingTrack(
        times=times,
        kets=kets,
        bras=bras,
        mu=mu,
        energies=energies,
        theta_eigs=theta_eigs,
        mu_dot=mu_dot,
        model=model,
    )
