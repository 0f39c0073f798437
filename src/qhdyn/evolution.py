"""Time integration: the standard-space propagator oracle and the twin
quasi-Hermitian Schrodinger equations.

In the friendly reference basis the Hermitized Hamiltonian is exactly
diagonal, so the standard-space propagator is a product of pure phases,

    u(t) = diag(exp(-i integral E_n(s) ds)),

with the integral done by composite Simpson over each step (diagonal matrices
commute, so time ordering is trivial).  That gives a closed-form-in-structure
oracle for the genuinely numerical side: classical RK4 applied to

    i d/dt |Phi>  = H_gen(t) |Phi>,
    i d/dt |Phi>> = H_gen'(t) |Phi>>,

one scheme driven by the same generator and its adjoint.  The left equation
is integrated independently; |Phi>> = Theta |Phi> is checked afterwards, not
built in.

A run is kept as stacked arrays: the generator and its adjoint are formed
once for the whole track, the kets on the reporting grid are (K, N) arrays,
and the standard propagator is stored as its (K, N) phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dressing import DressingTrack, build_generator, dagger, theta_inner
from .errors import ComplexSpectrumError, IntegrationError, ScenarioError
from .spectral import REALITY_TOL

PICTURES = ("right", "left", "standard")

# the track holds 2 * steps + 1 samples of every N x N matrix, so the step
# count is capped where those stacks would outgrow a desk machine
MAX_STEPS = 100_000


@dataclass(frozen=True)
class EvolutionState:
    """One snapshot: right ket |Phi>, left ket |Phi>>, standard ket |phi>.

    Pictures that were not requested hold None.
    """

    t: float
    phi_right: np.ndarray | None
    phi_left: np.ndarray | None
    phi_standard: np.ndarray | None


@dataclass(frozen=True)
class Trajectory:
    """Kets on the reporting grid plus the standard-space propagator.

    times         (K,) reporting grid
    phi_right     (K, N) right kets |Phi(t_k)>
    phi_left      (K, N) left kets |Phi(t_k)>>, None when not integrated
    phi_standard  (K, N) standard kets |phi(t_k)>, None when not requested
    phases        (K, N) u(t_k) = diag(exp(-i phases[k]))
    """

    times: np.ndarray
    phi_right: np.ndarray
    phi_left: np.ndarray | None
    phi_standard: np.ndarray | None
    phases: np.ndarray
    pictures: tuple[str, ...]

    @property
    def u_diagonals(self) -> np.ndarray:
        """(K, N) diagonals of the standard-space propagators u(t_k)."""
        return np.exp(-1j * self.phases)


def time_grid(t0: float, t1: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) uniform grids; fine has half the spacing.

    t0, t1 and dt must be finite.  The step count must divide the interval
    exactly, be at least 2 (the 4th-order derivative stencils need five fine
    samples) and at most `MAX_STEPS`.
    """
    if not np.all(np.isfinite([t0, t1, dt])):
        raise ScenarioError(f"time grid needs finite t0, t1 and dt, got t0={t0}, t1={t1}, dt={dt}")
    if dt <= 0.0:
        raise ScenarioError(f"dt must be positive, got {dt}")
    span = t1 - t0
    if span <= 0.0:
        raise ScenarioError(f"need t1 > t0, got interval [{t0}, {t1}]")
    if span / dt >= MAX_STEPS + 0.5:
        raise ScenarioError(f"(t1 - t0)/dt = {span / dt:g} steps exceeds the cap of {MAX_STEPS}")
    steps = int(round(span / dt))
    if steps < 2 or abs(steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ScenarioError(
            f"(t1 - t0)/dt = {span / dt:g} must be an integer number of steps >= 2"
        )
    fine = np.linspace(t0, t1, 2 * steps + 1)
    return fine[::2].copy(), fine


def standard_phases(track: DressingTrack) -> np.ndarray:
    """Accumulated phase integrals integral_{t0}^{t_k} E_n(s) ds at the coarse
    points, by composite Simpson over each (begin, midpoint, end) triple.

    Raises `ComplexSpectrumError` if any sampled E_n has left the real axis --
    the phases would stop being phases.
    """
    energies = track.energies
    worst_im = np.max(np.abs(energies.imag), axis=1)
    bad = np.flatnonzero(worst_im >= REALITY_TOL)
    if bad.size:
        k = int(bad[0])
        raise ComplexSpectrumError(
            f"non-real energy |Im E| = {worst_im[k]:.3e} encountered mid-run at "
            f"t={track.times[k]:g}; the standard-space propagator is no longer unitary",
            t=float(track.times[k]),
        )
    real = energies.real
    simpson = (track.step / 3.0) * (real[:-2:2] + 4.0 * real[1:-1:2] + real[2::2])
    return np.concatenate([np.zeros((1, real.shape[1])), np.cumsum(simpson, axis=0)])


def propagate_standard(track: DressingTrack, t0: float | None = None, t1: float | None = None) -> np.ndarray:
    """Standard-space propagator u over [t0, t1] (defaults: the whole track).

    Both endpoints must be coarse grid points; diagonal propagators compose by
    phase subtraction.
    """
    phases = standard_phases(track)
    coarse = track.times[::2]
    i0 = 0 if t0 is None else _locate(coarse, t0)
    i1 = len(coarse) - 1 if t1 is None else _locate(coarse, t1)
    return np.diag(np.exp(-1j * (phases[i1] - phases[i0])))


def _locate(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ScenarioError(f"time {t:g} is not a grid point of the track")
    return idx


def _rk4(vec: np.ndarray, a0: np.ndarray, am: np.ndarray, a1: np.ndarray, dt: float, t: float) -> np.ndarray:
    """One classical RK4 step of i d/dt v = A v for kets v of shape (..., N),
    with A sampled at (t, t + dt/2, t + dt) and matching leading shape."""

    def rate(a, v):
        return -1j * (a @ v[..., None])[..., 0]

    k1 = rate(a0, vec)
    k2 = rate(am, vec + 0.5 * dt * k1)
    k3 = rate(am, vec + 0.5 * dt * k2)
    k4 = rate(a1, vec + dt * k3)
    new = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise IntegrationError(
            f"non-finite state components after the step at t={t:g} "
            "(exceptional-point crossing or metric blow-up upstream)",
            t=float(t),
        )
    return new


def step_generator(
    state: EvolutionState,
    generators: Sequence[np.ndarray],
    dt: float,
) -> EvolutionState:
    """One classical RK4 step of the twin equations.

    ``generators`` holds H_gen at (t, t + dt/2, t + dt).  The right ket
    advances with H_gen, the left ket with its adjoint; the standard ket is
    not advanced here (it has its own closed-form propagator) and is carried
    through unchanged.
    """
    if dt <= 0.0:
        raise ScenarioError(f"dt must be positive, got {dt}")
    g0, gm, g1 = generators
    phi_right = state.phi_right
    if phi_right is not None:
        phi_right = _rk4(phi_right, g0, gm, g1, dt, state.t)
    phi_left = state.phi_left
    if phi_left is not None:
        phi_left = _rk4(phi_left, dagger(g0), dagger(gm), dagger(g1), dt, state.t)
    return EvolutionState(
        t=state.t + dt,
        phi_right=phi_right,
        phi_left=phi_left,
        phi_standard=state.phi_standard,
    )


def resolve_initial_state(spec, track: DressingTrack) -> np.ndarray:
    """Initial right ket from a vector, 'uniform', or ('eigenstate', k)."""
    n = track.dimension
    if isinstance(spec, str):
        if spec == "uniform":
            return np.ones(n, dtype=complex) / np.sqrt(n)
        raise ScenarioError(f"unknown initial-state preset {spec!r}")
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "eigenstate":
        k = int(spec[1])
        if not 0 <= k < n:
            raise ScenarioError(f"eigenstate index {k} out of range for N={n}")
        return track.right_kets[0][:, k].copy()
    vec = np.asarray(spec, dtype=complex)
    if vec.shape != (n,):
        raise ScenarioError(f"initial state must have {n} components, got shape {vec.shape}")
    if not np.any(vec):
        raise ScenarioError("initial state is the zero vector")
    return vec.copy()


def propagate_quasi(
    track: DressingTrack,
    initial_state,
    pictures: Sequence[str] = PICTURES,
    use_plain_hamiltonian: bool = False,
) -> Trajectory:
    """Integrate the twin equations along the track's grid.

    The right and left kets advance together by RK4 with the generator and
    its adjoint sampled at the step endpoints and midpoint (all fine grid
    points of the track); the standard ket follows the diagonal closed-form
    propagator.  With ``use_plain_hamiltonian`` the integrator is driven by H
    instead of H_gen -- the falsification switch: for a moving metric that
    run must lose the Theta-norm.
    """
    pictures = tuple(pictures)
    for p in pictures:
        if p not in PICTURES:
            raise ScenarioError(f"unknown picture {p!r}; expected a subset of {PICTURES}")
    if "right" not in pictures:
        raise ScenarioError("the 'right' picture is mandatory")

    if use_plain_hamiltonian:
        gens = track.hamiltonians
    else:
        gens = build_generator(track.hamiltonians, track.omega, track.omega_dot, track.omega_inv)

    phi0 = resolve_initial_state(initial_state, track)
    want_left = "left" in pictures
    phases = standard_phases(track)

    # the integrated kets as one (pictures, N) state: right, then left
    if want_left:
        gens = np.stack([gens, dagger(gens)], axis=1)
        state = np.stack([phi0, track.theta[0] @ phi0])
    else:
        gens = gens[:, None]
        state = phi0[None]

    coarse = track.times[::2]
    dt = float(coarse[1] - coarse[0])
    kets = np.empty((len(coarse),) + state.shape, dtype=complex)
    kets[0] = state
    for k in range(len(coarse) - 1):
        j = 2 * k
        kets[k + 1] = _rk4(kets[k], gens[j], gens[j + 1], gens[j + 2], dt, coarse[k])

    phi_standard = None
    if "standard" in pictures:
        phi_standard = np.exp(-1j * phases) * (track.omega[0] @ phi0)
    return Trajectory(
        times=coarse,
        phi_right=kets[:, 0],
        phi_left=kets[:, 1] if want_left else None,
        phi_standard=phi_standard,
        phases=phases,
        pictures=pictures,
    )


def expectation(state, A: np.ndarray, theta: np.ndarray):
    """Metric mean value <Phi|Theta A|Phi> / <Phi|Theta|Phi> of the right ket
    of ``state``: one value for an `EvolutionState`, one per reporting point
    for a `Trajectory` (with A and theta stacked or broadcast to match)."""
    phi = state.phi_right
    norm = theta_inner(phi, phi, theta)
    if np.any(np.abs(norm) < 1e-300):
        raise ValueError("zero Theta-norm state has no expectation values")
    return theta_inner(phi, (A @ phi[..., None])[..., 0], theta) / norm
