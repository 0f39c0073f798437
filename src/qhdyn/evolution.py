"""Time integration: the standard-space propagator oracle and the twin
quasi-Hermitian Schrodinger equations.

In the friendly reference basis the Hermitized Hamiltonian is exactly
diagonal, so the standard-space propagator is a product of pure phases,

    u(t) = diag(exp(-i integral E_n(s) ds)),

with the integral done by composite Simpson over each step (diagonal matrices
commute, so time ordering is trivial; the eigensolve rejects a complex
spectrum, so u(t) is unitary).  That gives a closed-form-in-structure
oracle for the genuinely numerical side: classical RK4 applied to

    i d/dt |Phi>  = H_gen(t) |Phi>,
    i d/dt |Phi>> = H_gen'(t) |Phi>>,

one scheme driven by the same generator and its adjoint.  The left equation
is integrated independently; |Phi>> = Theta |Phi> is checked afterwards, not
built in.

RK4 is linear in the state, so each step is v -> v + D_k v with an increment
matrix D_k built from the three generator samples of step k alone
(`rk4_increments`).  The increment matrices of a block of steps, for the
right and the left picture together, come from a few batched matrix
products; only the matrix-vector chain v_{k+1} = v_k + D_k v_k runs step by
step, on the kets held as columns: D_k v_k is formed in the row of v_{k+1}
and v_k added to it there, with no temporary.  The step is kept in this
increment form rather than as one propagator P_k = I + D_k: adding the
small increment D_k v to v rounds like the textbook k1..k4 update, while
forming I + D_k first rounds every D_k against the unit diagonal.  That
rounding is not negligible next to the RK4 error: for exp_metric_drive it
moves the Theta-norm drift at dt = 1e-3 from 1.34e-13 to 8.75e-14 and the
drift ratio under step halving from 16.1 to 25.0, off the fourth-order
value of 16.

A run is kept as stacked arrays: the kets on the reporting grid are (K, N)
arrays and the standard propagator is stored as its (K, N) diagonals
u = exp(-i phases), formed once.  H, the generator and
dOmega/dt are never held for the whole track; each block of steps forms its
generator samples, for every picture, in one array: the steps come in the
blocks of `dressing.grid_blocks`, two samples per picture to a step, like
every other walk along the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dressing import DressingTrack, build_generator, build_theta, grid_blocks
from .errors import IntegrationError, ScenarioError
from .spectral import matmul

PICTURES = ("right", "left", "standard")

# the track holds its frame (kets and bras) at 2 * steps + 1 fine points, so
# the step count is capped where those stacks would outgrow a desk machine
MAX_STEPS = 100_000


@dataclass(frozen=True)
class Trajectory:
    """Kets on the reporting grid plus the standard-space propagator.

    times         (K,) reporting grid
    phi_right     (K, N) right kets |Phi(t_k)>
    phi_left      (K, N) left kets |Phi(t_k)>>, None when not integrated
    u             (K, N) diagonals of u(t_k) = diag(exp(-i `standard_phases`[k]));
                  the standard ket is u(t_k) Omega(0) |Phi(0)>
    """

    times: np.ndarray
    phi_right: np.ndarray
    phi_left: np.ndarray | None
    u: np.ndarray


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
    points, by composite Simpson over each (begin, midpoint, end) triple, of
    Re E_n (the eigensolve rejects |Im E| >= `spectral.REALITY_TOL`)."""
    real = track.energies.real
    simpson = (track.step / 3.0) * (real[:-2:2] + 4.0 * real[1:-1:2] + real[2::2])
    return np.concatenate([np.zeros((1, real.shape[1])), np.cumsum(simpson, axis=0)])


def rk4_increments(begin: np.ndarray, mid: np.ndarray, end: np.ndarray, dt: float) -> np.ndarray:
    """Increment matrices of classical RK4 for i d/dt v = A v.

    ``begin``, ``mid`` and ``end`` hold A at (t, t + dt/2, t + dt), as single
    matrices or stacks of matching leading shape.  One step is v -> v + D v
    with

        a = -i dt A(t),  m = -i dt A(t + dt/2),  c = -i dt A(t + dt),
        k2 = m + m a / 2,  k3 = m + m k2 / 2,  k4 = c + c k3,
        D = (a + 2 k2 + 2 k3 + k4) / 6,

    which is the k1..k4 update with each stage written as a matrix acting on
    v (a v = dt k1, k2 v = dt k2, and so on).
    """
    # accumulated in place, in the order of the expressions above; each
    # stage is dropped once the sum has taken it
    a = (-1j * dt) * begin
    m = (-1j * dt) * mid
    k2 = matmul(m, a)
    k2 *= 0.5
    k2 += m
    k3 = matmul(m, k2)
    k3 *= 0.5
    k3 += m
    del m
    k2 *= 2.0
    a += k2
    del k2
    c = (-1j * dt) * end
    k4 = matmul(c, k3)
    k4 += c
    del c
    k3 *= 2.0
    a += k3
    a += k4
    a /= 6.0
    return a


def validate_pictures(pictures: Sequence[str]) -> tuple[str, ...]:
    """The requested pictures as a tuple; raises `ScenarioError` for an
    unknown picture or when 'right' is missing."""
    pictures = tuple(pictures)
    for p in pictures:
        if p not in PICTURES:
            raise ScenarioError(f"unknown picture {p!r}; expected a subset of {PICTURES}")
    if "right" not in pictures:
        raise ScenarioError("the 'right' picture is mandatory")
    return pictures


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
        return track.initial_ket(k)
    vec = np.asarray(spec, dtype=complex)
    if vec.shape != (n,):
        raise ScenarioError(f"initial state must have {n} components, got shape {vec.shape}")
    return initial_vector(vec)


def initial_vector(values, label: str = "initial state") -> np.ndarray:
    """``values`` as a new complex vector, if its squared norm is a normal
    double; else `ScenarioError` naming ``label``."""
    vec = np.array(values, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        squared = np.linalg.norm(vec) ** 2
    if squared == np.inf:
        raise ScenarioError(f"{label} is too large: its squared norm overflows")
    if not squared >= np.finfo(float).tiny:
        raise ScenarioError(f"{label} is the zero vector or its squared norm is not a normal double")
    return vec


def propagate_quasi(
    track: DressingTrack,
    initial_state,
    pictures: Sequence[str] = PICTURES,
    use_plain_hamiltonian: bool = False,
) -> Trajectory:
    """Integrate the twin equations along the track's grid.

    The right and left kets advance together by RK4 with the generator and
    its adjoint sampled at the step endpoints and midpoint (all fine grid
    points of the track), one block of `rk4_increments` at a time; the
    standard ket follows the diagonal closed-form propagator.  With
    ``use_plain_hamiltonian`` the integrator is driven by H instead of H_gen
    -- the falsification switch: for a moving metric that run must lose the
    Theta-norm.  Raises `IntegrationError` naming the first step whose kets
    are not finite.
    """
    pictures = validate_pictures(pictures)
    phi0 = resolve_initial_state(initial_state, track)
    want_left = "left" in pictures

    # the integrated kets as one (pictures, N) state: right, then left
    state = np.stack([phi0, build_theta(track.omega(0)) @ phi0]) if want_left else phi0[None]

    coarse = track.times[::2]
    dt = float(coarse[1] - coarse[0])
    steps = len(coarse) - 1
    kets = np.empty((steps + 1,) + state.shape + (1,), dtype=complex)
    kets[0, ..., 0] = state
    n = track.dimension
    # a blow-up is reported below, naming the step it happened in
    with np.errstate(all="ignore"):
        for k0, k1 in ((s.start, s.stop) for s in grid_blocks(steps, 2 * len(state) * n * n)):
            span = slice(2 * k0, 2 * k1 + 1)
            block = np.empty((2 * (k1 - k0) + 1, len(state), n, n), dtype=complex)
            if use_plain_hamiltonian:
                block[:, 0] = track.hamiltonian(span)
            else:  # formed in place, as is the left picture's adjoint
                build_generator(track.hamiltonian(span), track.omega_dot(span), track.omega_inv(span), out=block[:, 0])
            if want_left:
                np.conj(np.swapaxes(block[:, 0], -1, -2), out=block[:, 1])
            increments = rk4_increments(block[:-2:2], block[1::2], block[2::2], dt)
            for d, v, after in zip(increments, kets[k0:k1], kets[k0 + 1 : k1 + 1]):
                np.add(v, np.matmul(d, v, out=after), out=after)
            del block, increments  # freed before the next block forms its own
    kets = kets[..., 0]
    finite = np.isfinite(kets).all(axis=(1, 2))
    if not finite.all():
        t = coarse[max(int(np.argmin(finite)) - 1, 0)]
        raise IntegrationError(
            f"non-finite state components after the step at t={t:g} "
            "(exceptional-point crossing or metric blow-up upstream)",
            t=float(t),
        )
    return Trajectory(
        times=coarse,
        phi_right=kets[:, 0],
        phi_left=kets[:, 1] if want_left else None,
        u=np.exp(-1j * standard_phases(track)),
    )
