"""Sequential reference implementations that the tests compare against.

`reference_track` is the point-by-point algorithm the stacked spectral layer
replaced: one `scipy.linalg.eig(left=True)` per grid point, bras normalized
column by column, and each point matched against its aligned predecessor in a
Python loop.  `reference_permutations` is the step-by-step composition of
those matches into branch labels.  `reference_propagate` is the RK4 loop the
step-matrix integrator replaced: the four stages k1..k4 applied to the kets
one step at a time, with a finiteness check after every step.
`reference_frame_residuals` forms the frame validation residuals point by
point.  `theta_spectral` and `spectrum_closed_form` are independent oracles
for the metric and for the spectra of the families that have one.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from qhdyn import DressingTrack
from qhdyn.dressing import build_generator, build_theta, dagger
from qhdyn.errors import AmbiguousMatchError, ComplexSpectrumError, ExceptionalPointError, IntegrationError
from qhdyn.evolution import PICTURES, resolve_initial_state, standard_phases
from qhdyn.model import HamiltonianModel
from qhdyn.spectral import (
    BiorthogonalFrame,
    _BIORTHO_TOL,
    _EIGEN_RESIDUAL_TOL,
    AMBIGUITY_TOL,
    EP_OVERLAP_TOL,
    REALITY_TOL,
)


def reference_eig(H: np.ndarray, t: float = 0.0) -> BiorthogonalFrame:
    """Biorthogonal frame of one matrix via left and right LAPACK eigenvectors."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    raw = np.array([np.vdot(vl[:, k], vr[:, k]) for k in range(n)])
    worst = np.min(np.abs(raw))
    if worst < EP_OVERLAP_TOL:
        raise ExceptionalPointError(f"raw left-right overlap {worst:.3e} at t={t:g}")
    if np.max(np.abs(w.imag)) >= REALITY_TOL:
        raise ComplexSpectrumError(f"complex spectrum at t={t:g}")

    order = np.lexsort((w.imag, w.real))
    w, vr, vl, raw = w[order], vr[:, order], vl[:, order], raw[order]
    kets = np.empty((n, n), dtype=complex)
    bras = np.empty((n, n), dtype=complex)
    for k in range(n):
        v = vr[:, k]
        pivot = int(np.argmax(np.abs(v)))
        v = v * (abs(v[pivot]) / v[pivot])
        b = vl[:, k].conj()
        kets[:, k] = v
        bras[k, :] = b / (b @ v)

    eye = np.eye(n)
    if (np.max(np.abs(bras @ kets - eye)) > _BIORTHO_TOL
            or np.max(np.abs(kets @ bras - eye)) > _BIORTHO_TOL):
        raise ExceptionalPointError(f"frame validation failed at t={t:g}")
    for k in range(n):
        r = np.max(np.abs(H @ kets[:, k] - w[k] * kets[:, k]))
        l = np.max(np.abs(bras[k] @ H - w[k] * bras[k]))
        if r > _EIGEN_RESIDUAL_TOL or l > _EIGEN_RESIDUAL_TOL:
            raise ExceptionalPointError(f"eigenpair {k} residual too large at t={t:g}")
    return BiorthogonalFrame(float(t), w, kets, bras, np.abs(raw))


def reference_continuity(prev: BiorthogonalFrame, cur: BiorthogonalFrame) -> BiorthogonalFrame:
    """Align ``cur`` with the already aligned ``prev`` across one grid step."""
    n = len(prev.energies)
    overlaps = prev.left_bras @ cur.right_kets
    mags = np.abs(overlaps)
    perm = np.empty(n, dtype=int)
    for m in range(n):
        row = mags[m]
        best = int(np.argmax(row))
        runner_up = np.max(np.delete(row, best))
        if row[best] - runner_up < AMBIGUITY_TOL:
            raise AmbiguousMatchError(f"ambiguous match for eigenpair {m} at t={cur.t:g}")
        perm[m] = best
    if len(set(perm.tolist())) != n:
        raise AmbiguousMatchError(f"not a permutation at t={cur.t:g}")

    kets = cur.right_kets[:, perm].copy()
    bras = cur.left_bras[perm, :].copy()
    for m in range(n):
        o = overlaps[m, perm[m]]
        z = np.conj(o) / abs(o)
        kets[:, m] *= z
        bras[m, :] *= np.conj(z)
        bras[m, :] /= bras[m, :] @ kets[:, m]
    return BiorthogonalFrame(cur.t, cur.energies[perm], kets, bras, cur.raw_overlaps[perm])


def reference_track(hams, times) -> list[BiorthogonalFrame]:
    """Solve and align the grid one point at a time."""
    frames: list[BiorthogonalFrame] = []
    for H, t in zip(hams, times):
        frame = reference_eig(H, t)
        frames.append(frame if not frames else reference_continuity(frames[-1], frame))
    return frames


def reference_frame_residuals(kets, bras, energies, hams):
    """Biorthonormality, completeness, right and left eigen-residuals of each
    point of a frame stack, one point and one pair at a time."""
    m, n = energies.shape
    eye = np.eye(n)
    bi, complete = np.empty(m), np.empty(m)
    right, left = np.empty((m, n)), np.empty((m, n))
    for k in range(m):
        bi[k] = np.max(np.abs(bras[k] @ kets[k] - eye))
        complete[k] = np.max(np.abs(kets[k] @ bras[k] - eye))
        for j in range(n):
            right[k, j] = np.max(np.abs(hams[k] @ kets[k][:, j] - energies[k, j] * kets[k][:, j]))
            left[k, j] = np.max(np.abs(bras[k][j] @ hams[k] - energies[k, j] * bras[k][j]))
    return bi, complete, right, left


def reference_permutations(best: np.ndarray) -> np.ndarray:
    """perm[0] = identity, perm[k] = best[k - 1, perm[k - 1]], one step at a time."""
    n = best.shape[-1]
    perm = np.empty((len(best) + 1, n), dtype=int)
    perm[0] = np.arange(n)
    for k in range(1, len(perm)):
        perm[k] = best[k - 1, perm[k - 1]]
    return perm


def _rk4(vec, a0, am, a1, dt, t):
    """One classical RK4 step of i d/dt v = A v for kets v of shape (..., N)."""

    def rate(a, v):
        return -1j * (a @ v[..., None])[..., 0]

    k1 = rate(a0, vec)
    k2 = rate(am, vec + 0.5 * dt * k1)
    k3 = rate(am, vec + 0.5 * dt * k2)
    k4 = rate(a1, vec + dt * k3)
    new = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise IntegrationError(f"non-finite state components after the step at t={t:g}", t=float(t))
    return new


def reference_propagate(
    track: DressingTrack,
    initial_state,
    pictures=PICTURES,
    use_plain_hamiltonian: bool = False,
):
    """(phi_right, phi_left or None, phases) on the reporting grid, with the
    right and left kets advanced together by `_rk4`, step after step."""
    hams = track.hamiltonian()
    gens = hams if use_plain_hamiltonian else build_generator(hams, track.omega_dot(), track.omega_inv())
    phi0 = resolve_initial_state(initial_state, track)
    want_left = "left" in pictures
    if want_left:
        gens = np.stack([gens, dagger(gens)], axis=1)
        state = np.stack([phi0, build_theta(track.omega(0)) @ phi0])
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
    return kets[:, 0], kets[:, 1] if want_left else None, standard_phases(track)


def stack_frames(*frames: BiorthogonalFrame) -> BiorthogonalFrame:
    """Single-point frames as one stack, in the given order."""
    return BiorthogonalFrame(
        t=np.array([f.t for f in frames], dtype=float),
        energies=np.stack([f.energies for f in frames]),
        right_kets=np.stack([f.right_kets for f in frames]),
        left_bras=np.stack([f.left_bras for f in frames]),
        raw_overlaps=np.stack([f.raw_overlaps for f in frames]),
    )


def theta_spectral(frame: BiorthogonalFrame, mu) -> np.ndarray:
    """Independent metric assembly sum_n |mu_n|^2 (<<n|)' <<n| for one frame."""
    mu = np.asarray(mu, dtype=complex)
    n = len(frame.energies)
    theta = np.zeros((n, n), dtype=complex)
    for k in range(n):
        bra = frame.left_bras[k]
        theta += (abs(mu[k]) ** 2) * np.outer(bra.conj(), bra)
    return theta


def spectrum_closed_form(model: HamiltonianModel, t: float) -> np.ndarray | None:
    """Known closed-form spectrum for families that have one, else None."""
    if model.family == "triangular2":
        return np.array([model.real_param("e1", t), model.real_param("e2", t)])
    if model.family == "pt2":
        gamma = model.real_param("gamma", t)
        s = model.real_param("s", t)
        disc = s * s - gamma * gamma
        if disc < 0.0:
            return None
        root = np.sqrt(disc)
        return np.array([-root, root])
    if model.family == "similarity-rand":
        return np.sort(np.asarray(model.params["energies"], dtype=float))
    return None
