"""Sequential reference implementations that the tests compare against.

`reference_track` is the point-by-point algorithm the stacked spectral layer
replaced: one `scipy.linalg.eig(left=True)` per grid point, bras normalized
column by column, and each point matched against its aligned predecessor in a
Python loop.  `theta_spectral` and `spectrum_closed_form` are independent
oracles for the metric and for the spectra of the families that have one.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from qhdyn import BiorthogonalFrame
from qhdyn.errors import AmbiguousMatchError, ComplexSpectrumError, ExceptionalPointError
from qhdyn.model import HamiltonianModel, _similarity_energies
from qhdyn.spectral import (
    _BIORTHO_TOL,
    _EIGEN_RESIDUAL_TOL,
    AMBIGUITY_TOL,
    EP_OVERLAP_TOL,
    REALITY_TOL,
)


def reference_eig(H: np.ndarray, reality_policy: str = "report", t: float = 0.0) -> BiorthogonalFrame:
    """Biorthogonal frame of one matrix via left and right LAPACK eigenvectors."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    raw = np.array([np.vdot(vl[:, k], vr[:, k]) for k in range(n)])
    worst = np.min(np.abs(raw))
    if worst < EP_OVERLAP_TOL:
        raise ExceptionalPointError(f"raw left-right overlap {worst:.3e} at t={t:g}")
    if reality_policy == "assert" and np.max(np.abs(w.imag)) >= REALITY_TOL:
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
    n = prev.dimension
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


def reference_track(hams, times, reality_policy: str = "report") -> list[BiorthogonalFrame]:
    """Solve and align the grid one point at a time."""
    frames: list[BiorthogonalFrame] = []
    for H, t in zip(hams, times):
        frame = reference_eig(H, reality_policy, t)
        frames.append(frame if not frames else reference_continuity(frames[-1], frame))
    return frames


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
    theta = np.zeros((frame.dimension, frame.dimension), dtype=complex)
    for k in range(frame.dimension):
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
        return np.sort(_similarity_energies(model))
    return None
