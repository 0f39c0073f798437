"""Biorthogonal eigensystems of non-Hermitian matrices, tracked along a grid.

An N x N diagonalizable matrix H owns N eigenvalue doublets: right kets
H|n> = E_n|n> and left bras <<n|H = E_n<<n|, normalized to <<m|n> = delta_mn
with completeness sum_n |n><<n| = I.  Near an exceptional point a left-right
pair becomes orthogonal and the construction degenerates; that is detected via
the raw overlap magnitude, not via Jordan-form analysis.

Both entry points work on a whole time grid at once: `eig_biorthogonal` takes
an (M, N, N) stack of matrices and returns a frame of stacked arrays, and
`track_continuity` aligns every point of such a stack with its predecessor.
Failures are reported for the earliest grid point that has one, so a stack
raises the same error a point-by-point sweep of the grid would raise first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AmbiguousMatchError, ComplexSpectrumError, ExceptionalPointError, NumericalDomainError

# raw left-right overlap magnitude below which H is treated as defective
EP_OVERLAP_TOL = 1e-8

# |Im E| above which a spectrum is not accepted as real
REALITY_TOL = 1e-10

# two continuity-matching candidates closer than this are ambiguous
AMBIGUITY_TOL = 1e-6

_BIORTHO_TOL = 1e-10
_EIGEN_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class BiorthogonalFrame:
    """Eigenvalue doublets of one matrix, or of a stack of M matrices.

    t             time of the matrix, or (M,) times of the stack
    energies      (..., N) complex eigenvalues E_n
    right_kets    (..., N, N), column n is |n>
    left_bras     (..., N, N), row n is <<n|
    raw_overlaps  (..., N) exceptional-point margins 1 / (||<<n|| ||n>||)
                  (the pre-normalization left-right overlap magnitude; 1 for
                  a Hermitian matrix, -> 0 at an exceptional point)
    """

    t: float | np.ndarray
    energies: np.ndarray
    right_kets: np.ndarray
    left_bras: np.ndarray
    raw_overlaps: np.ndarray


# (per-point failure flags, error for a failing point index), in priority order
_Failure = tuple[np.ndarray, Callable[[int], NumericalDomainError]]


def _raise_earliest(failures: list[_Failure]):
    """Raise the error of the earliest flagged grid point; at one point the
    first entry of ``failures`` that flags it wins."""
    flags = np.array([f for f, _ in failures])
    hit = np.flatnonzero(flags.any(axis=0))
    if hit.size:
        k = int(hit[0])
        raise failures[int(np.argmax(flags[:, k]))][1](k)


def _frame_failures(kets, bras, energies, times, matrix) -> list[_Failure]:
    n = kets.shape[-1]
    eye = np.eye(n)
    with np.errstate(invalid="ignore", over="ignore"):
        bi_res = np.max(np.abs(bras @ kets - eye), axis=(-2, -1))
        complete_res = np.max(np.abs(kets @ bras - eye), axis=(-2, -1))
    failures: list[_Failure] = [(
        (bi_res > _BIORTHO_TOL) | (complete_res > _BIORTHO_TOL),
        lambda k: ExceptionalPointError(
            f"biorthogonal frame validation failed at t={times[k]:g} "
            f"(biorthonormality residual {bi_res[k]:.3e}, completeness residual "
            f"{complete_res[k]:.3e}); eigenvector system is numerically degenerate",
            t=float(times[k]),
        ),
    )]
    if matrix is not None:
        with np.errstate(invalid="ignore", over="ignore"):
            right = np.max(np.abs(matrix @ kets - kets * energies[:, None, :]), axis=-2)
            left = np.max(np.abs(bras @ matrix - energies[:, :, None] * bras), axis=-1)
        bad = (right > _EIGEN_RESIDUAL_TOL) | (left > _EIGEN_RESIDUAL_TOL)

        def residual_error(k):
            j = int(np.argmax(bad[k]))
            return ExceptionalPointError(
                f"eigenpair {j} residual too large at t={times[k]:g} "
                f"(right {right[k, j]:.3e}, left {left[k, j]:.3e})",
                t=float(times[k]),
            )

        failures.append((bad.any(axis=-1), residual_error))
    return failures


def _inverse(kets: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(kets)
    except np.linalg.LinAlgError:
        # one singular point fails the whole batched call: invert point by
        # point and leave infinite bras (EP margin 0) where R has no inverse
        bras = np.full_like(kets, np.inf)
        for k, r in enumerate(kets):
            try:
                bras[k] = np.linalg.inv(r)
            except np.linalg.LinAlgError:
                pass
        return bras


def _eig(stack: np.ndarray, gauge: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Complex eigenvalues and right eigenvectors of each matrix of a stack;
    in real arithmetic when the diagonal phases ``gauge`` make every matrix
    exactly real."""
    if gauge is not None:
        gauged = stack * (np.conj(gauge)[:, None] * gauge)
        if not np.any(gauged.imag):
            real = gauged.real.copy()  # a contiguous stack solves faster than the strided view
            del gauged
            w, v = np.linalg.eig(real)
            return w.astype(complex, copy=False), gauge[:, None] * v
    return np.linalg.eig(stack)


def eig_biorthogonal(
    H: np.ndarray,
    reality_policy: str = "report",
    t: float | np.ndarray = 0.0,
    gauge: np.ndarray | None = None,
) -> BiorthogonalFrame:
    """Biorthogonal eigendecomposition of one complex square matrix, or of an
    (M, N, N) stack of them taken at the (M,) times ``t``.

    One batched `np.linalg.eig` gives the right kets; the left bras are the
    rows of inv(R), biorthonormal by construction.  ``gauge`` is an optional
    (N,) vector of diagonal phases d (see `model.real_gauge`): when
    G = D^-1 H D, with D = diag(d), has an imaginary part of exactly zero at
    every point, the solve runs on the real stack G (LAPACK's real routine,
    about twice as fast) and the kets are mapped back as D v.  Otherwise, or
    without a gauge, the complex H is solved as it is.  Everything after
    the solve is the same on both routes and works on the complex H.

    Normalization convention: unit-norm |n> with its largest-magnitude
    component real and positive, and <<n|n> = 1.  Eigenpairs are ordered by
    (Re E, Im E) ascending; continuity tracking may reorder them later.

    Per point, in this order: raises `ExceptionalPointError` when an
    exceptional-point margin 1 / (||<<n|| ||n>||) falls below 1e-8 (defective
    or near-defective input, including a singular R); with reality_policy
    'assert', `ComplexSpectrumError` when any |Im E_n| >= 1e-10 ('report'
    leaves reality to the caller); then
    `ExceptionalPointError` when the frame fails validation.  The earliest
    failing point of a stack is the one reported.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {H.shape}")
    if reality_policy not in ("assert", "report"):
        raise ValueError(f"unknown reality_policy {reality_policy!r}")
    n = H.shape[-1]
    stack = H.reshape(-1, n, n)
    times = np.broadcast_to(np.asarray(t, dtype=float), stack.shape[:1])

    w, vr = _eig(stack, gauge)
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    vr = np.take_along_axis(vr, order[:, None, :], axis=-1)
    pivot = np.take_along_axis(vr, np.argmax(np.abs(vr), axis=-2)[:, None, :], axis=-2)
    kets = vr * (np.abs(pivot) / pivot)
    bras = _inverse(kets)
    # infinite bras of a singular R, or norms that overflow, give margin 0
    with np.errstate(over="ignore", invalid="ignore"):
        margins = 1.0 / (np.linalg.norm(bras, axis=-1) * np.linalg.norm(kets, axis=-2))

    worst = margins.min(axis=-1)
    failures: list[_Failure] = [(
        worst < EP_OVERLAP_TOL,
        lambda k: ExceptionalPointError(
            f"raw left-right overlap {worst[k]:.3e} below {EP_OVERLAP_TOL:.0e} at t={times[k]:g}: "
            "matrix is defective or near an exceptional point",
            t=float(times[k]),
        ),
    )]
    if reality_policy == "assert":
        worst_im = np.max(np.abs(w.imag), axis=-1)
        failures.append((
            worst_im >= REALITY_TOL,
            lambda k: ComplexSpectrumError(
                f"spectrum has |Im E| = {worst_im[k]:.3e} >= {REALITY_TOL:.0e} at t={times[k]:g} "
                "under reality_policy='assert'",
                t=float(times[k]),
            ),
        ))
    failures += _frame_failures(kets, bras, w, times, stack)
    _raise_earliest(failures)

    if H.ndim == 2:
        return BiorthogonalFrame(float(times[0]), w[0], kets[0], bras[0], margins[0])
    return BiorthogonalFrame(times.copy(), w, kets, bras, margins)


def branch_permutations(best: np.ndarray) -> np.ndarray:
    """Compose per-step matches into branch labels along the grid.

    ``best[k - 1, i]`` is the raw index at point k matched to raw index i at
    point k - 1.  Returns ``perm`` of shape (len(best) + 1, N) with
    perm[k, m] = raw index at point k of the branch that starts as m, i.e.
    perm[0] = identity and perm[k] = best[k - 1, perm[k - 1]].  perm only
    changes where best[k - 1] is not the identity, so only those steps are
    composed one by one; the runs between them are filled by slices.
    """
    identity = np.arange(best.shape[-1])
    perm = np.empty((len(best) + 1, len(identity)), dtype=int)
    current, start = identity, 0
    for k in np.flatnonzero(np.any(best != identity, axis=-1)) + 1:
        perm[start:k] = current
        current = best[k - 1, current]
        start = k
    perm[start:] = current
    return perm


def track_continuity(frame: BiorthogonalFrame) -> BiorthogonalFrame:
    """Align every point of a frame stack with its (already aligned) predecessor.

    The eigenpairs at point k are re-ordered so index n maximizes
    |<<n_{k-1}|n_k>|, then re-phased so that overlap is real and positive.
    Matching is by eigenvector overlap, not by eigenvalue sorting, so
    branches may cross in E without losing their identity.  All consecutive
    overlaps of the raw frames come from one batched product; re-ordering
    and re-phasing a point only permutes and rotates those overlaps, so the
    per-step permutations and phases are composed along the grid afterwards.

    Raises `AmbiguousMatchError` at the earliest point where the assignment
    is not a unique permutation (two candidate overlaps within 1e-6 of each
    other, or two rows claiming the same column).  When the spectrum is real
    at the previous point and not at that point, the message says that an
    exceptional point was crossed between the two.
    """
    kets, bras, energies = frame.right_kets, frame.left_bras, frame.energies
    m, n = energies.shape
    times = np.broadcast_to(np.asarray(frame.t, dtype=float), (m,))

    overlaps = bras[:-1] @ kets[1:]  # [k - 1, i, j] = <<i_{k-1}|j_k>, raw indices
    mags = np.abs(overlaps)
    best = np.argmax(mags, axis=-1)
    ranked = np.sort(mags, axis=-1)
    runner_up = ranked[..., -2] if n > 1 else np.zeros_like(ranked[..., 0])
    ambiguous = ranked[..., -1] - runner_up < AMBIGUITY_TOL
    not_perm = np.any(np.sort(best, axis=-1) != np.arange(n), axis=-1)
    bad = np.flatnonzero(ambiguous.any(axis=-1) | not_perm)

    stop = int(bad[0]) + 1 if bad.size else m
    perm = branch_permutations(best[: stop - 1])
    if bad.size:
        k = stop
        rows = perm[k - 1]
        worst_im = np.max(np.abs(energies[k - 1 : k + 1].imag), axis=-1)
        crossing = ""
        if worst_im[0] < REALITY_TOL <= worst_im[1]:
            crossing = (
                f"; the spectrum left the real axis between t={times[k - 1]:g} and t={times[k]:g}, "
                f"so an exceptional point was crossed between grid points (max |Im E| = "
                f"{worst_im[1]:.3e} at t={times[k]:g})"
            )
        if ambiguous[k - 1, rows].any():
            j = int(np.argmax(ambiguous[k - 1, rows]))
            i = rows[j]
            raise AmbiguousMatchError(
                f"continuity match for eigenpair {j} at t={times[k]:g} is ambiguous "
                f"(best {ranked[k - 1, i, -1]:.3e} vs runner-up {runner_up[k - 1, i]:.3e}){crossing}",
                t=float(times[k]),
            )
        raise AmbiguousMatchError(
            f"continuity matching at t={times[k]:g} is not a permutation: "
            f"{best[k - 1, rows].tolist()}{crossing}",
            t=float(times[k]),
        )

    chosen = overlaps[np.arange(m - 1)[:, None], perm[:-1], perm[1:]]
    phases = np.cumprod(np.concatenate([np.ones((1, n)), np.conj(chosen) / np.abs(chosen)]), axis=0)
    phases /= np.abs(phases)
    return BiorthogonalFrame(
        t=frame.t,
        energies=np.take_along_axis(energies, perm, axis=-1),
        right_kets=np.take_along_axis(kets, perm[:, None, :], axis=-1) * phases[:, None, :],
        left_bras=np.take_along_axis(bras, perm[:, :, None], axis=-2) * np.conj(phases)[:, :, None],
        raw_overlaps=np.take_along_axis(frame.raw_overlaps, perm, axis=-1),
    )
