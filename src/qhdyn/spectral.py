"""Biorthogonal eigensystems of non-Hermitian matrices, tracked along a grid.

An N x N diagonalizable matrix H owns N eigenvalue doublets: right kets
H|n> = E_n|n> and left bras <<n|H = E_n<<n|, normalized to <<m|n> = delta_mn
with completeness sum_n |n><<n| = I.  Near an exceptional point a left-right
pair becomes orthogonal and the construction degenerates; that is detected via
the raw overlap magnitude, not via Jordan-form analysis.

H_gen exists only while H is quasi-Hermitian, so `eig_biorthogonal` rejects a
complex spectrum (|Im E| >= `REALITY_TOL`) at its first grid point, saying
that an exceptional point was crossed at or before it.

Both entry points work on a block of grid points at once: `eig_biorthogonal`
takes an (M, N, N) stack of matrices and returns a frame of stacked arrays,
and `track_continuity` aligns every point of such a stack with its predecessor.
Failures are reported for the earliest grid point that has one, so a stack
raises the same error a point-by-point sweep of the grid would raise first.
A 2 x 2 H is solved in closed form; a moving H of N >= 3 goes to LAPACK at
its first point alone, and each later block is refined from the frame before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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

# Newton refinement: sweep until no ket moves by more than rounding, or give up after this many
_REFINE_TOL = 64 * np.finfo(float).eps
_REFINE_SWEEPS = 6


@dataclass(frozen=True)
class BiorthogonalFrame:
    """Eigenvalue doublets of one matrix, or of a stack of M matrices.

    t             time of the matrix, or (M,) times of the stack
    energies      (..., N) eigenvalues E_n (real, like the kets and bras, for a real frame)
    right_kets    (..., N, N), column n is |n>
    left_bras     (..., N, N), row n is <<n|
    continuation  what `track_continuity` needs to go on past the last point
    """

    t: float | np.ndarray
    energies: np.ndarray
    right_kets: np.ndarray
    left_bras: np.ndarray
    continuation: Continuation | None = field(default=None, compare=False, repr=False)


class Continuation(NamedTuple):
    """A tracked block's last raw kets and bras (N, N), branch labels and unnormalized phases."""

    kets: np.ndarray
    bras: np.ndarray
    perm: np.ndarray
    phases: np.ndarray


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, formed in ``out`` (which must not overlap ``a`` or ``b``) when given.  A complex product
    of contraction length 2 between matrices or stacks is two broadcast multiplies and an add: numpy's
    matmul makes one BLAS call per 2 x 2 complex matrix, several times slower over a stack.  Every other
    product, real or of N >= 3, where BLAS is the faster, is `np.matmul` itself."""
    if a.ndim < 2 or b.ndim < 2 or not a.shape[-1] == b.shape[-2] == 2 or "c" not in a.dtype.kind + b.dtype.kind:
        return np.matmul(a, b, out=out)
    product = np.multiply(a[..., :, 0, None], b[..., None, 0, :], out=out)
    product += a[..., :, 1, None] * b[..., None, 1, :]
    return product


def _frame_residuals(kets, bras, energies, matrix, whole: bool = False) -> list[np.ndarray]:
    """Max-norm residuals of a frame stack, all formed in one product buffer:
    the (M,) biorthonormality and completeness residuals ||<<m|n> - I|| and
    ||sum_n |n><<n| - I||, then the (M, N) right and left eigen-residuals of
    each pair against the ``matrix`` stack; with ``whole``, the four maxima over the stack."""
    product = np.empty(kets.shape, dtype=np.result_type(kets, bras, energies, matrix))

    def worst(a, b, minus, axis):
        matmul(a, b, out=product)
        np.subtract(product, minus, out=product)
        return np.max(np.abs(product), axis=None if whole else axis, initial=0.0)

    eye = np.eye(kets.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        return [
            worst(bras, kets, eye, (-2, -1)),
            worst(kets, bras, eye, (-2, -1)),
            worst(matrix, kets, kets * energies[:, None, :], -2),
            worst(bras, matrix, energies[:, :, None] * bras, -1),
        ]


def _frame_error(kets, bras, energies, times, matrix) -> NumericalDomainError | None:
    """The error of the earliest point of a frame stack that fails a check, or None.  At one point the first
    failing check wins, in this order: the exceptional-point margin, a complex energy, biorthonormality and
    completeness, the eigen-residuals.  Infinite or NaN bras, or norms that overflow, give margin 0; a NaN
    energy or residual fails.  The whole stack's maxima are tested first, each point's only if one fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        margins = 1.0 / (np.linalg.norm(bras, axis=-1) * np.linalg.norm(kets, axis=-2))
    imag = np.abs(energies.imag)
    # each comparison is False for NaN, which so fails it
    if margins.min(initial=np.inf) >= EP_OVERLAP_TOL and imag.max(initial=0.0) < REALITY_TOL:
        whole = _frame_residuals(kets, bras, energies, matrix, whole=True)
        if np.all(np.less_equal(whole, [_BIORTHO_TOL, _BIORTHO_TOL, _EIGEN_RESIDUAL_TOL, _EIGEN_RESIDUAL_TOL])):
            return None
    worst, worst_im = margins.min(axis=-1), imag.max(axis=-1)
    worst[np.isnan(worst)] = 0.0
    bi_res, complete_res, right, left = _frame_residuals(kets, bras, energies, matrix)
    bad = ~(right <= _EIGEN_RESIDUAL_TOL) | ~(left <= _EIGEN_RESIDUAL_TOL)
    near_ep, complex_energy = worst < EP_OVERLAP_TOL, ~(worst_im < REALITY_TOL)
    degenerate = ~(bi_res <= _BIORTHO_TOL) | ~(complete_res <= _BIORTHO_TOL)
    k = int(np.flatnonzero(near_ep | complex_energy | degenerate | bad.any(axis=-1))[0])  # one fails, as a maximum did
    t = float(times[k])
    if near_ep[k]:
        return ExceptionalPointError(
            f"raw left-right overlap {worst[k]:.3e} below {EP_OVERLAP_TOL:.0e} at t={t:g}: "
            "matrix is defective or near an exceptional point", t=t)
    if complex_energy[k]:
        return ComplexSpectrumError(
            f"spectrum has |Im E| = {worst_im[k]:.3e} >= {REALITY_TOL:.0e} at t={t:g}; "
            "an exceptional point was crossed at or before this grid point", t=t)
    if degenerate[k]:
        return ExceptionalPointError(
            f"biorthogonal frame validation failed at t={t:g} (biorthonormality residual {bi_res[k]:.3e}, "
            f"completeness residual {complete_res[k]:.3e}); eigenvector system is numerically degenerate", t=t)
    j = int(np.argmax(bad[k]))
    return ExceptionalPointError(
        f"eigenpair {j} residual too large at t={t:g} (right {right[k, j]:.3e}, left {left[k, j]:.3e})", t=t)


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


def eig_biorthogonal(H: np.ndarray, t: float | np.ndarray = 0.0,
                     start: Continuation | None = None) -> BiorthogonalFrame:
    """Biorthogonal eigendecomposition of one square matrix, or of an
    (M, N, N) stack of them taken at the (M,) times ``t``.

    N = 2 is solved in closed form (`_closed_form`), a stack of N >= 3 refined (`_refined`)
    from ``start``, the `continuation` of the block before, or else from LAPACK's frame of its
    first point.  The rest, and a stack of either route that fails a check below (or is not at
    rounding after `_REFINE_SWEEPS` sweeps), go to one batched `np.linalg.eig`, with inv(R) for
    the bras (LAPACK).  Every step follows the dtype of the input: a real stack gives a real
    frame (a complex pair of it is rejected below), a complex stack a complex one.

    Normalization convention: unit-norm |n> and <<n|n> = 1, for the matrix
    handed in (`dressing.build_dressing_track` hands in D* H D and carries the
    convention back to H).  LAPACK's and the closed form's |n> has its largest component
    real and positive, in (Re E, Im E) ascending order; refined kets keep the start's
    raw order and phases.  Continuity tracking may reorder them later.

    Per point, in this order: raises `ExceptionalPointError` when an
    exceptional-point margin 1 / (||<<n|| ||n>||) falls below 1e-8 (defective
    or near-defective input, including a singular R); `ComplexSpectrumError`
    when any |Im E_n| >= 1e-10, saying that an exceptional point was crossed
    at or before that point; then `ExceptionalPointError` when the frame
    fails validation.  The earliest failing point of a stack is the one
    reported, always from the LAPACK route: no other route raises.
    """
    H = np.asarray(H)
    H = H.astype(np.result_type(H, float), copy=False)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {H.shape}")
    n = H.shape[-1]
    stack = H.reshape(-1, n, n)
    times = np.broadcast_to(np.asarray(t, dtype=float), stack.shape[:1])

    solved = _closed_form(stack) if n == 2 else None
    if solved and _frame_error(*solved, times, stack) is not None:  # as any non-finite entry makes one fail
        solved = None
    if H.ndim == 3 and n >= 3 and len(stack) > (start is None):
        if start is None:  # LAPACK's frame of the first point, and the rest refined from it
            head = _lapack(stack[:1], times[:1])
            rest = _refined(stack[1:], times[1:], head[0][0], head[1][0])
            solved = rest and tuple(map(np.concatenate, zip(head, rest)))
        else:
            solved = _refined(stack, times, start.kets, start.bras)
    kets, bras, w = solved or _lapack(stack, times)

    if H.ndim == 2:
        return BiorthogonalFrame(float(times[0]), w[0], kets[0], bras[0])
    return BiorthogonalFrame(times.copy(), w, kets, bras)


def _lapack(stack: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kets, bras, energies) of a stack by one batched `np.linalg.eig`; raises at its earliest failing point."""
    w, vr = np.linalg.eig(stack)
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    vr = np.take_along_axis(vr, order[:, None, :], axis=-1)
    pivot = np.take_along_axis(vr, np.argmax(np.abs(vr), axis=-2)[:, None, :], axis=-2)
    vr *= np.abs(pivot) / pivot
    bras = _inverse(vr)
    error = _frame_error(vr, bras, w, times, stack)
    if error is not None:
        raise error
    return vr, bras, w


def _closed_form(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kets, bras, energies) of a 2 x 2 stack in `_lapack`'s convention, unchecked.  For [[a, b], [c, d]],
    h = (a - d) / 2 and s = sqrt(h^2 + bc) with Re(h* s) >= 0, q = h + s has no cancellation: E = m -+ s
    about m = (a + d) / 2 have the kets (b, -q) and (q, c); the bras are their exact 2 x 2 inverse."""
    a, b, c, d = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = 0.5 * (a - d)
        s = np.sqrt(h * h + b * c)
        s = np.where((np.conj(h) * s).real < 0, -s, s)
        q, m = h + s, 0.5 * (a + d)
        # energies, ket and bra components (M, 2), the branches along the last axis in (Re E, Im E) order;
        # the pivot, the larger ket component (the first on a tie), is made exactly real and positive
        lo, hi = m - s, m + s
        swap = (hi.real < lo.real) | ((hi.real == lo.real) & (hi.imag < lo.imag))
        pair = lambda x, y: np.where(swap[:, None], np.stack([y, x], axis=-1), np.stack([x, y], axis=-1))
        w, top, bottom = pair(lo, hi), pair(b, q), pair(-q, c)
        big, small = np.abs(top), np.abs(bottom)
        first, size, norm = ~(small > big), np.maximum(big, small), np.hypot(big, small)
        scale = np.conj(np.where(first, top, bottom)) / (size * norm)
        kets = np.stack([np.where(first, size / norm, top * scale), np.where(first, bottom * scale, size / norm)], -2)
        # the bras are the adjugate of these kets over their determinant, so that L R = I to rounding
        bras = np.stack([kets[:, ::-1, 1], kets[:, ::-1, 0]], axis=-2) * [[1.0, -1.0], [-1.0, 1.0]]
        bras /= (kets[:, 0, 0] * kets[:, 1, 1] - kets[:, 0, 1] * kets[:, 1, 0])[:, None, None]
    return kets, bras, w


def _refined(stack: np.ndarray, times: np.ndarray, kets: np.ndarray, bras: np.ndarray):
    """(kets, bras, energies) of a stack refined from the frame (N, N) of a nearby matrix, or None if a
    ket still moves by more than `_REFINE_TOL` after `_REFINE_SWEEPS` sweeps or a point fails a check.
    One sweep over the stack G: X = L G R, E = diag X, P_mn = X_mn / (E_n - E_m) (P_nn = 0),
    R <- R + R P, L <- L - P L, and L <- 2L - L R L keeps L = R^-1 without an inverse."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    kets, bras = np.broadcast_to(kets, stack.shape), np.broadcast_to(bras, stack.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_REFINE_SWEEPS):
            x = bras @ stack @ kets
            w = np.diagonal(x, axis1=-2, axis2=-1)
            p = np.where(off, x / (w[..., None, :] - w[..., :, None]), 0.0)
            if np.max(np.abs(p)) <= _REFINE_TOL:
                norms = np.linalg.norm(kets, axis=-2)
                solved = kets / norms[..., None, :], bras * norms[..., :, None], w.copy()
                return solved if _frame_error(*solved, times, stack) is None else None
            kets, bras = kets + kets @ p, bras - p @ bras
            bras = 2.0 * bras - bras @ kets @ bras


def branch_permutations(best: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """Compose per-step matches into branch labels along the grid.

    ``best[k - 1, i]`` is the raw index at point k matched to raw index i at
    point k - 1.  Returns ``perm`` of shape (len(best) + 1, N) with
    perm[k, m] = raw index at point k of the branch that starts as m, i.e.
    perm[0] = ``first`` (or identity) and perm[k] = best[k - 1, perm[k - 1]].
    perm only changes where best[k - 1] is not the identity, so only those
    steps are composed one by one; the runs between them are filled by slices.
    """
    identity = np.arange(best.shape[-1])
    perm = np.empty((len(best) + 1, len(identity)), dtype=int)
    current, start = identity if first is None else first, 0
    for k in np.flatnonzero(np.any(best != identity, axis=-1)) + 1:
        perm[start:k] = current
        current = best[k - 1, current]
        start = k
    perm[start:] = current
    return perm


def track_continuity(frame: BiorthogonalFrame, start: Continuation | None = None) -> BiorthogonalFrame:
    """Align every point of a frame stack with its (already aligned) predecessor.

    The eigenpairs at point k are re-ordered so index n maximizes
    |<<n_{k-1}|n_k>|, then re-phased so that overlap is real and positive.
    Matching is by eigenvector overlap, not by eigenvalue sorting, so
    branches may cross in E without losing their identity.  All consecutive
    overlaps of the raw frames come from one batched product; re-ordering
    and re-phasing a point only permutes and rotates those overlaps, so the
    per-step permutations and phases are composed along the grid afterwards.
    The first point keeps its raw order and phases, unless ``start`` (the
    `continuation` of the block before) gives its predecessor; a grid tracked
    block by block is then the grid tracked in one call, bit for bit.  A block
    in which every raw point keeps the raw order of the point before (each
    diagonal |overlap| beats the rest of its row by 1e-6, as in a refined
    block) keeps the carried labels, with no sort and no composition.

    Raises `AmbiguousMatchError` at the earliest point where the assignment
    is not a unique permutation (two candidate overlaps within 1e-6 of each
    other, or two rows claiming the same column).  Every frame it is handed
    has a real spectrum (`eig_biorthogonal` rejects any other), so such a
    point is a near-degeneracy of the eigenvectors, not a reality loss.
    """
    kets, bras, energies = frame.right_kets, frame.left_bras, frame.energies
    m, n = energies.shape
    times = np.broadcast_to(np.asarray(frame.t, dtype=float), (m,))
    first = int(start is None)  # the first point matched to a predecessor
    start = start or Continuation(kets[0], bras[0], np.arange(n), np.ones(n))
    # [s, i, j] = <<i|j> from the raw point before point first + s to that point
    overlaps = np.concatenate([matmul(start.bras, kets[first : first + 1]), matmul(bras[first:-1], kets[first + 1 :])])
    mags = np.abs(overlaps)
    # each raw point matched to the same raw index before it by the full match's margin (a NaN fails; as
    # rounding is monotone, d - m >= tol for every off-diagonal m of a row is d - max(m) >= tol): the
    # carried labels then hold for the whole block, as the full match below would find
    if np.all((np.diagonal(mags, axis1=-2, axis2=-1)[..., None] - mags >= AMBIGUITY_TOL) | np.eye(n, dtype=bool)):
        chosen, perm = overlaps[:, start.perm, start.perm], np.broadcast_to(start.perm, (m - first + 1, n))
    else:
        best = np.argmax(mags, axis=-1)
        ranked = np.sort(mags, axis=-1)
        runner_up = ranked[..., -2] if n > 1 else np.zeros_like(ranked[..., 0])
        ambiguous = ranked[..., -1] - runner_up < AMBIGUITY_TOL
        not_perm = np.any(np.sort(best, axis=-1) != np.arange(n), axis=-1)
        bad = np.flatnonzero(ambiguous.any(axis=-1) | not_perm)
        s = int(bad[0]) if bad.size else m - first
        perm = branch_permutations(best[:s], start.perm)
        if bad.size:
            k, rows = first + s, perm[s]
            if ambiguous[s, rows].any():
                j = int(np.argmax(ambiguous[s, rows]))
                i = rows[j]
                raise AmbiguousMatchError(
                    f"continuity match for eigenpair {j} at t={times[k]:g} is ambiguous "
                    f"(best {ranked[s, i, -1]:.3e} vs runner-up {runner_up[s, i]:.3e})",
                    t=float(times[k]),
                )
            raise AmbiguousMatchError(
                f"continuity matching at t={times[k]:g} is not a permutation: "
                f"{best[s, rows].tolist()}",
                t=float(times[k]),
            )
        chosen = overlaps[np.arange(m - first)[:, None], perm[:-1], perm[1:]]
        del ranked
    del overlaps, mags  # free the overlap stacks before the frame is re-ordered
    phases = np.cumprod(np.concatenate([start.phases[None], np.conj(chosen) / np.abs(chosen)]), axis=0)
    continuation = Continuation(kets[-1].copy(), bras[-1].copy(), perm[-1].copy(), phases[-1].copy())
    phases /= np.abs(phases)
    perm, phases = perm[1 - first :], phases[1 - first :]  # the rows of this frame's points
    tracked_kets = np.take_along_axis(kets, perm[:, None, :], axis=-1)
    tracked_kets *= phases[:, None, :]
    tracked_bras = np.take_along_axis(bras, perm[:, :, None], axis=-2)
    tracked_bras *= np.conj(phases)[:, :, None]
    return BiorthogonalFrame(
        t=frame.t,
        energies=np.take_along_axis(energies, perm, axis=-1),
        right_kets=tracked_kets,
        left_bras=tracked_bras,
        continuation=continuation,
    )
