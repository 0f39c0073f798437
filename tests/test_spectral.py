import numpy as np
import pytest

from qhdyn import AmbiguousMatchError, ComplexSpectrumError, ExceptionalPointError, HamiltonianModel
from qhdyn.dressing import _gauged
from qhdyn.model import build_hamiltonian, real_gauge
from qhdyn.schedules import ScheduleSpec
from qhdyn.spectral import (
    BiorthogonalFrame,
    _frame_failures,
    _frame_residuals,
    _raise_earliest,
    branch_permutations,
    eig_biorthogonal,
    track_continuity,
)

from conftest import spy_on_eig
from reference import reference_frame_residuals, reference_permutations, reference_track, stack_frames


def assert_frame_relations(frame, H, atol=1e-10):
    n = frame.energies.shape[-1]
    np.testing.assert_allclose(frame.left_bras @ frame.right_kets, np.eye(n), atol=atol)
    np.testing.assert_allclose(frame.right_kets @ frame.left_bras, np.eye(n), atol=atol)
    for k in range(n):
        np.testing.assert_allclose(
            H @ frame.right_kets[:, k], frame.energies[k] * frame.right_kets[:, k], atol=1e-9
        )
        np.testing.assert_allclose(
            frame.left_bras[k] @ H, frame.energies[k] * frame.left_bras[k], atol=1e-9
        )


def test_hermitian_diagonal_gives_canonical_frame():
    H = np.diag([1.0, 2.0]).astype(complex)
    frame = eig_biorthogonal(H)
    np.testing.assert_allclose(frame.energies, [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(frame.right_kets, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(frame.left_bras, np.eye(2), atol=1e-14)


def test_triangular_frame_by_substitution(hand_matrix):
    frame = eig_biorthogonal(hand_matrix)
    np.testing.assert_allclose(frame.energies, [1.0, 2.0], atol=1e-12)
    assert_frame_relations(frame, hand_matrix)
    # first eigenvector is canonical; the second is (1,1)/sqrt(2) in the
    # unit-norm, real-positive-pivot gauge
    np.testing.assert_allclose(frame.right_kets[:, 0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(frame.right_kets[:, 1], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)


def test_exceptional_point_raises():
    H = np.array([[1j, 1.0], [1.0, -1j]])
    with pytest.raises(ExceptionalPointError, match="overlap"):
        eig_biorthogonal(H)


def _similar_to_real_diagonal(rng, shape):
    """Random S diag(E) S^-1 of the given (..., N, N) shape, complex S and real E: a
    general non-Hermitian matrix with a real spectrum."""
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (s * rng.uniform(-3.0, 3.0, shape[:-1])[..., None, :]) @ np.linalg.inv(s)


def test_reconstruction_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        H = _similar_to_real_diagonal(rng, (5, 5))
        frame = eig_biorthogonal(H)
        reconstructed = frame.right_kets @ np.diag(frame.energies) @ frame.left_bras
        np.testing.assert_allclose(reconstructed, H, atol=1e-9)


def test_hermitian_left_equals_right_dagger():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = a + a.conj().T
    frame = eig_biorthogonal(H)
    np.testing.assert_allclose(frame.left_bras, frame.right_kets.conj().T, atol=1e-10)


def test_completeness_for_families():
    models = [
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0}),
        HamiltonianModel(2, "pt2", {"gamma": 0.5, "s": 1.0}),
        HamiltonianModel(4, "similarity-rand", {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7}),
        HamiltonianModel(4, "cubic-trunc", {"g": 0.1}),
    ]
    for model in models:
        H = build_hamiltonian(model, 0.0)
        frame = eig_biorthogonal(H)
        assert_frame_relations(frame, H)


def test_track_identity():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    frame = eig_biorthogonal(H)
    tracked = track_continuity(stack_frames(frame, frame))
    np.testing.assert_array_equal(tracked.energies[1], frame.energies)
    np.testing.assert_allclose(tracked.right_kets[1], frame.right_kets, atol=1e-15)
    np.testing.assert_allclose(tracked.left_bras[1], frame.left_bras, atol=1e-15)


def test_track_undoes_index_swap(hand_matrix):
    frame = eig_biorthogonal(hand_matrix)
    swap = [1, 0]
    swapped = BiorthogonalFrame(
        t=frame.t,
        energies=frame.energies[swap],
        right_kets=frame.right_kets[:, swap],
        left_bras=frame.left_bras[swap, :],
    )
    tracked = track_continuity(stack_frames(frame, swapped))
    np.testing.assert_allclose(tracked.energies[1], frame.energies, atol=1e-14)
    np.testing.assert_allclose(tracked.right_kets[1], frame.right_kets, atol=1e-14)


def test_track_fixes_phases():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    frame = eig_biorthogonal(H)
    z = np.exp(0.7j)
    rotated = BiorthogonalFrame(
        t=frame.t,
        energies=frame.energies.copy(),
        right_kets=frame.right_kets * z,
        left_bras=frame.left_bras * np.conj(z),
    )
    tracked = track_continuity(stack_frames(frame, rotated))
    for k in range(2):
        overlap = frame.left_bras[k] @ tracked.right_kets[1][:, k]
        assert overlap.real > 0
        assert abs(overlap.imag) < 1e-12


def _pt2_frames(gammas):
    hams = [
        build_hamiltonian(
            HamiltonianModel(
                2, "pt2", {"gamma": 0.0, "s": 1.0}, {"gamma": ScheduleSpec("constant", base=gamma)}
            ),
            0.0,
        )
        for gamma in gammas
    ]
    return track_continuity(eig_biorthogonal(np.array(hams), t=np.arange(len(gammas), dtype=float)))


def test_a_continuation_carries_the_last_raw_frame_alone():
    # what the next block is refined from and its first match reads, copied out of this block's stacks
    gammas = [0.0, 0.1, 0.2, 0.3]
    raw = eig_biorthogonal(np.array([[[1j * g, 1.0], [1.0, -1j * g]] for g in gammas]), t=np.arange(4.0))
    whole = track_continuity(raw)
    carried = whole.continuation
    assert carried._fields == ("kets", "bras", "perm", "phases")
    np.testing.assert_array_equal(carried.kets, raw.right_kets[-1])
    np.testing.assert_array_equal(carried.bras, raw.left_bras[-1])
    for a in (carried.kets, carried.bras):
        assert a.shape == (2, 2) and a.base is None
    # a block tracked on from it is the grid tracked in one call
    head, tail = (eig_biorthogonal(np.array([[[1j * g, 1.0], [1.0, -1j * g]] for g in part]), t=times)
                  for part, times in ((gammas[:2], np.arange(2.0)), (gammas[2:], np.arange(2.0, 4.0))))
    rest = track_continuity(tail, track_continuity(head).continuation)
    np.testing.assert_array_equal(rest.right_kets, whole.right_kets[2:])
    np.testing.assert_array_equal(rest.left_bras, whole.left_bras[2:])


def test_pt2_sweep_tracks_two_branches():
    gammas = np.linspace(0.0, 0.9, 101)
    frames = _pt2_frames(gammas)
    lower = frames.energies[:, 0].real
    upper = frames.energies[:, 1].real
    roots = np.sqrt(1.0 - gammas**2)
    np.testing.assert_allclose(lower, -roots, atol=1e-10)
    np.testing.assert_allclose(upper, roots, atol=1e-10)


def test_refined_sweep_keeps_branch_assignment():
    coarse = np.linspace(0.0, 0.9, 51)
    fine = np.linspace(0.0, 0.9, 101)
    frames_coarse = _pt2_frames(coarse)
    frames_fine = _pt2_frames(fine)
    # the fine sweep visits every coarse gamma at even indices; branch
    # assignments must agree there
    for k, energies in enumerate(frames_coarse.energies):
        np.testing.assert_allclose(energies, frames_fine.energies[2 * k], atol=1e-12)


def test_ambiguous_match_rejected():
    # prev frame orthogonal to both candidates: overlaps equal in magnitude
    prev = BiorthogonalFrame(
        t=0.0,
        energies=np.array([1.0 + 0j, 2.0 + 0j]),
        right_kets=np.eye(2, dtype=complex),
        left_bras=np.eye(2, dtype=complex),
    )
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cur = BiorthogonalFrame(
        t=0.1,
        energies=np.array([1.0 + 0j, 2.0 + 0j]),
        right_kets=had.astype(complex),
        left_bras=had.astype(complex).T,
    )
    with pytest.raises(AmbiguousMatchError):
        track_continuity(stack_frames(prev, cur))


def test_validate_rejects_broken_frame(hand_frame, hand_matrix):
    broken = BiorthogonalFrame(
        t=0.0,
        energies=hand_frame.energies,
        right_kets=hand_frame.right_kets,
        left_bras=hand_frame.left_bras * 1.5,
    )
    with pytest.raises(ExceptionalPointError, match="frame validation failed"):
        _raise_earliest(_frame_failures(
            broken.right_kets[None], broken.left_bras[None], broken.energies[None], np.zeros(1), hand_matrix[None]
        ))


OK2 = np.diag([1.0, 2.0]).astype(complex)
EP2 = np.array([[1j, 1.0], [1.0, -1j]])  # pt2 at gamma = s
COMPLEX2 = np.array([[1.2j, 1.0], [1.0, -1.2j]])  # pt2 beyond the exceptional point
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _stack_along(model, times):
    return np.array([build_hamiltonian(model, float(t)) for t in times])


@pytest.mark.parametrize(
    "model",
    [
        HamiltonianModel(
            6,
            "cubic-trunc",
            {"g": 0.05},
            {"g": ScheduleSpec("sinusoidal", base=0.05, amplitude=0.5, frequency=3.0)},
        ),
        HamiltonianModel(
            2, "pt2", {"gamma": 0.0, "s": 1.0}, {"gamma": ScheduleSpec("linear-ramp", base=0.0, rate=0.9)}
        ),
    ],
    ids=["cubic-trunc6", "pt2"],
)
def test_stacked_track_matches_sequential_reference(model):
    times = np.linspace(0.0, 1.0, 201)
    hams = _stack_along(model, times)
    tracked = track_continuity(eig_biorthogonal(hams, t=times))
    reference = reference_track(hams, times)
    for field in ("energies", "right_kets", "left_bras"):
        expected = np.array([getattr(f, field) for f in reference])
        np.testing.assert_allclose(getattr(tracked, field), expected, rtol=0.0, atol=1e-12)


def test_branch_crossing_in_energy_keeps_identity():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    times = np.linspace(0.0, 1.0, 20)  # E_1 = 2t crosses E_2 = 1 between grid points
    hams = np.array([s @ np.diag([2.0 * t, 1.0, 3.0]) @ np.linalg.inv(s) for t in times])
    # LAPACK orders by energy, so the two branches trade places
    np.testing.assert_allclose(eig_biorthogonal(hams[-1]).energies.real, [1.0, 2.0, 3.0], atol=1e-10)
    tracked = track_continuity(eig_biorthogonal(hams, t=times))
    np.testing.assert_allclose(tracked.energies[:, 0].real, 2.0 * times, atol=1e-10)
    np.testing.assert_allclose(tracked.energies[:, 1].real, 1.0, atol=1e-10)
    # each tracked ket stays on its own eigenvector line, the column of S
    unit = s / np.linalg.norm(s, axis=0)
    for kets in tracked.right_kets:
        np.testing.assert_allclose(np.abs(np.sum(unit.conj() * kets, axis=0)), 1.0, atol=1e-10)
    expected = np.array([f.energies for f in reference_track(hams, times)])
    np.testing.assert_allclose(tracked.energies, expected, atol=1e-12)


def test_degenerate_match_raises_like_reference():
    hams = np.array([OK2, HADAMARD @ OK2 @ HADAMARD])
    times = np.array([0.0, 0.1])
    with pytest.raises(AmbiguousMatchError, match="t=0.1"):
        track_continuity(eig_biorthogonal(hams, t=times))
    with pytest.raises(AmbiguousMatchError):
        reference_track(hams, times)


def test_stack_reports_its_earliest_failing_point():
    times = [0.0, 1.0, 2.0]
    with pytest.raises(ComplexSpectrumError, match="at t=1; an exceptional point was crossed at or before"):
        eig_biorthogonal(np.array([OK2, COMPLEX2, EP2]), t=times)
    with pytest.raises(ExceptionalPointError, match="t=1"):
        eig_biorthogonal(np.array([OK2, EP2, COMPLEX2]), t=times)


def test_exceptional_point_outranks_complex_spectrum_at_one_point():
    defective_complex = np.array([[1.0 + 1.0j, 1.0], [0.0, 1.0 + 1.0j]])
    with pytest.raises(ExceptionalPointError, match="t=0.5"):
        eig_biorthogonal(np.array([OK2, defective_complex]), t=[0.0, 0.5])


def test_singular_eigenvector_matrix_is_an_exceptional_point():
    # LAPACK returns an exactly singular R for this nilpotent Jordan block
    jordan = np.diag([1.0, 1.0], 1).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.linalg.eig(jordan)[1])
    with pytest.raises(ExceptionalPointError, match="overlap .* at t=0.5:"):
        eig_biorthogonal(np.array([np.diag([1.0, 2.0, 3.0]), jordan]), t=[0.0, 0.5])
    with pytest.raises(ExceptionalPointError, match="overlap .* at t=0:"):
        eig_biorthogonal(jordan)


def _swept_energies(times, crossing):
    """3x3 S diag(E(t)) S^-1; with ``crossing`` E_1 oscillates across both
    other levels (eight crossings on [0, 1]), else it stays below them."""
    e1 = 2.0 + 1.8 * np.sin(4.0 * np.pi * times) if crossing else 0.5 + 0.3 * np.sin(4.0 * np.pi * times)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return np.array([s @ np.diag([e, 1.0, 3.0]) @ np.linalg.inv(s) for e in e1])


@pytest.mark.parametrize("crossing", [True, False], ids=["crossings", "no-crossing"])
def test_branch_permutations_equal_stepwise_composition(crossing):
    times = np.linspace(0.0, 1.0, 301)
    raw = eig_biorthogonal(_swept_energies(times, crossing), t=times)
    best = np.argmax(np.abs(raw.left_bras[:-1] @ raw.right_kets[1:]), axis=-1)
    perm = branch_permutations(best)
    expected = reference_permutations(best)
    np.testing.assert_array_equal(perm, expected)
    changes = np.count_nonzero(np.any(expected[1:] != expected[:-1], axis=-1))
    assert changes == (8 if crossing else 0)
    # the tracked frame is the raw frame relabelled by exactly this perm
    tracked = track_continuity(raw)
    np.testing.assert_array_equal(tracked.energies, np.take_along_axis(raw.energies, expected, axis=-1))


def test_branch_permutations_of_random_matches():
    rng = np.random.default_rng(8)
    n = 4
    best = np.tile(np.arange(n), (500, 1))
    for k in rng.choice(500, size=40, replace=False):
        best[k] = rng.permutation(n)
    np.testing.assert_array_equal(branch_permutations(best), reference_permutations(best))
    np.testing.assert_array_equal(branch_permutations(best[:0]), [np.arange(n)])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_real_gauge_route_matches_complex_route(n, monkeypatch):
    model = HamiltonianModel(
        n, "cubic-trunc", {"g": 0.02}, {"g": ScheduleSpec("sinusoidal", base=0.02, amplitude=0.4, frequency=3.0)}
    )
    times = np.linspace(0.0, 1.0, 201)
    hams = build_hamiltonian(model, times)
    d = real_gauge(model)
    solved = spy_on_eig(monkeypatch)
    real = track_continuity(eig_biorthogonal(_gauged(hams, d), t=times))
    full = track_continuity(eig_biorthogonal(hams, t=times))
    # at N >= 3 LAPACK solves the first point alone, and the rest is refined from it
    points = len(times) if n == 2 else 1
    assert solved == [(np.float64, points), (np.complex128, points)]
    # a real spectrum comes out of the real solve with no imaginary rounding,
    # and the whole frame of G = D* H D stays real
    for field in ("energies", "right_kets", "left_bras"):
        assert getattr(real, field).dtype == np.float64
    # H's frame is D R and L D*.  The pivot convention holds for G's kets, so
    # each branch differs from H's own convention by the constant phase
    # conj(d) at its first pivot, which continuity tracking carries along
    z = np.conj(d[np.argmax(np.abs(real.right_kets[0]), axis=0)])
    kets = d[:, None] * real.right_kets * z
    bras = real.left_bras * np.conj(d) * np.conj(z)[:, None]
    for got, field in ((real.energies, "energies"), (kets, "right_kets"), (bras, "left_bras")):
        np.testing.assert_allclose(got, getattr(full, field), rtol=0.0, atol=1e-12)


def test_gauge_that_leaves_an_imaginary_part_falls_back(monkeypatch):
    cubic = HamiltonianModel(4, "cubic-trunc", {"g": 0.1})
    hams = build_hamiltonian(cubic, np.zeros(3))
    hams[1, 2, 0] += 1e-13j  # even offset: stays imaginary under the gauge
    pt2 = build_hamiltonian(HamiltonianModel(2, "pt2", {"gamma": 0.3, "s": 1.0}), np.zeros(1))
    solved = spy_on_eig(monkeypatch)
    for stack, d in ((hams, real_gauge(cubic)), (pt2, 1j ** np.arange(2))):
        gauged = _gauged(stack, d)
        assert gauged.tobytes() == (stack * (np.conj(d)[:, None] * d)).tobytes()
        frame, plain = eig_biorthogonal(gauged), eig_biorthogonal(stack)
        # a complex frame of G, which the gauge and each branch's pivot phase
        # z = conj(d_p) map onto H's: same spectrum, kets and bras.
        # LAPACK solves G and H as two different inputs, so they agree to
        # rounding (1.7e-15 for this cubic stack), not bit for bit
        np.testing.assert_allclose(frame.energies, plain.energies, rtol=0.0, atol=1e-12)
        z = np.conj(d[np.argmax(np.abs(frame.right_kets), axis=-2)])
        kets = d[:, None] * frame.right_kets * z[..., None, :]
        bras = np.conj(z)[..., :, None] * frame.left_bras * np.conj(d)
        np.testing.assert_allclose(kets, plain.right_kets, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(bras, plain.left_bras, rtol=0.0, atol=1e-12)
    # the N = 4 stacks go to LAPACK at their first point alone
    assert solved == [(np.complex128, 1)] * 4


def test_a_refined_stack_that_fails_a_check_falls_back_to_lapack(monkeypatch):
    # fixed eigenvectors, so the refinement converges at once; from t = 3 one energy
    # leaves the real axis, which only the check on |Im E| catches
    rng = np.random.default_rng(3)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    times = np.arange(6.0)
    hams = np.array([s @ np.diag([1.0, 2.0 + (1e-6j if t >= 3 else 0.0), 3.0]) @ np.linalg.inv(s) for t in times])
    solved = spy_on_eig(monkeypatch)
    with pytest.raises(ComplexSpectrumError, match=r"\|Im E\| = 1\.000e-06 >= 1e-10 at t=3;"):
        eig_biorthogonal(hams, t=times)
    assert solved == [(np.complex128, 1), (np.complex128, 6)]  # the first point, then the whole stack
    start = track_continuity(eig_biorthogonal(hams[:3], t=times[:3])).continuation
    solved.clear()
    with pytest.raises(ComplexSpectrumError, match=r"at t=3;"):
        eig_biorthogonal(hams[3:], t=times[3:], start=start)
    assert solved == [(np.complex128, 3)]


def test_a_real_stack_with_a_complex_pair_is_rejected():
    # the second matrix has the eigenvalues 1 +- 0.5i and 2
    stack = np.array([
        [[1.0, 0.2, 0.0], [0.0, 2.0, 0.3], [0.0, 0.0, 3.0]],
        [[1.0, 0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 2.0]],
    ])
    times = np.array([0.0, 1.0])
    with pytest.raises(ComplexSpectrumError, match=r"\|Im E\| = 5\.000e-01 >= 1e-10 at t=1;"):
        eig_biorthogonal(stack, times)
    # the first matrix alone keeps a real frame
    alone = eig_biorthogonal(stack[0])
    assert alone.right_kets.dtype == alone.left_bras.dtype == alone.energies.dtype == np.float64
    assert_frame_relations(alone, stack[0])


def test_frame_residuals_match_the_pointwise_reference():
    # a perturbed frame of random matrices, so every residual is well above rounding
    rng = np.random.default_rng(4)
    hams = _similar_to_real_diagonal(rng, (70, 4, 4))
    frame = eig_biorthogonal(hams)
    kets = frame.right_kets + 1e-3 * rng.standard_normal(frame.right_kets.shape)
    bras = frame.left_bras + 1e-3 * rng.standard_normal(frame.left_bras.shape)
    got = _frame_residuals(kets, bras, frame.energies, hams)
    expected = reference_frame_residuals(kets, bras, frame.energies, hams)
    assert len(got) == 4
    for g, e in zip(got, expected):
        assert np.min(e) > 1e-6
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=0.0)


def test_moving_track_is_the_tracked_frame_itself(monkeypatch):
    import qhdyn.dressing
    from qhdyn.dressing import _tracked_blocks

    # N = 6 with the lowest level moving: every H is distinct
    times = np.linspace(0.0, 1.0, 301)
    rng = np.random.default_rng(6)
    s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    energies = np.array([[0.2 + 0.5 * t, 1.0, 1.7, 2.4, 3.1, 3.8] for t in times])
    hams = (s * energies[:, None, :]) @ np.linalg.inv(s)
    returned = []

    def spy(frame, start=None):
        returned.append(track_continuity(frame, start))
        return returned[-1]

    monkeypatch.setattr(qhdyn.dressing, "track_continuity", spy)
    blocks = list(_tracked_blocks(lambda t: hams[np.searchsorted(times, t)], times, 6))
    # every H is distinct: no gather copies the continuity-tracked stacks
    assert len(blocks) == 3 and [frame for _, frame in blocks] == returned
    assert all(a is b for (_, a), b in zip(blocks, returned))
    reference = reference_track(hams, times)
    for field in ("energies", "right_kets", "left_bras"):
        expected = np.array([getattr(f, field) for f in reference])
        got = np.concatenate([getattr(frame, field) for _, frame in blocks])
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
