import numpy as np
import pytest

import qhdyn.spectral
from qhdyn import AmbiguousMatchError, ComplexSpectrumError, ExceptionalPointError, HamiltonianModel
from qhdyn.dressing import _gauged
from qhdyn.model import build_hamiltonian, real_gauge
from qhdyn.schedules import ScheduleSpec
from qhdyn.spectral import (
    BiorthogonalFrame,
    _frame_error,
    _frame_residuals,
    _full_match,
    _lapack,
    eig_biorthogonal,
    matmul,
    track_continuity,
)

from conftest import spy_on_closed_form, spy_on_eig
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


@pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3), (2, 2, 2, 2)])
def test_an_input_that_is_not_a_square_matrix_or_a_stack_of_them_is_rejected(shape):
    with pytest.raises(ValueError) as info:
        eig_biorthogonal(np.ones(shape))
    assert str(info.value) == f"expected a square matrix or a stack of them, got shape {shape}"


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
    error = _frame_error(
        broken.right_kets[None], broken.left_bras[None], broken.energies[None], np.zeros(1), hand_matrix[None]
    )
    assert isinstance(error, ExceptionalPointError)
    assert "frame validation failed" in str(error)


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


def test_a_match_that_is_not_a_permutation_names_its_time():
    # both raw kets at t = 1 overlap most with bra 0 at t = 0, each by a clear margin
    kets = np.array([np.eye(2), [[1.0, 0.5], [0.9, 0.1]]], dtype=complex)
    frame = BiorthogonalFrame(np.array([0.0, 1.0]), np.array([[1.0, 2.0]] * 2), kets, np.array([np.eye(2)] * 2))
    with pytest.raises(AmbiguousMatchError) as info:
        track_continuity(frame)
    assert str(info.value) == "continuity matching at t=1 is not a permutation: [0, 0]"
    assert info.value.t == 1.0


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


# (fault, error class, message) in the order the gate ranks them at one point
_RANKED_FAULTS = [
    ("ep-margin", ExceptionalPointError, "raw left-right overlap"),
    ("complex-energy", ComplexSpectrumError, "spectrum has |Im E|"),
    ("biorthonormality", ExceptionalPointError, "biorthogonal frame validation failed"),
    ("eigen-residual", ExceptionalPointError, "eigenpair 0 residual too large"),
]


def _faulty_point(frame, matrix, faults):
    """(kets, bras, energies, matrix) of the hand frame with each named fault put in."""
    kets, bras, energies = frame.right_kets, frame.left_bras, frame.energies
    if "ep-margin" in faults:
        bras = bras * 1e9  # margin 1 / (||<<n|| ||n>||) < 1e-9
    if "complex-energy" in faults:
        energies = energies + 1e-6j
    if "biorthonormality" in faults:
        bras = bras * 1.5
    if "eigen-residual" in faults:
        matrix = matrix + 1e-6 * np.eye(2)
    return kets, bras, energies, matrix


@pytest.mark.parametrize("rank", range(len(_RANKED_FAULTS)), ids=[f for f, _, _ in _RANKED_FAULTS])
def test_frame_error_ranks_the_checks_at_one_point_and_reports_the_earliest(rank, hand_frame, hand_matrix):
    # the point fails this check and every lower-ranked one
    point = _faulty_point(hand_frame, hand_matrix, {fault for fault, _, _ in _RANKED_FAULTS[rank:]})
    _, cls, message = _RANKED_FAULTS[rank]
    clean = _faulty_point(hand_frame, hand_matrix, set())
    kets, bras, energies, matrix = map(np.stack, zip(clean, point))
    error = _frame_error(kets, bras, energies, np.array([0.0, 2.0]), matrix)
    assert type(error) is cls and error.t == 2.0
    assert str(error).startswith(message) and "t=2" in str(error)
    # a point before it that fails only the lowest-ranked check is reported instead
    early = _faulty_point(hand_frame, hand_matrix, {"eigen-residual"})
    kets, bras, energies, matrix = map(np.stack, zip(clean, early, point))
    error = _frame_error(kets, bras, energies, np.array([0.0, 1.0, 2.0]), matrix)
    assert type(error) is ExceptionalPointError and error.t == 1.0
    assert str(error).startswith("eigenpair 0 residual too large at t=1 ")


@pytest.mark.parametrize("field", ["bras", "kets", "energies"])
def test_frame_error_fails_a_frame_of_nans(field, hand_frame, hand_matrix):
    # every comparison with NaN is False: a NaN margin counts as margin 0, a NaN energy or residual fails
    point = {"kets": hand_frame.right_kets, "bras": hand_frame.left_bras, "energies": hand_frame.energies}
    point[field] = np.full_like(point[field], np.nan)
    error = _frame_error(point["kets"][None], point["bras"][None], point["energies"][None], np.zeros(1),
                         hand_matrix[None])
    assert isinstance(error, ExceptionalPointError) and error.t == 0.0
    expected = "eigenpair 0 residual too large" if field == "energies" else "raw left-right overlap 0.000e+00"
    assert str(error).startswith(expected)


@pytest.mark.parametrize("rank", range(len(_RANKED_FAULTS)), ids=[f for f, _, _ in _RANKED_FAULTS])
def test_frame_error_finds_one_failing_point_inside_a_long_stack(rank, hand_frame, hand_matrix):
    # the whole stack's maxima fail, and the point by point checks name the one point
    clean = _faulty_point(hand_frame, hand_matrix, set())
    kets, bras, energies, matrix = (np.array([a] * 600) for a in clean)
    times = np.linspace(0.0, 6.0, 600)
    assert _frame_error(kets, bras, energies, times, matrix) is None
    fault, cls, message = _RANKED_FAULTS[rank]
    kets[357], bras[357], energies[357], matrix[357] = _faulty_point(hand_frame, hand_matrix, {fault})
    error = _frame_error(kets, bras, energies, times, matrix)
    assert type(error) is cls and error.t == times[357]
    assert str(error).startswith(message) and f"t={times[357]:g}" in str(error)


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
    expected = reference_permutations(best)
    changes = np.count_nonzero(np.any(expected[1:] != expected[:-1], axis=-1))
    assert changes == (8 if crossing else 0)
    # the tracked frame is the raw frame relabelled by exactly this perm
    tracked = track_continuity(raw)
    np.testing.assert_array_equal(tracked.energies, np.take_along_axis(raw.energies, expected, axis=-1))


def test_a_block_that_keeps_its_order_tracks_on_from_a_crossing_bit_for_bit(monkeypatch):
    # LAPACK orders each point by energy, so the raw labels swap where E_1 = 1.52 - 2t crosses E_2 = 1
    # (t = 0.26, in the first block) and keep their order after it: the later blocks carry that swap
    times = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(6)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    hams = np.array([s @ np.diag([1.52 - 2.0 * t, 1.0, 3.0]) @ np.linalg.inv(s) for t in times])
    kets, bras, energies = _lapack(hams, times)
    whole = track_continuity(BiorthogonalFrame(times, energies, kets, bras))
    composed, carried = [], None
    monkeypatch.setattr(qhdyn.spectral, "_full_match", lambda *a: composed.append(a) or _full_match(*a))
    for part in (slice(0, 16), slice(16, 28), slice(28, 41)):
        frame = track_continuity(BiorthogonalFrame(times[part], energies[part], kets[part], bras[part]), carried)
        for field in ("energies", "right_kets", "left_bras"):
            assert getattr(frame, field).tobytes() == getattr(whole, field)[part].tobytes()
        carried = frame.continuation
    assert len(composed) == 1  # the crossing block alone is matched in full
    np.testing.assert_array_equal(carried.perm, [1, 0, 2])
    for got, expected in zip(carried, whole.continuation):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", ["ambiguous", "nan"])
def test_a_bad_point_inside_an_order_keeping_block_raises_as_the_full_match(bad):
    # nine points keep their order but the sixth, whose overlaps with the fifth tie or are NaN
    kets = np.array([np.eye(2)] * 9, dtype=complex)
    kets[5] = HADAMARD if bad == "ambiguous" else np.nan
    frame = BiorthogonalFrame(np.arange(9) / 8, np.array([[1.0, 2.0]] * 9), kets, np.conj(np.swapaxes(kets, -1, -2)))
    with pytest.raises(AmbiguousMatchError) as info:
        track_continuity(frame)
    assert str(info.value) == {
        "ambiguous": "continuity match for eigenpair 0 at t=0.625 is ambiguous (best 7.071e-01 vs runner-up 7.071e-01)",
        "nan": "continuity matching at t=0.625 is not a permutation: [0, 0]",
    }[bad]
    assert info.value.t == 0.625


def test_branch_permutations_of_random_matches():
    rng = np.random.default_rng(8)
    n = 4
    best = np.tile(np.arange(n), (500, 1))
    for k in rng.choice(500, size=40, replace=False):
        best[k] = rng.permutation(n)
    # a frame of permutation matrices whose raw index best[k, i] at point k + 1 is the one overlapping raw
    # index i at point k, with distinct energies to read the labels by
    kets = [np.eye(n)]
    for row in best:
        kets.append(kets[-1][:, np.argsort(row)])
    kets = np.array(kets)
    energies = rng.standard_normal((501, n))
    tracked = track_continuity(BiorthogonalFrame(np.arange(501.0), energies, kets, np.swapaxes(kets, -1, -2)))
    np.testing.assert_array_equal(tracked.energies, np.take_along_axis(energies, reference_permutations(best), axis=-1))
    # no match past the last point: a one-point block tracked on from it, itself, keeps its labels
    last = BiorthogonalFrame(np.array([500.0]), energies[-1:], kets[-1:], np.swapaxes(kets[-1:], -1, -2))
    np.testing.assert_array_equal(track_continuity(last, tracked.continuation).energies, tracked.energies[-1:])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_real_gauge_route_matches_complex_route(n, monkeypatch):
    model = HamiltonianModel(
        n, "cubic-trunc", {"g": 0.02}, {"g": ScheduleSpec("sinusoidal", base=0.02, amplitude=0.4, frequency=3.0)}
    )
    times = np.linspace(0.0, 1.0, 201)
    hams = build_hamiltonian(model, times)
    d = real_gauge(model)
    solved, closed = spy_on_eig(monkeypatch), spy_on_closed_form(monkeypatch)
    real = track_continuity(eig_biorthogonal(_gauged(hams, d), t=times))
    full = track_continuity(eig_biorthogonal(hams, t=times))
    # at N = 2 every point is solved in closed form; at N >= 3 LAPACK solves
    # the first point alone, and the rest is refined from it
    if n == 2:
        assert solved == [] and closed == [(np.float64, len(times)), (np.complex128, len(times))]
    else:
        assert solved == [(np.float64, 1), (np.complex128, 1)] and closed == []
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
    solved, closed = spy_on_eig(monkeypatch), spy_on_closed_form(monkeypatch)
    for stack, d in ((hams, real_gauge(cubic)), (pt2, 1j ** np.arange(2))):
        gauged = _gauged(stack, d)
        assert gauged.tobytes() == (stack * (np.conj(d)[:, None] * d)).tobytes()
        frame, plain = eig_biorthogonal(gauged), eig_biorthogonal(stack)
        # a complex frame of G, which the gauge and each branch's pivot phase
        # z = conj(d_p) map onto H's: same spectrum, kets and bras.
        # G and H are solved as two different inputs, so they agree to
        # rounding (1.7e-15 for this cubic stack), not bit for bit
        np.testing.assert_allclose(frame.energies, plain.energies, rtol=0.0, atol=1e-12)
        z = np.conj(d[np.argmax(np.abs(frame.right_kets), axis=-2)])
        kets = d[:, None] * frame.right_kets * z[..., None, :]
        bras = np.conj(z)[..., :, None] * frame.left_bras * np.conj(d)
        np.testing.assert_allclose(kets, plain.right_kets, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(bras, plain.left_bras, rtol=0.0, atol=1e-12)
    # the N = 4 stacks go to LAPACK at their first point alone, the N = 2 ones to the closed form
    assert solved == [(np.complex128, 1)] * 2 and closed == [(np.complex128, 1)] * 2


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


def _draw(rng, kind, shape):
    real = rng.standard_normal(shape)
    return real + 1j * rng.standard_normal(shape) if kind == "c" else real


@pytest.mark.parametrize("kinds", ["cc", "cr", "rc"])
@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((64, 2, 2), (64, 2, 2)),  # stack @ stack
        ((64, 2, 2), (2, 2)),  # stack @ matrix
        ((2, 2), (64, 2, 2)),  # matrix @ stack
        ((64, 2, 2), (64, 2, 1)),  # stack @ a stack of columns
        ((8, 2, 2, 2), (8, 2, 2, 2)),  # RK4's (steps, pictures, N, N) stages
        ((8, 1, 3, 2), (5, 2, 4)),  # broadcast leading axes, rectangular factors
    ],
)
def test_matmul_of_length_two_matches_numpy_to_a_few_ulp(monkeypatch, a_shape, b_shape, kinds):
    rng = np.random.default_rng(11)
    a, b = _draw(rng, kinds[0], a_shape), _draw(rng, kinds[1], b_shape)
    expected = np.matmul(a, b)
    bound = 8 * np.finfo(float).eps * np.matmul(np.abs(a), np.abs(b))
    monkeypatch.setattr(np, "matmul", None)  # the broadcast route calls no matmul
    got = matmul(a, b)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.all(np.abs(got - expected) <= bound)
    out = np.full(expected.shape, np.nan, dtype=complex)
    assert matmul(a, b, out=out) is out
    assert out.tobytes() == got.tobytes()


@pytest.mark.parametrize(
    "a_shape, b_shape, kinds",
    [
        ((16, 3, 3), (16, 3, 3), "cc"),  # contraction length 3
        ((16, 4, 4), (4, 4), "cc"),
        ((16, 2, 2), (16, 2, 2), "rr"),  # two real factors
        ((16, 2, 2), (2,), "cc"),  # a vector factor
        ((2,), (16, 2, 2), "cc"),
    ],
)
def test_matmul_of_any_other_product_is_numpy_bit_for_bit(a_shape, b_shape, kinds):
    rng = np.random.default_rng(12)
    a, b = _draw(rng, kinds[0], a_shape), _draw(rng, kinds[1], b_shape)
    expected = np.matmul(a, b)
    assert matmul(a, b).tobytes() == expected.tobytes()
    out = np.empty_like(expected)
    assert matmul(a, b, out=out) is out and out.tobytes() == expected.tobytes()


def test_matmul_of_a_non_finite_entry_is_not_finite():
    rng = np.random.default_rng(13)
    a, b = _draw(rng, "c", (6, 2, 2)), _draw(rng, "c", (6, 2, 2))
    a[1, 0, 1], a[3, 1, 0], b[4, 0, 0] = np.inf, np.nan, -np.inf
    with np.errstate(all="ignore"):
        got, expected = matmul(a, b), np.matmul(a, b)
    assert not np.isfinite(got[1, 0]).any() and not np.isfinite(got[3, 1]).any()
    assert not np.isfinite(got[4, :, 0]).any()
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(expected))


def _random_path(rng, kind, m=201):
    """A smooth path S(t) diag(E(t)) S(t)^-1 of 2 x 2 matrices with a real spectrum, real or complex
    with ``kind``, S well conditioned and the two levels apart by at least 1."""
    t = np.linspace(0.0, 1.0, m)[:, None, None]
    draw = lambda: rng.standard_normal((2, 2)) + (1j * rng.standard_normal((2, 2)) if kind == "complex" else 0)
    s = np.eye(2) * 2.0 + 0.5 * draw() + 0.5 * t * draw()
    energies = np.stack([rng.uniform(-1.0, 0.0) + t[:, 0, 0], rng.uniform(2.0, 3.0) - t[:, 0, 0]], axis=-1)
    return t[:, 0, 0], (s * energies[:, None, :]) @ np.linalg.inv(s)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_matches_the_lapack_route(kind, seed, monkeypatch):
    times, hams = _random_path(np.random.default_rng(seed), kind)
    solved, closed = spy_on_eig(monkeypatch), spy_on_closed_form(monkeypatch)
    got = track_continuity(eig_biorthogonal(hams, t=times))
    dtype = np.float64 if kind == "real" else np.complex128
    assert solved == [] and closed == [(dtype, len(times))]
    kets, bras, energies = _lapack(hams, times)
    expected = track_continuity(BiorthogonalFrame(times, energies, kets, bras))
    for field in ("energies", "right_kets", "left_bras"):
        assert getattr(got, field).dtype == dtype
        np.testing.assert_allclose(getattr(got, field), getattr(expected, field), rtol=0.0, atol=1e-13)
    assert_frame_relations(eig_biorthogonal(hams[0]), hams[0])


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
def test_closed_form_where_the_off_diagonal_passes_through_zero(lower, monkeypatch):
    # triangular2 with c(t) = 3 t - 1.5, exactly zero at t = 0.5; transposed, the lower triangle.
    # [[a, b], [c, d]] has the kets (b, E - a) and (E - d, c), which stay eigenvectors where b = 0
    times = np.linspace(0.0, 1.0, 101)
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": -1.5},
                             {"c": ScheduleSpec("linear-ramp", base=-1.5, rate=3.0)})
    hams = build_hamiltonian(model, times)
    if lower:
        hams = np.swapaxes(hams, -1, -2).copy()
    solved, closed = spy_on_eig(monkeypatch), spy_on_closed_form(monkeypatch)
    frame = eig_biorthogonal(hams, t=times)
    assert closed == [(np.complex128, len(times))] and solved == []
    c = hams[:, 1, 0] if lower else hams[:, 0, 1]
    assert np.flatnonzero(c == 0.0).tolist() == [50]
    np.testing.assert_array_equal(frame.energies, np.broadcast_to([1.0, 2.0], (len(times), 2)))
    # the exact kets, unit and with the largest component (the first on a tie) real and positive
    one, zero = np.ones_like(c), np.zeros_like(c)
    expected = np.stack([np.stack([one, -c], -1) if lower else np.stack([one, zero], -1),
                         np.stack([zero, one], -1) if lower else np.stack([c, one], -1)], axis=-1)
    expected /= np.linalg.norm(expected, axis=-2, keepdims=True)
    pivot = np.take_along_axis(expected, np.argmax(np.abs(expected), axis=-2)[:, None, :], axis=-2)
    np.testing.assert_allclose(frame.right_kets, expected * np.conj(pivot) / np.abs(pivot), rtol=0.0, atol=1e-15)
    kets, bras, energies = _lapack(hams, times)
    for got, want in ((frame.right_kets, kets), (frame.left_bras, bras), (frame.energies, energies)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_a_scalar_matrix_and_an_exceptional_point_fall_back_to_lapack(monkeypatch):
    scalar = 1.5 * np.eye(2, dtype=complex)
    solved, closed = spy_on_eig(monkeypatch), spy_on_closed_form(monkeypatch)
    frame = eig_biorthogonal(np.array([scalar, OK2]), t=[0.0, 1.0])
    # H = a I has a double eigenvalue and no closed-form kets: LAPACK solves the whole stack
    assert closed == [(np.complex128, 2)] and solved == [(np.complex128, 2)]
    kets, bras, energies = _lapack(np.array([scalar, OK2]), np.array([0.0, 1.0]))
    for got, want in ((frame.right_kets, kets), (frame.left_bras, bras), (frame.energies, energies)):
        assert got.tobytes() == want.tobytes()
    # at pt2's exceptional point (gamma = s) the closed-form bras are not finite; LAPACK raises as before
    closed.clear()
    solved.clear()
    with pytest.raises(ExceptionalPointError) as raised:
        eig_biorthogonal(np.array([OK2, EP2]), t=[0.0, 0.8])
    assert closed == [(np.complex128, 2)] and solved == [(np.complex128, 2)]
    with pytest.raises(ExceptionalPointError) as direct:
        _lapack(np.array([OK2, EP2]), np.array([0.0, 0.8]))
    assert str(raised.value) == str(direct.value) and raised.value.t == 0.8
    assert str(raised.value).startswith("raw left-right overlap") and "at t=0.8:" in str(raised.value)


@pytest.mark.parametrize("name", ["tri_sin_drive", "sweep-tri2"])
def test_a_two_level_run_calls_no_lapack_routine(name, monkeypatch):
    import importlib
    from pathlib import Path

    from qhdyn import scenario_from_dict
    from qhdyn.runner import run

    from conftest import load_scenario

    if name == "sweep-tri2":
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        config = scenario_from_dict(importlib.import_module("workloads").WORKLOADS[name].document(1))
    else:
        config = load_scenario(name)
    called = []
    for routine in ("eig", "eigvals", "eigvalsh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, routine, lambda *args, routine=routine: called.append(routine))
    assert run(config).passed
    assert called == []
