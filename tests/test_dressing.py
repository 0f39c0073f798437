from dataclasses import replace

import numpy as np
import pytest

from qhdyn import (
    ComplexSpectrumError,
    ConditioningError,
    HamiltonianModel,
    MetricPositivityError,
    ObservableSpec,
    ScenarioError,
    build_dressing_track,
    time_grid,
)
from qhdyn.dressing import (
    _gauged,
    _guard_metric,
    _tracked_blocks,
    build_generator,
    build_omega,
    build_theta,
    dagger,
    differentiate_samples,
    hermitize,
    mu_series,
    grid_blocks,
    omega_inverse,
    quasi_hermiticity_residual,
    theta_inner,
)
from qhdyn.model import build_hamiltonian, real_gauge
from qhdyn.schedules import ScheduleSpec
from qhdyn.spectral import eig_biorthogonal, track_continuity

from conftest import SHIPPED_SCENARIOS, load_scenario, spy_on_eig
from reference import reference_track, stack_frames, theta_spectral

EXP_MU = (
    ScheduleSpec("exponential", base=1.0, rate=0.3),
    ScheduleSpec("exponential", base=1.0, rate=-0.1),
)


def test_identity_dressing():
    frame = eig_biorthogonal(np.diag([1.0, 2.0]).astype(complex))
    omega = build_omega(frame.left_bras, [1.0, 1.0])
    np.testing.assert_allclose(omega, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(build_theta(omega), np.eye(2), atol=1e-14)


def test_omega_rows_are_scaled_left_bras(hand_frame):
    omega = build_omega(hand_frame.left_bras, [1.0, 1.0])
    np.testing.assert_allclose(omega, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)
    scaled = build_omega(hand_frame.left_bras, [2.0, 1.0])
    np.testing.assert_allclose(scaled, [[2.0, -2.0], [0.0, 1.0]], atol=1e-14)


def test_zero_mu_rejected(monkeypatch):
    # the track rejects a vanishing mu once, before any eigensolve
    import qhdyn.dressing

    monkeypatch.setattr(qhdyn.dressing, "eig_biorthogonal", lambda *args, **kwargs: pytest.fail("solved"))
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.5})
    with pytest.raises(ScenarioError, match="nonzero"):
        build_dressing_track(model, (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=0.0)),
                             np.linspace(0.0, 1.0, 5))


def test_omega_inverse_is_frame_exact(hand_frame):
    mu = np.array([2.0, 0.5 + 0.5j])
    omega = build_omega(hand_frame.left_bras, mu)
    inv = omega_inverse(hand_frame.right_kets, mu)
    np.testing.assert_allclose(omega @ inv, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(inv @ omega, np.eye(2), atol=1e-14)


def test_theta_fixture(hand_frame):
    omega = build_omega(hand_frame.left_bras, [1.0, 1.0])
    theta = build_theta(omega)
    np.testing.assert_allclose(theta, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)
    eigs = np.linalg.eigvalsh(theta)
    expected = np.array([(3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0])
    np.testing.assert_allclose(eigs, expected, atol=1e-12)
    assert eigs[0] > 0


def test_theta_two_assembly_paths_agree(hand_frame):
    mu = np.array([1.3, 0.4 - 0.6j])
    direct = build_theta(build_omega(hand_frame.left_bras, mu))
    spectral = theta_spectral(hand_frame, mu)
    np.testing.assert_allclose(direct, spectral, atol=1e-12)


def test_theta_depends_only_on_mu_modulus(hand_frame):
    direct = build_theta(build_omega(hand_frame.left_bras, [1.0, 1.0]))
    phased = build_theta(build_omega(hand_frame.left_bras, [np.exp(0.4j), np.exp(-1.1j)]))
    np.testing.assert_allclose(direct, phased, atol=1e-14)


def test_hermitize_identity_and_fixture(hand_frame, hand_matrix):
    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(hermitize(np.eye(2), H, np.eye(2)), H, atol=1e-14)

    omega = build_omega(hand_frame.left_bras, [1.0, 1.0])
    h = hermitize(omega, hand_matrix, np.linalg.inv(omega))
    np.testing.assert_allclose(h, np.diag([1.0, 2.0]), atol=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0}),
        HamiltonianModel(2, "pt2", {"gamma": 0.6, "s": 1.0}),
        HamiltonianModel(4, "similarity-rand", {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7}),
        HamiltonianModel(4, "cubic-trunc", {"g": 0.1}),
    ],
)
def test_hermitize_produces_hermitian_diagonal(model):
    H = build_hamiltonian(model, 0.0)
    frame = eig_biorthogonal(H)
    mu = np.exp(0.3j) * np.arange(1.0, len(frame.energies) + 1.0)
    omega = build_omega(frame.left_bras, mu)
    h = hermitize(omega, H, omega_inverse(frame.right_kets, mu))
    assert np.max(np.abs(h - h.conj().T)) < 1e-10
    np.testing.assert_allclose(h, np.diag(frame.energies), atol=1e-10)
    # isospectrality via fresh eigensolves
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvals(h).real), np.sort(np.linalg.eigvals(H).real), atol=1e-9
    )


def test_quasi_hermiticity_fixture(hand_matrix):
    theta = np.array([[1.0, -1.0], [-1.0, 2.0]], dtype=complex)
    expected = np.array([[1.0, -1.0], [-1.0, 3.0]], dtype=complex)
    np.testing.assert_allclose(theta @ hand_matrix, expected, atol=1e-14)
    np.testing.assert_allclose(hand_matrix.conj().T @ theta, expected, atol=1e-14)
    assert quasi_hermiticity_residual(hand_matrix, theta) < 1e-14
    assert quasi_hermiticity_residual(theta, theta) < 1e-14
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert quasi_hermiticity_residual(nilpotent, np.eye(2)) == pytest.approx(1.0)


def test_generator_static_dressing():
    H = np.array([[1.0, 0.3], [0.0, 2.0]], dtype=complex)
    omega = np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex)
    np.testing.assert_allclose(build_generator(H, np.zeros((2, 2)), np.linalg.inv(omega)), H, atol=1e-15)


def test_generator_diagonal_closed_form():
    # Hermitian diag(1,2), mu_n = exp(alpha_n t): Omega diag, H_gen constant
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.0})
    H = np.diag([1.0, 2.0]).astype(complex)
    frame = eig_biorthogonal(H)
    times = np.linspace(0.0, 1.0, 5)
    dots = build_dressing_track(model, EXP_MU, times).omega_dot()  # a static H: the exact mu route
    t = times[2]
    mu = np.array([np.exp(0.3 * t), np.exp(-0.1 * t)])
    omega = build_omega(frame.left_bras, mu)
    np.testing.assert_allclose(dots[2], np.diag([0.3, -0.1]) * mu[:, None], atol=1e-12)
    gen = build_generator(H, dots[2], np.linalg.inv(omega))
    np.testing.assert_allclose(gen, np.diag([1.0 - 0.3j, 2.0 + 0.1j]), atol=1e-12)


def test_constant_everything_gives_zero_omega_dot():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1.0))
    _, fine = time_grid(0.0, 1.0, 0.1)
    track = build_dressing_track(model, mu, fine)
    for omega_dot in track.omega_dot():
        np.testing.assert_allclose(omega_dot, 0.0, atol=1e-15)


def test_finite_difference_matches_analytic():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    _, fine = time_grid(0.0, 1.0, 1e-3)
    # a static H takes the exact route; stencils over its Omega samples agree
    track = build_dressing_track(model, EXP_MU, fine)
    fd = differentiate_samples(track.omega(), track.step)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(track.omega_dot(), fd))
    assert worst < 1e-10
    assert np.any(track.omega_dot() != fd)  # the two routes differ


def test_finite_difference_is_fourth_order():
    # Richardson: halving the sample step shrinks the error ~16x
    mu = (
        ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=3.0),
        ScheduleSpec("sinusoidal", base=1.0, amplitude=0.4, frequency=2.0, phase=1.0),
    )
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    errors = []
    for dt in (0.2, 0.1):
        _, fine = time_grid(0.0, 2.0, dt)
        track = build_dressing_track(model, mu, fine)  # a static H: exact dOmega/dt
        fd = differentiate_samples(track.omega(), track.step)
        mid = len(fine) // 2  # interior: central stencils
        errors.append(np.max(np.abs(track.omega_dot()[mid] - fd[mid])))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


def test_stencils_exact_on_quartics():
    # all three stencil families differentiate t^4 exactly
    ts = np.linspace(0.3, 1.3, 11)
    samples = [np.array([[t**4]]) for t in ts]
    dots = differentiate_samples(samples, float(ts[1] - ts[0]))
    for t, d in zip(ts, dots):
        assert d[0, 0] == pytest.approx(4.0 * t**3, rel=1e-10)


def test_theta_inner_cases(hand_frame):
    theta = np.array([[1.0, -1.0], [-1.0, 2.0]], dtype=complex)
    a = np.array([1.0, 1.0], dtype=complex)
    assert theta_inner(a, a, theta) == pytest.approx(1.0, abs=1e-14)
    # Theta = I degenerates to the ordinary inner product
    b = np.array([0.3, -2.0j])
    assert theta_inner(a, b, np.eye(2)) == pytest.approx(np.vdot(a, b), abs=1e-14)
    # conjugate symmetry
    assert theta_inner(a, b, theta) == pytest.approx(np.conj(theta_inner(b, a, theta)), abs=1e-14)


def test_theta_inner_positive_definite_sweep(hand_frame):
    theta = build_theta(build_omega(hand_frame.left_bras, [1.0, 1.0]))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert theta_inner(a, a, theta).real > 0.0


def test_metric_relation_against_standard_product(hand_frame):
    mu = np.array([1.0, 2.0 - 1.0j])
    omega = build_omega(hand_frame.left_bras, mu)
    theta = build_theta(omega)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = theta_inner(a, b, theta)
        via_omega = np.vdot(omega @ a, omega @ b)
        assert abs(direct - via_omega) < 1e-10


def test_gauge_confined_to_normalization_convention(hand_matrix):
    frame = eig_biorthogonal(hand_matrix)
    mu = np.array([1.0, 0.7])
    theta = build_theta(build_omega(frame.left_bras, mu))
    # simulate a continuity re-phasing and rebuild
    z = np.exp(1.3j)
    rotated = type(frame)(
        t=frame.t,
        energies=frame.energies.copy(),
        right_kets=frame.right_kets * z,
        left_bras=frame.left_bras * np.conj(z),
    )
    tracked = track_continuity(stack_frames(frame, rotated))
    theta_again = build_theta(build_omega(tracked.left_bras, np.stack([mu, mu]))[1])
    assert np.max(np.abs(theta - theta_again)) < 1e-10
    # the frame of the gauged D* H D, with Omega = diag(mu) L D*, gives the same metric
    d = np.exp(np.array([0.0, 0.7j]))
    gauged = eig_biorthogonal(np.conj(d)[:, None] * hand_matrix * d)
    assert np.max(np.abs(theta - build_theta(build_omega(gauged.left_bras, mu, d)))) < 1e-10
    # a real frame of cubic-trunc's gauged H with real mu: complex Omega and Omega^-1
    cubic = HamiltonianModel(4, "cubic-trunc", {"g": 0.1})
    H, d = build_hamiltonian(cubic, 0.0), real_gauge(cubic)
    real = eig_biorthogonal(_gauged(H, d))
    assert real.left_bras.dtype == np.float64
    mu = np.array([1.0, 0.7, 1.3, 0.9])
    omega, omega_inv = build_omega(real.left_bras, mu, d), omega_inverse(real.right_kets, mu, d)
    assert omega.dtype == omega_inv.dtype == np.complex128
    np.testing.assert_allclose(omega_inv @ omega, np.eye(4), rtol=0.0, atol=1e-12)
    plain = eig_biorthogonal(H)
    np.testing.assert_allclose(build_theta(omega), build_theta(build_omega(plain.left_bras, mu)), rtol=0.0, atol=1e-12)


def test_conditioning_abort():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1e-7))
    _, fine = time_grid(0.0, 1.0, 0.1)
    with pytest.raises(ConditioningError, match="cond"):
        build_dressing_track(model, mu, fine)


def test_conditioning_warning():
    import warnings

    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    # cond(Theta) ~ (1/1e-5)^2 = 1e10: inside the warn band, below the abort bound
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1e-5))
    _, fine = time_grid(0.0, 1.0, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_dressing_track(model, mu, fine)
    assert any("cond" in str(w.message) for w in caught)


OK2 = np.diag([1.0, 2.0]).astype(complex)
HAD2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
EP2 = np.array([[1j, 1.0], [1.0, -1j]])


def _solve_all(hams, times):
    hams, times = np.array(hams), np.asarray(times, dtype=float)
    return list(_tracked_blocks(lambda t: hams[np.searchsorted(times, t)], times, 2))


def test_continuity_failure_before_a_later_solve_failure_wins():
    from qhdyn import AmbiguousMatchError, ExceptionalPointError

    times = np.array([0.0, 1.0, 2.0, 3.0])
    # point 2 cannot be matched to point 1; point 3 is an exceptional point
    with pytest.raises(AmbiguousMatchError, match="t=2"):
        _solve_all([OK2, OK2, HAD2 @ OK2 @ HAD2, EP2], times)
    # at one point the solve fails before continuity is tried
    with pytest.raises(ExceptionalPointError, match="t=1"):
        _solve_all([OK2, EP2], times[:2])


def test_earliest_failure_wins_across_block_boundaries(monkeypatch):
    import qhdyn.dressing
    from qhdyn import AmbiguousMatchError, ExceptionalPointError

    monkeypatch.setattr(qhdyn.dressing, "_FRAME_ENTRIES", 8)  # two points per block at N = 2
    swapped = HAD2 @ OK2 @ HAD2
    times = np.arange(6.0)
    assert [b for b, _ in _solve_all([OK2] * 5, times[:5])] == [slice(0, 2), slice(2, 4), slice(4, 6)]
    # a continuity failure inside block 0 beats the solve failure in block 1
    with pytest.raises(AmbiguousMatchError, match="t=1"):
        _solve_all([OK2, swapped, EP2, OK2], times[:4])
    # the match of block 1's first point against block 0's last point fails
    # before the solve failure at block 1's second point
    with pytest.raises(AmbiguousMatchError, match="t=2"):
        _solve_all([OK2, OK2, swapped, EP2], times[:4])
    # a solve failure at a block's first point names that point
    with pytest.raises(ExceptionalPointError, match="t=4") as info:
        _solve_all([OK2, OK2, OK2, OK2, EP2, OK2], times)
    assert info.value.t == 4.0
    # with no solve failure, block 1's first point is matched against the carried point
    with pytest.raises(AmbiguousMatchError, match="t=2"):
        _solve_all([OK2, OK2, swapped, OK2], times[:4])


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_each_distinct_hamiltonian_is_solved_once(name, monkeypatch):
    # the solved blocks tile the grid once, in order
    import qhdyn.dressing
    from qhdyn.dressing import _FRAME_ENTRIES

    solved = []

    def spy(H, *args, t, **kwargs):
        solved.append(np.array(t))
        return eig_biorthogonal(H, *args, t=t, **kwargs)

    monkeypatch.setattr(qhdyn.dressing, "eig_biorthogonal", spy)
    cfg = load_scenario(name)
    _, fine = time_grid(cfg.t0, cfg.t1, cfg.dt)
    build_dressing_track(cfg.model, cfg.mu, fine)
    static = name in ("exp_metric_drive", "rand4_metric_sin", "static_hermitian")
    np.testing.assert_array_equal(np.concatenate(solved), fine[:1] if static else fine)
    n = cfg.model.dimension
    # a block holds no more matrix entries than 64 points at N = 8
    assert all(len(t) * n * n <= _FRAME_ENTRIES == 64 * 8 * 8 for t in solved)
    assert all(len(t) == len(solved[0]) for t in solved[:-1])


def _cubic8(points):
    model = HamiltonianModel(
        8, "cubic-trunc", {"g": 0.025}, {"g": ScheduleSpec("sinusoidal", base=0.025, amplitude=0.3, frequency=2.0)}
    )
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=0.05 * (k - 4)) for k in range(8))
    return model, mu, np.linspace(0.0, 1.0, points)


def _pt2(points):
    ramp = {"gamma": ScheduleSpec("sinusoidal", base=0.2, amplitude=0.3, frequency=2.0)}
    return HamiltonianModel(2, "pt2", {"gamma": 0.2, "s": 1.0}, ramp), EXP_MU, np.linspace(0.0, 1.0, points)


# cubic-trunc is solved in its real gauge, where every continuity phase is
# +-1; pt2 is complex, so its blocks must carry nontrivial phases bitwise.
# At N >= 3 the blocks are refined from the frame before them, so they match
# the LAPACK route to rounding; at N = 2 both are LAPACK, bit for bit
@pytest.mark.parametrize("case, entries", [(_cubic8, None), (_pt2, 4 * 64)])
def test_blocked_track_equals_the_whole_grid_solve(case, entries, monkeypatch):
    import qhdyn.dressing

    if entries:
        monkeypatch.setattr(qhdyn.dressing, "_FRAME_ENTRIES", entries)  # 64 points per block at N = 2
    model, mu, times = case(201)  # four blocks of at most 64 points
    track = build_dressing_track(model, mu, times)
    gauge = real_gauge(model)
    solved = _gauged(build_hamiltonian(model, times), gauge)
    # the grid solved by LAPACK (one matrix at a time takes no other route) and tracked in one call
    whole = track_continuity(stack_frames(*map(eig_biorthogonal, solved, times)))
    if model.dimension == 2:
        assert_same = np.testing.assert_array_equal
    else:
        def assert_same(actual, desired):
            np.testing.assert_allclose(actual, desired, rtol=0.0, atol=1e-12)
    mus = mu_series(mu, times)
    # each branch's phase conj(z) = d_p at its largest component p at t0
    z_conj = np.ones(model.dimension) if gauge is None else gauge[np.argmax(np.abs(whole.right_kets[0]), axis=0)]
    assert_same(track.kets, whole.right_kets)
    assert_same(track.bras, whole.left_bras)
    assert_same(track.omega(), build_omega(whole.left_bras, mus * z_conj, gauge))
    assert_same(track.omega_inv(), omega_inverse(whole.right_kets, mus * z_conj, gauge))
    assert_same(track.energies, whole.energies)
    # the grid's first point is LAPACK's on either route
    kets0 = whole.right_kets[0] if gauge is None else gauge[:, None] * whole.right_kets[0] * np.conj(z_conj)
    initial_kets = np.stack([track.initial_ket(k) for k in range(model.dimension)], axis=-1)
    np.testing.assert_array_equal(initial_kets, kets0)
    # H's own frame, tracked point by point: its kets and bras at t0, Omega and Omega^-1
    reference = reference_track(build_hamiltonian(model, times), times)
    np.testing.assert_allclose(track.energies, [f.energies for f in reference], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(initial_kets, reference[0].right_kets, rtol=0.0, atol=1e-12)
    initial_bras = track.omega(0) / mus[0][:, None]  # diag(z*) L D* at t0
    np.testing.assert_allclose(initial_bras, reference[0].left_bras, rtol=0.0, atol=1e-12)
    bras = np.array([f.left_bras for f in reference])
    kets = np.array([f.right_kets for f in reference])
    np.testing.assert_allclose(track.omega(), build_omega(bras, mus), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(track.omega_inv(), omega_inverse(kets, mus), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_refined_track_matches_the_pointwise_reference(n, monkeypatch):
    # a random moving cubic-trunc model in its real phase (below g = 0.0485 at N = 8), on a
    # benchmark-like fine grid of 501 points: one block at N = 3, eight at N = 8
    rng = np.random.default_rng(n)
    g = ScheduleSpec("sinusoidal", base=rng.uniform(0.01, 0.03), amplitude=rng.uniform(0.1, 0.4),
                     frequency=rng.uniform(1.0, 3.0), phase=rng.uniform(0.0, 2.0 * np.pi))
    model = HamiltonianModel(n, "cubic-trunc", {"g": g.base}, {"g": g})
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=rng.uniform(-0.3, 0.3)) for _ in range(n))
    times = np.linspace(0.0, 0.25, 501)
    solved = spy_on_eig(monkeypatch)
    track = build_dressing_track(model, mu, times)
    assert solved == [(np.float64, 1)]  # LAPACK at t0 alone: no block fell back
    reference = reference_track(build_hamiltonian(model, times), times)
    mus = mu_series(mu, times)
    np.testing.assert_allclose(track.energies, [f.energies for f in reference], rtol=0.0, atol=1e-12)
    bras = np.array([f.left_bras for f in reference])
    kets = np.array([f.right_kets for f in reference])
    np.testing.assert_allclose(track.omega(), build_omega(bras, mus), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(track.omega_inv(), omega_inverse(kets, mus), rtol=0.0, atol=1e-12)


def test_a_refinement_that_does_not_converge_falls_back_to_lapack(monkeypatch):
    import qhdyn.spectral

    ramp = {"g": ScheduleSpec("linear-ramp", base=0.02, rate=0.5)}  # leaves the real phase at t = 0.049
    model = HamiltonianModel(8, "cubic-trunc", {"g": 0.02}, ramp)
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=0.1 * (k - 4)) for k in range(8))
    _, fine = time_grid(0.0, 0.25, 1e-3)
    with pytest.raises(ComplexSpectrumError) as refined:
        build_dressing_track(model, mu, fine)
    cubic8, cubic8_mu, times = _cubic8(201)
    converged = build_dressing_track(cubic8, cubic8_mu, times)
    # one sweep never reaches rounding on a moving H: every block goes to LAPACK whole
    monkeypatch.setattr(qhdyn.spectral, "_REFINE_SWEEPS", 1)
    solved = spy_on_eig(monkeypatch)
    with pytest.raises(ComplexSpectrumError) as fallen_back:
        build_dressing_track(model, mu, fine)
    assert str(fallen_back.value) == str(refined.value) and fallen_back.value.t == refined.value.t
    solved.clear()
    track = build_dressing_track(cubic8, cubic8_mu, times)
    assert [points for _, points in solved] == [1, 64, 64, 64, 9]
    # the LAPACK route of the grid in one call, bit for bit, and the refined track to rounding
    whole = track_continuity(eig_biorthogonal(_gauged(build_hamiltonian(cubic8, times), real_gauge(cubic8)), times))
    np.testing.assert_array_equal(track.kets, whole.right_kets)
    np.testing.assert_array_equal(track.bras, whole.left_bras)
    for field in ("kets", "bras", "energies"):
        np.testing.assert_allclose(getattr(track, field), getattr(converged, field), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("points", [slice(0, 1), slice(0, 5), slice(1, 3), slice(60, 70), slice(196, 201), slice(None)])
def test_omega_dot_of_a_slice_is_that_slice_of_the_grid(points):
    model, mu, times = _cubic8(201)
    track = build_dressing_track(model, mu, times)
    whole = differentiate_samples(track.omega(), track.step)
    np.testing.assert_array_equal(track.omega_dot(points), whole[points])
    static = build_dressing_track(HamiltonianModel(8, "cubic-trunc", {"g": 0.025}), mu, times)
    np.testing.assert_array_equal(static.omega_dot(points), static.omega_dot()[points])


def test_static_track_repeats_one_frame():
    model = HamiltonianModel(4, "similarity-rand", {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7})
    mu = tuple(ScheduleSpec("sinusoidal", base=1.0, amplitude=0.4, frequency=k + 1.0) for k in range(4))
    _, fine = time_grid(0.0, 1.0, 0.01)
    track = build_dressing_track(model, mu, fine)
    # one solve's energies held as a read-only view over the grid
    assert track.energies.shape[0] == len(fine) and track.energies.strides[0] == 0
    assert not track.energies.flags.writeable
    # H per block is the one solved matrix, bit for bit
    solved = build_hamiltonian(model, fine[:1])[0]
    for block in grid_blocks(len(fine), 4, most=40):
        assert all(_bits(h) == _bits(solved) for h in track.hamiltonian(block))
    # equal to the frame a point-by-point sweep tracks at every point
    hams = build_hamiltonian(model, fine)
    reference = reference_track(hams, fine)
    expected = np.array([f.energies for f in reference])
    np.testing.assert_allclose(track.energies, expected, rtol=0.0, atol=1e-12)
    initial_kets = np.stack([track.initial_ket(k) for k in range(4)], axis=-1)
    np.testing.assert_allclose(initial_kets, reference[0].right_kets, rtol=0.0, atol=1e-12)


def test_static_hamiltonian_is_built_once(monkeypatch):
    import qhdyn.dressing

    calls = []

    def spy(model, t):
        calls.append(np.shape(t))
        return build_hamiltonian(model, t)

    monkeypatch.setattr(qhdyn.dressing, "build_hamiltonian", spy)
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.5})
    _, fine = time_grid(0.0, 1.0, 0.01)
    build_dressing_track(model, EXP_MU, fine)
    assert calls == [(1,)]
    moving = HamiltonianModel(
        2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.5},
        {"c": ScheduleSpec("sinusoidal", base=0.5, amplitude=0.5, frequency=2.0)},
    )
    build_dressing_track(moving, EXP_MU, fine)
    assert calls == [(1,), fine.shape]


def test_static_exceptional_point_names_the_first_time():
    from qhdyn import ExceptionalPointError

    # pt2 at gamma = s; the model itself rejects a static gamma(0) = s, so
    # the stack is taken from a ramp at t = 0 and t = 1
    ramp = HamiltonianModel(
        2, "pt2", {"gamma": 0.0, "s": 1.0}, {"gamma": ScheduleSpec("linear-ramp", base=0.0, rate=1.0)}
    )
    ok, ep = build_hamiltonian(ramp, np.array([0.0, 1.0]))
    times = np.linspace(0.3, 0.8, 6)
    with pytest.raises(ExceptionalPointError, match="t=0.3"):
        _solve_all([ep] * 6, times)
    with pytest.raises(ExceptionalPointError, match="t=0.6"):
        _solve_all([ok] * 3 + [ep] * 3, times)


def test_cubic_ramp_leaves_the_real_phase_at_the_same_time():
    # the N=8 truncation leaves its real phase between g(0.0485) and g(0.049);
    # the real-gauge solve reports it at the same grid time as the complex one
    ramp = {"g": ScheduleSpec("linear-ramp", base=0.02, rate=0.5)}
    model = HamiltonianModel(8, "cubic-trunc", {"g": 0.02}, ramp)
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=0.1 * (k - 4)) for k in range(8))
    _, fine = time_grid(0.0, 0.25, 1e-3)
    with pytest.raises(ComplexSpectrumError, match=r"at t=0\.049;") as info:
        build_dressing_track(model, mu, fine)
    assert info.value.t == pytest.approx(0.049, abs=1e-12)


def test_cubic_track_has_an_exactly_real_spectrum():
    cfg = load_scenario("cubic_osc_drive")
    _, fine = time_grid(cfg.t0, cfg.t1, cfg.dt)
    track = build_dressing_track(cfg.model, cfg.mu, fine)
    assert not np.any(track.energies.imag)


@pytest.mark.parametrize("m", [5, 64, 130])  # less than, exactly and over one grid block
def test_blocked_and_in_place_forms_match_the_whole_grid_expressions(m):
    rng = np.random.default_rng(m)

    def stack():
        return rng.standard_normal((m, 3, 3)) + 1j * rng.standard_normal((m, 3, 3))

    omega = stack()
    product = dagger(omega) @ omega
    assert build_theta(omega).tobytes() == (0.5 * (product + dagger(product))).tobytes()

    A, theta = stack(), stack()
    for a in (A, A[0]):  # a stack, and one matrix for the whole grid
        expected = np.max(np.abs(dagger(a) @ theta - theta @ a), axis=(-2, -1))
        assert quasi_hermiticity_residual(a, theta).tobytes() == expected.tobytes()

    s, step = stack(), 0.01
    interior = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) * (1.0 / (12.0 * step))
    assert differentiate_samples(s, step)[2:-2].tobytes() == interior.tobytes()


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _moving_model(family, kind):
    """A model of ``family`` whose H moves by a ``kind`` schedule (similarity-rand takes none)."""

    def schedule(base):
        if kind == "sinusoidal":
            return ScheduleSpec("sinusoidal", base=base, amplitude=0.3, frequency=2.0)
        return ScheduleSpec("exponential", base=base, rate=0.5)

    if family == "triangular2":
        return HamiltonianModel(2, family, {"e1": 1.0, "e2": 2.0, "c": 0.5}, {"c": schedule(0.5)})
    if family == "pt2":
        return HamiltonianModel(2, family, {"gamma": 0.2, "s": 1.0}, {"gamma": schedule(0.2)})
    if family == "similarity-rand":
        return HamiltonianModel(4, family, {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7})
    return HamiltonianModel(4, family, {"g": 0.05}, {"g": schedule(0.05)})


@pytest.mark.parametrize("kind", ["sinusoidal", "exponential"])
@pytest.mark.parametrize("family", ["triangular2", "pt2", "similarity-rand", "cubic-trunc"])
def test_hamiltonian_of_a_block_is_that_block_of_the_whole_grid(family, kind, monkeypatch):
    import qhdyn.dressing

    monkeypatch.setattr(qhdyn.dressing, "_FRAME_ENTRIES", 40 * 4)  # ragged 40-point blocks at N = 2
    model = _moving_model(family, kind)
    n = model.dimension
    times = np.linspace(0.0, 1.0, 203)
    track = build_dressing_track(model, (ScheduleSpec("constant", base=1.0),) * n, times)
    whole = build_hamiltonian(model, times)
    fine = grid_blocks(len(times), n)
    passes = [list(track.blocks(step)) for step in (1, 2)]
    blocks = fine + [block.points for blocks in passes for block in blocks]
    assert len(times[fine[0]]) > len(times[fine[-1]])  # a ragged last block
    # the RK4 blocks' halo slices and a mask, too
    mask = np.zeros(len(times), dtype=bool)
    mask[[3, 50, 202]] = True
    for points in blocks + [slice(0, 33), slice(32, 65), slice(192, 203), slice(None, None, 2), mask]:
        assert _bits(track.hamiltonian(points)) == _bits(whole[points])
    for block in passes[0] + passes[1]:
        assert _bits(block.hamiltonian) == _bits(whole[block.points])


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
def test_the_passes_cut_the_grid_as_grid_blocks_does(n):
    # even blocks of fine points (so every block starts at a reporting point),
    # the last one cut at the end of the grid; the reporting pass takes their even points
    model = HamiltonianModel(n, "similarity-rand", {"energies": list(np.arange(1.0, n + 1.0))})
    times = np.linspace(0.0, 1.0, 2 * 301 + 1)
    track = build_dressing_track(model, (ScheduleSpec("constant", base=1.0),) * n, times)
    cut = [(s.start, min(s.stop, len(times))) for s in grid_blocks(len(times), n)]
    size = cut[0][1]
    assert size % 2 == 0 and [start for start, _ in cut] == list(range(0, len(times), size))
    assert cut[-1][1] == len(times) and cut[-1][1] - cut[-1][0] < size
    for step in (1, 2):
        blocks = list(track.blocks(step))
        assert [(b.points.start, b.points.stop, b.points.step) for b in blocks] == [(*s, step) for s in cut]
        assert [(b.rows.start, b.rows.stop) for b in blocks] == [(start // 2, (stop + 1) // 2) for start, stop in cut]


@pytest.mark.parametrize("case", ["cubic8", "pt2"])
def test_theta_of_a_block_is_that_block_of_the_whole_grid(case):
    model, mu, times = (_cubic8 if case == "cubic8" else _pt2)(203)
    track = build_dressing_track(model, mu, times)
    omega = track.omega()
    product = dagger(omega) @ omega
    whole = 0.5 * (product + dagger(product))
    for block in grid_blocks(len(times), model.dimension):
        assert _bits(build_theta(track.omega(block))) == _bits(whole[block])
    for step in (1, 2):
        for block in track.blocks(step):
            assert _bits(block.theta) == _bits(whole[block.points])
            assert _bits(block.theta[block.coarse]) == _bits(whole[::2][block.rows])
    # Theta's eigenvalues come from the frame, as those of L' |mu|^2 L: a real
    # symmetric matrix for cubic-trunc, Theta itself for pt2's positive mu
    weighted = build_theta(build_omega(track.bras, np.abs(track.mu)))
    assert weighted.dtype == (float if case == "cubic8" else complex)
    assert _bits(track.theta_eigs) == _bits(np.linalg.eigvalsh(weighted))
    np.testing.assert_allclose(track.theta_eigs, np.linalg.eigvalsh(whole), rtol=1e-13, atol=0.0)
    if case == "pt2":
        assert _bits(track.theta_eigs) == _bits(np.linalg.eigvalsh(whole))


def test_observable_of_a_block_is_that_block_of_the_reporting_grid():
    # the whole-reporting-grid stacks the observables were once formed as,
    # against each block of both passes, fine (step 1) and reporting (step 2)
    model, mu, times = _cubic8(203)
    track = build_dressing_track(model, mu, times)
    coarse = slice(None, None, 2)
    rng = np.random.default_rng(5)
    seed = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    seed += dagger(seed)
    whole = [
        (ObservableSpec("H", "hamiltonian-itself"), build_hamiltonian(model, times[coarse])),
        (ObservableSpec("X", "user-matrix", seed), np.broadcast_to(seed, times[coarse].shape + seed.shape)),
        (ObservableSpec("Z", "function-of-frame", seed), track.omega_inv()[coarse] @ seed @ track.omega()[coarse]),
    ]
    passes = [list(track.blocks(step)) for step in (1, 2)]
    assert [len(times[block.points]) for block in passes[0]] == [64, 64, 64, 11]  # a ragged last block
    assert [len(times[block.points]) for block in passes[1]] == [32, 32, 32, 6]
    for spec, stack in whole:
        for block in passes[0] + passes[1]:
            assert _bits(block.observable(spec)) == _bits(stack[block.rows])


def test_a_moving_track_holds_only_the_frame_on_the_grid():
    model, mu, times = _cubic8(203)
    track = build_dressing_track(model, mu, times)
    grid_stacks = [name for name, value in vars(track).items() if np.shape(value) == (len(times), 8, 8)]
    assert grid_stacks == ["kets", "bras"]
    assert track.mu_dot is None
    # t0 is row 0 of the stacks: no field holds a frame of its own
    assert [name for name, value in vars(track).items() if not isinstance(value, np.ndarray)] == ["mu_dot", "model"]
    # no field holds a matrix of H or of an observable: the model gives them per block
    assert not any(np.shape(value)[-2:] == (8, 8) for name, value in vars(track).items() if name not in grid_stacks)


def test_a_moving_cubic_track_holds_a_real_frame(monkeypatch):
    # cubic-trunc is real in its gauge: the frame is stored as float64 L and R,
    # no grid stack is complex, and neither the track build nor the run hands
    # a complex matrix to a LAPACK routine
    from qhdyn import scenario_from_dict
    from qhdyn.runner import run

    model, mu, times = _cubic8(203)
    track = build_dressing_track(model, mu, times)
    assert track.kets.dtype == track.bras.dtype == track.energies.dtype == np.float64
    assert track.kets.shape == track.bras.shape == (203, 8, 8)
    assert [name for name, value in vars(track).items() if np.ndim(value) == 3 and np.iscomplexobj(value)] == []

    solved = []

    def spy(name):
        original = getattr(np.linalg, name)

        def recorded(a, *args):
            solved.append((name, a.dtype))
            return original(a, *args)

        return recorded

    for name in ("eig", "eigvals", "eigvalsh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    doc = {
        "model": {
            "family": "cubic-trunc",
            "dimension": 8,
            "params": {"g": 0.025},
            "h_schedule": {"g": {"kind": "sinusoidal", "base": 0.025, "amplitude": 0.3, "frequency": 2.0}},
            "a_observables": [{"name": "H", "matrix_source": "hamiltonian-itself"}],
        },
        "mu": [{"kind": "exponential", "base": 1.0, "rate": 0.05 * (k - 4)} for k in range(8)],
        "time": {"t0": 0.0, "t1": 0.25, "dt": 1e-3},
        "evolution": {"reality": "report"},
    }
    assert run(scenario_from_dict(doc)).passed
    assert {name for name, _ in solved} == {"eig", "eigvalsh", "inv"}
    assert {dtype for _, dtype in solved} == {np.dtype(float)}


def test_real_and_complex_routes_agree_on_every_csv_column(monkeypatch):
    # cubic_osc_drive solved in its real gauge and as the complex H itself
    # (no gauge), with a coupling of branches 0 and 1 as a further observable:
    # the same verdicts, and every column within 1e-10 of its
    # scale, the larger of 1 (the normalized state's, for the rounding-level
    # residual and imaginary columns) and the column's largest magnitude
    import qhdyn.dressing
    from qhdyn.runner import run

    config = load_scenario("cubic_osc_drive")
    # and an off-diagonal Hermitian seed, whose means carry the frame's phases
    coupling = ObservableSpec("x01", "function-of-frame", np.kron(np.diag([1.0, 0.0]), [[0.0, 1.0], [1.0, 0.0]]))
    model = replace(config.model, a_observables=config.model.a_observables + (coupling,))
    config = replace(config, model=model, outputs=config.outputs + ("x01",))
    real = run(config)
    monkeypatch.setattr(qhdyn.dressing, "real_gauge", lambda model: None)
    plain = run(config)
    assert [(r.name, r.passed) for r in real.reports] == [(r.name, r.passed) for r in plain.reports]
    assert real.columns == plain.columns and "re_exp_x01" in real.columns
    scale = np.maximum(1.0, np.max(np.abs(plain.rows), axis=0))
    assert np.all(np.max(np.abs(real.rows - plain.rows), axis=0) <= 1e-10 * scale)
    assert np.any(real.rows != plain.rows)  # two routes, not one


def test_a_moving_run_forms_no_whole_grid_hamiltonian_or_theta(monkeypatch):
    # N = 8 cubic-trunc over M = 1001 fine points: H and Theta are formed for
    # one block of points at a time, the observable that is H itself too
    import qhdyn.dressing
    import qhdyn.model
    from qhdyn import scenario_from_dict
    from qhdyn.runner import run

    formed = {"H": [], "Theta": []}

    def spy(name, original):
        def wrapped(*args):
            result = original(*args)
            formed[name].append(result.shape[0] if result.ndim == 3 else 1)
            return result

        return wrapped

    monkeypatch.setattr(qhdyn.dressing, "build_hamiltonian", spy("H", build_hamiltonian))
    monkeypatch.setattr(qhdyn.model, "build_hamiltonian", spy("H", build_hamiltonian))
    monkeypatch.setattr(qhdyn.dressing, "build_theta", spy("Theta", build_theta))
    doc = {
        "model": {
            "family": "cubic-trunc",
            "dimension": 8,
            "params": {"g": 0.025},
            "h_schedule": {"g": {"kind": "sinusoidal", "base": 0.025, "amplitude": 0.3, "frequency": 2.0}},
            "a_observables": [{"name": "H", "matrix_source": "hamiltonian-itself"}],
        },
        "mu": [{"kind": "exponential", "base": 1.0, "rate": 0.05 * (k - 4)} for k in range(8)],
        "time": {"t0": 0.0, "t1": 0.5, "dt": 1e-3},
        "evolution": {"reality": "report"},
    }
    assert run(scenario_from_dict(doc)).passed
    block = 64  # points per block at N = 8
    assert max(formed["Theta"]) == block
    assert max(formed["H"]) == block  # 501 reporting points, 1001 grid points


def test_metric_guard_tells_rounding_from_lost_positivity():
    times = np.array([0.0, 0.5, 1.0])
    # Theta = Omega' Omega: a smallest eigenvalue within N eps lambda_max of
    # zero is rounding, so the metric is ill-conditioned, not indefinite
    rounding = np.array([[1.0, 2.0], [-1e292, 1e308], [-1.0, 2.0]])
    with pytest.raises(ConditioningError, match=r"beyond double precision .* at t=0\.5;") as info:
        _guard_metric(rounding, times)
    assert info.value.t == 0.5
    negative = np.array([[1.0, 2.0], [-1e-3, 2.0], [1.0, 2.0]])
    with pytest.raises(MetricPositivityError, match=r"t=0\.5 \(min eigenvalue -1\.000e-03\)"):
        _guard_metric(negative, times)
    nonfinite = np.array([[1.0, 2.0], [1.0, 2.0], [np.nan, np.nan]])
    with pytest.raises(ConditioningError, match=r"not finite .* at t=1;"):
        _guard_metric(nonfinite, times)


def test_a_broken_dressing_map_is_lost_positivity(monkeypatch):
    import qhdyn.dressing

    monkeypatch.setattr(qhdyn.dressing, "build_theta", lambda omega: -build_theta(omega))
    _, fine = time_grid(0.0, 1.0, 0.01)
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.5})
    with pytest.raises(MetricPositivityError, match="t=0 "):
        build_dressing_track(model, EXP_MU, fine)
