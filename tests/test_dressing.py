import numpy as np
import pytest

from qhdyn import (
    ComplexSpectrumError,
    ConditioningError,
    HamiltonianModel,
    ScenarioError,
    build_dressing_track,
    time_grid,
)
from qhdyn.dressing import (
    _tracked_frames,
    build_generator,
    build_omega,
    build_theta,
    dagger,
    differentiate_samples,
    hermitize,
    omega_inverse,
    quasi_hermiticity_residual,
    theta_inner,
)
from qhdyn.model import build_hamiltonian
from qhdyn.schedules import ScheduleSpec
from qhdyn.spectral import eig_biorthogonal, track_continuity

from conftest import SHIPPED_SCENARIOS, load_scenario
from reference import reference_track, stack_frames, theta_spectral

EXP_MU = (
    ScheduleSpec("exponential", base=1.0, rate=0.3),
    ScheduleSpec("exponential", base=1.0, rate=-0.1),
)


def test_identity_dressing():
    frame = eig_biorthogonal(np.diag([1.0, 2.0]).astype(complex))
    omega = build_omega(frame, [1.0, 1.0])
    np.testing.assert_allclose(omega, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(build_theta(omega), np.eye(2), atol=1e-14)


def test_omega_rows_are_scaled_left_bras(hand_frame):
    omega = build_omega(hand_frame, [1.0, 1.0])
    np.testing.assert_allclose(omega, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)
    scaled = build_omega(hand_frame, [2.0, 1.0])
    np.testing.assert_allclose(scaled, [[2.0, -2.0], [0.0, 1.0]], atol=1e-14)


def test_zero_mu_rejected(hand_frame):
    with pytest.raises(ScenarioError, match="nonzero"):
        build_omega(hand_frame, [1.0, 0.0])


def test_omega_inverse_is_frame_exact(hand_frame):
    mu = np.array([2.0, 0.5 + 0.5j])
    omega = build_omega(hand_frame, mu)
    inv = omega_inverse(hand_frame, mu)
    np.testing.assert_allclose(omega @ inv, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(inv @ omega, np.eye(2), atol=1e-14)


def test_theta_fixture(hand_frame):
    omega = build_omega(hand_frame, [1.0, 1.0])
    theta = build_theta(omega)
    np.testing.assert_allclose(theta, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)
    eigs = np.linalg.eigvalsh(theta)
    expected = np.array([(3.0 - np.sqrt(5.0)) / 2.0, (3.0 + np.sqrt(5.0)) / 2.0])
    np.testing.assert_allclose(eigs, expected, atol=1e-12)
    assert eigs[0] > 0


def test_theta_two_assembly_paths_agree(hand_frame):
    mu = np.array([1.3, 0.4 - 0.6j])
    direct = build_theta(build_omega(hand_frame, mu))
    spectral = theta_spectral(hand_frame, mu)
    np.testing.assert_allclose(direct, spectral, atol=1e-12)


def test_theta_depends_only_on_mu_modulus(hand_frame):
    direct = build_theta(build_omega(hand_frame, [1.0, 1.0]))
    phased = build_theta(build_omega(hand_frame, [np.exp(0.4j), np.exp(-1.1j)]))
    np.testing.assert_allclose(direct, phased, atol=1e-14)


def test_hermitize_identity_and_fixture(hand_frame, hand_matrix):
    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_allclose(hermitize(np.eye(2), H, np.eye(2)), H, atol=1e-14)

    omega = build_omega(hand_frame, [1.0, 1.0])
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
    omega = build_omega(frame, mu)
    h = hermitize(omega, H, omega_inverse(frame, mu))
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
    dots = build_dressing_track(model, EXP_MU, times).omega_dot  # a static H: the exact mu route
    t = times[2]
    mu = np.array([np.exp(0.3 * t), np.exp(-0.1 * t)])
    omega = build_omega(frame, mu)
    np.testing.assert_allclose(dots[2], np.diag([0.3, -0.1]) * mu[:, None], atol=1e-12)
    gen = build_generator(H, dots[2], np.linalg.inv(omega))
    np.testing.assert_allclose(gen, np.diag([1.0 - 0.3j, 2.0 + 0.1j]), atol=1e-12)


def test_constant_everything_gives_zero_omega_dot():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1.0))
    _, fine = time_grid(0.0, 1.0, 0.1)
    track = build_dressing_track(model, mu, fine)
    for omega_dot in track.omega_dot:
        np.testing.assert_allclose(omega_dot, 0.0, atol=1e-15)


def test_finite_difference_matches_analytic():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    _, fine = time_grid(0.0, 1.0, 1e-3)
    # a static H takes the exact route; stencils over its Omega samples agree
    track = build_dressing_track(model, EXP_MU, fine)
    fd = differentiate_samples(track.omega, track.step)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(track.omega_dot, fd))
    assert worst < 1e-10
    assert np.any(track.omega_dot != fd)  # the two routes differ


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
        fd = differentiate_samples(track.omega, track.step)
        mid = len(fine) // 2  # interior: central stencils
        errors.append(np.max(np.abs(track.omega_dot[mid] - fd[mid])))
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
    theta = build_theta(build_omega(hand_frame, [1.0, 1.0]))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert theta_inner(a, a, theta).real > 0.0


def test_metric_relation_against_standard_product(hand_frame):
    mu = np.array([1.0, 2.0 - 1.0j])
    omega = build_omega(hand_frame, mu)
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
    theta = build_theta(build_omega(frame, mu))
    # simulate a continuity re-phasing and rebuild
    z = np.exp(1.3j)
    rotated = type(frame)(
        t=frame.t,
        energies=frame.energies.copy(),
        right_kets=frame.right_kets * z,
        left_bras=frame.left_bras * np.conj(z),
        raw_overlaps=frame.raw_overlaps.copy(),
    )
    tracked = track_continuity(stack_frames(frame, rotated))
    theta_again = build_theta(build_omega(tracked, np.stack([mu, mu]))[1])
    assert np.max(np.abs(theta - theta_again)) < 1e-10


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


def test_continuity_failure_before_a_later_solve_failure_wins():
    from qhdyn import AmbiguousMatchError, ExceptionalPointError
    from qhdyn.dressing import _tracked_frames

    ok = np.diag([1.0, 2.0]).astype(complex)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ep = np.array([[1j, 1.0], [1.0, -1j]])
    times = np.array([0.0, 1.0, 2.0, 3.0])
    # point 2 cannot be matched to point 1; point 3 is an exceptional point
    with pytest.raises(AmbiguousMatchError, match="t=2"):
        _tracked_frames(np.array([ok, ok, had @ ok @ had, ep]), times, "report")
    # at one point the solve fails before continuity is tried
    with pytest.raises(ExceptionalPointError, match="t=1"):
        _tracked_frames(np.array([ok, ep]), times[:2], "report")


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_each_distinct_hamiltonian_is_solved_once(name, monkeypatch):
    import qhdyn.dressing

    shapes = []

    def spy(H, *args, **kwargs):
        shapes.append(np.shape(H))
        return eig_biorthogonal(H, *args, **kwargs)

    monkeypatch.setattr(qhdyn.dressing, "eig_biorthogonal", spy)
    cfg = load_scenario(name)
    _, fine = time_grid(cfg.t0, cfg.t1, cfg.dt)
    build_dressing_track(cfg.model, cfg.mu, fine, cfg.reality_policy)
    n = cfg.model.dimension
    static = name in ("exp_metric_drive", "rand4_metric_sin", "static_hermitian")
    assert shapes == [(1 if static else len(fine), n, n)]


def test_static_track_repeats_one_frame():
    model = HamiltonianModel(4, "similarity-rand", {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7})
    mu = tuple(ScheduleSpec("sinusoidal", base=1.0, amplitude=0.4, frequency=k + 1.0) for k in range(4))
    _, fine = time_grid(0.0, 1.0, 0.01)
    track = build_dressing_track(model, mu, fine)
    # one solve held as a read-only view over the grid
    for values in (track.hamiltonians, track.right_kets, track.energies):
        assert values.shape[0] == len(fine) and values.strides[0] == 0
        assert not values.flags.writeable
    # equal to the frame a point-by-point sweep tracks at every point
    hams = build_hamiltonian(model, fine)
    np.testing.assert_array_equal(track.hamiltonians, hams)
    reference = reference_track(hams, fine)
    for field in ("energies", "right_kets"):
        expected = np.array([getattr(f, field) for f in reference])
        np.testing.assert_allclose(getattr(track, field), expected, rtol=0.0, atol=1e-12)


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
    from qhdyn.dressing import _tracked_frames

    # pt2 at gamma = s; the model itself rejects a static gamma(0) = s, so
    # the stack is taken from a ramp at t = 0 and t = 1
    ramp = HamiltonianModel(
        2, "pt2", {"gamma": 0.0, "s": 1.0}, {"gamma": ScheduleSpec("linear-ramp", base=0.0, rate=1.0)}
    )
    ok, ep = build_hamiltonian(ramp, np.array([0.0, 1.0]))
    times = np.linspace(0.3, 0.8, 6)
    with pytest.raises(ExceptionalPointError, match="t=0.3"):
        _tracked_frames(np.array([ep] * 6), times, "report")
    with pytest.raises(ExceptionalPointError, match="t=0.6"):
        _tracked_frames(np.array([ok] * 3 + [ep] * 3), times, "report")


def test_cubic_ramp_leaves_the_real_phase_at_the_same_time():
    # the N=8 truncation leaves its real phase between g(0.0485) and g(0.049);
    # the real-gauge solve reports it at the same grid time as the complex one
    ramp = {"g": ScheduleSpec("linear-ramp", base=0.02, rate=0.5)}
    model = HamiltonianModel(8, "cubic-trunc", {"g": 0.02}, ramp)
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=0.1 * (k - 4)) for k in range(8))
    _, fine = time_grid(0.0, 0.25, 1e-3)
    with pytest.raises(ComplexSpectrumError, match=r"at t=0\.049 ") as info:
        build_dressing_track(model, mu, fine)
    assert info.value.t == pytest.approx(0.049, abs=1e-12)


def test_cubic_track_has_an_exactly_real_spectrum():
    cfg = load_scenario("cubic_osc_drive")
    _, fine = time_grid(cfg.t0, cfg.t1, cfg.dt)
    track = build_dressing_track(cfg.model, cfg.mu, fine, cfg.reality_policy)
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
