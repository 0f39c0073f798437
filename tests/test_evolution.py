import dataclasses

import numpy as np
import pytest
import scipy.linalg

from qhdyn import (
    ConditioningError,
    DressingTrack,
    HamiltonianModel,
    ScenarioError,
    build_dressing_track,
    propagate_quasi,
    run_standard_checks,
    time_grid,
)
from qhdyn.dressing import build_generator, build_theta
from qhdyn.errors import IntegrationError
from qhdyn.evolution import expectation, rk4_increments, standard_phases
from qhdyn.schedules import ScheduleSpec

from conftest import SHIPPED_SCENARIOS, load_scenario
from reference import reference_propagate

CONST_MU2 = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1.0))
EXP_MU2 = (
    ScheduleSpec("exponential", base=1.0, rate=0.3),
    ScheduleSpec("exponential", base=1.0, rate=-0.1),
)


def _track(model, mu, t0=0.0, t1=1.0, dt=1e-3):
    _, fine = time_grid(t0, t1, dt)
    return build_dressing_track(model, mu, fine)


def _standard_propagator(track):
    """u over the whole track, from the accumulated phases at its last point."""
    return np.diag(np.exp(-1j * standard_phases(track)[-1]))


def _check(name, traj, track):
    return run_standard_checks(traj, track, selection=[name])[0]


def test_standard_propagator_constant_energies():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    track = _track(model, CONST_MU2, t1=np.pi, dt=np.pi / 100)
    u = _standard_propagator(track)
    np.testing.assert_allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)


def test_standard_propagator_unitary_for_scheduled_energies():
    model = HamiltonianModel(
        2,
        "pt2",
        {"gamma": 0.0, "s": 1.0},
        {"gamma": ScheduleSpec("linear-ramp", base=0.0, rate=0.8)},
    )
    track = _track(model, CONST_MU2, dt=1e-2)
    u = _standard_propagator(track)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def _inject_hamiltonian(monkeypatch, matrix):
    """Make every track's H the one ``matrix``, at any points asked for."""
    def hamiltonian(self, points=slice(None)):
        return np.broadcast_to(matrix, self.times[points].shape + matrix.shape)

    monkeypatch.setattr(DressingTrack, "hamiltonian", hamiltonian)


def test_zero_generator_leaves_the_kets_unchanged(monkeypatch):
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2, dt=1e-2)
    _inject_hamiltonian(monkeypatch, np.zeros((2, 2), dtype=complex))
    track = dataclasses.replace(track, mu_dot=np.zeros_like(track.mu_dot))
    phi0 = np.array([1.0, 2.0j])
    traj = propagate_quasi(track, phi0, pictures=("right", "left"))
    np.testing.assert_array_equal(traj.phi_right, np.broadcast_to(phi0, traj.phi_right.shape))
    left = build_theta(track.omega(0)) @ phi0
    np.testing.assert_array_equal(traj.phi_left, np.broadcast_to(left, traj.phi_left.shape))


def test_diagonal_generator_matches_scalar_exponentials(monkeypatch):
    # constant non-normal diagonal generator: components evolve independently
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2)
    _inject_hamiltonian(monkeypatch, np.diag([1.0 - 0.3j, 2.0 + 0.1j]))
    track = dataclasses.replace(track, mu_dot=np.zeros_like(track.mu_dot))
    phi0 = np.array([0.6, 0.8], dtype=complex)
    traj = propagate_quasi(track, phi0, pictures=("right", "left"))
    t = 1.0
    exact_right = np.array([np.exp((-1j - 0.3) * t) * 0.6, np.exp((-2j + 0.1) * t) * 0.8])
    exact_left = np.array([np.exp((-1j + 0.3) * t) * 0.6, np.exp((-2j - 0.1) * t) * 0.8])
    np.testing.assert_allclose(traj.phi_right[-1], exact_right, atol=1e-10)
    np.testing.assert_allclose(traj.phi_left[-1], exact_left, atol=1e-10)
    # plain norm of the right ket is not conserved for this generator
    assert abs(np.linalg.norm(traj.phi_right[-1]) - np.linalg.norm([0.6, 0.8])) > 1e-3


def test_static_scenario_generator_equals_hamiltonian():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2, dt=0.1)
    gens = build_generator(track.hamiltonian(), track.omega_dot(), track.omega_inv())
    np.testing.assert_array_equal(gens, track.hamiltonian())


def test_the_standard_propagator_is_formed_once():
    # the checks and the CSV read one (K, N) stack of u's diagonals, which
    # the integration forms from the Simpson phases
    config = load_scenario("tri_sin_drive")
    track = _track(config.model, config.mu)
    traj = propagate_quasi(track, config.initial_state)
    assert traj.u.shape == traj.phi_right.shape
    assert traj.u.tobytes() == np.exp(-1j * standard_phases(track)).tobytes()


def test_stationary_eigenstate_evolution():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    track = _track(model, CONST_MU2)
    traj = propagate_quasi(track, ("eigenstate", 0))
    phi0 = track.initial_ket(0)
    for t, phi in zip(traj.times, traj.phi_right):
        np.testing.assert_allclose(phi, np.exp(-1j * t) * phi0, atol=1e-9)
    drift = _check("theta-norm-conservation", traj, track)
    assert drift.max_residual < 1e-12


def test_degeneration_to_plain_hermitian_reference():
    # Theta = I: trajectory must match the textbook propagator
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2)
    traj = propagate_quasi(track, "uniform")
    H = track.hamiltonian(0)
    phi0 = traj.phi_right[0]
    for k in (250, 500, 1000):
        t = traj.times[k]
        reference = scipy.linalg.expm(-1j * H * t) @ phi0
        np.testing.assert_allclose(traj.phi_right[k], reference, atol=1e-10)


def test_generic_equivalence_residual():
    model = HamiltonianModel(
        2,
        "triangular2",
        {"e1": 1.0, "e2": 2.0, "c": 1.0},
        {"c": ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=2.0)},
    )
    track = _track(model, EXP_MU2)
    traj = propagate_quasi(track, "uniform")
    final = traj.phi_right[-1]
    oracle = track.omega_inv()[-1] @ _standard_propagator(track) @ track.omega()[0] @ traj.phi_right[0]
    assert np.linalg.norm(final - oracle) < 1e-7


def test_stationary_equivalence_residual_tight():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    track = _track(model, CONST_MU2)
    traj = propagate_quasi(track, ("eigenstate", 0))
    assert _check("equivalence", traj, track).max_residual < 1e-10


def test_rk4_convergence_order():
    model = HamiltonianModel(
        2,
        "triangular2",
        {"e1": 1.0, "e2": 2.0, "c": 1.0},
        {"c": ScheduleSpec("sinusoidal", base=1.0, amplitude=0.7, frequency=4.0)},
    )
    mu = (
        ScheduleSpec("exponential", base=1.0, rate=0.6),
        ScheduleSpec("exponential", base=1.0, rate=-0.4),
    )
    residuals = []
    for dt in (4e-3, 2e-3):
        track = _track(model, mu, dt=dt)
        traj = propagate_quasi(track, "uniform")
        final = traj.phi_right[-1]
        oracle = (
            track.omega_inv()[-1]
            @ _standard_propagator(track)
            @ track.omega()[0]
            @ traj.phi_right[0]
        )
        residuals.append(np.linalg.norm(final - oracle))
    ratio = residuals[0] / residuals[1]
    assert 10.0 < ratio < 22.0


def test_propagator_intertwining_relations():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.5, "s": 1.0})
    track = _track(model, EXP_MU2, dt=1e-2)
    traj = propagate_quasi(track, "uniform")
    u = _standard_propagator(track)
    u_right = track.omega_inv()[-1] @ u @ track.omega()[0]
    u_left_dag = track.omega()[-1].conj().T @ u @ track.omega_inv()[0].conj().T
    u_left = u_left_dag.conj().T
    np.testing.assert_allclose(u_left @ u_right, np.eye(2), atol=1e-7)
    # the stacked check evaluates the same product at every reporting point
    report = _check("propagator-intertwining", traj, track)
    assert report.passed
    assert report.residuals[-1] == pytest.approx(
        np.max(np.abs(u_left @ u_right - np.eye(2))), abs=1e-14
    )


def test_pictures_subset():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2, dt=0.1)
    traj = propagate_quasi(track, "uniform", pictures=("right",))
    assert traj.phi_left is None
    with pytest.raises(ScenarioError, match="mandatory"):
        propagate_quasi(track, "uniform", pictures=("left",))


def test_initial_state_resolution_errors():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    track = _track(model, CONST_MU2, dt=0.1)
    with pytest.raises(ScenarioError, match="preset"):
        propagate_quasi(track, "bogus")
    with pytest.raises(ScenarioError, match="out of range"):
        propagate_quasi(track, ("eigenstate", 5))
    with pytest.raises(ScenarioError, match="zero vector"):
        propagate_quasi(track, np.zeros(2))
    with pytest.raises(ScenarioError, match="not a normal double"):
        propagate_quasi(track, np.array([1e-200, 1e-200]))
    # the document's rule: a squared norm that overflows is rejected before any step
    with pytest.raises(ScenarioError, match="initial state is too large: its squared norm overflows"):
        propagate_quasi(track, np.array([1e200, 1e200]))
    with pytest.raises(ScenarioError, match="components"):
        propagate_quasi(track, np.ones(3))


def test_expectation_cases(hand_frame, hand_matrix):
    theta = np.array([[1.0, -1.0], [-1.0, 2.0]], dtype=complex)
    phi = np.array([1.0, 1.0], dtype=complex)
    assert expectation(phi, np.eye(2), theta) == pytest.approx(1.0, abs=1e-14)
    assert expectation(phi, hand_matrix, theta) == pytest.approx(2.0, abs=1e-14)
    # eigenstate gives the eigenvalue exactly
    assert expectation(hand_frame.right_kets[:, 1], hand_matrix, theta) == pytest.approx(2.0, abs=1e-12)
    # a (K, N) stack gives one value per ket
    stack = np.stack([phi, hand_frame.right_kets[:, 1]])
    np.testing.assert_allclose(expectation(stack, hand_matrix, theta), [2.0, 2.0], atol=1e-12)
    # a Theta-norm below the normal range is a conditioning abort naming its time
    for tiny in (0.0, 1e-155):
        with pytest.raises(ConditioningError, match=r"below the normal double range at t=0\.5;") as info:
            expectation(np.array([phi, tiny * phi]), np.eye(2), theta, np.array([0.0, 0.5]))
        assert info.value.t == 0.5
    with pytest.raises(ConditioningError, match=r"below the normal double range;"):
        expectation(np.zeros(2), np.eye(2), theta)


def _config_track(config):
    _, fine = time_grid(config.t0, config.t1, config.dt)
    return build_dressing_track(config.model, config.mu, fine)


@pytest.mark.parametrize("generator", ["hgen", "h-only"])
@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_step_matrices_match_sequential_rk4(name, generator):
    config = load_scenario(name, **{"evolution.generator": generator})
    track = _config_track(config)
    plain = generator == "h-only"
    traj = propagate_quasi(track, config.initial_state, pictures=config.pictures, use_plain_hamiltonian=plain)
    right, left, phases = reference_propagate(track, config.initial_state, config.pictures, plain)
    for got, expected in ((traj.phi_right, right), (traj.phi_left, left), (traj.u, np.exp(-1j * phases))):
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("index", [0, 701, 702, 2000])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("pictures", [("right",), ("right", "left")])
def test_non_finite_generator_blowup_names_the_sequential_step(index, bad, pictures):
    # one poisoned dOmega/dt sample at fine index ``index`` (a step midpoint
    # when odd, the end of one step and the start of the next when even),
    # through the mu derivative that a static H's dOmega/dt is formed from
    model = HamiltonianModel(2, "pt2", {"gamma": 0.5, "s": 1.0})
    track = _track(model, EXP_MU2)
    mu_dot = track.mu_dot.copy()
    mu_dot[index, 0] = bad
    track = dataclasses.replace(track, mu_dot=mu_dot)
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationError, match="non-finite") as expected:
            reference_propagate(track, "uniform", pictures)
        with pytest.raises(IntegrationError, match="non-finite") as got:
            propagate_quasi(track, "uniform", pictures=pictures)
    assert got.value.t == expected.value.t == track.times[max(index - 1, 0) // 2 * 2]
    assert f"t={got.value.t:g}" in str(got.value)


def test_increment_matrix_is_the_rk4_update():
    rng = np.random.default_rng(11)
    a0, am, a1 = rng.standard_normal((3, 2, 3, 3)) + 1j * rng.standard_normal((3, 2, 3, 3))
    vec = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    dt = 0.05
    k1 = -1j * (a0 @ vec[..., None])[..., 0]
    k2 = -1j * (am @ (vec + 0.5 * dt * k1)[..., None])[..., 0]
    k3 = -1j * (am @ (vec + 0.5 * dt * k2)[..., None])[..., 0]
    k4 = -1j * (a1 @ (vec + dt * k3)[..., None])[..., 0]
    expected = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = (rk4_increments(a0, am, a1, dt) @ vec[..., None])[..., 0]
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-14)


def test_increments_accumulate_as_the_stage_expressions():
    # in place, in the same order of operations: bit for bit the stage formulas
    rng = np.random.default_rng(12)
    begin, mid, end = rng.standard_normal((3, 130, 2, 4, 4)) + 1j * rng.standard_normal((3, 130, 2, 4, 4))
    dt = 0.03
    a, m, c = (-1j * dt) * begin, (-1j * dt) * mid, (-1j * dt) * end
    k2 = m + 0.5 * (m @ a)
    k3 = m + 0.5 * (m @ k2)
    k4 = c + c @ k3
    expected = (a + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    assert rk4_increments(begin, mid, end, dt).tobytes() == expected.tobytes()


def _propagate_transient(track, **kwargs):
    """tracemalloc peak of one propagate_quasi above what it started with."""
    import tracemalloc

    propagate_quasi(track, "uniform", **kwargs)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        propagate_quasi(track, "uniform", **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def test_propagate_transient_is_bounded_at_n8():
    # N = 8 cubic-trunc as in the moving-cubic8 benchmark, 250 steps with the
    # left picture: the kets and u are 0.1 MiB, and a 16-step block's
    # generator samples and RK4 stages about 0.2 MiB (64-step blocks took
    # the transient to 0.96 MiB)
    g = ScheduleSpec("sinusoidal", base=0.025, amplitude=0.3, frequency=2.0)
    model = HamiltonianModel(8, "cubic-trunc", {"g": 0.025}, {"g": g})
    mu = tuple(ScheduleSpec("exponential", base=1.0, rate=0.05 * (k - 4)) for k in range(8))
    track = _track(model, mu, t1=0.25)
    assert _propagate_transient(track, pictures=("right", "left")) <= 0.5


def test_propagate_transient_is_bounded_at_n4():
    # N = 4 over 1000 steps: the kets and u are 0.15 MiB, and the
    # 64-step blocks are as long as before the blocks were sized by entries
    config = load_scenario("cubic_osc_drive")
    track = _config_track(config)
    assert _propagate_transient(track, pictures=config.pictures) <= 0.4
