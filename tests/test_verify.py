import dataclasses

import numpy as np
import pytest

from qhdyn import (
    HamiltonianModel,
    InvariantReport,
    ObservableSpec,
    ScenarioError,
    build_dressing_track,
    propagate_quasi,
    run_standard_checks,
    time_grid,
)
from qhdyn.dressing import Block
from qhdyn.scenario import scenario_from_dict
from qhdyn.verify import unmet_need
from qhdyn.schedules import ScheduleSpec

MU2 = (
    ScheduleSpec("exponential", base=1.0, rate=0.3),
    ScheduleSpec("exponential", base=1.0, rate=-0.1),
)


@pytest.fixture(scope="module")
def generic_run():
    model = HamiltonianModel(
        2,
        "triangular2",
        {"e1": 1.0, "e2": 2.0, "c": 1.0},
        {"c": ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=2.0)},
        a_observables=(),
    )
    _, fine = time_grid(0.0, 1.0, 1e-3)
    track = build_dressing_track(model, MU2, fine)
    traj = propagate_quasi(track, "uniform")
    return track, traj


def _check(name, traj, track, *observables):
    """Check ``name`` alone, with the track's model declaring ``observables`` when given."""
    if observables:
        track = dataclasses.replace(track, model=dataclasses.replace(track.model, a_observables=observables))
    return run_standard_checks(traj, track, selection=[name])[0]


def _isospectrality(track):
    # isospectrality reads only the track
    return _check("isospectrality", None, track)


def _with_omega_inv(track, stack):
    """The track with Omega^-1 read from the (M, N, N) ``stack`` instead of its frame."""
    track = dataclasses.replace(track)
    object.__setattr__(track, "omega_inv", lambda points=slice(None): stack[points])
    return track


def test_report_semantics():
    passing = InvariantReport.from_series("x", [0.0, 1.0], [1e-12, 5e-11], 1e-9)
    assert passing.passed and passing.max_residual == pytest.approx(5e-11)
    failing = InvariantReport.from_series("x", [0.0], [2e-9], 1e-9)
    assert not failing.passed
    # passed <=> max_residual < threshold, strictly
    edge = InvariantReport.from_series("x", [0.0], [1e-9], 1e-9)
    assert not edge.passed


def test_norm_conservation_static_is_tiny():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1.0))
    _, fine = time_grid(0.0, 1.0, 1e-3)
    track = build_dressing_track(model, mu, fine)
    traj = propagate_quasi(track, "uniform")
    assert _check("theta-norm-conservation", traj, track).max_residual < 1e-12


def test_norm_conservation_eigenstate_is_tiny(generic_run):
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    _, fine = time_grid(0.0, 1.0, 1e-3)
    track = build_dressing_track(model, MU2, fine)
    traj = propagate_quasi(track, ("eigenstate", 1))
    assert _check("theta-norm-conservation", traj, track).max_residual < 1e-12


def test_norm_conservation_generic(generic_run):
    track, traj = generic_run
    report = _check("theta-norm-conservation", traj, track)
    assert report.passed and report.max_residual < 1e-8
    assert report.residuals[0] == 0.0


def test_equivalence_series_thresholds(generic_run):
    track, traj = generic_run
    report = _check("equivalence", traj, track)
    assert report.passed and report.max_residual < 1e-7


def test_standard_unitarity(generic_run):
    track, traj = generic_run
    report = _check("standard-unitarity", traj, track)
    assert report.passed and report.max_residual < 1e-10
    assert report.residuals[0] < 1e-15  # u(t0) = I


@pytest.mark.parametrize("field", ["omega_inv", "energies"])
def test_isospectrality_catches_a_corrupted_point(generic_run, field):
    # a wrong Omega^-1 moves the spectrum of h; wrong track energies are a
    # wrong spectrum of H, which the check reads from the track
    track, _ = generic_run
    k = 137
    values = track.omega_inv() if field == "omega_inv" else track.energies.copy()
    values[k] *= 1.001
    corrupted = _with_omega_inv(track, values) if field == "omega_inv" else dataclasses.replace(track, energies=values)
    report = _isospectrality(corrupted)
    assert _isospectrality(track).passed and not report.passed
    assert np.flatnonzero(report.residuals >= report.threshold).tolist() == [k]


def test_isospectrality_residual_is_the_gershgorin_radius(generic_run):
    # mixing the two columns of Omega^-1 at one point only fills the
    # off-diagonal of h = Omega H Omega^-1; the radius must count it
    track, _ = generic_run
    k = 40
    omega_inv = track.omega_inv()
    omega_inv[k] = omega_inv[k] @ np.array([[1.0, 1e-6], [0.0, 1.0]])
    report = _isospectrality(_with_omega_inv(track, omega_inv))
    h = track.omega() @ track.hamiltonian() @ omega_inv
    radius = np.max(np.sum(np.abs(h - track.energies[:, :, None] * np.eye(2)), axis=-1), axis=-1)
    np.testing.assert_allclose(report.residuals, radius, rtol=0.0, atol=1e-15)
    assert report.residuals[k] == pytest.approx(1e-6 * abs(track.energies[k, 0]), rel=1e-6)
    assert np.flatnonzero(report.residuals >= report.threshold).tolist() == [k]


def test_isospectrality_falls_back_to_eigvals_where_discs_overlap(monkeypatch):
    # levels 1e-6 apart: a relative error of 7e-7 in Omega^-1 widens the
    # Gershgorin discs past half the gap, and only those points are eigensolved;
    # an error of 1e-8 keeps them disjoint and is caught by the certificate
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 1.0 + 1e-6, "c": 1e-6})
    _, fine = time_grid(0.0, 1.0, 1e-2)
    track = build_dressing_track(model, MU2, fine)
    overlapping, certified = [30, 71], [50]
    omega_inv = track.omega_inv()
    omega_inv[overlapping] *= 1.0 + 7e-7
    omega_inv[certified] *= 1.0 + 1e-8

    solved = []
    eigvals = np.linalg.eigvals

    def spy(a):
        solved.append(a.copy())
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    assert _isospectrality(track).max_residual < 1e-14
    assert solved == []

    report = _isospectrality(_with_omega_inv(track, omega_inv))
    assert len(solved) == 1
    h = track.omega()[overlapping] @ track.hamiltonian(overlapping) @ omega_inv[overlapping]
    np.testing.assert_allclose(solved[0], h, rtol=0.0, atol=1e-15)
    spec_h = np.sort_complex(eigvals(h))
    spec_e = np.sort_complex(track.energies[overlapping])
    np.testing.assert_allclose(
        report.residuals[overlapping], np.max(np.abs(spec_h - spec_e), axis=-1), rtol=1e-6
    )
    # the certificate bounds the spectral distance from above: |1e-8 E_i| <= r
    assert 1e-8 <= report.residuals[certified[0]] < 1.1e-8
    failing = np.flatnonzero(report.residuals >= report.threshold).tolist()
    assert failing == sorted(overlapping + certified)


def test_observable_reality_identity_and_hamiltonian(generic_run):
    track, traj = generic_run
    eye = ObservableSpec("I", "user-matrix", np.eye(2))
    report = _check("observable-reality", traj, track, eye, ObservableSpec("H", "hamiltonian-itself"))
    assert report.passed


SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_observable_reality_conjugated_seed(generic_run):
    track, traj = generic_run
    report = _check("observable-reality", traj, track, ObservableSpec("imbalance", "function-of-frame", SIGMA_Z))
    assert report.passed and report.max_residual < 1e-9


def test_observable_gate_ignores_a_quasi_hermiticity_override(generic_run):
    # the gate keeps the default quasi-hermiticity threshold whatever a
    # scenario sets for the quasi-hermiticity check itself
    track, traj = generic_run
    model = dataclasses.replace(track.model, a_observables=(ObservableSpec("imbalance", "function-of-frame", SIGMA_Z),))
    track = dataclasses.replace(track, model=model)
    plain, tight = (
        run_standard_checks(traj, track, selection=["observable-reality"], overrides=overrides)[0]
        for overrides in ({}, {"quasi-hermiticity": 1e-30})
    )
    np.testing.assert_array_equal(plain.residuals, tight.residuals)


def test_observable_reality_gates_illegitimate_matrices(generic_run):
    track, traj = generic_run
    bogus = ObservableSpec("bogus", "user-matrix", np.array([[0.0, 1.0], [0.0, 0.0]]))
    report = _check("observable-reality", traj, track, bogus)
    assert not report.passed
    assert report.max_residual > 0.1  # the residual gate itself, not a tiny Im part


def test_run_standard_checks_all_pass(generic_run):
    track, traj = generic_run
    reports = run_standard_checks(traj, track)
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "theta-norm-conservation" in names
    assert "observable-reality" not in names  # none declared


def test_run_standard_checks_selection_and_overrides(generic_run):
    track, traj = generic_run
    reports = run_standard_checks(
        traj,
        track,
        selection=["theta-norm-conservation"],
        overrides={"theta-norm-conservation": 1e-30},
    )
    assert len(reports) == 1
    assert not reports[0].passed  # absurd threshold forces a check failure

    with pytest.raises(ScenarioError, match="unknown check"):
        run_standard_checks(traj, track, selection=["made-up"])
    with pytest.raises(ScenarioError, match="unknown check"):
        run_standard_checks(traj, track, overrides={"made-up": 1.0})


def test_checks_skip_left_picture_when_absent():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    mu = (ScheduleSpec("constant", base=1.0), ScheduleSpec("constant", base=1.0))
    _, fine = time_grid(0.0, 1.0, 0.1)
    track = build_dressing_track(model, mu, fine)
    traj = propagate_quasi(track, "uniform", pictures=("right", "standard"))
    names = {r.name for r in run_standard_checks(traj, track)}
    assert "left-right-duality" not in names
    assert "state-consistency" not in names
    with pytest.raises(ScenarioError, match="picture"):
        run_standard_checks(traj, track, selection=["left-right-duality"])


@pytest.mark.parametrize("series", [None, ()])
def test_observable_reality_needs_declared_observables(generic_run, series):
    # the model declares none: an absent and an empty list are both unmet
    track, traj = generic_run
    assert unmet_need("observable-reality", traj.phi_left is not None, series).endswith("no observables declared")
    assert "observable-reality" not in {r.name for r in run_standard_checks(traj, track)}
    with pytest.raises(ScenarioError, match="no observables declared"):
        run_standard_checks(traj, track, selection=["observable-reality"])


def test_realize_observable_sources(generic_run):
    track, traj = generic_run
    block = Block(track, slice(2, 9, 2), slice(1, 5))  # four reporting points
    hamiltonian = block.observable(ObservableSpec("H", "hamiltonian-itself"))
    np.testing.assert_array_equal(hamiltonian, track.hamiltonian(block.points))
    fixed = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    matrices = block.observable(ObservableSpec("X", "user-matrix", fixed))
    assert matrices.shape == (4, 2, 2) and matrices.strides[0] == 0 and not matrices.flags.writeable
    np.testing.assert_array_equal(matrices, np.broadcast_to(fixed, (4, 2, 2)))
    conjugated = block.observable(ObservableSpec("Z", "function-of-frame", SIGMA_Z))
    points = block.points
    np.testing.assert_allclose(conjugated, track.omega_inv()[points] @ SIGMA_Z @ track.omega()[points], atol=1e-14)


def test_worst_t_is_the_first_non_finite_else_the_largest_residual():
    times = [0.0, 0.5, 1.0, 1.5]
    assert InvariantReport.from_series("x", times, [1e-12, 3e-12, 2e-12, 0.0], 1e-9).worst_t == 0.5
    assert InvariantReport.from_series("x", times, [1e-12, 5.0, np.inf, np.nan], 1e-9).worst_t == 1.0
    assert InvariantReport.from_series("x", times, [1e-12, np.nan, np.inf, 0.0], 1e-9).worst_t == 0.5


def _document(dimension, t1=0.1):
    """A moving cubic-trunc document that runs all nine checks, with one observable of each source."""
    rng = np.random.default_rng(dimension)
    seed = rng.standard_normal((dimension, dimension))
    return {
        "model": {
            "family": "cubic-trunc",
            "dimension": dimension,
            "params": {"g": 0.025},
            "h_schedule": {"g": {"kind": "sinusoidal", "base": 0.025, "amplitude": 0.3, "frequency": 2.0}},
            "a_observables": [
                {"name": "H", "matrix_source": "hamiltonian-itself"},
                {"name": "Z", "matrix_source": "function-of-frame", "data": (seed + seed.T).tolist()},
                {"name": "X", "matrix_source": "user-matrix", "data": np.eye(dimension).tolist()},
            ],
        },
        "mu": [{"kind": "exponential", "base": 1.0, "rate": 0.05 * (k - 2)} for k in range(dimension)],
        "time": {"t0": 0.0, "t1": t1, "dt": 1e-3},
        "evolution": {"reality": "report"},
    }


def _solved(config):
    _, fine = time_grid(config.t0, config.t1, config.dt)
    track = build_dressing_track(config.model, config.mu, fine)
    return track, propagate_quasi(track, config.initial_state, pictures=config.pictures)


@pytest.mark.parametrize("dimension", [5, 6])
def test_checks_and_csv_do_not_depend_on_the_blocks(dimension, monkeypatch):
    # 7 points per frame block, odd before the checks' pass rounds it down to 6
    # fine points (3 reporting rows); the last block of either pass is ragged
    import qhdyn.dressing
    from qhdyn.runner import _tabulate

    config = scenario_from_dict(_document(dimension))
    track, traj = _solved(config)
    reports = run_standard_checks(traj, track)
    _, table = _tabulate(config, track, traj)
    assert len(reports) == 9
    monkeypatch.setattr(qhdyn.dressing, "_FRAME_ENTRIES", 7 * dimension**2)
    assert [len(track.times[b.points]) for b in track.blocks()][-2:] == [6, len(track.times) % 6]
    assert [len(track.times[b.points]) for b in track.blocks(step=2)][-2:] == [3, len(traj.times) % 3]
    small = run_standard_checks(traj, track)
    assert [r.name for r in small] == [r.name for r in reports]
    for report, again in zip(reports, small):
        assert report.residuals.tobytes() == again.residuals.tobytes(), report.name
        alone = run_standard_checks(traj, track, selection=[report.name])[0]
        assert report.residuals.tobytes() == alone.residuals.tobytes(), report.name
        np.testing.assert_array_equal(report.times, alone.times)
    assert _tabulate(config, track, traj)[1].tobytes() == table.tobytes()


def _moving_cubic8_seed1(monkeypatch):
    """The moving-cubic8 benchmark workload's document at seed 1."""
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    return importlib.import_module("workloads").WORKLOADS["moving-cubic8"].document(1)


@pytest.mark.parametrize("name", ["cubic_osc_drive", "moving-cubic8"])
def test_each_pass_forms_h_theta_omega_and_its_inverse_once_per_point(name, monkeypatch):
    # the matrices the four builders return, counted from outside the package:
    # the checks form each at the M fine points plus t0, the CSV at the K reporting points plus t0
    import qhdyn.dressing
    import qhdyn.model
    from conftest import load_scenario
    from qhdyn.runner import _tabulate

    config = load_scenario(name) if name == "cubic_osc_drive" else scenario_from_dict(_moving_cubic8_seed1(monkeypatch))
    track, traj = _solved(config)
    formed = {}

    def counted(label, build):
        def wrapper(*args, **kwargs):
            result = build(*args, **kwargs)
            formed[label] = formed.get(label, 0) + int(np.prod(np.shape(result)[:-2]))
            return result

        return wrapper

    monkeypatch.setattr(qhdyn.model, "build_hamiltonian", counted("H", qhdyn.model.build_hamiltonian))
    for builder in ("build_theta", "build_omega", "omega_inverse"):
        monkeypatch.setattr(qhdyn.dressing, builder, counted(builder, getattr(qhdyn.dressing, builder)))
    labels = {"H", "build_theta", "build_omega", "omega_inverse"}
    assert len(run_standard_checks(traj, track)) == 9
    assert set(formed) == labels and max(formed.values()) <= len(track.times) + 1, formed
    formed.clear()
    _tabulate(config, track, traj)
    assert set(formed) == labels and max(formed.values()) <= len(traj.times) + 1, formed
