import numpy as np
import pytest

from qhdyn import (
    HamiltonianModel,
    ScenarioError,
    build_dressing_track,
    propagate_quasi,
    realize_observable,
    run_standard_checks,
    time_grid,
)
from qhdyn.schedules import ScheduleSpec
from qhdyn.verify import (
    InvariantReport,
    check_equivalence,
    check_norm_conservation,
    check_observable_reality,
    check_standard_unitarity,
)

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
    assert check_norm_conservation(traj, track).max_residual < 1e-12


def test_norm_conservation_eigenstate_is_tiny(generic_run):
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    _, fine = time_grid(0.0, 1.0, 1e-3)
    track = build_dressing_track(model, MU2, fine)
    traj = propagate_quasi(track, ("eigenstate", 1))
    assert check_norm_conservation(traj, track).max_residual < 1e-12


def test_norm_conservation_generic(generic_run):
    track, traj = generic_run
    report = check_norm_conservation(traj, track)
    assert report.passed and report.max_residual < 1e-8
    assert report.per_time_series[0][1] == 0.0


def test_equivalence_series_thresholds(generic_run):
    track, traj = generic_run
    report = check_equivalence(traj, track)
    assert report.passed and report.max_residual < 1e-7


def test_standard_unitarity(generic_run):
    track, traj = generic_run
    report = check_standard_unitarity(traj)
    assert report.passed and report.max_residual < 1e-10
    assert report.per_time_series[0][1] < 1e-15  # u(t0) = I


def test_observable_reality_identity_and_hamiltonian(generic_run):
    track, traj = generic_run
    eye = [np.eye(2)] * len(traj.times)
    h_series = track.hamiltonians[::2]
    report = check_observable_reality(traj, {"I": eye, "H": h_series}, track)
    assert report.passed


def test_observable_reality_conjugated_seed(generic_run):
    track, traj = generic_run
    seed = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    series = track.omega_inv[::2] @ seed @ track.omega[::2]
    report = check_observable_reality(traj, {"imbalance": series}, track)
    assert report.passed and report.max_residual < 1e-9


def test_observable_reality_gates_illegitimate_matrices(generic_run):
    track, traj = generic_run
    bogus = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)] * len(traj.times)
    report = check_observable_reality(traj, {"bogus": bogus}, track)
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


def test_realize_observable_sources(generic_run):
    track, traj = generic_run
    omega, omega_inv = track.omega[0], track.omega_inv[0]
    H = track.hamiltonians[0]
    from qhdyn import ObservableSpec

    assert realize_observable(ObservableSpec("H", "hamiltonian-itself"), H, omega, omega_inv) is H
    fixed = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    np.testing.assert_array_equal(
        realize_observable(ObservableSpec("X", "user-matrix", fixed), H, omega, omega_inv),
        fixed,
    )
    seed = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    conjugated = realize_observable(
        ObservableSpec("Z", "function-of-frame", seed), H, omega, omega_inv
    )
    np.testing.assert_allclose(conjugated, omega_inv @ seed @ omega, atol=1e-14)
