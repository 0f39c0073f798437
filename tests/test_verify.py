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
from qhdyn.model import realize_observable
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


def _check(name, traj, track, observable_series=None):
    return run_standard_checks(traj, track, observable_series, selection=[name])[0]


def _isospectrality(track):
    # isospectrality reads only the track
    return _check("isospectrality", None, track)


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
    values = getattr(track, field).copy()
    values[k] *= 1.001
    report = _isospectrality(dataclasses.replace(track, **{field: values}))
    assert _isospectrality(track).passed and not report.passed
    assert np.flatnonzero(report.residuals >= report.threshold).tolist() == [k]


def test_isospectrality_residual_is_the_gershgorin_radius(generic_run):
    # mixing the two columns of Omega^-1 at one point only fills the
    # off-diagonal of h = Omega H Omega^-1; the radius must count it
    track, _ = generic_run
    k = 40
    omega_inv = track.omega_inv.copy()
    omega_inv[k] = omega_inv[k] @ np.array([[1.0, 1e-6], [0.0, 1.0]])
    report = _isospectrality(dataclasses.replace(track, omega_inv=omega_inv))
    h = track.omega @ track.hamiltonians @ omega_inv
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
    omega_inv = track.omega_inv.copy()
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

    report = _isospectrality(dataclasses.replace(track, omega_inv=omega_inv))
    assert len(solved) == 1
    h = track.omega[overlapping] @ track.hamiltonians[overlapping] @ omega_inv[overlapping]
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
    eye = [np.eye(2)] * len(traj.times)
    h_series = track.hamiltonians[::2]
    report = _check("observable-reality", traj, track, {"I": eye, "H": h_series})
    assert report.passed


def test_observable_reality_conjugated_seed(generic_run):
    track, traj = generic_run
    seed = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    series = track.omega_inv[::2] @ seed @ track.omega[::2]
    report = _check("observable-reality", traj, track, {"imbalance": series})
    assert report.passed and report.max_residual < 1e-9


def test_observable_gate_ignores_a_quasi_hermiticity_override(generic_run):
    # the gate keeps the default quasi-hermiticity threshold whatever a
    # scenario sets for the quasi-hermiticity check itself
    track, traj = generic_run
    seed = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    series = {"imbalance": track.omega_inv[::2] @ seed @ track.omega[::2]}
    plain, tight = (
        run_standard_checks(traj, track, series, selection=["observable-reality"], overrides=overrides)[0]
        for overrides in ({}, {"quasi-hermiticity": 1e-30})
    )
    np.testing.assert_array_equal(plain.residuals, tight.residuals)


def test_observable_reality_gates_illegitimate_matrices(generic_run):
    track, traj = generic_run
    bogus = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)] * len(traj.times)
    report = _check("observable-reality", traj, track, {"bogus": bogus})
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


@pytest.mark.parametrize("series", [None, {}])
def test_observable_reality_needs_declared_observables(generic_run, series):
    track, traj = generic_run
    assert "observable-reality" not in {r.name for r in run_standard_checks(traj, track, series)}
    with pytest.raises(ScenarioError, match="no observables declared"):
        run_standard_checks(traj, track, series, selection=["observable-reality"])


def test_realize_observable_sources(generic_run):
    track, traj = generic_run
    omega, omega_inv = track.omega[0], track.omega_inv[0]
    H = track.hamiltonians[0]
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
