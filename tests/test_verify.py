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
from qhdyn.verify import select_checks
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
    passing = InvariantReport("x", np.array([0.0, 1.0]), np.array([1e-12, 5e-11]), 1e-9)
    assert passing.passed and passing.max_residual == pytest.approx(5e-11)
    failing = InvariantReport("x", np.array([0.0]), np.array([2e-9]), 1e-9)
    assert not failing.passed
    # passed <=> max_residual < threshold, strictly
    edge = InvariantReport("x", np.array([0.0]), np.array([1e-9]), 1e-9)
    assert not edge.passed
    # a NaN residual makes the maximum NaN, and fails
    undefined = InvariantReport("x", np.array([0.0, 1.0]), np.array([0.0, np.nan]), 1e-9)
    assert np.isnan(undefined.max_residual) and not undefined.passed


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
    with pytest.raises(ScenarioError, match="no observables declared$"):
        select_checks(["observable-reality"], None, traj.phi_left is not None, series)
    assert "observable-reality" not in {r.name for r in run_standard_checks(traj, track)}
    with pytest.raises(ScenarioError, match="no observables declared"):
        run_standard_checks(traj, track, selection=["observable-reality"])


def _tri_sin_drive(**edits):
    """tri_sin_drive's document at dt = 1e-2, with dotted-path ``edits``."""
    from conftest import SCENARIO_DIR
    from qhdyn.scenario import load_document, set_by_path

    raw = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    raw["time"]["dt"] = 1e-2
    for path, value in edits.items():
        set_by_path(raw, path, value)
    return raw


@pytest.mark.parametrize(
    "checks, edits, message",
    [
        (["nonsense"], {}, "unknown check name 'nonsense'"),
        ([{"name": "equivalence", "threshold": 0}], {}, "check 'equivalence': threshold must be a positive number"),
        ([{"name": "equivalence", "threshold": -1}], {}, "check 'equivalence': threshold must be a positive number"),
        ([], {}, "checks names no check; omit the key or set it to null to run every applicable check"),
        (["equivalence", "equivalence"], {}, "checks lists 'equivalence' more than once"),
        (["left-right-duality"], {"pictures": ["right"]}, "check needs the 'left' picture, which was not integrated"),
        (["observable-reality"], {"model.a_observables": []},
         "observable-reality requested but no observables declared"),
    ],
)
def test_a_bad_check_setting_is_one_error_in_a_document_and_the_api(checks, edits, message):
    raw = _tri_sin_drive(**edits)
    with pytest.raises(ScenarioError) as document:
        scenario_from_dict(raw | {"checks": checks})
    track, traj = _solved(scenario_from_dict(raw))
    selection = [entry if isinstance(entry, str) else entry["name"] for entry in checks]
    overrides = {entry["name"]: entry["threshold"] for entry in checks if isinstance(entry, dict)}
    with pytest.raises(ScenarioError) as api:
        run_standard_checks(traj, track, selection=selection, overrides=overrides)
    assert str(document.value) == str(api.value) == message


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, "1e-7", True])
def test_a_threshold_that_is_not_a_finite_number_is_rejected(threshold):
    raw = _tri_sin_drive()
    with pytest.raises(ScenarioError, match=r"^checks\[0\]\.threshold must be a finite real number"):
        scenario_from_dict(raw | {"checks": [{"name": "equivalence", "threshold": threshold}]})
    track, traj = _solved(scenario_from_dict(raw))
    with pytest.raises(ScenarioError, match="^check 'equivalence': threshold must be a finite real number"):
        run_standard_checks(traj, track, selection=["equivalence"], overrides={"equivalence": threshold})


def test_an_override_outside_the_selection_is_ignored(generic_run):
    track, traj = generic_run
    assert select_checks(["equivalence"], {"quasi-hermiticity": 1e-30}, True, ()) == {"equivalence": 1e-7}
    reports = run_standard_checks(traj, track, selection=["equivalence"], overrides={"quasi-hermiticity": 1e-30})
    assert [(r.name, r.threshold, r.passed) for r in reports] == [("equivalence", 1e-7, True)]


def test_realize_observable_sources(generic_run):
    track, traj = generic_run
    block = Block(track, slice(2, 9), slice(1, 5))  # four reporting points
    hamiltonian = block.observable(ObservableSpec("H", "hamiltonian-itself"))
    np.testing.assert_array_equal(hamiltonian, track.hamiltonian(slice(2, 9, 2)))
    fixed = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    matrices = block.observable(ObservableSpec("X", "user-matrix", fixed))
    assert matrices.shape == (4, 2, 2) and matrices.strides[0] == 0 and not matrices.flags.writeable
    np.testing.assert_array_equal(matrices, np.broadcast_to(fixed, (4, 2, 2)))
    conjugated = block.observable(ObservableSpec("Z", "function-of-frame", SIGMA_Z))
    points = slice(2, 9, 2)
    np.testing.assert_allclose(conjugated, track.omega_inv()[points] @ SIGMA_Z @ track.omega()[points], atol=1e-14)


def test_worst_t_is_the_first_non_finite_else_the_largest_residual():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    assert InvariantReport("x", times, np.array([1e-12, 3e-12, 2e-12, 0.0]), 1e-9).worst_t == 0.5
    assert InvariantReport("x", times, np.array([1e-12, 5.0, np.inf, np.nan]), 1e-9).worst_t == 1.0
    assert InvariantReport("x", times, np.array([1e-12, np.nan, np.inf, 0.0]), 1e-9).worst_t == 0.5


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
    # fine points (3 reporting rows); the last block of the pass is ragged
    import qhdyn.dressing
    from qhdyn.runner import _tabulate

    config = scenario_from_dict(_document(dimension))
    track, traj = _solved(config)

    def checked(selection=None):
        """The reports and the CSV rows of one check pass."""
        _, rows, table = _tabulate(config, track, traj)
        return run_standard_checks(traj, track, selection=selection, table=table), rows

    reports, rows = checked()
    assert len(reports) == 9
    monkeypatch.setattr(qhdyn.dressing, "_FRAME_ENTRIES", 7 * dimension**2)
    assert [len(track.times[b.points]) for b in track.blocks()][-2:] == [6, len(track.times) % 6]
    small, small_rows = checked()
    assert [r.name for r in small] == [r.name for r in reports]
    for report, again in zip(reports, small):
        assert report.residuals.tobytes() == again.residuals.tobytes(), report.name
        alone, alone_rows = checked([report.name])
        assert report.residuals.tobytes() == alone[0].residuals.tobytes(), report.name
        np.testing.assert_array_equal(report.times, alone[0].times)
        # the CSV does not depend on which checks ran with it
        assert alone_rows.tobytes() == rows.tobytes(), report.name
    assert small_rows.tobytes() == rows.tobytes()
    # without a table the pass forms the same reports
    for report, plain in zip(reports, run_standard_checks(traj, track)):
        assert report.residuals.tobytes() == plain.residuals.tobytes(), report.name


def _moving_cubic8_seed1(monkeypatch):
    """The moving-cubic8 benchmark workload's document at seed 1."""
    import importlib
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    return importlib.import_module("workloads").WORKLOADS["moving-cubic8"].document(1)


@pytest.mark.parametrize("name", ["cubic_osc_drive", "moving-cubic8"])
def test_each_pass_forms_h_theta_omega_and_its_inverse_once_per_point(name, monkeypatch):
    # the matrices the four builders return, counted from outside the package:
    # the check pass forms each at the M fine points plus t0, and the CSV it fills needs no other;
    # H's quasi-Hermiticity residual is formed at the M points once, and so is each other
    # observable's gate at the K reporting points, while <a|Theta|b> is formed for the means alone
    import qhdyn.dressing
    import qhdyn.model
    from conftest import load_scenario
    from qhdyn.runner import _tabulate

    config = load_scenario(name) if name == "cubic_osc_drive" else scenario_from_dict(_moving_cubic8_seed1(monkeypatch))
    track, traj = _solved(config)
    formed = {}

    def counted(label, build, rank=2):
        """``build`` counting the points of its result, of a rank-``rank`` value per point."""
        def wrapper(*args, **kwargs):
            result = build(*args, **kwargs)
            formed[label] = formed.get(label, 0) + int(np.prod(np.shape(result)[: np.ndim(result) - rank]))
            return result

        return wrapper

    monkeypatch.setattr(qhdyn.model, "build_hamiltonian", counted("H", qhdyn.model.build_hamiltonian))
    for builder in ("build_theta", "build_omega", "omega_inverse"):
        monkeypatch.setattr(qhdyn.dressing, builder, counted(builder, getattr(qhdyn.dressing, builder)))
    for value in ("quasi_hermiticity_residual", "theta_inner"):
        monkeypatch.setattr(qhdyn.dressing, value, counted(value, getattr(qhdyn.dressing, value), rank=0))
    labels = {"H", "build_theta", "build_omega", "omega_inverse"}
    _, _, table = _tabulate(config, track, traj)
    assert formed == {}
    assert len(run_standard_checks(traj, track, table=table)) == 9
    observables = config.model.a_observables
    gates = sum(spec.source != "hamiltonian-itself" for spec in observables)
    assert formed.pop("quasi_hermiticity_residual") == len(track.times) + gates * len(traj.times)
    assert formed.pop("theta_inner") == len(observables) * len(traj.times)
    assert set(formed) == labels and max(formed.values()) <= len(track.times) + 1, formed
