import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qhdyn.dressing
import qhdyn.runner
from qhdyn import NumericalDomainError, ScenarioError, run
from qhdyn.cli import main
from qhdyn.scenario import apply_overrides, load_document, scenario_from_dict
from qhdyn.runner import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    RunReport,
    report_json_dict,
    sweep,
    write_csv,
    write_outputs,
)

from conftest import SCENARIO_DIR, SHIPPED_SCENARIOS, load_scenario


def scenario_path(name):
    return str(SCENARIO_DIR / f"{name}.yaml")


def test_run_static_hermitian_exit_zero(capsys):
    code = main(["run", scenario_path("static_hermitian")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_run_writes_outputs(tmp_path, capsys):
    code = main(["run", scenario_path("exp_metric_drive"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    run_dir = tmp_path / "exp_metric_drive"
    csv = (run_dir / "timeseries.csv").read_text().splitlines()
    header = csv[0].split(",")
    assert header[:7] == [
        "t",
        "theta_norm",
        "std_norm",
        "equivalence_residual",
        "quasi_hermiticity_residual",
        "theta_min_eig",
        "theta_cond",
    ]
    assert "re_E1" in header and "im_E2" in header and "re_exp_H" in header
    assert len(csv) == 1 + 1001  # header + steps + 1 rows

    # metric norm constant to 1e-8 while the plain norm drifts
    idx_theta = header.index("theta_norm")
    idx_std = header.index("std_norm")
    theta_norms = np.array([float(line.split(",")[idx_theta]) for line in csv[1:]])
    std_norms = np.array([float(line.split(",")[idx_std]) for line in csv[1:]])
    assert np.max(np.abs(theta_norms - theta_norms[0])) < 1e-8
    assert np.max(np.abs(std_norms - std_norms[0])) > 1e-2

    report = json.loads((run_dir / "report.json").read_text())
    assert report["passed"] is True
    assert any(c["name"] == "theta-norm-conservation" for c in report["checks"])
    summary = (run_dir / "summary.txt").read_text()
    assert "PASS" in summary


def test_csv_is_bit_identical_across_runs(tmp_path):
    # every passing shipped scenario, cubic_osc_drive on the real-gauge solve
    for name in SHIPPED_SCENARIOS:
        cfg = load_scenario(name)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_outputs(run(cfg), dir_a)
        write_outputs(run(cfg), dir_b)
        csv_a = (dir_a / name / "timeseries.csv").read_bytes()
        csv_b = (dir_b / name / "timeseries.csv").read_bytes()
        assert csv_a == csv_b, name


def test_seventeen_digit_serialization(tmp_path):
    values = [0.1 + 0.2, 1.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf, -1.5e300]
    columns = tuple(f"c{k}" for k in range(len(values)))
    report = RunReport(None, columns, np.array([values, values[::-1]]), (), 0.0)
    write_csv(report, tmp_path / "out.csv")
    header, first, second = (tmp_path / "out.csv").read_text().splitlines()
    assert header == ",".join(columns)
    assert first.split(",") == [f"{v:.17g}" for v in values]
    assert second.split(",") == [f"{v:.17g}" for v in values[::-1]]
    assert first.split(",")[:3] == ["0.30000000000000004", "1", "-0"]
    parsed = [float(text) for text in first.split(",")]
    np.testing.assert_array_equal(parsed, values)  # doubles round-trip, nan and -0.0 too
    assert str(parsed[2]) == "-0.0"


# each leaves cubic_osc_drive with a setting that no run of it can use
_REJECTED_BEFORE_NUMERICS = [
    ["evolution.omega_dot=bogus"],
    ["evolution.omega_dot=analytic-mu-only"],  # a retired key, whatever its value
    ["pictures=[right]", "checks=[state-consistency]"],
    ["model.a_observables=[]", "checks=[observable-reality]"],
    # a section of the wrong type, a key a check entry or an observable does not read, a duplicate
    ["model.h_schedule=0"],
    ["checks=[{name: equivalence, bogus: 1}]"],
    ["model.a_observables.0.data=[[1,0],[0,1]]"],
    ["outputs=[H,H]"],
    ["=3"],  # no path: "configuration error: empty parameter path"
]


@pytest.mark.parametrize("overrides", _REJECTED_BEFORE_NUMERICS)
def test_misconfiguration_exits_two_before_any_eigensolve(overrides, monkeypatch, capsys):
    import yaml

    solves = []
    solve = qhdyn.dressing.eig_biorthogonal

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(qhdyn.dressing, "eig_biorthogonal", counting)
    argv = ["run", scenario_path("cubic_osc_drive")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == ScenarioError.exit_code
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert solves == []
    raw = yaml.safe_load((SCENARIO_DIR / "cubic_osc_drive.yaml").read_text(encoding="utf-8"))
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(apply_overrides(raw, overrides))
    assert err == f"configuration error: {info.value}\n"  # the API's message, word for word


def test_exceptional_point_scenario_exit_three(capsys):
    code = main(["run", scenario_path("ep_crossing")])
    err = capsys.readouterr().err
    assert code == NumericalDomainError.exit_code
    assert "exceptional point" in err
    # the EP margin is checked before reality at the same grid point
    assert "t=0.8" in err and "|Im E|" not in err


# runs that leave the real phase: (scenario, overrides, the grid time of the abort)
ABORT_PROBES = {
    # the 4 x 4 truncation turns a real pair complex between t = 2.598 and 2.5985
    "cubic-ramp-late": (
        "cubic_osc_drive",
        ["time.t0=2.0", "time.t1=3.0", "model.h_schedule={g: {kind: linear-ramp, base: -0.1, rate: 0.1}}"],
        "2.5985",
    ),
    "cubic-ramp-early": ("cubic_osc_drive", ["model.h_schedule={g: {kind: linear-ramp, base: 0.1, rate: 0.5}}"], "0.12"),
    # pt2 reaches gamma = s on a grid point: the exceptional point itself
    "ep-crossing": ("ep_crossing", [], "0.8"),
}


def _probe_argv(probe, *overrides):
    name, probe_overrides, _ = ABORT_PROBES[probe]
    argv = ["run", scenario_path(name)]
    for item in [*probe_overrides, *overrides]:
        argv += ["--override", item]
    return argv


def test_exceptional_point_between_grid_points_is_named(capsys):
    # the first grid point past the crossing has a complex pair: the run
    # aborts there and says an exceptional point was crossed
    assert main(_probe_argv("cubic-ramp-late")) == NumericalDomainError.exit_code
    assert capsys.readouterr().err == (
        "numerical-domain error: spectrum has |Im E| = 6.870e-03 >= 1e-10 at t=2.5985; "
        "an exceptional point was crossed at or before this grid point\n"
    )


@pytest.mark.parametrize("probe", ABORT_PROBES)
def test_every_reality_value_aborts_alike(probe, capsys):
    # evolution.reality is accepted and changes nothing: absent, assert and
    # report end in the same single line, at the same grid time
    lines = []
    for extra in ([], ["evolution.reality=assert"], ["evolution.reality=report"]):
        assert main(_probe_argv(probe, *extra)) == NumericalDomainError.exit_code
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == lines[2]
    assert lines[0].count("\n") == 1 and f"at t={ABORT_PROBES[probe][2]}" in lines[0]


def test_moving_cubic8_document_runs_with_reality_report(monkeypatch):
    # the benchmark's document still sets reality: report; it parses and passes
    monkeypatch.syspath_prepend(str(SCENARIO_DIR.parent / "benchmarks"))
    from workloads import WORKLOADS

    doc = WORKLOADS["moving-cubic8"].document(1)
    assert doc["evolution"] == {"reality": "report"}
    assert run(scenario_from_dict(doc)).passed


@pytest.mark.parametrize("override", ["time.dt=.nan", "time.t1=.inf", "time.dt=1e-300"])
def test_bad_time_grid_exit_two(override, capsys):
    code = main(["run", scenario_path("exp_metric_drive"), "--override", override])
    assert code == ScenarioError.exit_code
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "model.params.c=.nan",
        "model.params.e1=.inf",
        "mu.0.base=.nan",
        "mu.0.base=.inf",
        "mu.0.rate=.nan",
        "mu.0.rate=-1000",  # exp(-1000 t) underflows to zero inside [0, 1]
    ],
)
def test_bad_number_exit_two(override, capsys):
    code = main(["run", scenario_path("exp_metric_drive"), "--override", override])
    err = capsys.readouterr().err
    assert code == ScenarioError.exit_code
    assert "configuration error" in err
    assert "Traceback" not in err


def test_family_constraints_checked_at_t0(capsys):
    # gamma(t) = 1.5 - 0.5 t breaks |gamma| < s at t = 0 but lies in [0, 0.5] on [2, 3]
    shifted = ["--override", "time.t0=2.0", "--override", "time.t1=3.0"]
    ramp = "model.h_schedule={gamma: {kind: linear-ramp, base: 1.5, rate: -0.5}}"
    assert main(["run", scenario_path("pt2_gamma_ramp"), *shifted, "--override", ramp]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out
    # gamma(2) = s: still rejected at the start of the run
    ramp = "model.h_schedule={gamma: {kind: linear-ramp, base: 0.0, rate: 0.5}}"
    assert main(["run", scenario_path("pt2_gamma_ramp"), *shifted, "--override", ramp]) == ScenarioError.exit_code
    assert "spectrum not real at t=2" in capsys.readouterr().err


def test_cubic_coupling_checked_at_t0(capsys):
    # g(t) = -0.1 + 0.1 t is negative at t = 0 but in [0.1, 0.2] on [2, 3]; the
    # 4x4 truncation leaves its real phase there, which the runtime guards report
    shifted = ["--override", "time.t0=2.0", "--override", "time.t1=3.0"]
    ramp = "model.h_schedule={g: {kind: linear-ramp, base: -0.1, rate: 0.1}}"
    code = main(["run", scenario_path("cubic_osc_drive"), *shifted, "--override", ramp])
    assert code == NumericalDomainError.exit_code
    err = capsys.readouterr().err
    assert "must be positive" not in err
    assert "|Im E|" in err and "t=2.5985" in err
    # g(2) = -0.1: rejected at the start of the run
    ramp = "model.h_schedule={g: {kind: linear-ramp, base: 0.1, rate: -0.1}}"
    assert main(["run", scenario_path("cubic_osc_drive"), *shifted, "--override", ramp]) == ScenarioError.exit_code
    assert "coupling g must be positive, got -0.1 at t=2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "model.h_schedule={c: {kind: exponential, base: 1.0, rate: 1000.0}}",  # H overflows
        "mu.0.rate=1000",  # mu and dmu/dt overflow
        "mu.0.base=[1.5e+308, 1.5e+308]",  # |base| overflows
        "model.h_schedule={c: {kind: exponential, base: 1.0e+300, rate: -1.0e+10}}",  # only dc/dt overflows
        "model.h_schedule={c: {kind: sinusoidal, base: 1.0e+300, amplitude: 0.5, frequency: 1.0e+10}}",
    ],
)
def test_overflowing_schedule_exit_two(override, capsys, tmp_path):
    # any RuntimeWarning would become an exception, i.e. exit 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", scenario_path("exp_metric_drive"), "--override", override, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == ScenarioError.exit_code
    assert "configuration error" in err and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "scenario, override, path",
    [
        ("rand4_metric_sin", "mu.0.frequency=1e300", "mu[0]"),  # aborted at t=0 with non-finite kets
        ("tri_sin_drive", "model.h_schedule.c.frequency=1e6", "model.h_schedule.c"),  # a non-permutation match
        ("tri_sin_drive", "model.h_schedule.c.frequency=5000", "model.h_schedule.c"),  # frequency * dt = 5
    ],
)
def test_a_sinusoid_the_grid_cannot_sample_exits_two(scenario, override, path, capsys):
    assert main(["run", scenario_path(scenario), "--override", override]) == ScenarioError.exit_code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {path}: sinusoidal frequency is not resolved")


def test_a_sinusoid_below_the_nyquist_rate_runs(capsys):
    # frequency * dt = 3 < pi: the run ends with failed checks, an honest outcome
    override = "model.h_schedule.c.frequency=3000"
    assert main(["run", scenario_path("tri_sin_drive"), "--override", override]) == EXIT_CHECK_FAILED


@pytest.mark.parametrize(
    "override",
    [
        "mu.0.rate=400",  # |mu|^2 overflows in Theta
        "mu.0.base=1e200",
        "model.params.c=1e160",  # the EP-margin norms overflow
        "model.h_schedule={c: {kind: exponential, base: 1.0, rate: 700.0}}",
    ],
)
def test_huge_finite_schedule_aborts_without_warnings(override, capsys, tmp_path):
    # any RuntimeWarning would become an exception, i.e. exit 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", scenario_path("exp_metric_drive"), "--override", override, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == NumericalDomainError.exit_code
    assert len(err) == 1 and err[0].startswith("numerical-domain error:")


@pytest.mark.parametrize("base", ["1e155", "1e308"])
def test_overflowing_metric_aborts_naming_the_time(base, capsys):
    # |mu|^2 overflows in Theta = Omega' Omega (at 1e308 Omega itself
    # overflows); the guard reports it before any eigensolve of Theta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", scenario_path("cubic_osc_drive"), "--override", f"mu.0.base={base}"])
    err = capsys.readouterr().err.splitlines()
    assert code == NumericalDomainError.exit_code
    assert len(err) == 1 and err[0].startswith("numerical-domain error: metric Theta = Omega' Omega is not finite")
    assert "at t=0;" in err[0]


def test_metric_singular_to_rounding_is_a_conditioning_abort(capsys):
    # Theta = diag(1e308, 1): its smallest eigenvalue is lost to rounding,
    # which is conditioning, not a broken dressing map
    code = main(["run", scenario_path("static_hermitian"), "--override", "mu.0.base=1e154"])
    err = capsys.readouterr().err
    assert code == NumericalDomainError.exit_code
    assert "cond(Theta) is beyond double precision" in err and "at t=0;" in err
    assert "positive definiteness" not in err


def test_two_level_similarity_rand_runs(capsys, tmp_path):
    code = main([
        "run", scenario_path("rand4_metric_sin"),
        "--override", "model.dimension=2",
        "--override", "model.params.energies=[0.5, 1.0]",
        "--override", "mu=[1.0, 1.0]",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_unexpected_exception_exit_four(monkeypatch, capsys):
    def failing_run(config):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr("qhdyn.cli.run", failing_run)
    code = main(["run", scenario_path("static_hermitian")])
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL_ERROR
    assert err == "internal error: RuntimeError: simulated bug\n"
    assert "Traceback" not in err


def _child(*argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *argv], input=stdin, env=env, capture_output=True, text=True, timeout=60)


def _fresh_interpreter(probe: str, stdin: str = "") -> str:
    result = _child("-c", probe, stdin=stdin)
    result.check_returncode()
    return result.stdout.strip()


def test_the_module_entry_exits_with_each_outcome(tmp_path):
    done = _child("-m", "qhdyn", "run", scenario_path("tri_sin_drive"), "--out", str(tmp_path / "out"))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert sorted(p.name for p in (tmp_path / "out" / "tri_sin_drive").iterdir()) == [
        "report.json", "summary.txt", "timeseries.csv"
    ]
    aborted = _child("-m", "qhdyn", "run", scenario_path("ep_crossing"))
    assert aborted.returncode == NumericalDomainError.exit_code
    assert aborted.stderr.startswith("numerical-domain error: ") and aborted.stderr.count("\n") == 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    refused = _child("-m", "qhdyn", "run", scenario_path("tri_sin_drive"), "--out", str(blocker / "sub"))
    assert refused.returncode == ScenarioError.exit_code
    assert refused.stderr.startswith("configuration error: --out ") and refused.stderr.count("\n") == 1


def test_json_document_runs_without_yaml(tmp_path):
    from qhdyn.scenario import load_document

    doc = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # a sweep too: its --values entries are JSON, read without yaml
    probe = (
        "import sys; sys.modules['yaml'] = None; from qhdyn.cli import main; "
        f"codes = [main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]), "
        f"main(['sweep', {str(path)!r}, '--param', 'time.dt', '--values', '0.002,0.001'])]; print(codes)"
    )
    assert _fresh_interpreter(probe).splitlines()[-1] == str([EXIT_OK, EXIT_OK])


def test_exponent_only_document_values_run(tmp_path, capsys):
    text = (SCENARIO_DIR / "tri_sin_drive.yaml").read_text().replace("dt: 0.001}", "dt: 1e-3}")
    path = tmp_path / "tri_sin_drive.yaml"
    path.write_text(text + "checks: [{name: equivalence, threshold: 1e-6}]\n", encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "threshold 1.0e-06" in capsys.readouterr().out


def test_run_peak_memory_per_fine_point():
    # N = 8 cubic-trunc with g as in the moving-cubic8 benchmark, over
    # M = 2001 fine points: the track holds the real frame, two (M, 8, 8)
    # float64 stacks L and R (1 KiB per point), and the (M, 8) mu and
    # energies; Omega, Omega^-1, H, Theta and the observable that is H are
    # formed per block, and every other whole-grid temporary is bounded by a
    # block (traced peak 1.76 KiB per point; the bound is that plus 10 %)
    import tracemalloc

    doc = {
        "model": {
            "family": "cubic-trunc",
            "dimension": 8,
            "params": {"g": 0.025},
            "h_schedule": {"g": {"kind": "sinusoidal", "base": 0.025, "amplitude": 0.3, "frequency": 2.0}},
            "a_observables": [{"name": "H", "matrix_source": "hamiltonian-itself"}],
        },
        "mu": [{"kind": "exponential", "base": 1.0, "rate": 0.05 * (k - 4)} for k in range(8)],
        "time": {"t0": 0.0, "t1": 1.0, "dt": 1e-3},
        "evolution": {"reality": "report"},
    }
    config = scenario_from_dict(doc)
    run(config)  # the first run fills lazy imports and caches
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak / 2001 <= 1.94 * 1024


def test_cubic_osc_drive_peak_memory_per_fine_point():
    # N = 4 over M = 2001 fine points: the real frame L and R is 0.25 KiB per
    # point; a moving H's frames are solved in blocks, never for the grid, and
    # Omega, H and the observables are formed per block (traced peak 0.84 KiB
    # per point; the bound is 0.78 KiB, an earlier peak, plus 10 %)
    import tracemalloc

    config = load_scenario("cubic_osc_drive")
    points = 2 * config.steps + 1
    run(config)  # the first run fills lazy imports and caches
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / points <= 0.86 * 1024


def test_cli_import_does_not_load_scipy():
    assert _fresh_interpreter("import sys, qhdyn.cli; print('scipy' in sys.modules)") == "False"


def test_cli_import_does_not_load_process_pool(tmp_path):
    probe = "import sys, qhdyn.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_interpreter(probe) == "False"
    # nor does a sweep in two processes, up to its exit
    argv = ["sweep", scenario_path("tri_sin_drive"), "--param", "time.dt", "--values", "4e-3,2e-3", "--jobs", "2",
            "--out", str(tmp_path)]
    probe = (
        f"import sys\nfrom qhdyn.cli import main\ncode = main({argv!r})\n"
        "print(code, 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    assert _fresh_interpreter(probe).splitlines()[-1] == "0 False False"
    assert len(list(tmp_path.glob("*/timeseries.csv"))) == 2


def test_config_from_dict_loads_neither_yaml_nor_process_pool():
    import yaml

    doc = yaml.safe_load((SCENARIO_DIR / "cubic_osc_drive.yaml").read_text())
    probe = (
        "import json, sys, qhdyn\n"
        "qhdyn.scenario_from_dict(json.load(sys.stdin))\n"
        "print('yaml' in sys.modules, 'concurrent.futures.process' in sys.modules)"
    )
    assert _fresh_interpreter(probe, stdin=json.dumps(doc)) == "False False"


def test_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        (SCENARIO_DIR / "static_hermitian.yaml")
        .read_text()
        .replace("dt: 0.001", "dt: -1.0")
    )
    code = main(["run", str(bad)])
    assert code == ScenarioError.exit_code
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("run", ["--override", "mu=[1"]),
        ("sweep", ["--param", "time.dt", "--values", "{a"]),
        ("sweep", ["--param", "time.dt", "--values", " , "]),
        ("run", ["--override", "initial_state={vector: [1e308, 1e308]}"]),
        ("run", ["--override", "model.a_observables=[{name: H, matrix_source: hamiltonian-itself}, "
                 "{name: H, matrix_source: user-matrix, data: [[0, 1], [0, 0]]}]"]),
    ],
)
def test_bad_command_line_value_exit_two(command, extra, capsys):
    # a malformed value, an empty value list, an initial vector whose squared
    # norm overflows and two observables of one name are configuration
    # errors, reported with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, scenario_path("tri_sin_drive")] + extra) == ScenarioError.exit_code
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("error") == 1 and captured.out == ""


@pytest.mark.parametrize(
    "overrides, code",
    [
        (["mu.0.base=1e-151", "mu.1.base=1e-151"], EXIT_OK),
        (["mu.0.base=1e-155", "mu.1.base=1e-155"], NumericalDomainError.exit_code),
        (["initial_state={vector: [1e-160, 0]}"], ScenarioError.exit_code),
        (["initial_state={vector: [1e-200, 1e-200]}"], ScenarioError.exit_code),
        (["mu.0=1.5"], EXIT_OK),  # a list element set whole: mu[0] is the constant 1.5
    ],
)
def test_tiny_inputs_end_in_one_clean_outcome(overrides, code, capsys):
    # a metric of about 1e-302 still runs; a metric or an initial state whose
    # squared norm is below the normal double range is one clean error line;
    # a bare number in place of a schedule is a constant one
    argv = ["run", scenario_path("tri_sin_drive")]
    for override in overrides:
        argv += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.count("error") == 1 and "normal double" in err


@pytest.mark.parametrize("source", ["user-matrix", "function-of-frame"])
def test_an_overflowing_observable_fails_without_warnings(source, tmp_path, capsys):
    # its gate is not finite, so observable-reality fails (and never passes);
    # the gate and the CSV's expectation columns leave no RuntimeWarning
    huge = f"model.a_observables=[{{name: B, matrix_source: {source}, data: [[1e308, 1e308], [1e308, 1e308]]}}]"
    code = main(["run", scenario_path("tri_sin_drive"), "--override", huge, "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"FAIL  observable-reality +max residual nan", captured.out)
    assert "nan,nan" in (tmp_path / "tri_sin_drive" / "timeseries.csv").read_text()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_report_json_is_strict_for_a_non_finite_residual(tmp_path):
    # observable-reality's residual is NaN: null with a flag, never a bare NaN token,
    # and its worst_t is the first time whose residual is not finite; a NaN in
    # the scenario echo is null too
    huge = "model.a_observables=[{name: B, matrix_source: user-matrix, data: [[1e308, 1e308], [1e308, 1e308]]}]"
    argv = ["run", scenario_path("tri_sin_drive"), "--override", huge, "--out", str(tmp_path)]
    assert main(argv) == EXIT_CHECK_FAILED
    report = _strict_json((tmp_path / "tri_sin_drive" / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["observable-reality"] == {
        "name": "observable-reality", "max_residual": None, "threshold": 1e-9, "passed": False, "worst_t": 0.0,
        "non_finite": True,
    }
    assert all("non_finite" not in c for name, c in checks.items() if name != "observable-reality")
    assert all(0.0 <= c["worst_t"] <= 1.0 for c in checks.values())
    config = load_scenario("tri_sin_drive")
    echo = dataclasses.replace(config, raw={"initial_state": {"vector": [1, float("nan")]}})
    document = report_json_dict(RunReport(echo, (), np.empty((0, 0)), (), 0.0))
    assert _strict_json(json.dumps(document, allow_nan=False))["scenario"]["initial_state"]["vector"] == [1, None]


def test_report_json_writes_numpy_scalars_of_the_document_as_numbers(tmp_path):
    # scenario_from_dict reads a numpy scalar as a number, so the scenario echo in report.json holds one
    raw = load_document((SCENARIO_DIR / "static_hermitian.yaml").read_text())
    raw["model"]["dimension"], raw["time"]["dt"], raw["mu"][0]["base"] = np.int64(2), np.float32(2**-9), np.float32(1)
    report = _strict_json((write_outputs(run(scenario_from_dict(raw)), tmp_path) / "report.json").read_text())
    assert report["passed"] and report["scenario"]["model"]["dimension"] == 2
    assert (report["scenario"]["time"]["dt"], report["scenario"]["mu"][0]["base"]) == (2**-9, 1.0)
    # and so does each point of a sweep over numpy values
    raw = load_document((SCENARIO_DIR / "rand4_metric_sin.yaml").read_text())
    raw["time"]["t1"] = 0.1
    for k, point in enumerate(sweep(raw, "model.params.seed", list(np.arange(3)), name="rand4")):
        report = _strict_json((write_outputs(point.report, tmp_path) / "report.json").read_text())
        assert report["scenario"]["model"]["params"]["seed"] == k and type(point.value) is np.int64


def test_worst_t_is_where_each_residual_peaks(tmp_path):
    report = run(load_scenario("exp_metric_drive"))
    written = _strict_json(json.dumps(report_json_dict(report), allow_nan=False))
    for check, entry in zip(report.reports, written["checks"]):
        assert entry["worst_t"] == check.times[np.argmax(check.residuals)]


@pytest.mark.parametrize(
    "override",
    [
        "mu.0.frequency=1e300",  # an exponential mu
        "model.h_schedule.c.rate=5",  # a sinusoidal schedule
        "initial_state.bogus=1",
        "initial_state.index=99",  # next to preset: uniform
        "model.params.zzz=5",
        "model.params.seed=3",  # similarity-rand's, not triangular2's
        "initial_state.vector=[1, .nan]",  # next to preset: uniform
    ],
)
def test_a_key_the_run_would_ignore_exits_two(override, capsys):
    assert main(["run", scenario_path("tri_sin_drive"), "--override", override]) == ScenarioError.exit_code
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    key = override.split("=")[0].split(".")[-1]
    assert f"'{key}'" in captured.err and captured.out == ""


@pytest.mark.parametrize("where", ["document", "override"])
def test_a_null_name_takes_the_file_stem(where, tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    text = (SCENARIO_DIR / "static_hermitian.yaml").read_text()
    path.write_text(text.replace("name: static_hermitian", "name: null") if where == "document" else text)
    override = ["--override", "name=null"] if where == "override" else []
    assert main(["run", str(path), "--out", str(tmp_path / "out"), *override]) == EXIT_OK
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["doc"]


@pytest.mark.parametrize("name", ["../../x", "a/b", "a\\b", ".", ".."])
@pytest.mark.parametrize("where", ["document", "override"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_name_that_is_not_a_plain_file_name_exits_two(name, where, command, tmp_path, capsys):
    # the name picks the output directory under --out (and starts every sweep label)
    path = tmp_path / "doc.yaml"
    text = (SCENARIO_DIR / "static_hermitian.yaml").read_text()
    if where == "document":
        text = text.replace("name: static_hermitian", f"name: {json.dumps(name)}")
    path.write_text(text)
    out = tmp_path / "deep" / "er" / "out"
    argv = [command, str(path), "--out", str(out)] + (["--override", f"name={name}"] if where == "override" else [])
    if command == "sweep":
        argv += ["--param", "time.dt", "--values", "0.01,0.02"]
    assert main(argv) == ScenarioError.exit_code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be a plain file name" in err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "override, key",
    [
        ("model.a_observables.0.name=[1, 2]", "model.a_observables[0].name"),
        ("name={x: 1}", "name"),
        ("name=3", "name"),
        ("model.family=1", "model.family"),
        ("model.a_observables.0.name=a,b", "observable name"),
        ('model.a_observables.0.name="a\\nb"', "observable name"),
        ('model.a_observables.0.name="a\\rb"', "observable name"),
    ],
)
def test_a_string_key_takes_only_a_string(command, override, key, tmp_path, capsys):
    # once str() of anything: a list name split the CSV header, a mapping name named the output directory
    argv = [command, scenario_path("tri_sin_drive"), "--override", override, "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--param", "time.dt", "--values", "0.01"]
    assert main(argv) == ScenarioError.exit_code
    captured = capsys.readouterr()
    if command == "run" or key == "name":
        assert captured.err.startswith(f"configuration error: {key}") and captured.err.count("\n") == 1
    else:  # a sweep point's error
        assert f"ERROR({ScenarioError.exit_code}): {key}" in captured.out
    assert not (tmp_path / "out").exists()


def test_missing_file_exit_two(capsys):
    assert main(["run", "no_such_scenario.yaml"]) == ScenarioError.exit_code


_NESTED = "[" * 3000 + "]" * 3000
_LONG_LIST = "[" + ",".join(["1"] * 3000) + "]"
_WORD = "x" * 5000


def _overriding(text):
    return "run", scenario_path("tri_sin_drive"), ["--override", text]


_MALFORMED = {  # case: command, the file's bytes or a path under the test's directory, further argv
    "not UTF-8": ("run", b"\xff", []),
    "JSON nested 900 levels": ("run", b'{"a": ' + b"[" * 900 + b"]" * 900 + b"}", []),
    "JSON nested 5000 levels": ("run", b'{"a": ' + b"[" * 5000 + b"]" * 5000 + b"}", []),
    "YAML nested 900 levels": ("run", b"a: " + b"[" * 900 + b"]" * 900, []),
    "YAML nested 5000 levels": ("run", b"a: " + b"[" * 5000 + b"]" * 5000, []),
    "override nested 3000 levels": ("run", scenario_path("tri_sin_drive"), ["--override", f"mu.0={_NESTED}"]),
    "values nested 3000 levels": ("sweep", scenario_path("tri_sin_drive"), ["--param", "time.dt", "--values", _NESTED]),
    "unclosed brace": ("run", b"model: {family: triangular2\n", []),
    "NUL byte": ("run", b"name: a\x00\n", []),
    "no such date": ("run", scenario_path("tri_sin_drive"), ["--override", "time.t0=2001-13-01"]),
    "a tagged float that is no float": ("run", scenario_path("tri_sin_drive"), ["--override", "mu.0.base=!!float x"]),
    "a directory": ("run", ".", []),
    "a missing file": ("run", "missing.yaml", []),
    "a missing file with a newline in its name": ("run", "no\nsuch.yaml", []),
    "an --out with a newline under a file": ("run", scenario_path("tri_sin_drive"),
                                             ["--out", scenario_path("tri_sin_drive") + "/x\ny"]),
    "a name of 3000 list entries": ("run", scenario_path("tri_sin_drive"), ["--override", f"name={_LONG_LIST}"]),
    "a dt of 3000 list entries": ("run", scenario_path("tri_sin_drive"), ["--override", f"time.dt={_LONG_LIST}"]),
    "a param of 3000 list entries": ("run", scenario_path("tri_sin_drive"),
                                     ["--override", f"model.params.e1={_LONG_LIST}"]),
    "a family of 5000 letters": ("run", scenario_path("tri_sin_drive"), ["--override", "model.family=" + "a" * 5000]),
    "an unknown output of 5000 letters": _overriding(f"outputs=[{_WORD}]"),
    "an observable named by 5000 letters":
        _overriding(f"model.a_observables=[{{name: {_WORD}, matrix_source: bogus}}]"),
    "a picture of 5000 letters": _overriding(f"pictures=[right, {_WORD}]"),
    "a check of 5000 letters": _overriding(f"checks=[{_WORD}]"),
    "a key of 5000 letters": _overriding(f"{_WORD}=1"),
    "a time key of 5000 letters": _overriding(f"time.{_WORD}=1"),
    "a mu index of 5000 letters": _overriding(f"mu.{_WORD}=1"),
    "a schedule key of 5000 letters": _overriding(f"model.h_schedule.{_WORD}=1"),
    "an initial_state key of 5000 letters": _overriding(f"initial_state.{_WORD}=1"),
    "a schedule key with a newline": _overriding("model.h_schedule.a\nb={kind: bogus}"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_text_exits_two_on_one_line(case, tmp_path, capsys):
    command, source, extra = _MALFORMED[case]
    path = tmp_path / "doc.yaml"
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path = tmp_path / source  # a shipped document (an absolute path), the directory itself or no file
    assert main([command, str(path)] + extra) == ScenarioError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n") and len(captured.err) < 500  # a path or a value is quoted, a long one cut


def test_an_error_message_keeps_to_one_line():
    assert str(ScenarioError("a\nb")) == "a\\nb"


def _counting_solves(monkeypatch):
    solves, solve = [], qhdyn.dressing.eig_biorthogonal
    monkeypatch.setattr(qhdyn.dressing, "eig_biorthogonal", lambda *a, **k: solves.append(1) or solve(*a, **k))
    return solves


_SWEEP = ["--param", "time.dt", "--values", "4e-3,2e-3"]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("under", ["", "sub"])
def test_an_out_that_is_or_lies_under_a_file_exits_two_before_any_eigensolve(
    command, under, tmp_path, monkeypatch, capsys
):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / under if under else blocker
    solves = _counting_solves(monkeypatch)
    argv = [command, scenario_path("tri_sin_drive"), "--out", str(out)] + (_SWEEP if command == "sweep" else [])
    assert main(argv) == ScenarioError.exit_code
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: --out {str(out)!r} is not a usable directory: "
                            f"{str(blocker)!r} exists and is not a directory\n")
    assert solves == [] and captured.out == "" and blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_outputs_that_cannot_be_written_exit_two_naming_the_path(command, tmp_path, capsys):
    # --out is a directory, but a file holds the name of the run's own directory in it
    doc = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    doc["name"] = "taken"
    doc["time"]["dt"] = 4e-3
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    (out / ("taken__time_dt=0.004" if command == "sweep" else "taken")).write_text("")
    argv = [command, str(path), "--out", str(out)]
    argv += ["--param", "time.dt", "--values", "4e-3"] if command == "sweep" else []
    assert main(argv) == ScenarioError.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write outputs under {str(out)!r}: ") and err.count("\n") == 1


@pytest.mark.parametrize("values", ["2e-3,2e-3", "2e-3,0.002"])
def test_sweep_values_that_share_an_output_directory_exit_two_before_any_run(values, tmp_path, monkeypatch, capsys):
    solves = _counting_solves(monkeypatch)
    argv = ["sweep", scenario_path("tri_sin_drive"), "--param", "time.dt", "--values", values]
    argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == ScenarioError.exit_code
    assert capsys.readouterr().err == (
        "configuration error: two sweep values share the label 'tri_sin_drive__time_dt=0.002', "
        "and so one output directory\n"
    )
    assert solves == [] and not (tmp_path / "out").exists()


def test_check_failure_exit_one(capsys):
    code = main(
        [
            "run",
            scenario_path("exp_metric_drive"),
            "--override",
            "checks=[{name: theta-norm-conservation, threshold: 1.0e-30}]",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_conditioning_abort_exit_three(capsys):
    code = main(
        [
            "run",
            scenario_path("exp_metric_drive"),
            "--override",
            "mu.1.base=1.0e-7",
            "--override",
            "mu.1.rate=0.0",
        ]
    )
    err = capsys.readouterr().err
    assert code == NumericalDomainError.exit_code
    assert "cond" in err


def test_generator_falsification_via_override(capsys):
    code = main(
        [
            "run",
            scenario_path("exp_metric_drive"),
            "--override",
            "evolution.generator=h-only",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "FAIL  theta-norm-conservation" in out


def test_sweep_dt_halving_ratio(capsys):
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    points = sweep(raw, "time.dt", [0.002, 0.001], name="tri_sin_drive")
    assert all(p.exit_code == EXIT_OK for p in points)
    drifts = [{r.name: r.max_residual for r in p.report.reports}["theta-norm-conservation"] for p in points]
    assert 10.0 < drifts[0] / drifts[1] < 22.0


def test_a_numpy_sweep_value_is_printed_as_its_python_value(tmp_path):
    # the summary once listed np.float64(0.004) where the label and output directory say 0.004
    raw = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    points = sweep(raw, "time.dt", [np.float64(4e-3), np.float64(2e-3)], name="tri_sin_drive")
    lines = qhdyn.runner.sweep_summary_text("time.dt", points).splitlines()[2:]
    assert [line.split()[:2] for line in lines] == [["0.004", "PASS"], ["0.002", "PASS"]]
    names = ["tri_sin_drive__time_dt=0.004", "tri_sin_drive__time_dt=0.002"]
    assert [write_outputs(p.report, tmp_path).name for p in points] == names


def test_sweep_summary_ranks_a_non_finite_residual_first(capsys):
    # observable-reality is NaN; the passing theta-norm drift once ranked as the worst check
    observables = (
        "model.a_observables=[{name: H, matrix_source: hamiltonian-itself}, {name: B, matrix_source: user-matrix, "
        "data: [[1.7e308, -1.7e308], [1.7e308, 1.7e308]]}]"
    )
    document = [scenario_path("tri_sin_drive"), "--override", "time.t1=0.1", "--override", observables]
    assert main(["run", *document]) == EXIT_CHECK_FAILED
    assert re.search(r"FAIL  observable-reality +max residual nan", capsys.readouterr().out)
    assert main(["sweep", *document, "--param", "time.dt", "--values", "1e-3,5e-4"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == 2 and all(line.endswith("FAIL  worst observable-reality max residual nan") for line in lines)


@pytest.mark.parametrize(
    "error, scenario, override",
    [(ScenarioError, "tri_sin_drive", "time.dt=0.3"), (NumericalDomainError, "ep_crossing", "time.dt=0.01")],
)
def test_each_error_class_carries_its_exit_code_and_label(error, scenario, override, capsys):
    # `qhdyn run` and a sweep point both read the code (and the CLI the label) from the class
    assert (ScenarioError.exit_code, NumericalDomainError.exit_code) == (2, 3)
    key, value = override.split("=")
    assert main(["run", scenario_path(scenario), "--override", override]) == error.exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"{error.label}: ") and err.count("\n") == 1
    assert main(["sweep", scenario_path(scenario), "--param", key, "--values", value]) == error.exit_code
    assert f"ERROR({error.exit_code}): {err[len(error.label) + 2:]}" in capsys.readouterr().out
    (point,) = sweep(load_document(Path(scenario_path(scenario)).read_text()), key, [float(value)], name=scenario)
    assert (point.exit_code, point.report, point.error + "\n") == (error.exit_code, None, err[len(error.label) + 2:])


def test_sweep_empty_values_and_bad_path():
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "static_hermitian.yaml").read_text())
    assert sweep(raw, "time.dt", []) == []
    # descending into a scalar cannot resolve
    points = sweep(raw, "time.t0.deep", [1.0])
    assert points[0].exit_code == ScenarioError.exit_code
    # a typo key is caught by config validation
    points = sweep(raw, "time.bogus", [1.0])
    assert points[0].exit_code == ScenarioError.exit_code


def test_sweep_cli_gamma_below_threshold(capsys):
    code = main(
        [
            "sweep",
            scenario_path("pt2_gamma_ramp"),
            "--param",
            "model.h_schedule.gamma.rate",
            "--values",
            "0.2,0.5,0.8",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("PASS") == 3


def test_sweep_cli_parallel_jobs(tmp_path):
    code = main(
        [
            "sweep",
            scenario_path("exp_metric_drive"),
            "--param",
            "time.dt",
            "--values",
            "0.01,0.005",
            "--jobs",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert len(produced) == 2


@pytest.fixture
def no_fork(monkeypatch):
    """Makes every `os.fork` raise, so a sweep that forks fails."""
    def refused_fork():
        raise AssertionError("a sweep forked")

    monkeypatch.setattr(os, "fork", refused_fork)


def test_a_sweep_runs_in_this_process_where_there_is_no_fork(no_fork):
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "static_hermitian.yaml").read_text())
    for jobs in (1, 2, 5000):
        points = sweep(raw, "time.dt", [0.01, 0.005, 0.0025], jobs=jobs)
        assert [(p.value, p.exit_code) for p in points] == [(0.01, EXIT_OK), (0.005, EXIT_OK), (0.0025, EXIT_OK)]


def test_sweep_pool_is_capped_at_the_point_count(no_fork):
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "static_hermitian.yaml").read_text())
    # more jobs than points start no worker: each point still runs once, in order
    points = sweep(raw, "time.dt", [0.01, 0.005], jobs=5000)
    assert [(p.value, p.exit_code) for p in points] == [(0.01, EXIT_OK), (0.005, EXIT_OK)]
    assert [(p.value, p.exit_code) for p in sweep(raw, "time.dt", [0.01], jobs=4)] == [(0.01, EXIT_OK)]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(jobs, no_fork, capsys):
    code = main([
        "sweep", scenario_path("static_hermitian"), "--param", "time.dt", "--values", "0.01,0.005",
        "--jobs", jobs,
    ])
    assert code == ScenarioError.exit_code
    assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def _outcome(point, out_dir):
    """A sweep point as it is written, without the wall clock: value, code, error, CSV, report and summary."""
    if point.report is None:
        return point.value, point.exit_code, point.error
    run_dir = write_outputs(point.report, out_dir)
    report = json.loads((run_dir / "report.json").read_text())
    del report["wall_clock_seconds"]
    summary = [line for line in (run_dir / "summary.txt").read_text().splitlines() if not line.startswith("wall clock")]
    residuals = [(r.name, r.times.tobytes(), r.residuals.tobytes(), r.threshold) for r in point.report.reports]
    csv = (run_dir / "timeseries.csv").read_bytes()
    return point.value, point.exit_code, point.error, csv, report, summary, residuals


def test_sweep_points_do_not_depend_on_the_job_count(tmp_path):
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "pt2_gamma_ramp.yaml").read_text())
    # rate 1.25 crosses the exceptional point (exit 3); "fast" is no number (exit 2)
    rates = [0.5, 1.25, "fast", 0.25, 0.75]
    outcomes = {
        jobs: [_outcome(p, tmp_path / str(jobs))
               for p in sweep(raw, "model.h_schedule.gamma.rate", rates, jobs=jobs, name="pt2_gamma_ramp")]
        for jobs in (1, 2, 3, 5000)
    }
    assert [o[:2] for o in outcomes[1]] == [(0.5, 0), (1.25, 3), ("fast", 2), (0.25, 0), (0.75, 0)]
    assert "exceptional point" in outcomes[1][1][2] and "finite real number" in outcomes[1][2][2]
    for jobs in (2, 3, 5000):
        assert outcomes[jobs] == outcomes[1]


def test_an_exception_in_a_sweep_point_exits_four(monkeypatch, capsys):
    real_run = qhdyn.runner.run

    def run_failing_at_the_second_point(config):
        if config.dt == 0.005:
            raise RuntimeError("planted in a sweep point")
        return real_run(config)

    monkeypatch.setattr(qhdyn.runner, "run", run_failing_at_the_second_point)
    argv = ["sweep", scenario_path("static_hermitian"), "--param", "time.dt", "--values", "0.01,0.005", "--jobs", "2"]
    assert main(argv) == EXIT_INTERNAL_ERROR
    assert capsys.readouterr().err == "internal error: RuntimeError: planted in a sweep point\n"


def test_sweep_captures_numerical_errors():
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "pt2_gamma_ramp.yaml").read_text())
    # rate 1.25 drives the ramp through the exceptional point mid-run
    points = sweep(raw, "model.h_schedule.gamma.rate", [0.5, 1.25], name="pt2_gamma_ramp")
    assert points[0].exit_code == EXIT_OK
    assert points[1].exit_code == NumericalDomainError.exit_code
    assert "exceptional point" in points[1].error
