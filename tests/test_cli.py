import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qhdyn import run
from qhdyn.cli import main
from qhdyn.runner import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    format_number,
    sweep,
    write_outputs,
)

from conftest import SCENARIO_DIR, load_scenario


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
    cfg = load_scenario("tri_sin_drive")
    report_a = run(cfg)
    report_b = run(cfg)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_outputs(report_a, dir_a)
    write_outputs(report_b, dir_b)
    csv_a = (dir_a / "tri_sin_drive" / "timeseries.csv").read_bytes()
    csv_b = (dir_b / "tri_sin_drive" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b


def test_seventeen_digit_serialization():
    value = 0.1 + 0.2
    assert float(format_number(value)) == value
    assert format_number(1.0) == "1"


def test_exceptional_point_scenario_exit_three(capsys):
    code = main(["run", scenario_path("ep_crossing")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL_ERROR
    assert "exceptional point" in err
    # the EP margin is checked before reality at the same grid point
    assert "t=0.8" in err and "|Im E|" not in err


@pytest.mark.parametrize("override", ["time.dt=.nan", "time.t1=.inf", "time.dt=1e-300"])
def test_bad_time_grid_exit_two(override, capsys):
    code = main(["run", scenario_path("exp_metric_drive"), "--override", override])
    assert code == EXIT_CONFIG_ERROR
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
    assert code == EXIT_CONFIG_ERROR
    assert "configuration error" in err
    assert "Traceback" not in err


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
    assert code == EXIT_CONFIG_ERROR
    assert "configuration error" in err and "overflows" in err
    assert "Traceback" not in err


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
    assert code == EXIT_NUMERICAL_ERROR
    assert len(err) == 1 and err[0].startswith("numerical-domain error:")


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


def _fresh_interpreter(probe: str, stdin: str = "") -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], input=stdin, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy():
    assert _fresh_interpreter("import sys, qhdyn.cli; print('scipy' in sys.modules)") == "False"


def test_cli_import_does_not_load_process_pool():
    probe = "import sys, qhdyn.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_interpreter(probe) == "False"


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
    assert code == EXIT_CONFIG_ERROR
    assert "configuration error" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert main(["run", "no_such_scenario.yaml"]) == EXIT_CONFIG_ERROR


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
    assert code == EXIT_NUMERICAL_ERROR
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
    drifts = [p.report.report("theta-norm-conservation").max_residual for p in points]
    assert 10.0 < drifts[0] / drifts[1] < 22.0


def test_sweep_empty_values_and_bad_path():
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "static_hermitian.yaml").read_text())
    assert sweep(raw, "time.dt", []) == []
    # descending into a scalar cannot resolve
    points = sweep(raw, "time.t0.deep", [1.0])
    assert points[0].exit_code == EXIT_CONFIG_ERROR
    # a typo key is caught by config validation
    points = sweep(raw, "time.bogus", [1.0])
    assert points[0].exit_code == EXIT_CONFIG_ERROR


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


def test_sweep_captures_numerical_errors():
    import yaml

    raw = yaml.safe_load((SCENARIO_DIR / "pt2_gamma_ramp.yaml").read_text())
    # rate 1.25 drives the ramp through the exceptional point mid-run
    points = sweep(raw, "model.h_schedule.gamma.rate", [0.5, 1.25], name="pt2_gamma_ramp")
    assert points[0].exit_code == EXIT_OK
    assert points[1].exit_code == EXIT_NUMERICAL_ERROR
    assert "exceptional point" in points[1].error
