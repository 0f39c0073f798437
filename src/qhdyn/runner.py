"""Run orchestration: scenario -> trajectory -> checks -> report files.

One run produces a `RunReport` carrying the per-step CSV rows, the invariant
reports, and wall-clock metadata.  The CSV layout is fixed (stable plotting
downstream): t, theta_norm, std_norm, equivalence_residual,
quasi_hermiticity_residual, theta_min_eig, theta_cond, Re/Im of each tracked
energy, then Re/Im of each requested expectation value; the check pass fills
the theta_norm, residual and expectation columns through views of the rows, from
what its blocks share: only the equivalence residual is formed for the CSV alone.
Numbers are written with 17 significant digits so a reread round-trips exactly.
"""

from __future__ import annotations

import copy
import time as _time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dressing import DressingTrack, build_dressing_track
from .errors import NumericalDomainError, ScenarioError
from .evolution import Trajectory, propagate_quasi, time_grid
from .scenario import ScenarioConfig, plain_name, scenario_from_dict, set_by_path
from .verify import InvariantReport, Table, run_standard_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL_ERROR = 4


@dataclass(frozen=True)
class RunReport:
    scenario: ScenarioConfig
    columns: tuple[str, ...]
    rows: np.ndarray  # (reporting points, columns)
    reports: tuple[InvariantReport, ...]
    wall_clock_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def run(config: ScenarioConfig) -> RunReport:
    """Execute one scenario deterministically.

    Raises `ScenarioError` / `NumericalDomainError` for configuration and
    domain failures; check failures are reported, not raised.
    """
    started = _time.perf_counter()
    _, fine = time_grid(config.t0, config.t1, config.dt)
    track = build_dressing_track(config.model, config.mu, fine)
    trajectory = propagate_quasi(
        track,
        config.initial_state,
        pictures=config.pictures,
        use_plain_hamiltonian=(config.generator == "h-only"),
    )

    columns, rows, table = _tabulate(config, track, trajectory)
    reports = run_standard_checks(trajectory, track, selection=config.check_selection,
                                  overrides=config.check_overrides, table=table)
    return RunReport(
        scenario=config,
        columns=columns,
        rows=rows,
        reports=tuple(reports),
        wall_clock_seconds=_time.perf_counter() - started,
    )


def _tabulate(config, track: DressingTrack, trajectory: Trajectory):
    """The CSV's columns and rows, and the `Table` of views of them the check pass fills."""
    n = track.dimension
    columns = ["t", "theta_norm", "std_norm", "equivalence_residual", "quasi_hermiticity_residual", "theta_min_eig",
               "theta_cond"]
    columns += [f"{part}_E{k}" for k in range(1, n + 1) for part in ("re", "im")]
    columns += [f"{part}_exp_{name}" for name in config.outputs for part in ("re", "im")]

    phi = trajectory.phi_right
    eigs = track.theta_eigs[::2]
    energies = track.energies[::2]
    rows = np.empty((len(phi), len(columns)))
    rows[:, 0] = trajectory.times
    rows[:, 2] = np.sum(np.conj(phi) * phi, axis=-1).real
    rows[:, 5] = eigs[:, 0]
    rows[:, 6] = eigs[:, -1] / eigs[:, 0]
    rows[:, 7 : 7 + 2 * n : 2] = energies.real
    rows[:, 8 : 8 + 2 * n : 2] = energies.imag
    # each mean value is a complex view of its (re, im) pair of columns
    means = {name: rows[:, 7 + 2 * (n + j) : 9 + 2 * (n + j)].view(complex)[:, 0]
             for j, name in enumerate(config.outputs)}
    return tuple(columns), rows, Table(rows[:, 1], rows[:, 3], rows[:, 4], means)


def write_csv(report: RunReport, path: Path):
    row = ",".join(["%.17g"] * len(report.columns))
    lines = [",".join(report.columns)]
    lines += [row % tuple(values) for values in report.rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_text(report: RunReport) -> str:
    cfg = report.scenario
    lines = [
        f"scenario: {cfg.name}",
        f"family: {cfg.model.family}  N={cfg.model.dimension}",
        f"grid: t0={cfg.t0:g} t1={cfg.t1:g} dt={cfg.dt:g} steps={cfg.steps}",
        f"generator: {cfg.generator}",
        "",
    ]
    for r in report.reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<26} max residual {r.max_residual:.6e}  threshold {r.threshold:.1e}"
        )
    lines.append("")
    overall = "all checks passed" if report.passed else "CHECK FAILURE"
    lines.append(f"result: {overall}")
    lines.append(f"wall clock: {report.wall_clock_seconds:.3f} s   version: {__version__}")
    return "\n".join(lines) + "\n"


def report_json_dict(report: RunReport) -> dict:
    """The report as strict JSON: a non-finite number (a check's max residual, or a scenario
    entry the run ignored) is null, a check with a non-finite one has "non_finite": true, and a
    numpy scalar of the scenario (`scenario_from_dict` reads one as a number) is its Python value."""
    import json

    checks = [
        {"name": r.name, "max_residual": r.max_residual, "threshold": r.threshold, "passed": r.passed,
         "worst_t": r.worst_t}
        | ({} if np.isfinite(r.max_residual) else {"non_finite": True})
        for r in report.reports
    ]
    document = {
        "version": __version__,
        "scenario": report.scenario.raw,
        "checks": checks,
        "passed": report.passed,
        "rows": len(report.rows),
        "wall_clock_seconds": report.wall_clock_seconds,
    }
    text = json.dumps(document, default=np.generic.item)  # any other type is a TypeError, as without default
    return json.loads(text, parse_constant=lambda _: None)  # NaN and +-inf become null


def write_outputs(report: RunReport, out_dir: Path) -> Path:
    """Write timeseries.csv, summary.txt, and report.json under out_dir/<name> (`ScenarioError` if unwritable)."""
    import json

    run_dir = Path(out_dir) / report.scenario.name
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        write_csv(report, run_dir / "timeseries.csv")
        (run_dir / "summary.txt").write_text(summary_text(report), encoding="utf-8")
        (run_dir / "report.json").write_text(
            json.dumps(report_json_dict(report), indent=2, allow_nan=False) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise ScenarioError(f"cannot write outputs under {str(out_dir)!r}: {exc}") from exc
    return run_dir


@dataclass(frozen=True)
class SweepPoint:
    value: object
    report: RunReport | None
    error: str | None
    exit_code: int


def _sweep_one(raw, path, value, label) -> SweepPoint:
    try:
        set_by_path(raw, path, value)
        raw["name"] = label  # one output directory per sweep point
        config = scenario_from_dict(raw)
        report = run(config)
        code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
        return SweepPoint(value=value, report=report, error=None, exit_code=code)
    except (ScenarioError, NumericalDomainError) as exc:
        return SweepPoint(value=value, report=None, error=str(exc), exit_code=exc.exit_code)


def sweep(raw: dict, param_path: str, values: list, jobs: int = 1, name: str = "scenario") -> list[SweepPoint]:
    """Independent runs of one scenario with a config entry swept over values, each on a deep copy.

    Every point runs in this process, in order; ``jobs`` is accepted and changes nothing.  Errors are captured
    per point, and any other exception is raised.  ``jobs`` < 1 or two values of one label raise `ScenarioError`.
    """
    if jobs < 1:
        raise ScenarioError(f"jobs must be at least 1, got {jobs}")
    plain_name(name)  # every point's label, and so its output directory, starts with it
    labels = [f"{name}__{param_path.replace('.', '_')}={value}" for value in values]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise ScenarioError(f"two sweep values share the label {label!r}, and so one output directory")
    return [_sweep_one(copy.deepcopy(raw), param_path, value, label) for value, label in zip(values, labels)]


def sweep_summary_text(param_path: str, points: list[SweepPoint]) -> str:
    lines = [f"sweep over {param_path}", ""]
    # the worst check: a non-finite residual ranks first, as in `InvariantReport.worst_t`
    ratio = lambda r: np.nan_to_num(r.max_residual / r.threshold, nan=np.inf, posinf=np.inf)
    for p in points:
        value = p.value.item() if isinstance(p.value, np.generic) else p.value  # np.float64(0.5) reads 0.5
        if p.report is None:
            lines.append(f"{value!r:>16}  ERROR({p.exit_code}): {p.error}")
            continue
        worst = max(p.report.reports, key=ratio)
        status = "PASS" if p.report.passed else "FAIL"
        lines.append(f"{value!r:>16}  {status}  worst {worst.name} max residual {worst.max_residual:.6e}")
    return "\n".join(lines) + "\n"
