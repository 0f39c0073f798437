"""qhdyn benchmark: time to a verified result, set-up time and memory.

    python3 benchmarks/run.py --workload static-rand4 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root (or a checkout of it).  The scenario document
is generated from --seed (see workloads.py) and reaches qhdyn only through
`qhdyn.scenario.scenario_from_dict`, `qhdyn.runner.run`,
`qhdyn.runner.write_outputs`, `qhdyn.runner.sweep` and the CLI run as a child
process (`python -m qhdyn`).  Every BLAS library is pinned to one thread, in
this process and in its children.

--trace 0 measures the end-to-end metrics.  Until --seconds have passed it
repeats rounds of: two fresh-interpreter set-up probes, one in-process
`runner.run`, one `qhdyn run --out` child and one `qhdyn sweep --jobs 2 --out`
child.  Interleaving spreads host noise evenly over the metrics, and each
timing is reported as the median of its samples, with quartiles and count.

--trace 1 measures the per-layer split: each round times a fresh
`import qhdyn.cli`, `scenario_from_dict`, one traced `runner.run` (see
tracing.py), the nine checks one by one, `write_outputs`, and one untraced
`runner.run` for the tracing overhead.  One in-process `runner.sweep` gives
the sweep efficiency.

Every run is verified: exit code 0, every check passing at its default
threshold, and a CSV byte-identical to the first in-process run of the same
workload and seed (sweep points: identical to the first sweep).  A miss
counts as failed.  Each check's max residual is printed and kept in the
result file, so refactors can report residual drift next to speed.

Metric names and units are those BENCHMARK.json lists.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Spans and a full result (quartiles, residuals, environment) go to
.bench_run/ under the checkout.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from tracing import Tracer, layers_wrapped, object_census, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 120.0
SETUP_PROBES_PER_ROUND = 2
RUNS_PER_ROUND = 2
PARSES_PER_ROUND = 3
SWEEP_JOBS = 2

# the nine named checks every run must pass; listed here rather than read from
# the package, so that a program that stops running one of them fails
CHECKS = (
    "theta-norm-conservation",
    "left-right-duality",
    "state-consistency",
    "equivalence",
    "standard-unitarity",
    "propagator-intertwining",
    "quasi-hermiticity",
    "isospectrality",
    "observable-reality",
)

# span name -> metric taken from the span's duration or its self time
_SPAN_DURATIONS = {
    "model.hamiltonian": "model.hamiltonian_s",
    "spectral.eig": "spectral.eig_s",
    "spectral.continuity": "spectral.continuity_s",
    "dressing.track": "dressing.track_s",
    "evolution.propagate": "evolution.propagate_s",
    "verify.checks": "verify.checks_s",
    "runner.run": "trace.total_s",
    **{f"verify.{name}": f"verify.{name}_s" for name in CHECKS},
}
_SPAN_SELF = {"dressing.track": "dressing.self_s", "runner.run": "runner.self_s"}
# the layers whose self times should add up to the traced runner.run
_ACCOUNTED = (
    "runner.self_s",
    "dressing.self_s",
    "model.hamiltonian_s",
    "spectral.eig_s",
    "spectral.continuity_s",
    "evolution.propagate_s",
    "verify.checks_s",
)


class Verdicts:
    """Counts attempted and failed outcomes, keeping the reason for each miss."""

    def __init__(self):
        self.attempted = 0
        self.misses: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.misses.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return problem is None


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _summary(values: list[float]) -> dict | None:
    if not values:
        return None
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    seconds: float
    code: int
    peak_rss_mb: float
    output: str


def spawn(argv: list[str], log: Path) -> Child:
    """Run a child to completion; wall time from spawn to exit, and its peak RSS.

    os.wait4 reports the child's own peak RSS, or that of a reaped worker of
    it if larger (Linux), so a sweep's pool workers are included.  The child
    leads its own process group, so a timeout or an interrupt kills its
    workers with it.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
                                start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the group has already exited
                pass

        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(seconds, proc.returncode, usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


def _probe(mode: str, work: Path, doc_path: Path | None = None) -> tuple[float | None, str | None]:
    argv = [sys.executable, str(BENCH / "probe.py"), mode] + ([str(doc_path)] if doc_path else [])
    child = spawn(argv, work / "probe.log")
    if child.code != 0:
        return None, f"probe {mode} exited {child.code}: {child.output[-300:]}"
    return json.loads(child.output.strip().splitlines()[-1])["seconds"], None


def _report_problem(report) -> str | None:
    names = [r.name for r in report.reports]
    if sorted(names) != sorted(CHECKS):
        return f"checks run {names}, expected all nine"
    failing = [f"{r.name} {r.max_residual:.3e} >= {r.threshold:.1e}" for r in report.reports if not r.passed]
    return f"checks failed: {failing}" if failing else None


def _csv_dirs(out_dir: Path) -> dict[str, bytes]:
    return {p.parent.name: p.read_bytes() for p in sorted(out_dir.glob("*/timeseries.csv"))}


class Job:
    """One workload and seed: the document, the reference outputs, the verdicts."""

    def __init__(self, workload, seed: int, work: Path, verdicts: Verdicts):
        from qhdyn import runner
        from qhdyn.scenario import scenario_from_dict

        self.runner = runner
        self.parse = scenario_from_dict
        self.workload = workload
        self.work = work
        self.doc = workload.document(seed)
        self.doc_path = work / "doc.json"
        self.doc_path.write_text(json.dumps(self.doc, indent=1) + "\n", encoding="utf-8")
        self.config = scenario_from_dict(self.doc)
        self.verdicts = verdicts
        self.sweep_reference: dict[str, bytes] | None = None
        # the first run fills lazy caches and fixes the reference CSV
        report = runner.run(self.config)
        self.verdicts.record("reference run", _report_problem(report))
        self.reference_csv = self.csv_of(report)
        self.residuals = {r.name: r.max_residual for r in report.reports}

    def csv_of(self, report) -> bytes:
        out = self.work / "inproc"
        shutil.rmtree(out, ignore_errors=True)
        run_dir = self.runner.write_outputs(report, out)
        return (Path(run_dir) / "timeseries.csv").read_bytes()

    def check_run(self, what: str, report) -> bool:
        problem = _report_problem(report)
        if problem is None and self.csv_of(report) != self.reference_csv:
            problem = "CSV differs from the first run"
        return self.verdicts.record(what, problem)

    def cli_run(self) -> Child | None:
        out = self.work / "cli"
        shutil.rmtree(out, ignore_errors=True)
        child = spawn([sys.executable, "-m", "qhdyn", "run", str(self.doc_path), "--out", str(out)], self.work / "cli.log")
        problem = None
        if child.code != 0:
            problem = f"exit {child.code}: {child.output[-300:]}"
        elif _csv_dirs(out) != {self.doc["name"]: self.reference_csv}:
            problem = "CSV differs from the in-process run"
        return child if self.verdicts.record("qhdyn run", problem) else None

    def cli_sweep(self) -> Child | None:
        out = self.work / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "qhdyn", "sweep", str(self.doc_path), "--param", "time.dt",
                "--values", ",".join(map(repr, self.workload.sweep_dts)), "--jobs", str(SWEEP_JOBS), "--out", str(out)]
        child = spawn(argv, self.work / "sweep.log")
        csvs = _csv_dirs(out)
        problem = None
        if child.code != 0:
            problem = f"exit {child.code}: {child.output[-300:]}"
        elif len(csvs) != len(self.workload.sweep_dts):
            problem = f"{len(csvs)} sweep outputs for {len(self.workload.sweep_dts)} values"
        elif self.sweep_reference is None and self.reference_csv not in csvs.values():
            problem = "no sweep point reproduces the document's own CSV"
        elif self.sweep_reference is not None and csvs != self.sweep_reference:
            problem = "sweep CSVs differ from the first sweep"
        if problem is None and self.sweep_reference is None:
            self.sweep_reference = csvs
        return child if self.verdicts.record("qhdyn sweep", problem) else None


def measure_end_to_end(job: Job, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in metric_units("end_to_end")}
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_PROBES_PER_ROUND):
            value, problem = _probe("setup", job.work, job.doc_path)
            if job.verdicts.record("setup probe", problem):
                samples["setup_s"].append(value)

        for _ in range(RUNS_PER_ROUND):
            start = time.perf_counter()
            report = job.runner.run(job.config)
            elapsed = time.perf_counter() - start
            if job.check_run("runner.run", report):
                samples["run_s"].append(elapsed)

        child = job.cli_run()
        if child is not None:
            samples["cli_s"].append(child.seconds)
            samples["peak_rss_mb"].append(child.peak_rss_mb)

        child = job.cli_sweep()
        if child is not None:
            samples["sweep_s"].append(child.seconds)

        if time.perf_counter() >= deadline:
            return samples


def measure_layers(job: Job, seconds: float, tracer) -> tuple[dict[str, list[float]], dict[str, float | None]]:
    """Per-layer samples (one per round) and the computed counts."""
    runner = job.runner
    samples: dict[str, list[float]] = {name: [] for name in [*metric_units("per_layer"), "untraced_run_s"]}
    counts: dict[str, float | None] = {}

    start = time.perf_counter()
    with tracer.span("runner.sweep"):
        points = runner.sweep(job.doc, "time.dt", list(job.workload.sweep_dts), jobs=SWEEP_JOBS, name=job.doc["name"])
    sweep_wall = time.perf_counter() - start
    bad = [f"{p.value}: exit {p.exit_code} {p.error or ''}" for p in points if p.exit_code != 0]
    if job.verdicts.record("runner.sweep", f"points failed: {bad}" if bad else None):
        busy = sum(p.report.wall_clock_seconds for p in points)
        samples["runner.sweep_efficiency"].append(busy / (SWEEP_JOBS * sweep_wall))

    deadline = time.perf_counter() + seconds
    while True:
        tracer.begin_run()
        value, problem = _probe("import", job.work)
        if job.verdicts.record("import probe", problem):
            samples["cli.import_s"].append(value)

        for _ in range(PARSES_PER_ROUND):
            with tracer.span("scenario.parse") as index:
                job.parse(job.doc)
            samples["scenario.parse_s"].append(_duration(tracer.spans[index]))

        with layers_wrapped(tracer):
            with tracer.span("runner.run") as root:
                report = runner.run(job.config)
        traced_ok = job.check_run("traced runner.run", report)
        _replay_checks(tracer, job)

        spans = tracer.run_spans(tracer.run_id)
        selfs = self_times(spans)
        per_round: dict[str, float] = {}
        for i, s in spans:
            if s.name in _SPAN_DURATIONS:
                key = _SPAN_DURATIONS[s.name]
                per_round[key] = per_round.get(key, 0.0) + _duration(s)
            if s.name in _SPAN_SELF:
                key = _SPAN_SELF[s.name]
                per_round[key] = per_round.get(key, 0.0) + selfs[i]
        nested = abs(sum(selfs[i] for i in _inside(spans, root)) - _duration(tracer.spans[root]))
        job.verdicts.record(
            "trace accounting",
            None if nested < 1e-9 else f"self times miss the traced total by {nested:.3e} s",
        )
        if traced_ok:
            for key, value in per_round.items():
                samples[key].append(value)
            counts = _counts(tracer)

        with tracer.span("runner.write") as index:
            run_dir = runner.write_outputs(report, job.work / "write")
        samples["runner.write_s"].append(_duration(tracer.spans[index]))
        counts["runner.csv_bytes"] = (Path(run_dir) / "timeseries.csv").stat().st_size

        start = time.perf_counter()
        report = runner.run(job.config)
        elapsed = time.perf_counter() - start
        if job.check_run("runner.run", report):
            samples["untraced_run_s"].append(elapsed)

        if time.perf_counter() >= deadline:
            return samples, counts


def _duration(span) -> float:
    return span.end - span.start


def _inside(spans, root: int) -> list[int]:
    """The root and its descendants that ran within its interval (not replays)."""
    top = dict(spans)[root]
    tree = {root}
    for i, s in spans:  # parents are always recorded before their children
        if s.parent in tree and s.start >= top.start and s.end <= top.end:
            tree.add(i)
    return sorted(tree)


def _replay_checks(tracer, job: Job):
    """Each check alone on the inputs runner.run gave run_standard_checks."""
    call = tracer.last.get("verify.checks")
    if call is None:
        return
    parent = next(i for i, s in reversed(tracer.run_spans(tracer.run_id)) if s.name == "verify.checks")
    check_all = job.runner.run_standard_checks
    names = [r.name for r in call.result]
    for name in names:
        kwargs = dict(call.kwargs, selection=[name])
        with tracer.span(f"verify.{name}", parent=parent):
            check_all(*call.args, **kwargs)


def _counts(tracer: Tracer) -> dict[str, float | None]:
    solves = tracer.calls.get("spectral.eig")
    distinct = len(tracer.distinct_inputs.get("spectral.eig", ()))
    track = tracer.last.get("dressing.track")
    trajectory = tracer.last.get("evolution.propagate")
    times = getattr(trajectory.result, "times", None) if trajectory else None
    objects, nbytes = object_census(track.result) if track else (None, None)
    return {
        "spectral.solves": solves,
        "spectral.useful_ratio": distinct / solves if solves else None,
        "dressing.track_objects": objects,
        "dressing.track_bytes": nbytes,
        "evolution.rk4_steps": len(times) - 1 if times is not None else None,
    }


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas_version(config) -> str | None:
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np.show_config),
        "openblas_scipy": blas_version(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports for numpy's bundled copy, if it can be found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    verdicts = Verdicts()
    samples, stats, residuals = {}, {}, {}
    try:
        job = Job(WORKLOADS[name], seed, work, verdicts)
        residuals = job.residuals
        if trace:
            samples, counts = measure_layers(job, seconds, tracer)
            stats = _layer_stats(samples, counts)
        else:
            samples = measure_end_to_end(job, seconds)
            stats = {k: _summary(v) for k, v in samples.items() if k != "verified_frac"}
    except Exception:  # a raising program is a failed outcome, not a crashed benchmark
        verdicts.record("measurement", traceback.format_exc(limit=-3))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verified = (verdicts.attempted - len(verdicts.misses)) / verdicts.attempted
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {}
    for key, unit in units.items():
        if key == "verified_frac":
            value = verified
        else:
            entry = stats.get(key)
            value = entry["median"] if isinstance(entry, dict) else entry
        metrics[key] = {"value": value, "unit": unit}
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": verdicts.attempted,
        "failed": len(verdicts.misses),
        "fail_frac": len(verdicts.misses) / verdicts.attempted,
        "misses": verdicts.misses,
        "residuals": residuals,
        "stats": stats,
        "samples": samples,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(OUT / f"spans-{tag}.jsonl", "w", encoding="utf-8") as handle:
            for i, s in enumerate(tracer.spans):
                handle.write(json.dumps({"id": i, **s._asdict()}) + "\n")
    return result


def _layer_stats(samples: dict[str, list[float]], counts: dict) -> dict:
    stats: dict = {k: _summary(v) for k, v in samples.items() if v}
    stats.update({k: v for k, v in counts.items() if v is not None})
    total = stats.get("trace.total_s")
    untraced = stats.get("untraced_run_s")
    if total and untraced:
        stats["trace.overhead_s"] = total["median"] - untraced["median"]
        parts = [stats[k]["median"] for k in _ACCOUNTED if isinstance(stats.get(k), dict)]
        stats["trace.accounted_frac"] = sum(parts) / total["median"]
    return stats


def _print_result(result: dict):
    name = result["workload"]
    print(f"[{name}] environment {json.dumps(result['environment'])}")
    for check, residual in result["residuals"].items():
        print(f"[{name}] residual {check} {residual:.6e}")
    for key, metric in result["metrics"].items():
        entry = result["stats"].get(key)
        if metric["value"] is None:
            print(f"[{name}] {key} absent")
        elif isinstance(entry, dict):
            print(f"[{name}] {key} {entry['median']:.6g} {metric['unit']} "
                  f"(q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']})")
        else:
            print(f"[{name}] {key} {metric['value']:.6g} {metric['unit']}")
    print(f"[{name}] fail_frac {result['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "qhdyn" / "__init__.py").is_file():
        print(f"benchmark needs the qhdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        _print_result(result)

    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
