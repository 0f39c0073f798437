"""The benchmark's own test: its computed counts repeat exactly for one seed.

    python -m pytest benchmarks/test_bench.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracing import Tracer, layers_wrapped  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(name: str, seed: int, work: Path) -> dict:
    """Counts from one traced runner.run, plus the CSV size write_outputs gives."""
    from qhdyn import runner

    work.mkdir()
    job = run.Job(WORKLOADS[name], seed, work, run.Verdicts())
    tracer = Tracer()
    tracer.begin_run()
    with layers_wrapped(tracer):
        report = runner.run(job.config)
    counts = run._counts(tracer)
    run_dir = runner.write_outputs(report, work / "out")
    counts["runner.csv_bytes"] = (Path(run_dir) / "timeseries.csv").stat().st_size
    counts["steps"] = job.config.steps
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_the_same_seed(name, tmp_path):
    first = traced_counts(name, 3, tmp_path / "first")
    second = traced_counts(name, 3, tmp_path / "second")
    assert first == second
    assert all(value is not None for value in first.values())
    assert first["evolution.rk4_steps"] == first["steps"]
    # a constant H is one distinct matrix however often it is solved; a moving
    # H is a new matrix at every solve
    distinct = 1 if name == "static-rand4" else first["spectral.solves"]
    assert first["spectral.useful_ratio"] == distinct / first["spectral.solves"]


def test_documents_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.document(5) == workload.document(5)
        assert workload.document(5) != workload.document(6)
