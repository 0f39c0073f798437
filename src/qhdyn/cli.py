"""Command-line front end.

    qhdyn run <scenario.yaml> [--out DIR] [--override key.path=value ...]
    qhdyn sweep <scenario.yaml> --param key.path --values v1,v2,... \
        [--jobs N] [--out DIR] [--override ...]

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical-domain error (exceptional point / conditioning / complex
spectrum), 4 internal error (any other exception; a bug, reported as one
line on stderr).
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .errors import NumericalDomainError, ScenarioError
from .runner import (EXIT_CHECK_FAILED, EXIT_INTERNAL_ERROR, EXIT_OK, run, summary_text, sweep, sweep_summary_text,
                     write_outputs)
from .scenario import apply_overrides, load_document, parse_scalar_text, scenario_from_dict


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhdyn",
        description="Quasi-Hermitian quantum dynamics with time-dependent metrics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", type=Path)
    common.add_argument("--out", type=Path, default=None, help="directory for CSV/summary/report")
    common.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override a scenario entry (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="execute one scenario file")
    p_sweep = sub.add_parser("sweep", parents=[common], help="run a scenario over a list of parameter values")
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. time.dt")
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted (at least 1) and changes nothing: every point runs in this process, in order")
    return parser


def _load_raw(path: Path, overrides: list[str]) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    raw = load_document(text)
    raw.setdefault("name", path.stem)
    raw = apply_overrides(raw, overrides)
    if raw["name"] is None:  # a null name counts as absent
        raw["name"] = path.stem
    return raw


def _cmd_run(args) -> int:
    raw = _load_raw(args.scenario, args.override)
    config = scenario_from_dict(raw, name=raw.get("name", args.scenario.stem))
    report = run(config)
    sys.stdout.write(summary_text(report))
    if args.out is not None:
        run_dir = write_outputs(report, args.out)
        sys.stdout.write(f"outputs written to {run_dir}\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _parse_values(text: str) -> list:
    values = [parse_scalar_text(chunk) for chunk in map(str.strip, text.split(",")) if chunk]
    if not values:
        raise ScenarioError(f"--values {text!r} lists no value")
    return values


def _cmd_sweep(args) -> int:
    raw = _load_raw(args.scenario, args.override)
    values = _parse_values(args.values)
    points = sweep(raw, args.param, values, jobs=args.jobs, name=raw.get("name", args.scenario.stem))
    sys.stdout.write(sweep_summary_text(args.param, points))
    if args.out is not None:
        for p in points:
            if p.report is not None:
                write_outputs(p.report, args.out)
        sys.stdout.write(f"outputs written under {args.out}\n")
    return max(p.exit_code for p in points)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        existing = args.out and next(path for path in (args.out, *args.out.parents) if path.exists())
        if existing and not existing.is_dir():  # before any run
            raise ScenarioError(f"--out {args.out} is not a usable directory: {existing} exists and is not a directory")
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ScenarioError, NumericalDomainError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry() -> int:
    """`main` for the console script and ``python -m qhdyn``: a process that is ending anyway freezes its
    objects (`gc.freeze`), so that the interpreter's shutdown does not walk them in full collections."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
