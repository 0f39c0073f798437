"""Scenario documents: parsing, validation, overrides, and sweep paths.

A scenario is a YAML document with these top-level keys (normative):

    model          family, dimension, params, h_schedule, a_observables
    mu             list of N schedule specs for the metric coefficients
    time           t0, t1, dt  (finite; dt must divide the interval exactly,
                   at most 100 000 steps)
    initial_state  {preset: uniform} | {preset: eigenstate, index: k}
                   | {vector: [...]}            (default: uniform)
    pictures       subset of [right, left, standard] with right (default:
                   all; 'standard' is accepted but always computed)
    checks         list of check names or {name, threshold} entries
                   (default: every applicable check)
    evolution      generator: hgen | h-only (optional); reality: assert |
                   report is accepted and changes nothing: every run
                   rejects a complex spectrum (exit 3)
    outputs        observable names to add as expectation-value CSV columns
                   (default: all declared observables)

`SCHEMA` gives the keys of every mapping in a document, which are required
and the type of each: the top level, `time`, `model`, `evolution`, an
observable, a check entry, each schedule kind and each initial_state form.
`model.params` holds exactly its family's `model.FAMILY_PARAMS`, which
`HamiltonianModel` checks.  Any other key, a missing required key, and a
value of the wrong type raise `ScenarioError`; a null value counts as
absent, so a null section takes its default.  A check, picture or output
listed twice raises too.

Every number must be finite.  Parsing rejects, before any numerics, a
schedule that can overflow on [t0, t1] or a metric-coefficient schedule that
can vanish there (`schedules.schedule_bounds`), a sinusoid that the grid
cannot sample (`schedules.validate_resolved`), and any check setting that
`verify.select_checks` rejects, as it does for the Python API.  A document and
a command-line value are read alike: as JSON when the text is JSON (so a dict or
JSON text never loads PyYAML), else as YAML with YAML 1.2's float rule (`1e-3` is
a float); text nested more than `MAX_DEPTH` levels deep is refused.
"""

from __future__ import annotations

import copy
import functools
import reprlib
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import ScenarioError
from .evolution import PICTURES, initial_vector, time_grid, validate_pictures
from .model import FAMILY_PARAMS, HamiltonianModel, ObservableSpec
from .schedules import (KIND_FIELDS, SCHEDULE_KINDS, ScheduleSpec, finite_number, validate_bounded,
                        validate_nonvanishing, validate_resolved)
from .verify import select_checks

# The keys of every mapping in a document, as (required, optional) dicts of key: type.  A float,
# int or complex value is read by `_real`, `_integer` or `_scalar`; a str, dict or list one must
# be a string, a mapping or a list; a tuple lists a choice key's values, the first its default.
# A schedule takes its kind's row (`schedules.KIND_FIELDS`), an initial_state its form's.
SCHEMA = {
    "scenario": ({"model": dict, "mu": list, "time": dict}, {"name": str, "initial_state": dict,
                 "pictures": list, "checks": list, "evolution": dict, "outputs": list}),
    "time": ({"t0": float, "t1": float, "dt": float}, {}),
    "model": ({"family": str, "dimension": int}, {"params": dict, "h_schedule": dict, "a_observables": list}),
    "evolution": ({}, {"generator": ("hgen", "h-only"), "reality": ("assert", "report")}),
    "observable": ({"matrix_source": str}, {"name": str, "data": list}),
    "check": ({"name": str}, {"threshold": float}),
    **{kind: ({"kind": str}, {f: complex if f == "base" else float for f in fields})
       for kind, fields in KIND_FIELDS.items()},
    "uniform": ({"preset": str}, {}),
    "eigenstate": ({"preset": str, "index": int}, {}),
    "vector": ({"vector": list}, {}),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run description."""

    name: str
    model: HamiltonianModel
    mu: tuple[ScheduleSpec, ...]
    t0: float
    t1: float
    dt: float
    initial_state: Any
    pictures: tuple[str, ...]
    check_selection: tuple[str, ...] | None
    check_overrides: Mapping[str, float]
    generator: str
    outputs: tuple[str, ...]
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))


def parse_scenario(text: str, name: str = "scenario") -> ScenarioConfig:
    """Parse and validate one scenario document."""
    return scenario_from_dict(load_document(text), name=name)


@functools.cache
def _yaml_loader():
    """PyYAML's SafeLoader plus YAML 1.2's float rule: a plain scalar with an
    exponent but no decimal point or no exponent sign (1e-3, 2.5e3, .5E+2),
    a string under YAML 1.1, resolves as a float."""
    import re

    import yaml

    class Loader(yaml.SafeLoader):
        pass

    exponent_float = re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$")
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", exponent_float, list("-+0123456789."))
    return Loader


def load_document(text: str) -> dict:
    """Text of one scenario document as its raw dict (not yet validated), read by `_read_text`."""
    raw = _read_text(text, "scenario document")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping at top level")
    return raw


# The deepest legal value is 7 levels: an observable's data entry [re, im] in a document.
MAX_DEPTH = 32


def _read_text(text: str, what: str):
    """``text`` read as JSON when it is JSON (no PyYAML needed), else as YAML with `_yaml_loader`,
    which gives the same value wherever both accept the text.  Text that neither reads, or that
    nests lists and mappings more than `MAX_DEPTH` levels deep, raises a one-line `ScenarioError`."""
    import json

    too_deep = ScenarioError(f"{what} nests deeper than {MAX_DEPTH} levels")
    try:
        try:
            value = json.loads(text)
        except ValueError:
            import yaml

            try:
                value = yaml.load(text, Loader=_yaml_loader())
            except (yaml.YAMLError, ValueError) as exc:  # ValueError: a tagged scalar, say a date, out of range
                mark = getattr(exc, "problem_mark", None)
                reason = str(exc).partition("\n")[0]
                if mark:
                    reason = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
                raise ScenarioError(f"{what} is not valid YAML: {reason}") from exc
    except RecursionError:
        raise too_deep from None
    # each level's distinct containers are walked once, so a YAML alias repeated many times costs nothing;
    # a tuple is a (key, value) pair of YAML's !!pairs or !!omap
    level = [value]
    for _ in range(MAX_DEPTH + 1):
        nodes = {id(node): node for node in level if isinstance(node, (dict, list, tuple))}
        if not nodes:
            return value
        level = [item for node in nodes.values() for item in (node.values() if isinstance(node, dict) else node)]
    raise too_deep


def plain_name(name) -> str:
    """``name``, if it is a string naming a directory right under the output directory."""
    if not isinstance(name, str) or name in (".", "..") or "/" in name or "\\" in name:
        raise ScenarioError(
            f"name {reprlib.repr(name)} must be a plain file name (a string, no path separator, not '.' or '..')")
    return name


def scenario_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    raw = copy.deepcopy(raw)
    doc = _read(raw, "scenario")
    name = plain_name(doc.get("name", name))

    time = _read(doc["time"], "time")
    t0, t1, dt = time["t0"], time["t1"], time["dt"]
    time_grid(t0, t1, dt)  # validates the sign of dt, divisibility and the step count

    model = _parse_model(doc["model"], t0)
    for key, spec in model.h_schedule.items():
        validate_bounded(spec, t0, t1, label=f"model.h_schedule.{key}")
        validate_resolved(spec, dt, label=f"model.h_schedule.{key}")

    if len(doc["mu"]) != model.dimension:
        raise ScenarioError(
            f"mu lists {len(doc['mu'])} schedules but the model dimension is {model.dimension}"
        )
    mu = tuple(_parse_schedule(entry, f"mu[{k}]") for k, entry in enumerate(doc["mu"]))
    for k, spec in enumerate(mu):
        validate_nonvanishing(spec, t0, t1, label=f"mu[{k}]")
        validate_resolved(spec, dt, label=f"mu[{k}]")

    initial_state = _parse_initial_state(doc.get("initial_state", {"preset": "uniform"}))
    pictures = _unique(validate_pictures(doc.get("pictures", PICTURES)), "pictures")

    selection, overrides = _parse_checks(doc.get("checks"))
    select_checks(selection, overrides, "left" in pictures, model.a_observables)

    evolution = _read(doc.get("evolution", {}), "evolution")

    declared = [obs.name for obs in model.a_observables]
    outputs = _unique(doc.get("outputs", declared), "outputs")
    for out in outputs:
        if out not in declared:
            raise ScenarioError(f"outputs names unknown observable {out!r} (declared: {declared})")

    return ScenarioConfig(
        name=name,
        model=model,
        mu=mu,
        t0=t0,
        t1=t1,
        dt=dt,
        initial_state=initial_state,
        pictures=pictures,
        check_selection=selection,
        check_overrides=overrides,
        generator=evolution["generator"],
        outputs=outputs,
        raw=raw,
    )


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply repeatable ``key.path=value`` overrides to a raw scenario dict.

    Values are parsed by `parse_scalar_text`, so `time.dt=5e-4` arrives as a
    float and `evolution.generator=h-only` as a string.  List elements are
    indexed numerically: `mu.0.rate=0.2`.
    """
    raw = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {reprlib.repr(item)} is not of the form key.path=value")
        path, _, text = item.partition("=")
        set_by_path(raw, path.strip(), parse_scalar_text(text))
    return raw


def parse_scalar_text(text: str):
    """One command-line value, read by `_read_text`; a string that Python reads as a float (`inf`,
    `nan`) becomes that float."""
    value = _read_text(text, f"value {reprlib.repr(text)}")
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def set_by_path(raw: dict, path: str, value) -> None:
    """Set a nested config entry addressed by a dotted path; a mapping key missing on the way is
    added as an empty mapping, and a list element is addressed by its index."""
    parts = [p for p in path.split(".") if p]
    if not parts:
        raise ScenarioError("empty parameter path")
    node = raw
    for k, key in enumerate(parts):
        if not isinstance(node, (dict, list)):
            raise ScenarioError(f"path {path!r}: {parts[k - 1]!r} is not a container" if k else
                                "the root of a parameter path must be a mapping or a list")
        if isinstance(node, list):
            try:
                key = int(key)
            except ValueError:
                raise ScenarioError(f"path {path!r}: {key!r} is not a list index") from None
            if not 0 <= key < len(node):
                raise ScenarioError(f"path {path!r}: index {key} out of range")
        if k == len(parts) - 1:
            node[key] = value
        else:
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]


def _read(doc: dict, row: str, label: str | None = None) -> dict:
    """The entries of mapping ``doc`` (at path ``label``, by default the row's name) under its
    `SCHEMA` row, each read by its type, with every choice key's default.  A null entry counts
    as absent."""
    label = label or row
    _typed(doc, dict, label)
    required, optional = SCHEMA[row]
    if unknown := doc.keys() - required.keys() - optional.keys():
        takes = sorted(required | optional)
        raise ScenarioError(f"unknown {label} keys: {sorted(unknown, key=str)}; {row} takes {takes}")
    fields = {}
    for key, kind in (required | optional).items():
        path = key if row == "scenario" else f"{label}.{key}"
        value = doc.get(key)
        if value is None and isinstance(kind, tuple):
            value = kind[0]
        if value is not None:
            fields[key] = _typed(value, kind, path)
        elif key in required:
            raise ScenarioError(f'missing required key "{path}"')
    return fields


def _typed(value, kind, path: str):
    """``value`` read as a `SCHEMA` type."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ScenarioError(f"{path} must be one of {kind}, got {reprlib.repr(value)}")
        return value
    if kind in (dict, list, str):
        if not isinstance(value, kind):
            what = {dict: "mapping", list: "list", str: "string"}[kind]
            raise ScenarioError(f"{path} must be a {what}, got {reprlib.repr(value)}")
        return value
    return {float: _real, int: _integer, complex: _scalar}[kind](value, path)


def _unique(entries, label: str) -> tuple:
    """``entries`` as a tuple, if none is listed twice."""
    for k, entry in enumerate(entries):
        if entry in entries[:k]:
            raise ScenarioError(f"{label} lists {entry!r} more than once")
    return tuple(entries)


def _real(value, label: str) -> float:
    """A finite real number (`schedules.finite_number`), as a float."""
    if not finite_number(value, real=True):
        raise ScenarioError(f"{label} must be a finite real number, got {reprlib.repr(value)}")
    return float(value)


def _integer(value, label: str) -> int:
    if not _real(value, label).is_integer():
        raise ScenarioError(f"{label} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _parse_model(doc: dict, t0: float) -> HamiltonianModel:
    fields = _read(doc, "model")
    kinds = FAMILY_PARAMS.get(fields["family"], {})
    params = {k: _param(v, kinds.get(k), f"model.params.{k}") for k, v in fields.get("params", {}).items()}
    schedules = fields.get("h_schedule", {})
    observables = fields.get("a_observables", [])
    return HamiltonianModel(
        dimension=fields["dimension"],
        family=fields["family"],
        params=params,
        h_schedule={k: _parse_schedule(v, f"model.h_schedule.{k}") for k, v in schedules.items()},
        a_observables=tuple(_parse_observable(entry, k) for k, entry in enumerate(observables)),
        t0=t0,
    )


def _parse_observable(entry, index: int) -> ObservableSpec:
    label = f"model.a_observables[{index}]"
    fields = _read(entry, "observable", label)
    name = fields.get("name", f"A{index}")
    data = fields.get("data")
    if data is not None:
        data = _complex_matrix(data, f"observable {name!r} data")
    return ObservableSpec(name=name, source=fields["matrix_source"], data=data)


def _parse_schedule(entry, label: str) -> ScheduleSpec:
    if isinstance(entry, (int, float, np.number)) and not isinstance(entry, bool):
        return ScheduleSpec(kind="constant", base=_real(entry, label))
    if not isinstance(entry, dict):
        raise ScenarioError(f"{label}: schedule must be a mapping or a number")
    kind = _typed(entry.get("kind"), SCHEDULE_KINDS, f"{label}.kind")
    return ScheduleSpec(**_read(entry, kind, label))


def _scalar(value, label: str) -> float | complex:
    """A finite real number, or an [re, im] pair of them as a complex number."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], label), _real(value[1], label))
    _real(value, label)
    return value


def _param(value, kind: str | None, label: str):
    """A model parameter: a list of finite reals for a "reals" kind, else a scalar."""
    if kind == "reals" and isinstance(value, list):
        return [_real(v, f"{label}[{k}]") for k, v in enumerate(value)]
    return _scalar(value, label)


def _complex_matrix(data, label: str) -> np.ndarray:
    if not all(isinstance(row, list) for row in data):
        raise ScenarioError(f"{label}: expected a nested list matrix, got {reprlib.repr(data)}")
    rows = [[_scalar(v, label) for v in row] for row in data]
    if len({len(row) for row in rows}) > 1:
        raise ScenarioError(f"{label}: matrix rows differ in length")
    return np.array(rows, dtype=complex)


def _parse_initial_state(entry: dict):
    """Exactly one of the three forms, each with only its own keys."""
    form = "vector"
    if "preset" in entry:
        form = _typed(entry["preset"], ("uniform", "eigenstate"), "initial_state.preset")
    fields = _read(entry, form, "initial_state")
    if form == "uniform":
        return "uniform"
    if form == "eigenstate":
        return ("eigenstate", fields["index"])
    vector = [_scalar(v, f"initial_state.vector[{k}]") for k, v in enumerate(fields["vector"])]
    return initial_vector(vector, "initial_state.vector")


def _parse_checks(entries):
    """The selected check names and their threshold overrides, as written: `verify.select_checks` judges them."""
    if entries is None:
        return None, {}
    selection, overrides = [], {}
    for k, item in enumerate(entries):
        if isinstance(item, str):
            item = {"name": item}
        elif isinstance(item, dict):
            item = _read(item, "check", f"checks[{k}]")
        else:
            raise ScenarioError(f"checks entries must be names or {{name, threshold}}: {reprlib.repr(item)}")
        if "threshold" in item:
            overrides[item["name"]] = item["threshold"]
        selection.append(item["name"])
    return tuple(selection), overrides
