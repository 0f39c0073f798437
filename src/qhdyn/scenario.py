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
    evolution      generator: hgen | h-only; reality: assert | report
                   (both optional)
    outputs        observable names to add as expectation-value CSV columns
                   (default: all declared observables)

Every number must be finite.  Parsing rejects, before any numerics, a
schedule that can overflow on [t0, t1] or a metric-coefficient schedule that
can vanish there (`schedules.schedule_bounds`), and a selected check whose
input is missing (`verify.unmet_need`).  PyYAML is imported only by the
functions that parse YAML text, so building a config from a dict, or reading
a JSON document or JSON values, never loads it.  YAML is read with YAML 1.2's
float rule, so an exponent needs no decimal point and no sign (`dt: 1e-3`).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import ScenarioError
from .evolution import PICTURES, time_grid, validate_pictures
from .model import HamiltonianModel, ObservableSpec
from .schedules import ScheduleSpec, validate_bounded, validate_nonvanishing
from .verify import DEFAULT_THRESHOLDS, unmet_need

_SCHEDULE_KEYS = {"kind", "base", "rate", "amplitude", "frequency", "phase"}
_TOP_KEYS = {"name", "model", "mu", "time", "initial_state", "pictures", "checks",
             "evolution", "outputs"}
_TIME_KEYS = {"t0", "t1", "dt"}
_MODEL_KEYS = {"family", "dimension", "params", "h_schedule", "a_observables"}
_EVOLUTION_KEYS = {"generator", "reality"}
_OBSERVABLE_KEYS = {"name", "matrix_source", "data"}


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
    reality_policy: str
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
    """Text of one scenario document as its raw dict (not yet validated): a
    JSON object is read with `json`, any other text as YAML."""
    raw = _json_object(text)
    if raw is None:
        import yaml

        try:
            raw = yaml.load(text, Loader=_yaml_loader())
        except yaml.YAMLError as exc:
            raise ScenarioError(f"scenario document is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping at top level")
    return raw


def _json_object(text: str) -> dict | None:
    """The JSON object ``text`` holds, or None when it holds none (YAML, or
    a YAML flow mapping that is not JSON)."""
    if not text.lstrip().startswith("{"):
        return None
    import json

    try:
        return json.loads(text)
    except ValueError:
        return None


def scenario_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    raw = copy.deepcopy(raw)
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    name = str(raw.get("name", name))

    model_doc = _require(raw, "model", dict)
    time_doc = _require(raw, "time", dict)
    mu_doc = _require(raw, "mu", list)
    _reject_unknown(time_doc, _TIME_KEYS, "time")
    _reject_unknown(model_doc, _MODEL_KEYS, "model")

    t0 = _number(time_doc, "time.t0")
    t1 = _number(time_doc, "time.t1")
    dt = _number(time_doc, "time.dt")
    time_grid(t0, t1, dt)  # validates the sign of dt, divisibility and the step count

    model = _parse_model(model_doc, t0)
    for key, spec in model.h_schedule.items():
        validate_bounded(spec, t0, t1, label=f"model.h_schedule.{key}")

    if len(mu_doc) != model.dimension:
        raise ScenarioError(
            f"mu lists {len(mu_doc)} schedules but the model dimension is {model.dimension}"
        )
    mu = tuple(_parse_schedule(entry, f"mu[{k}]") for k, entry in enumerate(mu_doc))
    for k, spec in enumerate(mu):
        validate_nonvanishing(spec, t0, t1, label=f"mu[{k}]")

    initial_state = _parse_initial_state(raw.get("initial_state", {"preset": "uniform"}))

    pictures = raw.get("pictures", list(PICTURES))
    if not isinstance(pictures, list):
        raise ScenarioError(f"pictures must be a list, got {pictures!r}")
    pictures = validate_pictures(pictures)

    selection, overrides = _parse_checks(raw.get("checks"))
    for check in selection or ():
        problem = unmet_need(check, pictures, model.a_observables)
        if problem:
            raise ScenarioError(problem)

    evo = raw.get("evolution", {}) or {}
    if not isinstance(evo, dict):
        raise ScenarioError("evolution must be a mapping")
    _reject_unknown(evo, _EVOLUTION_KEYS, "evolution")
    generator = str(evo.get("generator", "hgen"))
    if generator not in ("hgen", "h-only"):
        raise ScenarioError(f"evolution.generator must be 'hgen' or 'h-only', got {generator!r}")
    reality_policy = str(evo.get("reality", "assert"))
    if reality_policy not in ("assert", "report"):
        raise ScenarioError(f"evolution.reality must be 'assert' or 'report', got {reality_policy!r}")

    declared = [obs.name for obs in model.a_observables]
    outputs = raw.get("outputs")
    if outputs is None:
        outputs = declared
    if not isinstance(outputs, list):
        raise ScenarioError("outputs must be a list of observable names")
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
        generator=generator,
        reality_policy=reality_policy,
        outputs=tuple(str(o) for o in outputs),
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
            raise ScenarioError(f"override {item!r} is not of the form key.path=value")
        path, _, text = item.partition("=")
        set_by_path(raw, path.strip(), parse_scalar_text(text))
    return raw


def parse_scalar_text(text: str):
    """One command-line value: JSON when it is JSON (no PyYAML needed), else
    YAML read with the document loader, which gives the same value wherever
    both accept the text; a string that Python reads as a float (`inf`,
    `nan`) becomes that float."""
    import json

    try:
        value = json.loads(text)
    except ValueError:
        import yaml

        value = yaml.load(text, Loader=_yaml_loader())
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def set_by_path(raw: dict, path: str, value) -> None:
    """Set a nested config entry addressed by a dotted path."""
    parts = [p for p in path.split(".") if p]
    if not parts:
        raise ScenarioError("empty parameter path")
    node = raw
    for key in parts[:-1]:
        node = _descend(node, key, path)
        if not isinstance(node, (dict, list)):
            raise ScenarioError(f"path {path!r}: {key!r} is not a container")
    leaf = parts[-1]
    if isinstance(node, list):
        node[_index(leaf, node, path)] = value
    elif isinstance(node, dict):
        node[leaf] = value
    else:
        raise ScenarioError(f"path {path!r} does not resolve to a settable entry")


def _descend(node, key: str, path: str):
    if isinstance(node, list):
        return node[_index(key, node, path)]
    if isinstance(node, dict):
        if key not in node:
            node[key] = {}
        return node[key]
    raise ScenarioError(f"path {path!r}: cannot descend into {type(node).__name__}")


def _index(key: str, node: list, path: str) -> int:
    try:
        idx = int(key)
    except ValueError:
        raise ScenarioError(f"path {path!r}: {key!r} is not a list index") from None
    if not 0 <= idx < len(node):
        raise ScenarioError(f"path {path!r}: index {idx} out of range")
    return idx


def _reject_unknown(doc: dict, allowed: set, label: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"unknown {label} keys: {sorted(unknown)}")


def _require(raw: dict, key: str, kind) -> Any:
    if key not in raw:
        raise ScenarioError(f'missing required key "{key}"')
    value = raw[key]
    if not isinstance(value, kind):
        raise ScenarioError(f'key "{key}" must be a {kind.__name__}')
    return value


def _number(doc: dict, dotted: str) -> float:
    key = dotted.split(".")[-1]
    if key not in doc:
        raise ScenarioError(f'missing required key "{dotted}"')
    return _real(doc[key], f'key "{dotted}"')


def _real(value, label: str) -> float:
    """A finite real number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{label} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{label} must be finite, got {number}")
    return number


def _integer(value, label: str) -> int:
    if not _real(value, label).is_integer():
        raise ScenarioError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _parse_model(doc: dict, t0: float) -> HamiltonianModel:
    if "family" not in doc:
        raise ScenarioError('missing required key "model.family"')
    if "dimension" not in doc:
        raise ScenarioError('missing required key "model.dimension"')
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise ScenarioError("model.params must be a mapping")
    params = {k: _param(k, v, f"model.params.{k}") for k, v in params.items()}

    schedules = doc.get("h_schedule", {}) or {}
    if not isinstance(schedules, dict):
        raise ScenarioError("model.h_schedule must be a mapping")
    h_schedule = {k: _parse_schedule(v, f"model.h_schedule.{k}") for k, v in schedules.items()}

    entries = doc.get("a_observables", []) or []
    if not isinstance(entries, list):
        raise ScenarioError("model.a_observables must be a list")
    observables = [_parse_observable(entry, k) for k, entry in enumerate(entries)]

    return HamiltonianModel(
        dimension=_integer(doc["dimension"], "model.dimension"),
        family=str(doc["family"]),
        params=params,
        h_schedule=h_schedule,
        a_observables=tuple(observables),
        t0=t0,
    )


def _parse_observable(entry, index: int) -> ObservableSpec:
    if not isinstance(entry, dict):
        raise ScenarioError(f"a_observables[{index}] must be a mapping")
    _reject_unknown(entry, _OBSERVABLE_KEYS, f"a_observables[{index}]")
    name = str(entry.get("name", f"A{index}"))
    source = entry.get("matrix_source")
    if source is None:
        raise ScenarioError(f"observable {name!r}: missing 'matrix_source'")
    data = entry.get("data")
    if data is not None:
        data = _complex_matrix(data, f"observable {name!r} data")
    return ObservableSpec(name=name, source=str(source), data=data)


def _parse_schedule(entry, label: str) -> ScheduleSpec:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return ScheduleSpec(kind="constant", base=_real(entry, label))
    if not isinstance(entry, dict):
        raise ScenarioError(f"{label}: schedule must be a mapping or a number")
    unknown = set(entry) - _SCHEDULE_KEYS
    if unknown:
        raise ScenarioError(f"{label}: unknown schedule keys {sorted(unknown)}")
    if "kind" not in entry:
        raise ScenarioError(f'{label}: missing required key "kind"')
    kwargs = {"kind": str(entry["kind"])}
    if "base" in entry:
        kwargs["base"] = _scalar(entry["base"], f"{label}.base")
    for key in ("rate", "amplitude", "frequency", "phase"):
        if key in entry:
            kwargs[key] = _real(entry[key], f"{label}.{key}")
    return ScheduleSpec(**kwargs)


def _scalar(value, label: str) -> float | complex:
    """A finite real number, or an [re, im] pair of them as a complex number."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_real(value[0], label), _real(value[1], label))
    _real(value, label)
    return value


def _param(key: str, value, label: str):
    """A model parameter: a scalar, or a list of finite reals (list-valued
    parameters such as similarity-rand energies; checked by the family).

    `energies` is always such a list; any other two-element list is an
    [re, im] pair."""
    if isinstance(value, list) and (key == "energies" or len(value) != 2):
        return [_real(v, f"{label}[{k}]") for k, v in enumerate(value)]
    return _scalar(value, label)


def _complex_matrix(data, label: str) -> np.ndarray:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ScenarioError(f"{label}: expected a nested list matrix, got {data!r}")
    rows = [[_scalar(v, label) for v in row] for row in data]
    if len({len(row) for row in rows}) > 1:
        raise ScenarioError(f"{label}: matrix rows differ in length")
    return np.array(rows, dtype=complex)


def _parse_initial_state(entry):
    if isinstance(entry, dict):
        if "preset" in entry:
            preset = str(entry["preset"])
            if preset == "uniform":
                return "uniform"
            if preset == "eigenstate":
                if "index" not in entry:
                    raise ScenarioError('initial_state preset "eigenstate" needs "index"')
                return ("eigenstate", _integer(entry["index"], "initial_state.index"))
            raise ScenarioError(f"unknown initial_state preset {preset!r}")
        if "vector" in entry:
            vector = entry["vector"]
            if not isinstance(vector, list):
                raise ScenarioError(f"initial_state.vector must be a list, got {vector!r}")
            return np.array(
                [_scalar(v, f"initial_state.vector[{k}]") for k, v in enumerate(vector)],
                dtype=complex,
            )
    raise ScenarioError(
        "initial_state must be {preset: uniform}, {preset: eigenstate, index: k}, "
        "or {vector: [...]}"
    )


def _parse_checks(entry):
    if entry is None:
        return None, {}
    if not isinstance(entry, list):
        raise ScenarioError("checks must be a list")
    selection = []
    overrides = {}
    for item in entry:
        if isinstance(item, str):
            name = item
        elif isinstance(item, dict) and "name" in item:
            name = str(item["name"])
            if "threshold" in item:
                thr = _real(item["threshold"], f"check {name!r}: threshold")
                if thr <= 0:
                    raise ScenarioError(f"check {name!r}: threshold must be a positive number")
                overrides[name] = thr
        else:
            raise ScenarioError(f"checks entries must be names or {{name, threshold}}: {item!r}")
        if name not in DEFAULT_THRESHOLDS:
            raise ScenarioError(f"unknown check name {name!r}")
        selection.append(name)
    return tuple(selection), overrides
