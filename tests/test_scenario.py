import copy
import functools
import json
import operator
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from qhdyn import ScenarioConfig, ScenarioError, apply_overrides, parse_scenario, scenario_from_dict
from qhdyn.model import FAMILY_PARAMS
from qhdyn.schedules import ScheduleSpec
from qhdyn.scenario import SCHEMA, _parse_schedule, load_document, set_by_path

from conftest import SCENARIO_DIR, SHIPPED_SCENARIOS

MINIMAL = """
model:
  family: triangular2
  dimension: 2
  params: {e1: 1.0, e2: 2.0, c: 1.0}
mu:
  - {kind: constant, base: 1.0}
  - {kind: constant, base: 1.0}
time: {t0: 0.0, t1: 1.0, dt: 0.01}
"""


def test_minimal_document_fills_defaults():
    cfg = parse_scenario(MINIMAL, name="minimal")
    assert cfg.name == "minimal"
    assert cfg.model.family == "triangular2"
    assert cfg.initial_state == "uniform"
    assert cfg.pictures == ("right", "left", "standard")
    assert cfg.check_selection is None  # all applicable checks
    assert cfg.generator == "hgen"
    assert cfg.steps == 100


def test_top_level_seed_rejected():
    # similarity-rand reads its seed from model.params; a top-level one would be ignored
    with pytest.raises(ScenarioError, match=r"unknown scenario keys: \['seed'\]"):
        parse_scenario(MINIMAL + "seed: 0\n")


def test_missing_dt_is_named():
    doc = MINIMAL.replace("time: {t0: 0.0, t1: 1.0, dt: 0.01}", "time: {t0: 0.0, t1: 1.0}")
    with pytest.raises(ScenarioError, match='"time.dt"'):
        parse_scenario(doc)


def test_missing_sections_are_named():
    with pytest.raises(ScenarioError, match='"model"'):
        parse_scenario("mu: []\ntime: {t0: 0, t1: 1, dt: 0.1}")
    with pytest.raises(ScenarioError, match='"mu"'):
        parse_scenario("model: {family: pt2, dimension: 2, params: {gamma: 0.0, s: 1.0}}\ntime: {t0: 0.0, t1: 1.0, dt: 0.1}")
    with pytest.raises(ScenarioError, match='"model.family"'):
        parse_scenario(MINIMAL.replace("family: triangular2\n  ", ""))


def test_vanishing_mu_rejected_at_parse_time():
    doc = MINIMAL.replace(
        "- {kind: constant, base: 1.0}\n  - {kind: constant, base: 1.0}",
        "- {kind: sinusoidal, base: 1.0, amplitude: 1.0, frequency: 2.0}\n  - {kind: constant, base: 1.0}",
    )
    with pytest.raises(ScenarioError, match="cross zero"):
        parse_scenario(doc)


def test_dimension_mismatch_rejected():
    doc = MINIMAL.replace("  - {kind: constant, base: 1.0}\n  - {kind: constant, base: 1.0}",
                          "  - {kind: constant, base: 1.0}")
    with pytest.raises(ScenarioError, match="dimension"):
        parse_scenario(doc)


def test_bad_time_grids_rejected():
    with pytest.raises(ScenarioError, match="positive"):
        parse_scenario(MINIMAL.replace("dt: 0.01", "dt: -0.01"))
    with pytest.raises(ScenarioError, match="integer number of steps"):
        parse_scenario(MINIMAL.replace("dt: 0.01", "dt: 0.3"))
    with pytest.raises(ScenarioError, match="t1 > t0"):
        parse_scenario(MINIMAL.replace("t1: 1.0", "t1: -1.0"))


@pytest.mark.parametrize("value", [True, "0.01", np.nan, np.inf, -np.inf, 10**400, np.float32(np.nan)])
def test_a_document_number_must_be_finite_and_real(value):
    raw = load_document(MINIMAL)
    raw["time"]["dt"] = value
    with pytest.raises(ScenarioError, match=r"^time\.dt must be a finite real number, got "):
        scenario_from_dict(raw)


def test_numpy_scalars_in_a_dict_are_read_as_numbers():
    # the rule of the Python API (`schedules.finite_number`); a float32 raises no warning
    raw = load_document(MINIMAL)
    raw["time"]["dt"], raw["model"]["dimension"] = np.float32(0.25), np.int64(2)
    raw["mu"] = [{"kind": "exponential", "base": 1.0, "rate": np.float64(0.5)}, np.float32(2.0)]
    config = scenario_from_dict(raw)
    assert (config.dt, config.model.dimension, config.mu[0].rate, config.mu[1].base) == (0.25, 2, 0.5, 2.0)
    assert type(config.dt) is float and type(config.model.dimension) is int


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        parse_scenario(MINIMAL + "\nbanana: 1\n")
    with pytest.raises(ScenarioError, match=r"unknown mu\[0\] keys: \['slope'\]; constant takes \['base', 'kind'\]"):
        parse_scenario(MINIMAL.replace("{kind: constant, base: 1.0}", "{kind: constant, slope: 1.0}", 1))


def test_checks_parsing():
    doc = MINIMAL + (
        "checks:\n"
        "  - theta-norm-conservation\n"
        "  - {name: equivalence, threshold: 1.0e-6}\n"
    )
    cfg = parse_scenario(doc)
    assert cfg.check_selection == ("theta-norm-conservation", "equivalence")
    assert cfg.check_overrides == {"equivalence": 1e-6}
    with pytest.raises(ScenarioError, match="unknown check"):
        parse_scenario(MINIMAL + "checks: [nonsense]\n")


def test_initial_state_forms():
    assert parse_scenario(MINIMAL + "initial_state: {preset: uniform}\n").initial_state == "uniform"
    cfg = parse_scenario(MINIMAL + "initial_state: {preset: eigenstate, index: 1}\n")
    assert cfg.initial_state == ("eigenstate", 1)
    cfg = parse_scenario(MINIMAL + "initial_state: {vector: [[1.0, 0.5], [0.0, -0.5]]}\n")
    np.testing.assert_allclose(cfg.initial_state, [1.0 + 0.5j, 0.0 - 0.5j])
    with pytest.raises(ScenarioError, match="initial_state"):
        parse_scenario(MINIMAL + "initial_state: {bogus: 1}\n")
    # exactly one form, each with only its own keys
    for entry, message in [
        ("{preset: uniform, index: 1}", r"\['index'\]; uniform takes \['preset'\]"),
        ("{preset: uniform, vector: [1, 0]}", r"\['vector'\]; uniform takes"),
        ("{vector: [1, 0], index: 0}", r"\['index'\]; vector takes \['vector'\]"),
        ("{preset: eigenstate, index: 0, vector: [1, 0]}", r"\['vector'\]; eigenstate takes \['index', 'preset'\]"),
        ("{preset: uniform, bogus: 1}", r"\['bogus'\]; uniform takes"),
        ("{preset: eigenstate}", 'missing required key "initial_state.index"'),
        ("{preset: vector, vector: [1, 0]}", r"initial_state.preset must be one of \('uniform', 'eigenstate'\)"),
    ]:
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(MINIMAL + f"initial_state: {entry}\n")


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("constant", {"base"}),
        ("linear-ramp", {"base", "rate"}),
        ("exponential", {"base", "rate"}),
        ("sinusoidal", {"base", "amplitude", "frequency", "phase"}),
    ],
)
def test_each_schedule_kind_takes_only_its_own_keys(kind, keys):
    every = {"base": 1.0, "rate": 0.1, "amplitude": 0.2, "frequency": 1.0, "phase": 0.5}
    spec = _parse_schedule({"kind": kind, **{key: every[key] for key in keys}}, "mu[0]")
    assert all(getattr(spec, key) == every[key] for key in keys)
    for key in every.keys() - keys:
        with pytest.raises(ScenarioError, match=rf"unknown mu\[0\] keys: \['{key}'\]; {kind} takes"):
            _parse_schedule({"kind": kind, key: every[key]}, "mu[0]")


def test_observable_parsing():
    doc = MINIMAL + (
        "name: obs\n"
        "outputs: [H, seed]\n"
    )
    doc = doc.replace(
        "params: {e1: 1.0, e2: 2.0, c: 1.0}",
        "params: {e1: 1.0, e2: 2.0, c: 1.0}\n"
        "  a_observables:\n"
        "    - {name: H, matrix_source: hamiltonian-itself}\n"
        "    - {name: seed, matrix_source: function-of-frame, data: [[1.0, 0.0], [0.0, -1.0]]}",
    )
    cfg = parse_scenario(doc)
    assert [o.name for o in cfg.model.a_observables] == ["H", "seed"]
    assert cfg.outputs == ("H", "seed")
    with pytest.raises(ScenarioError, match="unknown observable"):
        parse_scenario(MINIMAL + "outputs: [phantom]\n")
    # one spelling of the source key
    with pytest.raises(ScenarioError, match=r"unknown model\.a_observables\[0\] keys: \['source'\]"):
        parse_scenario(doc.replace("{name: H, matrix_source:", "{name: H, source:"))


def test_evolution_block_validation():
    cfg = parse_scenario(MINIMAL + "evolution: {generator: h-only}\n")
    assert cfg.generator == "h-only"
    # reality is accepted with either value and changes nothing: every run rejects a complex spectrum
    for value in ("assert", "report"):
        same = parse_scenario(MINIMAL + f"evolution: {{generator: h-only, reality: {value}}}\n")
        assert repr(replace(same, raw={})) == repr(replace(cfg, raw={}))
    # the model decides how dOmega/dt is obtained; the key that chose it is gone
    with pytest.raises(ScenarioError, match=r"unknown evolution keys: \['omega_dot'\]"):
        parse_scenario(MINIMAL + "evolution: {omega_dot: auto}\n")
    with pytest.raises(ScenarioError, match="generator"):
        parse_scenario(MINIMAL + "evolution: {generator: imaginary}\n")
    with pytest.raises(ScenarioError, match="reality"):
        parse_scenario(MINIMAL + "evolution: {reality: hope}\n")


def test_complex_base_via_pair():
    doc = MINIMAL.replace("- {kind: constant, base: 1.0}\n  - {kind: constant, base: 1.0}",
                          "- {kind: constant, base: [1.0, 0.5]}\n  - {kind: constant, base: 1.0}")
    cfg = parse_scenario(doc)
    assert cfg.mu[0].base == 1.0 + 0.5j


def test_overrides_and_paths():
    import yaml

    raw = yaml.safe_load(MINIMAL)
    out = apply_overrides(raw, ["time.dt=0.005", "mu.0.base=2.0", "evolution.generator=h-only"])
    assert out["time"]["dt"] == 0.005
    assert out["mu"][0]["base"] == 2.0
    assert out["evolution"]["generator"] == "h-only"
    # original untouched
    assert raw["time"]["dt"] == 0.01
    cfg = scenario_from_dict(out)
    assert cfg.dt == 0.005 and cfg.generator == "h-only"

    with pytest.raises(ScenarioError, match="form"):
        apply_overrides(raw, ["time.dt"])
    with pytest.raises(ScenarioError, match="out of range"):
        set_by_path(raw, "mu.7.base", 1.0)
    with pytest.raises(ScenarioError, match="list index"):
        set_by_path(raw, "mu.x.base", 1.0)
    with pytest.raises(ScenarioError, match="^empty parameter path$"):
        apply_overrides(raw, ["=3"])
    # a list element as the leaf: the schedule is replaced whole, here by a constant
    out = apply_overrides(raw, ["mu.0=1.5"])
    assert out["mu"][0] == 1.5 and out["mu"][1] == raw["mu"][1]
    assert scenario_from_dict(out).mu[0] == ScheduleSpec("constant", base=1.5)


def test_exponent_only_floats_from_command_line():
    from qhdyn.scenario import parse_scalar_text

    assert parse_scalar_text("1e-3") == 1e-3
    assert parse_scalar_text("5e-4") == 5e-4
    assert parse_scalar_text("0.002") == 0.002
    assert parse_scalar_text("h-only") == "h-only"
    assert parse_scalar_text("[1, 2]") == [1, 2]

    import yaml

    raw = yaml.safe_load(MINIMAL)
    out = apply_overrides(raw, ["time.dt=1e-3"])
    assert out["time"]["dt"] == 1e-3


_SCALAR_TEXTS = [
    "1e-3", "5e-4", "2.5e3", "1E+5", "-1.5e-300", "1e400", "1.5e+308", "0.002", "1", "-7", "0", "-0",
    "-0.0", "012", "0x1A", "1_000", ".5", "inf", "-inf", "Infinity", "-Infinity", "NaN", "nan", ".nan",
    ".inf", "true", "false", "True", "null", "~", "", "h-only", "hgen", "[right]", '["right", "left"]',
    "[1, 2.5]", "{a: 1}", '{"a": 1}', '"x"', "'x'",
]


@pytest.mark.parametrize("text", _SCALAR_TEXTS)
def test_command_line_values_read_as_json_equal_the_yaml_reading(text):
    from qhdyn.scenario import _yaml_loader, parse_scalar_text

    value = yaml.load(text, Loader=_yaml_loader())  # the YAML loader alone
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    got = parse_scalar_text(text)
    assert type(got) is type(value) and repr(got) == repr(value)  # nan, -0.0 and int vs float too


def test_exponent_only_floats_in_documents():
    # YAML 1.1 reads 1e-3 as a string; documents take YAML 1.2's float rule
    text = (SCENARIO_DIR / "tri_sin_drive.yaml").read_text()
    edited = text.replace("dt: 0.001}", "dt: 1e-3}")
    assert edited != text
    cfg = parse_scenario(edited + "checks: [{name: equivalence, threshold: 1e-6}]\n")
    assert cfg.dt == 1e-3
    assert cfg.check_overrides == {"equivalence": 1e-6}
    assert load_document("a: [2.5e3, .5E+2, -1_0e1, 1e]") == {"a": [2500.0, 50.0, -100.0, "1e"]}
    # PyYAML's own SafeLoader is left as it is
    assert yaml.safe_load("dt: 1e-3") == {"dt": "1e-3"}


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS + ("ep_crossing",))
def test_json_document_gives_the_yaml_config(name):
    text = (SCENARIO_DIR / f"{name}.yaml").read_text()
    from_yaml = parse_scenario(text)
    from_json = parse_scenario(json.dumps(load_document(text)))
    assert from_json.raw == from_yaml.raw
    assert repr(from_json) == repr(from_yaml)


def test_flow_mapping_that_is_not_json_is_read_as_yaml():
    assert load_document("{time: {dt: 1e-3}}") == {"time": {"dt": 1e-3}}
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_document('{"time": ')


def test_unknown_subdocument_keys_rejected():
    with pytest.raises(ScenarioError, match="unknown time keys"):
        parse_scenario(MINIMAL.replace("dt: 0.01}", "dt: 0.01, dy: 1}"))
    with pytest.raises(ScenarioError, match="unknown evolution keys"):
        parse_scenario(MINIMAL + "evolution: {integrator: rk4}\n")


def test_nonmapping_document_rejected():
    with pytest.raises(ScenarioError, match="mapping"):
        parse_scenario("- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="YAML"):
        parse_scenario("model: {family: [unbalanced\n")


SHIPPED_DOCS = {
    path.stem: yaml.safe_load(path.read_text(encoding="utf-8")) for path in sorted(SCENARIO_DIR.glob("*.yaml"))
}

# words the parser gives meaning to, so that mutations reach past the first type check
_WORDS = (
    "name", "model", "mu", "time", "initial_state", "pictures", "checks", "evolution", "outputs",
    "seed", "t0", "t1", "dt", "family", "dimension", "params", "h_schedule", "a_observables",
    "kind", "base", "rate", "amplitude", "frequency", "phase", "preset", "index", "vector",
    "threshold", "matrix_source", "source", "data", "generator", "omega_dot", "reality",
    "constant", "linear-ramp", "exponential", "sinusoidal", "uniform", "eigenstate", "right",
    "left", "standard", "hgen", "h-only", "triangular2", "pt2", "similarity-rand", "cubic-trunc",
    "hamiltonian-itself", "user-matrix", "function-of-frame", "equivalence", "energies", "g", "c",
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), st.sampled_from(_WORDS)
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(st.data())
def test_scenario_from_dict_fuzz(data):
    """A mutated shipped scenario parses to a config or raises ScenarioError, nothing else."""
    name = data.draw(st.sampled_from(sorted(SHIPPED_DOCS)))
    raw = copy.deepcopy(SHIPPED_DOCS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(raw))))
        parent = functools.reduce(operator.getitem, path[:-1], raw)
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_values)
    try:
        config = scenario_from_dict(raw, name=name)
    except ScenarioError:
        return
    assert isinstance(config, ScenarioConfig)


def _exact(message):
    """A pattern that matches ``message`` and nothing longer."""
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("model.h_schedule", 0, "model.h_schedule must be a mapping, got 0"),
        ("model.h_schedule", False, "model.h_schedule must be a mapping, got False"),
        ("model.a_observables", 0, "model.a_observables must be a list, got 0"),
        ("model.params", [], r"model.params must be a mapping, got \[\]"),
        ("evolution", 0, "evolution must be a mapping, got 0"),
        ("pictures", "right", "pictures must be a list, got 'right'"),
        ("initial_state", "uniform", "initial_state must be a mapping, got 'uniform'"),
        ("checks", [], "checks names no check; omit the key or set it to null to run every applicable check"),
        ("pictures", ["right", "sideways"],
         _exact("unknown picture 'sideways'; expected a subset of ('right', 'left', 'standard')")),
        ("model.dimension", 2.5, _exact("model.dimension must be an integer, got 2.5")),
        ("checks", [5], _exact("checks entries must be names or {name, threshold}: 5")),
        ("checks", [{"name": "equivalence", "threshold": -1}],
         _exact("check 'equivalence': threshold must be a positive number")),
        ("model.a_observables.1.data", [[1.0, 0.0], [0.0]],
         _exact("observable 'level_imbalance' data: matrix rows differ in length")),
        ("time", None, 'missing required key "time"'),
        ("model.h_schedule", None, None),
        ("model.a_observables", None, None),
        ("evolution", None, None),
        ("pictures", None, None),
        ("initial_state", None, None),
        ("checks", None, None),
        ("outputs", None, None),
    ],
)
def test_a_section_is_its_own_type_or_null_for_absent(path, value, message):
    raw = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    raw["evolution"] = {"reality": "report"}
    set_by_path(raw, path, value)
    if message is not None:
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(raw)
        return
    absent = copy.deepcopy(raw)
    *parents, key = path.split(".")
    del functools.reduce(operator.getitem, parents, absent)[key]
    assert repr(replace(scenario_from_dict(raw), raw={})) == repr(replace(scenario_from_dict(absent), raw={}))


@pytest.mark.parametrize(
    "key, value, entry",
    [
        ("checks", ["equivalence", "equivalence"], "equivalence"),
        ("checks", [{"name": "equivalence", "threshold": 1.0}, "equivalence"], "equivalence"),
        ("outputs", ["H", "H"], "H"),
        ("pictures", ["right", "right"], "right"),
    ],
)
def test_an_entry_listed_twice_is_rejected(key, value, entry):
    raw = load_document((SCENARIO_DIR / "tri_sin_drive.yaml").read_text())
    raw[key] = value
    with pytest.raises(ScenarioError, match=f"^{key} lists '{entry}' more than once$"):
        scenario_from_dict(raw)


README = SCENARIO_DIR.parent / "README.md"

# the shipped scenarios and the README's example, which adds a check entry and `evolution`
_ACCEPTED = [load_document(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.yaml"))] + [
    load_document(re.search(r"```yaml\n(.*?)```", README.read_text().split("## Scenario files", 1)[1], re.S).group(1))
]
# every key a mapping of a document can take
_KNOWN_KEYS = {key for required, optional in SCHEMA.values() for key in required | optional}
_KNOWN_KEYS |= {param for params in FAMILY_PARAMS.values() for param in params}


def _mappings(node, path=()):
    """The path of every mapping in a document."""
    if isinstance(node, dict):
        yield path
    for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield from _mappings(child, path + (key,))


@given(st.data())
def test_a_key_outside_the_schema_is_rejected(data):
    """Metamorphic: an accepted document with one more key, in any mapping, is rejected."""
    raw = copy.deepcopy(data.draw(st.sampled_from(_ACCEPTED)))
    path = data.draw(st.sampled_from(list(_mappings(raw))))
    key = data.draw((st.sampled_from(_WORDS) | st.text(max_size=6) | st.integers()).filter(lambda k: k not in _KNOWN_KEYS))
    functools.reduce(operator.getitem, path, raw)[key] = data.draw(_leaves)
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_every_shipped_and_workload_document_is_accepted(monkeypatch):
    for raw in _ACCEPTED:
        scenario_from_dict(raw)
    monkeypatch.syspath_prepend(str(SCENARIO_DIR.parent / "benchmarks"))
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for seed in range(200):
            scenario_from_dict(workload.document(seed))
