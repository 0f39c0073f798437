"""The public surface: the names the package exports and the README's Python
API example."""

import re
from pathlib import Path

import qhdyn
from qhdyn.model import FAMILY_PARAMS
from qhdyn.scenario import SCHEMA, load_document

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_exported_name_resolves():
    missing = [name for name in qhdyn.__all__ if not hasattr(qhdyn, name)]
    assert missing == []


def test_export_list_stays_short():
    assert len(set(qhdyn.__all__)) == len(qhdyn.__all__) <= 30


def test_readme_example_imports_exported_names():
    imported = re.search(r"from qhdyn import \((.*?)\)", _readme_example(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(qhdyn.__all__)


def test_readme_example_runs_and_passes(capsys):
    exec(compile(_readme_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # nine checks less observable-reality: the example declares no observables
    assert len(lines) == 8
    assert [line.split()[-1] for line in lines] == ["True"] * 8


def test_readme_scenario_example_parses_and_passes():
    section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
    text = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    config = qhdyn.parse_scenario(text)
    assert config.pictures == ("right", "left", "standard")
    report = qhdyn.run(config)
    assert [r.name for r in report.reports] == ["theta-norm-conservation", "equivalence"]
    assert report.passed
    # the block shows every key of these rows, and the families table every family's params
    doc = load_document(text)
    for row, mapping in [("scenario", doc), ("model", doc["model"]), ("time", doc["time"]),
                         ("evolution", doc["evolution"])]:
        required, optional = SCHEMA[row]
        assert set(mapping) == required.keys() | optional.keys(), row
    table = section.split("Built-in Hamiltonian families:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` +\|([^|]*)\|", table, re.M)
    assert {family: set(re.findall(r"`(\w+)`", params)) for family, params in rows} == {
        family: set(params) for family, params in FAMILY_PARAMS.items()
    }
