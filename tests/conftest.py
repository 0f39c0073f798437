from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example database
settings.register_profile("qhdyn", derandomize=True, database=None, max_examples=200, deadline=None)
settings.load_profile("qhdyn")


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SHIPPED_SCENARIOS = (
    "static_hermitian",
    "exp_metric_drive",
    "tri_sin_drive",
    "pt2_gamma_ramp",
    "rand4_metric_sin",
    "cubic_osc_drive",
)


def load_scenario(name, **replacements):
    """Parse a shipped scenario as the command line reads it, optionally overriding dotted config paths."""
    from qhdyn import scenario_from_dict
    from qhdyn.scenario import load_document, set_by_path

    raw = load_document((SCENARIO_DIR / f"{name}.yaml").read_text(encoding="utf-8"))
    for key, value in replacements.items():
        set_by_path(raw, key, value)
    return scenario_from_dict(raw, name=name)


def spy_on_eig(monkeypatch) -> list:
    """Record the dtype and the number of matrices of every stack `np.linalg.eig` solves."""
    solved = []
    eig = np.linalg.eig

    def spy(a):
        solved.append((a.dtype, len(a)))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    return solved


@pytest.fixture(scope="session")
def hand_frame():
    """Hand-verified biorthogonal frame of [[1, 1], [0, 2]]."""
    from qhdyn.spectral import BiorthogonalFrame

    return BiorthogonalFrame(
        t=0.0,
        energies=np.array([1.0 + 0.0j, 2.0 + 0.0j]),
        right_kets=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        left_bras=np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex),
    )


@pytest.fixture(scope="session")
def hand_matrix():
    return np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
