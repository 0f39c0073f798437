"""Properties of randomly drawn `similarity-rand` runs through the whole pipeline.

One strategy draws the model: N in [2, 6], energies in [-3, 3] with gaps of at least 0.1, a seed below 1000,
each mu sinusoidal or exponential and moving, and 200 steps at dt = 1e-3.  Nothing here depends on a run's
verdict, so the strategy leaves out no draw whose run would fail a check.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qhdyn import run, scenario_from_dict

# a few dozen draws keep this file near one second of tier-1 time
DRAWS = settings(max_examples=40)


@st.composite
def similarity_rand(draw) -> dict:
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.1, 5.9 / (n - 1)), min_size=n - 1, max_size=n - 1))
    lowest = draw(st.floats(-3.0, 3.0 - sum(gaps)))
    mu = []
    for _ in range(n):
        base = draw(st.floats(0.5, 2.0))
        if draw(st.booleans()):
            mu.append({"kind": "sinusoidal", "base": base, "amplitude": draw(st.floats(0.1, 0.5)),
                       "frequency": draw(st.floats(0.5, 20.0)), "phase": draw(st.floats(0.0, 2 * np.pi))})
        else:
            rate = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1, 1]))
            mu.append({"kind": "exponential", "base": base, "rate": rate})
    energies = [float(e) for e in lowest + np.cumsum([0.0, *gaps])]
    return {
        "name": "similarity_rand",
        "model": {
            "family": "similarity-rand",
            "dimension": n,
            "params": {"energies": energies, "seed": draw(st.integers(0, 999))},
            "a_observables": [{"name": "H", "matrix_source": "hamiltonian-itself"}],
        },
        "mu": mu,
        "time": {"t0": 0.0, "t1": 0.2, "dt": 1e-3},
    }


@DRAWS
@given(similarity_rand())
def test_h_only_fails_theta_norm_conservation(document):
    # with a moving metric, H alone drifts the Theta-norm far past its 1e-8 threshold (over 400 draws the
    # smallest drift was 3.5e-3)
    document["evolution"] = {"generator": "h-only"}
    report = run(scenario_from_dict(document))
    norm = next(r for r in report.reports if r.name == "theta-norm-conservation")
    assert not norm.passed, norm.max_residual


@DRAWS
@given(similarity_rand(), st.floats(0.1, 2 * np.pi - 0.1))
def test_a_constant_phase_of_mu_moves_no_residual(document, alpha):
    # mu -> e^{i alpha} mu leaves Theta and H_gen unchanged, so each max residual moves by rounding alone:
    # over 400 draws by at most 1.8e-12 (a quasi-hermiticity residual of 5.5e-12), and never more than
    # 4.5e-13 past a quarter of the residual
    plain = run(scenario_from_dict(document))
    rotated = copy.deepcopy(document)
    for entry in rotated["mu"]:
        base = entry["base"] * np.exp(1j * alpha)
        entry["base"] = [base.real, base.imag]
    for before, after in zip(plain.reports, run(scenario_from_dict(rotated)).reports):
        assert before.name == after.name
        assert abs(after.max_residual - before.max_residual) <= 1e-12 + before.max_residual / 4, before.name
