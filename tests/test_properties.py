"""Properties of randomly drawn runs through the whole pipeline.

Two strategies draw the model, each mu sinusoidal or exponential and moving, at 200 steps of dt = 1e-3:
`similarity_rand`, a static H with N in [2, 6], energies in [-3, 3] with gaps of at least 0.1 and a seed below
1000; and `moving_two_level`, a pt2 model whose gain/loss gamma(t) ramps with |gamma| below s, or a triangular2
model whose complex coupling c(t) oscillates, so that a moving complex frame carries its phases from one block of
the grid to the next.  Nothing here depends on a run's verdict, so the strategies leave out no draw whose run
would fail a check.
"""

import copy
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qhdyn.dressing
from qhdyn import run, scenario_from_dict
from qhdyn.runner import write_csv

# a few dozen draws per property, fewer where a draw runs several grids, keep this file under 4 s of tier-1 time
DRAWS = settings(max_examples=40)
GRIDS = settings(max_examples=20)


def _moving(draw, base: float) -> dict:
    """A sinusoidal or exponential schedule about ``base`` that moves."""
    if draw(st.booleans()):
        return {"kind": "sinusoidal", "base": base, "amplitude": draw(st.floats(0.1, 0.5)),
                "frequency": draw(st.floats(0.5, 20.0)), "phase": draw(st.floats(0.0, 2 * np.pi))}
    return {"kind": "exponential", "base": base, "rate": draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1, 1]))}


@st.composite
def similarity_rand(draw) -> dict:
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.1, 5.9 / (n - 1)), min_size=n - 1, max_size=n - 1))
    lowest = draw(st.floats(-3.0, 3.0 - sum(gaps)))
    mu = [_moving(draw, draw(st.floats(0.5, 2.0))) for _ in range(n)]
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


@st.composite
def moving_two_level(draw) -> dict:
    mu = [_moving(draw, draw(st.floats(0.5, 2.0))) for _ in range(2)]
    if draw(st.booleans()):
        s = draw(st.floats(0.5, 2.0))
        # |gamma(t)| <= 0.5 s + 2 s * 0.2 = 0.9 s on [0, 0.2]
        gamma = {"kind": "linear-ramp", "base": draw(st.floats(-0.5, 0.5)) * s, "rate": draw(st.floats(-2.0, 2.0)) * s}
        model = {"family": "pt2", "params": {"gamma": gamma["base"], "s": s}, "h_schedule": {"gamma": gamma}}
    else:
        e1 = draw(st.floats(-3.0, 3.0))
        e2 = e1 + draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1, 1]))
        c = draw(st.floats(0.2, 2.0)) * np.exp(1j * draw(st.floats(0.3, np.pi - 0.3)))
        coupling = _moving(draw, 1.0) | {"base": [c.real, c.imag]}
        model = {"family": "triangular2", "params": {"e1": e1, "e2": e2, "c": coupling["base"]},
                 "h_schedule": {"c": coupling}}
    return {
        "name": "moving_two_level",
        "model": {"dimension": 2, **model, "a_observables": [{"name": "H", "matrix_source": "hamiltonian-itself"}]},
        "mu": mu,
        "time": {"t0": 0.0, "t1": 0.2, "dt": 1e-3},
    }


def _csv(report) -> str:
    with tempfile.TemporaryDirectory() as out:
        write_csv(report, Path(out) / "timeseries.csv")
        return (Path(out) / "timeseries.csv").read_text()


def _max_residuals(document) -> dict[str, float]:
    return {r.name: r.max_residual for r in run(scenario_from_dict(document)).reports}


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


# the largest move of a CSV column between block sizes at N >= 3, relative to the column's largest magnitude: a
# moving N = 8 run moved by at most 2.1e-14 (a value) and 8.3e-14 (a residual); over 200 draws of these static
# models no column moved at all
VALUE_BOUND = 1e-13
RESIDUAL_BOUND = 4e-13


def _assert_block_size_free(document):
    """The run of ``document`` does not depend on `dressing._FRAME_ENTRIES`, the size of every block along the
    grid, beyond rounding: at a quarter and at four times it, timeseries.csv is byte-identical at N = 2 and
    each of its columns within its bound at N >= 3."""
    entries = qhdyn.dressing._FRAME_ENTRIES
    plain = run(scenario_from_dict(document))
    bound = np.where([c.endswith("_residual") for c in plain.columns], RESIDUAL_BOUND, VALUE_BOUND)
    scale = np.max(np.abs(plain.rows), axis=0)
    for size in (entries // 4, entries * 4):
        with mock.patch.object(qhdyn.dressing, "_FRAME_ENTRIES", size):
            other = run(scenario_from_dict(document))
        if document["model"]["dimension"] == 2:
            assert _csv(other) == _csv(plain), size
        else:
            moved = np.max(np.abs(other.rows - plain.rows), axis=0)
            assert np.all(moved <= bound * scale), (size, dict(zip(plain.columns, moved / scale)))


@GRIDS
@given(similarity_rand())
def test_a_static_run_does_not_depend_on_the_block_size(document):
    _assert_block_size_free(document)


@GRIDS
@given(moving_two_level())
def test_a_moving_two_level_run_does_not_depend_on_the_block_size(document):
    # at a quarter of the entries the 401-point frame is tracked in two blocks, through `spectral.Continuation`
    _assert_block_size_free(document)


def _shifted(spec: dict, tau: float) -> dict:
    """Schedule ``spec`` re-based so that its value at t + tau is its old value at t."""
    if spec["kind"] == "sinusoidal":
        return spec | {"phase": spec["phase"] - spec["frequency"] * tau}
    return spec | {"base": spec["base"] * np.exp(-spec["rate"] * tau)}


@GRIDS
@given(similarity_rand(), st.floats(-2.0, 2.0))
def test_a_time_shift_moves_no_residual(document, tau):
    # t -> t + tau with every mu re-based changes the run by the rounding of its times alone; over 200 draws
    # each max residual moved by at most 2.9e-12, and never more than 1.5e-12 past half the residual
    shifted = copy.deepcopy(document)
    shifted["mu"] = [_shifted(spec, tau) for spec in document["mu"]]
    shifted["time"] = {"t0": tau, "t1": tau + 0.2, "dt": 1e-3}
    before, after = _max_residuals(document), _max_residuals(shifted)
    assert before.keys() == after.keys()
    for name, r in before.items():
        assert abs(after[name] - r) <= 1e-11 + r / 2, name


# below this the Theta-norm drift is rounding, not truncation (at 1e-14 a halving's ratio read 29)
ROUNDING_FLOOR = 1e-12


@GRIDS
@given(similarity_rand())
def test_halving_dt_shrinks_the_theta_norm_drift_sixteenfold(document):
    # RK4 is fourth order where truncation dominates the drift.  Over 200 draws, of the halvings whose finer drift
    # lies above the floor, 5e-3 -> 2.5e-3 shrank it by 13.5-17.7; 1e-2 -> 5e-3 is not yet asymptotic on every
    # draw and shrank it by 10.3-20.3.  At dt = 1e-3 most drifts sit at rounding level.
    drifts = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        document["time"]["dt"] = dt
        drifts.append(_max_residuals(document)["theta-norm-conservation"])
    for coarse, fine, (low, high) in zip(drifts, drifts[1:], [(9.0, 25.0), (12.0, 20.0)]):
        assert fine < ROUNDING_FLOOR or low <= coarse / fine <= high, drifts
