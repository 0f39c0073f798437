"""Acceptance suite: one test per exit criterion, desk scale (N <= 8, T <= 1,
dt = 1e-3, double precision).  Each criterion prints its own PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py` to see them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qhdyn import (
    ConditioningError,
    ExceptionalPointError,
    ScenarioError,
    build_dressing_track,
    parse_scenario,
    run,
    time_grid,
)
from qhdyn.dressing import (
    build_generator,
    build_omega,
    build_theta,
    differentiate_samples,
    hermitize,
    quasi_hermiticity_residual,
    theta_inner,
)
from qhdyn.spectral import BiorthogonalFrame, _frame_error, eig_biorthogonal

from conftest import SCENARIO_DIR, SHIPPED_SCENARIOS, load_scenario

# drifts below this sit at the rounding floor; a convergence ratio measured
# there is a ratio of noise, so the order subtest only applies above it
DRIFT_MEASURABLE_FLOOR = 1e-13

# each check's max residual for every shipped scenario at its shipped dt; a fresh residual
# matches when it is within a factor of 4 of the file's, or within 4e-15 (18 ulp of 1) of it:
# rounding passes, and so does any move of a residual at the rounding floor, but a residual
# above 4.5e-16 that grows tenfold fails, as does one above 4.5e-15 that shrinks tenfold
GOLDEN = Path(__file__).with_name("golden_residuals.json")
GOLDEN_FACTOR, GOLDEN_FLOOR = 4.0, 4e-15


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"{criterion}: {detail}"


def _max_residual(report, check):
    """The largest residual of one named check in a `RunReport`."""
    return {r.name: r.max_residual for r in report.reports}[check]


@pytest.fixture(scope="module")
def shipped_runs():
    """Every shipped scenario at its stated dt = 1e-3."""
    return {name: run(load_scenario(name)) for name in SHIPPED_SCENARIOS}


@pytest.fixture(scope="module")
def halved_runs():
    """The same scenarios at dt = 2e-3 (the stated dt is its halving)."""
    return {name: run(load_scenario(name, **{"time.dt": 0.002})) for name in SHIPPED_SCENARIOS}


def test_criterion_1_theta_norm_conservation(shipped_runs, halved_runs):
    details = []
    ok = True
    for name in SHIPPED_SCENARIOS:
        drift = _max_residual(shipped_runs[name], "theta-norm-conservation")
        coarse = _max_residual(halved_runs[name], "theta-norm-conservation")
        ok &= drift < 1e-8
        if coarse > DRIFT_MEASURABLE_FLOOR:
            ratio = coarse / drift
            ok &= 10.0 <= ratio <= 22.0
            details.append(f"{name}: drift {drift:.2e}, halving ratio {ratio:.1f}")
        else:
            details.append(f"{name}: drift {drift:.2e} (at rounding floor; ratio n/a)")
    _report("1 theta-norm conservation", ok, "; ".join(details))


def test_criterion_2_generator_necessity():
    good = run(load_scenario("exp_metric_drive"))
    bad = run(load_scenario("exp_metric_drive", **{"evolution.generator": "h-only"}))
    good_drift = _max_residual(good, "theta-norm-conservation")
    bad_drift = _max_residual(bad, "theta-norm-conservation")
    ok = good_drift < 1e-8 and bad_drift > 1e-3
    _report(
        "2 generator necessity",
        ok,
        f"H_gen drift {good_drift:.2e} < 1e-8; plain-H drift {bad_drift:.2e} > 1e-3",
    )


def test_criterion_3_equivalence_oracle(shipped_runs):
    worst = {
        name: _max_residual(rep, "equivalence") for name, rep in shipped_runs.items()
    }
    ok = all(v < 1e-7 for v in worst.values())
    _report(
        "3 equivalence oracle",
        ok,
        "; ".join(f"{k}: {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_4_quasi_hermiticity_and_isospectrality(shipped_runs):
    ok = True
    details = []
    for name, rep in shipped_runs.items():
        qh = _max_residual(rep, "quasi-hermiticity")
        iso = _max_residual(rep, "isospectrality")
        ok &= qh < 1e-9 and iso < 1e-9
        details.append(f"{name}: qh {qh:.1e}, iso {iso:.1e}")
    _report("4 quasi-Hermiticity & isospectrality", ok, "; ".join(details))


def test_criterion_5_exact_fixtures():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    frame = BiorthogonalFrame(
        t=0.0,
        energies=np.array([1.0 + 0j, 2.0 + 0j]),
        right_kets=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        left_bras=np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex),
    )
    # no error unless biorthonormality, completeness or an eigen-residual fails
    assert _frame_error(
        frame.right_kets[None], frame.left_bras[None], frame.energies[None], np.zeros(1), H[None]
    ) is None
    omega = build_omega(frame.left_bras, [1.0, 1.0])
    theta = build_theta(omega)
    h = hermitize(omega, H, np.linalg.inv(omega))
    cross = theta @ H
    phi = np.array([1.0, 1.0], dtype=complex)
    checks = {
        "Omega": np.max(np.abs(omega - np.array([[1.0, -1.0], [0.0, 1.0]]))),
        "Theta": np.max(np.abs(theta - np.array([[1.0, -1.0], [-1.0, 2.0]]))),
        "h": np.max(np.abs(h - np.diag([1.0, 2.0]))),
        "ThetaH": np.max(np.abs(cross - np.array([[1.0, -1.0], [-1.0, 3.0]]))),
        "HdagTheta": np.max(np.abs(H.conj().T @ theta - cross)),
        "residual": quasi_hermiticity_residual(H, theta),
        "expectation": abs(theta_inner(phi, H @ phi, theta) / theta_inner(phi, phi, theta) - 2.0),
    }
    ok = all(v < 1e-12 for v in checks.values())
    _report(
        "5 exact 2x2 fixtures",
        ok,
        "; ".join(f"{k} {v:.1e}" for k, v in checks.items()),
    )


def test_criterion_6_left_right_duality(shipped_runs):
    worst = {
        name: _max_residual(rep, "state-consistency")
        for name, rep in shipped_runs.items()
    }
    ok = all(v < 1e-7 for v in worst.values())
    _report(
        "6 left-right duality",
        ok,
        "; ".join(f"{k}: {v:.2e}" for k, v in worst.items()),
    )


def test_criterion_7_error_paths():
    details = []

    # pt2 exactly at gamma = s: exceptional-point error, not a wrong answer
    try:
        eig_biorthogonal(np.array([[1j, 1.0], [1.0, -1j]]))
        ep_ok = False
        details.append("gamma=s: no error raised")
    except ExceptionalPointError:
        ep_ok = True
        details.append("gamma=s: ExceptionalPointError")

    # vanishing mu schedule rejected at parse time
    doc = (SCENARIO_DIR / "static_hermitian.yaml").read_text().replace(
        "- {kind: constant, base: 1.0}",
        "- {kind: sinusoidal, base: 1.0, amplitude: 1.0, frequency: 2.0}",
        1,
    )
    try:
        parse_scenario(doc)
        mu_ok = False
        details.append("vanishing mu: accepted")
    except ScenarioError:
        mu_ok = True
        details.append("vanishing mu: rejected at parse")

    # cond(Theta) > 1e12 aborts with the numerical-domain exit code
    try:
        run(load_scenario("exp_metric_drive", **{
            "mu": [
                {"kind": "constant", "base": 1.0},
                {"kind": "constant", "base": 1e-7},
            ]
        }))
        cond_ok = False
        details.append("cond blowup: no error")
    except ConditioningError:
        cond_ok = True
        details.append(f"cond blowup: ConditioningError (exit code {ConditioningError.exit_code})")

    _report("7 error paths", ep_ok and mu_ok and cond_ok, "; ".join(details))


def test_criterion_8_derivative_oracle():
    cfg = load_scenario("exp_metric_drive")
    _, fine = time_grid(cfg.t0, cfg.t1, cfg.dt)
    # a static H: the track's dOmega/dt is exact, the stencils are the oracle
    track = build_dressing_track(cfg.model, cfg.mu, fine)
    fd = differentiate_samples(track.omega(), track.step)
    H = track.hamiltonian()
    gen_diff = np.max(np.abs(
        build_generator(H, track.omega_dot(), track.omega_inv()) - build_generator(H, fd, track.omega_inv())
    ))

    # Richardson: error of the finite-difference derivative against the exact
    # one must shrink ~16x when the sample step halves
    errors = []
    for dt in (0.1, 0.05):
        _, grid = time_grid(0.0, 1.0, dt)
        a = build_dressing_track(cfg.model, cfg.mu, grid)
        mid = len(grid) // 2
        errors.append(np.max(np.abs(a.omega_dot()[mid] - differentiate_samples(a.omega(), a.step)[mid])))
    ratio = errors[0] / errors[1]
    ok = gen_diff < 1e-7 and 12.0 <= ratio <= 20.0
    _report(
        "8 derivative oracle",
        ok,
        f"max |H_gen(analytic) - H_gen(fd)| = {gen_diff:.2e}; Richardson ratio {ratio:.1f}",
    )


def _residuals(runs):
    return {name: {r.name: r.max_residual for r in report.reports} for name, report in runs.items()}


def test_residuals_match_the_golden_file(shipped_runs):
    """A change that moves a residual on purpose rewrites the file, by running this module
    (`PYTHONPATH=src python tests/test_acceptance.py`), and says so."""
    golden, fresh = json.loads(GOLDEN.read_text(encoding="utf-8")), _residuals(shipped_runs)
    assert {s: list(c) for s, c in fresh.items()} == {s: list(c) for s, c in golden.items()}
    moved = [
        f"{name} {check}: {value:.3e} -> {fresh[name][check]:.3e}"
        for name, checks in golden.items()
        for check, value in checks.items()
        if not (abs(fresh[name][check] - value) <= GOLDEN_FLOOR
                or value / GOLDEN_FACTOR <= fresh[name][check] <= GOLDEN_FACTOR * value)
    ]
    assert not moved, moved


if __name__ == "__main__":
    runs = {name: run(load_scenario(name)) for name in SHIPPED_SCENARIOS}
    GOLDEN.write_text(json.dumps(_residuals(runs), indent=1) + "\n", encoding="utf-8")
