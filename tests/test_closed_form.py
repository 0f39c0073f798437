"""Tracks against their closed forms (`reference.closed_form_track`).

tri_sin_drive (`triangular2`) drives c(t) = 1 + 0.7 sin 4t with e1 = 1 < e2 = 2
and exponential mu.  Its ket 2 is (c, e2 - e1) / ||.||: both components are
positive at t0, so the pivot rule gives it sign +1, and continuity (a real,
positive overlap with the predecessor) keeps that sign for every t, because
the second component never changes sign.

pt2_gamma_ramp (`pt2`) ramps gamma(t) = 0.8 t below s = 1 with constant mu.
Its kets (s, E - i gamma) / (sqrt(2) s) have two components of equal
magnitude, so at t0 the tracker's pivot is component 0.  The tracker's
continuity rule then makes each overlap with the predecessor real and
positive: every ket turns by the product of conj(o) / |o| over the
consecutive overlaps o of the closed-form frames, which is exp(i theta(t))
with theta = E/|E| arcsin(gamma / s) / 2.

In both, the frame, the dressing map and the metric are then exact to
rounding; H_gen carries the 4th-order stencil error of dOmega/dt, and the RK4
right and left kets converge to the exact ones at 4th order.
"""

import numpy as np
import pytest

from qhdyn import build_dressing_track, propagate_quasi, time_grid
from qhdyn.dressing import build_generator, build_theta

from conftest import load_scenario
from reference import closed_form_track


def _runs(name):
    """(track, closed form, RK4 trajectory of both pictures) of the scenario at dt = 1e-3 and 5e-4."""
    result = {}
    for dt in (1e-3, 5e-4):
        config = load_scenario(name, **{"time.dt": dt})
        _, fine = time_grid(config.t0, config.t1, config.dt)
        track = build_dressing_track(config.model, config.mu, fine)
        trajectory = propagate_quasi(track, config.initial_state, pictures=("right", "left"))
        result[dt] = track, closed_form_track(config.model, config.mu, fine), trajectory
    return result


@pytest.fixture(scope="module")
def runs():
    return _runs("tri_sin_drive")


@pytest.fixture(scope="module")
def pt2_runs():
    return _runs("pt2_gamma_ramp")


def _frame_errors(runs) -> list[float]:
    """Max errors of the kets, bras, energies, Omega and Theta at dt = 1e-3."""
    track, form, _ = runs[1e-3]
    pairs = [(track.kets, form.kets), (track.bras, form.bras), (track.energies, form.energies),
             (track.omega(), form.omega), (build_theta(track.omega()), form.theta)]
    return [np.max(np.abs(got - exact)) for got, exact in pairs]


def _generator_errors(runs) -> list[float]:
    errors = []
    for dt in (1e-3, 5e-4):
        track, form, _ = runs[dt]
        generator = build_generator(track.hamiltonian(), track.omega_dot(), track.omega_inv())
        errors.append(np.max(np.abs(generator - form.generator)))
    return errors


def _ket_errors(runs, picture) -> list[float]:
    """Max errors of the RK4 right or left kets against Phi_R(t) or Phi_L(t) = Theta(t) Phi_R(t)."""
    errors = []
    for dt in (1e-3, 5e-4):
        _, form, trajectory = runs[dt]
        exact = form.right_ket(trajectory.phi_right[0])[::2]  # the reporting grid is every second fine point
        if picture == "left":
            exact = (form.theta[::2] @ exact[..., None])[..., 0]
        errors.append(np.max(np.abs(getattr(trajectory, f"phi_{picture}") - exact)))
    return errors


def test_frame_metric_and_energies_are_exact(runs):
    # the kets and bras pin the sign rule of the module docstring
    assert max(_frame_errors(runs)) <= 1e-14


def test_generator_carries_the_stencil_error(runs):
    errors = _generator_errors(runs)
    # 4.2e-11 (at the one-sided end stencils) -> 2.5e-12, a ratio of 16.6:
    # fourth order; a third-order error falls by 8
    assert errors[0] <= 1e-10 and errors[0] / errors[1] >= 10.0


def test_rk4_right_ket_converges_at_fourth_order(runs):
    errors = _ket_errors(runs, "right")
    # 5.7e-13 -> 3.7e-14, a ratio of 15.6
    assert 12.0 <= errors[0] / errors[1] <= 20.0


@pytest.mark.parametrize("scenario", ["runs", "pt2_runs"], ids=["tri_sin_drive", "pt2_gamma_ramp"])
def test_rk4_left_ket_converges_at_fourth_order(scenario, request):
    # integrated by its own equation, with the adjoint generator, against Theta(t) Phi_R(t):
    # 7.6e-13 -> 5.0e-14 (a ratio of 15.2) and 1.7e-11 -> 1.1e-12 (15.7)
    errors = _ket_errors(request.getfixturevalue(scenario), "left")
    assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_pt2_frame_metric_and_energies_are_exact(pt2_runs):
    # the kets and bras pin the pivot and continuity rules of the module docstring
    assert max(_frame_errors(pt2_runs)) <= 1e-13
    # the composed phases are exp(i theta): component 0 of each ket is exp(i theta) / sqrt(2)
    track, form, _ = pt2_runs[1e-3]
    theta = 0.5 * np.sign(form.energies) * np.arcsin(0.8 * track.times)[:, None]  # gamma = 0.8 t, s = 1
    np.testing.assert_allclose(form.kets[:, 0] * np.sqrt(2.0), np.exp(1j * theta), rtol=0.0, atol=1e-14)


def test_pt2_generator_carries_the_stencil_error(pt2_runs):
    errors = _generator_errors(pt2_runs)
    # 1.9e-10 -> 1.4e-11, a ratio of 13.9
    assert errors[0] <= 1e-9 and errors[0] / errors[1] >= 10.0


def test_pt2_rk4_right_ket_converges_at_fourth_order(pt2_runs):
    errors = _ket_errors(pt2_runs, "right")
    # 9.6e-13 -> 5.8e-14, a ratio of 16.6
    assert 12.0 <= errors[0] / errors[1] <= 20.0
