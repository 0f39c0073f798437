"""The track of `triangular2` against its closed form (`reference.closed_form_track`).

tri_sin_drive drives c(t) = 1 + 0.7 sin 4t with e1 = 1 < e2 = 2 and
exponential mu.  Its ket 2 is (c, e2 - e1) / ||.||: both components are
positive at t0, so the pivot rule gives it sign +1, and continuity (a real,
positive overlap with the predecessor) keeps that sign for every t, because
the second component never changes sign.  The frame, the dressing map and the
metric are then exact to rounding; H_gen carries the 4th-order stencil error
of dOmega/dt, and the RK4 right ket converges to the exact one at 4th order.
"""

import numpy as np
import pytest

from qhdyn import build_dressing_track, propagate_quasi, time_grid
from qhdyn.dressing import build_generator, build_theta

from conftest import load_scenario
from reference import closed_form_track


@pytest.fixture(scope="module")
def runs():
    """(track, closed form, RK4 right kets) of tri_sin_drive at dt = 1e-3 and 5e-4."""
    result = {}
    for dt in (1e-3, 5e-4):
        config = load_scenario("tri_sin_drive", **{"time.dt": dt})
        _, fine = time_grid(config.t0, config.t1, config.dt)
        track = build_dressing_track(config.model, config.mu, fine)
        trajectory = propagate_quasi(track, config.initial_state, pictures=("right",))
        result[dt] = track, closed_form_track(config.model, config.mu, fine), trajectory.phi_right
    return result


def test_frame_metric_and_energies_are_exact(runs):
    track, form, _ = runs[1e-3]
    # the kets and bras pin the sign rule of the module docstring
    assert np.max(np.abs(track.kets - form.kets)) <= 1e-14
    assert np.max(np.abs(track.bras - form.bras)) <= 1e-14
    assert np.max(np.abs(track.energies - form.energies)) <= 1e-14
    assert np.max(np.abs(track.omega() - form.omega)) <= 1e-14
    assert np.max(np.abs(build_theta(track.omega()) - form.theta)) <= 1e-14


def test_generator_carries_the_stencil_error(runs):
    errors = []
    for dt in (1e-3, 5e-4):
        track, form, _ = runs[dt]
        generator = build_generator(track.hamiltonian(), track.omega_dot(), track.omega_inv())
        errors.append(np.max(np.abs(generator - form.generator)))
    # 4.2e-11 (at the one-sided end stencils) -> 3.3e-12, a ratio of 12.8:
    # fourth order with a share of rounding; a third-order error falls by 8
    assert errors[0] <= 1e-10 and errors[0] / errors[1] >= 10.0


def test_rk4_right_ket_converges_at_fourth_order(runs):
    errors = []
    for dt in (1e-3, 5e-4):
        _, form, phi_right = runs[dt]
        exact = form.right_ket(phi_right[0])[::2]  # the reporting grid is every second fine point
        errors.append(np.max(np.abs(phi_right - exact)))
    # 5.7e-13 -> 3.9e-14, a ratio of 14.8
    assert 12.0 <= errors[0] / errors[1] <= 20.0
