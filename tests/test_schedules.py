import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qhdyn import ScenarioError, ScheduleSpec
from qhdyn.scenario import _parse_schedule
from qhdyn.schedules import (
    KIND_FIELDS,
    SCHEDULE_KINDS,
    eval_schedule,
    eval_schedule_derivative,
    schedule_bounds,
    validate_bounded,
    validate_nonvanishing,
    validate_resolved,
)

ALL_KINDS = [
    ScheduleSpec("constant", base=1.7),
    ScheduleSpec("linear-ramp", base=0.4, rate=-0.9),
    ScheduleSpec("exponential", base=1.0, rate=0.3),
    ScheduleSpec("exponential", base=2.0 - 0.5j, rate=-0.7),
    ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=2.0, phase=0.3),
]


def test_constant_value():
    assert eval_schedule(ScheduleSpec("constant", base=1.0), 5.0) == 1.0


def test_exponential_closed_form():
    value = eval_schedule(ScheduleSpec("exponential", base=1.0, rate=0.3), 1.0)
    assert value == pytest.approx(np.exp(0.3), abs=1e-12)
    assert abs(value - 1.349859) < 1e-6


def test_sinusoidal_closed_form():
    spec = ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=2.0, phase=0.0)
    assert eval_schedule(spec, np.pi / 4) == pytest.approx(1.5, abs=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ScenarioError, match="unknown schedule kind"):
        ScheduleSpec("quadratic")


def test_constant_derivative_zero():
    assert eval_schedule_derivative(ScheduleSpec("constant", base=3.3), 2.0) == 0.0


def test_exponential_derivative_at_zero():
    spec = ScheduleSpec("exponential", base=1.0, rate=0.3)
    assert eval_schedule_derivative(spec, 0.0) == pytest.approx(0.3, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_KINDS)
@pytest.mark.parametrize("t", [-0.7, 0.0, 0.9, 2.4])
def test_derivative_matches_central_difference(spec, t):
    h = 1e-6
    fd = (eval_schedule(spec, t + h) - eval_schedule(spec, t - h)) / (2 * h)
    exact = eval_schedule_derivative(spec, t)
    assert abs(exact - fd) < 1e-8 * (1.0 + abs(eval_schedule(spec, t)))


def test_nonvanishing_accepts_safe_schedules():
    for spec in ALL_KINDS[:1] + ALL_KINDS[2:]:
        validate_nonvanishing(spec, 0.0, 1.0)


def test_sinusoidal_unit_amplitude_rejected():
    spec = ScheduleSpec("sinusoidal", base=1.0, amplitude=1.0, frequency=2.0)
    with pytest.raises(ScenarioError, match="cross zero"):
        validate_nonvanishing(spec, 0.0, 1.0)


def test_ramp_through_zero_rejected():
    spec = ScheduleSpec("linear-ramp", base=0.4, rate=-0.9)
    with pytest.raises(ScenarioError, match="crosses zero"):
        validate_nonvanishing(spec, 0.0, 1.0)


def test_zero_base_rejected():
    with pytest.raises(ScenarioError, match="zero"):
        validate_nonvanishing(ScheduleSpec("constant", base=0.0), 0.0, 1.0)


def test_dense_scan_covers_interval():
    # stays nonzero on [0, 1] but dips through zero later; only the run
    # interval matters
    spec = ScheduleSpec("linear-ramp", base=1.0, rate=-0.5)
    validate_nonvanishing(spec, 0.0, 1.0)
    with pytest.raises(ScenarioError):
        validate_nonvanishing(spec, 0.0, 3.0)


# every schedule that passes validation on [0, 1]; the crossing ramp from
# ALL_KINDS is the designated negative case and is replaced here
SAFE_ON_UNIT_INTERVAL = ALL_KINDS[:1] + [ScheduleSpec("linear-ramp", base=1.0, rate=-0.5)] + ALL_KINDS[2:]


@pytest.mark.parametrize("spec", SAFE_ON_UNIT_INTERVAL)
def test_nonzero_at_ten_thousand_samples(spec):
    validate_nonvanishing(spec, 0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 10_000)
    values = np.array([eval_schedule(spec, t) for t in ts])
    assert np.min(np.abs(values)) > 0.0


def test_exponential_underflow_rejected():
    # exp(-1000) underflows to 0.0: the coefficient vanishes in double precision
    with pytest.raises(ScenarioError, match="underflows"):
        validate_nonvanishing(ScheduleSpec("exponential", base=1.0, rate=-1000.0), 0.0, 1.0)


@pytest.mark.parametrize(
    "spec",
    [
        ScheduleSpec("linear-ramp", base=1e-13, rate=1.0),  # root at t = -1e-13
        ScheduleSpec("linear-ramp", base=-(1.0 + 1e-13), rate=1.0),  # root just past t = 1
    ],
)
def test_ramp_root_just_outside_interval_rejected(spec):
    with pytest.raises(ScenarioError, match="crosses zero"):
        validate_nonvanishing(spec, 0.0, 1.0)


def test_complex_ramp_with_real_axis_root_accepted():
    # Re(mu) vanishes at t = 0.5, but |mu| >= |Im base| = 0.2 throughout
    spec = ScheduleSpec("linear-ramp", base=0.5 + 0.2j, rate=-1.0)
    validate_nonvanishing(spec, 0.0, 1.0)
    assert schedule_bounds(spec, 0.0, 1.0)[0] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("field", ["base", "rate", "amplitude", "frequency", "phase"])
@pytest.mark.parametrize("value", [np.nan, np.inf, "0.5", True])
def test_non_finite_field_rejected(field, value):
    # at construction, so no schedule that reaches the bounds has one
    with pytest.raises(ScenarioError, match="finite"):
        ScheduleSpec("sinusoidal", **{"base": 1.0, "amplitude": 0.5, field: value})


@pytest.mark.parametrize("field", ["rate", "amplitude", "frequency", "phase"])
def test_only_the_base_may_be_complex(field):
    # a document reads these as reals; a complex rate once reached the bounds and raised TypeError
    with pytest.raises(ScenarioError, match="all but base real"):
        ScheduleSpec("sinusoidal", **{"base": 1.0, field: 0.5j})
    kind = "exponential" if field == "rate" else "sinusoidal"  # a kind that reads the field
    assert ScheduleSpec(kind, base=1.0 + 0.5j, **{field: 0.5}).base == 1.0 + 0.5j


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("field", ["rate", "amplitude", "frequency", "phase"])
def test_a_nonzero_field_the_kind_does_not_read_is_rejected(kind, field):
    # the Python API and a document refuse the same fields; a zero one is the API's default, and accepted
    if field in KIND_FIELDS[kind]:
        assert _parse_schedule({"kind": kind, field: 0.3}, "s") == ScheduleSpec(kind, **{field: 0.3})
    else:
        with pytest.raises(ScenarioError, match=f"^a {kind} schedule reads no \\['{field}'\\]; it takes "):
            ScheduleSpec(kind, **{field: 0.3})
        with pytest.raises(ScenarioError, match=f"^unknown s keys: \\['{field}'\\]; {kind} takes "):
            _parse_schedule({"kind": kind, field: 0.3}, "s")
        assert getattr(ScheduleSpec(kind, **{field: 0.0}), field) == 0.0


_reals = st.floats(-10.0, 10.0)
_bases = st.one_of(_reals, st.builds(complex, _reals, _reals))
_schedules = st.one_of(
    st.builds(ScheduleSpec, st.just("constant"), base=_bases),
    st.builds(ScheduleSpec, st.just("linear-ramp"), base=_bases, rate=st.floats(-20.0, 20.0)),
    st.builds(ScheduleSpec, st.just("exponential"), base=_bases, rate=st.floats(-2000.0, 2000.0)),
    st.builds(
        ScheduleSpec,
        st.just("sinusoidal"),
        base=_bases,
        amplitude=st.floats(-1.2, 1.2),
        frequency=st.floats(-50.0, 50.0),
        phase=st.floats(-7.0, 7.0),
    ),
)


@given(spec=_schedules, t0=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0))
@example(spec=ScheduleSpec("linear-ramp", base=0.5, rate=-1.0), t0=0.0, width=1.0)
@example(spec=ScheduleSpec("exponential", base=1.0, rate=-1000.0), t0=0.0, width=1.0)
@example(spec=ScheduleSpec("exponential", base=1e-300, rate=-20.0), t0=0.0, width=1.0)
@example(spec=ScheduleSpec("sinusoidal", base=1.0, amplitude=1.0, frequency=np.pi, phase=0.0), t0=0.0, width=1.5)
def test_validator_agrees_with_dense_scan(spec, t0, width):
    """The closed-form test is at least as strict as a 10 001-point scan."""
    t1 = t0 + width
    with np.errstate(all="ignore"):
        scan = np.abs(np.broadcast_to(eval_schedule(spec, np.linspace(t0, t1, 10_001)), (10_001,)))
    try:
        validate_nonvanishing(spec, t0, t1)
    except ScenarioError:
        return
    bound = schedule_bounds(spec, t0, t1)[0]
    assert np.all(scan > 0.0)  # so every scan that hits an exact 0.0 was rejected
    # the bound is exact at the minimiser for every kind; allow for rounding
    assert np.min(scan) >= bound * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "spec, message",
    [
        (ScheduleSpec("exponential", base=1.0, rate=1000.0), "overflows"),  # exp(1000) = inf
        (ScheduleSpec("linear-ramp", base=1.0, rate=1e308), "overflows"),  # 1 + 1e308 * 2 = inf
        (ScheduleSpec("sinusoidal", base=1e308, amplitude=0.9, frequency=1.0), "overflows"),
        (ScheduleSpec("exponential", base=1e300, rate=-1e10), r"on \|derivative\|: inf"),
        (ScheduleSpec("sinusoidal", base=1e300, amplitude=0.5, frequency=1e10), r"on \|derivative\|: inf"),
    ],
)
def test_overflowing_schedule_rejected(spec, message):
    with pytest.raises(ScenarioError, match=message):
        validate_bounded(spec, 0.0, 2.0, "model.h_schedule.c")


@pytest.mark.parametrize("frequency", [np.pi / 1e-3, -np.pi / 1e-3, 1e300])
def test_a_sinusoid_at_or_above_the_nyquist_rate_is_rejected(frequency):
    spec = ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=frequency)
    with pytest.raises(ScenarioError, match=r"^mu\[1\]: sinusoidal frequency is not resolved .* >= pi\)$"):
        validate_resolved(spec, 1e-3, "mu[1]")


@pytest.mark.parametrize(
    "spec",
    [
        ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=np.nextafter(np.pi / 1e-3, 0.0)),
        ScheduleSpec("sinusoidal", base=1.0, amplitude=0.0, frequency=1e300),  # a constant
        ScheduleSpec("exponential", base=1.0, rate=1e4),  # the bound is for sinusoids only
    ],
)
def test_a_resolved_or_static_schedule_passes(spec):
    validate_resolved(spec, 1e-3, "mu[1]")


def test_upper_bounds_per_kind():
    def upper(spec, t0, t1):
        return schedule_bounds(spec, t0, t1)[1]

    def slope(spec, t0, t1):
        return schedule_bounds(spec, t0, t1)[2]

    assert upper(ScheduleSpec("constant", base=-3.0 + 4.0j), 0.0, 1.0) == 5.0
    assert upper(ScheduleSpec("linear-ramp", base=1.0, rate=-3.0), 0.0, 1.0) == 2.0
    assert upper(ScheduleSpec("exponential", base=2.0, rate=-1.0), -1.0, 1.0) == 2.0 * np.exp(1.0)
    assert upper(ScheduleSpec("sinusoidal", base=2.0, amplitude=-0.5), 0.0, 1.0) == 3.0
    assert slope(ScheduleSpec("exponential", base=2.0, rate=-1.0), -1.0, 1.0) == 2.0 * np.exp(1.0)
    assert slope(ScheduleSpec("sinusoidal", base=2.0, amplitude=-0.5, frequency=3.0), 0.0, 1.0) == 3.0


@given(spec=_schedules, t0=st.floats(-5.0, 5.0), width=st.floats(1e-3, 10.0))
@example(spec=ScheduleSpec("exponential", base=1.0, rate=1000.0), t0=0.0, width=1.0)
@example(spec=ScheduleSpec("exponential", base=1.0, rate=-1000.0), t0=-1.0, width=1.0)
def test_upper_bounds_agree_with_dense_scan(spec, t0, width):
    """Accepted schedules stay finite, and below both bounds, on a 10 001-point scan."""
    t1 = t0 + width
    ts = np.linspace(t0, t1, 10_001)
    with np.errstate(all="ignore"):
        values = np.abs(np.broadcast_to(eval_schedule(spec, ts), ts.shape))
        rates = np.abs(np.broadcast_to(eval_schedule_derivative(spec, ts), ts.shape))
    try:
        validate_bounded(spec, t0, t1, "c")
    except ScenarioError:
        return
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(rates))
    _, upper, slope = schedule_bounds(spec, t0, t1)
    assert np.max(values) <= upper * (1.0 + 1e-12)
    assert np.max(rates) <= slope * (1.0 + 1e-12)
