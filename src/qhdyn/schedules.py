"""Closed-form time schedules for Hamiltonian parameters and metric coefficients.

Every built-in kind is smooth with an analytic derivative, so exact-derivative
oracles are available wherever a time derivative of a scheduled quantity is
needed.  Every schedule must stay finite on the run interval, and metric
coefficients must also stay away from zero there.  `validate_bounded` and
`validate_nonvanishing` enforce that at configuration time from closed-form
bounds, one formula per kind, with no sampling: upper bounds on |value(t)|
(`magnitude_bound`) and |d value/dt| (`derivative_bound`), and a lower bound
on |value(t)| (`nonvanishing_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError

SCHEDULE_KINDS = ("constant", "linear-ramp", "exponential", "sinusoidal")

# a real ramp root this close to the run interval (relative to the size of its
# end points) counts as inside it: the ramp would round to zero there
_ROOT_SLACK = 1e-12

# smallest accepted |value|: below the normal range a coefficient has lost
# precision and may round to zero in products
_MIN_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ScheduleSpec:
    """One scheduled scalar: value(t) in closed form.

    kind        one of `SCHEDULE_KINDS`
    base        offset / prefactor (complex allowed; phases are physical)
    rate        slope for `linear-ramp`, exponent rate for `exponential`
    amplitude   relative amplitude for `sinusoidal`
    frequency   angular frequency for `sinusoidal`
    phase       phase offset for `sinusoidal`
    """

    kind: str
    base: complex = 1.0
    rate: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ScenarioError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )

    @property
    def is_static(self) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "linear-ramp":
            return self.rate == 0.0
        if self.kind == "exponential":
            return self.rate == 0.0 or self.base == 0.0
        return self.amplitude == 0.0 or self.frequency == 0.0


def eval_schedule(spec: ScheduleSpec, t: float | np.ndarray) -> complex | np.ndarray:
    """Scheduled value at time ``t`` (elementwise for an array of times)."""
    if spec.kind == "constant":
        return complex(spec.base)
    if spec.kind == "linear-ramp":
        return complex(spec.base) + spec.rate * t
    if spec.kind == "exponential":
        return complex(spec.base) * np.exp(spec.rate * t)
    # sinusoidal: base * (1 + a sin(w t + phase))
    return complex(spec.base) * (
        1.0 + spec.amplitude * np.sin(spec.frequency * t + spec.phase)
    )


def eval_schedule_derivative(spec: ScheduleSpec, t: float | np.ndarray) -> complex | np.ndarray:
    """Analytic time derivative of `eval_schedule` at ``t``."""
    if spec.kind == "constant":
        return 0.0 + 0.0j
    if spec.kind == "linear-ramp":
        return complex(spec.rate)
    if spec.kind == "exponential":
        return complex(spec.base) * spec.rate * np.exp(spec.rate * t)
    return (
        complex(spec.base)
        * spec.amplitude
        * spec.frequency
        * np.cos(spec.frequency * t + spec.phase)
    )


def nonvanishing_bound(spec: ScheduleSpec, t0: float, t1: float) -> float:
    """Closed-form lower bound on |value(t)| over [t0, t1].

    constant      |b|
    linear-ramp   |b + r t*| with t* the real root -Re b / r clipped to the
                  interval: |Im b| when the root lies inside (or within
                  `_ROOT_SLACK` of it), else the smaller end-point value
    exponential   |b| exp(min(r t0, r t1))
    sinusoidal    |b| (1 - |a|)
    """
    b = complex(spec.base)
    lo, hi = min(t0, t1), max(t0, t1)
    if spec.kind == "linear-ramp" and spec.rate != 0.0:
        t_root = -b.real / spec.rate
        slack = _ROOT_SLACK * max(1.0, abs(lo), abs(hi))
        if lo - slack <= t_root <= hi + slack:
            return abs(b.imag)
        return min(abs(b + spec.rate * lo), abs(b + spec.rate * hi))
    if spec.kind == "exponential":
        with np.errstate(over="ignore"):
            return abs(b) * float(np.exp(min(spec.rate * lo, spec.rate * hi)))
    if spec.kind == "sinusoidal":
        return abs(b) * (1.0 - abs(spec.amplitude))
    return abs(b)


def magnitude_bound(spec: ScheduleSpec, t0: float, t1: float) -> float:
    """Closed-form upper bound on |value(t)| over [t0, t1].

    constant      |b|
    linear-ramp   the larger end-point value max(|b + r t0|, |b + r t1|)
    exponential   |b| exp(max(r t0, r t1))
    sinusoidal    |b| (1 + |a|)

    An infinite result means the value can overflow on the interval.
    """
    b = complex(spec.base)
    with np.errstate(over="ignore"):  # np.abs: |b| itself may overflow to inf
        if spec.kind == "linear-ramp":
            return float(max(np.abs(b + spec.rate * t0), np.abs(b + spec.rate * t1)))
        size = float(np.abs(b))
        if spec.kind == "exponential":
            return size * float(np.exp(max(spec.rate * t0, spec.rate * t1)))
        if spec.kind == "sinusoidal":
            return size * (1.0 + abs(spec.amplitude))
        return size


def derivative_bound(spec: ScheduleSpec, t0: float, t1: float) -> float:
    """Closed-form upper bound on |d value/dt| over [t0, t1].

    constant      0
    linear-ramp   |r|
    exponential   |r| times `magnitude_bound`
    sinusoidal    |b| |a| |w|
    """
    if spec.kind == "linear-ramp":
        return abs(spec.rate)
    if spec.kind == "exponential":
        return abs(spec.rate) * magnitude_bound(spec, t0, t1)
    if spec.kind == "sinusoidal":
        with np.errstate(over="ignore"):
            return float(np.abs(complex(spec.base))) * abs(spec.amplitude * spec.frequency)
    return 0.0


def validate_bounded(spec: ScheduleSpec, t0: float, t1: float, label: str):
    """Reject schedules whose value or time derivative can overflow on [t0, t1].

    Every field must be finite, and so must `magnitude_bound` and
    `derivative_bound`.  Raises `ScenarioError` otherwise.
    """
    fields = (spec.base, spec.rate, spec.amplitude, spec.frequency, spec.phase)
    if not np.isfinite(fields).all():
        raise ScenarioError(f"{label}: schedule fields must be finite, got {spec}")
    value, rate = magnitude_bound(spec, t0, t1), derivative_bound(spec, t0, t1)
    if not (value < np.inf and rate < np.inf):
        raise ScenarioError(
            f"{label}: {spec.kind} schedule overflows on [{t0:g}, {t1:g}] (upper bound "
            f"on |value|: {value:.3g}, on |derivative|: {rate:.3g})"
        )


def validate_nonvanishing(spec: ScheduleSpec, t0: float, t1: float, label: str = "mu"):
    """Reject schedules that overflow, vanish or can vanish anywhere on [t0, t1].

    The schedule must pass `validate_bounded`, and the closed-form
    `nonvanishing_bound` must be at least the smallest normal double.  Raises
    `ScenarioError` otherwise.
    """
    validate_bounded(spec, t0, t1, label)
    if spec.kind == "sinusoidal" and abs(spec.amplitude) >= 1.0:
        raise ScenarioError(
            f"{label}: sinusoidal amplitude |a|={abs(spec.amplitude)} >= 1 "
            "allows the value to cross zero"
        )
    bound = nonvanishing_bound(spec, t0, t1)
    if not bound >= _MIN_NORMAL:
        raise ScenarioError(
            f"{label}: {spec.kind} schedule crosses zero or underflows on "
            f"[{t0:g}, {t1:g}] (lower bound on |value|: {bound:.3g})"
        )
