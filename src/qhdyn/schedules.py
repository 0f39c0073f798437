"""Closed-form time schedules for Hamiltonian parameters and metric coefficients.

Every built-in kind is smooth with an analytic derivative, so exact-derivative
oracles are available wherever a time derivative of a scheduled quantity is
needed.  `KIND_FIELDS` lists the fields each kind reads; every field of a
schedule is a finite number, and one its kind does not read is zero
(`ScheduleSpec` rejects any other).  Every schedule must stay finite on the
run interval, and metric coefficients must also stay away from zero there.
`validate_bounded` and `validate_nonvanishing` enforce that at configuration
time, with no sampling, from the one closed-form dispatch over the kinds,
`schedule_bounds`: a lower and an upper bound on |value(t)| and an upper bound
on |d value/dt|; and `validate_resolved` rejects a sinusoid the reporting grid
cannot sample.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError

# each kind and the fields it reads, in the order a document's keys are read
KIND_FIELDS = {"constant": ("base",), "linear-ramp": ("base", "rate"), "exponential": ("base", "rate"),
               "sinusoidal": ("base", "amplitude", "frequency", "phase")}
SCHEDULE_KINDS = tuple(KIND_FIELDS)

# a real ramp root this close to the run interval (relative to the size of its
# end points) counts as inside it: the ramp would round to zero there
_ROOT_SLACK = 1e-12

# smallest accepted |value|: below the normal range a coefficient has lost
# precision and may round to zero in products
_MIN_NORMAL = float(np.finfo(float).tiny)


def finite_number(value, real: bool = False) -> bool:
    """True for a finite int or float, or complex unless ``real`` (numpy's too); never a str or bool."""
    kinds = (int, float, np.integer, np.floating) + (() if real else (complex, np.complexfloating))
    big = sys.float_info.max  # a Python float: an int is compared exactly, never converted
    kind = isinstance(value, kinds) and not isinstance(value, bool)
    value = value.item() if isinstance(value, np.generic) else value  # big overflows a float32
    return kind and abs(value.real) <= big and abs(value.imag) <= big


@dataclass(frozen=True)
class ScheduleSpec:
    """One scheduled scalar: value(t) in closed form.

    kind        one of `SCHEDULE_KINDS`
    base        offset / prefactor (complex allowed; phases are physical)
    rate        slope for `linear-ramp`, exponent rate for `exponential`
    amplitude   relative amplitude for `sinusoidal`
    frequency   angular frequency for `sinusoidal`
    phase       phase offset for `sinusoidal`

    Every field must be a finite number (`finite_number`), real but for base,
    and zero unless its kind reads it (`KIND_FIELDS`).
    """

    kind: str
    base: complex = 1.0
    rate: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ScenarioError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        reals = {f: getattr(self, f) for f in ("rate", "amplitude", "frequency", "phase")}
        if not finite_number(self.base) or not all(finite_number(v, real=True) for v in reals.values()):
            raise ScenarioError(f"schedule fields must be finite numbers (all but base real), got {self}")
        if unread := [f for f, v in reals.items() if v and f not in KIND_FIELDS[self.kind]]:
            raise ScenarioError(f"a {self.kind} schedule reads no {unread}; it takes {list(KIND_FIELDS[self.kind])}")


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


def schedule_bounds(spec: ScheduleSpec, t0: float, t1: float) -> tuple[float, float, float]:
    """Closed-form bounds (lower, upper, slope) over [t0, t1], with
    lower <= |value(t)| <= upper and |d value/dt| <= slope.

    constant      |b|, |b|, 0
    linear-ramp   |b + r t*| with t* the real root -Re b / r clipped to the
                  interval (|Im b| when the root lies inside, or within
                  `_ROOT_SLACK` of it, else the smaller end-point value);
                  the larger end-point value; |r|
    exponential   |b| exp(min(r t0, r t1)), |b| exp(max(r t0, r t1)),
                  |r| times the upper bound
    sinusoidal    |b| (1 - |a|), |b| (1 + |a|), |b| |a| |w|

    An infinite upper bound or slope means the value or its derivative can
    overflow on the interval.
    """
    b = complex(spec.base)
    lo, hi = min(t0, t1), max(t0, t1)
    with np.errstate(over="ignore"):  # np.abs: |b| itself may overflow to inf
        size = float(np.abs(b))
        if spec.kind == "linear-ramp":
            ends = float(np.abs(b + spec.rate * lo)), float(np.abs(b + spec.rate * hi))
            lower = min(ends)
            if spec.rate != 0.0:
                t_root = -b.real / spec.rate
                slack = _ROOT_SLACK * max(1.0, abs(lo), abs(hi))
                if lo - slack <= t_root <= hi + slack:
                    lower = abs(b.imag)
            return lower, max(ends), abs(spec.rate)
        if spec.kind == "exponential":
            lower, upper = (size * float(np.exp(e)) for e in sorted((spec.rate * lo, spec.rate * hi)))
            return lower, upper, abs(spec.rate) * upper
        if spec.kind == "sinusoidal":
            a = abs(spec.amplitude)
            return size * (1.0 - a), size * (1.0 + a), size * abs(spec.amplitude * spec.frequency)
        return size, size, 0.0


def validate_bounded(spec: ScheduleSpec, t0: float, t1: float, label: str) -> float:
    """Reject schedules whose value or time derivative can overflow on [t0, t1],
    and return the lower bound on |value(t)| there.

    The upper bound and the slope of `schedule_bounds` must be finite (its
    fields are, by construction).  Raises `ScenarioError` otherwise.
    """
    lower, value, rate = schedule_bounds(spec, t0, t1)
    if not (value < np.inf and rate < np.inf):
        raise ScenarioError(
            f"{label}: {spec.kind} schedule overflows on [{t0:g}, {t1:g}] (upper bound "
            f"on |value|: {value:.3g}, on |derivative|: {rate:.3g})"
        )
    return lower


def validate_nonvanishing(spec: ScheduleSpec, t0: float, t1: float, label: str = "mu"):
    """Reject schedules that overflow, vanish or can vanish anywhere on [t0, t1].

    The schedule must pass `validate_bounded`, and the lower bound it returns
    must be at least the smallest normal double.  Raises `ScenarioError`
    otherwise.
    """
    bound = validate_bounded(spec, t0, t1, label)
    if spec.kind == "sinusoidal" and abs(spec.amplitude) >= 1.0:
        raise ScenarioError(
            f"{label}: sinusoidal amplitude |a|={abs(spec.amplitude)} >= 1 "
            "allows the value to cross zero"
        )
    if not bound >= _MIN_NORMAL:
        raise ScenarioError(
            f"{label}: {spec.kind} schedule crosses zero or underflows on "
            f"[{t0:g}, {t1:g}] (lower bound on |value|: {bound:.3g})"
        )


def validate_resolved(spec: ScheduleSpec, dt: float, label: str):
    """Reject a moving sinusoid that a grid of spacing ``dt`` samples at or below its Nyquist
    rate, |frequency| dt >= pi: the frame and the RK4 steps would follow an aliased schedule."""
    if spec.kind == "sinusoidal" and spec.amplitude != 0.0 and abs(spec.frequency) * dt >= np.pi:
        raise ScenarioError(
            f"{label}: sinusoidal frequency is not resolved by the reporting grid "
            f"(|frequency| * dt = {abs(spec.frequency) * dt:.6g} >= pi)"
        )
