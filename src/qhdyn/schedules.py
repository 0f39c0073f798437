"""Closed-form time schedules for Hamiltonian parameters and metric coefficients.

Every built-in kind is smooth with an analytic derivative, so exact-derivative
oracles are available wherever a time derivative of a scheduled quantity is
needed.  Metric coefficients must stay away from zero on the whole run
interval; `validate_nonvanishing` enforces that at configuration time from a
closed-form lower bound on |value(t)| (`nonvanishing_bound`), one formula per
kind, with no sampling.
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


def constant(value: complex) -> ScheduleSpec:
    return ScheduleSpec(kind="constant", base=value)


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


def validate_nonvanishing(spec: ScheduleSpec, t0: float, t1: float, label: str = "mu"):
    """Reject schedules that vanish (or can vanish) anywhere on [t0, t1].

    Every field must be finite, and the closed-form `nonvanishing_bound` must
    be finite and at least the smallest normal double.  Raises `ScenarioError`
    otherwise.
    """
    fields = (spec.base, spec.rate, spec.amplitude, spec.frequency, spec.phase)
    if not np.isfinite(fields).all():
        raise ScenarioError(f"{label}: schedule fields must be finite, got {spec}")
    if spec.kind == "sinusoidal" and abs(spec.amplitude) >= 1.0:
        raise ScenarioError(
            f"{label}: sinusoidal amplitude |a|={abs(spec.amplitude)} >= 1 "
            "allows the value to cross zero"
        )
    bound = nonvanishing_bound(spec, t0, t1)
    if not _MIN_NORMAL <= bound < np.inf:
        raise ScenarioError(
            f"{label}: {spec.kind} schedule crosses zero, underflows or overflows on "
            f"[{t0:g}, {t1:g}] (lower bound on |value|: {bound:.3g})"
        )
