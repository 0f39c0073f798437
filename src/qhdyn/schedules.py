"""Closed-form time schedules for Hamiltonian parameters and metric coefficients.

Every built-in kind is smooth with an analytic derivative, so exact-derivative
oracles are available wherever a time derivative of a scheduled quantity is
needed.  Metric coefficients must stay away from zero on the whole run
interval; `validate_nonvanishing` enforces that at configuration time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError

SCHEDULE_KINDS = ("constant", "linear-ramp", "exponential", "sinusoidal")

# sample count for the zero-crossing backstop scan
_ZERO_SCAN_SAMPLES = 10_000


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
    def differentiable(self) -> bool:
        # all built-in kinds have closed-form derivatives
        return True

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


def validate_nonvanishing(spec: ScheduleSpec, t0: float, t1: float, label: str = "mu"):
    """Reject schedules that vanish (or can vanish) anywhere on [t0, t1].

    Kind-specific closed-form analysis first, then a dense sample scan as a
    backstop.  Raises `ScenarioError` on any possible zero crossing.
    """
    if spec.base == 0 and spec.kind != "linear-ramp":
        raise ScenarioError(f"{label}: schedule base is zero, value vanishes")
    if spec.kind == "sinusoidal" and abs(spec.amplitude) >= 1.0:
        raise ScenarioError(
            f"{label}: sinusoidal amplitude |a|={abs(spec.amplitude)} >= 1 "
            "allows the value to cross zero"
        )
    if spec.kind == "linear-ramp":
        b = complex(spec.base)
        if b.imag == 0.0 and spec.rate != 0.0:
            t_root = -b.real / spec.rate
            if min(t0, t1) - 1e-12 <= t_root <= max(t0, t1) + 1e-12:
                raise ScenarioError(
                    f"{label}: linear ramp crosses zero at t={t_root:g} inside the run interval"
                )
        if b == 0 and spec.rate == 0.0:
            raise ScenarioError(f"{label}: ramp is identically zero")

    ts = np.linspace(t0, t1, _ZERO_SCAN_SAMPLES)
    vals = np.array([eval_schedule(spec, t) for t in ts])
    if np.min(np.abs(vals)) == 0.0:
        raise ScenarioError(f"{label}: schedule evaluates to zero inside the run interval")
