"""Built-in Hamiltonian families, observables, and their time dependence.

Four families are provided:

``triangular2``
    [[e1, c(t)], [0, e2]] -- upper triangular, eigenvalues {e1, e2} for any c.
``pt2``
    [[i*gamma(t), s], [s, -i*gamma(t)]] -- parity-time symmetric two-level
    matrix; spectrum +-sqrt(s^2 - gamma^2) is real while |gamma| < s and
    coalesces at |gamma| = s.
``similarity-rand``
    S diag(E_1..E_N) S^-1 with a fixed seeded invertible S (condition number
    kept below 1e3 by resampling) and a prescribed real diagonal.
``cubic-trunc``
    N x N truncation of p^2 + i g x^3 in the harmonic-oscillator basis
    (omega = 1 convention, x = (a + a')/sqrt(2), p = i(a' - a)/sqrt(2)).
    Matrix elements are the exact infinite-basis ones restricted to the
    first N levels; spectral reality of the truncation is reported by the
    eigensolver at run time, never assumed.  The matrix is real in the
    phase gauge diag(i^n) (see `real_gauge`).

The family constraints (pt2: s > 0 and |gamma| < s; cubic-trunc: g > 0) are
checked at the start of the run, ``t0``; the eigensolver's guards take over
from there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ScenarioError
from .schedules import ScheduleSpec, eval_schedule

FAMILIES = ("triangular2", "pt2", "similarity-rand", "cubic-trunc")

OBSERVABLE_SOURCES = ("hamiltonian-itself", "user-matrix", "function-of-frame")

# resampling bound for the random similarity transform
_MAX_SIMILARITY_COND = 1e3

# tolerance for parameters that must be real-valued
_REAL_PARAM_TOL = 1e-12


@dataclass(frozen=True)
class ObservableSpec:
    """A declared observable A_j(t).

    source selects the construction:
      hamiltonian-itself   A(t) = H(t)
      user-matrix          A(t) = data (fixed complex N x N matrix)
      function-of-frame    A(t) = Omega^-1(t) . data . Omega(t) with a
                           Hermitian seed ``data`` (quasi-Hermitian w.r.t.
                           Theta(t) by construction)
    """

    name: str
    source: str
    data: np.ndarray | None = None

    def __post_init__(self):
        if self.source not in OBSERVABLE_SOURCES:
            raise ScenarioError(
                f"observable {self.name!r}: unknown source {self.source!r}; "
                f"expected one of {OBSERVABLE_SOURCES}"
            )
        if self.source == "hamiltonian-itself":
            return
        if self.data is None:
            raise ScenarioError(f"observable {self.name!r}: source {self.source!r} needs a matrix")
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ScenarioError(f"observable {self.name!r}: matrix must be square")
        if self.source == "function-of-frame":
            if np.max(np.abs(data - data.conj().T)) > 1e-12:
                raise ScenarioError(
                    f"observable {self.name!r}: function-of-frame seed must be Hermitian"
                )
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class HamiltonianModel:
    """A parametrized family producing H(t) plus declared observables.

    params holds named scalars (and, for similarity-rand, the energy list and
    seed); h_schedule attaches a time dependence to any scalar parameter.
    t0 is the start of the run, where the family constraints are checked.
    """

    dimension: int
    family: str
    params: Mapping[str, object] = field(default_factory=dict)
    h_schedule: Mapping[str, ScheduleSpec] = field(default_factory=dict)
    a_observables: tuple[ObservableSpec, ...] = ()
    t0: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"unknown family tag {self.family!r}; expected one of {FAMILIES}")
        if int(self.dimension) != self.dimension or self.dimension < 2:
            raise ScenarioError(f"dimension must be an integer >= 2, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "h_schedule", dict(self.h_schedule))
        object.__setattr__(self, "a_observables", tuple(self.a_observables))
        for key in self.h_schedule:
            if key not in self.params:
                raise ScenarioError(f"schedule refers to unknown parameter {key!r}")
        n = self.dimension
        for obs in self.a_observables:
            if obs.source != "hamiltonian-itself" and obs.data.shape != (n, n):
                raise ScenarioError(
                    f"observable {obs.name!r}: matrix must be {n}x{n}, got shape {obs.data.shape}"
                )
        _validate_family(self)

    @property
    def is_time_dependent(self) -> bool:
        """True when some parameter genuinely varies in time."""
        return any(not s.is_static for s in self.h_schedule.values())

    def param(self, name: str, t: float | np.ndarray) -> complex | np.ndarray:
        """Parameter value at time ``t`` (schedule applied when attached;
        elementwise for an array of times, a scalar when unscheduled)."""
        if name in self.h_schedule:
            return eval_schedule(self.h_schedule[name], t)
        if name not in self.params:
            raise ScenarioError(f"family {self.family!r} needs parameter {name!r}")
        try:
            return complex(self.params[name])
        except TypeError:
            raise ScenarioError(
                f"parameter {name!r} of family {self.family!r} must be a number, "
                f"got {self.params[name]!r}"
            ) from None

    def real_param(self, name: str, t: float | np.ndarray) -> float | np.ndarray:
        value = self.param(name, t)
        bad = np.abs(np.imag(value)) > _REAL_PARAM_TOL * (1.0 + np.abs(value))
        if np.any(bad):
            offending = np.ravel(value)[np.argmax(np.ravel(bad))]
            raise ScenarioError(
                f"parameter {name!r} of family {self.family!r} must be real, got {offending}"
            )
        return np.real(value)


def build_hamiltonian(model: HamiltonianModel, t: float | np.ndarray) -> np.ndarray:
    """Complex N x N matrix H(t) for the model family; for an (M,) array of
    times, the (M, N, N) stack of H at each of them."""
    n = model.dimension
    shape = np.shape(t) + (n, n)
    if model.family == "triangular2":
        h = np.zeros(shape, dtype=complex)
        h[..., 0, 0] = model.real_param("e1", t)
        h[..., 0, 1] = model.param("c", t)
        h[..., 1, 1] = model.real_param("e2", t)
        return h
    if model.family == "pt2":
        gamma = model.real_param("gamma", t)
        s = model.real_param("s", t)
        h = np.empty(shape, dtype=complex)
        h[..., 0, 0] = 1j * gamma
        h[..., 0, 1] = s
        h[..., 1, 0] = s
        h[..., 1, 1] = -1j * gamma
        return h
    if model.family == "similarity-rand":
        energies = _similarity_energies(model)
        s_mat, s_inv = _similarity_matrix(n, int(model.params.get("seed", 0)))
        return np.broadcast_to((s_mat * energies) @ s_inv, shape).copy()
    # cubic-trunc
    g = np.broadcast_to(model.real_param("g", t), np.shape(t))
    p2, x3 = _oscillator_blocks(n)
    h = 1j * g[..., None, None] * x3
    h += p2  # in place: no second stack the size of the output
    return h


def real_gauge(model: HamiltonianModel) -> np.ndarray | None:
    """Diagonal phases d under which every H(t) of the model is real, or None.

    For cubic-trunc, d_n = i^n: conj(d_m) H_mn d_n = i^(n-m) H_mn multiplies
    the real p^2 entries (n - m even) by +-1 and the imaginary i g x^3
    entries (n - m odd) by +-i.  The phases are exact, so the gauged matrix
    has an imaginary part of exactly zero.  Every other family has None.
    """
    if model.family != "cubic-trunc":
        return None
    return np.array([1, 1j, -1, -1j])[np.arange(model.dimension) % 4]


def realize_observable(
    spec: ObservableSpec,
    hamiltonian: np.ndarray,
    omega: np.ndarray,
    omega_inv: np.ndarray,
) -> np.ndarray:
    """Observable matrix A(t) given the same-time Hamiltonian and dressing."""
    if spec.source == "hamiltonian-itself":
        return hamiltonian
    if spec.source == "user-matrix":
        return spec.data
    return omega_inv @ spec.data @ omega


def _similarity_energies(model: HamiltonianModel) -> np.ndarray:
    raw = model.params.get("energies")
    if raw is None:
        raise ScenarioError("family 'similarity-rand' needs parameter 'energies'")
    try:
        energies = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        energies = None
    if energies is None or energies.shape != (model.dimension,):
        raise ScenarioError(
            f"'energies' must list {model.dimension} real values, got {raw!r}"
        )
    return energies


@functools.lru_cache(maxsize=64)
def _similarity_matrix(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded invertible S with cond(S) < 1e3, resampled until it qualifies,
    and its inverse."""
    rng = np.random.default_rng(seed)
    for _ in range(128):
        s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        if np.linalg.cond(s) < _MAX_SIMILARITY_COND:
            return s, np.linalg.inv(s)
    raise ScenarioError(f"could not draw a well-conditioned {n}x{n} similarity matrix")


@functools.lru_cache(maxsize=64)
def _oscillator_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact p^2 and x^3 oscillator matrix elements on the first n levels.

    Built in a padded space (x^3 couples three levels up) and cut back, so the
    kept block carries the infinite-basis matrix elements, not the projected
    operator products.
    """
    m = n + 3
    a = np.zeros((m, m), dtype=complex)
    for k in range(1, m):
        a[k - 1, k] = np.sqrt(k)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = 1j * (ad - a) / np.sqrt(2.0)
    p2 = (p @ p)[:n, :n]
    x3 = (x @ x @ x)[:n, :n]
    return p2, x3


def _validate_family(model: HamiltonianModel):
    n, t0 = model.dimension, model.t0
    if model.family in ("triangular2", "pt2") and n != 2:
        raise ScenarioError(f"family {model.family!r} is two-dimensional, got N={n}")
    if model.family == "triangular2":
        model.param("c", t0)
        model.real_param("e1", t0)
        model.real_param("e2", t0)
    elif model.family == "pt2":
        gamma = model.real_param("gamma", t0)
        s = model.real_param("s", t0)
        if s <= 0.0:
            raise ScenarioError(f"family 'pt2': coupling s must be positive, got {s} at t={t0:g}")
        if abs(gamma) >= s:
            raise ScenarioError(
                f"family 'pt2': |gamma|={abs(gamma)} >= s={s}, spectrum not real at t={t0:g}"
            )
    elif model.family == "similarity-rand":
        _similarity_energies(model)
        if model.h_schedule:
            raise ScenarioError("family 'similarity-rand' does not take schedules")
        seed = model.params.get("seed", 0)
        integral = isinstance(seed, int) or isinstance(seed, float) and seed.is_integer()
        if isinstance(seed, bool) or not integral or seed < 0:
            raise ScenarioError(f"'seed' must be a non-negative integer, got {seed!r}")
    else:  # cubic-trunc
        g = model.real_param("g", t0)
        if g <= 0.0:
            raise ScenarioError(f"family 'cubic-trunc': coupling g must be positive, got {g} at t={t0:g}")

