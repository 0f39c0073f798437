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
    first N levels; spectral reality of the truncation is checked by the
    eigensolver at run time, never assumed.  The matrix is real in the
    phase gauge diag(i^n) (see `real_gauge`).

`FAMILY_PARAMS` lists the params each family reads; a model takes exactly
those, each a finite number (`schedules.finite_number`: never a str or a
bool).  The family constraints (pt2: s > 0 and |gamma| < s; cubic-trunc:
g > 0) are checked at the start of the run, ``t0``; the eigensolver's guards
take over from there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ScenarioError
from .schedules import ScheduleSpec, eval_schedule, finite_number, schedule_bounds

# each family's params by kind: "real" or "scalar" (complex allowed), which a
# schedule may drive; "reals", one real per level; "count", a non-negative
# integer that defaults to 0
FAMILY_PARAMS = {
    "triangular2": {"e1": "real", "e2": "real", "c": "scalar"},
    "pt2": {"gamma": "real", "s": "real"},
    "similarity-rand": {"energies": "reals", "seed": "count"},
    "cubic-trunc": {"g": "real"},
}
FAMILIES = tuple(FAMILY_PARAMS)

OBSERVABLE_SOURCES = ("hamiltonian-itself", "user-matrix", "function-of-frame")

# resampling bound for the random similarity transform
_MAX_SIMILARITY_COND = 1e3

# tolerance for parameters that must be real-valued
_REAL_PARAM_TOL = 1e-12


@dataclass(frozen=True)
class ObservableSpec:
    """A declared observable A_j(t), formed per block of grid points by `dressing.Block.observable`.

    name heads CSV columns, so it holds no ',', '\\n' or '\\r'; source selects the construction:
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
        if not isinstance(self.name, str) or any(c in self.name for c in ",\n\r"):
            raise ScenarioError(f"observable name {self.name!r} must be a string with no ',', '\\n' or '\\r'")
        if self.source not in OBSERVABLE_SOURCES:
            raise ScenarioError(
                f"observable {self.name!r}: unknown source {self.source!r}; "
                f"expected one of {OBSERVABLE_SOURCES}"
            )
        if self.source == "hamiltonian-itself":
            if self.data is not None:
                raise ScenarioError(f"observable {self.name!r}: source 'hamiltonian-itself' takes no matrix")
            return
        if self.data is None:
            raise ScenarioError(f"observable {self.name!r}: source {self.source!r} needs a matrix")
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ScenarioError(f"observable {self.name!r}: matrix must be square")
        if not np.isfinite(data).all():
            raise ScenarioError(f"observable {self.name!r}: matrix entries must be finite")
        if self.source == "function-of-frame" and np.max(np.abs(data - data.conj().T)) > 1e-12:
            raise ScenarioError(f"observable {self.name!r}: function-of-frame seed must be Hermitian")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class HamiltonianModel:
    """A parametrized family producing H(t) plus declared observables.

    params holds the family's `FAMILY_PARAMS`; h_schedule attaches a time
    dependence to a "real" or "scalar" one.
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
        n, names = self.dimension, [obs.name for obs in self.a_observables]
        for obs in self.a_observables:
            if names.count(obs.name) > 1:
                raise ScenarioError(f"observable name {obs.name!r} is declared more than once")
            if obs.source != "hamiltonian-itself" and obs.data.shape != (n, n):
                raise ScenarioError(
                    f"observable {obs.name!r}: matrix must be {n}x{n}, got shape {obs.data.shape}"
                )
        _validate_params(self)
        _validate_family(self)

    @property
    def is_time_dependent(self) -> bool:
        """True when some scheduled parameter moves: its derivative bound (`schedule_bounds`) is nonzero.
        The bound is taken at t = 0, where no exponential underflows."""
        return any(schedule_bounds(s, 0.0, 0.0)[2] for s in self.h_schedule.values())

    def param(self, name: str, t: float | np.ndarray | None) -> complex | np.ndarray:
        """Parameter value at time ``t`` (schedule applied when attached;
        elementwise for an array of times, a scalar when unscheduled); with
        ``t`` None, the params entry itself, scheduled or not."""
        if name in self.h_schedule and t is not None:
            return eval_schedule(self.h_schedule[name], t)
        return complex(self.params[name])

    def real_param(self, name: str, t: float | np.ndarray | None) -> float | np.ndarray:
        value = self.param(name, t)
        bad = np.any(np.imag(value)) and np.abs(np.imag(value)) > _REAL_PARAM_TOL * (1.0 + np.abs(value))
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
        energies = np.asarray(model.params["energies"], dtype=float)
        s_mat, s_inv = _similarity_matrix(n, int(model.params["seed"]))
        return np.broadcast_to((s_mat * energies) @ s_inv, shape)  # one H for every t, read-only
    # cubic-trunc, over flattened matrices (numpy broadcasts over one trailing axis faster)
    g = np.broadcast_to(model.real_param("g", t), np.shape(t))
    p2, x3 = _oscillator_blocks(n)
    h = (1j * g)[..., None] * x3.reshape(n * n)
    h += p2.reshape(n * n)  # in place: no second stack the size of the output
    return h.reshape(shape)


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


def _validate_params(model: HamiltonianModel):
    """The family's params, each of its kind (a scheduled one too, and also at t0), and no
    other; schedules only on scalars."""
    kinds = FAMILY_PARAMS[model.family]
    if unknown := model.params.keys() - kinds.keys():
        raise ScenarioError(
            f"family {model.family!r} takes no parameter {sorted(unknown, key=str)}; it takes {sorted(kinds)}"
        )
    for key in model.h_schedule:
        if kinds.get(key) not in ("real", "scalar"):
            raise ScenarioError(f"schedule refers to {key!r}, not a scalar parameter of family {model.family!r}")
    for name, kind in kinds.items():
        if kind == "count":
            value = model.params.setdefault(name, 0)
            if not finite_number(value, real=True) or value < 0 or value % 1:
                raise ScenarioError(f"{name!r} must be a non-negative integer, got {value!r}")
        elif name not in model.params:
            raise ScenarioError(f"family {model.family!r} needs parameter {name!r}")
        elif kind == "reals":
            values = model.params[name]
            listed = isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.ndim == 1
            if not (listed and len(values) == model.dimension and all(finite_number(v, real=True) for v in values)):
                raise ScenarioError(f"{name!r} must list {model.dimension} real values, got {values!r}")
        elif not finite_number(value := model.params[name]):
            raise ScenarioError(
                f"parameter {name!r} of family {model.family!r} must be a number (finite, not a str or bool), "
                f"got {value!r}"
            )
        elif kind == "real":
            model.real_param(name, None)
            model.real_param(name, model.t0)


def _validate_family(model: HamiltonianModel):
    n, t0 = model.dimension, model.t0
    if model.family in ("triangular2", "pt2") and n != 2:
        raise ScenarioError(f"family {model.family!r} is two-dimensional, got N={n}")
    if model.family == "pt2":
        gamma = model.real_param("gamma", t0)
        s = model.real_param("s", t0)
        if s <= 0.0:
            raise ScenarioError(f"family 'pt2': coupling s must be positive, got {s} at t={t0:g}")
        if abs(gamma) >= s:
            raise ScenarioError(
                f"family 'pt2': |gamma|={abs(gamma)} >= s={s}, spectrum not real at t={t0:g}"
            )
    elif model.family == "cubic-trunc":
        g = model.real_param("g", t0)
        if g <= 0.0:
            raise ScenarioError(f"family 'cubic-trunc': coupling g must be positive, got {g} at t={t0:g}")

