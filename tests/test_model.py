import numpy as np
import pytest

from qhdyn import HamiltonianModel, ObservableSpec, ScenarioError
from qhdyn.model import build_hamiltonian, real_gauge
from qhdyn.schedules import ScheduleSpec

from reference import spectrum_closed_form


def oscillator_cubic_bruteforce(n, g, pad=40):
    """Independent ladder-operator oracle for the truncated cubic oscillator.

    Builds x and p element by element in a generously padded space, forms
    p^2 + i g x^3 there, and cuts the upper-left block.
    """
    m = n + pad
    x = np.zeros((m, m), dtype=complex)
    p = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        # <j|x|j+1> = sqrt(j+1)/sqrt(2), <j+1|x|j> likewise; p antisymmetric
        amp = np.sqrt(j + 1.0)
        x[j, j + 1] = amp / np.sqrt(2.0)
        x[j + 1, j] = amp / np.sqrt(2.0)
        p[j, j + 1] = -1j * amp / np.sqrt(2.0)
        p[j + 1, j] = 1j * amp / np.sqrt(2.0)
    h = p @ p + 1j * g * (x @ x @ x)
    return h[:n, :n]


def test_triangular2_direct():
    model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0})
    np.testing.assert_allclose(build_hamiltonian(model, 0.0), [[1.0, 1.0], [0.0, 2.0]])


def test_pt2_gamma_zero_is_hermitian():
    model = HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": 1.0})
    H = build_hamiltonian(model, 0.0)
    np.testing.assert_allclose(H, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(H, H.conj().T)


def test_cubic_trunc_against_bruteforce():
    model = HamiltonianModel(4, "cubic-trunc", {"g": 1.0})
    H = build_hamiltonian(model, 0.0)
    assert H[0, 0] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(H, oscillator_cubic_bruteforce(4, 1.0), atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 5, 8])
@pytest.mark.parametrize("g", [0.05, 0.3, 1.0])
def test_cubic_trunc_all_sizes_against_bruteforce(n, g):
    model = HamiltonianModel(n, "cubic-trunc", {"g": g})
    np.testing.assert_allclose(
        build_hamiltonian(model, 0.0), oscillator_cubic_bruteforce(n, g), atol=1e-12
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_cubic_real_gauge_is_exact(n):
    rng = np.random.default_rng(n)
    d = real_gauge(HamiltonianModel(n, "cubic-trunc", {"g": 0.1}))
    np.testing.assert_array_equal(d, 1j ** np.arange(n))
    # random static couplings and a scheduled stack over the whole grid
    for g in np.exp(rng.uniform(-12.0, 5.0, 20)):
        h = build_hamiltonian(HamiltonianModel(n, "cubic-trunc", {"g": g}), 0.0)
        gauged = np.conj(d)[:, None] * h * d
        assert not np.any(gauged.imag), g
        np.testing.assert_allclose(gauged.real, np.diag(np.conj(d)) @ h @ np.diag(d), rtol=0, atol=1e-15 * g)
    amplitude = rng.uniform(0.1, 0.9)
    ramp = ScheduleSpec("sinusoidal", base=0.03, amplitude=amplitude, frequency=rng.uniform(1.0, 5.0))
    model = HamiltonianModel(n, "cubic-trunc", {"g": 0.03}, {"g": ramp})
    stack = build_hamiltonian(model, np.linspace(0.0, 1.0, 201))
    assert not np.any((np.conj(d)[:, None] * stack * d).imag)


@pytest.mark.parametrize(
    "model",
    [
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0}),
        HamiltonianModel(2, "pt2", {"gamma": 0.3, "s": 1.0}),
        HamiltonianModel(4, "similarity-rand", {"energies": [0.5, 1.0, 2.0, 3.5], "seed": 7}),
    ],
)
def test_real_gauge_only_for_cubic_trunc(model):
    assert real_gauge(model) is None


def test_unknown_family_rejected():
    with pytest.raises(ScenarioError, match="unknown family"):
        HamiltonianModel(2, "hexagonal", {})


def test_pt2_domain_validated_at_t0():
    with pytest.raises(ScenarioError, match="spectrum not real"):
        HamiltonianModel(2, "pt2", {"gamma": 1.5, "s": 1.0})
    with pytest.raises(ScenarioError, match="positive"):
        HamiltonianModel(2, "pt2", {"gamma": 0.0, "s": -1.0})
    # gamma(t) = 1.5 - 0.5 t: out of the real phase at t = 0, inside it from t = 1
    ramp = {"gamma": ScheduleSpec("linear-ramp", base=1.5, rate=-0.5)}
    with pytest.raises(ScenarioError, match="spectrum not real at t=0"):
        HamiltonianModel(2, "pt2", {"gamma": 1.5, "s": 1.0}, ramp)
    HamiltonianModel(2, "pt2", {"gamma": 1.5, "s": 1.0}, ramp, t0=2.0)
    with pytest.raises(ScenarioError, match="spectrum not real at t=1"):
        HamiltonianModel(2, "pt2", {"gamma": 1.5, "s": 1.0}, ramp, t0=1.0)


def test_cubic_coupling_validated_at_t0():
    ramp = {"g": ScheduleSpec("linear-ramp", base=-0.1, rate=0.1)}
    with pytest.raises(ScenarioError, match="must be positive, got -0.1 at t=0"):
        HamiltonianModel(4, "cubic-trunc", {"g": 0.1}, ramp)
    with pytest.raises(ScenarioError, match="must be positive, got 0.0 at t=1"):
        HamiltonianModel(4, "cubic-trunc", {"g": 0.1}, ramp, t0=1.0)
    HamiltonianModel(4, "cubic-trunc", {"g": 0.1}, ramp, t0=2.0)


def test_missing_parameter_named():
    with pytest.raises(ScenarioError, match="'c'"):
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0})
    with pytest.raises(ScenarioError, match="needs parameter 'energies'"):
        HamiltonianModel(2, "similarity-rand", {"seed": 1})


@pytest.mark.parametrize("family, params", [
    ("triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0, "seed": 3}),
    ("pt2", {"gamma": 0.0, "s": 1.0, "zzz": 5}),
    ("similarity-rand", {"energies": [1.0, 2.0], "g": 0.1}),
    ("cubic-trunc", {"g": 0.1, "energies": [1.0, 2.0]}),
])
def test_a_parameter_the_family_does_not_read_is_rejected(family, params):
    with pytest.raises(ScenarioError, match=rf"family '{family}' takes no parameter \['\w+'\]; it takes"):
        HamiltonianModel(2, family, params)


@pytest.mark.parametrize("schedule", [False, True], ids=["static", "scheduled"])
def test_a_parameter_of_the_wrong_kind_is_rejected_scheduled_or_not(schedule):
    # a schedule replaces a parameter's value in time, but its params entry is still checked
    constant = ScheduleSpec("constant", base=0.1)
    cases = [
        (2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": "abc"}, "c", "'c' of family 'triangular2' must be a number"),
        (2, "pt2", {"gamma": 0.5j, "s": 1.0}, "gamma", r"'gamma' of family 'pt2' must be real, got 0\.5j"),
    ]
    for n, family, params, key, message in cases:
        with pytest.raises(ScenarioError, match=message):
            HamiltonianModel(n, family, params, {key: constant} if schedule else {})


@pytest.mark.parametrize(
    "params, schedules, message",
    [
        ({"e1": "1.0", "e2": "2", "c": "0.5"}, {}, "'e1' .* must be a number"),
        ({"e1": True, "e2": 2.0, "c": 0.5}, {}, "'e1' .* must be a number"),
        ({"e1": np.nan, "e2": 2.0, "c": 0.5}, {}, "'e1' .* must be a number"),
        ({"e1": 1.0, "e2": np.inf, "c": 0.5}, {}, "'e2' .* must be a number"),
        ({"e1": 1.0, "e2": 2.0, "c": complex(0.5, np.nan)}, {}, "'c' .* must be a number"),
        ({"e1": 1.0, "e2": 2.0, "c": 10**400}, {}, "'c' .* must be a number"),
        ({"e1": 1.0, "e2": 2.0, "c": 0.5}, {"amplitude": np.inf}, "schedule fields must be finite"),
    ],
)
def test_the_api_takes_only_finite_numbers(params, schedules, message):
    # the number rule of scenario documents: no str, bool, NaN or infinity (each
    # once ended in a LinAlgError traceback or ran), before any H is built
    with pytest.raises(ScenarioError, match=message):
        c = {"c": ScheduleSpec("sinusoidal", base=1.0, frequency=1.0, **schedules)} if schedules else {}
        HamiltonianModel(2, "triangular2", params, c)


@pytest.mark.parametrize("energies", [["1.0", 2.0], [True, 2.0], [np.nan, 2.0], [1.0, np.inf], [1.0, 2j], "12"])
def test_energies_take_only_finite_reals(energies):
    with pytest.raises(ScenarioError, match="'energies' must list 2 real values"):
        HamiltonianModel(2, "similarity-rand", {"energies": energies})
    for listed in ([1, 2.0], (1.0, 2.0), np.array([1.0, 2.0])):
        assert HamiltonianModel(2, "similarity-rand", {"energies": listed}).params["energies"] is listed


@pytest.mark.parametrize("name", [1, "a,b", "a\nb", "a\rb"])
def test_an_observable_name_is_a_csv_header_field(name):
    with pytest.raises(ScenarioError, match="must be a string with no ','"):
        ObservableSpec(name, "hamiltonian-itself")


def test_seed_defaults_to_zero():
    model = HamiltonianModel(2, "similarity-rand", {"energies": [1.0, 2.0]})
    assert model.params["seed"] == 0
    explicit = HamiltonianModel(2, "similarity-rand", {"energies": [1.0, 2.0], "seed": 0})
    assert build_hamiltonian(model, 0.0).tobytes() == build_hamiltonian(explicit, 0.0).tobytes()


def test_schedule_must_reference_existing_parameter():
    with pytest.raises(ScenarioError, match="'kappa', not a scalar parameter of family 'triangular2'"):
        HamiltonianModel(
            2,
            "triangular2",
            {"e1": 1.0, "e2": 2.0, "c": 1.0},
            {"kappa": ScheduleSpec("constant", base=1.0)},
        )
    # similarity-rand has no scalar parameter to schedule
    with pytest.raises(ScenarioError, match="'seed', not a scalar parameter of family 'similarity-rand'"):
        HamiltonianModel(2, "similarity-rand", {"energies": [1.0, 2.0]}, {"seed": ScheduleSpec("constant", base=1.0)})


def test_dimension_constraints():
    with pytest.raises(ScenarioError, match="two-dimensional"):
        HamiltonianModel(3, "pt2", {"gamma": 0.0, "s": 1.0})
    with pytest.raises(ScenarioError, match="integer >= 2"):
        HamiltonianModel(1, "cubic-trunc", {"g": 0.1})


def test_similarity_rand_spectrum_matches_prescription():
    energies = [0.5, 1.0, 2.0, 3.5]
    model = HamiltonianModel(4, "similarity-rand", {"energies": energies, "seed": 7})
    H = build_hamiltonian(model, 0.0)
    spectrum = np.sort(np.linalg.eigvals(H).real)
    np.testing.assert_allclose(spectrum, energies, atol=1e-10)
    assert np.max(np.abs(np.linalg.eigvals(H).imag)) < 1e-10


def test_similarity_rand_deterministic_per_seed():
    kwargs = {"energies": [1.0, 2.0], "seed": 3}
    a = build_hamiltonian(HamiltonianModel(2, "similarity-rand", kwargs), 0.0)
    b = build_hamiltonian(HamiltonianModel(2, "similarity-rand", kwargs), 0.0)
    np.testing.assert_array_equal(a, b)
    c = build_hamiltonian(
        HamiltonianModel(2, "similarity-rand", {"energies": [1.0, 2.0], "seed": 4}), 0.0
    )
    assert np.max(np.abs(a - c)) > 1e-3


def test_pt2_eigenvalues_closed_form():
    for gamma in (0.0, 0.3, 0.9):
        model = HamiltonianModel(
            2, "pt2", {"gamma": 0.0, "s": 1.0}, {"gamma": ScheduleSpec("constant", base=gamma)}
        )
        H = build_hamiltonian(model, 0.0)
        expected = np.array([-1.0, 1.0]) * np.sqrt(1.0 - gamma * gamma)
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(H).real), expected, atol=1e-10)
        np.testing.assert_allclose(spectrum_closed_form(model, 0.0), expected)


def test_triangular2_eigenvalues_independent_of_coupling():
    for c in (0.0, 1.0, 5.0 + 2.0j):
        model = HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": c})
        eigs = np.linalg.eigvals(build_hamiltonian(model, 0.0))
        np.testing.assert_allclose(np.sort(eigs.real), [1.0, 2.0], atol=1e-12)


def test_scheduled_parameter_evaluated_in_time():
    model = HamiltonianModel(
        2,
        "triangular2",
        {"e1": 1.0, "e2": 2.0, "c": 1.0},
        {"c": ScheduleSpec("sinusoidal", base=1.0, amplitude=0.5, frequency=2.0)},
    )
    assert not np.allclose(
        build_hamiltonian(model, 0.0)[0, 1], build_hamiltonian(model, 0.4)[0, 1]
    )
    assert model.is_time_dependent


def test_constant_kind_schedule_is_static():
    model = HamiltonianModel(
        2,
        "triangular2",
        {"e1": 1.0, "e2": 2.0, "c": 1.0},
        {"c": ScheduleSpec("constant", base=1.0)},
    )
    assert not model.is_time_dependent


def test_observable_spec_validation():
    with pytest.raises(ScenarioError, match="unknown source"):
        ObservableSpec("A", "frobnicate")
    with pytest.raises(ScenarioError, match="needs a matrix"):
        ObservableSpec("A", "user-matrix")
    with pytest.raises(ScenarioError, match="source 'hamiltonian-itself' takes no matrix"):
        ObservableSpec("H", "hamiltonian-itself", data=np.eye(2))
    with pytest.raises(ScenarioError, match="Hermitian"):
        ObservableSpec("A", "function-of-frame", data=np.array([[0.0, 1.0], [0.0, 0.0]]))
    spec = ObservableSpec("A", "function-of-frame", data=np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert spec.data.dtype == complex
    with pytest.raises(ScenarioError, match="must be 2x2"):
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0},
                         a_observables=(ObservableSpec("A", "user-matrix", data=np.eye(3)),))


def test_a_repeated_observable_name_is_rejected():
    # the CSV columns and the outputs list name observables: one name, one observable
    specs = (ObservableSpec("H", "hamiltonian-itself"), ObservableSpec("H", "user-matrix", data=np.eye(2)))
    with pytest.raises(ScenarioError, match="observable name 'H' is declared more than once"):
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 1.0}, a_observables=specs)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"energies": [1.0, 2.0], "seed": -1}, "non-negative integer"),
        ({"energies": [1.0, 2.0], "seed": 1.5}, "non-negative integer"),
        ({"energies": [1.0, 2.0], "seed": 1 + 2j}, "non-negative integer"),
        ({"energies": 1 + 2j}, "must list 2 real values"),
    ],
)
def test_similarity_rand_parameter_types(params, message):
    with pytest.raises(ScenarioError, match=message):
        HamiltonianModel(2, "similarity-rand", params)


def test_list_valued_scalar_parameter_rejected():
    with pytest.raises(ScenarioError, match="'c' .* must be a number"):
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": [1.0, 2.0, 3.0]})


@pytest.mark.parametrize(
    "model",
    [
        HamiltonianModel(
            2,
            "triangular2",
            {"e1": 1.0, "e2": -2.0, "c": 1.0},
            {
                "e1": ScheduleSpec("linear-ramp", base=-0.3, rate=1.7),
                "e2": ScheduleSpec("exponential", base=-1.1, rate=-0.7),
                "c": ScheduleSpec("sinusoidal", base=1.0 + 0.5j, amplitude=0.7, frequency=3.1, phase=0.2),
            },
        ),
        HamiltonianModel(2, "triangular2", {"e1": 1.0, "e2": 2.0, "c": 0.5 - 1.0j}),
        HamiltonianModel(
            2,
            "pt2",
            {"gamma": 0.0, "s": 1.0},
            {
                "gamma": ScheduleSpec("linear-ramp", base=-0.5, rate=0.6),
                "s": ScheduleSpec("sinusoidal", base=2.0, amplitude=0.3, frequency=1.3),
            },
        ),
        HamiltonianModel(2, "pt2", {"gamma": -0.4, "s": 1.0}),
        HamiltonianModel(4, "similarity-rand", {"energies": [0.1, 0.5, 1.0, 2.0], "seed": 3}),
        HamiltonianModel(6, "cubic-trunc", {"g": 0.1}, {"g": ScheduleSpec("exponential", base=0.1, rate=0.4)}),
        HamiltonianModel(5, "cubic-trunc", {"g": 0.3}),
    ],
    ids=["triangular2", "triangular2-static", "pt2", "pt2-static", "similarity-rand", "cubic-trunc", "cubic-static"],
)
def test_hamiltonian_stack_equals_pointwise_calls(model):
    times = np.linspace(-0.3, 1.7, 257)
    stacked = build_hamiltonian(model, times)
    pointwise = np.array([build_hamiltonian(model, float(t)) for t in times])
    assert stacked.shape == (len(times), model.dimension, model.dimension)
    assert stacked.tobytes() == pointwise.tobytes()  # bit for bit, signed zeros included


def test_cubic_stack_is_built_in_place():
    # N = 8 over M = 2001 times: the in-place sum gives the bytes of
    # p2 + 1j g x3 with no second temporary the size of the output
    import tracemalloc

    from qhdyn.model import _oscillator_blocks

    g = ScheduleSpec("sinusoidal", base=0.1, amplitude=0.5, frequency=2.0)
    model = HamiltonianModel(8, "cubic-trunc", {"g": 0.1}, {"g": g})
    times = np.linspace(0.0, 1.0, 2001)
    p2, x3 = _oscillator_blocks(8)
    expected = p2 + 1j * model.real_param("g", times)[:, None, None] * x3
    assert build_hamiltonian(model, times).tobytes() == expected.tobytes()
    tracemalloc.start()
    try:
        h = build_hamiltonian(model, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * h.nbytes
