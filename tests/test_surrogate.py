"""Design matrices, least-squares fitting, and the surrogate wire format."""

import ast
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fourier_surrogates
from fourier_surrogates import (
    CircuitConfig,
    ParameterSet,
    SpectrumDescriptor,
    SurrogateModel,
    build_real_design,
    canonical_count,
    evaluate_terms,
    fit,
    full_grid,
    load_model,
    mse,
    predict_batch,
    sample_distinct,
    surrogate_exact,
    surrogate_rff,
)
from fourier_surrogates.cli import _write_json
from fourier_surrogates.surrogate import PREFIX_COND_BOUND, DesignMatrix, _prefix_solver
from dense_oracle import build_complex_design, complex_fit_to_real

# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------


def test_complex_design_entries_by_hand():
    pts = np.array([[0.0, 0.0], [0.5, 1.0]])
    freqs = [(1, 0), (0, 2)]
    design = build_complex_design(pts, freqs)
    want = np.array(
        [
            [1.0, 1.0],
            [np.exp(-1j * 0.5), np.exp(-1j * 2.0)],
        ]
    )
    np.testing.assert_allclose(design.entries, want, atol=1e-15)


def test_real_design_layout_by_hand():
    pts = np.array([[0.3, 0.7]])
    freqs = [(1, 0), (1, 2)]
    design = build_real_design(pts, freqs)
    assert design.entries.shape == (1, 5)
    row = design.entries[0]
    assert row[0] == 1.0
    np.testing.assert_allclose(row[1], np.cos(0.3), atol=1e-15)
    np.testing.assert_allclose(row[2], np.sin(0.3), atol=1e-15)
    np.testing.assert_allclose(row[3], np.cos(0.3 + 1.4), atol=1e-15)
    np.testing.assert_allclose(row[4], np.sin(0.3 + 1.4), atol=1e-15)


def test_real_design_rejects_bad_frequencies():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        build_real_design(pts, [(0, 0)])
    with pytest.raises(ValueError):
        build_real_design(pts, [(-1, 0)])
    with pytest.raises(ValueError):
        build_real_design(pts, [(0, -2)])
    with pytest.raises(ValueError):
        build_real_design(pts, [])
    with pytest.raises(ValueError, match="points have dimension 3, frequencies 2"):
        build_real_design(np.zeros((2, 3)), [(1, 0)])
    with pytest.raises(ValueError, match="no sample points supplied"):
        build_real_design(np.zeros((0, 2)), [(1, 0)])


def test_real_design_holds_only_its_entries_and_phases():
    """cos and sin are written into the design's columns, with the contiguous kernels' bits."""
    X = np.random.default_rng(0).random((350, 7))
    W = sample_distinct(SpectrumDescriptor((2,) * 7), 10_000, seed=1)
    tracemalloc.start()
    try:
        entries = build_real_design(X, W).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    phases = X @ W.astype(float).T
    assert peak <= 1.1 * (entries.nbytes + phases.nbytes)
    assert np.array_equal(entries[:, 1::2], np.cos(phases))
    assert np.array_equal(entries[:, 2::2], np.sin(phases))


# ---------------------------------------------------------------------------
# fitting: hand DFT oracle, optimality, minimum-norm behavior
# ---------------------------------------------------------------------------


def test_three_point_dft_recovers_cosine():
    # T=3 grid {0, 2pi/3, 4pi/3}, y = cos(x): the unitary structure gives
    # coefficient 1/2 on both exponentials and 0 on the constant
    xs = 2 * np.pi * np.arange(3) / 3
    design = build_complex_design(xs.reshape(-1, 1), [(-1,), (0,), (1,)])
    coeffs, residual = fit(design, np.cos(xs))
    np.testing.assert_allclose(coeffs, [0.5, 0.0, 0.5], atol=1e-14)
    assert residual < 1e-14
    intercept, canon, a, b = complex_fit_to_real([(-1,), (0,), (1,)], coeffs)
    assert canon == [(1,)]
    np.testing.assert_allclose([intercept, a[0], b[0]], [0.0, 1.0, 0.0], atol=1e-14)


def test_three_point_dft_recovers_sine():
    xs = 2 * np.pi * np.arange(3) / 3
    design = build_complex_design(xs.reshape(-1, 1), [(-1,), (0,), (1,)])
    coeffs, _ = fit(design, np.sin(xs))
    np.testing.assert_allclose(coeffs, [-0.5j, 0.0, 0.5j], atol=1e-14)
    intercept, canon, a, b = complex_fit_to_real([(-1,), (0,), (1,)], coeffs)
    np.testing.assert_allclose([intercept, a[0], b[0]], [0.0, 0.0, 1.0], atol=1e-14)


def test_fit_recovers_planted_real_model():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 2 * np.pi, size=(40, 2))
    freqs = [(1, 0), (0, 1), (1, 1)]
    design = build_real_design(X, freqs)
    truth = np.array([0.2, 0.5, -0.3, 0.1, 0.0, -0.7, 0.25])
    y = design.entries @ truth
    coeffs, residual = fit(design, y)
    np.testing.assert_allclose(coeffs, truth, atol=1e-12)
    assert residual < 1e-12


def test_fit_is_optimal_against_perturbations():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 2 * np.pi, size=(25, 1))
    design = build_real_design(X, [(1,), (2,)])
    y = rng.uniform(-1, 1, size=25)
    coeffs, _ = fit(design, y)
    base = np.sum((design.entries @ coeffs - y) ** 2)
    for k in range(10):
        delta = np.random.default_rng(k).normal(0, 0.05, size=coeffs.shape)
        perturbed = np.sum((design.entries @ (coeffs + delta) - y) ** 2)
        assert perturbed >= base - 1e-12


def test_fit_minimum_norm_splits_duplicate_columns():
    # duplicated frequency -> rankdeficient design; the pseudoinverse
    # solution shares the coefficient evenly between the twin columns
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 2 * np.pi, size=(30, 1))
    design = build_real_design(X, [(1,), (1,)])
    y = np.cos(X[:, 0])
    coeffs, residual = fit(design, y)
    np.testing.assert_allclose(coeffs[1], coeffs[3], atol=1e-12)
    np.testing.assert_allclose(coeffs[1] + coeffs[3], 1.0, atol=1e-10)
    assert residual < 1e-10


def test_fit_validation():
    design = build_real_design(np.zeros((3, 1)) + 0.5, [(1,)])
    with pytest.raises(ValueError):
        fit(design, np.zeros(4))
    with pytest.raises(ValueError):
        fit(design, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError):
        fit(design, np.zeros(3), rcond=0.0)
    with pytest.raises(ValueError):
        fit(design, np.zeros(3), rcond=1.5)


def test_fit_is_the_one_least_squares_solve_in_the_package():
    """Every lstsq call in src/ sits in surrogate.fit, so there is one solve path."""
    calls = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "lstsq" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            calls.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(fourier_surrogates.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert calls == [("surrogate", "fit")]


def test_qr_is_called_only_by_the_prefix_solver():
    """Every np.linalg.qr call in src/ sits in surrogate._prefix_solver."""
    calls = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "qr" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            calls.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(fourier_surrogates.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert calls == [("surrogate", "_prefix_solver")]


# ---------------------------------------------------------------------------
# prefix solver: every column prefix of one tall design from one R
# ---------------------------------------------------------------------------


def _prefix_tolerance(A: np.ndarray, y: np.ndarray, residual: float) -> float:
    """Relative distance allowed between two backward-stable solutions.

    The least-squares perturbation bound (Golub & Van Loan, Theorem 5.3.1)
    for a relative perturbation e of A and y is e (2 kappa / cos(theta) +
    kappa^2 tan(theta)), with sin(theta) = |r| / |y|; each solver stays
    within it of the exact solution, so their distance stays within twice
    that. e = m k eps covers both algorithms' backward errors. Below the
    solver's bound (kappa <= 1e8) and at a zero residual that is at most
    4e8 m k eps; a nonzero residual adds the kappa^2 term.
    """
    m, k = A.shape
    s = np.linalg.svd(A, compute_uv=False)
    kappa = s[0] / s[-1]
    sin = min(residual / np.linalg.norm(y), 1.0)
    cos = np.sqrt(1.0 - sin**2)
    e = m * k * np.finfo(float).eps
    return 2 * e * (2 * kappa / cos + kappa**2 * sin / cos)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(3, 40),
    d=st.integers(1, 3),
    span=st.sampled_from([1.0, 2 * np.pi]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_solver_matches_fit_on_every_prefix(m, d, span, seed):
    # inputs in [0, 1) give the sweep's ill-conditioned designs, inputs
    # over a whole period well-conditioned ones
    rng = np.random.default_rng(seed)
    desc = SpectrumDescriptor((3,) * d)
    freqs = sample_distinct(desc, min((m - 1) // 2, canonical_count(desc)), seed=seed)
    A = build_real_design(rng.uniform(0.0, span, size=(m, d)), freqs).entries
    y = rng.normal(size=m)
    solve = _prefix_solver(DesignMatrix(A), y)
    s = np.linalg.svd(A, compute_uv=False)
    over = not s[0] <= PREFIX_COND_BOUND * s[-1]
    for k in range(1, A.shape[1] + 1):
        prefix = np.ascontiguousarray(A[:, :k])
        want, residual = fit(DesignMatrix(prefix), y)
        got = solve(k)
        if over:
            assert np.array_equal(got, want)
        else:
            tol = _prefix_tolerance(prefix, y, residual)
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@pytest.mark.parametrize("damage", ["duplicate", "scale"])
def test_prefix_solver_hands_an_ill_conditioned_design_to_fit(damage):
    # one bad column puts the whole design over the bound, so even the
    # prefixes before it take fit's path, and every prefix equals fit
    rng = np.random.default_rng(6)
    A = build_real_design(rng.uniform(0, 2 * np.pi, size=(30, 2)), [(1, 0), (0, 1), (1, 1)])
    A = A.entries.copy()
    if damage == "duplicate":
        A = np.column_stack([A, A[:, 2]])
    else:
        A[:, 3] *= 1e-9
    y = rng.normal(size=30)
    solve = _prefix_solver(DesignMatrix(A), y)
    for k in range(1, A.shape[1] + 1):
        want, _ = fit(DesignMatrix(np.ascontiguousarray(A[:, :k])), y)
        assert np.array_equal(solve(k), want)


@pytest.mark.parametrize("solver", [fit, _prefix_solver])
def test_prefix_solver_rejects_what_fit_rejects(solver):
    design = build_real_design(np.zeros((3, 1)) + 0.5, [(1,)])
    with pytest.raises(ValueError, match="does not match 3 rows"):
        solver(design, np.zeros(4))
    with pytest.raises(ValueError, match="must be finite"):
        solver(design, np.array([np.nan, 0.0, 0.0]))
    entries = design.entries.copy()
    entries[1, 1] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        solver(DesignMatrix(entries), np.zeros(3))
    with pytest.raises(ValueError, match="identically zero"):
        solver(DesignMatrix(np.zeros((3, 2))), np.ones(3))


def test_prefix_solver_needs_a_tall_design():
    design = build_real_design(np.array([[0.1], [0.2]]), [(1,)])
    with pytest.raises(ValueError, match="tall design"):
        _prefix_solver(design, np.ones(2))


# ---------------------------------------------------------------------------
# complex -> real folding
# ---------------------------------------------------------------------------


def test_complex_fit_realness_on_full_lattice():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=12)
    desc = SpectrumDescriptor((1, 1))
    points = full_grid(desc)
    lattice = list(itertools.product(*(range(-w, w + 1) for w in desc.omega_max)))
    from fourier_surrogates import expectation_batch

    y = expectation_batch(config, params, points)
    coeffs, _ = fit(build_complex_design(points, lattice), y)
    by_freq = dict(zip(lattice, coeffs))
    for f, c in by_freq.items():
        neg = tuple(-v for v in f)
        np.testing.assert_allclose(by_freq[neg], np.conj(c), atol=1e-12)


def test_complex_fit_to_real_handles_missing_conjugates_quietly():
    # a canonical-only list folds each coefficient without its partner
    intercept, canon, a, b = complex_fit_to_real([(1,)], np.array([0.25 + 0.125j]))
    assert intercept == 0.0
    assert canon == [(1,)]
    np.testing.assert_allclose(a, [0.5])
    np.testing.assert_allclose(b, [0.25])


# ---------------------------------------------------------------------------
# model container, evaluation, wire format
# ---------------------------------------------------------------------------


def _toy_model(fingerprint=None):
    return SurrogateModel(
        d=2,
        omega_max=(2, 2),
        intercept=0.125,
        frequencies=((1, 0), (1, -1)),
        cos_coeffs=np.array([0.5, -0.25]),
        sin_coeffs=np.array([0.0, 0.75]),
        mode="rff",
        residual=0.01,
        fingerprint=fingerprint,
    )


def test_evaluate_terms_matches_manual_sum():
    model = _toy_model()
    x = np.array([0.4, 1.3])
    manual = (
        0.125
        + 0.5 * np.cos(x[0])
        - 0.25 * np.cos(x[0] - x[1])
        + 0.75 * np.sin(x[0] - x[1])
    )
    np.testing.assert_allclose(predict_batch(model, x)[0], manual, atol=1e-15)
    X = np.array([x, 2 * x])
    np.testing.assert_allclose(
        predict_batch(model, X),
        evaluate_terms(X, model.intercept, model.frequencies, model.cos_coeffs, model.sin_coeffs),
        atol=0,
    )


def test_model_validation():
    with pytest.raises(ValueError):
        SurrogateModel(
            d=1, omega_max=(1,), intercept=0.0, frequencies=((1,),),
            cos_coeffs=np.array([1.0, 2.0]), sin_coeffs=np.array([0.0]),
            mode="exact", residual=0.0,
        )
    with pytest.raises(ValueError):
        SurrogateModel(
            d=1, omega_max=(1,), intercept=0.0, frequencies=((1,),),
            cos_coeffs=np.array([1.0]), sin_coeffs=np.array([0.0]),
            mode="other", residual=0.0,
        )


@pytest.mark.parametrize(
    "omega_max,frequencies,match",
    [
        ((2,), ((1, 0),), "omega_max has 1 entries"),
        ((2, 2), ((1,),), "every frequency must be 2 ints"),
        ((2, 2), ((1, 0), (1, 0, 1)), "every frequency must be 2 ints"),
        ((2, 2), ((1.0, 0),), "every frequency must be 2 ints"),
        ((2, 2), ((True, 0),), "every frequency must be 2 ints, got bool"),
        ((2, 2), ((2**63, 0),), "every frequency must be 2 ints within int64"),
        ((2, 2), np.array([[1.0, 0.0]]), "every frequency must be 2 ints, got float64"),
        ((2, 2), np.array([[1, 0, 1]]), "every frequency must be 2 ints, got 3"),
    ],
)
def test_model_frequencies_have_d_integer_entries(omega_max, frequencies, match):
    with pytest.raises(ValueError, match=match):
        SurrogateModel(
            d=2, omega_max=omega_max, intercept=0.0, frequencies=frequencies,
            cos_coeffs=np.zeros(len(frequencies)), sin_coeffs=np.zeros(len(frequencies)),
            mode="rff", residual=0.0,
        )


def test_model_frequencies_are_one_read_only_int64_array():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=3)
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(12, 2))
    routes = {
        "surrogate_exact": (surrogate_exact(config, params), 4),
        "surrogate_rff": (surrogate_rff(config, params, X, D=3, seed=1), 3),
        "from_json_dict": (SurrogateModel.from_json_dict(_toy_model().to_json_dict()), 2),
        "tuples": (_toy_model(), 2),
        "zero-term": (SurrogateModel(
            d=3, omega_max=(1, 1, 1), intercept=0.5, frequencies=(),
            cos_coeffs=np.zeros(0), sin_coeffs=np.zeros(0), mode="rff", residual=0.0,
        ), 0),
    }
    for name, (model, D) in routes.items():
        W = model.frequencies
        assert W.dtype == np.int64 and W.shape == (D, model.d), name
        assert W.flags.c_contiguous and not W.flags.writeable, name
    # the model keeps no reference to a caller's writeable array
    mine = np.array([[1, 0], [1, -1]])
    model = SurrogateModel(
        d=2, omega_max=(2, 2), intercept=0.0, frequencies=mine,
        cos_coeffs=np.ones(2), sin_coeffs=np.zeros(2), mode="rff", residual=0.0,
    )
    mine[1] = (2, 2)
    assert model.frequencies.tolist() == [[1, 0], [1, -1]]


def test_wire_format_shape():
    doc = _toy_model().to_json_dict()
    assert set(doc) == {"d", "omega_max", "intercept", "terms", "mode", "residual"}
    assert doc["terms"] == [
        {"freq": [1, 0], "a": 0.5, "b": 0.0},
        {"freq": [1, -1], "a": -0.25, "b": 0.75},
    ]
    with_fp = _toy_model(fingerprint="abc123").to_json_dict()
    assert with_fp["fingerprint"] == "abc123"


def test_model_round_trips_exactly(tmp_path):
    model = _toy_model(fingerprint="deadbeef00000000")
    path = tmp_path / "model.json"
    _write_json(path, model.to_json_dict())  # how the CLI writes models
    text = path.read_text()
    assert text.endswith("\n")
    json.loads(text)
    again = load_model(path)
    assert np.array_equal(again.frequencies, model.frequencies)
    assert again.mode == model.mode
    assert again.fingerprint == model.fingerprint
    X = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(20, 2))
    np.testing.assert_array_equal(predict_batch(again, X), predict_batch(model, X))


@st.composite
def _models(draw):
    d = draw(st.integers(1, 4))
    n_terms = draw(st.integers(0, 20))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    freq = st.tuples(*[st.integers(-6, 6)] * d)
    return SurrogateModel(
        d=d,
        omega_max=draw(st.tuples(*[st.integers(0, 6)] * d)),
        intercept=draw(finite),
        frequencies=tuple(draw(st.lists(freq, min_size=n_terms, max_size=n_terms))),
        cos_coeffs=np.array(draw(st.lists(finite, min_size=n_terms, max_size=n_terms))),
        sin_coeffs=np.array(draw(st.lists(finite, min_size=n_terms, max_size=n_terms))),
        mode=draw(st.sampled_from(["exact", "rff"])),
        residual=draw(st.floats(min_value=0.0, allow_infinity=False)),
        fingerprint=draw(st.none() | st.text("0123456789abcdef", min_size=1, max_size=16)),
    )


@settings(max_examples=60, deadline=None)
@given(_models())
def test_drawn_models_round_trip_through_disk(model):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        _write_json(first, model.to_json_dict())
        again = load_model(first)
        _write_json(second, again.to_json_dict())
        assert second.read_bytes() == first.read_bytes()
    for name in ("d", "omega_max", "intercept", "mode", "residual", "fingerprint"):
        assert getattr(again, name) == getattr(model, name), name
    assert np.array_equal(again.frequencies, model.frequencies)
    np.testing.assert_array_equal(again.cos_coeffs, model.cos_coeffs)
    np.testing.assert_array_equal(again.sin_coeffs, model.sin_coeffs)


def test_exact_surrogate_round_trips_through_disk(tmp_path):
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=21)
    model = surrogate_exact(config, params)
    path = tmp_path / "exact.json"
    _write_json(path, model.to_json_dict())
    again = load_model(path)
    X = np.random.default_rng(1).uniform(0, 2 * np.pi, size=(50, 2))
    np.testing.assert_array_equal(predict_batch(again, X), predict_batch(model, X))


def test_mse():
    model = _toy_model()
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(30, 2))
    y = predict_batch(model, X)
    assert mse(model, X, y) == 0.0
    shifted = y + 0.1
    np.testing.assert_allclose(mse(model, X, shifted), 0.01, atol=1e-15)
    with pytest.raises(ValueError):
        mse(model, np.zeros((0, 2)), np.zeros(0))


def test_mse_takes_one_target_per_row():
    """A column of targets is read as a vector; a count that differs is named."""
    model = _toy_model()
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(5, 2))
    y = predict_batch(model, X)
    assert mse(model, X, y.reshape(5, 1)) == 0.0
    for wrong in (y[:1], y[:3]):
        with pytest.raises(ValueError, match=f"^5 input rows but {len(wrong)} targets$"):
            mse(model, X, wrong)
