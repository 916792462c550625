"""Design matrices, least-squares fitting, and the surrogate wire format."""

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourier_surrogates import (
    CircuitConfig,
    ParameterSet,
    SpectrumDescriptor,
    SurrogateModel,
    build_complex_design,
    build_real_design,
    complex_fit_to_real,
    evaluate_terms,
    fit,
    full_grid,
    load_model,
    mse,
    predict_batch,
    surrogate_exact,
)
from fourier_surrogates.cli import _write_json

# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------


def test_complex_design_entries_by_hand():
    pts = np.array([[0.0, 0.0], [0.5, 1.0]])
    freqs = [(1, 0), (0, 2)]
    design = build_complex_design(pts, freqs)
    assert design.basis == "complex-exponential"
    assert design.column_frequencies == ((1, 0), (0, 2))
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
    assert design.basis == "real-trig"
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
    with pytest.raises(ValueError):
        build_complex_design(np.zeros((2, 3)), [(1, 0)])  # dimension mismatch


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
    # duplicated frequency -> rank-deficient design; the pseudoinverse
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


# ---------------------------------------------------------------------------
# complex -> real folding
# ---------------------------------------------------------------------------


def test_complex_fit_realness_on_full_lattice():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=12)
    desc = SpectrumDescriptor((1, 1))
    grid = full_grid(desc)
    lattice = list(itertools.product(*(range(-w, w + 1) for w in desc.omega_max)))
    from fourier_surrogates import expectation_batch

    y = expectation_batch(config, params, grid.points)
    coeffs, _ = fit(build_complex_design(grid.points, lattice), y)
    by_freq = dict(zip(lattice, coeffs))
    for f, c in by_freq.items():
        neg = tuple(-v for v in f)
        np.testing.assert_allclose(by_freq[neg], np.conj(c), atol=1e-12)


def test_complex_fit_to_real_warns_on_conjugate_leak():
    freqs = [(-1,), (0,), (1,)]
    bad = np.array([0.1 + 0.2j, 0.05 + 0.0j, 0.4 - 0.1j])  # not conjugate pairs
    with pytest.warns(UserWarning, match="leak"):
        complex_fit_to_real(freqs, bad)


def test_complex_fit_to_real_handles_missing_conjugates_quietly():
    # a canonical-only list with tiny coefficients folds without noise
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
    ],
)
def test_model_frequencies_have_d_integer_entries(omega_max, frequencies, match):
    with pytest.raises(ValueError, match=match):
        SurrogateModel(
            d=2, omega_max=omega_max, intercept=0.0, frequencies=frequencies,
            cos_coeffs=np.zeros(len(frequencies)), sin_coeffs=np.zeros(len(frequencies)),
            mode="rff", residual=0.0,
        )


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
    assert again.frequencies == model.frequencies
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
    for name in ("d", "omega_max", "intercept", "frequencies", "mode", "residual", "fingerprint"):
        assert getattr(again, name) == getattr(model, name), name
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
