"""Surrogation routes, trainer, memory estimator, and bound calculators."""

import ast
import collections
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fourier_surrogates import (
    BoundParams,
    CapExceeded,
    CircuitConfig,
    Dataset,
    DomainTooSmall,
    NoiseConfig,
    ParameterSet,
    SpectrumDescriptor,
    TrainConfig,
    bound_alpha_epsilon,
    bound_beta_d,
    bound_lrr_features,
    bound_min_features,
    canonical_count,
    empirical_kernel_sup,
    enumerate_canonical,
    estimate_memory,
    expectation_batch,
    fingerprint_of,
    fit,
    full_grid,
    kernel_error_probability,
    kernel_sup_term,
    lattice_kernel,
    lattice_size,
    mse,
    omega_max_of,
    predict_batch,
    sigma_p_of,
    surrogate_exact,
    surrogate_rff,
    train,
)
from fourier_surrogates import pipeline, simulator
from fourier_surrogates.simulator import mse_gradient
from adjoint_oracle import psi_lam_mse_gradient
from dense_oracle import build_complex_design, complex_fit_to_real
from shift_oracle import shots_train_oracle
from test_simulator import (
    _per_row_sampler,
    row_major_mse_gradient,
    row_major_run,
    row_major_state_coefficients,
)

# ---------------------------------------------------------------------------
# memory estimator
# ---------------------------------------------------------------------------


def test_estimate_worked_examples():
    est = estimate_memory(CircuitConfig(n_qubits=4, n_layers=2))
    assert est.grid_size == 625
    assert est.lattice_size == 625
    assert est.design_matrix_bytes == 6_250_000
    assert est.feasible_on == "laptop"

    est = estimate_memory(CircuitConfig(n_qubits=1, n_layers=1))
    assert est.grid_size == 3
    assert est.design_matrix_bytes == 144


def test_estimate_ratio_identity():
    for L in (1, 2, 3):
        prev = estimate_memory(CircuitConfig(n_qubits=3, n_layers=L))
        nxt = estimate_memory(CircuitConfig(n_qubits=4, n_layers=L))
        assert nxt.design_matrix_bytes % prev.design_matrix_bytes == 0
        assert nxt.design_matrix_bytes // prev.design_matrix_bytes == (2 * L + 1) ** 2


def test_estimate_tier_ladder():
    # 6 qubits at 2 layers still fits the 16 GB tier; 7 does not
    assert estimate_memory(CircuitConfig(n_qubits=6, n_layers=2)).feasible_on == "laptop"
    assert estimate_memory(CircuitConfig(n_qubits=7, n_layers=2)).feasible_on == "workstation"
    assert estimate_memory(CircuitConfig(n_qubits=9, n_layers=2)).feasible_on == "HPC"
    big = estimate_memory(CircuitConfig(n_qubits=13, n_layers=2))
    assert big.feasible_on == "infeasible"
    assert big.design_matrix_bytes == (5**13) ** 2 * 16


def test_estimate_json_carries_context():
    doc = estimate_memory(CircuitConfig(n_qubits=2, n_layers=1)).to_json_dict()
    assert doc["tier_limits_bytes"] == {
        "laptop": 16_000_000_000,
        "workstation": 8_000_000_000_000,
        "HPC": 1_500_000_000_000_000,
    }
    assert "note" in doc and "infeasible" in doc["note"]
    with pytest.raises(ValueError):
        estimate_memory(CircuitConfig(n_qubits=2, n_layers=1), bytes_per_entry=0)


# ---------------------------------------------------------------------------
# surrogation routes
# ---------------------------------------------------------------------------


def test_exact_surrogate_matches_circuit_off_grid():
    config = CircuitConfig(n_qubits=3, n_layers=2)
    params = ParameterSet.random(config, seed=7)
    model = surrogate_exact(config, params)
    assert model.mode == "exact"
    assert model.fingerprint == fingerprint_of(config, params)
    X = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(200, 3))
    truth = expectation_batch(config, params, X)
    np.testing.assert_allclose(predict_batch(model, X), truth, atol=1e-8)


def test_exact_surrogate_cap_carries_estimate():
    config = CircuitConfig(n_qubits=13, n_layers=2)
    params = ParameterSet.zeros(config)
    with pytest.raises(CapExceeded) as info:
        surrogate_exact(config, params, cap=10**6)
    assert info.value.size == 5**13
    assert info.value.estimate is not None
    assert info.value.estimate.feasible_on == "infeasible"


def _dense_exact(config, params):
    """The exact route as a dense complex least-squares solve over the full lattice."""
    desc = omega_max_of(config)
    points = full_grid(desc)
    lattice = list(itertools.product(*(range(-w, w + 1) for w in desc.omega_max)))
    y = expectation_batch(config, params, points)
    coeffs, _ = fit(build_complex_design(points, lattice), y)
    return complex_fit_to_real(lattice, coeffs)


_EXACT_ORACLE_CIRCUITS = [
    CircuitConfig(n_qubits=1, n_layers=2),
    CircuitConfig(n_qubits=3, n_layers=2),
    # non-uniform omega_max: T = (5, 3)
    CircuitConfig(n_qubits=3, n_layers=1, d_features=2, feature_assignment=(0, 0, 1)),
    # T = (3, 5, 3) under a custom coupling map
    CircuitConfig(
        n_qubits=4, n_layers=1, d_features=3, feature_assignment=(0, 1, 1, 2),
        coupling_map=((0, 3), (3, 1), (2, 1)),
    ),
    CircuitConfig(n_qubits=3, n_layers=2, coupling_map=((2, 0), (0, 1), (1, 2))),
]
_EXACT_ORACLE_IDS = ["1q2L", "3q2L", "T53", "T353-coupling", "3q2L-coupling"]


@pytest.mark.parametrize("config", _EXACT_ORACLE_CIRCUITS, ids=_EXACT_ORACLE_IDS)
def test_exact_fft_route_matches_dense_solve(config):
    for seed in range(3):
        params = ParameterSet.random(config, seed=seed)
        model = surrogate_exact(config, params)
        intercept, canon, a, b = _dense_exact(config, params)
        assert np.array_equal(model.frequencies, canon)
        assert abs(model.intercept - intercept) <= 1e-12
        np.testing.assert_allclose(model.cos_coeffs, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.sin_coeffs, b, rtol=0, atol=1e-12)
        assert model.residual <= 1e-12


def _grid_exact(config, params):
    """The exact route by simulating every grid point: grid, expectation_batch, fftn."""
    desc = omega_max_of(config)
    points = full_grid(desc)
    T = tuple(2 * w + 1 for w in desc.omega_max)
    y = expectation_batch(config, params, points).reshape(T)
    F = np.fft.fftn(y) / y.size
    canon = enumerate_canonical(desc, cap=y.size)
    c = F[tuple((np.asarray(canon) % T).T)]
    return float(F.flat[0].real), canon, 2.0 * c.real, -2.0 * c.imag


def _assert_matches_grid_route(config, params):
    model = surrogate_exact(config, params)
    intercept, canon, a, b = _grid_exact(config, params)
    assert np.array_equal(model.frequencies, canon)
    assert abs(model.intercept - intercept) <= 1e-12
    np.testing.assert_allclose(model.cos_coeffs, a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.sin_coeffs, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    _EXACT_ORACLE_CIRCUITS + [
        # d_features < n_qubits, feature 1 on three qubits, reversed coupling map
        CircuitConfig(
            n_qubits=4, n_layers=2, d_features=2, feature_assignment=(1, 0, 1, 1),
            coupling_map=((3, 2), (2, 1), (1, 0)),
        ),
        CircuitConfig(n_qubits=4, n_layers=3),
    ],
    ids=_EXACT_ORACLE_IDS + ["d2-repeated-reversed", "4q3L"],
)
def test_exact_coefficient_route_matches_grid_simulation(config):
    for seed in range(3):
        _assert_matches_grid_route(config, ParameterSet.random(config, seed=seed))


def _bins_fold(config, params):
    """The exact route's read-out vector by vector: each canonical w gathered
    from the uncentred spectrum at w mod T, the series scattered back at
    +-w mod T."""
    desc = omega_max_of(config)
    size = lattice_size(desc)
    T = tuple(2 * w + 1 for w in desc.omega_max)
    coeffs = simulator.state_coefficients(config, params)
    y = pipeline._grid_values(coeffs, T, simulator._mean_z_diagonal(config.n_qubits))
    F = np.fft.fftn(y) / size
    canonical = enumerate_canonical(desc, cap=size)
    freqs = np.asarray(canonical)
    bins = tuple((freqs % T).T)
    c = F[bins]
    series = np.zeros_like(F)
    series[bins] = c
    series[tuple((-freqs % T).T)] = np.conj(c)
    series.flat[0] = F.flat[0].real
    residual = float(np.linalg.norm(np.fft.ifftn(series).real * size - y))
    return float(F.flat[0].real), canonical, 2.0 * c.real, -2.0 * c.imag, residual


@pytest.mark.parametrize(
    "config",
    # 6q2L: N = 15 625 takes several inverse-FFT blocks
    _EXACT_ORACLE_CIRCUITS + [CircuitConfig(n_qubits=6, n_layers=2)],
    ids=_EXACT_ORACLE_IDS + ["6q2L"],
)
def test_exact_box_order_read_matches_bins_fold_bitwise(config):
    for seed in range(3):
        params = ParameterSet.random(config, seed=seed)
        model = surrogate_exact(config, params, cap=10**5)
        intercept, canon, a, b, residual = _bins_fold(config, params)
        assert np.array_equal(model.frequencies, canon)
        assert model.intercept == intercept
        assert np.array_equal(model.cos_coeffs, a)
        assert np.array_equal(model.sin_coeffs, b)
        assert model.residual == residual


def test_exact_surrogate_simulates_no_grid_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route simulated grid points")

    monkeypatch.setattr(pipeline, "expectation_batch", refuse)
    monkeypatch.setattr(simulator, "_forward", refuse)
    config = CircuitConfig(n_qubits=6, n_layers=2)
    params = ParameterSet.random(config, seed=5)
    blocks = []
    ifftn = np.fft.ifftn

    def recording(a, *args, **kwargs):
        out = ifftn(a, *args, **kwargs)
        if out.ndim == config.d_features + 1:  # one block of basis states
            blocks.append(out.shape[-1])
        return out

    monkeypatch.setattr(np.fft, "ifftn", recording)
    model = surrogate_exact(config, params, cap=5**6)
    monkeypatch.undo()
    assert sum(blocks) == 2**6 and len(blocks) > 1
    assert max(blocks) * 5**6 <= 4096 * 2**6
    assert model.residual <= 1e-10
    X = np.random.default_rng(4).uniform(0, 2 * np.pi, size=(200, 6))
    truth = expectation_batch(config, params, X)
    np.testing.assert_allclose(predict_batch(model, X), truth, rtol=0, atol=1e-8)


def test_exact_route_bytes_tracks_the_measured_peak():
    config = CircuitConfig(n_qubits=6, n_layers=2)
    params = ParameterSet.random(config, seed=5)
    tracemalloc.start()
    try:
        surrogate_exact(config, params, cap=5**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = estimate_memory(config).exact_route_bytes
    assert peak / 2 <= estimate <= 2 * peak


def test_rff_equals_exact_in_the_full_limit():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=31)
    desc = SpectrumDescriptor((1, 1))
    exact = surrogate_exact(config, params)
    rff = surrogate_rff(config, params, full_grid(desc), D=4, seed=0)
    assert rff.mode == "rff"
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(100, 2))
    np.testing.assert_allclose(predict_batch(rff, X), predict_batch(exact, X), atol=1e-8)


@st.composite
def _full_limit_circuit(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, n))
    spare = draw(st.lists(st.integers(0, d - 1), min_size=n - d, max_size=n - d))
    assignment = draw(st.permutations(list(range(d)) + spare))
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    coupling = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    config = CircuitConfig(
        n_qubits=n, n_layers=draw(st.integers(1, 2)), d_features=d,
        coupling_map=tuple(coupling), feature_assignment=tuple(assignment),
    )
    return config, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_full_limit_circuit())
def test_rff_equals_exact_in_the_full_limit_on_drawn_circuits(case):
    config, seed = case
    params = ParameterSet.random(config, seed=seed)
    desc = omega_max_of(config)
    exact = surrogate_exact(config, params)
    rff = surrogate_rff(
        config, params, full_grid(desc), D=canonical_count(desc), seed=seed
    )
    X = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=(50, config.d_features))
    np.testing.assert_allclose(predict_batch(rff, X), predict_batch(exact, X), rtol=0, atol=1e-8)


def test_rff_is_deterministic_and_validated():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=1)
    X = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(30, 2))
    m1 = surrogate_rff(config, params, X, D=3, seed=5)
    m2 = surrogate_rff(config, params, X, D=3, seed=5)
    assert np.array_equal(m1.frequencies, m2.frequencies)
    np.testing.assert_array_equal(m1.cos_coeffs, m2.cos_coeffs)
    with pytest.raises(ValueError):
        surrogate_rff(config, params, X, D=0)
    with pytest.raises(ValueError):
        surrogate_rff(config, params, np.zeros((0, 2)), D=1)
    with pytest.raises(ValueError):
        surrogate_rff(config, params, np.zeros((4, 3)), D=1)


def test_rff_median_mse_improves_with_more_frequencies():
    # on normalized data (features in [0, 1], the regime the preprocessing
    # pipeline feeds) more sampled frequencies steadily buy accuracy
    config = CircuitConfig(n_qubits=6, n_layers=2)
    params = ParameterSet.random(config, seed=17)
    rng = np.random.default_rng(4)
    X_fit = rng.random((500, 6))
    X_test = rng.random((200, 6))
    y_test = expectation_batch(config, params, X_test)
    medians = []
    for D in (25, 50, 100, 200):
        errs = [
            mse(surrogate_rff(config, params, X_fit, D=D, seed=s), X_test, y_test)
            for s in range(20)
        ]
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_rff_under_noise_still_fits():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=2)
    X = np.random.default_rng(6).uniform(0, 2 * np.pi, size=(60, 2))
    noisy = surrogate_rff(config, params, X, D=4, seed=0, noise=NoiseConfig(shots=512, seed=9))
    clean = surrogate_rff(config, params, X, D=4, seed=0)
    assert np.array_equal(noisy.frequencies, clean.frequencies)
    assert not np.array_equal(noisy.cos_coeffs, clean.cos_coeffs)
    assert noisy.residual > 0


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_iters=-1)
    with pytest.raises(ValueError):
        TrainConfig(shots=0)
    with pytest.raises(ValueError):
        TrainConfig(tol=-0.1)
    assert TrainConfig(max_iters=0).max_iters == 0


def test_zero_iteration_train_returns_init():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    ds = Dataset(
        X=np.random.default_rng(1).uniform(0, 2 * np.pi, size=(10, 2)),
        y=np.zeros(10),
    )
    init = ParameterSet.random(config, seed=8)
    params, history = train(config, ds, TrainConfig(max_iters=0), init=init)
    np.testing.assert_array_equal(params.angles, init.angles)
    assert len(history) == 1


def test_train_learns_cosine():
    config = CircuitConfig(n_qubits=1, n_layers=1)
    xs = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(30, 1))
    ds = Dataset(X=xs, y=np.cos(xs[:, 0]))
    params, history = train(config, ds, TrainConfig(learning_rate=0.2, max_iters=300, seed=0))
    assert history[-1] <= 1e-3
    assert history[-1] <= history[0]
    assert len(history) == 301


def test_train_rejects_unscaled_targets():
    config = CircuitConfig(n_qubits=1, n_layers=1)
    ds = Dataset(X=np.zeros((5, 1)), y=np.array([0.0, 0.5, 1.5, 0.2, -0.1]))
    with pytest.raises(ValueError):
        train(config, ds, TrainConfig(max_iters=1))


def test_train_tolerance_stops_early():
    config = CircuitConfig(n_qubits=1, n_layers=1)
    xs = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(20, 1))
    ds = Dataset(X=xs, y=np.cos(xs[:, 0]))
    _, history = train(
        config, ds, TrainConfig(learning_rate=0.2, max_iters=400, seed=0, tol=1e-4)
    )
    assert len(history) < 401


def test_parameter_shift_matches_finite_differences():
    config = CircuitConfig(n_qubits=2, n_layers=2)
    params = ParameterSet.random(config, seed=13)
    x = np.array([0.9, 2.1])
    h = 1e-5
    flat = params.angles.reshape(-1)
    shape = params.angles.shape
    for j in range(flat.size):
        shifted = flat.copy()
        shifted[j] += np.pi / 2
        f_plus = expectation_batch(config, ParameterSet(shifted.reshape(shape)), [x])[0]
        shifted[j] -= np.pi
        f_minus = expectation_batch(config, ParameterSet(shifted.reshape(shape)), [x])[0]
        shift_grad = (f_plus - f_minus) / 2.0

        shifted = flat.copy()
        shifted[j] += h
        g_plus = expectation_batch(config, ParameterSet(shifted.reshape(shape)), [x])[0]
        shifted[j] -= 2 * h
        g_minus = expectation_batch(config, ParameterSet(shifted.reshape(shape)), [x])[0]
        fd_grad = (g_plus - g_minus) / (2 * h)
        assert abs(shift_grad - fd_grad) <= 1e-6


def _shift_gradient(config, params, X, y):
    """Predictions and the MSE gradient by the parameter-shift rule, 2P+1 passes."""
    preds = expectation_batch(config, params, X)
    flat = params.angles.reshape(-1)
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        shifted = flat.copy()
        shifted[j] += np.pi / 2
        f_plus = expectation_batch(config, ParameterSet(shifted.reshape(params.angles.shape)), X)
        shifted[j] -= np.pi
        f_minus = expectation_batch(config, ParameterSet(shifted.reshape(params.angles.shape)), X)
        grad[j] = np.mean(2.0 * (preds - y) * (f_plus - f_minus) / 2.0)
    return preds, grad.reshape(params.angles.shape)


def _assert_adjoint_matches_shift(config, params, X, y):
    preds, grad = mse_gradient(config, params, X, y)
    shift_preds, shift_grad = _shift_gradient(config, params, X, y)
    np.testing.assert_array_equal(preds, shift_preds)
    assert grad.shape == params.angles.shape
    np.testing.assert_allclose(grad, shift_grad, rtol=0, atol=1e-10)


def _random_data(config, rows, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 2 * np.pi, size=(rows, config.d_features))
    return X, rng.uniform(-1, 1, size=rows)


@pytest.mark.parametrize(
    "config",
    [
        CircuitConfig(n_qubits=3, n_layers=1),
        CircuitConfig(n_qubits=3, n_layers=2),
        CircuitConfig(n_qubits=3, n_layers=3),
        CircuitConfig(n_qubits=4, n_layers=2, coupling_map=((3, 2), (2, 1), (1, 0))),
        CircuitConfig(n_qubits=4, n_layers=2, coupling_map=((0, 2), (3, 1), (1, 3))),
        CircuitConfig(n_qubits=4, n_layers=2, d_features=2, feature_assignment=(1, 1, 0, 1)),
    ],
    ids=["chain-1L", "chain-2L", "chain-3L", "reversed", "non-adjacent", "d2-assigned"],
)
def test_adjoint_gradient_matches_parameter_shift(config):
    for seed in range(2):
        X, y = _random_data(config, rows=9, seed=seed)
        _assert_adjoint_matches_shift(config, ParameterSet.random(config, seed=seed), X, y)


def test_adjoint_gradient_reaches_zero_angles():
    config = CircuitConfig(n_qubits=3, n_layers=2, coupling_map=((2, 0), (0, 1)))
    X, y = _random_data(config, rows=11, seed=7)
    angles = ParameterSet.random(config, seed=7).angles
    angles[0, 0, 0] = angles[1, 2, 1] = angles[2, 1, 2] = 0.0
    angles[1, 0] = 0.0
    _assert_adjoint_matches_shift(config, ParameterSet(angles), X, y)
    _assert_adjoint_matches_shift(config, ParameterSet.zeros(config), X, y)


@st.composite
def _small_circuit(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    spare = draw(st.lists(st.integers(0, d - 1), min_size=n - d, max_size=n - d))
    assignment = draw(st.permutations(list(range(d)) + spare))
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    coupling = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    config = CircuitConfig(
        n_qubits=n, n_layers=draw(st.integers(1, 3)), d_features=d,
        coupling_map=tuple(coupling), feature_assignment=tuple(assignment),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    angles = ParameterSet.random(config, seed=seed).angles
    angles[np.random.default_rng(seed).random(angles.shape) < 0.2] = 0.0
    X, y = _random_data(config, rows=draw(st.integers(1, 30)), seed=seed)
    return config, ParameterSet(angles), X, y


@settings(max_examples=40, deadline=None)
@given(_small_circuit())
def test_adjoint_gradient_matches_parameter_shift_on_drawn_circuits(case):
    _assert_adjoint_matches_shift(*case)


@settings(max_examples=40, deadline=None)
@given(_small_circuit())
def test_exact_coefficient_route_matches_grid_simulation_on_drawn_circuits(case):
    config, params, _, _ = case
    _assert_matches_grid_route(config, params)


@settings(max_examples=40, deadline=None)
@given(_small_circuit())
def test_simulator_equals_the_row_major_oracle_on_drawn_circuits(case):
    """States and coefficient tensors bit for bit, adjoint gradients to 1e-12."""
    config, params, X, y = case
    states = simulator.run_circuit_batch(config, params, X)
    assert states.flags.c_contiguous
    np.testing.assert_array_equal(states, row_major_run(config, params, X))
    np.testing.assert_array_equal(
        simulator.state_coefficients(config, params), row_major_state_coefficients(config, params)
    )
    preds, grad = mse_gradient(config, params, X, y)
    oracle_preds, oracle_grad = row_major_mse_gradient(config, params, X, y)
    np.testing.assert_array_equal(preds, oracle_preds)
    np.testing.assert_allclose(grad, oracle_grad, rtol=0, atol=1e-12)


def test_exact_route_is_unchanged_by_the_coefficient_layout(monkeypatch):
    config = CircuitConfig(n_qubits=3, n_layers=2, d_features=2, feature_assignment=(1, 0, 1))
    params = ParameterSet.random(config, seed=23)
    model = surrogate_exact(config, params)
    monkeypatch.setattr(pipeline, "state_coefficients", row_major_state_coefficients)
    assert model.to_json_dict() == surrogate_exact(config, params).to_json_dict()


@pytest.mark.parametrize(
    "config",
    [CircuitConfig(n_qubits=3, n_layers=2), CircuitConfig(n_qubits=4, n_layers=3, d_features=2)],
    ids=["3q2L", "4q3L-d2"],
)
def test_adjoint_sweep_un_applies_each_qubits_rotations_in_one_kernel_call(monkeypatch, config):
    """Per block and qubit one fused 2x2; only encodings go through ``_rotate_batch`` backwards."""
    calls = {"_apply_1q": 0, "_rotate_batch": 0}

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    X, y = _random_data(config, rows=5, seed=1)
    mse_gradient(config, ParameterSet.random(config, seed=1), X, y)
    n, L = config.n_qubits, config.n_layers
    # forward: every rotation and encoding; backward: every encoding
    assert calls["_rotate_batch"] == 3 * n * (L + 1) + 2 * n * L
    # each _rotate_batch call is one _apply_1q call; the rest are the fused un-applies
    assert calls["_apply_1q"] - calls["_rotate_batch"] == (L + 1) * n


def test_adjoint_gradient_holds_four_state_sized_arrays():
    """psi and lam side by side in two buffers, the forward pass inside them."""
    config = CircuitConfig(n_qubits=8, n_layers=2)
    X, y = _random_data(config, rows=350, seed=2)
    params = ParameterSet.random(config, seed=2)
    tracemalloc.start()
    try:
        mse_gradient(config, params, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * 2**8 * 350


def test_adjoint_gradient_holds_l_plus_two_state_sized_arrays():
    """The L saved block starts and the two sweep buffers: growth with L is linear."""
    config = CircuitConfig(n_qubits=8, n_layers=4)
    X, y = _random_data(config, rows=350, seed=2)
    params = ParameterSet.random(config, seed=2)
    tracemalloc.start()
    try:
        mse_gradient(config, params, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (config.n_layers + 2.5) * 16 * 2**8 * 350


def _assert_adjoint_matches_the_psi_lam_sweep(config, params, X, y):
    preds, grad = mse_gradient(config, params, X, y)
    oracle_preds, oracle_grad = psi_lam_mse_gradient(config, params, X, y)
    np.testing.assert_array_equal(preds, oracle_preds)
    np.testing.assert_allclose(grad, oracle_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        CircuitConfig(n_qubits=3, n_layers=1),
        CircuitConfig(n_qubits=4, n_layers=2, coupling_map=((3, 2), (2, 1), (1, 0))),
        CircuitConfig(n_qubits=3, n_layers=3, coupling_map=((0, 1), (0, 1), (1, 2), (0, 1))),
        CircuitConfig(
            n_qubits=4, n_layers=4, d_features=2, coupling_map=((0, 2), (3, 1), (1, 3)),
            feature_assignment=(1, 1, 0, 1),
        ),
        CircuitConfig(
            n_qubits=5, n_layers=2, d_features=3, coupling_map=((4, 0), (1, 3), (4, 0)),
            feature_assignment=(2, 0, 1, 0, 2),
        ),
        CircuitConfig(n_qubits=2, n_layers=3, coupling_map=()),
    ],
    ids=[
        "chain-1L", "reversed-2L", "repeated-3L", "non-adjacent-d2-4L", "d3-of-5q-2L",
        "uncoupled-3L",
    ],
)
def test_adjoint_gradient_matches_the_psi_lam_sweep(config):
    """Predictions bit for bit, gradients to 1e-12, with some angles exactly 0.0."""
    for seed in range(2):
        X, y = _random_data(config, rows=17, seed=seed)
        angles = ParameterSet.random(config, seed=seed).angles
        angles[np.random.default_rng(seed).random(angles.shape) < 0.25] = 0.0
        angles[seed, -1] = 0.0
        _assert_adjoint_matches_the_psi_lam_sweep(config, ParameterSet(angles), X, y)


@settings(max_examples=40, deadline=None)
@given(_small_circuit())
def test_adjoint_gradient_matches_the_psi_lam_sweep_on_drawn_circuits(case):
    _assert_adjoint_matches_the_psi_lam_sweep(*case)


def test_noiseless_training_matches_parameter_shift_descent():
    config = CircuitConfig(n_qubits=3, n_layers=2, coupling_map=((0, 2), (2, 1)))
    X, y = _random_data(config, rows=15, seed=3)
    init = ParameterSet.random(config, seed=3)
    params, history = train(
        config, Dataset(X=X, y=y), TrainConfig(learning_rate=0.3, max_iters=3), init=init
    )
    angles = init.angles.copy()
    shift_history = []
    for _ in range(3):
        preds, grad = _shift_gradient(config, ParameterSet(angles), X, y)
        shift_history.append(float(np.mean((preds - y) ** 2)))
        angles = angles - 0.3 * grad
    final = expectation_batch(config, ParameterSet(angles), X)
    shift_history.append(float(np.mean((final - y) ** 2)))
    np.testing.assert_allclose(params.angles, angles, rtol=0, atol=1e-12)
    np.testing.assert_allclose(history, shift_history, rtol=0, atol=1e-12)


@pytest.mark.parametrize("config", [CircuitConfig(3, 2), CircuitConfig(4, 3)], ids=["P27", "P48"])
def test_noiseless_training_costs_a_few_forward_passes(monkeypatch, config):
    """One iteration applies at most 6 forward passes' gates, whatever P is."""
    gates = []

    def counted(kernel):
        def wrapper(*args):
            gates.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    for name in ("_rotate_batch", "_cnot_batch"):
        monkeypatch.setattr(simulator, name, counted(getattr(simulator, name)))
    X, y = _random_data(config, rows=5, seed=0)
    init = ParameterSet.random(config, seed=0)
    expectation_batch(config, init, X)
    forward = len(gates)
    gates.clear()
    train(config, Dataset(X=X, y=y), TrainConfig(max_iters=1), init=init)
    assert 0 < len(gates) <= 6 * forward


def _shots_case():
    config = CircuitConfig(n_qubits=3, n_layers=2)
    X = np.random.default_rng(21).uniform(0, 2 * np.pi, size=(12, 3))
    y = 0.8 * np.cos(X[:, 0]) * np.sin(X[:, 1] - X[:, 2])
    return config, Dataset(X=X, y=y)


def test_shots_training_is_unchanged():
    """Shots training keeps parameter-shift: the recorded run, bit for bit."""
    config, ds = _shots_case()
    params, history = train(config, ds, TrainConfig(shots=256, max_iters=2))
    assert history == [0.18939045715145397, 0.18279245684705567, 0.1809527859638326]
    assert params.angles.reshape(-1).tolist() == [
        4.012492177104146, 1.6992405080106987, 0.24772768163533126,
        0.11074799077740166, 5.126515844683785, 5.7368614690509085,
        3.8021361979237374, 4.5782537779161725, 3.405305302357229,
        5.8633883073860265, 5.118856100029731, 0.01621835324828031,
        5.37716410178516, 0.21642848226472003, 4.5783283725251405,
        1.1013401033408337, 5.41729773356541, 3.3894846224081054,
        1.9152346365064452, 2.67035556628788, 0.17903563031032413,
        0.7775722639361234, 4.212808935444446, 4.06460660338324,
        3.855249631669956, 2.4009045795390067, 6.267226950147588,
    ]


def test_shots_training_with_the_per_row_sampler_is_the_earlier_recording(monkeypatch):
    """Only the shot sampler changed: with the per-row sampler injected,
    shots training reproduces the run recorded before weight-class
    sampling, bit for bit."""
    monkeypatch.setattr(simulator, "_shot_estimates", _per_row_sampler)
    config, ds = _shots_case()
    params, history = train(config, ds, TrainConfig(shots=256, max_iters=2))
    assert history == [0.19335248595696006, 0.18544437035647865, 0.1687308739086709]
    assert params.angles.reshape(-1).tolist() == [
        4.0107016197189775, 1.696815418481997, 0.24827022414241168,
        0.10576362404805506, 5.127218433245488, 5.740327211570802,
        3.7991934039858757, 4.585336590199684, 3.4040324768575054,
        5.864733924385486, 5.116948970634222, 0.00946521793587414,
        5.376026070701326, 0.21484599212606256, 4.580126815465139,
        1.09918201062869, 5.41659966526056, 3.387406069700997,
        1.915282362445886, 2.672866080711612, 0.17493164211891948,
        0.7797170359165637, 4.209977724707868, 4.066080587378857,
        3.855050842925005, 2.395349692940265, 6.265649125023958,
    ]


def _recording_sampler(seeds: list):
    """``simulator._shot_estimates``, appending each seed it draws with to ``seeds``."""
    sampler = simulator._shot_estimates

    def recording(probs, shots, seed):
        seeds.append(seed)
        return sampler(probs, shots, seed)

    return recording


def test_shots_iteration_makes_2p_plus_1_sampled_evaluations(monkeypatch):
    """Counted where every sampled evaluation draws its shots, scoring or shifted."""
    seeds = []
    monkeypatch.setattr(simulator, "_shot_estimates", _recording_sampler(seeds))
    config, ds = _shots_case()
    train(config, ds, TrainConfig(shots=256, max_iters=2))
    n_angles = 3 * 3 * 3
    assert len(seeds) == 1 + 2 * (2 * n_angles + 1)
    assert seeds == list(range(seeds[0], seeds[0] + len(seeds)))


@st.composite
def _shots_training_case(draw):
    """A circuit with a non-adjacent and a reversed CNOT, d < n under a drawn
    feature assignment, and angles at exactly 0.0 and at +-pi/2, so that
    some shifted angles land on 0.0 too."""
    n = draw(st.integers(3, 4))
    d = draw(st.integers(1, n - 1))
    spare = draw(st.lists(st.integers(0, d - 1), min_size=n - d, max_size=n - d))
    assignment = draw(st.permutations(list(range(d)) + spare))
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    far = draw(st.sampled_from([(c, t) for c, t in pairs if abs(c - t) > 1]))
    back = draw(st.sampled_from([(c, t) for c, t in pairs if c > t]))
    more = draw(st.lists(st.sampled_from(pairs), max_size=2))
    coupling = draw(st.permutations([far, back] + more))
    config = CircuitConfig(
        n_qubits=n, n_layers=draw(st.integers(1, 2)), d_features=d,
        coupling_map=tuple(coupling), feature_assignment=tuple(assignment),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    angles = ParameterSet.random(config, seed=seed).angles
    flat = angles.reshape(-1)
    where = draw(st.lists(st.integers(0, flat.size - 1), min_size=3, max_size=8, unique=True))
    flat[where[0]] = 0.0
    for j in where[1:]:
        flat[j] = draw(st.sampled_from([0.0, math.pi / 2, -math.pi / 2]))
    X, y = _random_data(config, rows=draw(st.integers(1, 25)), seed=seed)
    tc = TrainConfig(
        shots=draw(st.sampled_from([1, 64, 1000])),
        max_iters=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    return config, Dataset(X=X, y=y), tc, ParameterSet(angles)


@settings(max_examples=30, deadline=None)
@given(_shots_training_case())
def test_shots_training_equals_the_full_pass_oracle_on_drawn_circuits(case):
    """Resumed shifted evaluations give the full passes' parameters, losses and seeds."""
    config, ds, tc, init = case
    seeds, oracle_seeds = [], []
    with mock.patch.object(simulator, "_shot_estimates", _recording_sampler(seeds)):
        params, history = train(config, ds, tc, init=init)
    with mock.patch.object(simulator, "_shot_estimates", _recording_sampler(oracle_seeds)):
        oracle_params, oracle_history = shots_train_oracle(config, ds, tc, init)
    assert history == oracle_history
    assert params.angles.tolist() == oracle_params.angles.tolist()
    assert seeds == oracle_seeds


@settings(max_examples=30, deadline=None)
@given(_shots_training_case())
def test_every_shifted_state_from_the_probes_is_a_direct_walks(case):
    """Each shifted circuit's |psi'|^2, combined from its qubit's three probe
    walks, is that of ``run_circuit_batch`` at the shifted angles, to 1e-12;
    the scoring pass's is the unshifted circuit's, bit for bit."""
    config, ds, tc, init = case
    seen = []

    def recording(probs, shots, seed):
        seen.append(probs.copy())
        return np.zeros(len(probs))

    with mock.patch.object(simulator, "_shot_estimates", recording):
        simulator._shots_gradient(config, init, ds.X, ds.y, tc.shots, itertools.count())
    flat = init.angles.reshape(-1)
    direct = [simulator.run_circuit_batch(config, init, ds.X)]
    for j in range(flat.size):
        for step in (math.pi / 2, -math.pi / 2):
            shifted = flat.copy()
            shifted[j] += step
            params = ParameterSet(shifted.reshape(init.angles.shape))
            direct.append(simulator.run_circuit_batch(config, params, ds.X))
    assert len(seen) == len(direct) == 1 + 2 * flat.size
    np.testing.assert_array_equal(seen[0], np.abs(direct[0]) ** 2)
    for probs, states in zip(seen[1:], direct[1:]):
        np.testing.assert_allclose(probs, np.abs(states) ** 2, rtol=0, atol=1e-12)


def test_shots_iteration_walks_each_shifted_evaluation_from_its_block(monkeypatch):
    """One shots iteration applies the hand count of rotations, by width: a
    full pass to score angles 0 that saves each block's start, one walk of
    each block's rotations from that start, one probe batch per (block,
    qubit) from there to the end, and a full pass to score angles 1."""
    widths = []
    rotate = simulator._rotate_batch

    def counting(states, *args):
        widths.append(states.shape[1])
        return rotate(states, *args)

    monkeypatch.setattr(simulator, "_rotate_batch", counting)
    config = CircuitConfig(n_qubits=3, n_layers=2)
    X, y = _random_data(config, rows=6, seed=4)
    init = ParameterSet.random(config, seed=4)  # no angle is 0.0 or +-pi/2
    train(config, Dataset(X=X, y=y), TrainConfig(shots=32, max_iters=1), init=init)
    n, L, rows = config.n_qubits, config.n_layers, len(X)

    def after(b):
        """Encodings and rotations after W_b, to the end."""
        return 4 * n * (L - b)

    rest = sum(3 * (n - 1 - q) for q in range(n))  # a block's rotations after each qubit's
    assert collections.Counter(widths) == {
        1: 2 * 3 * n + 3 * n,  # W_0 on one column: two full passes, then the prefix
        rows: 2 * after(0) + 3 * n * L,  # the full passes' rest, the prefixes of W_1..W_L
        3: rest,  # the rest of W_0 on the three probe columns
        3 * rows: rest * L + n * sum(after(b) for b in range(L + 1)),  # the probe batches
    }
    assert len(widths) < (2 + 2 * init.angles.size) * (3 * n + after(0))


def _walk_entries():
    config = CircuitConfig(n_qubits=3, n_layers=2)
    params = ParameterSet.random(config, seed=5)
    X, y = _random_data(config, rows=7, seed=5)
    shots = NoiseConfig(shots=16, seed=1)
    return {
        "run_circuit_batch": lambda: simulator.run_circuit_batch(config, params, X),
        "expectation_batch": lambda: expectation_batch(config, params, X),
        "expectation_batch-shots": lambda: expectation_batch(config, params, X, shots),
        "mse_gradient": lambda: mse_gradient(config, params, X, y),
        "train-shots": lambda: train(
            config, Dataset(X=X, y=y), TrainConfig(shots=16, max_iters=1), init=params
        ),
    }


@pytest.mark.parametrize("caller", [None, 2048], ids=["default", "caller-set"])
@pytest.mark.parametrize("entry", sorted(_walk_entries()))
def test_walks_scope_the_ufunc_buffer_and_restore_the_callers(monkeypatch, entry, caller):
    """Every kernel runs at the walks' buffer size; the caller's size is back
    after the call returns, and after a kernel raises halfway through."""
    call = _walk_entries()[entry]
    previous = np.getbufsize()
    seen, fail_at = [], []
    apply_1q = simulator._apply_1q

    def recording(*args):
        seen.append(np.getbufsize())
        if len(seen) in fail_at:
            raise RuntimeError("kernel failed")
        return apply_1q(*args)

    monkeypatch.setattr(simulator, "_apply_1q", recording)
    try:
        if caller is not None:
            np.setbufsize(caller)
        expected = np.getbufsize()
        call()
        assert np.getbufsize() == expected
        assert set(seen) == {simulator._WALK_BUFSIZE}
        fail_at.append(len(seen) // 2)
        seen.clear()
        with pytest.raises(RuntimeError, match="kernel failed"):
            call()
        assert np.getbufsize() == expected
    finally:
        np.setbufsize(previous)


def _walk_outputs(config, params, X, y):
    """Every output of the four walk entry points, exact and sampled."""
    f, grad = mse_gradient(config, params, X, y)
    shot_f, shot_grad = simulator._shots_gradient(config, params, X, y, 64, itertools.count(3))
    return {
        "run_circuit_batch": simulator.run_circuit_batch(config, params, X),
        "expectation_batch": expectation_batch(config, params, X),
        "expectation_batch-shots": expectation_batch(config, params, X, NoiseConfig(64, seed=2)),
        "mse_gradient-f": f,
        "mse_gradient-grad": grad,
        "_shots_gradient-f": shot_f,
        "_shots_gradient-grad": shot_grad,
    }


def _assert_row_tiles_change_no_bit(config, params, X, y, width):
    """Walked in tiles of at most ``width`` rows, every output is the one-tile
    walk's, bit for bit; with more rows than ``width`` every walk is tiled."""
    dim = 2**config.n_qubits
    with mock.patch.object(simulator, "_TILE_BYTES", 1 << 62):
        whole = _walk_outputs(config, params, X, y)
    walk_rows = simulator._walk_rows
    widths, tiles = [], []

    def recording(*args):
        widths.append(args[3].shape[1])
        tiles.append(args[6])
        return walk_rows(*args)

    with mock.patch.object(simulator, "_TILE_BYTES", 2 * 16 * dim * width), \
            mock.patch.object(simulator, "_walk_rows", recording):
        tiled = _walk_outputs(config, params, X, y)
    for name, value in whole.items():
        np.testing.assert_array_equal(tiled[name], value, err_msg=name)
    assert max(widths) <= width
    if len(X) > width:
        assert slice(None) not in tiles


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 7, 8])
def test_row_tiles_change_no_bit(rows, width):
    """Tiles of 1-3 rows, with an uneven last tile at 7 rows, and one row alone."""
    config = CircuitConfig(n_qubits=3, n_layers=2, coupling_map=((2, 0), (0, 1)))
    X, y = _random_data(config, rows=rows, seed=rows)
    angles = ParameterSet.random(config, seed=width).angles
    angles[1, 0, 1] = 0.0
    _assert_row_tiles_change_no_bit(config, ParameterSet(angles), X, y, width)


@settings(max_examples=30, deadline=None)
@given(_small_circuit(), st.integers(1, 3))
def test_row_tiles_change_no_bit_on_drawn_circuits(case, width):
    _assert_row_tiles_change_no_bit(*case, width)


def test_tile_rows_takes_the_fewest_equal_tiles_that_fit():
    dim = 2**8
    pair = 2 * 16 * dim
    with mock.patch.object(simulator, "_TILE_BYTES", 175 * pair):
        assert simulator._tile_rows(dim, 175) == 175
        assert simulator._tile_rows(dim, 350) == 175
        assert simulator._tile_rows(dim, 1050) == 175
        assert simulator._tile_rows(dim, 351) == 117
        assert simulator._tile_rows(dim, 176) == 88
    with mock.patch.object(simulator, "_TILE_BYTES", pair // 2):
        assert simulator._tile_rows(dim, 1) == 1
        assert simulator._tile_rows(dim, 2) == 1
        assert simulator._tile_rows(dim, 3) == 1
    # both tile buffers come out of one batch buffer: at most half its rows
    with mock.patch.object(simulator, "_TILE_BYTES", 2 * pair):
        assert simulator._tile_rows(dim, 3) == 1
    # the shipped budget walks the showcase's 8q/350-row batch in two tiles
    assert simulator._tile_rows(dim, 350) == 175
    assert simulator._tile_rows(2**7, 350) == 350


def test_row_tiled_forward_holds_two_state_sized_buffers():
    """The tiles are carved from the walk's spare buffer, not allocated."""
    config = CircuitConfig(n_qubits=8, n_layers=2)
    X, _ = _random_data(config, rows=350, seed=2)
    params = ParameterSet.random(config, seed=2)
    expectation_batch(config, params, X)  # the cached permutations and observables
    tracemalloc.start()
    try:
        expectation_batch(config, params, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 2 * 16 * 2**8 * 350


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------


def test_beta_d_hand_values():
    assert abs(bound_beta_d(1) - 12.0) <= 1e-9
    assert abs(bound_beta_d(2) - 2.0**4.5) <= 1e-12
    values = [bound_beta_d(d) for d in range(1, 11)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        bound_beta_d(0)


def test_alpha_epsilon_examples():
    assert bound_alpha_epsilon(0.1, 1.0) == 1.0
    assert abs(bound_alpha_epsilon(0.3, 0.4) - 0.5) <= 1e-15
    assert bound_alpha_epsilon(3.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        bound_alpha_epsilon(0.0, 0.5)


def test_min_features_formula_and_monotonicity():
    p = BoundParams(d=2, epsilon=0.2, delta=0.05, sigma_p=2.0)
    D = bound_min_features(p, alpha_eps=1.0)
    # recompute the closed form independently
    sig_ell = 2.0 * (2 * math.pi * math.sqrt(2))
    expect = (8 * 4 * 1.0 / 0.04) * (
        (2 / (1 + 1)) * math.log(sig_ell / 0.2) + math.log(bound_beta_d(2) / 0.05)
    )
    assert D == math.ceil(expect)
    # non-increasing in epsilon over a grid up to sigma_p * ell
    eps_grid = np.linspace(0.05, sig_ell, 25)
    counts = [
        bound_min_features(
            BoundParams(d=2, epsilon=float(e), delta=0.05, sigma_p=2.0), alpha_eps=1.0
        )
        for e in eps_grid
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_min_features_rejects_small_domain():
    with pytest.raises(DomainTooSmall):
        bound_min_features(
            BoundParams(d=1, epsilon=0.5, delta=0.1, sigma_p=0.01, ell=1.0), alpha_eps=1.0
        )


def test_min_features_linear_in_dimension():
    for d in (2, 4, 8, 16):
        Da = bound_min_features(
            BoundParams(d=d, epsilon=0.2, delta=0.05, sigma_p=2.0), alpha_eps=1.0
        )
        Db = bound_min_features(
            BoundParams(d=2 * d, epsilon=0.2, delta=0.05, sigma_p=2.0), alpha_eps=1.0
        )
        assert Db / Da <= 2.5


def test_error_probability_formula_and_clip():
    p = BoundParams(d=2, epsilon=0.3, delta=0.05, sigma_p=2.0)
    assert kernel_error_probability(p, D=1, alpha_eps=1.0) == 1.0
    big_D = 100_000
    value = kernel_error_probability(p, D=big_D, alpha_eps=1.0)
    sig_ell = p.sigma_p * p.ell
    expect = (
        bound_beta_d(2)
        * (sig_ell / 0.3) ** 1.0
        * math.exp(-big_D * 0.09 / (8 * 4 * 1.0))
    )
    assert abs(value - expect) <= 1e-12
    # tighter with more features
    probs = [kernel_error_probability(p, D=D, alpha_eps=1.0) for D in (10**4, 10**5, 10**6)]
    assert probs[0] >= probs[1] >= probs[2]
    with pytest.raises(ValueError):
        kernel_error_probability(p, D=0, alpha_eps=1.0)


def test_lrr_features_shape():
    base = dict(epsilon=0.1, delta=0.05, sigma_p=1.0, lam=1.0, n_layers=2, domain_size=500)
    D4 = bound_lrr_features(BoundParams(d=4, **base))
    D8 = bound_lrr_features(BoundParams(d=8, **base))
    assert 2.0 <= D8 / D4 <= 2.2  # linear in d up to the log factor
    # recompute by hand at d=4
    lam = 1.0
    inner = 1.0 * (1 + lam) / lam**2 - math.log(0.05)
    expect = 4 * 1.0 * (1 + lam) ** 2 / (lam**4 * 0.1**2) * (
        math.log(4 * 2**2 * 500) + math.log(inner)
    )
    assert D4 == math.ceil(expect)
    # delta -> 1 shrinks the requirement
    late = bound_lrr_features(BoundParams(d=4, **{**base, "delta": 0.999}))
    assert late < D4
    # lambda dominance: small lambda explodes as (1+lam)^2 / lam^4
    small = bound_lrr_features(BoundParams(d=4, **{**base, "lam": 0.1}))
    large = bound_lrr_features(BoundParams(d=4, **{**base, "lam": 10.0}))
    assert small > D4 > large


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(d=0, epsilon=0.1, delta=0.5, sigma_p=1.0)
    with pytest.raises(ValueError):
        BoundParams(d=1, epsilon=-0.1, delta=0.5, sigma_p=1.0)
    with pytest.raises(ValueError):
        BoundParams(d=1, epsilon=0.1, delta=1.0, sigma_p=1.0)
    with pytest.raises(ValueError):
        BoundParams(d=1, epsilon=0.1, delta=0.5, sigma_p=-1.0)
    p = BoundParams(d=4, epsilon=0.1, delta=0.5, sigma_p=1.0)
    assert abs(p.ell - 2 * math.pi * 2.0) <= 1e-15
    with pytest.raises(ValueError, match="lam is required"):
        bound_lrr_features(p)


# ---------------------------------------------------------------------------
# kernels and sigma_p
# ---------------------------------------------------------------------------


def test_lattice_kernel_hand_values():
    deltas = np.array([[0.0], [0.7], [np.pi]])
    k = lattice_kernel([(1,)], deltas)
    np.testing.assert_allclose(k, [1.0, np.cos(0.7), -1.0], atol=1e-15)
    # two frequencies average their cosines
    k2 = lattice_kernel([(1,), (2,)], np.array([[0.5]]))
    np.testing.assert_allclose(k2, [(np.cos(0.5) + np.cos(1.0)) / 2], atol=1e-15)
    with pytest.raises(ValueError):
        lattice_kernel([], deltas)


def test_lattice_kernel_takes_the_cosine_in_place():
    W = enumerate_canonical(SpectrumDescriptor((2,) * 6), cap=5**6)  # 7 812 frequencies
    deltas = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(400, 6))
    tracemalloc.start()
    try:
        k = lattice_kernel(W, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * len(deltas) * len(W)  # one (trials, D) matrix
    assert np.array_equal(k, np.mean(np.cos(deltas @ W.astype(float).T), axis=1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: lattice_kernel([(1,)], np.zeros((3, 2))),
        lambda: empirical_kernel_sup(SpectrumDescriptor((2, 2)), [(1,)], trial_points=5),
        lambda: lattice_kernel([(1, 0), (1,)], np.zeros((3, 2))),
    ],
    ids=["kernel-deltas", "kernel-sup-spectrum", "ragged-sample"],
)
def test_kernel_dimension_errors_name_both_dimensions(call):
    with pytest.raises(ValueError, match="every frequency must be 2 ints, got 1"):
        call()


def test_empirical_kernel_sup_exact_sample_is_noise_free():
    desc = SpectrumDescriptor((1,))
    full = enumerate_canonical(desc, cap=100)
    sup_term, sup_err = empirical_kernel_sup(desc, full, trial_points=200, seed=0)
    assert sup_err == 0.0
    # sup of cos(d)^2 - cos(d) over the trial pairs stays within [-0.25, 2]
    assert -0.25 <= sup_term <= 2.0
    with pytest.raises(ValueError):
        empirical_kernel_sup(desc, [], trial_points=10, seed=0)
    with pytest.raises(ValueError):
        empirical_kernel_sup(desc, full, trial_points=0, seed=0)


def test_empirical_kernel_sup_detects_coarse_samples():
    desc = SpectrumDescriptor((3, 3))
    full = enumerate_canonical(desc, cap=1000)
    _, err_small = empirical_kernel_sup(desc, full[:2], trial_points=100, seed=1)
    _, err_big = empirical_kernel_sup(desc, full, trial_points=100, seed=1)
    assert err_big == 0.0
    assert err_small > 0.05


def test_sigma_p_hand_values():
    assert sigma_p_of(SpectrumDescriptor((1,))) == 1.0
    assert abs(sigma_p_of(SpectrumDescriptor((2,))) - math.sqrt(2.5)) <= 1e-12
    assert abs(sigma_p_of(SpectrumDescriptor((1, 1))) - math.sqrt(1.5)) <= 1e-12
    for omega in [(1,), (2,), (1, 1)]:
        desc = SpectrumDescriptor(omega)
        assert sigma_p_of(desc) == _sigma_p_enumerated(desc)
    ten_qubits = omega_max_of(CircuitConfig(n_qubits=10, n_layers=2))
    assert sigma_p_of(ten_qubits) == 4.472136183972958


def _sigma_p_enumerated(desc):
    """RMS norm over the enumerated canonical lattice (the closed form's oracle)."""
    W = np.asarray(enumerate_canonical(desc, cap=lattice_size(desc)), dtype=float)
    return float(np.sqrt(np.mean(np.sum(W * W, axis=1))))


_SIGMA_P_BOXES = [
    omega
    for d in (1, 2, 3)
    for omega in itertools.product(range(4), repeat=d)
    if any(omega)
] + [(10,), (4, 4, 4), (0, 5, 0, 3), (2,) * 5, (1,) * 8, (2,) * 6, (12, 12, 12)]


@pytest.mark.parametrize("omega", _SIGMA_P_BOXES)
def test_sigma_p_closed_form_equals_enumeration(omega):
    desc = SpectrumDescriptor(omega)
    assert sigma_p_of(desc) == _sigma_p_enumerated(desc)


@st.composite
def _nonzero_box(draw, max_points=10**5):
    omega = []
    budget = max_points
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.integers(0, min(40, (budget - 1) // 2)))
        omega.append(w)
        budget //= 2 * w + 1
    assume(any(omega))
    return SpectrumDescriptor(tuple(omega))


@settings(max_examples=60, deadline=None)
@given(_nonzero_box())
def test_sigma_p_closed_form_equals_enumeration_on_drawn_boxes(desc):
    assert sigma_p_of(desc) == _sigma_p_enumerated(desc)


def _assert_full_lattice_kernel_matches_enumeration(desc, atol):
    W = enumerate_canonical(desc, cap=lattice_size(desc))
    deltas = pipeline._trial_deltas(desc.d, 200, 0)
    for t in (deltas, 2.0 * deltas):
        np.testing.assert_allclose(
            pipeline._full_lattice_kernel(desc, t), lattice_kernel(W, t), rtol=0, atol=atol
        )


# the largest difference on these boxes is 5.6e-16, at 2 delta on (3, 3)
@pytest.mark.parametrize(
    "omega",
    [(2, 2), (3, 3), (3, 1, 2), (0, 5, 0, 3), (2,) * 4, (2,) * 7, (1,) * 9, (12, 12, 12)],
)
def test_full_lattice_kernel_equals_the_enumerated_kernel(omega):
    _assert_full_lattice_kernel_matches_enumeration(SpectrumDescriptor(omega), atol=1e-15)


# Both sides round each phase k * delta, so with omega_i up to 40 and |2 delta|
# up to 4 pi each sits up to 4e-15 from a long-double evaluation of the mean;
# over 2 000 draws the two differed by at most 4.7e-15. Lattices of at most
# 10**4 points keep the enumerated side's (200, N / 2) phase matrix at 8 MB.
@settings(max_examples=60, deadline=None)
@given(_nonzero_box(max_points=10**4))
def test_full_lattice_kernel_equals_the_enumerated_kernel_on_drawn_boxes(desc):
    _assert_full_lattice_kernel_matches_enumeration(desc, atol=1e-14)


def test_full_lattice_kernel_of_one_frequency_is_the_cosine():
    deltas = pipeline._trial_deltas(1, 200, 0)
    k = pipeline._full_lattice_kernel(SpectrumDescriptor((1,)), deltas)
    assert np.array_equal(k, lattice_kernel([(1,)], deltas))
    assert np.array_equal(k, np.cos(deltas[:, 0]))


def test_kernel_sup_term_is_empirical_kernel_sups_first_value():
    desc = SpectrumDescriptor((2, 2))
    expected, _ = empirical_kernel_sup(desc, [(1, 0)], trial_points=50, seed=4)
    assert kernel_sup_term(desc, trial_points=50, seed=4) == expected
    with pytest.raises(ValueError, match="no nonzero frequency"):
        kernel_sup_term(SpectrumDescriptor((0, 0)))
    with pytest.raises(ValueError, match="trial_points"):
        kernel_sup_term(desc, trial_points=0)


def test_kernel_sup_term_holds_no_lattice_sized_array():
    desc = SpectrumDescriptor((2,) * 9)  # N = 1 953 125
    kernel_sup_term(desc, trial_points=1)  # numpy imports np.random on first use
    tracemalloc.start()
    try:
        kernel_sup_term(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_the_lattice_is_enumerated_only_by_the_exact_route_and_the_sample_comparison():
    """Every enumerate_canonical call in src/ sits in surrogate_exact or
    empirical_kernel_sup; the full-lattice kernel is taken in closed form."""
    calls = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "enumerate_canonical" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            calls.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert sorted(calls) == [("pipeline", "empirical_kernel_sup"), ("pipeline", "surrogate_exact")]


def test_sigma_p_rejects_a_spectrum_without_nonzero_frequency():
    for omega in [(0,), (0, 0), (0, 0, 0)]:
        with pytest.raises(ValueError, match="no nonzero frequency"):
            sigma_p_of(SpectrumDescriptor(omega))


def test_fingerprint_is_stable_and_distinct():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    p1 = ParameterSet.random(config, seed=0)
    p2 = ParameterSet.random(config, seed=1)
    f1 = fingerprint_of(config, p1)
    assert f1 == fingerprint_of(config, p1)
    assert f1 != fingerprint_of(config, p2)
    assert len(f1) == 16
    int(f1, 16)
