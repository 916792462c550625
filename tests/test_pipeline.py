"""Surrogation routes, trainer, memory estimator, and bound calculators."""

import itertools
import math
import tracemalloc

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
    build_complex_design,
    canonical_count,
    complex_fit_to_real,
    empirical_kernel_sup,
    enumerate_canonical,
    estimate_memory,
    expectation_batch,
    fingerprint_of,
    fit,
    full_grid,
    kernel_error_probability,
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
    grid = full_grid(desc)
    lattice = list(itertools.product(*(range(-w, w + 1) for w in desc.omega_max)))
    y = expectation_batch(config, params, grid.points)
    coeffs, _ = fit(build_complex_design(grid.points, lattice), y)
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
        assert model.frequencies == tuple(canon)
        assert abs(model.intercept - intercept) <= 1e-12
        np.testing.assert_allclose(model.cos_coeffs, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.sin_coeffs, b, rtol=0, atol=1e-12)
        assert model.residual <= 1e-12


def _grid_exact(config, params):
    """The exact route by simulating every grid point: grid, expectation_batch, fftn."""
    desc = omega_max_of(config)
    grid = full_grid(desc)
    T = grid.per_feature_counts
    y = expectation_batch(config, params, grid.points).reshape(T)
    F = np.fft.fftn(y) / y.size
    canon = enumerate_canonical(desc, cap=y.size)
    c = F[tuple((np.asarray(canon) % T).T)]
    return float(F.flat[0].real), canon, 2.0 * c.real, -2.0 * c.imag


def _assert_matches_grid_route(config, params):
    model = surrogate_exact(config, params)
    intercept, canon, a, b = _grid_exact(config, params)
    assert model.frequencies == tuple(canon)
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
    return float(F.flat[0].real), tuple(canonical), 2.0 * c.real, -2.0 * c.imag, residual


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
        assert model.frequencies == canon
        assert model.intercept == intercept
        assert np.array_equal(model.cos_coeffs, a)
        assert np.array_equal(model.sin_coeffs, b)
        assert model.residual == residual


def test_exact_surrogate_simulates_no_grid_point(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route simulated grid points")

    monkeypatch.setattr(pipeline, "expectation_batch", refuse)
    monkeypatch.setattr(simulator, "run_circuit_batch", refuse)
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
    grid = full_grid(desc)
    exact = surrogate_exact(config, params)
    rff = surrogate_rff(config, params, grid.points, D=4, seed=0)
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
        config, params, full_grid(desc).points, D=canonical_count(desc), seed=seed
    )
    X = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=(50, config.d_features))
    np.testing.assert_allclose(predict_batch(rff, X), predict_batch(exact, X), rtol=0, atol=1e-8)


def test_rff_is_deterministic_and_validated():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=1)
    X = np.random.default_rng(3).uniform(0, 2 * np.pi, size=(30, 2))
    m1 = surrogate_rff(config, params, X, D=3, seed=5)
    m2 = surrogate_rff(config, params, X, D=3, seed=5)
    assert m1.frequencies == m2.frequencies
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
    assert noisy.frequencies == clean.frequencies
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


def test_shots_iteration_makes_2p_plus_1_sampled_evaluations(monkeypatch):
    seeds = []

    def counting(config, params, X, noise=None):
        seeds.append(noise.seed)
        return expectation_batch(config, params, X, noise)

    monkeypatch.setattr(pipeline, "expectation_batch", counting)
    config, ds = _shots_case()
    train(config, ds, TrainConfig(shots=256, max_iters=2))
    n_angles = 3 * 3 * 3
    assert len(seeds) == 1 + 2 * (2 * n_angles + 1)
    assert seeds == list(range(seeds[0], seeds[0] + len(seeds)))


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
