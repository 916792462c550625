"""Simulator tests against an independent dense-matrix oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fourier_surrogates import (
    CircuitConfig,
    NoiseConfig,
    ParameterSet,
    TrainConfig,
    expectation,
    expectation_batch,
    run_circuit,
    run_circuit_batch,
    sample_bitstrings,
)
from fourier_surrogates import simulator

# ---------------------------------------------------------------------------
# oracle: build the circuit unitary from explicit 2x2 matrices and kron
# products, with qubit 0 as the leftmost (most significant) factor
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def rot_matrix(axis: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]])


def embed(ops: dict, n: int) -> np.ndarray:
    """Kron product over qubits 0..n-1 with identity where no op is given."""
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, ops.get(q, I2))
    return out


def cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    return embed({control: P0}, n) + embed({control: P1, target: PAULI_X}, n)


def oracle_state(config: CircuitConfig, params: ParameterSet, x: np.ndarray) -> np.ndarray:
    n = config.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0

    def w_block(state, block):
        for q in range(n):
            for a, axis in enumerate(("x", "y", "z")):
                state = embed({q: rot_matrix(axis, params.angles[block, q, a])}, n) @ state
        for c, t in config.coupling_map:
            state = cnot_matrix(c, t, n) @ state
        return state

    state = w_block(state, 0)
    for layer in range(1, config.n_layers + 1):
        for q in range(n):
            f = config.feature_assignment[q]
            state = embed({q: rot_matrix("x", x[f])}, n) @ state
        state = w_block(state, layer)
    return state


def oracle_mean_z(state: np.ndarray) -> float:
    n = state.shape[0].bit_length() - 1
    total = 0.0
    for i, amp in enumerate(state):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        total += abs(amp) ** 2 * np.mean([1.0 - 2.0 * b for b in bits])
    return float(total)


# ---------------------------------------------------------------------------
# the former row-major simulator, as the bit-for-bit oracle of the
# amplitudes-first one: batches are (rows, 2**n), every rotation copies
# the qubit's halves out with ``take`` and back with ``stack``, the
# adjoint sweep un-applies psi and lam gate by gate, and the coefficient
# tensor is held basis-state last
# ---------------------------------------------------------------------------


def _row_major_view(states: np.ndarray, qubit: int) -> np.ndarray:
    """``states`` as (rows, 2**qubit, 2, rest): axis 2 is the qubit's bit."""
    batch, dim = states.shape
    return states.reshape(batch, 1 << qubit, 2, dim >> (qubit + 1))


def row_major_rotate(states: np.ndarray, qubit: int, axis: str, angles) -> np.ndarray:
    half = np.asarray(angles, dtype=float) / 2.0
    if half.ndim == 1:
        half = half[:, None, None]
    arr = _row_major_view(states, qubit)
    a0 = np.take(arr, 0, axis=2)
    a1 = np.take(arr, 1, axis=2)
    if axis == "x":
        c, s = np.cos(half), np.sin(half)
        n0 = c * a0 - 1j * s * a1
        n1 = -1j * s * a0 + c * a1
    elif axis == "y":
        c, s = np.cos(half), np.sin(half)
        n0 = c * a0 - s * a1
        n1 = s * a0 + c * a1
    else:
        phase = np.exp(-1j * half)
        n0 = phase * a0
        n1 = np.conj(phase) * a1
    return np.stack((n0, n1), axis=2).reshape(states.shape)


def row_major_cnot(states: np.ndarray, control: int, target: int) -> np.ndarray:
    dim = states.shape[1]
    n = dim.bit_length() - 1
    index = np.arange(dim)
    perm = index ^ (((index >> (n - 1 - control)) & 1) << (n - 1 - target))
    return states.take(perm, axis=1)


def _gates(config: CircuitConfig):
    """The circuit's gates in application order, one tuple each.

    ("rot", qubit, axis, (block, qubit, axis index)) for a trainable
    rotation by ``angles[index]``, ("enc", qubit, "x", feature) for an
    encoding rotation by that input feature, and ("cnot", control,
    target, None).
    """
    for block in range(config.n_layers + 1):
        if block:
            for q, feature in enumerate(config.feature_assignment):
                yield "enc", q, "x", feature
        for q in range(config.n_qubits):
            for a, axis in enumerate(("x", "y", "z")):
                yield "rot", q, axis, (block, q, a)
        for c, t in config.coupling_map:
            yield "cnot", c, t, None


def _row_major_gate(states, gate, angles, X, inverse=False):
    kind, a, b, source = gate
    if kind == "cnot":
        return row_major_cnot(states, a, b)
    theta = X[:, source] if kind == "enc" else angles[source]
    if kind == "rot" and theta == 0.0:
        return states
    return row_major_rotate(states, a, b, -theta if inverse else theta)


def row_major_run(config: CircuitConfig, params: ParameterSet, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    states = np.zeros((X.shape[0], 2**config.n_qubits), dtype=complex)
    states[:, 0] = 1.0
    for gate in _gates(config):
        states = _row_major_gate(states, gate, params.angles, X)
    return states


def _pauli_overlap(lam: np.ndarray, psi: np.ndarray, qubit: int, axis: str) -> float:
    """Sum over rows of Im<lam|P|psi>, P the Pauli ``axis`` on ``qubit``."""
    lam, psi = _row_major_view(lam, qubit), _row_major_view(psi, qubit)
    if axis != "z":
        psi = psi[:, :, ::-1]  # X and Y swap the qubit's |0> and |1> halves
    halves = np.einsum("ijkl,ijkl->k", np.conj(lam), psi)
    if axis == "x":
        return float((halves[0] + halves[1]).imag)
    if axis == "y":
        return float((halves[1] - halves[0]).real)
    return float((halves[0] - halves[1]).imag)


def row_major_mse_gradient(config: CircuitConfig, params: ParameterSet, X, y):
    """The adjoint sweep that un-applies every gate to psi and to lam in turn."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = row_major_run(config, params, X)
    w = simulator._mean_z_diagonal(config.n_qubits)
    preds = np.abs(psi) ** 2 @ w
    lam = (2.0 * (preds - y) / len(preds))[:, None] * w * psi
    grad = np.zeros_like(params.angles)
    for gate in reversed(tuple(_gates(config))):
        kind, qubit, axis, source = gate
        if kind == "rot":
            grad[source] = _pauli_overlap(lam, psi, qubit, axis)
        psi = _row_major_gate(psi, gate, params.angles, X, inverse=True)
        lam = _row_major_gate(lam, gate, params.angles, X, inverse=True)
    return preds, grad


def _row_major_encode(coeffs: np.ndarray, qubit: int, feature: int) -> np.ndarray:
    d = coeffs.ndim - 1
    grown_shape = list(coeffs.shape)
    grown_shape[feature] += 1
    grown = np.zeros(grown_shape, dtype=complex)
    split = coeffs.shape[:d] + (1 << qubit, 2, -1)
    old = coeffs.reshape(split)
    new = grown.reshape(tuple(grown_shape[:d]) + split[d:])
    keep = new[(slice(None),) * feature + (slice(None, -1),)]
    shift = new[(slice(None),) * feature + (slice(1, None),)]
    np.add(old[..., 0, :], old[..., 1, :], out=keep[..., 0, :])
    keep[..., 0, :] *= 0.5
    keep[..., 1, :] = keep[..., 0, :]
    diff = old[..., 0, :]
    diff -= old[..., 1, :]
    diff *= 0.5
    shift[..., 0, :] += diff
    shift[..., 1, :] -= diff
    return grown


def row_major_state_coefficients(config: CircuitConfig, params: ParameterSet) -> np.ndarray:
    """The coefficient walk with the tensor held as (k_0, ..., k_{d-1}, 2**n)."""
    dim = 2**config.n_qubits
    coeffs = np.zeros((1,) * config.d_features + (dim,), dtype=complex)
    coeffs.flat[0] = 1.0
    for gate in _gates(config):
        kind, qubit, _, source = gate
        if kind == "enc":
            coeffs = _row_major_encode(coeffs, qubit, source)
        else:
            rows = _row_major_gate(coeffs.reshape(-1, dim), gate, params.angles, None)
            coeffs = rows.reshape(coeffs.shape)
    return coeffs


# ---------------------------------------------------------------------------
# single-gate fixtures, on one-row batches (amplitudes first) through the
# kernels circuits use
# ---------------------------------------------------------------------------


def rotate(state, qubit: int, axis: str, angle: float) -> np.ndarray:
    states = np.asarray(state, dtype=complex)[:, None]
    return simulator._rotate_batch(states, qubit, axis, angle, np.empty_like(states))[:, 0]


def cnot(state, control: int, target: int) -> np.ndarray:
    states = np.asarray(state, dtype=complex)[:, None]
    return simulator._cnot_batch(states, control, target, np.empty_like(states))[:, 0]


def test_rx_pi_flips_with_phase():
    out = rotate(np.array([1.0, 0.0]), 0, "x", np.pi)
    np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-15)


def test_ry_half_pi_makes_plus():
    out = rotate(np.array([1.0, 0.0]), 0, "y", np.pi / 2)
    np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_rz_phases_basis_states():
    theta = 0.7
    out = rotate(np.array([1.0, 1.0]) / np.sqrt(2), 0, "z", theta)
    expected = np.array([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]) / np.sqrt(2)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_cnot_msb_convention():
    # qubit 0 is the MSB: |10> is index 2 and must map to |11> = index 3
    state = np.zeros(4)
    state[2] = 1.0
    out = cnot(state, 0, 1)
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)
    # control off: |01> stays put
    state = np.zeros(4)
    state[1] = 1.0
    np.testing.assert_allclose(cnot(state, 0, 1), state, atol=1e-15)


def test_cnot_reverse_direction():
    # control on qubit 1 (LSB): |01> -> |11>
    state = np.zeros(4)
    state[1] = 1.0
    out = cnot(state, 1, 0)
    np.testing.assert_allclose(out, [0, 0, 0, 1], atol=1e-15)


# ---------------------------------------------------------------------------
# full circuits against the dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_circuit_matches_dense_oracle(n_qubits, n_layers):
    config = CircuitConfig(n_qubits=n_qubits, n_layers=n_layers)
    rng = np.random.default_rng(11 * n_qubits + n_layers)
    for trial in range(3):
        params = ParameterSet.random(config, seed=100 * n_qubits + 10 * n_layers + trial)
        x = rng.uniform(0, 2 * np.pi, size=n_qubits)
        got = run_circuit(config, params, x)
        want = oracle_state(config, params, x)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(
            expectation(config, params, x), oracle_mean_z(want), atol=1e-12
        )


def test_circuit_with_custom_wiring_matches_oracle():
    configs = (
        CircuitConfig(
            n_qubits=3,
            n_layers=2,
            d_features=2,
            coupling_map=((2, 0), (0, 1)),
            feature_assignment=(1, 0, 1),
        ),
        # CNOTs between qubits two apart, with the control on either side
        CircuitConfig(
            n_qubits=4,
            n_layers=2,
            d_features=2,
            coupling_map=((0, 2), (3, 1), (1, 3), (2, 0)),
        ),
    )
    for config in configs:
        params = ParameterSet.random(config, seed=7)
        x = np.array([0.3, 1.9])
        got = run_circuit(config, params, x)
        want = oracle_state(config, params, x)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        CircuitConfig(n_qubits=1, n_layers=3),
        CircuitConfig(n_qubits=3, n_layers=2),
        CircuitConfig(
            n_qubits=3, n_layers=2, d_features=2,
            coupling_map=((2, 0), (0, 1)), feature_assignment=(1, 0, 1),
        ),
    ],
    ids=["1q3L", "3q2L", "custom-wiring"],
)
def test_state_coefficients_give_the_oracle_state_up_to_the_encoding_phase(config):
    params = ParameterSet.random(config, seed=13)
    coeffs = simulator.state_coefficients(config, params)
    g = np.bincount(config.feature_assignment, minlength=config.d_features)
    assert coeffs.shape == tuple(config.n_layers * g + 1) + (2**config.n_qubits,)
    k = np.stack(np.meshgrid(*(np.arange(s) for s in coeffs.shape[:-1]), indexing="ij"), -1)
    rng = np.random.default_rng(17)
    for x in rng.uniform(0, 2 * np.pi, size=(4, config.d_features)):
        # each encoding drops the phase exp(-i x_f / 2)
        phase = np.exp(-0.5j * config.n_layers * (g @ x))
        got = phase * np.tensordot(np.exp(1j * (k @ x)), coeffs, axes=config.d_features)
        np.testing.assert_allclose(got, oracle_state(config, params, x), atol=1e-12)


def test_states_are_normalized():
    config = CircuitConfig(n_qubits=4, n_layers=2)
    params = ParameterSet.random(config, seed=3)
    X = np.random.default_rng(5).uniform(0, 2 * np.pi, size=(6, 4))
    states = run_circuit_batch(config, params, X)
    np.testing.assert_allclose(np.sum(np.abs(states) ** 2, axis=1), 1.0, atol=1e-12)


def test_batch_equals_single_runs():
    config = CircuitConfig(n_qubits=2, n_layers=2)
    params = ParameterSet.random(config, seed=9)
    X = np.random.default_rng(1).uniform(0, 2 * np.pi, size=(5, 2))
    batch = expectation_batch(config, params, X)
    singles = [expectation(config, params, x) for x in X]
    np.testing.assert_allclose(batch, singles, atol=1e-14)


def test_identity_blocks_give_cosine():
    config = CircuitConfig(n_qubits=1, n_layers=1)
    params = ParameterSet.zeros(config)
    xs = np.linspace(0, 2 * np.pi, 17)
    vals = expectation_batch(config, params, xs.reshape(-1, 1))
    np.testing.assert_allclose(vals, np.cos(xs), atol=1e-14)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=0, n_layers=1)
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=2, n_layers=0)
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=2, n_layers=1, d_features=3)
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=2, n_layers=1, coupling_map=((0, 0),))
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=2, n_layers=1, coupling_map=((0, 2),))
    with pytest.raises(ValueError):
        CircuitConfig(n_qubits=2, n_layers=1, feature_assignment=(0,))
    with pytest.raises(ValueError):
        # feature 1 exists but is never assigned
        CircuitConfig(n_qubits=2, n_layers=1, d_features=2, feature_assignment=(0, 0))


def test_config_round_trips_through_json():
    config = CircuitConfig(n_qubits=3, n_layers=2, d_features=2)
    again = CircuitConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
    assert again == config


def test_parameter_set_validation():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    with pytest.raises(ValueError):
        ParameterSet(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ParameterSet(np.full((2, 2, 3), np.nan))
    wrong = ParameterSet(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        wrong.validate_for(config)
    assert ParameterSet.zeros(config).angles.shape == (2, 2, 3)
    p1 = ParameterSet.random(config, seed=4)
    p2 = ParameterSet.random(config, seed=4)
    np.testing.assert_array_equal(p1.angles, p2.angles)


def test_input_validation():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.zeros(config)
    with pytest.raises(ValueError):
        run_circuit_batch(config, params, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        run_circuit_batch(config, params, np.array([[np.inf, 0.0]]))


def test_an_empty_batch_is_named_at_every_entry_point():
    """Zero input rows are the caller's error, reported before any kernel runs."""
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=0)
    X = np.empty((0, 2))
    entries = {
        "run_circuit_batch": lambda: run_circuit_batch(config, params, X),
        "expectation_batch": lambda: expectation_batch(config, params, X),
        "mse_gradient": lambda: simulator.mse_gradient(config, params, X, np.empty(0)),
        "_shots_gradient": lambda: simulator._shots_gradient(
            config, params, X, np.empty(0), 16, iter(range(100))
        ),
    }
    for name, call in entries.items():
        with pytest.raises(ValueError, match="^at least one input row is required$"):
            call()


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------


def test_depolarizing_shrinks_exact_expectation():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=2)
    X = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(4, 2))
    clean = expectation_batch(config, params, X)
    noisy = expectation_batch(config, params, X, noise=NoiseConfig(depolarizing_p=0.25))
    np.testing.assert_allclose(noisy, 0.75 * clean, atol=1e-14)


def test_shot_noise_is_seeded_and_unbiased():
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=6)
    X = np.random.default_rng(8).uniform(0, 2 * np.pi, size=(3, 2))
    exact = expectation_batch(config, params, X)
    a = expectation_batch(config, params, X, noise=NoiseConfig(shots=256, seed=1))
    b = expectation_batch(config, params, X, noise=NoiseConfig(shots=256, seed=1))
    np.testing.assert_array_equal(a, b)
    c = expectation_batch(config, params, X, noise=NoiseConfig(shots=256, seed=2))
    assert not np.array_equal(a, c)
    # estimates over many shots concentrate on the exact value
    big = expectation_batch(config, params, X, noise=NoiseConfig(shots=200_000, seed=3))
    np.testing.assert_allclose(big, exact, atol=0.01)


def test_shot_values_are_attainable_averages():
    config = CircuitConfig(n_qubits=1, n_layers=1)
    params = ParameterSet.zeros(config)
    vals = expectation_batch(
        config, params, np.array([[0.8]]), noise=NoiseConfig(shots=100, seed=5)
    )
    # mean over 100 single-qubit +-1 outcomes lands on a multiple of 2/100
    assert abs(vals[0] * 50 - round(vals[0] * 50)) < 1e-12


# ---------------------------------------------------------------------------
# the shot sampler: weight-class draws against the per-row outcome sampler
# ---------------------------------------------------------------------------


def _per_row_sampler(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """The former shot sampler: one substream and one draw over 2**n outcomes per row.

    A drop-in for ``simulator._shot_estimates``; a row's estimate depends
    only on ``seed`` and its row index.
    """
    w = simulator._mean_z_diagonal(probs.shape[1].bit_length() - 1)
    values = np.empty(len(probs))
    seeds = np.random.SeedSequence(seed).spawn(len(probs))
    for i, (p, ss) in enumerate(zip(probs, seeds)):
        counts = np.random.default_rng(ss).multinomial(shots, p / p.sum())
        values[i] = (counts @ w) / shots
    return values


SAMPLERS = {"weight-class": simulator._shot_estimates, "per-row": _per_row_sampler}


def _fixed_state_probs(n: int) -> np.ndarray:
    amps = np.random.default_rng(50 + n).normal(size=(2**n, 2)) @ [1.0, 1.0j]
    return np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("n", [1, 3, 4, 8])
def test_shot_estimates_have_the_exact_mean_and_variance(sampler, n):
    """400 seeds x 25 rows of one state: mean and variance within 5 sigma.

    One shot's mean Z takes the value z on each outcome, so the estimate
    over ``shots`` shots has mean mu = p.z and variance var1 / shots,
    var1 = p.(z - mu)^2. The variance's standard error comes from the
    estimate's exact fourth central moment. Rows of one call must be
    independent: the variance of a call's row mean is var / rows.
    """
    shots, seeds, rows = 40, 400, 25
    p = _fixed_state_probs(n)
    z = simulator._mean_z_diagonal(n)
    mu = p @ z
    var1, m4_1 = p @ (z - mu) ** 2, p @ (z - mu) ** 4
    var = var1 / shots
    m4 = (m4_1 + 3 * (shots - 1) * var1**2) / shots**3
    probs = np.tile(p, (rows, 1))
    est = np.stack([SAMPLERS[sampler](probs, shots, s) for s in range(seeds)])
    count = est.size
    assert abs(est.mean() - mu) < 5 * np.sqrt(var / count)
    assert abs(est.var(ddof=1) - var) < 5 * np.sqrt((m4 - var**2) / count)
    call_means = est.mean(axis=1)
    assert abs(call_means.var(ddof=1) / (var / rows) - 1) < 5 * np.sqrt(2 / (seeds - 1))


@pytest.mark.parametrize("shots", [1, 2, 7, 100, 100_000])
def test_basis_states_give_their_exact_value_at_every_shot_count(shots):
    n = 3
    probs = np.eye(2**n)
    got = simulator._shot_estimates(probs, shots, seed=shots)
    np.testing.assert_array_equal(got, simulator._mean_z_diagonal(n))


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("shots", [1, 5, 64, 1001])
def test_shot_estimates_lie_on_the_weight_lattice(n, shots):
    """An estimate is 1 - 2k/(n*shots), k the total Hamming weight of its shots.

    So 1 minus every estimate is a multiple of 2/(n*shots).
    """
    config = CircuitConfig(n_qubits=n, n_layers=2)
    params = ParameterSet.random(config, seed=n + shots)
    X = np.random.default_rng(shots).uniform(0, 2 * np.pi, size=(20, n))
    vals = expectation_batch(config, params, X, noise=NoiseConfig(shots=shots, seed=4))
    k = (1.0 - vals) * n * shots / 2.0
    np.testing.assert_allclose(k, np.round(k), atol=1e-6)
    assert np.all((0 <= np.round(k)) & (np.round(k) <= n * shots))


@st.composite
def _shots_case(draw):
    n = draw(st.integers(1, 6))
    config = CircuitConfig(n_qubits=n, n_layers=draw(st.integers(1, 2)))
    rows = draw(st.integers(1, 50))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    X = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-scale, scale, (rows, n))
    params = ParameterSet.random(config, seed=draw(st.integers(0, 2**16)))
    noise = NoiseConfig(shots=draw(st.integers(1, 100_000)), seed=draw(st.integers(0, 2**31)))
    return config, params, X, noise


@settings(max_examples=60, deadline=None)
@given(_shots_case())
def test_shot_sampler_accepts_every_drawn_circuit(case):
    """No drawn circuit trips numpy's check on the class probabilities."""
    config, params, X, noise = case
    vals = expectation_batch(config, params, X, noise)
    assert vals.shape == (len(X),)
    assert np.all(np.abs(vals) <= 1.0)
    single = expectation(config, params, X[0], noise)
    assert -1.0 <= single <= 1.0
    dead = NoiseConfig(shots=noise.shots, depolarizing_p=1.0, seed=noise.seed)
    np.testing.assert_array_equal(expectation_batch(config, params, X, dead), 0.0)


@pytest.mark.parametrize("rows", [1, 37, 400])
def test_one_generator_and_no_spawn_per_shots_call(monkeypatch, rows):
    """Counts generator constructions and substream spawns, not wall time."""
    made, spawned = [], []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    config = CircuitConfig(n_qubits=2, n_layers=1)
    params = ParameterSet.random(config, seed=1)
    X = np.random.default_rng(2).uniform(0, 2 * np.pi, size=(rows, 2))
    made.clear()
    expectation_batch(config, params, X, noise=NoiseConfig(shots=16, seed=3))
    assert (len(made), spawned) == (1, [])
    # the counters see the per-row sampler's generators and spawn
    made.clear()
    monkeypatch.setattr(simulator, "_shot_estimates", _per_row_sampler)
    expectation_batch(config, params, X, noise=NoiseConfig(shots=16, seed=3))
    assert (len(made), spawned) == (rows, [rows])


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(shots=0)
    with pytest.raises(ValueError):
        NoiseConfig(depolarizing_p=1.5)


@pytest.mark.parametrize(
    "shots", [2.5, 1.0, np.float64(4.0), True, False, math.nan, math.inf, 0, -3], ids=repr
)
def test_a_shot_count_is_a_positive_integer_everywhere(shots):
    """int(2.5) shots divided by 2.5 would read <Z> of |0> as 0.8, and True
    would pass as one shot: each entry names the count instead."""
    match = "^shots must be a positive integer, got "
    with pytest.raises(ValueError, match=match):
        NoiseConfig(shots=shots)
    with pytest.raises(ValueError, match=match):
        TrainConfig(shots=shots)
    with pytest.raises(ValueError, match=match):
        sample_bitstrings(np.array([1.0, 0.0]), shots, seed=0)


def test_numpy_integer_shot_counts_are_accepted():
    assert NoiseConfig(shots=np.int64(3)).shots == 3
    assert TrainConfig(shots=np.uint8(2)).shots == 2
    assert sample_bitstrings(np.array([1.0, 0.0]), np.int32(5), seed=0) == {"0": 5}


def test_sample_bitstrings_counts_and_labels():
    # Rx(pi) on qubit 0 of |00> gives -i|10>, MSB-first label "10"
    state = np.zeros(4, dtype=complex)
    state[2] = -1j
    counts = sample_bitstrings(state, shots=64, seed=0)
    assert counts == {"10": 64}
    with pytest.raises(ValueError):
        sample_bitstrings(state, shots=0, seed=0)
    with pytest.raises(ValueError):
        sample_bitstrings(np.array([1.0, 1.0]), shots=4, seed=0)


def test_sample_bitstrings_takes_one_vector_of_2_to_the_n_amplitudes():
    match = "^state must be one vector of 2\\*\\*n amplitudes"
    for state in (np.ones(3) / np.sqrt(3), np.ones(1), np.eye(2), np.zeros((0,)), 1.0):
        with pytest.raises(ValueError, match=match):
            sample_bitstrings(state, shots=4, seed=0)


def test_sample_bitstrings_distribution():
    state = np.array([1.0, 1.0]) / np.sqrt(2)
    counts = sample_bitstrings(state, shots=10_000, seed=42)
    assert set(counts) == {"0", "1"}
    assert sum(counts.values()) == 10_000
    assert abs(counts["0"] - 5000) < 300
