"""Shots training with full passes: the oracle of the probe-combined shifted evaluations.

``pipeline.train`` with shots takes its predictions and parameter-shift
gradient from ``simulator._shots_gradient``, whose scoring pass saves
each block's start and whose shifted states are combined from three
probe walks per qubit and block; they equal full passes' to within
~1e-15. This is the trainer it replaced: the scoring evaluation and
every one of the 2P shifted evaluations is a full ``expectation_batch``
pass, gate by gate from |0..0>, with the next consecutive seed. The
seeds and their order must match exactly; the shot counts, losses and
parameters have matched in every case tried. Not a test module: the
tests import it from here.
"""

import math

import numpy as np

from fourier_surrogates import NoiseConfig, ParameterSet, expectation_batch


def shots_train_oracle(config, dataset, tc, init: ParameterSet):
    """``pipeline.train(config, dataset, tc, init)`` for ``tc.shots`` set, by full passes."""
    X, y = dataset.X, dataset.y
    noise_counter = 0
    noise_base = int(np.random.SeedSequence([tc.seed, 0x7261]).generate_state(1)[0])

    def evaluate(angles: np.ndarray) -> np.ndarray:
        nonlocal noise_counter
        noise = NoiseConfig(shots=tc.shots, seed=noise_base + noise_counter)
        noise_counter += 1
        return expectation_batch(config, ParameterSet(angles=angles), X, noise=noise)

    def shift_gradient(angles: np.ndarray, preds: np.ndarray) -> np.ndarray:
        flat = angles.reshape(-1)
        grad = np.zeros_like(flat)
        for j in range(flat.size):
            shifted = flat.copy()
            shifted[j] += math.pi / 2
            f_plus = evaluate(shifted.reshape(angles.shape))
            shifted[j] -= math.pi
            f_minus = evaluate(shifted.reshape(angles.shape))
            df = (f_plus - f_minus) / 2.0
            grad[j] = float(np.mean(2.0 * (preds - y) * df))
        return grad.reshape(angles.shape)

    angles = init.angles.copy()
    history: list[float] = []
    for k in range(tc.max_iters + 1):
        preds = evaluate(angles)
        loss = float(np.mean((preds - y) ** 2))
        history.append(loss)
        if k == tc.max_iters or (k and tc.tol > 0 and abs(history[-2] - loss) < tc.tol):
            break
        angles = angles - tc.learning_rate * shift_gradient(angles, preds)
    return ParameterSet(angles=angles), history
