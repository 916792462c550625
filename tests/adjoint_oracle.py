"""The psi+lam adjoint sweep: the oracle of ``simulator.mse_gradient``.

``mse_gradient`` sweeps only the costate lam back through the circuit
and reads psi from the block starts its forward pass saved. This is the
sweep it replaced: psi and lam are carried back together, as one
(2**n, 2, rows) array, so every un-applied gate acts on both. CNOTs and
encodings are un-applied gate by gate, each qubit's Rx, Ry, Rz of a
trainable block as one fused 2x2, on every block including W_0. The
predictions are computed as ``mse_gradient`` computes them. Not a test
module: the tests import it from here.
"""

import numpy as np

from fourier_surrogates.simulator import (
    _AXES,
    _PAULIS,
    _apply_1q,
    _cnot_batch,
    _coupling,
    _encoding,
    _forward,
    _inputs,
    _mean_z_diagonal,
    _rotate_batch,
    _rotation,
    _walk_buffer,
)


def _overlap(sweep: np.ndarray, qubit: int, scratch: np.ndarray) -> np.ndarray:
    """M[a, b] = sum of conj(lam_a) psi_b over rows and amplitudes, a, b the qubit's bit.

    ``sweep`` holds psi and lam as (2**n, 2, rows); ``scratch`` holds at
    least half as many entries, and receives conj(lam).
    """
    split = sweep.reshape((1 << qubit, 2, -1) + sweep.shape[1:])
    lam = scratch.reshape(-1)[: sweep[:, 1].size].reshape(split[..., 1, :].shape)
    np.conjugate(split[..., 1, :], out=lam)
    return np.einsum("iajr,ibjr->ab", lam, split[..., 0, :])


@_walk_buffer()
def psi_lam_mse_gradient(config, params, X, y):
    """``mse_gradient(config, params, X, y)`` by the psi+lam sweep: (f, grad)."""
    params.validate_for(config)
    X = _inputs(config, X)
    y = np.asarray(y, dtype=float)
    n, rows = config.n_qubits, X.shape[0]
    dim = 2**n
    size = dim * rows
    first, second = np.empty(2 * size, dtype=complex), np.empty(2 * size, dtype=complex)
    psi, _ = _forward(
        config,
        params.angles,
        _encoding(config, X),
        first[:size].reshape(dim, rows),
        second[:size].reshape(dim, rows),
    )
    if not np.may_share_memory(psi, first):
        first, second = second, first
    probs = first[size:].view(float)[:size].reshape(rows, dim)
    np.abs(psi.T, out=probs)
    np.square(probs, out=probs)
    w = _mean_z_diagonal(n)
    preds = probs @ w
    sweep, spare = second.reshape(dim, 2, rows), first.reshape(dim, 2, rows)
    sweep[:, 0] = psi
    np.multiply(w[:, None], psi, out=sweep[:, 1])
    sweep[:, 1] *= 2.0 * (preds - y) / rows
    grad = np.zeros_like(params.angles)
    for block in range(config.n_layers, -1, -1):
        for c, t in reversed(config.coupling_map):
            sweep, spare = _cnot_batch(sweep, _coupling(dim, ((c, t),)), spare), sweep
        for q in range(n - 1, -1, -1):
            M = _overlap(sweep, q, spare)
            undo = np.eye(2, dtype=complex)
            for a in (2, 1, 0):
                grad[block, q, a] = np.sum(_PAULIS[a] * M).imag
                R = np.array(_rotation(_AXES[a], params.angles[block, q, a]), dtype=complex)
                M = R.T @ M @ R.conj()
                undo = R.conj().T @ undo
            sweep, spare = _apply_1q(sweep, q, undo, spare), sweep
        if block:
            for q in range(n - 1, -1, -1):
                theta = -X[:, config.feature_assignment[q]]
                sweep, spare = _rotate_batch(sweep, q, "x", theta, spare), sweep
    return preds, grad
