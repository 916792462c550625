"""Surrogate a circuit from data with a sampled frequency budget.

The exact route needs the full lattice, which grows exponentially with
the qubit count. The random-feature route instead samples D canonical
frequencies, builds a cos/sin design on training inputs, and solves a
least-squares problem. This script shows the accuracy ladder as D grows
and the exact-recovery limit when D covers the whole spectrum.
"""

import numpy as np

from fourier_surrogates import (
    CircuitConfig,
    ParameterSet,
    canonical_count,
    expectation_batch,
    full_grid,
    mse,
    omega_max_of,
    predict_batch,
    surrogate_exact,
    surrogate_rff,
)

config = CircuitConfig(n_qubits=4, n_layers=2)
params = ParameterSet.random(config, seed=5)
desc = omega_max_of(config)
total = canonical_count(desc)
print(f"4 qubits, 2 layers: {total} canonical frequencies available\n")

rng = np.random.default_rng(0)
X_train = rng.random((400, 4))
X_test = rng.random((150, 4))
y_test = expectation_batch(config, params, X_test)

print("frequency budget D vs test MSE (inputs in [0, 1]^4):")
for D in (5, 10, 20, 40, 80):
    model = surrogate_rff(config, params, X_train, D=D, seed=1)
    err = mse(model, X_test, y_test)
    print(f"  D = {D:3d}   mse {err:.3e}")

# With the full spectrum and a full sampling grid the route reproduces
# the exact surrogate to machine precision.
small = CircuitConfig(n_qubits=2, n_layers=2)
small_params = ParameterSet.random(small, seed=9)
small_desc = omega_max_of(small)
exact = surrogate_exact(small, small_params)
full = surrogate_rff(
    small, small_params, full_grid(small_desc), D=canonical_count(small_desc), seed=0
)
pts = rng.uniform(0.0, 2.0 * np.pi, size=(200, 2))
gap = np.max(np.abs(predict_batch(full, pts) - predict_batch(exact, pts)))
print(f"\nfull-spectrum, full-grid sample on 2 qubits: "
      f"sup |rff - exact| = {gap:.2e}")
