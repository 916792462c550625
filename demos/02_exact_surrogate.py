"""Recover a circuit's Fourier series exactly.

A reuploading circuit is a trigonometric polynomial with a known
frequency lattice, so sampling it on one full grid and applying a DFT
recovers every coefficient. The surrogate then matches the simulator
everywhere, not just at the sampled points.
"""

import numpy as np

from fourier_surrogates import (
    CircuitConfig,
    ParameterSet,
    canonical_count,
    expectation_batch,
    omega_max_of,
    predict_batch,
    surrogate_exact,
)

# The analytic warm-up: one qubit, one layer, all angles zero is cos(x).
tiny = CircuitConfig(n_qubits=1, n_layers=1)
model = surrogate_exact(tiny, ParameterSet.zeros(tiny))
print("1 qubit, 1 layer, zero angles:")
print(f"  intercept {model.intercept:+.2e}   "
      f"cos coeff {model.cos_coeffs[0]:+.12f}   "
      f"sin coeff {model.sin_coeffs[0]:+.2e}")
print("  (the function is exactly cos x)\n")

# A generic circuit: 3 qubits, 2 layers.
config = CircuitConfig(n_qubits=3, n_layers=2)
params = ParameterSet.random(config, seed=42)
desc = omega_max_of(config)
print(f"3 qubits, 2 layers: omega_max per feature {desc.omega_max}, "
      f"{canonical_count(desc)} canonical frequencies")

model = surrogate_exact(config, params)
print(f"surrogate mode '{model.mode}' with {len(model.frequencies)} terms, "
      f"grid residual {model.residual:.2e}")

X = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, size=(500, 3))
diff = predict_batch(model, X) - expectation_batch(config, params, X)
print(f"sup |surrogate - circuit| over 500 random points: {np.max(np.abs(diff)):.2e}")

weights = np.hypot(model.cos_coeffs, model.sin_coeffs)
order = np.argsort(weights)[::-1]
print("\nfive heaviest frequency vectors:")
for i in order[:5]:
    print(f"  {tuple(model.frequencies[i].tolist())}  amplitude {weights[i]:.4f}")
