"""Price the exact route, then bound the sampled one.

First the dense design-matrix footprint of full-grid recovery as the
qubit count grows, classified against hardware tiers. Then the
feature-count calculators: how many sampled frequencies suffice for a
target sup-norm kernel error, and how that count moves with epsilon
and with the input dimension.
"""

from fourier_surrogates import (
    BoundParams,
    CircuitConfig,
    SpectrumDescriptor,
    bound_alpha_epsilon,
    bound_beta_d,
    bound_lrr_features,
    bound_min_features,
    empirical_kernel_sup,
    estimate_memory,
    kernel_sup_term,
    sample_distinct,
    sigma_p_of,
)

print("dense design-matrix bytes for full-grid recovery (2 layers):")
for n in (4, 6, 8, 10, 13):
    est = estimate_memory(CircuitConfig(n_qubits=n, n_layers=2))
    print(f"  {n:2d} qubits: lattice {est.lattice_size:>13,}  "
          f"{est.design_matrix_bytes:.3e} bytes  -> {est.feasible_on}")
print()

# Bound inputs for a concrete small spectrum.
desc = SpectrumDescriptor(omega_max=(2, 2))
sigma = sigma_p_of(desc)
sup_term = kernel_sup_term(desc, trial_points=200, seed=0)
_, sup_err = empirical_kernel_sup(desc, sample_distinct(desc, 6, seed=0), trial_points=200, seed=0)
print(f"2-d spectrum with omega_max (2, 2): sigma_p = {sigma:.4f}, "
      f"empirical kernel sup term = {sup_term:.4f}")
print(f"sup kernel error of six sampled frequencies out of 12: {sup_err:.3f}")
print(f"dimension constant beta_2 = {bound_beta_d(2):.4f}\n")

print("sufficient frequency count D vs target error epsilon:")
for eps in (0.4, 0.2, 0.1, 0.05):
    p = BoundParams(d=2, epsilon=eps, delta=0.05, sigma_p=sigma)
    alpha = bound_alpha_epsilon(eps, sup_term)
    print(f"  epsilon {eps:0.2f}: D >= {bound_min_features(p, alpha):>8,}")
print("(halving epsilon multiplies D by roughly four)\n")

print("dimension dependence at epsilon = 0.1 (alpha saturated at 1):")
prev = None
for d in (1, 2, 4, 8):
    p = BoundParams(d=d, epsilon=0.1, delta=0.05, sigma_p=2.0)
    D = bound_min_features(p, 1.0)
    note = "" if prev is None else f"   x{D / prev:.2f} vs d/2"
    print(f"  d = {d}: D >= {D:>8,}{note}")
    prev = D
print("(doubling d never doubles D: growth is linear, not exponential)\n")

p = BoundParams(d=2, epsilon=0.1, delta=0.05, sigma_p=sigma, lam=0.5, n_layers=2)
print(f"ridge-regression variant at lambda 0.5: D >= {bound_lrr_features(p):,}")
