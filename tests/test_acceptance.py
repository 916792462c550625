"""Acceptance gate: ten numbered end-to-end checks.

Each check prints exactly one verdict line straight to the terminal
(bypassing capture), then asserts, so a full run always shows ten
"[criterion NN] PASS/FAIL" lines in order. The heavier checks also
enforce their wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

import fourier_surrogates as fs


@pytest.fixture
def report(capsys):
    def _report(idx: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {idx:02d}] {verdict}: {detail}")
        assert ok, f"criterion {idx:02d}: {detail}"

    return _report


def test_01_exact_surrogate_matches_simulator_off_grid(report):
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for n_layers in (1, 2):
            config = fs.CircuitConfig(n_qubits=n, n_layers=n_layers)
            rng = np.random.default_rng(1000 * n + n_layers)
            for s in range(5):
                params = fs.ParameterSet.random(config, seed=100 * n + 10 * n_layers + s)
                model = fs.surrogate_exact(config, params)
                X = rng.uniform(0.0, 2.0 * np.pi, size=(200, n))
                diff = fs.predict_batch(model, X) - fs.expectation_batch(config, params, X)
                worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    report(1, ok,
           f"sup deviation {worst:.3e} (tol 1e-8) over 40 circuits x 200 "
           f"off-grid points, {elapsed:.1f}s (budget 120s)")


def test_02_single_qubit_zero_angle_fixture(report):
    config = fs.CircuitConfig(n_qubits=1, n_layers=1)
    params = fs.ParameterSet.zeros(config)
    model = fs.surrogate_exact(config, params)
    assert model.frequencies == ((1,),)
    c0 = model.intercept
    a1 = float(model.cos_coeffs[0])
    b1 = float(model.sin_coeffs[0])
    err = max(abs(c0), abs(a1 - 1.0), abs(b1))
    ok = err <= 1e-10
    report(2, ok,
           f"(c0, a1, b1) = ({c0:.2e}, {a1:.12f}, {b1:.2e}), "
           f"max deviation from (0, 1, 0) is {err:.2e} (tol 1e-10)")


def test_03_rff_with_full_spectrum_and_grid_equals_exact(report):
    worst = 0.0
    for n in (1, 2, 3):
        config = fs.CircuitConfig(n_qubits=n, n_layers=2)
        params = fs.ParameterSet.random(config, seed=n)
        desc = fs.omega_max_of(config)
        points = fs.full_grid(desc)
        exact = fs.surrogate_exact(config, params)
        rff = fs.surrogate_rff(
            config, params, points, D=fs.canonical_count(desc), seed=0
        )
        X = np.random.default_rng(50 + n).uniform(0.0, 2.0 * np.pi, size=(100, n))
        diff = fs.predict_batch(rff, X) - fs.predict_batch(exact, X)
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = worst <= 1e-8
    report(3, ok,
           f"max |rff - exact| {worst:.3e} (tol 1e-8) at full spectrum and "
           f"full grid, n in 1..3")


def test_04_showcase_few_frequencies_small_deviation(report):
    t0 = time.monotonic()
    rep = fs.showcase(train_iters=12, seeds=10)
    elapsed = time.monotonic() - t0
    dev = rep["relative_deviation_median"]
    frac = rep["frequency_fraction"]
    ok = dev <= 0.10 and frac <= 0.01 and elapsed < 900.0
    report(4, ok,
           f"8-qubit showcase: median relative MSE deviation {dev:+.4f} "
           f"(limit +0.10) using {rep['n_frequencies']}/{rep['lattice_size']} "
           f"= {frac:.2e} of the lattice (limit 1e-2), {elapsed:.0f}s (budget 900s)")


def test_05_required_frequencies_scale_gently(report):
    t0 = time.monotonic()
    rep = fs.sweep("frequencies", range(4, 8), thresholds=(0.1,), seeds=20)
    elapsed = time.monotonic() - t0
    medians = [r["required_quantity"] for r in rep.records]
    finite = all(m is not None for m in medians)
    nondecreasing = finite and all(a <= b for a, b in zip(medians, medians[1:]))
    r2 = rep.fits[0].get("r2", 0.0)
    canon7 = fs.canonical_count(
        fs.omega_max_of(fs.CircuitConfig(n_qubits=7, n_layers=2))
    )
    within_cap = finite and medians[-1] <= 0.05 * canon7
    ok = nondecreasing and r2 >= 0.8 and within_cap and elapsed < 3600.0
    report(5, ok,
           f"median required frequencies for n=4..7: {medians}, "
           f"non-decreasing={nondecreasing}, linear r2={r2:.3f} (>= 0.8), "
           f"n=7 uses {medians[-1] / canon7:.2%} of {canon7} canonical vectors "
           f"(limit 5%), {elapsed:.0f}s (budget 3600s)")


def test_06_shot_noise_raises_datapoint_requirement(report):
    kwargs = dict(
        qubit_range=(3, 4, 5), thresholds=(0.1,), seeds=20,
        dataset_size=2000, max_frequencies=60, noise_sd=0.02,
    )
    clean = fs.sweep("datapoints", **kwargs)
    noisy = fs.sweep("datapoints", shots=1024, **kwargs)
    rows = []
    ok = True
    for c, m in zip(clean.records, noisy.records):
        c_med = c["required_quantity"]
        m_med = math.inf if m["required_quantity"] is None else m["required_quantity"]
        if c_med is None or not m_med > c_med:
            ok = False
        rows.append(f"n={c['n_qubits']}: {c_med:g} -> {m_med:g}")
    report(6, ok,
           "median required training rows, noiseless -> 1024 shots: "
           + "; ".join(rows) + " (strict increase required at every n)")


def test_07_feature_count_bound_calculators(report):
    beta5 = (2.5 ** (-5.0 / 7.0) + 2.5 ** (2.0 / 7.0)) * 2.0 ** (32.0 / 7.0)
    beta_ok = (
        abs(fs.bound_beta_d(1) - 12.0) <= 1e-9
        and abs(fs.bound_beta_d(2) - 2.0 ** 4.5) <= 1e-9
        and abs(fs.bound_beta_d(5) - beta5) <= 1e-9
    )

    try:
        fs.bound_min_features(
            fs.BoundParams(d=2, epsilon=5.0, delta=0.05, sigma_p=0.1, ell=1.0), 1.0
        )
        rejects = False
    except fs.DomainTooSmall:
        rejects = True

    def D(d, eps):
        return fs.bound_min_features(
            fs.BoundParams(d=d, epsilon=eps, delta=0.05, sigma_p=2.0), 1.0
        )

    halving = [D(d, eps / 2) / D(d, eps) for d in (1, 2, 5) for eps in (0.2, 0.1)]
    halving_ok = all(3.5 <= r <= 4.5 for r in halving)
    doubling = [D(2 * d, 0.1) / D(d, 0.1) for d in (1, 2, 5)]
    doubling_ok = all(r <= 2.5 for r in doubling)

    ok = beta_ok and rejects and halving_ok and doubling_ok
    report(7, ok,
           f"beta_d hand values match at d=1,2,5 (tol 1e-9); epsilon above "
           f"sigma_p*ell rejected={rejects}; halving-epsilon ratios "
           f"{min(halving):.2f}..{max(halving):.2f} in [3.5, 4.5]; "
           f"dimension-doubling ratios <= {max(doubling):.2f} (limit 2.5)")


def test_08_kernel_error_within_probability_bound(report):
    desc = fs.SpectrumDescriptor(omega_max=(2, 2))
    freqs = fs.enumerate_canonical(desc, cap=100)
    sigma = fs.sigma_p_of(desc)
    sup_term, _ = fs.empirical_kernel_sup(desc, freqs, trial_points=200, seed=0)
    alpha = fs.bound_alpha_epsilon(0.3, sup_term)
    params = fs.BoundParams(d=2, epsilon=0.3, delta=0.05, sigma_p=sigma)
    p_bound = fs.kernel_error_probability(params, 6, alpha)

    deltas = np.random.default_rng(99).uniform(-np.pi, np.pi, size=(400, 2))
    k_true = fs.lattice_kernel(freqs, deltas)
    failures = 0
    for s in range(50):
        sample = fs.sample_distinct(desc, 6, seed=s)
        k_hat = fs.lattice_kernel(sample, deltas)
        if float(np.max(np.abs(k_true - k_hat))) >= 0.3:
            failures += 1
    frac = failures / 50.0
    ok = frac <= p_bound
    report(8, ok,
           f"fraction of 50 six-frequency draws with sup kernel error >= 0.3 "
           f"is {frac:.2f}, clipped tail bound {p_bound:.3f}")


def test_09_memory_estimator_ratios_and_tiers(report):
    ratios_exact = True
    for n_layers in (1, 2, 3):
        step = (2 * n_layers + 1) ** 2
        for n in (1, 2, 3, 4, 6, 8, 12):
            a = fs.estimate_memory(fs.CircuitConfig(n_qubits=n, n_layers=n_layers))
            b = fs.estimate_memory(fs.CircuitConfig(n_qubits=n + 1, n_layers=n_layers))
            if b.design_matrix_bytes != a.design_matrix_bytes * step:
                ratios_exact = False
    est13 = fs.estimate_memory(fs.CircuitConfig(n_qubits=13, n_layers=2))
    infeasible = est13.feasible_on == "infeasible"
    doc = est13.to_json_dict()
    note_emitted = "6.25" in doc.get("note", "") and "infeasible" in doc.get("note", "")
    ok = ratios_exact and infeasible and note_emitted
    report(9, ok,
           f"per-qubit byte ratio (2L+1)^2 exact for L=1..3; 13-qubit 2-layer "
           f"run needs {est13.design_matrix_bytes:.2e} bytes, tier "
           f"'{est13.feasible_on}'; sizing-discrepancy note emitted={note_emitted}")


def _brute_force_dbscan(X: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Straight-line reference: all-pairs distances, then BFS over cores."""
    n = len(X)
    dist = np.sqrt(np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
    neighbors = [set(np.flatnonzero(dist[i] <= eps)) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [-1] * n
    current = 0
    for start in range(n):
        if not core[start] or labels[start] != -1:
            continue
        labels[start] = current
        frontier = [start]
        while frontier:
            nxt = []
            for j in frontier:
                for m in sorted(neighbors[j]):
                    if labels[m] == -1:
                        labels[m] = current
                        if core[m]:
                            nxt.append(m)
            frontier = nxt
        current += 1
    return np.asarray(labels)


def test_10_preprocessing_and_gradient_checks(report):
    dbscan_ok = True
    for seed in range(20):
        X = np.random.default_rng(seed).uniform(0.0, 10.0, size=(200, 2))
        labels, _ = fs.dbscan(fs.Dataset(X=X, y=np.zeros(200)), eps=0.8, min_pts=4)
        if not np.array_equal(labels, _brute_force_dbscan(X, 0.8, 4)):
            dbscan_ok = False
            break

    X = np.random.default_rng(7).normal(size=(200, 6))
    X = X @ np.diag([4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
    reduced = fs.pca(fs.Dataset(X=X, y=np.zeros(200)), k=6)
    evr = np.asarray(reduced.provenance[-1]["explained_variance_ratio"])
    evr_sum_err = abs(float(evr.sum()) - 1.0)
    pca_ok = bool(np.all(np.diff(evr) <= 1e-12)) and evr_sum_err <= 1e-10

    config = fs.CircuitConfig(n_qubits=3, n_layers=2)
    base = fs.ParameterSet.random(config, seed=21)
    x = np.array([[0.4, 1.7, 2.9]])
    flat = base.angles.reshape(-1)
    shape = base.angles.shape
    h = 1e-5
    worst = 0.0
    for j in range(flat.size):
        def f(offset):
            shifted = flat.copy()
            shifted[j] += offset
            return fs.expectation_batch(config, fs.ParameterSet(shifted.reshape(shape)), x)[0]

        shift_grad = (f(np.pi / 2) - f(-np.pi / 2)) / 2.0
        fd_grad = (f(h) - f(-h)) / (2.0 * h)
        worst = max(worst, abs(shift_grad - fd_grad))
    grad_ok = worst <= 1e-6

    ok = dbscan_ok and pca_ok and grad_ok
    report(10, ok,
           f"DBSCAN equals brute force on 20 random 200-point sets={dbscan_ok}; "
           f"explained-variance ratios non-increasing, sum-to-1 error "
           f"{evr_sum_err:.1e} (tol 1e-10); parameter-shift vs finite-difference "
           f"gradient mismatch {worst:.2e} (tol 1e-6)")
