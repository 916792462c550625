"""Scaling experiments: minimal-resource sweeps, linear fits, showcase runs.

The central quantity is the relative test-MSE deviation

    (mse_surrogate - mse_quantum) / mse_quantum

where both MSEs are taken against the same test targets and the quantum
reference MSE always uses noiseless circuit evaluations (the surrogate
may have been fitted from noisy ones, and the point of the noise study
is how much that costs).

``sweep`` judges the surrogate on the task the circuit itself is good
at: test targets are the circuit's own noiseless outputs plus a small
Gaussian jitter, so the quantum reference MSE sits at the jitter floor
and the deviation directly measures how much surrogation gives up
against it. Per qubit count and threshold it finds the minimal number
of sampled frequencies (or training datapoints) whose deviation stays
under the threshold. Per seed a bracket-plus-bisection search probes
prefixes of one frequency draw (or one row shuffle): ``sample_distinct``
is ordered by draw, so a probe at D frequencies draws just D and gets
the first D of every longer draw, while a probe at q rows fits the first
q rows of one design built once per seed. The design's columns are
interleaved (1, cos w1, sin w1, cos w2, ...), so a frequency probe's
design is a column prefix of every wider probe's: a probe wider than
any before it draws, builds and solves through ``surrogate.fit``, and
one narrower than the widest tall probe so far (rows >= columns) is a
triangular solve on a prefix of that probe's QR factorization
(``surrogate._prefix_solver``, taken once, when the first such probe
asks). Row probes solve through ``fit``: at criterion 06's shape with
shots about a third of the tall row prefixes are conditioned past the
prefix solver's bound. The reported requirement is the median of the per-seed minima; under
per-seed monotonicity of the deviation in the probed quantity this
equals the smallest quantity whose median deviation clears the
threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .datasets import rescale_targets, synth_generate, train_test_split
from .pipeline import TrainConfig, _fit_rff, fingerprint_of, train
from .simulator import CircuitConfig, NoiseConfig, ParameterSet, expectation_batch
from .spectrum import canonical_count, lattice_size, omega_max_of, sample_distinct
from .surrogate import DEFAULT_RCOND, DesignMatrix, _prefix_solver, build_real_design, fit, mse

__all__ = [
    "SweepReport",
    "linear_fit",
    "sweep",
    "sweep_to_csv",
    "showcase",
]


def _derive(*parts: int) -> int:
    """Deterministic child seed from integer tags."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def linear_fit(xs, ys) -> dict:
    """Ordinary least-squares line through (xs, ys).

    Returns slope, intercept, residual (2-norm), and r2, with r2 defined
    as 1.0 for a perfectly fit constant target.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d and of equal length")
    if len(np.unique(xs)) < 2:
        raise ValueError("need at least 2 distinct x values")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "residual": math.sqrt(ss_res),
        "r2": float(r2),
    }


@dataclass(frozen=True)
class SweepReport:
    """Minimal-resource requirements per qubit count and threshold.

    records: one dict per (n_qubits, threshold), sorted by n_qubits,
    with the median requirement and the mean/std of per-seed minima.
    fits: one least-squares line per threshold over the finite medians.
    """

    axis: str
    quantity: str
    records: tuple
    fits: tuple
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "quantity": self.quantity,
            "records": list(self.records),
            "fits": list(self.fits),
            "config": self.config,
        }


def _minimal_quantity(deviation, lo: int, hi: int, threshold: float):
    """Smallest q in [lo, hi] with deviation(q) <= threshold, or None.

    Exponential bracket from lo, then bisection. deviation is treated as
    (approximately) non-increasing in q; it is memoized by the caller.
    """
    if deviation(lo) <= threshold:
        return lo
    bad = lo
    q = lo
    while q < hi:
        q = min(2 * q, hi)
        if deviation(q) <= threshold:
            break
        bad = q
    else:
        return None
    good = q
    while good - bad > 1:
        mid = (bad + good) // 2
        if deviation(mid) <= threshold:
            good = mid
        else:
            bad = mid
    return good


def _summarize(minima: list, n: int, threshold: float, seeds: int) -> dict:
    values = [math.inf if m is None else float(m) for m in minima]
    finite = [v for v in values if math.isfinite(v)]
    median = float(np.median(values)) if values else math.inf
    saturated = not math.isfinite(median)
    return {
        "n_qubits": int(n),
        "threshold": float(threshold),
        "required_quantity": None if saturated else median,
        "seeds_used": int(seeds),
        "mean": float(np.mean(finite)) if finite else None,
        "std": float(np.std(finite)) if finite else None,
        "n_saturated": int(len(values) - len(finite)),
        "saturated": saturated,
    }


def sweep(
    quantity: str,
    qubit_range,
    thresholds=(0.1,),
    seeds: int = 20,
    n_layers: int = 2,
    dataset_size: int = 500,
    train_fraction: float = 0.7,
    max_frequencies: int = 10_000,
    shots: int | None = None,
    depolarizing: float = 0.0,
    noise_sd: float = 0.02,
    base_seed: int = 0,
) -> SweepReport:
    """Minimal frequencies (or datapoints) to stay under deviation thresholds.

    Per qubit count n a fixed input sample (d = n features, uniform in
    [0, 1)) is drawn and split; each seed then draws fresh circuit
    parameters, a fresh frequency sequence, and (datapoints mode) a
    fresh row order. Test targets are that seed's noiseless circuit
    outputs plus Gaussian jitter of scale noise_sd, so the quantum
    reference MSE is the jitter floor. The surrogate is fitted to the
    circuit's outputs on the training rows; any shots/depolarizing
    settings apply only to those fit evaluations, never to the
    reference. In frequencies mode the fit always uses the full
    training split and the frequency count is searched; in datapoints
    mode the frequency count is pinned at min(max_frequencies, canonical
    lattice size) and the training-row count is searched. Unreachable
    thresholds mark the record saturated instead of aborting.

    A frequency probe below the widest tall probe of its seed reuses that
    probe's draw, designs and QR factorization, so it solves without a
    draw, a design build or an SVD; its deviation agrees with ``fit``'s
    to rounding (the prefix solver's conditioning bound keeps it there).
    """
    if quantity not in ("frequencies", "datapoints"):
        raise ValueError("quantity must be 'frequencies' or 'datapoints'")
    if seeds < 1:
        raise ValueError("at least one seed is required")
    if max_frequencies < 1:
        raise ValueError("max_frequencies must be at least 1")
    if not 0 < noise_sd < math.inf:
        raise ValueError("noise_sd must be positive and finite (it sets the reference MSE)")
    thresholds = [float(t) for t in thresholds]
    if not thresholds or not all(0 < t < math.inf for t in thresholds):
        raise ValueError("thresholds must be positive and finite")
    if len(set(thresholds)) < len(thresholds):
        raise ValueError("thresholds must be distinct")
    qubits = sorted(int(n) for n in qubit_range)
    if not qubits:
        raise ValueError("empty qubit range")
    if len(set(qubits)) < len(qubits):
        raise ValueError("qubit counts must be distinct")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n_train = int(round(train_fraction * dataset_size))
    if n_train < 1 or n_train >= dataset_size:
        raise ValueError("train_fraction leaves an empty split")

    records = []
    for n in qubits:
        config = CircuitConfig(n_qubits=n, n_layers=n_layers)
        desc = omega_max_of(config)
        d_cap = min(int(max_frequencies), canonical_count(desc))
        X = np.random.default_rng(_derive(base_seed, n, 0)).random((dataset_size, n))
        perm = np.random.default_rng(_derive(base_seed, n, 1)).permutation(dataset_size)
        X_train = X[perm[:n_train]]
        X_test = X[perm[n_train:]]
        per_threshold = {t: [] for t in thresholds}
        for s in range(seeds):
            params = ParameterSet.random(config, seed=_derive(base_seed, n, s, 2))
            freq_seed = _derive(base_seed, n, s, 3)
            X_fit = X_train
            if quantity == "datapoints":
                order = np.random.default_rng(
                    _derive(base_seed, n, s, 4)
                ).permutation(n_train)
                X_fit = X_train[order]
            noise = NoiseConfig(
                shots=shots, depolarizing_p=depolarizing, seed=_derive(base_seed, n, s, 5)
            )
            f_fit = expectation_batch(config, params, X_fit, noise=noise)
            f_test = expectation_batch(config, params, X_test)
            y_test = f_test + np.random.default_rng(
                _derive(base_seed, n, s, 6)
            ).normal(0.0, noise_sd, f_test.shape)
            mse_q = float(np.mean((f_test - y_test) ** 2))

            if quantity == "datapoints":
                freqs = sample_distinct(desc, d_cap, seed=freq_seed)
                pinned = build_real_design(X_fit, freqs).entries
                pinned_test = build_real_design(X_test, freqs).entries
            cache: dict[int, float] = {}
            # the widest tall probe so far: its q, fit and test designs, and
            # the prefix solver of its fit design once a narrower probe asks
            held_q, held_fit, held_test, held_solve = 0, None, None, None

            def deviation(q: int) -> float:
                nonlocal held_q, held_fit, held_test, held_solve
                if q not in cache:
                    if quantity == "datapoints":
                        coef, _ = fit(DesignMatrix(pinned[:q]), f_fit[:q])
                        test = pinned_test
                    elif q < held_q:
                        if held_solve is None:
                            held_solve = _prefix_solver(held_fit, f_fit)
                        coef, test = held_solve(1 + 2 * q), held_test[:, : 1 + 2 * q]
                    else:
                        freqs = sample_distinct(desc, q, seed=freq_seed)
                        design = build_real_design(X_fit, freqs)
                        coef, _ = fit(design, f_fit)
                        tall = 1 + 2 * q <= n_train
                        if not tall:
                            del design  # free it before the test design is built
                        test = build_real_design(X_test, freqs).entries
                        if tall:
                            held_q, held_fit, held_test, held_solve = q, design, test, None
                    mse_s = float(np.mean((test @ coef - y_test) ** 2))
                    cache[q] = (mse_s - mse_q) / mse_q if mse_q > 0 else math.inf
                return cache[q]

            hi = d_cap if quantity == "frequencies" else n_train
            for t in thresholds:
                per_threshold[t].append(_minimal_quantity(deviation, 1, hi, t))
        for t in thresholds:
            records.append(_summarize(per_threshold[t], n, t, seeds))

    records.sort(key=lambda r: (r["n_qubits"], r["threshold"]))
    fits = []
    for t in thresholds:
        pts = [
            (r["n_qubits"], r["required_quantity"])
            for r in records
            if r["threshold"] == t and r["required_quantity"] is not None
        ]
        entry = {"threshold": t}
        if len(pts) >= 2:
            entry.update(linear_fit([p[0] for p in pts], [p[1] for p in pts]))
        else:
            entry["skipped"] = "fewer than 2 finite medians"
        fits.append(entry)
    cfg = {
        "quantity": quantity,
        "qubits": qubits,
        "thresholds": thresholds,
        "seeds": seeds,
        "n_layers": n_layers,
        "dataset_size": dataset_size,
        "train_fraction": train_fraction,
        "max_frequencies": max_frequencies,
        "shots": shots,
        "depolarizing": depolarizing,
        "noise_sd": noise_sd,
        "base_seed": base_seed,
    }
    return SweepReport(
        axis="qubits", quantity=quantity, records=tuple(records),
        fits=tuple(fits), config=cfg,
    )


def sweep_to_csv(report: SweepReport, path) -> None:
    """Plotter-friendly curve: n_qubits, threshold, quantity_mean, quantity_std."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_qubits", "threshold", "quantity_mean", "quantity_std"])
        for r in report.records:
            writer.writerow(
                [
                    r["n_qubits"],
                    r["threshold"],
                    "" if r["mean"] is None else repr(r["mean"]),
                    "" if r["std"] is None else repr(r["std"]),
                ]
            )


def showcase(
    n_qubits: int = 8,
    n_layers: int = 2,
    dataset_size: int = 500,
    n_frequencies: int = 170,
    seeds: int = 10,
    train_iters: int = 40,
    learning_rate: float = 0.3,
    noise_sd: float = 0.1,
    train_fraction: float = 0.7,
    shots: int | None = None,
    depolarizing: float = 0.0,
    base_seed: int = 0,
) -> dict:
    """Train a circuit on synthetic data, surrogate it with few frequencies.

    One circuit is trained once; the seed ensemble varies the frequency
    draw of the surrogation step. The headline numbers are the quantum
    model's test MSE, the surrogate's (median over seeds), and the
    fraction of the frequency lattice the surrogate consumed.
    """
    if seeds < 1:
        raise ValueError("at least one seed is required")
    if n_frequencies < 1:
        raise ValueError("n_frequencies must be at least 1")
    config = CircuitConfig(n_qubits=n_qubits, n_layers=n_layers)
    noise = NoiseConfig(shots=shots, depolarizing_p=depolarizing, seed=_derive(base_seed, 13))
    desc = omega_max_of(config)
    ds = synth_generate(
        d=n_qubits, size=dataset_size, kind="trig-poly",
        seed=_derive(base_seed, 10), noise_sd=noise_sd,
    )
    ds = rescale_targets(ds)
    train_ds, test_ds = train_test_split(ds, train_fraction, seed=_derive(base_seed, 11))
    tc = TrainConfig(
        learning_rate=learning_rate, max_iters=train_iters,
        seed=_derive(base_seed, 12),
    )
    params, history = train(config, train_ds, tc)
    f_test = expectation_batch(config, params, test_ds.X)
    quantum_mse = float(np.mean((f_test - test_ds.y) ** 2))
    size = lattice_size(desc)
    # every seed fits the same circuit values on its own frequency draw
    y_train = expectation_batch(config, params, train_ds.X, noise=noise)
    fingerprint = fingerprint_of(config, params)
    per_seed = []
    for s in range(seeds):
        freqs = sample_distinct(desc, n_frequencies, seed=_derive(base_seed, 14, s))
        model = _fit_rff(desc, train_ds.X, y_train, freqs, DEFAULT_RCOND, fingerprint)
        mse_s = mse(model, test_ds.X, test_ds.y)
        per_seed.append(
            {
                "seed_index": s,
                "surrogate_test_mse": mse_s,
                "relative_deviation": (mse_s - quantum_mse) / quantum_mse
                if quantum_mse > 0
                else math.inf,
            }
        )
    surrogate_mses = [p["surrogate_test_mse"] for p in per_seed]
    deviations = [p["relative_deviation"] for p in per_seed]
    return {
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "dataset_size": dataset_size,
        "n_frequencies": n_frequencies,
        "lattice_size": size,
        "frequency_fraction": n_frequencies / size,
        "seeds": seeds,
        "quantum_test_mse": quantum_mse,
        "surrogate_test_mse": float(np.median(surrogate_mses)),
        "relative_deviation_median": float(np.median(deviations)),
        "train_loss_initial": history[0],
        "train_loss_final": history[-1],
        "train_iterations": len(history) - 1,
        "per_seed": per_seed,
    }
