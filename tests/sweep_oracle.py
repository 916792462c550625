"""The growing-design sweep: the oracle of ``experiments.sweep``'s probes.

Per seed it draws all ``d_cap`` frequencies once and grows one cos/sin
design over the fit rows and one over the test rows as the probed
prefix widens, solving each probe with its own ``lstsq``. The package's
sweep instead draws each widening probe's own frequency prefix, solves it
through ``surrogate.fit`` and serves narrower probes from one QR
factorization of it; by the prefix property of ``sample_distinct`` both
see the same designs, so their reports agree byte for byte.
Arguments are taken as valid: ``experiments.sweep`` checks them. Not a
test module: the tests import it from here.
"""

import math

import numpy as np

from fourier_surrogates import DEFAULT_RCOND, build_real_design
from fourier_surrogates.experiments import (
    SweepReport,
    _derive,
    _minimal_quantity,
    _summarize,
    linear_fit,
)
from fourier_surrogates.simulator import (
    CircuitConfig,
    NoiseConfig,
    ParameterSet,
    expectation_batch,
)
from fourier_surrogates.spectrum import canonical_count, omega_max_of, sample_distinct


class _LazyRealDesign:
    """Cos/sin design over fixed rows whose columns grow with the frequency prefix."""

    def __init__(self, X: np.ndarray, freqs):
        self.X = np.asarray(X, dtype=float)
        self.freqs = freqs
        self._mat = np.ones((self.X.shape[0], 1))
        self._built = 0

    def matrix(self, D: int) -> np.ndarray:
        if D > len(self.freqs):
            raise ValueError(f"only {len(self.freqs)} frequencies available")
        if D > self._built:
            block = build_real_design(self.X, self.freqs[self._built : D]).entries[:, 1:]
            self._mat = np.hstack([self._mat, block])
            self._built = D
        return self._mat[:, : 1 + 2 * D]


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
    """``experiments.sweep`` over one d_cap draw and growing designs per seed."""
    thresholds = [float(t) for t in thresholds]
    qubits = sorted(int(n) for n in qubit_range)
    n_train = int(round(train_fraction * dataset_size))

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
            freqs = sample_distinct(desc, d_cap, seed=_derive(base_seed, n, s, 3))
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
            design_fit = _LazyRealDesign(X_fit, freqs)
            design_test = _LazyRealDesign(X_test, freqs)
            cache: dict[int, float] = {}

            def deviation(q: int) -> float:
                if q not in cache:
                    if quantity == "frequencies":
                        A = design_fit.matrix(q)
                        target = f_fit
                        D = q
                    else:
                        A = design_fit.matrix(d_cap)[:q]
                        target = f_fit[:q]
                        D = d_cap
                    coef, _, _, _ = np.linalg.lstsq(A, target, rcond=DEFAULT_RCOND)
                    pred = design_test.matrix(D) @ coef
                    mse_s = float(np.mean((pred - y_test) ** 2))
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
