"""Dataset containers, preprocessing transforms, and synthetic generators.

Every transform is pure: it fits its parameters (minima/maxima, PCA
components, kept row indices, split indices), records them in one
provenance entry, and gets its output by applying that entry through
``_apply``, the only code that reads an entry's parameters. ``replay``
runs the same ``_apply`` over a provenance chain from the raw data, so
it reproduces the processed arrays bit for bit by construction.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import simulator, spectrum
from .errors import InputFormatError
from .surrogate import evaluate_terms

__all__ = [
    "Dataset",
    "load_csv",
    "normalize",
    "rescale_targets",
    "pca",
    "dbscan",
    "synth_generate",
    "train_test_split",
    "replay",
    "load_dataset",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (rows = samples), target vector y, provenance log."""

    X: np.ndarray
    y: np.ndarray
    provenance: tuple = ()

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if y.shape[0] == 0:  # "X": [] keeps no feature count, so it could not be read back
            raise ValueError("empty dataset")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"{X.shape[0]} rows but {y.shape[0]} targets")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "X": self.X.tolist(),
            "y": self.y.tolist(),
            "provenance": list(self.provenance),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Dataset":
        return cls(
            X=np.asarray(doc["X"], dtype=float),
            y=np.asarray(doc["y"], dtype=float),
            provenance=tuple(doc.get("provenance", ())),
        )


def _min_max(X: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    span = maxs - mins
    out = np.zeros_like(X)
    varying = span > 0
    out[:, varying] = (X[:, varying] - mins[varying]) / span[varying]
    return out


def _apply(entry: dict, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply one preprocessing entry, with its recorded parameters, to (X, y)."""
    op = entry["op"]
    if op == "normalize":
        X = _min_max(X, np.asarray(entry["feature_min"]), np.asarray(entry["feature_max"]))
    elif op == "rescale_targets":
        lo, hi = entry["target_min"], entry["target_max"]
        half = (hi - lo) / 2.0
        y = np.zeros_like(y) if half <= 0 else (y - (hi + lo) / 2.0) / half
    elif op == "pca":
        Z = (X - np.asarray(entry["mean"])) @ np.asarray(entry["components"]).T
        X = _min_max(Z, np.asarray(entry["post_min"]), np.asarray(entry["post_max"]))
    elif op in ("dbscan", "split"):
        rows = np.asarray(entry["kept_rows" if op == "dbscan" else "indices"], dtype=int)
        X, y = X[rows], y[rows]
    else:
        raise ValueError(f"unknown provenance op {op!r}")
    return X, y


def _append(ds: Dataset, entry: dict) -> Dataset:
    X, y = _apply(entry, ds.X, ds.y)
    return Dataset(X=X, y=y, provenance=ds.provenance + (entry,))


def load_csv(path, target_column: str) -> Dataset:
    """Parse a headered numeric CSV into features + the named target column.

    Rows containing NaN or infinity are dropped; the count is recorded in
    provenance. Missing columns and non-numeric cells raise
    InputFormatError with the offending location.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise InputFormatError(
                f"{path}: target column {target_column!r} not found "
                f"(columns: {', '.join(header)})"
            )
        t_idx = header.index(target_column)
        feature_cols = [h for i, h in enumerate(header) if i != t_idx]
        rows = []
        for r, cells in enumerate(reader, start=2):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                raise InputFormatError(
                    f"{path}: row {r} has {len(cells)} cells, expected {len(header)}"
                )
            parsed = []
            for c, cell in enumerate(cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise InputFormatError(
                        f"{path}: row {r}, column {header[c]!r}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    finite = np.all(np.isfinite(data), axis=1)
    dropped = int(np.sum(~finite))
    data = data[finite]
    if data.shape[0] == 0:
        raise InputFormatError(f"{path}: every row contains NaN or infinity")
    y = data[:, t_idx]
    X = np.delete(data, t_idx, axis=1)
    entry = {
        "op": "load_csv",
        "path": str(path),
        "target_column": target_column,
        "feature_columns": feature_cols,
        "dropped_non_finite_rows": dropped,
    }
    return Dataset(X=X, y=y, provenance=(entry,))


def normalize(ds: Dataset) -> Dataset:
    """Min-max scale each feature column to [0,1]; constant columns map to 0."""
    entry = {
        "op": "normalize",
        "feature_min": ds.X.min(axis=0).tolist(),
        "feature_max": ds.X.max(axis=0).tolist(),
    }
    return _append(ds, entry)


def rescale_targets(ds: Dataset) -> Dataset:
    """Affinely map targets onto [-1, 1] (the observable's range)."""
    entry = {
        "op": "rescale_targets",
        "target_min": float(ds.y.min()),
        "target_max": float(ds.y.max()),
    }
    return _append(ds, entry)


def pca(ds: Dataset, k: int) -> Dataset:
    """Project onto the top-k covariance eigenvectors, then rescale to [0,1].

    Eigenvectors are ordered by descending eigenvalue with the
    largest-magnitude loading made positive; explained-variance ratios go
    into provenance together with the mean, the components, and the
    post-projection column ranges (everything replay needs).
    """
    if not (1 <= k <= ds.n_features):
        raise ValueError(f"k={k} out of range 1..{ds.n_features}")
    if ds.n_rows < 2:
        raise ValueError("PCA needs at least 2 rows")
    mean = ds.X.mean(axis=0)
    Xc = ds.X - mean
    cov = (Xc.T @ Xc) / (ds.n_rows - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    for j in range(eigvecs.shape[1]):
        lead = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[lead, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = float(eigvals.sum())
    ratios = eigvals / total if total > 0 else np.zeros_like(eigvals)
    # C order, as _apply reads the recorded components back, so the
    # projection here and the one _apply makes are the same product
    components = np.ascontiguousarray(eigvecs[:, :k].T)
    Z = Xc @ components.T
    entry = {
        "op": "pca",
        "k": int(k),
        "mean": mean.tolist(),
        "components": components.tolist(),
        "explained_variance_ratio": ratios[:k].tolist(),
        "post_min": Z.min(axis=0).tolist(),
        "post_max": Z.max(axis=0).tolist(),
    }
    return _append(ds, entry)


def dbscan(ds: Dataset, eps: float, min_pts: int) -> tuple[np.ndarray, Dataset]:
    """Density clustering; returns labels (noise = -1) and the de-noised dataset.

    A point is core iff at least min_pts points (itself included) lie
    within Euclidean distance eps. Clusters are the connected components
    of core points together with their border points; a border point
    reachable from several clusters goes to the first cluster discovered
    in row order. Noise rows are removed from the returned dataset; when
    every row is noise, ValueError is raised instead, since an empty
    dataset has no rows to train on and no feature count in its JSON.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    X = ds.X
    n = ds.n_rows
    neighbor_lists = [
        np.flatnonzero(np.sum((X - X[i]) ** 2, axis=1) <= eps * eps) for i in range(n)
    ]
    core = np.array([len(nb) >= min_pts for nb in neighbor_lists])
    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != -1:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for m in neighbor_lists[j]:
                if labels[m] == -1:
                    labels[m] = cluster
                    if core[m]:
                        queue.append(m)
        cluster += 1
    kept = np.flatnonzero(labels >= 0)
    if len(kept) == 0:
        raise ValueError(f"dbscan with eps={eps}, min_pts={min_pts} marks every row as noise")
    entry = {
        "op": "dbscan",
        "eps": float(eps),
        "min_pts": int(min_pts),
        "kept_rows": kept.tolist(),
        "n_noise": int(n - len(kept)),
        "n_clusters": cluster,
    }
    return labels, _append(ds, entry)


def synth_generate(
    d: int, size: int, kind: str = "trig-poly", seed: int = 0, noise_sd: float = 0.0
) -> Dataset:
    """Synthetic regression data on [0,1]^d, deterministic per seed.

    trig-poly: targets are a random truncated Fourier series with integer
    frequencies bounded by 2 per feature, coefficients drawn normal and
    rescaled so the clean targets span [-1, 1]; the rescaled ground-truth
    coefficients land in provenance, so with noise_sd = 0 the targets are
    exactly recomputable from them. circuit: targets are the expectation
    values of a randomly parameterized 2-layer reuploading circuit on d
    qubits. Gaussian noise with standard deviation noise_sd is added on
    top in both cases.
    """
    if d < 1 or size < 1:
        raise ValueError("d and size must be at least 1")
    if kind not in ("trig-poly", "circuit"):
        raise ValueError(f"unknown kind {kind!r}")
    if not 0 <= noise_sd < math.inf:
        raise ValueError("noise_sd must be non-negative and finite")
    ss = np.random.SeedSequence(seed)
    x_ss, model_ss, noise_ss = ss.spawn(3)
    X = np.random.default_rng(x_ss).random((size, d))
    entry = {"op": "synth", "kind": kind, "d": int(d), "size": int(size),
             "seed": int(seed), "noise_sd": float(noise_sd)}
    if kind == "trig-poly":
        desc = spectrum.SpectrumDescriptor(omega_max=(2,) * d)
        n_terms = min(spectrum.canonical_count(desc), 2 * d + 3)
        model_seed = int(model_ss.generate_state(1)[0])
        freqs = spectrum.sample_distinct(desc, n_terms, seed=model_seed)
        rng = np.random.default_rng(model_ss)
        intercept = float(rng.normal())
        a = rng.normal(size=n_terms)
        b = rng.normal(size=n_terms)
        raw = evaluate_terms(X, intercept, freqs, a, b)
        half = (float(raw.max()) - float(raw.min())) / 2.0
        center = (float(raw.max()) + float(raw.min())) / 2.0
        if half > 0:
            intercept = (intercept - center) / half
            a = a / half
            b = b / half
        else:
            intercept, a, b = 0.0, np.zeros_like(a), np.zeros_like(b)
        y = evaluate_terms(X, intercept, freqs, a, b)
        entry["ground_truth"] = {
            "intercept": intercept,
            "terms": [
                {"freq": f, "a": float(av), "b": float(bv)}
                for f, av, bv in zip(freqs.tolist(), a, b)
            ],
        }
    else:
        config = simulator.CircuitConfig(n_qubits=d, n_layers=2)
        param_seed = int(model_ss.generate_state(1)[0])
        params = simulator.ParameterSet.random(config, seed=param_seed)
        y = simulator.expectation_batch(config, params, X)
        entry["circuit"] = {
            "config": config.to_json_dict(),
            "param_seed": param_seed,
        }
    if noise_sd > 0:
        y = y + np.random.default_rng(noise_ss).normal(0.0, noise_sd, size)
    return Dataset(X=X, y=y, provenance=(entry,))


def train_test_split(ds: Dataset, fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seed-deterministic shuffle split; fraction is the train share."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = ds.n_rows
    n_train = int(round(fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(f"fraction {fraction} leaves an empty side for {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    base = {"fraction": float(fraction), "seed": int(seed)}
    return tuple(
        _append(ds, {"op": "split", "role": role, "indices": rows.tolist(), **base})
        for role, rows in (("train", perm[:n_train]), ("test", perm[n_train:]))
    )


def replay(raw: Dataset, provenance) -> Dataset:
    """Re-apply a provenance chain to raw arrays using the stored parameters.

    Generator entries (load_csv, synth) describe the raw data itself and
    are skipped; every other entry goes through ``_apply``, the code its
    transform ran, so the result matches the processed dataset bit for bit.
    """
    X, y = raw.X, raw.y
    for entry in provenance:
        if entry["op"] not in ("load_csv", "synth"):
            X, y = _apply(entry, X, y)
    return Dataset(X=X, y=y, provenance=tuple(provenance))


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        return Dataset.from_json_dict(json.load(fh))
