"""Fourier design matrices, least-squares fitting, and the surrogate model.

The deployable artifact is a real truncated Fourier series

    s(x) = c0 + sum_w  a_w * cos(w . x) + b_w * sin(w . x)

over a set of canonical frequency vectors.  The resource-efficient route
fits it on the real [1 | cos | sin] basis over sampled canonical
frequencies, solved by an SVD pseudoinverse with relative singular-value
truncation.  The exact route (``pipeline.surrogate_exact``) builds no
design matrix: it reads the coefficients off an FFT of grid values.

The complex-exponential basis exp(-i w.x) over a full, conjugate-closed
lattice and ``complex_fit_to_real`` remain as the dense equivalent of
that FFT: for a real-valued target, c_{-w} = conj(c_w), so
a_w = 2 Re c_w and b_w = 2 Im c_w.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .spectrum import _frequency_array

__all__ = [
    "DEFAULT_RCOND",
    "DesignMatrix",
    "SurrogateModel",
    "build_complex_design",
    "build_real_design",
    "fit",
    "complex_fit_to_real",
    "evaluate_terms",
    "predict_batch",
    "mse",
    "load_model",
]

DEFAULT_RCOND = 1e-10

#: absolute imaginary residue above which a complex fit of real data is
#: flagged as non-conjugate-closed
IMAG_LEAK_TOL = 1e-6


@dataclass(frozen=True)
class DesignMatrix:
    """Sample-by-basis matrix together with its column bookkeeping.

    ``basis`` is ``"complex-exponential"`` (one column per lattice
    vector, entry exp(-i w.x)) or ``"real-trig"`` (intercept column
    followed by a cos/sin pair per canonical frequency).
    ``column_frequencies`` is the (D, d) frequency array; in the real
    basis it lists each canonical frequency once (two columns each,
    after the intercept).
    """

    entries: np.ndarray
    basis: str
    column_frequencies: np.ndarray


def _as_points(points: np.ndarray, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no sample points supplied")
    if pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, frequencies {d}")
    return pts


def build_complex_design(points: np.ndarray, freqs) -> DesignMatrix:
    """Design with entry (j, k) = exp(-i * freqs[k] . points[j])."""
    W = _frequency_array(freqs)
    pts = _as_points(points, W.shape[1])
    entries = np.exp(-1j * (pts @ W.astype(float).T))
    return DesignMatrix(entries=entries, basis="complex-exponential", column_frequencies=W)


def build_real_design(points: np.ndarray, canonical_freqs) -> DesignMatrix:
    """Design with columns [1, cos(w1.x), sin(w1.x), ..., cos(wD.x), sin(wD.x)].

    Frequencies must be canonical and nonzero; the constant term lives in
    the leading intercept column.
    """
    W = _frequency_array(canonical_freqs)
    lead = W[np.arange(len(W)), np.argmax(W != 0, axis=1)]  # first nonzero entry, or 0
    bad = np.flatnonzero(lead <= 0)
    if bad.size:
        if lead[bad[0]] == 0:
            raise ValueError("zero frequency not allowed; intercept column covers it")
        f = tuple(W[bad[0]].tolist())
        raise ValueError(f"frequency {f} is not canonical (first nonzero must be > 0)")
    pts = _as_points(points, W.shape[1])
    phases = pts @ W.astype(float).T
    rows, D = phases.shape
    entries = np.empty((rows, 1 + 2 * D))
    entries[:, 0] = 1.0
    entries[:, 1::2] = np.cos(phases)
    entries[:, 2::2] = np.sin(phases)
    return DesignMatrix(entries=entries, basis="real-trig", column_frequencies=W)


def fit(
    design: DesignMatrix, y: np.ndarray, rcond: float = DEFAULT_RCOND
) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares via SVD pseudoinverse.

    Singular values below ``rcond * sigma_max`` are truncated.  Returns
    the coefficient vector (complex or real, matching the basis) and the
    2-norm of the residual A c - y.
    """
    A = design.entries
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != A.shape[0]:
        raise ValueError(f"target length {y.shape} does not match {A.shape[0]} rows")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(A)):
        raise ValueError("design and targets must be finite")
    if not np.any(A):
        raise ValueError("design matrix is identically zero")
    if not (0.0 < rcond < 1.0):
        raise ValueError("rcond must lie in (0, 1)")
    coeffs, _, _, _ = np.linalg.lstsq(A, y.astype(A.dtype), rcond=rcond)
    residual = float(np.linalg.norm(A @ coeffs - y))
    return coeffs, residual


@dataclass(frozen=True)
class SurrogateModel:
    """Fitted real Fourier surrogate.

    ``frequencies`` is a read-only (D, d) int64 array of canonical vectors
    (``spectrum._frequency_array`` of the input); ``omega_max`` has ``d``
    entries; ``cos_coeffs``/``sin_coeffs`` hold (a_w, b_w) in matching
    order.  ``mode`` records which surrogation route produced the model
    ("exact" or "rff"); ``fingerprint`` ties it to the source circuit.
    """

    d: int
    omega_max: tuple[int, ...]
    intercept: float
    frequencies: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    mode: str
    residual: float
    fingerprint: str | None = None

    def __post_init__(self):
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        if a.shape != b.shape or a.ndim != 1 or len(a) != len(self.frequencies):
            raise ValueError("one (a, b) pair is required per frequency")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)
        if len(self.omega_max) != self.d:
            raise ValueError(f"omega_max has {len(self.omega_max)} entries, model d={self.d}")
        object.__setattr__(self, "frequencies", _frequency_array(self.frequencies, self.d))
        if self.mode not in ("exact", "rff"):
            raise ValueError("mode must be 'exact' or 'rff'")

    def to_json_dict(self) -> dict:
        doc = {
            "d": self.d,
            "omega_max": list(self.omega_max),
            "intercept": self.intercept,
            "terms": [
                {"freq": f, "a": float(a), "b": float(b)}
                for f, a, b in zip(self.frequencies.tolist(), self.cos_coeffs, self.sin_coeffs)
            ],
            "mode": self.mode,
            "residual": self.residual,
        }
        if self.fingerprint is not None:
            doc["fingerprint"] = self.fingerprint
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SurrogateModel":
        terms = doc["terms"]
        return cls(
            d=int(doc["d"]),
            omega_max=tuple(int(w) for w in doc["omega_max"]),
            intercept=float(doc["intercept"]),
            frequencies=[t["freq"] for t in terms],
            cos_coeffs=np.array([t["a"] for t in terms], dtype=float),
            sin_coeffs=np.array([t["b"] for t in terms], dtype=float),
            mode=doc["mode"],
            residual=float(doc["residual"]),
            fingerprint=doc.get("fingerprint"),
        )


def complex_fit_to_real(
    freqs, coeffs: np.ndarray
) -> tuple[float, list[tuple[int, ...]], np.ndarray, np.ndarray]:
    """Fold complex-exponential coefficients into intercept + (a, b) pairs.

    Keeps the coefficient of each canonical lattice vector and drops its
    conjugate partner; a warning is emitted if the imaginary part that
    realness should cancel exceeds IMAG_LEAK_TOL (a sign the frequency
    set was not conjugate-closed).
    """
    vectors = list(map(tuple, _frequency_array(freqs).tolist()))
    index = {f: k for k, f in enumerate(vectors)}
    coeffs = np.asarray(coeffs)
    intercept = 0.0
    zero = (0,) * len(vectors[0])
    if zero in index:
        c0 = coeffs[index[zero]]
        intercept = float(np.real(c0))
        leak = abs(np.imag(c0))
    else:
        leak = 0.0
    canon: list[tuple[int, ...]] = []
    a_list, b_list = [], []
    for f in vectors:
        conj_partner = tuple(-v for v in f)
        if f <= conj_partner:  # zero, or the first nonzero entry is negative
            continue
        c = coeffs[index[f]]
        if conj_partner in index:
            leak = max(leak, abs(coeffs[index[conj_partner]] - np.conj(c)))
        canon.append(f)
        a_list.append(2.0 * float(np.real(c)))
        b_list.append(2.0 * float(np.imag(c)))
    if leak > IMAG_LEAK_TOL:
        warnings.warn(
            f"imaginary leakage {leak:.2e} in complex fit of real data; "
            "frequency set may not be conjugate-closed",
            stacklevel=2,
        )
    return intercept, canon, np.asarray(a_list), np.asarray(b_list)


def evaluate_terms(
    X: np.ndarray,
    intercept: float,
    freqs,
    cos_coeffs: np.ndarray,
    sin_coeffs: np.ndarray,
) -> np.ndarray:
    """Evaluate c0 + sum_w a_w cos(w.x) + b_w sin(w.x) over rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not len(freqs):
        return np.full(X.shape[0], float(intercept))
    W = _frequency_array(freqs)
    if X.shape[1] != W.shape[1]:
        raise ValueError(f"input dimension {X.shape[1]} does not match model {W.shape[1]}")
    phases = X @ W.astype(float).T
    return intercept + np.cos(phases) @ np.asarray(cos_coeffs) + np.sin(phases) @ np.asarray(
        sin_coeffs
    )


def predict_batch(model: SurrogateModel, X: np.ndarray) -> np.ndarray:
    """Surrogate predictions for every row of X."""
    return evaluate_terms(
        X, model.intercept, model.frequencies, model.cos_coeffs, model.sin_coeffs
    )


def mse(model: SurrogateModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of the surrogate against targets y over X."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty evaluation set")
    return float(np.mean((predict_batch(model, X) - y) ** 2))


def load_model(path) -> SurrogateModel:
    with open(path, encoding="utf-8") as fh:
        return SurrogateModel.from_json_dict(json.load(fh))
