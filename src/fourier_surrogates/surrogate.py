"""Fourier design matrices, least-squares fitting, and the surrogate model.

The deployable artifact is a real truncated Fourier series

    s(x) = c0 + sum_w  a_w * cos(w . x) + b_w * sin(w . x)

over a set of canonical frequency vectors.  The resource-efficient route
fits it on the real [1 | cos | sin] basis over sampled canonical
frequencies, solved by an SVD pseudoinverse with relative singular-value
truncation (``fit``).  A search over column prefixes of one tall design
(``experiments.sweep``) solves them from one QR factorization
(``_prefix_solver``), handing a design conditioned past
``PREFIX_COND_BOUND`` back to ``fit``.  The exact route
(``pipeline.surrogate_exact``) builds no design matrix: it reads the
coefficients off an FFT of grid values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .spectrum import _frequency_array

__all__ = [
    "DEFAULT_RCOND",
    "DesignMatrix",
    "SurrogateModel",
    "build_real_design",
    "fit",
    "evaluate_terms",
    "predict_batch",
    "mse",
    "load_model",
]

DEFAULT_RCOND = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """The real [1 | cos | sin] design.

    ``entries`` has an intercept column followed by a cos/sin pair per
    frequency, in the order the frequencies were given.
    """

    entries: np.ndarray


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
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("no sample points supplied")
    if pts.shape[1] != W.shape[1]:
        raise ValueError(f"points have dimension {pts.shape[1]}, frequencies {W.shape[1]}")
    phases = pts @ W.astype(float).T
    entries = np.empty((len(phases), 1 + 2 * len(W)))
    entries[:, 0] = 1.0
    np.cos(phases, out=entries[:, 1::2])
    np.sin(phases, out=entries[:, 2::2])
    return DesignMatrix(entries)


def _checked(design: DesignMatrix, y) -> tuple[np.ndarray, np.ndarray]:
    """The design's entries and ``y`` as floats, once both pass ``fit``'s checks."""
    A = design.entries
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != A.shape[0]:
        raise ValueError(f"target length {y.shape} does not match {A.shape[0]} rows")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(A)):
        raise ValueError("design and targets must be finite")
    if not np.any(A):
        raise ValueError("design matrix is identically zero")
    return A, y


def fit(
    design: DesignMatrix, y: np.ndarray, rcond: float = DEFAULT_RCOND
) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares via SVD pseudoinverse.

    Singular values below ``rcond * sigma_max`` are truncated.  Returns
    the coefficient vector, in the design's dtype, and the 2-norm of the
    residual A c - y.
    """
    A, y = _checked(design, y)
    if not (0.0 < rcond < 1.0):
        raise ValueError("rcond must lie in (0, 1)")
    coeffs, _, _, _ = np.linalg.lstsq(A, y.astype(A.dtype), rcond=rcond)
    residual = float(np.linalg.norm(A @ coeffs - y))
    return coeffs, residual


#: Condition number above which ``_prefix_solver`` hands its prefixes to
#: ``fit``.  Below it ``fit``'s SVD truncates no singular value (the bound
#: sits two decades under ``1 / DEFAULT_RCOND``), so both solve the same
#: full-rank problem and differ by rounding only.
PREFIX_COND_BOUND = 1e8


def _prefix_solver(design: DesignMatrix, y: np.ndarray):
    """Least squares on every column prefix of one tall real design.

    Checks the design and targets once, with ``fit``'s messages, and takes
    the R of the QR factorization of [A | y] once.  The returned function
    maps k to the coefficients of A[:, :k] against y, R[:k, :k] \\ R[:k, -1]
    (Golub & Van Loan, Matrix Computations, section 5.3).  Dropping
    columns cannot raise a tall matrix's condition number, so one SVD of
    A's R bounds every prefix; above PREFIX_COND_BOUND each prefix is
    solved by ``fit`` instead.
    """
    A, y = _checked(design, y)
    p = A.shape[1]
    if p > A.shape[0]:
        raise ValueError(f"prefix solver needs a tall design, got {A.shape}")
    R = np.linalg.qr(np.column_stack([A, y]), mode="r")
    s = np.linalg.svd(R[:p, :p], compute_uv=False)
    if not s[0] <= PREFIX_COND_BOUND * s[-1]:
        return lambda k: fit(DesignMatrix(A[:, :k]), y)[0]
    return lambda k: np.linalg.solve(R[:k, :k], R[:k, -1])


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
    """Mean squared error of the surrogate against targets y, one per row of X."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty evaluation set")
    preds = predict_batch(model, X)
    if len(y) != len(preds):
        raise ValueError(f"{len(preds)} input rows but {len(y)} targets")
    return float(np.mean((preds - y) ** 2))


def load_model(path) -> SurrogateModel:
    with open(path, encoding="utf-8") as fh:
        return SurrogateModel.from_json_dict(json.load(fh))
