"""End-to-end surrogation routes, circuit training, and resource/bound math.

Two ways to turn a circuit into a surrogate:

* ``surrogate_exact`` simulates the circuit on the full tensor grid, in
  chunks of ``EXACT_CHUNK_ROWS`` rows, and takes one multidimensional
  FFT of the grid values. With T_i = 2*omega_max(i) + 1 points per
  feature the grid/lattice pairing is a scaled DFT, so every
  coefficient is recovered exactly up to floating point. The cost is
  one circuit evaluation per lattice vector, which explodes with
  qubits; ``CapExceeded`` guards it. ``estimate_memory`` reports the
  dense grid-by-lattice design accounting, which this route never
  builds.
* ``surrogate_rff`` replaces the grid with a given set of input points
  (normally the training data) and the lattice with D frequency vectors
  sampled uniformly without replacement, then solves the real cos/sin
  design. Cheap, approximate, and the regime the feature-count bounds
  (`bound_min_features` and friends) speak about.

``train`` fits circuit parameters to data by plain gradient descent with
parameter-shift gradients: for any Rx/Ry/Rz angle,
df/dtheta = [f(theta + pi/2) - f(theta - pi/2)] / 2 exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import CapExceeded, DomainTooSmall
from .simulator import CircuitConfig, NoiseConfig, ParameterSet, expectation_batch
from .spectrum import (
    SpectrumDescriptor,
    canonical_count,
    enumerate_canonical,
    full_grid,
    lattice_size,
    omega_max_of,
    sample_distinct,
)
from .surrogate import (
    DEFAULT_RCOND,
    SurrogateModel,
    build_real_design,
    fit,
)

# not called here; the benchmark tracer (perfbench/tracer.py) wraps both
# as pipeline attributes, so they stay importable from this module
from .surrogate import build_complex_design, complex_fit_to_real  # noqa: F401

__all__ = [
    "DEFAULT_CAP",
    "EXACT_CHUNK_ROWS",
    "TIER_LIMITS",
    "ResourceEstimate",
    "BoundParams",
    "TrainConfig",
    "fingerprint_of",
    "surrogate_exact",
    "surrogate_rff",
    "train",
    "estimate_memory",
    "bound_beta_d",
    "bound_alpha_epsilon",
    "bound_min_features",
    "bound_lrr_features",
    "kernel_error_probability",
    "lattice_kernel",
    "empirical_kernel_sup",
    "sigma_p_of",
]

#: default ceiling on lattice size for the exact route; it bounds the grid
#: rows simulated, one circuit evaluation per lattice vector
DEFAULT_CAP = 10_000

#: grid rows per simulator call on the exact route, so its statevectors
#: never take more than EXACT_CHUNK_ROWS x 2^n amplitudes at once
EXACT_CHUNK_ROWS = 4096

#: hardware-tier ceilings in bytes for classifying design-matrix storage
TIER_LIMITS = (
    ("laptop", 16_000_000_000),
    ("workstation", 8_000_000_000_000),
    ("HPC", 1_500_000_000_000_000),
)

_ESTIMATE_NOTE = (
    "design_matrix_bytes uses the dense accounting grid_size x lattice_size x "
    "bytes_per_entry. Under it a 4-qubit, 2-layer circuit needs about 6.25 MB, "
    "the 16 GB laptop tier lasts through 6 qubits at 2 layers, and the "
    "workstation tier ends at 8, so a 13-qubit, 2-layer circuit lands on "
    "'infeasible' here. Sizing conventions that place double-digit qubit "
    "counts inside these tiers assume sparser storage or different overheads "
    "than this formula models."
)


def fingerprint_of(config: CircuitConfig, params: ParameterSet) -> str:
    """Short stable hash tying a surrogate to its source circuit."""
    blob = json.dumps(
        {"config": config.to_json_dict(), "params": params.to_json_dict()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResourceEstimate:
    """Dense design-matrix footprint of the exact route for one circuit."""

    grid_size: int
    lattice_size: int
    design_matrix_bytes: int
    feasible_on: str
    bytes_per_entry: int = 16

    def to_json_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "lattice_size": self.lattice_size,
            "bytes_per_entry": self.bytes_per_entry,
            "design_matrix_bytes": self.design_matrix_bytes,
            "feasible_on": self.feasible_on,
            "tier_limits_bytes": {name: limit for name, limit in TIER_LIMITS},
            "note": _ESTIMATE_NOTE,
        }


def estimate_memory(config: CircuitConfig, bytes_per_entry: int = 16) -> ResourceEstimate:
    """Bytes needed to store the full grid-by-lattice design matrix.

    Grid and lattice have the same cardinality (one grid point per
    lattice vector and vice versa), so the byte count is lattice_size
    squared times the entry width. Exact integer arithmetic throughout.
    """
    if bytes_per_entry < 1:
        raise ValueError("bytes_per_entry must be positive")
    desc = omega_max_of(config)
    size = lattice_size(desc)
    n_bytes = size * size * int(bytes_per_entry)
    tier = "infeasible"
    for name, limit in TIER_LIMITS:
        if n_bytes <= limit:
            tier = name
            break
    return ResourceEstimate(
        grid_size=size,
        lattice_size=size,
        design_matrix_bytes=n_bytes,
        feasible_on=tier,
        bytes_per_entry=int(bytes_per_entry),
    )


def surrogate_exact(
    config: CircuitConfig,
    params: ParameterSet,
    cap: int = DEFAULT_CAP,
) -> SurrogateModel:
    """Exact surrogate from the full grid and one FFT.

    The circuit is simulated on the grid with T_i = 2*omega_max(i) + 1
    points per feature, EXACT_CHUNK_ROWS rows at a time. Then
    C = fftn(y) / N holds the coefficient of exp(+i w.x) at index
    w mod T, so the intercept is Re C_0 and each canonical w gets
    a_w = 2 Re C_w and b_w = -2 Im C_w. Frequencies come in the
    lexicographic order of the box. ``residual`` is the 2-norm of the
    series' error on the grid, computed by inverse FFT.

    Raises CapExceeded (with the memory estimate attached) when the
    lattice is larger than ``cap``.
    """
    params.validate_for(config)
    desc = omega_max_of(config)
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap, estimate=estimate_memory(config))
    grid = full_grid(desc, cap=cap)
    T = grid.per_feature_counts
    y = np.concatenate([
        expectation_batch(config, params, grid.points[start : start + EXACT_CHUNK_ROWS])
        for start in range(0, size, EXACT_CHUNK_ROWS)
    ]).reshape(T)
    C = np.fft.fftn(y) / size
    # box indices above the centre are exactly the canonical vectors
    freqs = np.stack(np.unravel_index(np.arange(size // 2 + 1, size), T), axis=1)
    freqs -= np.asarray(desc.omega_max)
    bins = tuple((freqs % T).T)
    c = C[bins]
    # the series' own spectrum is conjugate-symmetric with a real C_0
    series = np.zeros_like(C)
    series[bins] = c
    series[tuple((-freqs % T).T)] = np.conj(c)
    series.flat[0] = C.flat[0].real
    residual = float(np.linalg.norm(np.fft.ifftn(series).real * size - y))
    return SurrogateModel(
        d=desc.d,
        omega_max=desc.omega_max,
        intercept=float(C.flat[0].real),
        frequencies=tuple(map(tuple, freqs.tolist())),
        cos_coeffs=2.0 * c.real,
        sin_coeffs=-2.0 * c.imag,
        mode="exact",
        residual=residual,
        fingerprint=fingerprint_of(config, params),
    )


def surrogate_rff(
    config: CircuitConfig,
    params: ParameterSet,
    X: np.ndarray,
    D: int,
    seed: int = 0,
    noise: NoiseConfig | None = None,
    rcond: float = DEFAULT_RCOND,
) -> SurrogateModel:
    """Resource-efficient surrogate from sampled frequencies and given points.

    Evaluates the circuit at each row of X (optionally under a noise
    model), samples D distinct canonical frequencies, and solves the
    real cos/sin least-squares problem.
    """
    params.validate_for(config)
    desc = omega_max_of(config)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("at least one input point is required")
    if X.shape[1] != desc.d:
        raise ValueError(f"points have {X.shape[1]} features, circuit encodes {desc.d}")
    if D < 1:
        raise ValueError("D must be at least 1")
    freqs = sample_distinct(desc, D, seed=seed)
    y = expectation_batch(config, params, X, noise=noise)
    design = build_real_design(X, freqs)
    coeffs, residual = fit(design, y, rcond=rcond)
    return SurrogateModel(
        d=desc.d,
        omega_max=desc.omega_max,
        intercept=float(coeffs[0]),
        frequencies=tuple(freqs),
        cos_coeffs=np.asarray(coeffs[1::2], dtype=float),
        sin_coeffs=np.asarray(coeffs[2::2], dtype=float),
        mode="rff",
        residual=residual,
        fingerprint=fingerprint_of(config, params),
    )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the parameter-shift gradient-descent trainer.

    max_iters may be 0, which returns the initial parameters untouched
    (useful for fixtures). With ``shots`` set, every circuit evaluation
    is sampled, so gradients and recorded losses are noisy estimates.
    """

    learning_rate: float = 0.2
    max_iters: int = 200
    seed: int = 0
    shots: int | None = None
    tol: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive when given")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")


def train(
    config: CircuitConfig,
    dataset: Dataset,
    tc: TrainConfig,
    init: ParameterSet | None = None,
) -> tuple[ParameterSet, list[float]]:
    """Fit circuit parameters to a dataset by gradient descent on MSE.

    Gradients come from the parameter-shift rule, exact for every
    rotation angle in the circuit. Targets must already be in [-1, 1]
    (the observable's range); initial parameters default to a random
    draw from the config's shape under ``tc.seed``. Returns the final
    parameters and the loss history (initial loss first, one entry per
    iteration after it).
    """
    X, y = dataset.X, dataset.y
    if X.shape[1] != config.d_features:
        raise ValueError(
            f"dataset has {X.shape[1]} features, circuit encodes {config.d_features}"
        )
    if y.size == 0:
        raise ValueError("empty dataset")
    if y.min() < -1.0 - 1e-9 or y.max() > 1.0 + 1e-9:
        raise ValueError("targets must be rescaled to [-1, 1] before training")
    if init is None:
        init = ParameterSet.random(config, seed=tc.seed)
    init.validate_for(config)

    noise_counter = 0
    noise_base = int(np.random.SeedSequence([tc.seed, 0x7261]).generate_state(1)[0])

    def evaluate(angles: np.ndarray) -> np.ndarray:
        nonlocal noise_counter
        noise = None
        if tc.shots is not None:
            noise = NoiseConfig(shots=tc.shots, seed=noise_base + noise_counter)
            noise_counter += 1
        return expectation_batch(config, ParameterSet(angles=angles), X, noise=noise)

    angles = init.angles.copy()
    shape = angles.shape
    preds = evaluate(angles)
    loss = float(np.mean((preds - y) ** 2))
    history = [loss]
    if not math.isfinite(loss):
        raise FloatingPointError("training diverged: non-finite loss")
    half_pi = math.pi / 2
    for _ in range(tc.max_iters):
        flat = angles.reshape(-1)
        grad = np.zeros_like(flat)
        for j in range(flat.size):
            shifted = flat.copy()
            shifted[j] += half_pi
            f_plus = evaluate(shifted.reshape(shape))
            shifted[j] -= math.pi
            f_minus = evaluate(shifted.reshape(shape))
            df = (f_plus - f_minus) / 2.0
            grad[j] = float(np.mean(2.0 * (preds - y) * df))
        angles = (flat - tc.learning_rate * grad).reshape(shape)
        preds = evaluate(angles)
        loss = float(np.mean((preds - y) ** 2))
        if not math.isfinite(loss):
            raise FloatingPointError("training diverged: non-finite loss")
        history.append(loss)
        if tc.tol > 0 and abs(history[-2] - history[-1]) < tc.tol:
            break
    return ParameterSet(angles=angles), history


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the feature-count bounds.

    ``ell`` defaults to 2*pi*sqrt(d), the diameter of [0, 2*pi)^d.
    ``lam`` is the ridge strength for the depth-aware bound; it may also
    be given as per-sample ``lam0`` (then lam = m_train * lam0).
    ``c1``/``c2`` are placeholder constants (the depth-aware bound is an
    order-of-magnitude statement, not a sharp count).
    """

    d: int
    epsilon: float
    delta: float
    sigma_p: float
    ell: float | None = None
    lam: float | None = None
    lam0: float | None = None
    m_train: int | None = None
    sigma_y_sq: float | None = None
    c1: float = 1.0
    c2: float = 1.0
    n_layers: int = 1
    domain_size: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.sigma_p < 0:
            raise ValueError("sigma_p must be non-negative")
        if self.ell is None:
            object.__setattr__(self, "ell", 2.0 * math.pi * math.sqrt(self.d))
        if self.ell <= 0:
            raise ValueError("ell must be positive")

    @property
    def effective_lambda(self) -> float:
        if self.lam is not None:
            return float(self.lam)
        if self.lam0 is not None and self.m_train is not None:
            return float(self.m_train * self.lam0)
        raise ValueError("lam (or lam0 with m_train) is required for this bound")


def bound_beta_d(d: int) -> float:
    """Dimension constant of the kernel-error tail bound."""
    if d < 1:
        raise ValueError("d must be at least 1")
    h = d / 2.0
    return (h ** (-d / (d + 2.0)) + h ** (2.0 / (d + 2.0))) * 2.0 ** ((6.0 * d + 2.0) / (d + 2.0))


def bound_alpha_epsilon(epsilon: float, kernel_sup_term: float) -> float:
    """Variance proxy min(1, sup-term + epsilon/3) entering the tail bound."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return min(1.0, kernel_sup_term + epsilon / 3.0)


def _check_domain(p: BoundParams) -> float:
    sigma_ell = p.sigma_p * p.ell
    if p.epsilon > sigma_ell:
        raise DomainTooSmall(p.epsilon, sigma_ell)
    return sigma_ell


def bound_min_features(p: BoundParams, alpha_eps: float) -> int:
    """Frequencies sufficient for sup kernel error <= epsilon w.p. >= 1 - delta.

    Requires epsilon <= sigma_p * ell; grows linearly in d and as
    1/epsilon^2 up to the log factor.
    """
    sigma_ell = _check_domain(p)
    d = float(p.d)
    value = (8.0 * (d + 2.0) * alpha_eps / p.epsilon**2) * (
        (2.0 / (1.0 + 2.0 / d)) * math.log(sigma_ell / p.epsilon)
        + math.log(bound_beta_d(p.d) / p.delta)
    )
    return max(1, math.ceil(value))


def kernel_error_probability(p: BoundParams, D: int, alpha_eps: float) -> float:
    """Tail bound on Pr(sup |k - k_tilde| >= epsilon) at D features, clipped to 1."""
    if D < 1:
        raise ValueError("D must be at least 1")
    sigma_ell = _check_domain(p)
    d = float(p.d)
    value = (
        bound_beta_d(p.d)
        * (sigma_ell / p.epsilon) ** (2.0 / (1.0 + 2.0 / d))
        * math.exp(-D * p.epsilon**2 / (8.0 * (d + 2.0) * alpha_eps))
    )
    return min(1.0, value)


def bound_lrr_features(p: BoundParams) -> int:
    """Depth-aware feature count for ridge-regression surrogation.

    Evaluates d * c1 * (1+lam)^2 / (lam^4 eps^2) * (log(d L^2 |X|)
    + log(c2 (1+lam)/lam^2 - log delta)) with user-supplied constants.
    Order-of-magnitude only; c1 = c2 = 1 are placeholders.
    """
    lam = p.effective_lambda
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if p.c1 <= 0 or p.c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if p.n_layers < 1 or p.domain_size < 1:
        raise ValueError("n_layers and domain_size must be at least 1")
    inner = p.c2 * (1.0 + lam) / lam**2 - math.log(p.delta)
    value = (
        p.d
        * p.c1
        * (1.0 + lam) ** 2
        / (lam**4 * p.epsilon**2)
        * (math.log(p.d * p.n_layers**2 * p.domain_size) + math.log(inner))
    )
    return max(1, math.ceil(value))


def lattice_kernel(freqs, deltas: np.ndarray) -> np.ndarray:
    """Shift-invariant kernel mean(cos(w . delta)) over the given frequencies."""
    W = np.asarray([tuple(f) for f in freqs], dtype=float)
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    if W.size == 0:
        raise ValueError("no frequencies supplied")
    return np.mean(np.cos(deltas @ W.T), axis=1)


def empirical_kernel_sup(
    desc: SpectrumDescriptor,
    freq_sample,
    trial_points: int = 200,
    seed: int = 0,
    cap: int = 10**6,
) -> tuple[float, float]:
    """Monte-Carlo suprema comparing the exact and the sampled kernel.

    The exact kernel averages cos(w . (x - y)) over the full canonical
    lattice, the approximate one over ``freq_sample``. Over
    ``trial_points`` random pairs in [0, 2*pi)^d this returns

    * the empirical sup of 1/2 + 1/2 k(2x, 2y) - k(x, y) (feeds
      bound_alpha_epsilon), and
    * the empirical sup of |k(x - y) - k_tilde(x - y)|.
    """
    freq_sample = [tuple(f) for f in freq_sample]
    if not freq_sample:
        raise ValueError("empty frequency sample")
    if trial_points < 1:
        raise ValueError("trial_points must be at least 1")
    full = enumerate_canonical(desc, cap=cap)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0 * math.pi, size=(trial_points, desc.d))
    y = rng.uniform(0.0, 2.0 * math.pi, size=(trial_points, desc.d))
    delta = x - y
    k_full = lattice_kernel(full, delta)
    k_samp = lattice_kernel(freq_sample, delta)
    k_double = lattice_kernel(full, 2.0 * delta)
    sup_term = float(np.max(0.5 + 0.5 * k_double - k_full))
    sup_err = float(np.max(np.abs(k_full - k_samp)))
    return sup_term, sup_err


def sigma_p_of(
    desc: SpectrumDescriptor,
    exact_cap: int = 10**6,
    n_samples: int = 10**5,
    seed: int = 0,
) -> float:
    """RMS frequency norm sqrt(mean ||w||^2) over the canonical lattice.

    Exact enumeration when the canonical lattice fits under exact_cap;
    otherwise a Monte-Carlo estimate from uniform non-zero lattice draws
    (norms are sign-invariant, so sampling the signed lattice minus the
    origin matches the canonical distribution).
    """
    if canonical_count(desc) <= exact_cap:
        W = np.asarray(enumerate_canonical(desc, cap=2 * exact_cap + 1), dtype=float)
        return float(np.sqrt(np.mean(np.sum(W * W, axis=1))))
    rng = np.random.default_rng(seed)
    highs = np.asarray(desc.omega_max, dtype=int)
    total = 0.0
    collected = 0
    while collected < n_samples:
        block = rng.integers(-highs, highs + 1, size=(n_samples, desc.d))
        nonzero = np.any(block != 0, axis=1)
        block = block[nonzero]
        take = min(len(block), n_samples - collected)
        if take:
            chunk = block[:take].astype(float)
            total += float(np.sum(chunk * chunk))
            collected += take
    return float(math.sqrt(total / n_samples))
