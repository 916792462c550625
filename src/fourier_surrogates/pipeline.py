"""End-to-end surrogation routes, circuit training, and resource/bound math.

Two ways to turn a circuit into a surrogate:

* ``surrogate_exact`` runs the circuit once, on the Fourier coefficients
  of its state (``simulator.state_coefficients``), and never simulates
  a grid point. It evaluates the exact model on the tensor grid with
  T_i = 2*omega_max(i) + 1 points per feature by inverse FFTs of those
  coefficients, in blocks of basis states, and takes one
  multidimensional FFT of the values. On that grid the grid/lattice
  pairing is a scaled DFT, so every coefficient is recovered exactly up
  to floating point. The centred spectrum is read in ``spectrum``'s box
  order: the intercept at N // 2, the canonical terms above it. Memory
  grows with the lattice size times 2^n; ``CapExceeded`` guards it.
  ``estimate_memory`` reports what this route needs next to the dense
  grid-by-lattice design accounting, which the route never builds.
* ``surrogate_rff`` replaces the grid with a given set of input points
  (normally the training data) and the lattice with D frequency vectors
  sampled uniformly without replacement, then solves the real cos/sin
  design. Cheap, approximate, and the regime the feature-count bounds
  (`bound_min_features` and friends) speak about.

``train`` fits circuit parameters to data by plain gradient descent.
Noiseless gradients are adjoint-state (``simulator.mse_gradient``: one
forward pass that saves the state at each block's start, and one sweep
back that carries only the costate and reads the states it needs from
those starts, whatever the number of angles P; it holds L + 2
state-sized arrays). Training with shots keeps the parameter-shift rule, which
needs only sampled expectations: for any Rx/Ry/Rz angle,
df/dtheta = [f(theta + pi/2) - f(theta - pi/2)] / 2 exactly, so one
iteration costs 2P + 1 sampled circuit evaluations
(``simulator._shots_gradient``). The unshifted one saves the state at
each block's start. The six shifted circuits of a qubit's three angles
are then read off one walk of three probe states from that qubit's
rotations to the end, so the 2P shifted states cost 3n(L+1) walks of
a 3 * rows batch, and equal full passes' to within ~1e-15.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import CapExceeded, DomainTooSmall
from .simulator import (
    CircuitConfig,
    NoiseConfig,
    ParameterSet,
    _check_shots,
    _mean_z_diagonal,
    _shots_gradient,
    expectation_batch,
    mse_gradient,
    state_coefficients,
)
from .spectrum import (
    SpectrumDescriptor,
    _frequency_array,
    enumerate_canonical,
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

# not called here; the benchmark tracer (perfbench/tracer.py) wraps these
# as pipeline attributes, so they stay importable from this module
from .spectrum import full_grid  # noqa: F401

# the tracer also wraps these two names, which nothing defines or calls
# any more; they go with its targets once it reads an in-package
# recorder (ROADMAP item 1)
build_complex_design = complex_fit_to_real = None

__all__ = [
    "DEFAULT_CAP",
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
    "kernel_sup_term",
    "sigma_p_of",
]

#: default ceiling on lattice size for the exact route; it bounds the grid
#: values computed, one per lattice vector
DEFAULT_CAP = 10_000

#: the exact route's inverse FFTs take blocks of basis states that hold at
#: most EXACT_BLOCK_ROWS x 2^n amplitudes, as that many statevectors would
EXACT_BLOCK_ROWS = 4096

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
    "than this formula models. surrogate_exact builds no design matrix; "
    "exact_route_bytes is what it holds: the state's coefficient tensor "
    "(prod(omega_max(i) + 1) x 2^n complex entries) with the buffers its walk "
    "holds, the grid values and their FFT, and one inverse-FFT block. "
    "For 8 qubits at 2 layers that is about 130 MB, against 2.4 TB dense."
)

#: the coefficient walk holds two buffers of the final tensor's size, which
#: the gates alternate between. Its tracemalloc peak reads 2.0 final tensors
#: at 8 qubits, 2 layers, and 3.6 at 4 qubits, 3 layers, where numpy's ufunc
#: buffers weigh as much as the small tensor; four keeps an upper bound at both
_GATE_TENSOR_COPIES = 4


def _block_states(dim: int, size: int) -> int:
    """Basis states, of ``dim``, per inverse FFT of the exact route at lattice ``size``."""
    return min(dim, max(1, EXACT_BLOCK_ROWS * dim // size))


def fingerprint_of(config: CircuitConfig, params: ParameterSet) -> str:
    """Short stable hash tying a surrogate to its source circuit."""
    blob = json.dumps(
        {"config": config.to_json_dict(), "params": params.to_json_dict()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResourceEstimate:
    """Memory of the exact route for one circuit: dense accounting and real need.

    ``design_matrix_bytes`` and ``feasible_on`` are the paper's dense
    grid-by-lattice accounting; ``exact_route_bytes`` is what
    ``surrogate_exact`` actually holds.
    """

    grid_size: int
    lattice_size: int
    design_matrix_bytes: int
    feasible_on: str
    exact_route_bytes: int
    bytes_per_entry: int = 16

    def to_json_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "lattice_size": self.lattice_size,
            "bytes_per_entry": self.bytes_per_entry,
            "design_matrix_bytes": self.design_matrix_bytes,
            "feasible_on": self.feasible_on,
            "exact_route_bytes": self.exact_route_bytes,
            "tier_limits_bytes": {name: limit for name, limit in TIER_LIMITS},
            "note": _ESTIMATE_NOTE,
        }


def estimate_memory(config: CircuitConfig, bytes_per_entry: int = 16) -> ResourceEstimate:
    """Bytes of the full grid-by-lattice design matrix, and of the exact route.

    Grid and lattice have the same cardinality (one grid point per
    lattice vector and vice versa), so the design's byte count is
    lattice_size squared times the entry width. The exact route's need
    sums three terms at 16 bytes per complex entry, whatever
    ``bytes_per_entry`` says: the coefficient tensor times
    _GATE_TENSOR_COPIES, the grid values (8 bytes each) with their FFT,
    and one inverse-FFT block. Exact integer arithmetic throughout.
    """
    if bytes_per_entry < 1:
        raise ValueError("bytes_per_entry must be positive")
    desc = omega_max_of(config)
    size = lattice_size(desc)
    n_bytes = size * size * int(bytes_per_entry)
    coeff_rows = math.prod(w + 1 for w in desc.omega_max)
    dim = 2**config.n_qubits
    route_bytes = (
        16 * _GATE_TENSOR_COPIES * coeff_rows * dim
        + (8 + 16) * size
        + 16 * _block_states(dim, size) * size
    )
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
        exact_route_bytes=route_bytes,
        bytes_per_entry=int(bytes_per_entry),
    )


def _grid_values(coeffs: np.ndarray, T: tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """y = sum_b w_b |psi_b|^2 on the grid, psi_b the padded inverse FFT of C[..., b].

    Blocks of basis states go through the inverse FFT in index order, each
    at most EXACT_BLOCK_ROWS x 2^n amplitudes unless one state alone is
    larger.
    """
    per_block = _block_states(len(w), math.prod(T))
    y = np.zeros(T)
    for start in range(0, len(w), per_block):
        block = slice(start, start + per_block)
        psi = np.fft.ifftn(coeffs[..., block], s=T, axes=range(len(T)), norm="forward")
        y += np.abs(psi) ** 2 @ w[block]
        del psi  # the next block's transform would otherwise run beside it
    return y


def surrogate_exact(
    config: CircuitConfig,
    params: ParameterSet,
    cap: int = DEFAULT_CAP,
) -> SurrogateModel:
    """Exact surrogate from the state's Fourier coefficients and one FFT.

    ``state_coefficients`` gives the state as psi(x) = sum_k C[k]
    exp(i k.x), from one walk of the blocks. On the grid with
    T_i = 2*omega_max(i) + 1 points per feature, psi_b is the unscaled
    inverse FFT of C[..., b] zero-padded to T; this is exact, because
    T_i exceeds omega_max(i) and |psi|^2 holds frequencies only up to
    +-omega_max(i). ``_grid_values`` sums the model's grid values
    y = sum_b w_b |psi_b|^2, w the mean-Z diagonal. Then F = fftn(y) / N
    holds the coefficient of exp(+i w.x) at index w mod T; centred by
    ``fftshift`` and flattened, F is in ``spectrum``'s box order, so the
    intercept is Re F[N // 2] and the canonical w, in the order
    ``enumerate_canonical`` gives them, are F[N // 2 + 1:], each with
    a_w = 2 Re F_w and b_w = -2 Im F_w. ``residual`` is the 2-norm of the
    series' error on those grid values, by inverse FFT: since y is the
    model itself, it measures the round-off of the FFTs and of taking
    the real series, not a gap to a separate simulation.

    Raises CapExceeded (with the memory estimate attached) when the
    lattice is larger than ``cap``.
    """
    params.validate_for(config)
    desc = omega_max_of(config)
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap, estimate=estimate_memory(config))
    T = tuple(2 * w + 1 for w in desc.omega_max)
    y = _grid_values(state_coefficients(config, params), T, _mean_z_diagonal(config.n_qubits))
    F = np.fft.fftshift(np.fft.fftn(y) / size).ravel()
    c0, c = F[size // 2].real, F[size // 2 + 1:]
    # the series' spectrum in box order: negation maps i to N - 1 - i, the centre is real
    series = np.concatenate([np.conj(c[::-1]), [c0], c]).reshape(T)
    residual = float(np.linalg.norm(np.fft.ifftn(np.fft.ifftshift(series)).real * size - y))
    return SurrogateModel(
        d=desc.d,
        omega_max=desc.omega_max,
        intercept=float(c0),
        frequencies=enumerate_canonical(desc, cap=cap),
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
    freqs = sample_distinct(desc, D, seed=seed)
    y = expectation_batch(config, params, X, noise=noise)
    return _fit_rff(desc, X, y, freqs, rcond, fingerprint_of(config, params))


def _fit_rff(
    desc: SpectrumDescriptor, X: np.ndarray, y: np.ndarray, freqs, rcond: float, fingerprint: str
) -> SurrogateModel:
    """The rff surrogate of circuit values y at the rows of X, on the frequencies freqs.

    Builds the real cos/sin design and solves it. ``surrogate_rff`` ends
    here, and so does each frequency draw of the showcase, which
    evaluates its circuit once for all of them.
    """
    coeffs, residual = fit(build_real_design(X, freqs), y, rcond=rcond)
    return SurrogateModel(
        d=desc.d,
        omega_max=desc.omega_max,
        intercept=float(coeffs[0]),
        frequencies=freqs,
        cos_coeffs=np.asarray(coeffs[1::2], dtype=float),
        sin_coeffs=np.asarray(coeffs[2::2], dtype=float),
        mode="rff",
        residual=residual,
        fingerprint=fingerprint,
    )


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the gradient-descent trainer.

    max_iters may be 0, which returns the initial parameters untouched
    (useful for fixtures). Without ``shots``, gradients are exact and
    adjoint-state. With ``shots`` set, gradients are parameter-shift and
    every circuit evaluation is sampled, so gradients and recorded losses
    are noisy estimates. The 2P shifted states are combined from three
    probe walks per qubit and block, and equal a full pass's to within
    ~1e-15; each estimate is drawn with the seed a full pass would use,
    in the same order.
    """

    learning_rate: float = 0.2
    max_iters: int = 200
    seed: int = 0
    shots: int | None = None
    tol: float = 0.0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.shots is not None:
            _check_shots(self.shots)
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be non-negative and finite")


def train(
    config: CircuitConfig,
    dataset: Dataset,
    tc: TrainConfig,
    init: ParameterSet | None = None,
) -> tuple[ParameterSet, list[float]]:
    """Fit circuit parameters to a dataset by gradient descent on MSE.

    Each iteration but the last takes predictions and gradient from one
    call: the exact adjoint sweep (``simulator.mse_gradient``), or with
    ``tc.shots`` a sampled score and the parameter-shift rule on 2P
    more evaluations (``simulator._shots_gradient``), each drawn with the
    next seed. So under ``tc.tol`` the converging iteration has drawn its
    2P estimates too. Targets must already be in [-1, 1] (the
    observable's range); initial parameters default to a random draw
    from the config's shape under ``tc.seed``. Returns the final
    parameters and the loss history (initial loss first, one entry per
    iteration after it).
    """
    X, y = dataset.X, dataset.y
    if y.min() < -1.0 - 1e-9 or y.max() > 1.0 + 1e-9:
        raise ValueError("targets must be rescaled to [-1, 1] before training")
    if init is None:
        init = ParameterSet.random(config, seed=tc.seed)

    seeds = itertools.count(int(np.random.SeedSequence([tc.seed, 0x7261]).generate_state(1)[0]))

    def evaluate(angles: np.ndarray) -> np.ndarray:
        noise = None if tc.shots is None else NoiseConfig(shots=tc.shots, seed=next(seeds))
        return expectation_batch(config, ParameterSet(angles=angles), X, noise=noise)

    def gradient(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        params = ParameterSet(angles=angles)
        if tc.shots is None:
            return mse_gradient(config, params, X, y)
        return _shots_gradient(config, params, X, y, tc.shots, seeds)

    angles = init.angles.copy()
    history: list[float] = []
    # Iteration k scores angles k and, unless it is the last or training
    # has converged, steps from them; the last one only scores.
    for k in range(tc.max_iters + 1):
        if k < tc.max_iters:
            preds, grad = gradient(angles)
        else:
            preds = evaluate(angles)
        loss = float(np.mean((preds - y) ** 2))
        if not math.isfinite(loss):
            raise FloatingPointError("training diverged: non-finite loss")
        history.append(loss)
        if k == tc.max_iters or (k and tc.tol > 0 and abs(history[-2] - loss) < tc.tol):
            break
        angles = angles - tc.learning_rate * grad
    return ParameterSet(angles=angles), history


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the feature-count bounds.

    ``ell`` defaults to 2*pi*sqrt(d), the diameter of [0, 2*pi)^d.
    ``lam`` is the ridge strength for the depth-aware bound.
    ``c1``/``c2`` are placeholder constants (the depth-aware bound is an
    order-of-magnitude statement, not a sharp count).
    """

    d: int
    epsilon: float
    delta: float
    sigma_p: float
    ell: float | None = None
    lam: float | None = None
    c1: float = 1.0
    c2: float = 1.0
    n_layers: int = 1
    domain_size: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not 0 <= self.sigma_p < math.inf:
            raise ValueError("sigma_p must be non-negative and finite")
        if self.ell is None:
            object.__setattr__(self, "ell", 2.0 * math.pi * math.sqrt(self.d))
        if not 0 < self.ell < math.inf:
            raise ValueError("ell must be positive and finite")


def bound_beta_d(d: int) -> float:
    """Dimension constant of the kernel-error tail bound."""
    if d < 1:
        raise ValueError("d must be at least 1")
    h = d / 2.0
    return (h ** (-d / (d + 2.0)) + h ** (2.0 / (d + 2.0))) * 2.0 ** ((6.0 * d + 2.0) / (d + 2.0))


def bound_alpha_epsilon(epsilon: float, kernel_sup_term: float) -> float:
    """Variance proxy min(1, sup-term + epsilon/3) entering the tail bound."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not -math.inf < kernel_sup_term < math.inf:
        raise ValueError("kernel_sup_term must be finite")
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
    if p.lam is None:
        raise ValueError("lam is required for this bound")
    lam = float(p.lam)
    if not 0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    if not (0 < p.c1 < math.inf and 0 < p.c2 < math.inf):
        raise ValueError("c1 and c2 must be positive and finite")
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
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    W = _frequency_array(freqs, deltas.shape[1])
    if not len(W):
        raise ValueError("no frequencies supplied")
    phases = deltas @ W.astype(float).T
    return np.mean(np.cos(phases, out=phases), axis=1)


def _trial_deltas(d: int, trial_points: int, seed: int) -> np.ndarray:
    if trial_points < 1:
        raise ValueError("trial_points must be at least 1")
    x, y = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(2, trial_points, d))
    return x - y


def _full_lattice_kernel(desc: SpectrumDescriptor, deltas: np.ndarray) -> np.ndarray:
    """``lattice_kernel`` over the whole canonical lattice, in closed form: with
    s_j = 2 sum_{k=1}^{omega_j} cos(k delta_j), E_j = E_{j-1}(1 + s_j) + s_j is
    prod_j (1 + s_j) - 1, twice the canonical sum, formed without subtracting 1
    (so omega (1,) gives cos exactly), and E_d / (N - 1) is the mean."""
    n = lattice_size(desc)
    if n == 1:
        raise ValueError("the spectrum has no nonzero frequency, so its kernel is undefined")
    acc = np.zeros(len(deltas))
    for w, t in zip(desc.omega_max, deltas.T):
        s = 2.0 * np.cos(np.outer(t, np.arange(1, w + 1))).sum(axis=1)
        acc = acc * (1.0 + s) + s
    return acc / (n - 1)


def kernel_sup_term(desc: SpectrumDescriptor, trial_points: int = 200, seed: int = 0) -> float:
    """Sup of 1/2 + 1/2 k(2x, 2y) - k(x, y) over ``trial_points`` random pairs in
    [0, 2*pi)^d, k the full-lattice kernel (feeds bound_alpha_epsilon)."""
    delta = _trial_deltas(desc.d, trial_points, seed)
    k_double = _full_lattice_kernel(desc, 2.0 * delta)
    return float(np.max(0.5 + 0.5 * k_double - _full_lattice_kernel(desc, delta)))


def empirical_kernel_sup(
    desc: SpectrumDescriptor, freq_sample, trial_points: int = 200, seed: int = 0, cap: int = 10**6
) -> tuple[float, float]:
    """``kernel_sup_term`` and, over its pairs, the sup of |k - k_tilde| for the mean
    k_tilde over ``freq_sample``. k here averages the canonical lattice enumerated
    under ``cap``, so a sample that is the whole lattice reads exactly 0."""
    delta = _trial_deltas(desc.d, trial_points, seed)
    k_samp = lattice_kernel(freq_sample, delta)  # validates the sample before the lattice
    sup_term = kernel_sup_term(desc, trial_points, seed)
    k_full = lattice_kernel(enumerate_canonical(desc, cap=cap), delta)
    return sup_term, float(np.max(np.abs(k_full - k_samp)))


def sigma_p_of(desc: SpectrumDescriptor) -> float:
    """RMS frequency norm sqrt(mean ||w||^2) over the canonical lattice.

    For the box |w_i| <= omega_i with N = prod(2*omega_i + 1) vectors,
    each component's squares sum to omega_i(omega_i+1)(2*omega_i+1)/3, so
    the N - 1 nonzero vectors (and, by sign symmetry, the canonical half
    of them) have mean squared norm N * sum_i omega_i(omega_i+1) / (3(N-1)).
    The ratio is formed in Python ints and divided once, which rounds
    exactly as the mean over the enumerated lattice does.

    Raises ValueError when the spectrum has no nonzero frequency.
    """
    n = lattice_size(desc)
    if n == 1:
        raise ValueError("the spectrum has no nonzero frequency, so sigma_p is undefined")
    square_sum = sum(w * (w + 1) for w in desc.omega_max)
    return math.sqrt(n * square_sum / (3 * (n - 1)))
