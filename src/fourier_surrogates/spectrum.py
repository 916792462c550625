"""Integer frequency lattice of a reuploading circuit and its sampling grid.

A circuit with L encoding repetitions and g_i Rx-encoding gates carrying
feature i can express Fourier terms whose i-th frequency component is an
integer in [-L*g_i, L*g_i]; each encoding gate has generator eigenvalues
+-1/2, so gaps are integers.  This module enumerates and samples that
lattice and builds the points of the equidistant grid with
T_i = 2*omega_max(i) + 1 points per feature, on which the full
coefficient set is exactly recoverable.

A set of D frequency vectors over d features is one read-only (D, d)
int64 array, one vector per row.  A vector is *canonical* when its first
nonzero component is positive; each canonical vector stands for a conjugate
(omega, -omega) pair, which keeps fitted surrogates real-valued.

Index convention: the N = prod(T_i) lattice vectors are numbered 0..N-1
in lexicographic order of the box, first component most significant, so
the digit of feature i is omega_i + omega_max(i).  The origin sits at
the centre N // 2 and negation maps index i to N - 1 - i, so the
canonical vectors are exactly the indices above the centre and
max(i, N - 1 - i) is the canonical index of either member of a pair.
``enumerate_canonical`` and ``sample_distinct`` both work on these
indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InsufficientSpectrum
from .simulator import CircuitConfig

__all__ = [
    "SpectrumDescriptor",
    "omega_max_of",
    "lattice_size",
    "canonical_count",
    "enumerate_canonical",
    "sample_distinct",
    "full_grid",
]


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Per-feature maximal frequencies omega_max(i) >= 0."""

    omega_max: tuple[int, ...]

    def __post_init__(self):
        om = tuple(int(w) for w in self.omega_max)
        if len(om) < 1:
            raise ValueError("descriptor needs at least one feature")
        if any(w < 0 for w in om):
            raise ValueError("omega_max entries must be non-negative")
        object.__setattr__(self, "omega_max", om)

    @property
    def d(self) -> int:
        return len(self.omega_max)


def omega_max_of(config: CircuitConfig) -> SpectrumDescriptor:
    """Spectrum implied by the circuit: omega_max(i) = L * (qubits carrying i)."""
    counts = [0] * config.d_features
    for f in config.feature_assignment:
        counts[f] += 1
    return SpectrumDescriptor(tuple(config.n_layers * g for g in counts))


def lattice_size(desc: SpectrumDescriptor) -> int:
    """Number of lattice vectors, prod(2*omega_max(i) + 1), exact."""
    size = 1
    for w in desc.omega_max:
        size *= 2 * w + 1
    return size


def canonical_count(desc: SpectrumDescriptor) -> int:
    """Number of canonical nonzero vectors: half the lattice minus the origin."""
    return (lattice_size(desc) - 1) // 2


def _frequency_array(freqs, d: int | None = None) -> np.ndarray:
    """``freqs`` as a read-only, C-contiguous (D, d) int64 array.

    Takes a signed integer array or a sequence of sequences of ints; without
    ``d`` the first vector sets it, so the input must not be empty. Raises
    ValueError for other entries, vectors of another length and ints past
    int64. A writeable array is copied; a read-only int64 one is kept as is.
    """
    array = isinstance(freqs, np.ndarray) and freqs.dtype.kind == "i" and freqs.ndim == 2
    if not array:
        freqs = list(freqs)
    if d is None:
        if not len(freqs):
            raise ValueError("no frequencies supplied")
        d = len(freqs[0])
    for k in ({freqs.shape[1]} if array else set(map(len, freqs))) - {d}:
        raise ValueError(f"every frequency must be {d} ints, got {k}")
    if array:
        W = np.array(freqs, dtype=np.int64, order="C", copy=freqs.flags.writeable or None)
    else:
        for t in set(map(type, itertools.chain.from_iterable(freqs))) - {int}:
            raise ValueError(f"every frequency must be {d} ints, got {t.__name__}")
        try:
            W = np.fromiter(itertools.chain.from_iterable(freqs), np.int64, len(freqs) * d)
        except OverflowError:
            raise ValueError(f"every frequency must be {d} ints within int64") from None
        W = W.reshape(len(freqs), d)
    W.flags.writeable = False
    return W


def _box_index(desc: SpectrumDescriptor, vectors: np.ndarray) -> np.ndarray:
    """Box index of each row of a (k, d) integer array."""
    # past int64 the indices stay exact as Python ints
    dtype = np.int64 if lattice_size(desc) <= np.iinfo(np.int64).max else object
    index = np.zeros(len(vectors), dtype=dtype)
    for column, w in zip(vectors.T, desc.omega_max):
        index = index * (2 * w + 1) + (column + w)
    return index


def _box_vectors(desc: SpectrumDescriptor, index: np.ndarray) -> np.ndarray:
    """The read-only (k, d) int64 vectors at the given box indices; inverts _box_index."""
    vectors = np.empty((len(index), desc.d), dtype=np.int64)
    for i in reversed(range(desc.d)):
        t = 2 * desc.omega_max[i] + 1
        vectors[:, i] = index % t - desc.omega_max[i]
        index = index // t
    vectors.flags.writeable = False
    return vectors


def enumerate_canonical(desc: SpectrumDescriptor, cap: int) -> np.ndarray:
    """All canonical nonzero vectors, in lexicographic order of the box.

    Raises CapExceeded when the lattice is larger than ``cap``.
    """
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap)
    return _box_vectors(desc, np.arange(size // 2 + 1, size))


def sample_distinct(desc: SpectrumDescriptor, D: int, seed: int) -> np.ndarray:
    """Draw D distinct canonical nonzero frequency vectors.

    Components are drawn independently and uniformly over the integer
    range [-omega_max(i), omega_max(i)]. Each drawn vector is mapped to
    its canonical index; the origin (the constant term is carried by the
    surrogate's intercept instead) and repeats are dropped, and the first
    D distinct indices in draw order are decoded. For a fixed seed the
    first k entries of a size-D sample therefore equal a size-k sample,
    which is what sweeping D relies on.

    Vectors are drawn in blocks of D. numpy's generator yields the same
    values whether they are asked for one vector per call or a block at
    a time, so the sample for a seed is the one that drawing vector by
    vector gives.

    Deterministic per seed. Raises InsufficientSpectrum when D exceeds
    canonical_count(desc).
    """
    if D < 1:
        raise ValueError("D must be positive")
    available = canonical_count(desc)
    if D > available:
        raise InsufficientSpectrum(D, available)
    rng = np.random.default_rng(seed)
    omega = np.asarray(desc.omega_max)
    centre = lattice_size(desc) // 2
    drawn = np.zeros(0, dtype=np.int64)
    while len(drawn) < D:
        index = _box_index(desc, rng.integers(-omega, omega + 1, size=(D, desc.d)))
        index = np.maximum(index, 2 * centre - index)
        drawn = np.concatenate([drawn, index[index != centre]])
        _, first = np.unique(drawn, return_index=True)
        drawn = drawn[np.sort(first)]
    return _box_vectors(desc, drawn[:D])


def full_grid(desc: SpectrumDescriptor, cap: int = 10**6) -> np.ndarray:
    """Points of the tensor-product grid over [0, 2*pi)^d with T_i = 2*omega_max(i) + 1.

    Returns the (N, d) points, one row per grid node in C order of the
    feature axes; feature i takes the T_i values 2*pi*k / T_i for
    k = 0..T_i-1. On this grid the design matrix over the full lattice
    is orthogonal (a scaled multidimensional DFT), so an FFT of the grid
    values recovers every coefficient exactly.  Raises CapExceeded when
    prod(T_i) > cap.
    """
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap)
    counts = tuple(2 * w + 1 for w in desc.omega_max)
    axes = [2.0 * np.pi * np.arange(t) / t for t in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
