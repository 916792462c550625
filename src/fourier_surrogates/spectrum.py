"""Integer frequency lattice of a reuploading circuit and its sampling grid.

A circuit with L encoding repetitions and g_i Rx-encoding gates carrying
feature i can express Fourier terms whose i-th frequency component is an
integer in [-L*g_i, L*g_i]; each encoding gate has generator eigenvalues
+-1/2, so gaps are integers.  This module enumerates and samples that
lattice and builds the equidistant grid with T_i = 2*omega_max(i) + 1
points per feature on which the full coefficient set is exactly
recoverable.

Frequency vectors are plain tuples.  A vector is *canonical* when its
first nonzero component is positive; each canonical vector stands for a
conjugate (omega, -omega) pair, which keeps fitted surrogates
real-valued.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, InsufficientSpectrum
from .simulator import CircuitConfig

__all__ = [
    "SpectrumDescriptor",
    "Grid",
    "omega_max_of",
    "lattice_size",
    "canonical_count",
    "enumerate_lattice",
    "enumerate_canonical",
    "canonicalize",
    "sample_distinct",
    "full_grid",
]

FrequencyVector = tuple  # d integers (or floats in continuous mode)


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


@dataclass(frozen=True)
class Grid:
    """Tensor-product sampling grid over [0, 2*pi)^d.

    ``points`` has one row per grid node; ``per_feature_counts`` holds
    the T_i.  Coordinates are 2*pi*k / T_i for k = 0..T_i-1.
    """

    points: np.ndarray
    per_feature_counts: tuple[int, ...]


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


def canonicalize(freq: Sequence) -> FrequencyVector:
    """Flip the sign so the first nonzero component is positive."""
    for v in freq:
        if v > 0:
            return tuple(freq)
        if v < 0:
            return tuple(-c for c in freq)
    return tuple(freq)


def enumerate_lattice(desc: SpectrumDescriptor, cap: int) -> Iterator[FrequencyVector]:
    """Yield every lattice vector once, in lexicographic order.

    Conjugate pairs appear explicitly (no canonicalization); the exact
    surrogation route needs both members.  Raises CapExceeded when the
    lattice is larger than ``cap``.
    """
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap)
    ranges = [range(-w, w + 1) for w in desc.omega_max]
    return itertools.product(*ranges)


def enumerate_canonical(desc: SpectrumDescriptor, cap: int) -> list[FrequencyVector]:
    """All canonical nonzero vectors, in lexicographic order of the box."""
    zero = (0,) * desc.d
    out = []
    for freq in enumerate_lattice(desc, cap):
        if freq == zero:
            continue
        if canonicalize(freq) == freq:
            out.append(freq)
    return out


_RETRY_FACTOR = 100
_FALLBACK_CAP = 10**6


def sample_distinct(
    desc: SpectrumDescriptor,
    D: int,
    seed: int,
    continuous: bool = False,
) -> list[FrequencyVector]:
    """Draw D distinct canonical nonzero frequency vectors.

    Components are sampled independently and uniformly over the integer
    range [-omega_max(i), omega_max(i)], canonicalized, with duplicates
    and the all-zero vector rejected (the constant term is carried by
    the surrogate's intercept instead).  The result is ordered by draw,
    so for a fixed seed the first k entries of a size-D sample equal a
    size-k sample, which is what sweeping D relies on.

    ``continuous=True`` switches to real-valued components uniform over
    the same box, a comparison mode; the integer lattice is what the
    circuit's Fourier representation supports exactly.

    Deterministic per seed.  Raises InsufficientSpectrum when D exceeds
    the canonical lattice count (integer mode).
    """
    if D < 1:
        raise ValueError("D must be positive")
    if all(w == 0 for w in desc.omega_max):
        raise InsufficientSpectrum(D, 0)
    rng = np.random.default_rng(seed)
    if continuous:
        out: list[FrequencyVector] = []
        bounds = np.asarray(desc.omega_max, dtype=float)
        while len(out) < D:
            vec = canonicalize(tuple(float(v) for v in rng.uniform(-bounds, bounds)))
            if any(vec):
                out.append(vec)
        return out

    available = canonical_count(desc)
    if D > available:
        raise InsufficientSpectrum(D, available)
    lows = np.asarray([-w for w in desc.omega_max])
    highs = np.asarray([w + 1 for w in desc.omega_max])
    seen: set[FrequencyVector] = set()
    out = []
    attempts = 0
    max_attempts = _RETRY_FACTOR * D
    while len(out) < D and attempts < max_attempts:
        attempts += 1
        vec = canonicalize(tuple(int(v) for v in rng.integers(lows, highs)))
        if not any(vec) or vec in seen:
            continue
        seen.add(vec)
        out.append(vec)
    if len(out) < D:
        # rejection stalled (D close to the full canonical set): fill from
        # an explicit enumeration in seeded random order
        if lattice_size(desc) > _FALLBACK_CAP:
            raise InsufficientSpectrum(D, available)
        rest = [f for f in enumerate_canonical(desc, _FALLBACK_CAP) if f not in seen]
        order = rng.permutation(len(rest))
        out.extend(rest[i] for i in order[: D - len(out)])
    return out


def full_grid(desc: SpectrumDescriptor, cap: int = 10**6) -> Grid:
    """Equidistant tensor-product grid with T_i = 2*omega_max(i) + 1.

    On this grid the design matrix over the full lattice is orthogonal
    (a scaled multidimensional DFT), so an FFT of the grid values
    recovers every coefficient exactly.  Raises CapExceeded when
    prod(T_i) > cap.
    """
    size = lattice_size(desc)
    if size > cap:
        raise CapExceeded(size, cap)
    counts = tuple(2 * w + 1 for w in desc.omega_max)
    axes = [2.0 * np.pi * np.arange(t) / t for t in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return Grid(points=points, per_feature_counts=counts)
