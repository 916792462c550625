"""Frequency-lattice enumeration, sampling, and grid construction tests."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fourier_surrogates import (
    CapExceeded,
    CircuitConfig,
    InsufficientSpectrum,
    SpectrumDescriptor,
    build_real_design,
    canonical_count,
    enumerate_canonical,
    full_grid,
    lattice_size,
    omega_max_of,
    sample_distinct,
)
from fourier_surrogates.experiments import _derive
from fourier_surrogates.spectrum import _box_index, _box_vectors, _frequency_array
from dense_oracle import build_complex_design


def _lattice(desc):
    """Every lattice vector once, in lexicographic order of the box."""
    return list(itertools.product(*(range(-w, w + 1) for w in desc.omega_max)))


def canonicalize(freq):
    """Flip the sign so the first nonzero component is positive (the vector-at-a-time oracle)."""
    for v in freq:
        if v > 0:
            return tuple(freq)
        if v < 0:
            return tuple(-c for c in freq)
    return tuple(freq)


def _rows(W):
    """The rows of a frequency array as tuples of Python ints."""
    return [tuple(f) for f in W.tolist()]


def _rejection_sample(desc, D, seed):
    """The per-vector rejection sampler that sample_distinct replaced.

    One ``rng.integers`` call per vector, canonicalized, the origin and
    repeats rejected. Its enumeration fallback after 100 * D draws is
    left out: collecting all M canonical vectors takes about M * H_M
    draws, so it never ran.
    """
    rng = np.random.default_rng(seed)
    lows = np.asarray([-w for w in desc.omega_max])
    highs = np.asarray([w + 1 for w in desc.omega_max])
    seen, out = set(), []
    while len(out) < D:
        vec = canonicalize(tuple(int(v) for v in rng.integers(lows, highs)))
        if any(vec) and vec not in seen:
            seen.add(vec)
            out.append(vec)
    return out


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SpectrumDescriptor(())
    with pytest.raises(ValueError):
        SpectrumDescriptor((-1,))
    desc = SpectrumDescriptor((2.0, 3))
    assert desc.omega_max == (2, 3)
    assert desc.d == 2


def test_omega_max_from_circuit():
    # one distinct feature per qubit: omega_max = L everywhere
    desc = omega_max_of(CircuitConfig(n_qubits=3, n_layers=2))
    assert desc.omega_max == (2, 2, 2)
    # round-robin assignment doubles the count for reused features
    desc = omega_max_of(CircuitConfig(n_qubits=3, n_layers=2, d_features=2))
    # qubits 0 and 2 carry feature 0, qubit 1 carries feature 1
    assert desc.omega_max == (4, 2)
    desc = omega_max_of(
        CircuitConfig(n_qubits=4, n_layers=3, d_features=2, feature_assignment=(0, 0, 0, 1))
    )
    assert desc.omega_max == (9, 3)


def test_lattice_and_canonical_sizes():
    desc = SpectrumDescriptor((2, 2))
    assert lattice_size(desc) == 25
    assert canonical_count(desc) == 12
    assert lattice_size(SpectrumDescriptor((0,))) == 1
    assert canonical_count(SpectrumDescriptor((0,))) == 0
    # mixed ranges multiply
    assert lattice_size(SpectrumDescriptor((1, 3, 0))) == 3 * 7 * 1


def test_enumerate_canonical_cap():
    desc = SpectrumDescriptor((2, 2))
    with pytest.raises(CapExceeded) as info:
        enumerate_canonical(desc, cap=24)
    assert info.value.size == 25
    assert info.value.cap == 24


def test_canonicalize_examples():
    assert canonicalize((0, -1, 2)) == (0, 1, -2)
    assert canonicalize((3, -1)) == (3, -1)
    assert canonicalize((-2, 5)) == (2, -5)
    assert canonicalize((0, 0)) == (0, 0)


def test_enumerate_canonical_partitions_the_lattice():
    desc = SpectrumDescriptor((2, 1))
    canon = _rows(enumerate_canonical(desc, cap=100))
    assert len(canon) == canonical_count(desc)
    for f in canon:
        nz = [v for v in f if v != 0]
        assert nz and nz[0] > 0
    # canonical vectors, their negations, and zero tile the whole box
    mirrored = {tuple(-v for v in f) for f in canon}
    assert set(canon) | mirrored | {(0, 0)} == set(_lattice(desc))
    assert not set(canon) & mirrored


def test_sample_distinct_properties():
    desc = SpectrumDescriptor((2, 2))
    out = _rows(sample_distinct(desc, 8, seed=5))
    assert len(out) == 8
    assert len(set(out)) == 8
    for f in out:
        assert canonicalize(f) == f and any(f)
        assert all(abs(v) <= w for v, w in zip(f, desc.omega_max))
    again = _rows(sample_distinct(desc, 8, seed=5))
    assert out == again
    assert _rows(sample_distinct(desc, 8, seed=6)) != out


def test_sample_distinct_prefix_property():
    # a sweep probing n = 4 at two layers walks prefixes of a draw of all 312
    # canonical vectors, bracket then bisection (here toward a boundary at
    # 300); at n = 7 its d_cap is 10 000 of 39 062
    bracket_then_bisection = (1, 2, 4, 8, 16, 32, 64, 128, 256, 312, 284, 298, 305, 301, 299, 300)
    cases = [
        ((3, 3, 3), 40, (1, 7, 23, 40)),
        ((2, 2, 2, 2), 312, bracket_then_bisection),
        ((2,) * 7, 10_000, (1, 37, 1_000, 6_250, 9_999)),
    ]
    assert canonical_count(SpectrumDescriptor((2, 2, 2, 2))) == 312
    for omega_max, D, prefixes in cases:
        desc = SpectrumDescriptor(omega_max)
        long = sample_distinct(desc, D, seed=9)
        for k in prefixes:
            np.testing.assert_array_equal(sample_distinct(desc, k, seed=9), long[:k])


def test_sample_distinct_can_exhaust_the_lattice():
    desc = SpectrumDescriptor((2, 2))
    full = _rows(sample_distinct(desc, 12, seed=0))
    assert sorted(full) == sorted(_rows(enumerate_canonical(desc, cap=100)))


def test_sample_distinct_errors():
    desc = SpectrumDescriptor((2, 2))
    with pytest.raises(ValueError):
        sample_distinct(desc, 0, seed=0)
    with pytest.raises(InsufficientSpectrum) as info:
        sample_distinct(desc, 13, seed=0)
    assert info.value.requested == 13
    assert info.value.available == 12
    with pytest.raises(InsufficientSpectrum):
        sample_distinct(SpectrumDescriptor((0, 0)), 1, seed=0)


@pytest.mark.parametrize(
    "omega_max", [(1,), (2,), (0, 1), (2, 0), (1, 0, 2), (2, 2), (0, 2, 0, 1), (3, 1, 2), (1,) * 5]
)
def test_sample_distinct_matches_rejection_sampler(omega_max):
    desc = SpectrumDescriptor(omega_max)
    available = canonical_count(desc)
    for D in sorted({1, max(1, available // 3), available}):
        for seed in range(4):
            assert _rows(sample_distinct(desc, D, seed)) == _rejection_sample(desc, D, seed)


def test_sample_distinct_matches_rejection_sampler_on_synth_shapes():
    # synth_generate's trig-poly draw: omega_max 2 per feature, 2d+3 terms
    for d in range(1, 11):
        desc = SpectrumDescriptor((2,) * d)
        D = min(canonical_count(desc), 2 * d + 3)
        for s in range(5):
            seed = int(np.random.SeedSequence(s).spawn(3)[1].generate_state(1)[0])
            assert _rows(sample_distinct(desc, D, seed)) == _rejection_sample(desc, D, seed)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_sample_distinct_matches_rejection_sampler_on_sweep_shapes(n):
    # the frequency sweep's draw: 2 layers, d_cap = min(10 000, canonical count)
    desc = omega_max_of(CircuitConfig(n_qubits=n, n_layers=2))
    D = min(10_000, canonical_count(desc))
    seed = _derive(0, n, 0, 3)
    assert _rows(sample_distinct(desc, D, seed)) == _rejection_sample(desc, D, seed)


def test_sample_distinct_past_int64_box_indices():
    # 5**30 lattice vectors: box indices no longer fit in int64
    desc = SpectrumDescriptor((2,) * 30)
    assert lattice_size(desc) > np.iinfo(np.int64).max
    assert _rows(sample_distinct(desc, 40, seed=2)) == _rejection_sample(desc, 40, 2)


@pytest.mark.parametrize(
    "omega_max", [(1,), (3,), (0, 2), (2, 0, 1), (1, 2), (5, 3, 7), (2,) * 6, (1,) * 12]
)
def test_enumerate_canonical_matches_canonicalize_filter(omega_max):
    desc = SpectrumDescriptor(omega_max)
    want = [f for f in _lattice(desc) if any(f) and canonicalize(f) == f]
    assert _rows(enumerate_canonical(desc, cap=lattice_size(desc))) == want


@st.composite
def _box_and_index(draw):
    desc = SpectrumDescriptor(tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))))
    return desc, draw(st.integers(0, lattice_size(desc) - 1))


@given(_box_and_index())
def test_box_index_round_trips(box_and_index):
    desc, i = box_and_index
    N = lattice_size(desc)
    vec = _box_vectors(desc, np.array([i]))
    assert vec.shape == (1, desc.d)
    assert all(abs(v) <= w for v, w in zip(vec[0].tolist(), desc.omega_max))
    assert _box_index(desc, vec)[0] == i
    # negation mirrors the index; indices above the centre are canonical
    assert _box_vectors(desc, np.array([N - 1 - i])).tolist() == (-vec).tolist()
    f = tuple(vec[0].tolist())
    if i > N // 2:
        assert any(f) and canonicalize(f) == f
    elif i == N // 2:
        assert not any(f)


@pytest.mark.parametrize(
    "freqs",
    [
        [(1, 0), (0, -2)],
        [[1, 0], [0, -2]],
        np.array([[1, 0], [0, -2]]),
        np.array([[1, 0], [0, -2]], dtype=np.int8),
        np.array([[1, 0], [0, -2]], order="F"),
    ],
    ids=["tuples", "lists", "array", "int8", "fortran"],
)
def test_frequency_array_accepts_each_input_form(freqs):
    W = _frequency_array(freqs)
    assert W.dtype == np.int64 and W.shape == (2, 2)
    assert W.flags.c_contiguous and not W.flags.writeable
    assert W.tolist() == [[1, 0], [0, -2]]
    assert _frequency_array(freqs, 2).tolist() == W.tolist()


def test_frequency_array_copies_writeable_input_only():
    mine = np.array([[1, 0], [0, -2]])
    W = _frequency_array(mine)
    mine[0, 0] = 7
    assert W.tolist() == [[1, 0], [0, -2]]
    # the read-only form it returns, and spectrum's own arrays, pass through
    assert _frequency_array(W) is W
    canon = enumerate_canonical(SpectrumDescriptor((1, 2)), cap=100)
    assert not canon.flags.writeable
    assert _frequency_array(canon, 2) is canon


def test_frequency_array_empty_input_needs_d():
    assert _frequency_array([], 3).shape == (0, 3)
    assert _frequency_array(np.zeros((0, 3), dtype=int), 3).shape == (0, 3)
    with pytest.raises(ValueError, match="no frequencies supplied"):
        _frequency_array([])


@st.composite
def _frequency_arrays(draw):
    """(D, d) int arrays of mostly canonical rows, with drawn sign flips and zero rows."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1, 1, 1, -1, 0]), min_size=n, max_size=n))
    canonical = np.array([canonicalize(f) for f in rows], dtype=np.int64)
    return canonical * np.array(signs)[:, None]


@given(_frequency_arrays())
def test_real_design_canonical_check_matches_oracle(W):
    rows = _rows(W)
    ok = [canonicalize(f) == f and any(f) for f in rows]
    points = np.zeros((1, W.shape[1]))
    if all(ok):
        assert build_real_design(points, W).entries.shape == (1, 1 + 2 * len(W))
        return
    first = rows[ok.index(False)]
    if any(first):
        match = re.escape(f"frequency {first} is not canonical (first nonzero must be > 0)")
    else:
        match = "zero frequency not allowed"
    with pytest.raises(ValueError, match=match):
        build_real_design(points, W)
    with pytest.raises(ValueError, match=match):
        build_real_design(points, rows)


def test_full_grid_structure():
    desc = SpectrumDescriptor((1, 2))
    points = full_grid(desc)
    assert points.shape == (15, 2)
    # T_i distinct coordinates per feature, 2*pi*k/T_i
    assert [len(np.unique(column)) for column in points.T] == [3, 5]
    np.testing.assert_allclose(
        np.unique(points[:, 0]), [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-15
    )
    assert np.all(points >= 0) and np.all(points < 2 * np.pi)


def test_full_grid_cap():
    with pytest.raises(CapExceeded):
        full_grid(SpectrumDescriptor((10, 10, 10)), cap=100)


def test_full_grid_makes_design_orthogonal():
    # on the matched grid the complex design is a scaled unitary: A^H A = N I
    desc = SpectrumDescriptor((1, 1))
    points = full_grid(desc)
    lattice = _lattice(desc)
    A = build_complex_design(points, lattice).entries
    gram = A.conj().T @ A
    np.testing.assert_allclose(gram, len(points) * np.eye(len(lattice)), atol=1e-12)
