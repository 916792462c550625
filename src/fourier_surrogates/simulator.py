"""Exact statevector simulation of data-reuploading circuits.

The circuit family interleaves trainable rotation blocks with repeated
data-encoding blocks:

    U(x; angles) = W_L . E(x) . W_{L-1} . E(x) ... W_1 . E(x) . W_0

* ``W_l`` applies Rx, Ry, Rz (in that order) on every qubit, using the
  angle triple for block ``l``, followed by the CNOTs of the coupling
  map in list order.  Every W block, including the last, is followed by
  its entanglement layer.
* ``E(x)`` applies Rx(x_f) on every qubit, where ``f`` is the feature
  assigned to that qubit.

Model output is the qubit-averaged Pauli-Z expectation of U(x)|0...0>,
optionally corrupted by shot noise and a global depolarizing shrink
(1 - p) of the observable. A bitstring's mean Z, (n - 2w)/n, depends
only on its Hamming weight w, so shots are drawn over the n + 1 weight
classes, not the 2**n outcomes: by the aggregation property of the
multinomial, the class counts have exactly the distribution of the
outcome counts summed by class. Each batch call makes one generator
from its seed and one draw for all its rows, so a row's estimate
depends on the call it is in.

Bit ordering convention: qubit 0 is the most significant bit of the
state index, so for two qubits the basis order is |00>, |01>, |10>,
|11> and bitstring labels read qubit 0 first.

All functions are pure; randomness enters only through explicit seeds.
The entry points are the batched functions, which evaluate many input
vectors in one vectorized pass (grid or dataset sampling), and
``run_circuit``/``expectation`` for a single input; there are no
single-gate helpers. ``mse_gradient`` gives exact predictions together
with the gradient of their mean squared error in the angles, by the
adjoint method: a forward pass that saves each block's start, then a
sweep back that carries only the costate; ``_shots_gradient`` is its
sampled parameter-shift twin, which reads the six shifted circuits of
each qubit's rotations off one walk of three probe states, stacked
3 * rows wide and cut after all of the block's rotations.
``state_coefficients`` gives the state's Fourier coefficients in the
inputs, for every input at once. Every per-row evaluation is checked,
allocated, given E(x)'s entries and walked by ``_simulate``, and read
out as |psi|^2 by ``_probabilities``. Every walk applies W_b through
one ``_apply_block``, or the probes its CNOTs (``_couple``), a coupling
layer as one permutation; the sweep back takes it off by the reversed
map's, and each qubit's rotations as one fused 2x2.

Layout: inside this module a batch is held amplitudes first, as
(2**n, rows), and a coefficient tensor as (2**n, k_0, ..., k_{d-1}).
A qubit's |0> and |1> halves are then made of contiguous runs at least
as long as the batch, whichever the qubit. Each gate writes into a
preallocated buffer that the walk then swaps with its input, so no gate
allocates. W_0 acts before any input, so a batch walk applies it once,
to one (2**n, 1) column, and broadcasts that column into the batch; the
same kernels run in the same order as they would on every row. The
encodings' per-row entries are made once per call (``_encoding``). A
forward walk whose two buffers would not stay in L2 (``_TILE_BYTES``)
runs in row tiles: each tile takes the whole walk in two (2**n, k)
buffers carved from the batch's spare buffer, so each gate's passes
stay in cache and no array is added. Every kernel acts on each row
alone, so no value depends on the tiling; the sweep back is not tiled.
The adjoint holds (L + 2) state-sized arrays: the forward pass's two
buffers, which the sweep back reuses, and the L block starts it saved;
at W_0 the sweep works on one column again. The shots gradient holds
the same L + 2 plus one (2**n, 3 * rows) pair for its probe walks.
Every walk (``_forward``, the adjoint sweep, the shots gradient's probe
walks and the coefficient walk) runs with numpy's ufunc buffer scoped to
512 elements (``_walk_buffer``), which changes no value. The public
boundary stays rows first: ``run_circuit_batch`` returns a C-contiguous
(rows, 2**n) array through one transpose at the end, and
``state_coefficients`` returns (k_0, ..., k_{d-1}, 2**n).
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CircuitConfig",
    "ParameterSet",
    "NoiseConfig",
    "run_circuit",
    "run_circuit_batch",
    "state_coefficients",
    "expectation",
    "expectation_batch",
    "sample_bitstrings",
]

_AXES = ("x", "y", "z")
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer and not a bool, else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CircuitConfig:
    """Architecture of a reuploading circuit.

    Parameters
    ----------
    n_qubits : int
        Circuit width.
    n_layers : int
        Number of encoding repetitions L (the circuit holds L+1 trainable
        blocks).
    d_features : int, optional
        Input dimension; defaults to ``n_qubits``.  Must not exceed the
        qubit count.
    coupling_map : sequence of (control, target), optional
        Directed CNOT pairs applied after each trainable block, in list
        order.  Defaults to the linear chain (q, q+1).
    feature_assignment : sequence of int, optional
        Feature index encoded on each qubit; entry q is the feature for
        qubit q.  Defaults to round-robin ``q mod d_features``.
    """

    n_qubits: int
    n_layers: int
    d_features: int | None = None
    coupling_map: tuple[tuple[int, int], ...] | None = None
    feature_assignment: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer("n_qubits", self.n_qubits))
        object.__setattr__(self, "n_layers", _integer("n_layers", self.n_layers))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.n_layers < 1:
            raise ValueError("n_layers must be positive")
        d = self.n_qubits if self.d_features is None else _integer("d_features", self.d_features)
        if not (1 <= d <= self.n_qubits):
            raise ValueError(f"d_features must be in [1, {self.n_qubits}], got {d}")
        object.__setattr__(self, "d_features", d)
        pairs = self.coupling_map
        if pairs is None:
            pairs = [(q, q + 1) for q in range(self.n_qubits - 1)]
        entry = "coupling_map entry"
        pairs = tuple((_integer(entry, c), _integer(entry, t)) for c, t in pairs)
        object.__setattr__(self, "coupling_map", pairs)
        for c, t in pairs:
            if c == t:
                raise ValueError(f"coupling pair ({c},{t}) has control == target")
            if not (0 <= c < self.n_qubits and 0 <= t < self.n_qubits):
                raise ValueError(f"coupling pair ({c},{t}) out of range")
        fa = self.feature_assignment
        if fa is None:
            fa = [q % d for q in range(self.n_qubits)]
        fa = tuple(_integer("feature_assignment entry", f) for f in fa)
        object.__setattr__(self, "feature_assignment", fa)
        if len(fa) != self.n_qubits:
            raise ValueError("feature_assignment must cover every qubit")
        if any(not (0 <= f < d) for f in fa):
            raise ValueError("feature_assignment entries must lie in [0, d_features)")
        if set(fa) != set(range(d)):
            raise ValueError("every feature must be assigned to at least one qubit")

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "n_layers": self.n_layers,
            "d_features": self.d_features,
            "coupling_map": [list(p) for p in self.coupling_map],
            "feature_assignment": list(self.feature_assignment),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CircuitConfig":
        return cls(
            n_qubits=doc["n_qubits"],
            n_layers=doc["n_layers"],
            d_features=doc["d_features"],
            coupling_map=tuple(map(tuple, doc["coupling_map"])),
            feature_assignment=tuple(doc["feature_assignment"]),
        )


@dataclass(frozen=True)
class ParameterSet:
    """Trainable angles, shape (n_layers + 1, n_qubits, 3) in radians.

    Index order is (block, qubit, rotation axis x/y/z); block 0 is the
    initial trainable block, block l the one after the l-th encoding.
    """

    angles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.angles, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"angles must have shape (L+1, n_qubits, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "angles", arr)

    def validate_for(self, config: CircuitConfig) -> None:
        expected = (config.n_layers + 1, config.n_qubits, 3)
        if self.angles.shape != expected:
            raise ValueError(
                f"angles shape {self.angles.shape} does not match circuit {expected}"
            )

    @classmethod
    def zeros(cls, config: CircuitConfig) -> "ParameterSet":
        return cls(np.zeros((config.n_layers + 1, config.n_qubits, 3)))

    @classmethod
    def random(cls, config: CircuitConfig, seed: int) -> "ParameterSet":
        rng = np.random.default_rng(seed)
        shape = (config.n_layers + 1, config.n_qubits, 3)
        return cls(rng.uniform(0.0, 2.0 * np.pi, size=shape))

    def to_json_dict(self) -> dict:
        return {"angles": self.angles.tolist()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ParameterSet":
        return cls(np.asarray(doc["angles"], dtype=float))


def _check_shots(shots) -> None:
    """A shot count is an integer of at least 1; a bool or a float is not one."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")


def _seed(seed) -> int:
    """A seed as an int if it is a non-negative integer, else a ValueError naming it."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement-noise knobs for expectation values.

    ``shots`` absent means exact expectations.  ``depolarizing_p``
    shrinks the (traceless) observable's expectation by (1 - p), the
    effect of a global depolarizing channel.
    """

    shots: int | None = None
    depolarizing_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.shots is not None:
            _check_shots(self.shots)
        if isinstance(self.depolarizing_p, bool) or not (0.0 <= self.depolarizing_p <= 1.0):
            raise ValueError("depolarizing_p must lie in [0, 1]")
        object.__setattr__(self, "seed", _seed(self.seed))


# ---------------------------------------------------------------------------
# gate kernels on amplitudes-first batches, (2**n, ...): each writes into a
# given ``out`` of its input's shape and returns it. Their qubits come
# from a ``CircuitConfig``, which has validated them.
# ---------------------------------------------------------------------------


#: numpy's ufunc buffer size, in elements, while the per-row walks run. The
#: kernels' operands have short contiguous runs at late qubits and with
#: per-row angles, and numpy then copies them through its buffer; at the
#: default 8192 elements those copies leave the cache. The setting changes
#: no value, only how numpy stages the operands.
_WALK_BUFSIZE = 512


@contextmanager
def _walk_buffer():
    """numpy's ufunc buffer at _WALK_BUFSIZE inside, the caller's size again on exit.

    A set-and-restore, because numpy before 2.0 has no scope of its own
    for the setting; it is restored also when the walk raises.
    """
    previous = np.setbufsize(_WALK_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _apply_1q(states: np.ndarray, qubit: int, u, out: np.ndarray) -> np.ndarray:
    """Apply the 2x2 ``u`` on ``qubit`` of every column of ``states``, into ``out``.

    ``states`` and ``out`` are C-contiguous. Each entry of ``u`` is a
    scalar or one value per input row (the last axis). When both
    off-diagonal entries are the scalar 0.0 (Rz), only the diagonal is
    applied. Otherwise ``states`` is spent: its |1> half holds u11 * a1
    on return, which spares the kernel a scratch buffer.
    Every product puts the matrix entry first, because numpy's fused
    complex multiply rounds ``u * a`` and ``a * u`` differently.
    """
    (u00, u01), (u10, u11) = u
    # the qubit's bit and the rows get axes of their own: (2**qubit, 2, rest, rows)
    split = (1 << qubit, 2, -1, np.size(u11))
    a, o = states.reshape(split), out.reshape(split)
    np.multiply(u00, a[:, 0], out=o[:, 0])
    if isinstance(u01, float) and u01 == u10 == 0.0:
        np.multiply(u11, a[:, 1], out=o[:, 1])
        return out
    # out's |1> half holds u01 * a1 until the |0> half is done
    np.multiply(u01, a[:, 1], out=o[:, 1])
    o[:, 0] += o[:, 1]
    np.multiply(u10, a[:, 0], out=o[:, 1])
    np.multiply(u11, a[:, 1], out=a[:, 1])
    o[:, 1] += a[:, 1]
    return out


def _rotation(axis: str, angles) -> tuple:
    """The 2x2 of exp(-i*angle*P/2) as nested entries, scalars or one per row."""
    half = np.asarray(angles, dtype=float) / 2.0
    if axis == "z":
        phase = np.exp(-1j * half)
        return (phase, 0.0), (0.0, np.conj(phase))
    c, s = np.cos(half), np.sin(half)
    if axis == "x":
        return (c, -1j * s), (-1j * s, c)
    return (c, -s), (s, c)


def _rotate_batch(states, qubit: int, axis: str, angles, out) -> np.ndarray:
    """Apply exp(-i*angle*P/2) on one qubit of every row, into ``out``.

    ``angles`` is a scalar (same rotation everywhere), one angle per
    row, or the rotation's 2x2 as ``_rotation(axis, ...)`` made it, a
    tuple. ``states`` is spent unless the axis is z.
    """
    u = angles if isinstance(angles, tuple) else _rotation(axis, angles)
    return _apply_1q(states, qubit, u, out)


@lru_cache(maxsize=256)
def _coupling(dim: int, coupling_map: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The index permutation of the map's CNOTs in list order, composed from
    each pair's flip of the target bit where the control bit is set. A CNOT
    is its own inverse, so ``_coupling(dim, map[::-1])`` takes the layer off."""
    n = dim.bit_length() - 1
    index = np.arange(dim)
    perm = index
    for c, t in coupling_map:
        perm = perm[index ^ (((index >> (n - 1 - c)) & 1) << (n - 1 - t))]
    perm.flags.writeable = False  # one cached array serves every caller
    return perm


def _cnot_batch(states, perm, out) -> np.ndarray:
    """A whole coupling layer: the amplitudes of ``states`` taken by ``_coupling``'s ``perm``.

    ``mode="clip"`` spares ``take`` its bounds check and the buffered
    copy that comes with it; the cached permutation is always in range.
    """
    return np.take(states, perm, axis=0, out=out, mode="clip")


# ---------------------------------------------------------------------------
# circuit execution
# ---------------------------------------------------------------------------


def _apply_rotations(triple, qubit: int, states, out):
    """Rx, Ry, Rz on ``qubit`` by ``triple``, a rotation by exactly 0.0
    skipped as the identity it is; returns (holder, spare) as ``_apply_block``."""
    for axis, theta in zip(_AXES, triple):
        if theta != 0.0:
            states, out = _rotate_batch(states, qubit, axis, theta, out), states
    return states, out


def _couple(coupling_map, states, out):
    """The map's CNOTs on every column of ``states`` in one pass (``_coupling``);
    as ``_apply_block``. An empty map applies nothing."""
    if not coupling_map:
        return states, out
    return _cnot_batch(states, _coupling(len(states), coupling_map), out), states


def _apply_block(config: CircuitConfig, angles: np.ndarray, block: int, states, out):
    """Apply W_block to every column of ``states``, alternating with ``out``.

    Each qubit's rotations by ``angles[block]`` (``_apply_rotations``),
    then the coupling map's CNOTs as one permutation (``_couple``).
    Returns (holder, spare): the buffer that holds the result, and the
    other one.
    """
    for q in range(config.n_qubits):
        states, out = _apply_rotations(angles[block, q], q, states, out)
    return _couple(config.coupling_map, states, out)


def _encoding(config: CircuitConfig, X: np.ndarray) -> list:
    """E(x)'s Rx entries for every row x of X: (cos(x_f/2), -i sin(x_f/2)) per feature f.

    Made by ``_rotation`` once per call (``_simulate``); every walk of the call reads them.
    """
    return [_rotation("x", X[:, f])[0] for f in range(config.d_features)]


def _apply_encoding(config: CircuitConfig, entries, states, out):
    """Apply E(x), Rx(x_f) on every qubit, to row x of every column; as ``_apply_block``.

    ``entries`` is ``_encoding``'s, for the rows ``states`` holds.
    """
    for q, f in enumerate(config.feature_assignment):
        c, m = entries[f]
        states, out = _rotate_batch(states, q, "x", ((c, m), (m, c)), out), states
    return states, out


#: The most bytes that a walk's two (2**n, rows) buffers may span before
#: ``_forward`` walks the batch in row tiles. Every gate passes over the
#: pair about seven times, so the pair should stay in L2 (2 MiB per core
#: on the 2-vCPU Xeon this was measured on, where 0.75 and 1 MiB lost).
_TILE_BYTES = 3 << 19


def _tile_rows(dim: int, rows: int) -> int:
    """Rows per tile of a (dim, rows) walk: all of them if the pair fits
    ``_TILE_BYTES``, else those of the fewest equal tiles that fit, at most
    half the batch, since both tile buffers come out of one batch buffer."""
    fit = max(1, _TILE_BYTES // (2 * 16 * dim))  # two complex (dim, k) buffers
    if rows <= fit:
        return rows
    tiles = (rows + fit - 1) // fit
    return min((rows + tiles - 1) // tiles, rows // 2)


def _walk_rows(config: CircuitConfig, angles, entries, states, out, starts, tile, first: int):
    """Each encoding and W_first..W_L on the batch's rows ``tile``, held in ``states``.

    ``entries`` is ``_encoding``'s for the whole batch; starts[b - 1][:, tile]
    receives the state that enters W_b's rotations. As ``_apply_block``.
    """
    entries = [(c[tile], m[tile]) for c, m in entries]
    for block in range(first, config.n_layers + 1):
        states, out = _apply_encoding(config, entries, states, out)
        if starts is not None:
            starts[block - 1][:, tile] = states
        states, out = _apply_block(config, angles, block, states, out)
    return states, out


@_walk_buffer()
def _forward(config: CircuitConfig, angles, entries, states, out, starts=None, resume=0):
    """U(x)|0..0> for every row x of the batch, walked in two (2**n, rows) buffers.

    ``entries`` is ``_encoding``'s for the batch's rows. W_0 acts before
    any input, so its kernels run once, on one (2**n, 1) column, which
    every row then takes. With ``resume`` = b >= 1, ``states`` already
    holds W_{b-1}'s output and the walk resumes at the encoding before
    W_b (at b = L + 1 it applies nothing). Each later encoding and block
    alternates between two buffers. Given ``starts``, (L, 2**n, rows),
    starts[b - 1] receives the state that enters W_b's rotations.

    A batch whose two buffers span more than ``_TILE_BYTES`` would go out
    of L2 on every pass of every gate, so it is walked in row tiles
    (``_tile_rows``): each tile takes the whole walk in two (2**n, k)
    buffers carved from ``out``, starting from W_0's column or, on a
    resume, from its rows of ``states``, and its final state is copied
    into those rows. Rows are independent and every kernel acts on each
    row alone, so no value depends on the tiling. Returns (holder,
    spare), as ``_apply_block`` does: the buffer that holds the final
    states, and the other one.
    """
    dim, rows = states.shape
    if not resume:
        column = np.zeros((dim, 1), dtype=complex)
        column[0] = 1.0
        column = _apply_block(config, angles, 0, column, np.empty_like(column))[0]
    width = _tile_rows(dim, rows)
    if width == rows:
        if not resume:
            states[...] = column
        return _walk_rows(config, angles, entries, states, out, starts, slice(None), resume or 1)
    pair = out.reshape(-1)
    for lo in range(0, rows, width):
        tile = slice(lo, min(lo + width, rows))
        a, b = pair[: 2 * dim * (tile.stop - lo)].reshape(2, dim, -1)
        a[...] = states[:, tile] if resume else column
        states[:, tile] = _walk_rows(config, angles, entries, a, b, starts, tile, resume or 1)[0]
    return states, out


def _inputs(config: CircuitConfig, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != config.d_features:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match d_features {config.d_features}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs must be finite")
    if len(X) == 0:
        raise ValueError("at least one input row is required")
    return X


def _simulate(config: CircuitConfig, params: ParameterSet, X, save_starts: bool = False):
    """Check the angles and inputs, allocate, and run ``_forward`` on every row of X.

    Returns (entries, psi, spare, starts): E(x)'s entries (``_encoding``),
    the (2**n, rows) final states, the walk's other buffer, and the block
    starts if asked.
    """
    params.validate_for(config)
    X = _inputs(config, X)
    shape = (2**config.n_qubits, X.shape[0])
    states, out = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    starts = np.empty((config.n_layers,) + shape, dtype=complex) if save_starts else None
    entries = _encoding(config, X)
    psi, spare = _forward(config, params.angles, entries, states, out, starts)
    return entries, psi, spare, starts


def _probabilities(psi: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """|psi|^2 of (2**n, rows) states as a C-contiguous (rows, 2**n) view of ``spare``."""
    dim, rows = psi.shape
    probs = spare.reshape(-1).view(float)[: dim * rows].reshape(rows, dim)
    np.abs(psi.T, out=probs)
    np.square(probs, out=probs)
    return probs


def run_circuit_batch(config: CircuitConfig, params: ParameterSet, X: np.ndarray) -> np.ndarray:
    """Run U(x)|0..0> for every row x of X; returns (len(X), 2**n) states."""
    return _simulate(config, params, X)[1].T.copy()


def _unapply_block(config: CircuitConfig, angles, block: int, lam, spare, start, grad):
    """Un-apply W_block from the costate ``lam`` and write grad[block].

    ``lam`` is the costate after W_block and ``start`` the state that
    enters W_block's rotations, both (2**n, rows); ``spare`` is a buffer
    of their shape. The CNOTs come off in one pass, as the reversed map's
    (``_couple``), and each qubit's Rx, Ry, Rz as the fused 2x2
    U = Rx^H Ry^H Rz^H, so lam ends up beside ``start``. There a qubit's
    overlap M[a, b] = sum of conj(lam_a) start_b over its bit a, b and
    the rows holds every gradient of its three angles: the other qubits'
    rotations cancel in the sum. Carried forward through a rotation R as
    conj(R) M R^T, M gives that angle's gradient, the sum over rows of
    Im<lam|P|psi> = Im sum_ab P[a, b] M[a, b] just after R.
    Returns (lam, spare).
    """
    lam, spare = _couple(config.coupling_map[::-1], lam, spare)
    rotations = [
        [np.array(_rotation(axis, theta), dtype=complex) for axis, theta in zip(_AXES, triple)]
        for triple in angles[block]
    ]
    for q, (rx, ry, rz) in enumerate(rotations):
        undo = rx.conj().T @ (ry.conj().T @ rz.conj().T)
        lam, spare = _apply_1q(lam, q, undo, spare), lam
    conj = np.conjugate(lam, out=spare)
    for q, triple in enumerate(rotations):
        split = (1 << q, 2, -1)
        M = np.einsum("iaj,ibj->ab", conj.reshape(split), start.reshape(split))
        for a, R in enumerate(triple):
            M = R.conj() @ M @ R.T
            grad[block, q, a] = np.sum(_PAULIS[a] * M).imag
    return lam, spare


@_walk_buffer()
def mse_gradient(
    config: CircuitConfig, params: ParameterSet, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact predictions f and the gradient of mean((f - y)^2) in the angles.

    Adjoint method: the forward pass saves the state at the start of
    each block's rotations (the same ``_simulate`` call that
    ``_shots_gradient`` makes), and only the costate
    lam = 2(f - y)/m * O psi is swept back through the circuit. At each
    block b >= 1 ``_unapply_block`` takes the CNOTs off lam as one
    permutation and each qubit's rotations as one fused 2x2, reads the
    block's 3n gradients from 2x2 overlaps of lam with the saved start,
    and the encodings are then un-applied gate by gate, Rx(-x_f) by the
    conjugates of the walk's entries. Every row leaves W_0 in the same
    state, W_0|0..0>'s column, so lam is summed over the rows once and
    W_0's gradients are read from that one (2**n, 1) column, against
    |0..0>.
    The pass holds L + 2 state-sized arrays: the L saved starts and the
    two buffers the forward pass and the sweep alternate between, one of
    which takes |psi|^2 first. The predictions are computed as
    ``expectation_batch`` computes them.
    Returns (f, grad) with grad shaped like ``params.angles``.
    """
    entries, psi, spare, starts = _simulate(config, params, X, save_starts=True)
    y = np.asarray(y, dtype=float)
    n, rows = config.n_qubits, psi.shape[1]
    if y.shape != (rows,):
        raise ValueError(f"targets of shape {y.shape} do not match {rows} input rows")
    w = _mean_z_diagonal(n)
    preds = _probabilities(psi, spare) @ w
    # the costate takes psi's buffer
    lam = np.multiply(w[:, None], psi, out=psi)
    lam *= 2.0 * (preds - y) / rows
    grad = np.empty_like(params.angles)
    undo = [((c, np.conj(m)), (np.conj(m), c)) for c, m in entries]  # Rx(-x_f)'s 2x2s
    for block in range(config.n_layers, 0, -1):
        start = starts[block - 1]
        lam, spare = _unapply_block(config, params.angles, block, lam, spare, start, grad)
        for q in range(n - 1, -1, -1):
            lam, spare = _rotate_batch(lam, q, "x", undo[config.feature_assignment[q]], spare), lam
    column = lam.sum(axis=1, keepdims=True)
    origin = np.zeros_like(column)
    origin[0] = 1.0
    _unapply_block(config, params.angles, 0, column, np.empty_like(column), origin, grad)
    return preds, grad


def _encode_coefficients(coeffs: np.ndarray, qubit: int, feature: int, grown: np.ndarray):
    """Apply Rx(x_feature) on ``qubit`` to a coefficient tensor, dropping e^{-ix/2}.

    ``coeffs`` is (2**n, k_0, ..., k_{d-1}); ``grown`` is the same with
    the feature's axis one longer, and is returned. The (I+X)/2 half of
    every row stays at its frequency and the (I-X)/2 half moves one step
    up along the feature's axis. ``coeffs`` is spent: it is the scratch
    for the (I-X)/2 half.
    """
    split = (1 << qubit, 2, -1)
    old = coeffs.reshape(split + coeffs.shape[1:])
    new = grown.reshape(split + grown.shape[1:])
    along = (slice(None),) * (len(split) + feature)
    new[along + (-1,)] = 0.0
    keep, shift = new[along + (slice(None, -1),)], new[along + (slice(1, None),)]
    # (I+X)/2 sets both halves to their mean; computing it twice spares
    # the temporary copy numpy makes between interleaved views
    for b in (0, 1):
        np.add(old[:, 0], old[:, 1], out=keep[:, b])
        keep[:, b] *= 0.5
    # (I-X)/2 sets them to +-half their difference
    diff = old[:, 0]
    diff -= old[:, 1]
    diff *= 0.5
    shift[:, 0] += diff
    shift[:, 1] -= diff
    return grown


@_walk_buffer()
def state_coefficients(config: CircuitConfig, params: ParameterSet) -> np.ndarray:
    """Fourier coefficients C of the final state as a function of the inputs.

    Rx(x) = e^{-ix/2} [(I+X)/2 + e^{ix} (I-X)/2], and the global phase
    cancels in |psi|^2, so the state is the polynomial
    psi(x) = sum_k C[k] exp(i k.x) with k_f in 0..L*g_f, where g_f
    counts the qubits carrying feature f. Returns C with shape
    (L*g_0 + 1, ..., L*g_{d-1} + 1, 2**n), C-contiguous.

    One walk of the circuit's blocks: each W_b is the ``_apply_block``
    that ``run_circuit_batch`` and ``mse_gradient`` apply, acting on the
    coefficient rows as on a batch of states, and each encoding before
    it splits every row into its (I+/-X)/2 halves, qubit by qubit
    (``_encode_coefficients``). The tensor grows along a feature's axis
    at each of its encodings, so the blocks act only on the frequencies
    reached so far. The walk holds the tensor amplitudes first,
    (2**n, k_0, ..., k_{d-1}), in two buffers of the final tensor's size
    that the kernels alternate between; the result is transposed into
    the spare one.
    """
    params.validate_for(config)
    dim = 2**config.n_qubits
    g = np.bincount(config.feature_assignment, minlength=config.d_features)
    size = dim * math.prod(config.n_layers * g + 1)
    buffer, spare = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    coeffs = buffer[:dim].reshape((dim,) + (1,) * config.d_features)
    coeffs[...] = 0.0
    coeffs[0] = 1.0
    for block in range(config.n_layers + 1):
        if block:  # E(x) precedes every block but W_0
            for qubit, feature in enumerate(config.feature_assignment):
                shape = list(coeffs.shape)
                shape[1 + feature] += 1
                grown = spare[: math.prod(shape)].reshape(shape)
                coeffs = _encode_coefficients(coeffs, qubit, feature, grown)
                buffer, spare = spare, buffer
        out = spare[: coeffs.size].reshape(coeffs.shape)
        if _apply_block(config, params.angles, block, coeffs, out)[0] is out:
            buffer, spare = spare, buffer
            coeffs = out
    # basis state last, C-contiguous, in the buffer the walk has no more use for
    out = spare.reshape(coeffs.shape[1:] + (dim,))
    np.copyto(out, np.moveaxis(coeffs, 0, -1))
    return out


def run_circuit(config: CircuitConfig, params: ParameterSet, x: np.ndarray) -> np.ndarray:
    """Run the circuit on one input vector; returns the final statevector."""
    return run_circuit_batch(config, params, np.asarray(x, dtype=float).reshape(1, -1))[0]


@lru_cache(maxsize=32)
def _weight_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit-averaged Z observable by Hamming weight.

    Returns (weight, total_z): weight[i] counts the set bits of basis
    index i, and total_z[w] = n - 2w is the sum of Z over the qubits on
    every index of weight w. The observable is total_z / n.
    """
    idx = np.arange(2**n)
    weight = ((idx[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return weight, n - 2 * np.arange(n + 1)


@lru_cache(maxsize=32)
def _mean_z_diagonal(n: int) -> np.ndarray:
    """Diagonal of the qubit-averaged Z observable in the computational basis."""
    weight, total_z = _weight_classes(n)
    return (total_z / n)[weight]


def _shot_estimates(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Mean Z of ``shots`` bitstrings drawn from each row of ``probs``.

    Each row's outcome probabilities are summed into weight classes and
    normalised; one generator from ``seed`` then draws the class counts
    of every row in one multinomial call. The summed Z of a row's shots
    is an integer, so each estimate is one rounding of its exact value.
    """
    n = probs.shape[1].bit_length() - 1
    weight, total_z = _weight_classes(n)
    p_weight = probs @ (weight[:, None] == np.arange(n + 1)).astype(float)
    p_weight /= p_weight.sum(axis=1, keepdims=True)
    counts = np.random.default_rng(seed).multinomial(shots, p_weight)
    return (counts @ total_z) / (n * shots)


def expectation_batch(
    config: CircuitConfig,
    params: ParameterSet,
    X: np.ndarray,
    noise: NoiseConfig | None = None,
) -> np.ndarray:
    """Qubit-averaged Z expectation for every row of X.

    Without ``noise.shots`` the value is exact; with shots it is the
    empirical mean Z of a bitstring sample per row, drawn by weight class
    (``_shot_estimates``) in one draw from ``noise.seed`` for the whole
    call, so a row's estimate depends on the other rows of the call.
    Either way the result is scaled by (1 - depolarizing_p).
    """
    noise = noise or NoiseConfig()
    probs = _probabilities(*_simulate(config, params, X)[1:3])
    if noise.shots is None:
        values = probs @ _mean_z_diagonal(config.n_qubits)
    else:
        values = _shot_estimates(probs, noise.shots, noise.seed)
    return (1.0 - noise.depolarizing_p) * values


def _probes(psi: np.ndarray, qubit: int, out: np.ndarray) -> np.ndarray:
    """E_00 psi, E_01 psi and E_10 psi side by side in ``out``, E_ij = |i><j| on ``qubit``.

    ``out`` is C-contiguous (2**n, 3 * rows), probe p in columns p * rows
    to (p + 1) * rows. ``psi`` is (2**n, rows), or one (2**n, 1) column
    that every row of each probe takes.
    """
    a = psi.reshape(1 << qubit, 2, -1, psi.shape[1])
    o = out.reshape(a.shape[:3] + (3, -1))
    o[:, 1, :, :2] = 0.0
    o[:, 0, :, 2] = 0.0
    o[:, 0, :, 0] = a[:, 0]
    o[:, 0, :, 1] = a[:, 1]
    o[:, 1, :, 2] = a[:, 0]
    return out


def _shifts(triple) -> list[np.ndarray]:
    """The 2x2s G that raise each of a qubit's angles x, y, z by pi/2.

    Raising angle a of Rz Ry Rx by s multiplies the triple on the left by
    G = A R_a(s) A^H, where A is the product of the rotations applied
    after R_a: Rz Ry for x, Rz for y, the identity for z. Lowering it by
    pi/2 instead takes sqrt(2) I - G, as R_a(pi/2) + R_a(-pi/2) = sqrt(2) I.
    """
    rx, ry, rz = (np.array(_rotation(a, theta), dtype=complex) for a, theta in zip(_AXES, triple))
    return [
        A @ np.array(_rotation(axis, math.pi / 2), dtype=complex) @ A.conj().T
        for axis, A in zip(_AXES, (rz @ ry, rz, np.eye(2)))
    ]


@_walk_buffer()
def _shots_gradient(
    config: CircuitConfig, params: ParameterSet, X: np.ndarray, y: np.ndarray, shots: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Shot-estimated predictions f and the parameter-shift gradient of mean((f - y)^2).

    The shots twin of ``mse_gradient``, with grad shaped like
    ``params.angles`` and one target per row in ``y``. Every estimate is
    ``_shot_estimates`` with ``shots`` and the next seed of the iterator
    ``seeds``: first f, then for each angle j (C order) the estimates
    plus_j and minus_j at angle j raised and lowered by pi/2, and
    grad[j] = mean(2 (f - y) (plus_j - minus_j) / 2).

    The six shifted circuits of qubit q in W_b differ from the unshifted
    one only by a 2x2 G (``_shifts``) just after that qubit's rotations,
    and the rest of the circuit is linear. So with psi_bq the state
    there, a shifted final state is sum_ij G[i, j] Phi_ij, where Phi_ij
    is the rest of the circuit applied to |i><j| psi_bq on qubit q, and
    Phi_11 = psi - Phi_00 with psi the scoring pass's final state. The
    scoring pass saves each block's start; from it each block's
    rotations are walked once (W_0's on its one column). |i><j| on q
    commutes with the other qubits' rotations, so each qubit's probes
    Phi_00, Phi_01 and Phi_10 are cut from that one state and walked
    through the block's CNOTs to the end as one (2**n, 3 * rows) batch,
    the call's entries tiled three times. That is 3n(L+1) probe walks
    for the 6n(L+1) shifted circuits. Each raised state is combined from
    the probes, and the lowered one is sqrt(2) psi minus it, in one
    pass. The shifted states equal a full pass's to within ~1e-15; the
    seeds and their order are a full pass's.
    """
    entries, psi, spare, starts = _simulate(config, params, X, save_starts=True)
    angles, n = params.angles, config.n_qubits
    dim, rows = psi.shape
    walk = np.empty((2, dim, 3 * rows), dtype=complex)
    tiled = [(np.tile(c, 3), np.tile(m, 3)) for c, m in entries]

    def estimate(state: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        return _shot_estimates(_probabilities(state, scratch), shots, next(seeds))

    preds = estimate(psi, spare)
    grad = np.empty_like(angles)
    column = np.zeros((dim, 1), dtype=complex)
    column[0] = 1.0
    for block, start in enumerate([column, *starts]):
        # W_b's rotations, once; ``spare`` is free after the scoring estimate
        state, other = start, spare.reshape(-1)[: start.size].reshape(start.shape)
        for q in range(n):
            state, other = _apply_rotations(angles[block, q], q, state, other)
        for q in range(n):
            probes, out = _couple(config.coupling_map, _probes(state, q, walk[0]), walk[1])
            phi, free = _forward(config, angles, tiled, probes, out, resume=block + 1)
            phi = phi.reshape(dim, 3, rows).swapaxes(0, 1)  # Phi_00, Phi_01, Phi_10
            shifted, root2_psi, scratch = free.reshape(3, dim, rows)
            np.multiply(math.sqrt(2.0), psi, out=root2_psi)
            for a, G in enumerate(_shifts(angles[block, q])):
                # sum_ij G[i, j] Phi_ij, with Phi_11 = psi - Phi_00
                np.multiply(G[1, 1], psi, out=shifted)
                for g, probe in zip((G[0, 0] - G[1, 1], G[0, 1], G[1, 0]), phi):
                    shifted += np.multiply(g, probe, out=scratch)
                plus = estimate(shifted, scratch)
                # lowered by pi/2: (sqrt(2) I - G) applied, sqrt(2) psi - the raised state
                minus = estimate(np.subtract(root2_psi, shifted, out=shifted), scratch)
                grad[block, q, a] = np.mean(2.0 * (preds - y) * ((plus - minus) / 2.0))
    return preds, grad


def expectation(
    config: CircuitConfig,
    params: ParameterSet,
    x: np.ndarray,
    noise: NoiseConfig | None = None,
) -> float:
    """Model output f(x) for a single input vector."""
    return float(
        expectation_batch(config, params, np.asarray(x, dtype=float).reshape(1, -1), noise)[0]
    )


def sample_bitstrings(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Sample measurement outcomes; returns {bitstring: count}, counts > 0.

    ``state`` is one vector of 2**n amplitudes, n >= 1. Bitstrings read
    qubit 0 first (most significant bit).  Deterministic for a fixed seed.
    """
    _check_shots(shots)
    state = np.asarray(state, dtype=complex)
    dim = len(state) if state.ndim == 1 else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(
            f"state must be one vector of 2**n amplitudes, n >= 1; got shape {state.shape}"
        )
    probs = np.abs(state) ** 2
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError("state must be normalized")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / total)
    n = dim.bit_length() - 1
    return {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c > 0
    }
