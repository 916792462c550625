"""The benchmark's four workloads.

Each workload is a closed loop: one caller in one process runs op 0, 1,
2, ... and starts the next op only when the previous one has returned.
A workload object is built from the workload seed alone (its constructor
generates every input and pays the first-call costs), ``op(k)`` runs the
k-th operation through the package's public functions, and
``check(k, result)`` raises ``CheckFailed`` when the output is wrong.
Ops call the package through the module attributes their own layer
defines (``pipeline.train``, ``experiments.sweep``, ``cli.main``), so a
traced run sees them; checks call the package-level names, which the
tracer never wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import fourier_surrogates as fs
from fourier_surrogates import cli, experiments, pipeline

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "showcase_oracle.json"

#: showcase-train draws its inputs from ``seed % SHOWCASE_VARIANTS``; its
#: oracle is a recorded loss trajectory, one per variant
SHOWCASE_VARIANTS = 4


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def derive(*parts: int) -> int:
    """Deterministic 63-bit child seed from non-negative integer tags."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0] >> 1)


def _warm_lstsq(rows: int, cols: int) -> None:
    # The first LAPACK least-squares call at a new, larger shape can cost
    # about a second; a warm-up on a smaller input does not cover it.
    rng = np.random.default_rng(0)
    np.linalg.lstsq(rng.random((rows, cols)), rng.random(rows), rcond=None)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Set up from the seed in ``__init__``; ``op(k)``, ``check(k, result)``.

    Set-up ends with one warm-up op on a smaller input, so that the
    first-call costs of every code path the op takes (the first LAPACK
    solve of a process costs about a second when the library is not yet
    in the page cache) stay out of the timed ops.
    """

    #: ops of a traced run, run once untraced and once traced
    trace_ops = 1

    def close(self) -> None:
        """Remove what set-up left on disk."""


class ShowcaseTrain(Workload):
    """One parameter-shift training iteration on the 8-qubit showcase circuit.

    Why: this loop is most of the showcase (criterion 04). The simulator
    on 256-amplitude states does nearly all the work; spectrum and
    surrogate do none. Op k continues from op k-1's parameters.
    """

    name = "showcase-train"
    rtol = 1e-8

    def __init__(self, seed: int):
        self.variant = seed % SHOWCASE_VARIANTS
        self.config, self.data, init = self.inputs(self.variant)
        self.tc = fs.TrainConfig(learning_rate=0.3, max_iters=1)
        self.params = {0: init}
        self.losses: dict[int, float] = {}
        with open(ORACLE_PATH, encoding="utf-8") as fh:
            self.oracle = json.load(fh)["variants"][str(self.variant)]
        warm = fs.Dataset(X=self.data.X[:8], y=self.data.y[:8])
        fs.train(self.config, warm, self.tc, init=init)

    @staticmethod
    def inputs(variant: int):
        """Circuit, 350 rescaled trig-poly training rows and initial angles."""
        config = fs.CircuitConfig(n_qubits=8, n_layers=2)
        ds = fs.synth_generate(
            d=8, size=500, kind="trig-poly", seed=derive(variant, 10), noise_sd=0.1
        )
        train_ds, _ = fs.train_test_split(
            fs.rescale_targets(ds), 0.7, seed=derive(variant, 11)
        )
        init = fs.ParameterSet.random(config, seed=derive(variant, 12))
        return config, train_ds, init

    def op(self, k: int):
        # Continue from the newest parameters at or before k: when an op
        # raises, the next one still does a full iteration (and fails its
        # check) instead of failing at once for want of its input.
        start = max(i for i in self.params if i <= k)
        params, history = pipeline.train(self.config, self.data, self.tc, init=self.params[start])
        self.params[k + 1] = params
        self.losses[k + 1] = history[-1]
        return params, history

    def check(self, k: int, result) -> None:
        params, history = result
        if len(history) != 2:
            raise CheckFailed(f"expected 2 losses, got {len(history)}")
        if k + 1 < len(self.oracle):
            expected = self.oracle[k : k + 2]
            if not all(_rel_close(h, e, self.rtol) for h, e in zip(history, expected)):
                raise CheckFailed(f"losses {history} differ from the recording {expected}")
        elif k not in self.losses:
            raise CheckFailed(f"op {k - 1} raised, so op {k} did not continue from it")
        elif not _rel_close(history[0], self.losses[k], self.rtol):
            raise CheckFailed("initial loss differs from the previous op's final loss")
        preds = fs.expectation_batch(self.config, params, self.data.X)
        loss = float(np.mean((preds - self.data.y) ** 2))
        if not _rel_close(loss, history[-1], self.rtol):
            raise CheckFailed(f"MSE of returned params {loss} != history[-1] {history[-1]}")


class Exact2401(Workload):
    """Exact surrogate of a fresh random 4-qubit, 3-layer circuit per op.

    Why: the exact route at a named lattice size (7^4 = 2401 lattice and
    grid points). The dense complex design and its SVD solve do nearly
    all the work; grid simulation is small.
    """

    name = "exact-2401"
    trace_ops = 2
    tol = 1e-8

    def __init__(self, seed: int):
        self.seed = seed
        self.config = fs.CircuitConfig(n_qubits=4, n_layers=3)
        warm = fs.CircuitConfig(n_qubits=4, n_layers=2)
        fs.surrogate_exact(warm, fs.ParameterSet.random(warm, seed=0))

    def params(self, k: int):
        return fs.ParameterSet.random(self.config, seed=derive(self.seed, k))

    def op(self, k: int):
        return pipeline.surrogate_exact(self.config, self.params(k))

    def check(self, k: int, model) -> None:
        rng = np.random.default_rng(derive(self.seed, k, 1))
        X = rng.uniform(0.0, 2.0 * np.pi, size=(200, self.config.d_features))
        ref = fs.expectation_batch(self.config, self.params(k), X)
        gap = float(np.max(np.abs(fs.predict_batch(model, X) - ref)))
        if not gap <= self.tol:
            raise CheckFailed(f"sup gap {gap:.3e} exceeds {self.tol}")


class SweepFreq(Workload):
    """One seed's frequency sweep over n = 4..7 in criterion 05's shape.

    Why: frequency sampling (at n=6 it draws the whole canonical set),
    the lazy cos/sin design and repeated lstsq probes do the work; the
    simulator runs only 500 rows per cell.
    """

    name = "sweep-freq"
    trace_ops = 4
    qubits = range(4, 8)
    max_frequencies = 10_000

    def __init__(self, seed: int):
        self.seed = seed
        self.d_cap = {
            n: min(
                self.max_frequencies,
                fs.canonical_count(fs.omega_max_of(fs.CircuitConfig(n_qubits=n, n_layers=2))),
            )
            for n in self.qubits
        }
        self.sweep(range(4, 6), base_seed=0)
        # the n = 6, 7 probes fit up to 257 columns on 350 rows; the first
        # solve past 64 columns cost about 0.3 s in the first timed op
        _warm_lstsq(350, 257)

    def sweep(self, qubits, base_seed: int):
        return experiments.sweep(
            "frequencies", qubits, thresholds=(0.1,), seeds=1, n_layers=2,
            dataset_size=500, max_frequencies=self.max_frequencies, base_seed=base_seed,
        )

    def op(self, k: int):
        return self.sweep(self.qubits, base_seed=derive(self.seed, k))

    def check(self, k: int, report) -> None:
        got = {r["n_qubits"]: r for r in report.records}
        if sorted(got) != list(self.qubits):
            raise CheckFailed(f"records cover {sorted(got)}")
        for n, record in got.items():
            q = record["required_quantity"]
            if record["saturated"]:
                # the threshold was not met within d_cap frequencies (one
                # op in about 1 000 seen, at n=7); sweep reports that
                if q is not None or record["n_saturated"] != 1:
                    raise CheckFailed(f"n={n}: saturated record {record} is inconsistent")
            elif q is None or not math.isfinite(q) or not 1 <= q <= self.d_cap[n]:
                raise CheckFailed(f"n={n}: requirement {q} outside [1, {self.d_cap[n]}]")


class CliChain(Workload):
    """datagen -> preprocess -> train (shots) -> surrogate rff -> eval via cli.main.

    Why: the only workload that runs datasets, CLI I/O and the
    shot-sampling path; the simulator runs on narrow (16-amplitude)
    states with many rows. Every op repeats the same chain into a fresh
    out-dir, so its artifacts must be byte-identical across ops. The chain
    is kept short (600 rows, one training iteration) so that a run holds
    about twenty ops: the median of the five to seven ops that fit with
    2000 rows moved too much between runs.
    """

    name = "cli-chain"
    artifacts = (
        "dataset.json", "processed.json", "train.json", "test.json",
        "trained.json", "model.json", "eval.json",
    )

    def __init__(self, seed: int):
        self.chain_seed = str(derive(seed) % 2**31)
        self.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
        self.reference: dict[str, bytes] | None = None
        self.runs = 0
        warm = self.workdir / "warm-up"
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.argvs(warm, rows=200):
                cli.main(argv)
        shutil.rmtree(warm)
        _warm_lstsq(420, 121)  # the rff solve: 420 training rows, 1 + 2*60 columns

    def argvs(self, out: Path, rows: int = 600) -> list[list[str]]:
        s, o = self.chain_seed, str(out)
        return [
            ["datagen", "--dimension", "4", "--size", str(rows), "--noise-sd", "0.05",
             "--seed", s, "--out-dir", o],
            ["preprocess", "--input", f"{o}/dataset.json", "--normalize",
             "--rescale-targets", "--split", "0.7", "--seed", s, "--out-dir", o],
            ["train", "--dataset", f"{o}/train.json", "--qubits", "4", "--max-iters", "1",
             "--shots", "1024", "--seed", s, "--out-dir", o],
            ["surrogate", "rff", "--circuit", f"{o}/trained.json", "--dataset",
             f"{o}/train.json", "--frequencies", "60", "--shots", "1024", "--seed", s,
             "--out-dir", o],
            ["eval", "--model", f"{o}/model.json", "--dataset", f"{o}/test.json",
             "--circuit", f"{o}/trained.json", "--seed", s, "--out-dir", o],
        ]

    def op(self, k: int):
        # a fresh out-dir for every call, also when an op index repeats
        self.runs += 1
        out = self.workdir / f"op{self.runs:05d}"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in self.argvs(out)]
        return codes, out

    def check(self, k: int, result) -> None:
        codes, out = result
        try:
            if codes != [0] * len(codes):
                raise CheckFailed(f"exit codes {codes}")
            got = {name: (out / name).read_bytes() for name in self.artifacts}
            if self.reference is None:
                self.reference = got
            bad = [name for name in self.artifacts if got[name] != self.reference[name]]
            if bad:
                raise CheckFailed(f"artifacts differ from the first op: {bad}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ShowcaseTrain, Exact2401, SweepFreq, CliChain)}
