"""Per-layer spans and counts, recorded from outside the package.

``Tracer`` replaces public functions at the module attributes their
callers look them up through (``pipeline.expectation_batch``,
``experiments.sample_distinct``, ...) with wrappers that record a span
(name, parent, start, end) and the counts of the call. Leaving the
``with`` block puts every original back. A span's self time is its
duration minus the durations of its direct children. Spans stay in
memory until ``layer_metrics`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

from fourier_surrogates import cli, datasets, experiments, pipeline, simulator, spectrum, surrogate


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def gates_per_row(config: simulator.CircuitConfig, params: simulator.ParameterSet) -> int:
    """Gates the simulator applies per input row.

    Every nonzero trainable angle is one rotation (zero angles are
    skipped), each of the L+1 blocks applies the coupling map's CNOTs,
    and each of the L encodings rotates every qubit.
    """
    rotations = int(np.count_nonzero(params.angles))
    cnots = (config.n_layers + 1) * len(config.coupling_map)
    return rotations + cnots + config.n_layers * config.n_qubits


def _count_expectation(span, args, kwargs, result) -> None:
    config, params = args[0], args[1]
    rows = len(result)
    noise = args[3] if len(args) > 3 else kwargs.get("noise")
    span.counts["rows"] = rows
    span.counts["gate_amp_ops"] = rows * gates_per_row(config, params) * 2**config.n_qubits
    span.counts["shots"] = int(noise is not None and noise.shots is not None)


def _count_predict_rows(span, args, kwargs, result) -> None:
    span.counts["rows"] = len(result)


def _count_freqs(span, args, kwargs, result) -> None:
    span.counts["freqs"] = len(result)


def _count_cells(span, args, kwargs, result) -> None:
    span.counts["cells"] = int(np.prod(args[0].entries.shape))


def _count_iters(span, args, kwargs, result) -> None:
    span.counts["iters"] = len(result[1]) - 1


def _count_sweep_cells(span, args, kwargs, result) -> None:
    span.counts["cells"] = len(result.config["qubits"]) * result.config["seeds"]


def _count_dataset_rows(span, args, kwargs, result) -> None:
    parts = result if isinstance(result, tuple) else (result,)
    span.counts["rows"] = sum(p.n_rows for p in parts if isinstance(p, datasets.Dataset))


def _count_cli_bytes(span, args, kwargs, result) -> None:
    # Manifests carry wall-clock time, so their size is counted apart
    # from the artifacts they list, whose bytes repeat exactly.
    ns = args[0]
    out = Path(ns.out_dir)
    manifest = out / f"{span.name.split('.', 1)[1]}_manifest.json"
    try:
        listed = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
    except (OSError, ValueError, KeyError):
        return
    span.counts["bytes_written"] = sum((out / name).stat().st_size for name in listed)
    span.counts["manifest_bytes"] = manifest.stat().st_size


_CLI_COMMANDS = ("datagen", "preprocess", "train", "surrogate", "eval")

_DATASET_FUNCS = (
    "synth_generate", "load_dataset", "normalize", "rescale_targets", "train_test_split",
)

#: (span name, modules whose attribute is wrapped, attribute, count hook);
#: the modules are those through which the workloads reach the function
TARGETS = (
    ("simulator.expectation_batch", (pipeline, experiments, cli),
     "expectation_batch", _count_expectation),
    ("spectrum.sample_distinct", (pipeline, experiments, spectrum),
     "sample_distinct", _count_freqs),
    ("spectrum.full_grid", (pipeline,), "full_grid", None),
    ("surrogate.build_complex_design", (pipeline,), "build_complex_design", None),
    ("surrogate.build_real_design", (pipeline,), "build_real_design", None),
    ("surrogate.fit", (pipeline,), "fit", _count_cells),
    ("surrogate.complex_fit_to_real", (pipeline,), "complex_fit_to_real", None),
    ("surrogate.predict_batch", (surrogate,), "predict_batch", _count_predict_rows),
    ("pipeline.train", (pipeline, cli), "train", _count_iters),
    ("pipeline.surrogate_exact", (pipeline,), "surrogate_exact", None),
    ("pipeline.surrogate_rff", (cli,), "surrogate_rff", None),
    ("experiments.sweep", (experiments,), "sweep", _count_sweep_cells),
    ("cli.main", (cli,), "main", None),
    *((f"datasets.{fn}", (cli,), fn, _count_dataset_rows) for fn in _DATASET_FUNCS),
    *((f"cli.{cmd}", (cli,), f"cmd_{cmd}", _count_cli_bytes) for cmd in _CLI_COMMANDS),
)


class Tracer:
    """A context manager: entering wraps every target, leaving restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, modules, attr, count in TARGETS:
            for module in modules:
                self._wrap(module, attr, name, count)
        # lstsq is numpy's; only the sweep's own probes are a span of
        # their own, elsewhere the solve stays inside its caller's span
        self._wrap(np.linalg, "lstsq", "experiments.lstsq", None, under="experiments.sweep")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr: str, name: str, count, under: str | None = None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if under is not None and (parent < 0 or spans[parent].name != under):
                return original(*args, **kwargs)
            span = Span(name, parent)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics as name -> (value, unit), from one tracer's spans.

    Every metric is present; a layer that did not run reports 0.
    """
    spans, own = tracer.spans, tracer.self_times()

    def select(prefix: str, parent: str | None = None):
        for s, t in zip(spans, own):
            if s.name.startswith(prefix) and (
                parent is None or (s.parent >= 0 and spans[s.parent].name == parent)
            ):
                yield s, t

    def calls(prefix, parent=None):
        return sum(1 for _ in select(prefix, parent))

    def self_s(prefix, parent=None, where=lambda s: True):
        return sum(t for s, t in select(prefix, parent) if where(s))

    def total(prefix, key, where=lambda s: True):
        return sum(s.counts.get(key, 0) for s, _ in select(prefix) if where(s))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    exp = "simulator.expectation_batch"
    exact = lambda s: not s.counts.get("shots")  # noqa: E731
    shots = lambda s: bool(s.counts.get("shots"))  # noqa: E731
    m = {
        f"{exp}.calls": calls(exp),
        f"{exp}.rows": total(exp, "rows"),
        f"{exp}.self_s": self_s(exp),
        "simulator.gate_amp_ops": total(exp, "gate_amp_ops"),
        "simulator.ns_per_gate_amp": ratio(
            self_s(exp, where=exact), total(exp, "gate_amp_ops", exact), 1e9
        ),
        "simulator.shots.self_s": self_s(exp, where=shots),
        "simulator.shots.rows": total(exp, "rows", shots),
        "spectrum.sample_distinct.calls": calls("spectrum.sample_distinct"),
        "spectrum.sample_distinct.freqs": total("spectrum.sample_distinct", "freqs"),
        "spectrum.sample_distinct.self_s": self_s("spectrum.sample_distinct"),
        "spectrum.us_per_freq": ratio(
            self_s("spectrum.sample_distinct"), total("spectrum.sample_distinct", "freqs"), 1e6
        ),
        "spectrum.full_grid.self_s": self_s("spectrum.full_grid"),
        "surrogate.build_complex_design.self_s": self_s("surrogate.build_complex_design"),
        "surrogate.fit.self_s": self_s("surrogate.fit"),
        "surrogate.fit.cells": total("surrogate.fit", "cells"),
        "surrogate.complex_fit_to_real.self_s": self_s("surrogate.complex_fit_to_real"),
        "surrogate.build_real_design.self_s": self_s("surrogate.build_real_design"),
        "surrogate.predict_batch.self_s": self_s("surrogate.predict_batch"),
        "surrogate.predict_batch.rows": total("surrogate.predict_batch", "rows"),
        "pipeline.train.self_s": self_s("pipeline.train"),
        "pipeline.train.iters": total("pipeline.train", "iters"),
        "pipeline.train.evals_per_iter": ratio(
            calls(exp, "pipeline.train"), total("pipeline.train", "iters")
        ),
        "pipeline.surrogate_exact.self_s": self_s("pipeline.surrogate_exact"),
        "pipeline.surrogate_rff.self_s": self_s("pipeline.surrogate_rff"),
        "experiments.sweep.self_s": self_s("experiments.sweep"),
        "experiments.lstsq.calls": calls("experiments.lstsq"),
        "experiments.lstsq.self_s": self_s("experiments.lstsq"),
        "experiments.probes_per_cell": ratio(
            calls("experiments.lstsq"), total("experiments.sweep", "cells")
        ),
        "datasets.self_s": self_s("datasets."),
        "datasets.rows": total("datasets.", "rows"),
        "cli.self_s": self_s("cli."),
        "cli.bytes_written": total("cli.", "bytes_written"),
        "cli.manifest_bytes": total("cli.", "manifest_bytes"),
    }
    for cmd in ("datagen", "preprocess", "train", "surrogate", "eval"):
        m[f"cli.{cmd}.s"] = sum(s.duration for s in spans if s.name == f"cli.{cmd}")
    return {name: (value, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last in ("ns_per_gate_amp", "us_per_freq"):
        return last.split("_", 1)[0]
    if last.endswith("bytes") or last == "bytes_written":
        return "bytes"
    if "_per_" in last or last.endswith("_ratio"):
        return "ratio"
    return "count"


#: per-layer metrics that count work; two traced runs of one seed must
#: give the same values
COUNT_METRICS = (
    "simulator.expectation_batch.calls",
    "simulator.expectation_batch.rows",
    "simulator.gate_amp_ops",
    "simulator.shots.rows",
    "spectrum.sample_distinct.calls",
    "spectrum.sample_distinct.freqs",
    "surrogate.fit.cells",
    "surrogate.predict_batch.rows",
    "pipeline.train.iters",
    "pipeline.train.evals_per_iter",
    "experiments.lstsq.calls",
    "experiments.probes_per_cell",
    "datasets.rows",
    "cli.bytes_written",
)
