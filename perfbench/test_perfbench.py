"""Self-tests of the benchmark code: python3 -m pytest perfbench"""

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fourier_surrogates as fs  # noqa: E402
from fourier_surrogates import cli, experiments, pipeline, simulator  # noqa: E402

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _counted_gates(monkeypatch, config, params, X) -> int:
    """Gates the simulator really applies per row, counted at its kernels."""
    calls = []
    for name in ("_rotate_batch", "_cnot_batch"):
        original = getattr(simulator, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(simulator, name, counting)
    simulator.run_circuit_batch(config, params, X)
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize(
    "config, angles, gates",
    [
        # 1 qubit, 1 layer: 3 nonzero angles + 1 encoding, no CNOT
        (fs.CircuitConfig(1, 1), [[[0.3, 0.0, 0.5]], [[0.0, 0.0, 0.7]]], 4),
        # 2 qubits, 1 layer: 11 nonzero angles + 2 encodings + 2 blocks x 1 CNOT
        (fs.CircuitConfig(2, 1), np.arange(12.0).reshape(2, 2, 3), 15),
    ],
)
def test_gate_amp_ops_matches_hand_count(monkeypatch, config, angles, gates):
    params = fs.ParameterSet(np.asarray(angles, dtype=float))
    X = np.linspace(0.1, 1.0, 3 * config.d_features).reshape(3, -1)
    assert tr.gates_per_row(config, params) == gates
    assert _counted_gates(monkeypatch, config, params, X) == gates
    with tr.Tracer() as tracer:
        pipeline.expectation_batch(config, params, X)
    (span,) = tracer.spans
    assert span.counts["gate_amp_ops"] == 3 * gates * 2**config.n_qubits
    assert tr.layer_metrics(tracer)["simulator.gate_amp_ops"][0] == 3 * gates * 2**config.n_qubits


def test_showcase_inputs_deterministic_per_seed():
    a = wl.ShowcaseTrain.inputs(1)
    b = wl.ShowcaseTrain.inputs(1)
    c = wl.ShowcaseTrain.inputs(2)
    assert a[0] == b[0]
    assert np.array_equal(a[1].X, b[1].X) and np.array_equal(a[1].y, b[1].y)
    assert np.array_equal(a[2].angles, b[2].angles)
    assert a[1].n_rows == 350 and not np.array_equal(a[1].X, c[1].X)
    assert wl.ShowcaseTrain(5).variant == wl.ShowcaseTrain(1).variant == 1


def test_showcase_op_after_a_raising_op_runs_and_fails_its_check(monkeypatch):
    workload = wl.ShowcaseTrain(0)
    calls = []

    def train(config, data, tc, init):
        calls.append(init)
        if len(calls) == 1:
            raise RuntimeError("trainer failed")
        return init, [1.0, 0.5]

    monkeypatch.setattr(pipeline, "train", train)
    with pytest.raises(RuntimeError):
        workload.op(5)
    result = workload.op(6)
    assert calls[1] is workload.params[0]
    with pytest.raises(wl.CheckFailed, match="op 5 raised"):
        workload.check(6, result)


def test_workload_inputs_deterministic_per_seed():
    e1, e2, e3 = wl.Exact2401(7), wl.Exact2401(7), wl.Exact2401(8)
    assert np.array_equal(e1.params(3).angles, e2.params(3).angles)
    assert not np.array_equal(e1.params(3).angles, e3.params(3).angles)
    assert not np.array_equal(e1.params(3).angles, e1.params(4).angles)
    assert wl.derive(7, 3) == wl.derive(7, 3) != wl.derive(8, 3)
    chains = [wl.CliChain(s) for s in (7, 7, 8)]
    try:
        out = Path("out")
        assert chains[0].argvs(out) == chains[1].argvs(out) != chains[2].argvs(out)
    finally:
        for chain in chains:
            chain.close()
    assert not any(p.name.startswith("work-") for p in HERE.iterdir())


def test_sweep_check_accepts_a_reported_saturation_only():
    workload = wl.SweepFreq(0)

    def report(**n7):
        records = [
            {"n_qubits": n, "required_quantity": 10.0, "saturated": False, "n_saturated": 0}
            for n in (4, 5, 6)
        ]
        return SimpleNamespace(records=records + [{"n_qubits": 7, **n7}])

    workload.check(0, report(required_quantity=None, saturated=True, n_saturated=1))
    workload.check(0, report(required_quantity=9.0, saturated=False, n_saturated=0))
    for bad in (
        dict(required_quantity=None, saturated=False, n_saturated=1),
        dict(required_quantity=9.0, saturated=True, n_saturated=1),
        dict(required_quantity=20_000.0, saturated=False, n_saturated=0),
    ):
        with pytest.raises(wl.CheckFailed):
            workload.check(0, report(**bad))


def _wrapped_attributes():
    return {
        (module.__name__, attr): getattr(module, attr)
        for _, modules, attr, _ in tr.TARGETS
        for module in modules
    } | {("numpy.linalg", "lstsq"): np.linalg.lstsq}


def test_tracer_restores_every_attribute():
    before = _wrapped_attributes()
    with tr.Tracer():
        assert all(_wrapped_attributes()[key] is not f for key, f in before.items())
        config = fs.CircuitConfig(2, 1)
        pipeline.surrogate_exact(config, fs.ParameterSet.random(config, seed=1))
    assert _wrapped_attributes() == before
    with pytest.raises(RuntimeError), tr.Tracer():
        raise RuntimeError("op failed")
    assert _wrapped_attributes() == before


def test_self_time_excludes_children():
    tracer = tr.Tracer()
    outer, inner = tr.Span("a", -1), tr.Span("b", 0)
    outer.start, outer.end, inner.start, inner.end = 0.0, 5.0, 1.0, 3.0
    tracer.spans += [outer, inner]
    assert tracer.self_times() == [3.0, 2.0]


def _small_traced_run(tmp_path: Path) -> dict:
    with tr.Tracer() as tracer:
        experiments.sweep("frequencies", [2, 3], seeds=1, dataset_size=60)
        out = str(tmp_path / "cli")
        for argv in (
            ["datagen", "--dimension", "2", "--size", "80", "--out-dir", out],
            ["preprocess", "--input", f"{out}/dataset.json", "--rescale-targets",
             "--split", "0.7", "--out-dir", out],
            ["train", "--dataset", f"{out}/train.json", "--qubits", "2", "--max-iters", "1",
             "--shots", "64", "--out-dir", out],
            ["surrogate", "rff", "--circuit", f"{out}/trained.json", "--dataset",
             f"{out}/train.json", "--frequencies", "4", "--out-dir", out],
            ["eval", "--model", f"{out}/model.json", "--dataset", f"{out}/test.json",
             "--out-dir", out],
        ):
            assert cli.main(argv) == 0
    return tr.layer_metrics(tracer)


def test_count_metrics_repeat_exactly(tmp_path):
    first = _small_traced_run(tmp_path / "1")
    second = _small_traced_run(tmp_path / "2")
    counts = {name: first[name][0] for name in tr.COUNT_METRICS}
    assert counts == {name: second[name][0] for name in tr.COUNT_METRICS}
    assert counts["experiments.lstsq.calls"] > 0 and counts["cli.bytes_written"] > 0
    assert counts["simulator.shots.rows"] > 0 and counts["datasets.rows"] > 0


class _FakeWorkload:
    def op(self, k):
        if k == 1:
            raise ValueError("boom")
        return k

    def check(self, k, result):
        if k == 2:
            raise wl.CheckFailed("wrong")


def test_measure_counts_raising_and_wrong_ops_as_failed():
    record = {"errors": []}
    metrics, attempted, failed = run.measure(_FakeWorkload(), 0.05, record)
    assert attempted >= 3 and failed == 2 and len(record["errors"]) == 2
    assert metrics["pass_ratio"][0] == (attempted - 2) / attempted


class _FastFailures:
    """Passing ops take 10 ms; failing ones return at once."""

    def op(self, k):
        if k % 2:
            time.sleep(0.01)
        return k

    def check(self, k, result):
        if not k % 2:
            raise wl.CheckFailed("wrong")


def test_op_median_counts_only_passed_ops():
    metrics, attempted, failed = run.measure(_FastFailures(), 0.1, {"errors": []})
    assert attempted >= 4 and failed == (attempted + 1) // 2
    assert metrics["op_s_p50"][0] >= 0.01


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(wl.WORKLOADS)
    metrics, _, _ = run.measure(_FakeWorkload(), 0.0, {"errors": []})
    reported = {name: unit for name, (_, unit) in metrics.items()} | {"setup_s": "s"}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == reported
    layers = tr.layer_metrics(tr.Tracer()) | {"trace.ops_per_s_ratio": (0.0, "ratio")}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
