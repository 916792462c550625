"""Scaling-sweep machinery: fits, search helpers, reports, and showcase."""

import json

import numpy as np
import pytest

from fourier_surrogates import (
    expectation_batch,
    linear_fit,
    showcase,
    surrogate_rff,
    sweep,
    sweep_to_csv,
)
from fourier_surrogates import experiments
from fourier_surrogates.experiments import _derive, _minimal_quantity
import sweep_oracle


# ---------------------------------------------------------------------------
# linear fit
# ---------------------------------------------------------------------------


def test_linear_fit_recovers_exact_line():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    out = linear_fit(xs, 2.5 * xs - 1.0)
    assert abs(out["slope"] - 2.5) <= 1e-12
    assert abs(out["intercept"] + 1.0) <= 1e-12
    assert out["r2"] >= 1.0 - 1e-12
    assert out["residual"] <= 1e-10


def test_linear_fit_constant_target():
    out = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert out["r2"] == 1.0
    assert abs(out["slope"]) <= 1e-12


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        linear_fit([[1.0], [2.0]], [[1.0], [2.0]])


def test_linear_fit_r2_reflects_scatter():
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 10, 50)
    noisy = 3.0 * xs + rng.normal(0, 20.0, size=50)
    assert linear_fit(xs, noisy)["r2"] < 0.9


# ---------------------------------------------------------------------------
# the bracket search
# ---------------------------------------------------------------------------


def test_minimal_quantity_finds_exact_boundary():
    # deviation clears 0.5 exactly from q = 37 onward
    calls = []

    def deviation(q):
        calls.append(q)
        return 2.0 if q < 37 else 0.3

    assert _minimal_quantity(deviation, 1, 100, 0.5) == 37
    assert _minimal_quantity(lambda q: 0.1, 1, 100, 0.5) == 1
    assert _minimal_quantity(lambda q: 2.0, 1, 100, 0.5) is None
    assert _minimal_quantity(lambda q: 0.4 if q == 100 else 2.0, 1, 100, 0.5) == 100


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _tiny_sweep(**overrides):
    kw = dict(
        quantity="frequencies",
        qubit_range=(1, 2),
        thresholds=(0.5,),
        seeds=3,
        n_layers=1,
        dataset_size=60,
        max_frequencies=4,
        base_seed=1,
    )
    kw.update(overrides)
    return sweep(**kw)


def test_sweep_report_structure():
    report = _tiny_sweep()
    assert report.axis == "qubits"
    assert report.quantity == "frequencies"
    assert [r["n_qubits"] for r in report.records] == [1, 2]
    for rec in report.records:
        assert rec["threshold"] == 0.5
        assert rec["seeds_used"] == 3
        assert rec["n_saturated"] + (0 if rec["required_quantity"] is None else 1) >= 0
        if not rec["saturated"]:
            assert rec["required_quantity"] >= 1
    fit_entry = report.fits[0]
    assert fit_entry["threshold"] == 0.5
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["config"]["dataset_size"] == 60


def test_sweep_is_deterministic():
    a = _tiny_sweep()
    b = _tiny_sweep()
    assert a.records == b.records


def test_sweep_saturates_on_impossible_threshold():
    # with heavily shot-noisy fit evaluations no frequency budget brings
    # the surrogate within 1e-9 of the noiseless reference, so every
    # seed saturates and the per-threshold fit is skipped
    report = _tiny_sweep(qubit_range=(2,), thresholds=(1e-9,), shots=16)
    rec = report.records[0]
    assert rec["saturated"] is True
    assert rec["required_quantity"] is None
    assert rec["n_saturated"] == 3
    assert "skipped" in report.fits[0]


def test_sweep_datapoints_mode():
    report = _tiny_sweep(quantity="datapoints", max_frequencies=3)
    assert report.quantity == "datapoints"
    for rec in report.records:
        if not rec["saturated"]:
            # can never need more rows than the training split holds
            assert rec["required_quantity"] <= 0.7 * 60


def test_sweep_validation(monkeypatch):
    def no_circuit(*args, **kwargs):
        raise AssertionError("sweep ran a circuit before checking its arguments")

    monkeypatch.setattr(experiments, "expectation_batch", no_circuit)
    with pytest.raises(ValueError):
        _tiny_sweep(quantity="other")
    with pytest.raises(ValueError):
        _tiny_sweep(seeds=0)
    with pytest.raises(ValueError):
        _tiny_sweep(thresholds=())
    with pytest.raises(ValueError):
        _tiny_sweep(thresholds=(-0.1,))
    with pytest.raises(ValueError):
        _tiny_sweep(qubit_range=())
    with pytest.raises(ValueError):
        _tiny_sweep(noise_sd=0.0)
    with pytest.raises(ValueError):
        _tiny_sweep(train_fraction=0.999)
    with pytest.raises(ValueError, match="max_frequencies"):
        _tiny_sweep(max_frequencies=0)
    for qubits in ((2, 2), (1, 2, 1)):
        with pytest.raises(ValueError, match="qubit counts must be distinct"):
            _tiny_sweep(qubit_range=qubits)
    with pytest.raises(ValueError, match="thresholds must be distinct"):
        _tiny_sweep(thresholds=(0.5, 0.5))
    for thresholds in ((float("nan"),), (0.5, float("inf"))):
        with pytest.raises(ValueError, match="thresholds must be positive and finite"):
            _tiny_sweep(thresholds=thresholds)
    for noise_sd in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sd must be positive and finite"):
            _tiny_sweep(noise_sd=noise_sd)


@pytest.mark.parametrize("quantity", ["frequencies", "datapoints"])
@pytest.mark.parametrize(
    "noise", [{}, {"shots": 64}, {"depolarizing": 0.02}, {"shots": 64, "depolarizing": 0.02}]
)
def test_sweep_matches_the_growing_design_oracle_byte_for_byte(quantity, noise):
    # max_frequencies past every canonical count (1, 4 and 13 at n = 1, 2, 3
    # with one layer) pins d_cap to the whole canonical set, so a saturated
    # frequencies cell probes a draw of all of it
    saturated = 0
    for base_seed in range(5):
        kw = dict(
            quantity=quantity, qubit_range=(1, 2, 3), thresholds=(1e-9, 0.1, 0.5),
            seeds=3, n_layers=1, dataset_size=60, max_frequencies=100,
            base_seed=base_seed, **noise,
        )
        got = json.dumps(sweep(**kw).to_json_dict())
        assert got == json.dumps(sweep_oracle.sweep(**kw).to_json_dict())
        saturated += sum(r["n_saturated"] for r in json.loads(got)["records"])
    assert saturated > 0 or not noise


def _recording(calls: list, f):
    def wrapper(a, *args, **kwargs):
        calls.append(np.shape(a))
        return f(a, *args, **kwargs)

    return wrapper


@pytest.mark.parametrize("noise", [{}, {"shots": 1024}])
def test_sweep_matches_the_oracle_across_the_tall_wide_boundary(monkeypatch, noise):
    # n = 3 with one layer has 13 canonical vectors, up to 27 columns
    # against 21 training rows: probes at q <= 10 are tall (prefixes of one
    # R), wider ones go through fit, and a wide bracket step can leave
    # tall bisection probes below it
    qr, lstsq = [], []
    for base_seed in range(4):
        kw = dict(
            quantity="frequencies", qubit_range=(3,), thresholds=(1e-9, 0.1, 0.5),
            seeds=3, n_layers=1, dataset_size=30, max_frequencies=100,
            base_seed=base_seed, **noise,
        )
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "qr", _recording(qr, np.linalg.qr))
            m.setattr(np.linalg, "lstsq", _recording(lstsq, np.linalg.lstsq))
            got = json.dumps(sweep(**kw).to_json_dict())
        assert got == json.dumps(sweep_oracle.sweep(**kw).to_json_dict())
    assert qr and all(rows == 21 for rows, cols in qr)
    assert any(cols > rows for rows, cols in lstsq)


def test_sweep_factors_once_and_solves_only_bracket_steps(monkeypatch):
    # every probe of this cell is tall (at most 33 columns on 42 rows):
    # each bracket step draws, builds and solves through fit, the search
    # then factors the good step's design once, and every bisection probe
    # is a triangular solve on a prefix of it
    probes, qr, lstsq, draws = [], [], [], []

    def recorded_search(deviation, lo, hi, threshold):
        return _minimal_quantity(lambda q: probes.append(q) or deviation(q), lo, hi, threshold)

    monkeypatch.setattr(experiments, "_minimal_quantity", recorded_search)
    monkeypatch.setattr(np.linalg, "qr", _recording(qr, np.linalg.qr))
    monkeypatch.setattr(np.linalg, "lstsq", _recording(lstsq, np.linalg.lstsq))
    monkeypatch.setattr(
        experiments, "sample_distinct", _recording(draws, experiments.sample_distinct)
    )
    sweep("frequencies", (3,), seeds=1, dataset_size=60)
    bracket = probes[:1]
    while len(bracket) < len(probes) and probes[len(bracket)] == 2 * bracket[-1]:
        bracket.append(probes[len(bracket)])
    assert 1 + 2 * max(probes) <= 42 and len(probes) > len(bracket)
    assert len(lstsq) == len(draws) == len(bracket)
    assert len(qr) == 1


@pytest.mark.parametrize(
    "overrides, match",
    [({"seeds": 0}, "at least one seed is required"), ({"n_frequencies": 0}, "n_frequencies")],
)
def test_showcase_rejects_an_empty_ensemble_before_training(monkeypatch, overrides, match):
    def no_training(*args, **kwargs):
        raise AssertionError("showcase trained before checking its arguments")

    monkeypatch.setattr(experiments, "train", no_training)
    kw = dict(n_qubits=1, n_layers=1, dataset_size=20, n_frequencies=1, seeds=1, train_iters=1)
    kw.update(overrides)
    with pytest.raises(ValueError, match=match):
        showcase(**kw)


def test_negative_depolarizing_is_rejected():
    with pytest.raises(ValueError, match="depolarizing_p"):
        _tiny_sweep(depolarizing=-3.0)
    with pytest.raises(ValueError, match="depolarizing_p"):
        showcase(n_qubits=1, n_layers=1, dataset_size=20, n_frequencies=1,
                 seeds=1, train_iters=1, depolarizing=-3.0)


def test_showcase_evaluates_its_training_rows_once_for_every_seed(monkeypatch):
    """Each seed's model is the one surrogate_rff gives, from one shared evaluation."""
    evaluations, models = [], []
    fit_rff = experiments._fit_rff

    def recording_eval(config, params, X, noise=None):
        evaluations.append((config, params, X, noise))
        return expectation_batch(config, params, X, noise=noise)

    def recording_fit(*args):
        models.append(fit_rff(*args))
        return models[-1]

    monkeypatch.setattr(experiments, "expectation_batch", recording_eval)
    monkeypatch.setattr(experiments, "_fit_rff", recording_fit)
    showcase(n_qubits=2, n_layers=1, dataset_size=40, n_frequencies=3, seeds=3,
             train_iters=1, shots=64)
    # the noiseless test rows, then the training rows under the showcase's noise
    assert len(evaluations) == 2 and len(models) == 3
    config, params, X, noise = evaluations[1]
    assert noise.shots == 64
    for s, model in enumerate(models):
        expected = surrogate_rff(config, params, X, D=3, seed=_derive(0, 14, s), noise=noise)
        assert model.to_json_dict() == expected.to_json_dict()


def test_sweep_csv_format(tmp_path):
    report = _tiny_sweep()
    path = tmp_path / "sweep.csv"
    sweep_to_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_qubits,threshold,quantity_mean,quantity_std"
    assert len(lines) == 1 + len(report.records)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.5


def test_sweep_noise_increases_requirement():
    clean = _tiny_sweep(
        quantity="datapoints", qubit_range=(2,), thresholds=(0.1,),
        dataset_size=200, max_frequencies=4, seeds=4,
    )
    noisy = _tiny_sweep(
        quantity="datapoints", qubit_range=(2,), thresholds=(0.1,),
        dataset_size=200, max_frequencies=4, seeds=4, shots=64,
    )
    c = clean.records[0]["required_quantity"]
    n = noisy.records[0]["required_quantity"]
    assert n is None or (c is not None and n > c)


# ---------------------------------------------------------------------------
# showcase
# ---------------------------------------------------------------------------


def test_showcase_structure_tiny():
    report = showcase(
        n_qubits=2, n_layers=1, dataset_size=40, n_frequencies=3,
        seeds=2, train_iters=1, base_seed=0,
    )
    assert report["n_qubits"] == 2
    assert report["lattice_size"] == 9
    assert report["frequency_fraction"] == 3 / 9
    assert len(report["per_seed"]) == 2
    assert report["train_iterations"] == 1
    assert report["quantum_test_mse"] > 0
    for entry in report["per_seed"]:
        assert {"seed_index", "surrogate_test_mse", "relative_deviation"} <= set(entry)
    json.dumps(report)
