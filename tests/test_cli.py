"""End-to-end tests of the command-line interface.

Each test drives ``main(argv)`` in process against a temporary output
directory and inspects the emitted JSON artifacts, the run manifest,
and the exit code. Subprocess tests check the module entry point, that
in-process runs write a fresh process's bytes, and that artifacts do not
depend on the OpenBLAS thread count.
"""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fourier_surrogates as fs
from fourier_surrogates import cli
from fourier_surrogates.cli import main


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def last_stderr_json(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err.splitlines()[-1])


# ---------------------------------------------------------------- datagen


def test_datagen_writes_dataset_and_manifest(tmp_path):
    rc = run_cli("datagen", "--dimension", 2, "--size", 40, "--seed", 3,
                 "--out-dir", tmp_path)
    assert rc == 0

    ds = fs.load_dataset(tmp_path / "dataset.json")
    assert ds.X.shape == (40, 2)
    assert ds.y.shape == (40,)

    manifest = read_json(tmp_path / "datagen_manifest.json")
    assert manifest["command"] == "datagen"
    assert manifest["artifacts"] == ["dataset.json"]
    assert manifest["seeds"] == [3]
    assert manifest["manifest"] == "datagen_manifest.json"
    assert manifest["version"] == fs.__version__
    assert manifest["wall_clock_seconds"] >= 0.0
    assert manifest["config"]["dimension"] == 2
    assert manifest["config"]["size"] == 40


def test_datagen_byte_identical_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("datagen", "--dimension", 3, "--size", 25,
                       "--seed", 7, "--out-dir", out) == 0
    assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()


# ------------------------------------------------------------- preprocess


def test_preprocess_chain_writes_split_and_processed(tmp_path):
    assert run_cli("datagen", "--dimension", 2, "--size", 40,
                   "--out-dir", tmp_path) == 0
    out = tmp_path / "prep"
    rc = run_cli("preprocess", "--input", tmp_path / "dataset.json",
                 "--normalize", "--rescale-targets", "--split", 0.7,
                 "--out-dir", out)
    assert rc == 0

    train_ds = fs.load_dataset(out / "train.json")
    test_ds = fs.load_dataset(out / "test.json")
    full = fs.load_dataset(out / "processed.json")
    assert train_ds.n_rows == 28 and test_ds.n_rows == 12
    assert full.n_rows == 40
    assert full.X.min() >= 0.0 and full.X.max() <= 1.0
    assert full.y.min() >= -1.0 and full.y.max() <= 1.0

    manifest = read_json(out / "preprocess_manifest.json")
    assert manifest["artifacts"] == ["train.json", "test.json", "processed.json"]


def test_preprocess_csv_needs_target_column(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("a,b,label\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n")

    assert run_cli("preprocess", "--input", csv_path, "--out-dir", tmp_path) == 1

    rc = run_cli("preprocess", "--input", csv_path, "--target-column", "label",
                 "--out-dir", tmp_path)
    assert rc == 0
    ds = fs.load_dataset(tmp_path / "processed.json")
    assert ds.X.shape == (3, 2)
    np.testing.assert_allclose(ds.y, [0.3, 0.6, 0.9])


# -------------------------------------------- train / surrogate / eval


def test_train_surrogate_eval_round_trip(tmp_path):
    assert run_cli("datagen", "--dimension", 1, "--size", 30, "--seed", 1,
                   "--out-dir", tmp_path) == 0
    dataset = tmp_path / "dataset.json"

    rc = run_cli("train", "--dataset", dataset, "--qubits", 1, "--layers", 1,
                 "--max-iters", 2, "--learning-rate", 0.1,
                 "--out-dir", tmp_path, "--output", "trained.json")
    assert rc == 0
    trained = read_json(tmp_path / "trained.json")
    assert set(trained) == {"config", "params", "loss_history"}
    assert len(trained["loss_history"]) == 3

    rc = run_cli("surrogate", "exact", "--circuit", tmp_path / "trained.json",
                 "--out-dir", tmp_path, "--output", "model.json")
    assert rc == 0
    model = fs.load_model(tmp_path / "model.json")
    assert model.mode == "exact"

    rc = run_cli("surrogate", "rff", "--circuit", tmp_path / "trained.json",
                 "--dataset", dataset, "--frequencies", 1,
                 "--out-dir", tmp_path, "--output", "model_rff.json")
    assert rc == 0
    assert fs.load_model(tmp_path / "model_rff.json").mode == "rff"

    rc = run_cli("eval", "--model", tmp_path / "model.json",
                 "--dataset", dataset, "--circuit", tmp_path / "trained.json",
                 "--out-dir", tmp_path)
    assert rc == 0
    report = read_json(tmp_path / "eval.json")
    assert report["n_rows"] == 30
    # The exact surrogate reproduces the circuit, so the two scores agree.
    assert abs(report["relative_deviation"]) < 1e-6

    rc = run_cli("eval", "--model", tmp_path / "model.json",
                 "--dataset", dataset, "--out-dir", tmp_path,
                 "--output", "eval_plain.json")
    assert rc == 0
    plain = read_json(tmp_path / "eval_plain.json")
    assert set(plain) == {"surrogate_mse", "n_rows"}


@pytest.mark.parametrize("noise", [[], ["--shots", 64]], ids=["noiseless", "shots"])
def test_train_byte_identical_reruns(tmp_path, noise):
    assert run_cli("datagen", "--dimension", 2, "--size", 20, "--seed", 5,
                   "--out-dir", tmp_path) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run_cli("train", "--dataset", tmp_path / "dataset.json", "--qubits", 2,
                     "--layers", 2, "--max-iters", 2, *noise,
                     "--out-dir", out, "--output", "trained.json")
        assert rc == 0
    assert (a / "trained.json").read_bytes() == (b / "trained.json").read_bytes()


def test_surrogate_rff_byte_identical_reruns(tmp_path):
    assert run_cli("datagen", "--dimension", 2, "--size", 20,
                   "--out-dir", tmp_path) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run_cli("surrogate", "rff", "--qubits", 2, "--layers", 1,
                     "--dataset", tmp_path / "dataset.json",
                     "--frequencies", 3, "--seed", 11, "--out-dir", out)
        assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_surrogate_exact_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = run_cli("surrogate", "exact", "--qubits", 3, "--layers", 2,
                     "--param-seed", 4, "--out-dir", out)
        assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


# SHA-256 of five fixed-seed artifacts. A change to any digest changes the
# model, dataset or trained-circuit wire format or a fixed-seed result; the
# float digits come from one numpy/OpenBLAS build, so another BLAS may move
# the last bits.
_GOLDEN_SHA256 = {
    "exact/model.json": "14b1cbc9382abc085d3fe2d5407364e285d919501d30f9723f7145c9a66c1e4c",
    "rff/model.json": "55ee2fc5c75138767cb8811eb7c00fa87e8402cc457869512307436badab835c",
    "dataset.json": "b52506bcf56398eea6a2983aefe134a6e5516577f22f35348e8ac4a3aee8f12c",
    "noiseless/trained.json": "c6cac03d3942380ab8a2aaeb18232743b477195a46f232c8466286db1a1688c2",
    "shots/trained.json": "4476199243099f9b11c69adc8ec8b6b02471734da5a76de180e3a9f0b640b41f",
}


def test_artifacts_keep_their_golden_bytes(tmp_path):
    assert run_cli("surrogate", "exact", "--qubits", 2, "--layers", 1,
                   "--out-dir", tmp_path / "exact") == 0
    assert run_cli("datagen", "--dimension", 2, "--size", 20, "--seed", 5,
                   "--out-dir", tmp_path) == 0
    assert run_cli("surrogate", "rff", "--qubits", 2, "--layers", 1,
                   "--dataset", tmp_path / "dataset.json", "--frequencies", 3,
                   "--seed", 11, "--out-dir", tmp_path / "rff") == 0
    assert run_cli("train", "--dataset", tmp_path / "dataset.json", "--qubits", 2,
                   "--layers", 1, "--max-iters", 3, "--out-dir", tmp_path / "noiseless") == 0
    assert run_cli("preprocess", "--input", tmp_path / "dataset.json", "--rescale-targets",
                   "--out-dir", tmp_path) == 0
    assert run_cli("train", "--dataset", tmp_path / "processed.json", "--qubits", 2,
                   "--layers", 1, "--max-iters", 2, "--shots", 64,
                   "--out-dir", tmp_path / "shots") == 0
    for name, digest in _GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# --------------------------------------------------------------- estimate


def test_estimate_worked_example(tmp_path):
    rc = run_cli("estimate", "--qubits", 4, "--layers", 2, "--out-dir", tmp_path)
    assert rc == 0
    doc = read_json(tmp_path / "estimate.json")
    assert doc["lattice_size"] == 625
    assert doc["grid_size"] == 625
    assert doc["design_matrix_bytes"] == 6_250_000
    assert doc["feasible_on"] == "laptop"
    # 4 x 81 x 16 coefficient entries, 625 grid values and their FFT, and
    # one inverse-FFT block of all 16 basis states: 82 944 + 15 000 + 160 000
    assert doc["exact_route_bytes"] == 257_944
    assert len(doc["tier_limits_bytes"]) == 3
    assert "infeasible" in doc["note"]


# ----------------------------------------------------------------- bounds


def test_bounds_explicit_route_matches_library(tmp_path):
    rc = run_cli("bounds", "--epsilon", 0.1, "--sigma-p", 2.0,
                 "--dimension", 2, "--kernel-sup-term", 0.5,
                 "--lam", 0.5, "--out-dir", tmp_path)
    assert rc == 0
    doc = read_json(tmp_path / "bounds.json")

    params = fs.BoundParams(d=2, epsilon=0.1, delta=0.05, sigma_p=2.0,
                            lam=0.5, n_layers=2)
    alpha = fs.bound_alpha_epsilon(0.1, 0.5)
    assert doc["beta_d"] == pytest.approx(fs.bound_beta_d(2), abs=1e-12)
    assert doc["alpha_epsilon"] == pytest.approx(alpha, abs=1e-12)
    assert doc["min_features"] == fs.bound_min_features(params, alpha)
    assert doc["lrr_features"] == fs.bound_lrr_features(params)
    assert doc["sigma_p_ell"] == pytest.approx(2.0 * params.ell, rel=1e-12)


def test_bounds_circuit_route_derives_spectrum(tmp_path):
    rc = run_cli("bounds", "--epsilon", 0.2, "--qubits", 1, "--layers", 1,
                 "--out-dir", tmp_path)
    assert rc == 0
    doc = read_json(tmp_path / "bounds.json")
    assert doc["d"] == 1
    # One qubit, one layer: the only canonical frequency is (1,).
    assert doc["sigma_p"] == pytest.approx(1.0, abs=1e-12)
    assert doc["min_features"] >= 1
    assert np.isfinite(doc["kernel_sup_term"])
    assert "lrr_features" not in doc


def test_bounds_enumerates_no_lattice_at_nine_qubits(tmp_path, monkeypatch):
    # a lattice of 1 953 125 points, which no bounds run enumerates: the
    # kernel's sup term is taken in closed form
    def unreachable(*args, **kwargs):
        raise AssertionError("the lattice was enumerated")

    for module in (cli, fs.pipeline, fs.spectrum):
        monkeypatch.setattr(module, "enumerate_canonical", unreachable, raising=False)
    assert run_cli("bounds", "--epsilon", 0.1, "--qubits", 9, "--layers", 2,
                   "--out-dir", tmp_path) == 0
    assert np.isfinite(read_json(tmp_path / "bounds.json")["kernel_sup_term"])


def test_bounds_requires_a_spectrum_or_sigma(tmp_path):
    assert run_cli("bounds", "--epsilon", 0.1, "--out-dir", tmp_path) == 1
    assert run_cli("bounds", "--epsilon", 0.1, "--sigma-p", 1.0,
                   "--out-dir", tmp_path) == 1


# -------------------------------------------------------------- sweeps


def test_sweep_tiny_writes_json_and_csv(tmp_path):
    rc = run_cli("sweep", "--quantity", "frequencies", "--qubits", 1, 2,
                 "--thresholds", 0.5, "--seeds", 2, "--layers", 1,
                 "--dataset-size", 40, "--max-frequencies", 4,
                 "--out-dir", tmp_path)
    assert rc == 0

    doc = read_json(tmp_path / "sweep.json")
    assert {rec["n_qubits"] for rec in doc["records"]} == {1, 2}

    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n_qubits,threshold,quantity_mean,quantity_std"
    assert len(lines) == 3

    manifest = read_json(tmp_path / "sweep_manifest.json")
    assert manifest["artifacts"] == ["sweep.json", "sweep.csv"]


def test_showcase_tiny(tmp_path):
    rc = run_cli("showcase", "--qubits", 2, "--layers", 1, "--size", 30,
                 "--frequencies", 3, "--seeds", 2, "--train-iters", 1,
                 "--out-dir", tmp_path)
    assert rc == 0
    doc = read_json(tmp_path / "showcase.json")
    for key in ("quantum_test_mse", "surrogate_test_mse",
                "relative_deviation_median", "frequency_fraction", "per_seed"):
        assert key in doc
    assert len(doc["per_seed"]) == 2


# -------------------------------------------------------- artifact format


def test_every_json_file_is_written_in_the_one_format(tmp_path):
    """Sorted keys, two-space indent and a closing newline, manifests included."""
    dataset, model = tmp_path / "dataset.json", tmp_path / "model.json"
    for argv in (
        ("datagen", "--dimension", 2, "--size", 20, "--seed", 4),
        ("surrogate", "rff", "--qubits", 2, "--layers", 1, "--dataset", dataset,
         "--frequencies", 3, "--shots", 32),
        ("eval", "--model", model, "--dataset", dataset),
        ("estimate", "--qubits", 2, "--layers", 1),
        ("bounds", "--epsilon", 0.1, "--qubits", 2, "--layers", 1),
    ):
        assert run_cli(*argv, "--out-dir", tmp_path) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 10
    for path in written:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n", path.name
    assert read_json(tmp_path / "surrogate_manifest.json")["artifacts"] == ["model.json"]


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_the_json_writer_refuses_non_finite_numbers_and_leaves_no_file(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"ok": 1.0, "bad": [value]})
    assert not path.exists()


# ------------------------------------------------------------ exit codes


def test_usage_errors_exit_1(tmp_path):
    assert run_cli("datagen", "--dimension", 2, "--size", 5, "--bogus") == 1
    assert run_cli("datagen", "--size", 5, "--out-dir", tmp_path) == 1
    assert run_cli("surrogate", "weird", "--qubits", 1, "--out-dir", tmp_path) == 1
    assert run_cli("surrogate", "rff", "--qubits", 1, "--out-dir", tmp_path) == 1
    assert run_cli("surrogate", "exact", "--out-dir", tmp_path) == 1


# Each flag below belongs to another subcommand (or surrogate mode) and is
# not read by the one it is given to.
_UNREAD_FLAGS = [
    ("datagen", "--shots", "5"),
    ("datagen", "--depolarizing", "0.1"),
    ("preprocess", "--shots", "5"),
    ("preprocess", "--depolarizing", "0.1"),
    ("train", "--depolarizing", "0.1"),
    ("surrogate exact", "--shots", "10"),
    ("surrogate exact", "--depolarizing", "0.1"),
    ("surrogate exact", "--dataset", "data.json"),
    ("surrogate exact", "--frequencies", "3"),
    ("surrogate exact", "--rcond", "1e-10"),
    ("surrogate rff", "--cap", "5"),
    ("eval", "--shots", "5"),
    ("eval", "--depolarizing", "0.1"),
    ("eval", "--qubits", "3"),
    ("eval", "--layers", "1"),
    ("eval", "--features", "2"),
    ("eval", "--theta", "zero"),
    ("eval", "--param-seed", "1"),
    ("estimate", "--shots", "5"),
    ("estimate", "--depolarizing", "0.1"),
    ("bounds", "--shots", "5"),
    ("bounds", "--depolarizing", "0.1"),
    ("bounds", "--cap", "5"),
]

_VALID_ARGV = {
    "datagen": ["--dimension", "1", "--size", "5"],
    "preprocess": ["--input", "data.json"],
    "train": ["--dataset", "data.json", "--qubits", "1"],
    "surrogate exact": ["--qubits", "1"],
    "surrogate rff": ["--qubits", "1", "--dataset", "data.json"],
    "eval": ["--model", "model.json", "--dataset", "data.json"],
    "estimate": ["--qubits", "1"],
    "bounds": ["--epsilon", "0.1", "--qubits", "1"],
}


@pytest.mark.parametrize("command,flag,value", _UNREAD_FLAGS)
def test_unread_flag_is_a_usage_error(tmp_path, capsys, command, flag, value):
    argv = [*command.split(), *_VALID_ARGV[command], "--out-dir", tmp_path]
    assert run_cli(*argv, flag, value) == 1
    err = last_stderr_json(capsys)
    assert err["exit_code"] == 1
    assert flag in err["message"]
    assert not (tmp_path / f"{command.split()[0]}_manifest.json").exists()


def test_flags_go_after_the_surrogate_mode(tmp_path):
    assert run_cli("surrogate", "--qubits", 1, "exact", "--out-dir", tmp_path) == 1
    assert run_cli("surrogate", "exact", "--qubits", 1, "--out-dir", tmp_path) == 0


def test_missing_input_exits_2(tmp_path, capsys):
    rc = run_cli("train", "--dataset", tmp_path / "nope.json", "--qubits", 1,
                 "--out-dir", tmp_path)
    assert rc == 2
    err = last_stderr_json(capsys)
    assert err["exit_code"] == 2


def test_unwritable_output_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the surrogate was computed before the output was checked")

    monkeypatch.setattr(cli, "surrogate_exact", unreachable)
    rc = run_cli("surrogate", "exact", "--qubits", 1, "--output", "missing/model.json",
                 "--out-dir", tmp_path)
    assert rc == 2
    err = last_stderr_json(capsys)
    assert (err["error"], err["exit_code"]) == ("FileNotFoundError", 2)
    assert str(tmp_path / "missing" / "model.json") in err["message"]
    assert not (tmp_path / "missing").exists()


_MODEL_D3 = (
    '{"d": 3, "omega_max": [1, 1, 1], "intercept": 0.0, "mode": "rff", '
    '"residual": 0.0, "terms": [%s]}'
)


@pytest.mark.parametrize(
    "argv,content",
    [
        (["train", "--dataset", "{bad}", "--qubits", 1], "[1, 2]"),
        (["eval", "--model", "{bad}", "--dataset", "{bad}"], '{"mode": "exact"}'),
        (["surrogate", "exact", "--circuit", "{bad}"], '{"config": {}}'),
        (["train", "--dataset", "{bad}", "--qubits", 1], "{not json"),
        # a frequency with fewer entries than the model's d
        (["eval", "--model", "{bad}", "--dataset", "{data}"],
         _MODEL_D3 % '{"freq": [1, 0], "a": 0.5, "b": 0.0}'),
        # ragged frequency lists
        (["eval", "--model", "{bad}", "--dataset", "{data}"],
         _MODEL_D3 % '{"freq": [1, 0, 0], "a": 0.5, "b": 0.0}, '
                     '{"freq": [1, 0], "a": 0.5, "b": 0.0}'),
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    data = tmp_path / "data.json"  # a well-formed 3-feature dataset
    data.write_text('{"X": [[0.1, 0.2, 0.3]], "y": [0.0]}')
    argv = [str(a).replace("{bad}", str(bad)).replace("{data}", str(data)) for a in argv]
    assert run_cli(*argv, "--out-dir", tmp_path) == 2
    err = last_stderr_json(capsys)
    assert err["error"] == "InputFormatError"
    assert err["exit_code"] == 2
    assert str(bad) in err["message"]


def test_internal_error_exits_5(tmp_path, capsys, monkeypatch):
    from fourier_surrogates import cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "surrogate_exact", broken)
    rc = run_cli("surrogate", "exact", "--qubits", 1, "--out-dir", tmp_path)
    assert rc == 5
    err = last_stderr_json(capsys)
    assert err["error"] == "KeyError"
    assert err["exit_code"] == 5


def test_cap_exceeded_exits_3(tmp_path, capsys):
    rc = run_cli("surrogate", "exact", "--qubits", 4, "--layers", 2,
                 "--cap", 100, "--out-dir", tmp_path)
    assert rc == 3
    err = last_stderr_json(capsys)
    assert err["error"] == "CapExceeded"
    assert err["exit_code"] == 3
    # what the exact route would hold (test_estimate_worked_example), not the dense design
    assert "257944" in err["message"]


def test_domain_too_small_exits_4(tmp_path, capsys):
    rc = run_cli("bounds", "--epsilon", 100.0, "--sigma-p", 0.01,
                 "--dimension", 1, "--ell", 1.0, "--kernel-sup-term", 0.5,
                 "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "DomainTooSmall"
    assert err["exit_code"] == 4


def test_bounds_of_a_spectrum_without_nonzero_frequency_exits_4(tmp_path, capsys):
    rc = run_cli("bounds", "--epsilon", 0.1, "--omega-max", 0, 0,
                 "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert "no nonzero frequency" in err["message"]


def test_bounds_kernel_of_a_spectrum_without_nonzero_frequency_exits_4(tmp_path, capsys):
    # sigma_p is given, so the kernel's sup term is the first to meet the empty spectrum
    rc = run_cli("bounds", "--epsilon", 0.1, "--omega-max", 0, 0, "--sigma-p", 1,
                 "--dimension", 2, "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert "the spectrum has no nonzero frequency" in err["message"]


def test_zero_frequency_budget_exits_4(tmp_path):
    assert run_cli("datagen", "--dimension", 1, "--size", 10,
                   "--out-dir", tmp_path) == 0
    rc = run_cli("surrogate", "rff", "--qubits", 1, "--layers", 1,
                 "--dataset", tmp_path / "dataset.json", "--frequencies", 0,
                 "--out-dir", tmp_path)
    assert rc == 4


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--qubits", 2, 2], "qubit counts must be distinct"),
        (["--qubits", 1, 2, "--thresholds", 0.5, 0.5], "thresholds must be distinct"),
        (["--qubits", 1, 2, "--thresholds", "nan"], "thresholds must be positive and finite"),
        (["--qubits", 1, 2, "--noise-sd", "nan"], "noise_sd must be positive and finite"),
    ],
)
def test_sweep_arguments_it_cannot_honour_exit_4_and_write_no_report(
    tmp_path, capsys, flags, message
):
    rc = run_cli("sweep", "--quantity", "frequencies", *flags, "--seeds", 1,
                 "--layers", 1, "--dataset-size", 20, "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert message in err["message"]
    assert not (tmp_path / "sweep.json").exists()


#: (subcommand and the flags that follow its fixed ones, parameter the message
#: names); where a flag repeats a fixed one, argparse keeps the last value
_NON_FINITE_OR_NEGATIVE = [
    (["bounds", "--kernel-sup-term", "nan"], "kernel_sup_term"),
    (["bounds", "--kernel-sup-term", "inf"], "kernel_sup_term"),
    (["bounds", "--epsilon", "nan"], "epsilon"),
    (["bounds", "--sigma-p", "nan"], "sigma_p"),
    (["bounds", "--sigma-p", "inf"], "sigma_p"),
    (["bounds", "--ell", "nan"], "ell"),
    (["bounds", "--lam", "nan"], "lam"),
    (["bounds", "--lam", 0.5, "--c1", "nan"], "c1"),
    (["datagen", "--noise-sd", "nan"], "noise_sd"),
    (["datagen", "--noise-sd", -1], "noise_sd"),
    (["train", "--tol", "nan"], "tol"),
    (["train", "--learning-rate", "nan"], "learning_rate"),
    (["train", "--learning-rate", "inf"], "learning_rate"),
    (["sweep", "--train-fraction", "nan"], "train_fraction"),
    (["preprocess", "--dbscan-eps", "nan"], "eps"),
]


@pytest.mark.parametrize(
    "argv, param", _NON_FINITE_OR_NEGATIVE,
    ids=[" ".join(map(str, argv)) for argv, _ in _NON_FINITE_OR_NEGATIVE],
)
def test_non_finite_or_negative_parameters_exit_4_and_write_nothing(
    tmp_path, capsys, argv, param
):
    assert run_cli("datagen", "--dimension", 1, "--size", 10, "--out-dir", tmp_path) == 0
    dataset = tmp_path / "dataset.json"
    command, *flags = argv
    fixed = {
        "bounds": ["--epsilon", 0.1, "--sigma-p", 2.0, "--dimension", 2,
                   "--kernel-sup-term", 0.5],
        "datagen": ["--dimension", 1, "--size", 10],
        "train": ["--dataset", dataset, "--qubits", 1, "--layers", 1, "--max-iters", 1],
        "sweep": ["--quantity", "frequencies", "--qubits", 1, "--seeds", 1, "--layers", 1,
                  "--dataset-size", 20],
        "preprocess": ["--input", dataset],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(command, *fixed, *flags, "--out-dir", out) == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{param} "), err["message"]
    assert list(out.iterdir()) == []


def test_showcase_without_seeds_exits_4_and_writes_no_report(tmp_path, capsys):
    rc = run_cli("showcase", "--qubits", 2, "--size", 20, "--frequencies", 3,
                 "--seeds", 0, "--train-iters", 0, "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert "at least one seed is required" in err["message"]
    assert not (tmp_path / "showcase.json").exists()


@pytest.mark.parametrize("p", [-0.5, 1.5])
def test_depolarizing_outside_unit_interval_exits_4(tmp_path, capsys, p):
    assert run_cli("datagen", "--dimension", 1, "--size", 10,
                   "--out-dir", tmp_path) == 0
    rc = run_cli("surrogate", "rff", "--qubits", 1, "--layers", 1,
                 "--dataset", tmp_path / "dataset.json", "--frequencies", 1,
                 "--depolarizing", p, "--out-dir", tmp_path)
    assert rc == 4
    err = last_stderr_json(capsys)
    assert err["error"] == "ValueError"
    assert "depolarizing_p" in err["message"]


# ------------------------------------------------------------- defaults

#: (argv that parses, library callable, {CLI dest: library parameter}) for
#: every CLI default that repeats a library default
_MIRRORED_DEFAULTS = [
    (["showcase"], fs.showcase, {
        "qubits": "n_qubits", "layers": "n_layers", "size": "dataset_size",
        "frequencies": "n_frequencies", "seeds": "seeds", "train_iters": "train_iters",
        "learning_rate": "learning_rate", "noise_sd": "noise_sd",
        "train_fraction": "train_fraction", "depolarizing": "depolarizing",
    }),
    (["sweep", "--quantity", "frequencies", "--qubits", 1], fs.sweep, {
        "thresholds": "thresholds", "seeds": "seeds", "layers": "n_layers",
        "dataset_size": "dataset_size", "train_fraction": "train_fraction",
        "max_frequencies": "max_frequencies", "noise_sd": "noise_sd",
        "depolarizing": "depolarizing",
    }),
    (["train", "--dataset", "d.json", "--qubits", 1], fs.TrainConfig, {
        "learning_rate": "learning_rate", "max_iters": "max_iters", "tol": "tol",
        "shots": "shots",
    }),
    (["datagen", "--dimension", 1, "--size", 1], fs.synth_generate, {
        "kind": "kind", "noise_sd": "noise_sd",
    }),
    (["estimate", "--qubits", 1], fs.estimate_memory, {"bytes_per_entry": "bytes_per_entry"}),
    (["bounds", "--epsilon", 0.1], fs.BoundParams, {
        "c1": "c1", "c2": "c2", "domain_size": "domain_size",
    }),
    (["bounds", "--epsilon", 0.1], fs.kernel_sup_term, {"trial_points": "trial_points"}),
    (["surrogate", "rff", "--dataset", "d.json"], fs.NoiseConfig, {
        "depolarizing": "depolarizing_p",
    }),
    (["surrogate", "rff", "--dataset", "d.json"], fs.surrogate_rff, {"rcond": "rcond"}),
]


def test_cli_defaults_equal_the_library_defaults_they_mirror():
    """A drift guard: both sides are read, argparse's and inspect.signature's."""
    drifted = []
    for argv, func, pairs in _MIRRORED_DEFAULTS:
        parsed = vars(cli._build_parser().parse_args([str(a) for a in argv]))
        params = inspect.signature(func).parameters
        for dest, name in pairs.items():
            ours, theirs = parsed[dest], params[name].default
            if isinstance(theirs, tuple):
                ours = tuple(ours)
            if ours != theirs or type(ours) is not type(theirs):
                drifted.append((argv[0], dest, ours, func.__name__, name, theirs))
    assert drifted == []


# ------------------------------------------------------------- logging


def test_json_logs_are_parseable(tmp_path, capsys):
    rc = run_cli("datagen", "--dimension", 1, "--size", 5, "--json-logs",
                 "--out-dir", tmp_path)
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    docs = [json.loads(ln) for ln in lines]
    assert all("message" in doc for doc in docs)
    assert any("artifact" in doc for doc in docs)


# ---------------------------------------------------------- entry point


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fourier_surrogates", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    for name in ("datagen", "preprocess", "train", "surrogate", "eval",
                 "estimate", "bounds", "sweep", "showcase"):
        assert name in proc.stdout


def _fresh_process(argv, cwd, **env):
    """``python -m fourier_surrogates argv`` in a new interpreter in ``cwd``, with
    ``env`` added; the package is imported from where this process found it."""
    package_root = str(Path(fs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fourier_surrogates", *map(str, argv)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr


def test_one_parser_serves_every_call_and_carries_nothing_between_them(tmp_path, monkeypatch):
    """Shots training, then noiseless training, in one process: each writes the
    bytes a fresh process writes."""
    assert run_cli("datagen", "--dimension", 2, "--size", 24, "--seed", 1,
                   "--out-dir", tmp_path) == 0
    runs = {"shots": ["--shots", 64], "noiseless": []}
    for name, extra in runs.items():
        for where in ("same", "fresh"):
            (tmp_path / where / name).mkdir(parents=True)
        argv = ["train", "--dataset", tmp_path / "dataset.json", "--qubits", 2,
                "--layers", 1, "--max-iters", 2, *extra]
        monkeypatch.chdir(tmp_path / "same" / name)
        assert run_cli(*argv) == 0
        _fresh_process(argv, cwd=tmp_path / "fresh" / name)
    assert cli._build_parser() is cli._build_parser()
    for name in runs:
        same, fresh = tmp_path / "same" / name, tmp_path / "fresh" / name
        assert (same / "trained.json").read_bytes() == (fresh / "trained.json").read_bytes()
        configs = [read_json(d / "train_manifest.json")["config"] for d in (same, fresh)]
        assert configs[0] == configs[1]
        assert configs[0]["shots"] == (64 if name == "shots" else None)


def test_main_runs_the_command_function_found_when_it_is_called(tmp_path, monkeypatch):
    """A ``cmd_*`` replaced after the parser was built is the one that runs."""
    assert run_cli("estimate", "--qubits", 2, "--out-dir", tmp_path) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_estimate", lambda args: seen.append(args.qubits))
    assert run_cli("estimate", "--qubits", 3, "--out-dir", tmp_path) == 0
    assert seen == [3]


#: datagen -> noiseless train -> shots train -> surrogate rff -> eval
_BLAS_CHAIN = [
    ["datagen", "--dimension", 4, "--size", 300, "--noise-sd", 0.05],
    ["train", "--dataset", "dataset.json", "--qubits", 6, "--features", 4,
     "--max-iters", 4, "--output", "noiseless.json"],
    ["train", "--dataset", "dataset.json", "--qubits", 4, "--max-iters", 2,
     "--shots", 256, "--output", "shots.json"],
    ["surrogate", "rff", "--circuit", "noiseless.json", "--dataset", "dataset.json",
     "--frequencies", 120, "--shots", 512],
    ["eval", "--model", "model.json", "--dataset", "dataset.json",
     "--circuit", "noiseless.json"],
]


@pytest.fixture(scope="module")
def blas_chain_artifacts(tmp_path_factory):
    """Every artifact of ``_BLAS_CHAIN``, run at one and at two OpenBLAS threads.

    The thread count is read when numpy is imported, so each step runs in
    a process of its own.
    """
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"blas-{threads}")
        for argv in _BLAS_CHAIN:
            _fresh_process([*argv, "--seed", 3], cwd=out, OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if "manifest" not in p.name
        }
    assert sorted(outputs["1"]) == [
        "dataset.json", "eval.json", "model.json", "noiseless.json", "shots.json"
    ]
    return outputs


@pytest.mark.parametrize("artifact", ["dataset.json", "noiseless.json", "shots.json"])
def test_chain_artifacts_do_not_depend_on_the_blas_thread_count(blas_chain_artifacts, artifact):
    assert blas_chain_artifacts["1"][artifact] == blas_chain_artifacts["2"][artifact]


@pytest.mark.xfail(
    strict=True,
    reason="np.linalg.lstsq on the 300 x 241 rff design returns different bits at one "
    "and at two OpenBLAS threads; the design itself is the same",
)
@pytest.mark.parametrize("artifact", ["model.json", "eval.json"])
def test_rff_chain_artifacts_do_not_depend_on_the_blas_thread_count(
    blas_chain_artifacts, artifact
):
    assert blas_chain_artifacts["1"][artifact] == blas_chain_artifacts["2"][artifact]
