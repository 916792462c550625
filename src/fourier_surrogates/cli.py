"""Command-line surface wrapping the library 1:1.

Every subcommand writes its JSON artifact(s) plus a run manifest into
--out-dir, all through ``_write_json``, and logs one line per file.
Noiseless runs are bit-reproducible: identical command and seed give
byte-identical artifacts (manifests carry wall-clock time and are exempt).

Each subcommand accepts only the flags it reads; --seed, --out-dir and
--json-logs are on every one because every manifest records them.
--shots is read by train, surrogate rff, sweep and showcase;
--depolarizing by surrogate rff, sweep and showcase. surrogate takes its
mode first (exact or rff), then the flags of that mode.

Errors print a machine-readable JSON object to stderr and exit with
1 (usage, including any flag the subcommand does not take),
2 (input/output, including a malformed input file), 3 (numerical or cap),
4 (violated precondition), or 5 (any other error, after its traceback).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
import traceback
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    Dataset,
    dbscan,
    load_csv,
    load_dataset,
    normalize,
    pca,
    rescale_targets,
    synth_generate,
    train_test_split,
)
from .errors import CapExceeded, DomainTooSmall, InputFormatError, InsufficientSpectrum
from .experiments import showcase, sweep, sweep_to_csv
from .pipeline import (
    DEFAULT_CAP,
    BoundParams,
    TrainConfig,
    bound_alpha_epsilon,
    bound_beta_d,
    bound_lrr_features,
    bound_min_features,
    estimate_memory,
    kernel_sup_term,
    sigma_p_of,
    surrogate_exact,
    surrogate_rff,
    train,
)
from .simulator import CircuitConfig, NoiseConfig, ParameterSet, expectation_batch
from .spectrum import SpectrumDescriptor, omega_max_of
from .surrogate import DEFAULT_RCOND, load_model, mse

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_json(path: Path, doc) -> None:
    # streamed: a large model's text built whole before writing holds hundreds of MB
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError:  # NaN or infinity: the document is refused and leaves no file
        path.unlink()
        raise


class _Run:
    """Collects emitted artifacts and writes the manifest at the end."""

    def __init__(self, args, command: str):
        self.args = args
        self.command = command
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if getattr(args, "output", None) is not None:
            # raise the error that writing the artifact would, before any work is done
            path = self.out_dir / args.output
            if not path.parent.is_dir():
                code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
                raise OSError(code, os.strerror(code), str(path))
        self.artifacts: list[str] = []
        self.t0 = time.monotonic()

    def log(self, message: str, **fields) -> None:
        if self.args.json_logs:
            print(json.dumps({"message": message, **fields}, sort_keys=True))
        else:
            print(message)

    def emit_json(self, name: str, doc) -> Path:
        path = self.out_dir / name
        _write_json(path, doc)
        self.artifacts.append(name)
        self.log(f"wrote {path}", artifact=str(path))
        return path

    def emit_file(self, name: str) -> Path:
        """Register a file the caller has already written under out_dir."""
        path = self.out_dir / name
        self.artifacts.append(name)
        self.log(f"wrote {path}", artifact=str(path))
        return path

    def finish(self) -> None:
        config = {}
        for key, value in vars(self.args).items():
            config[key] = str(value) if isinstance(value, Path) else value
        name = f"{self.command}_manifest.json"
        doc = {
            "command": self.command,
            "config": config,
            "seeds": [self.args.seed],
            "wall_clock_seconds": time.monotonic() - self.t0,
            "artifacts": list(self.artifacts),
            "manifest": name,
            "version": __version__,
        }
        _write_json(self.out_dir / name, doc)
        self.log(f"wrote {self.out_dir / name}", artifact=str(self.out_dir / name))


def _parse_file(parse, path: Path):
    """``parse(path)``, with malformed content reported as an InputFormatError
    naming the file (json.JSONDecodeError is a ValueError)."""
    try:
        return parse(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _read_circuit(path: Path) -> tuple[CircuitConfig, ParameterSet]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return (
        CircuitConfig.from_json_dict(doc["config"]),
        ParameterSet.from_json_dict(doc["params"]),
    )


def _load_input_dataset(args) -> Dataset:
    path = Path(args.input)
    if path.suffix.lower() == ".csv":
        if not args.target_column:
            raise _UsageError("--target-column is required for CSV input")
        return load_csv(path, args.target_column)
    return _parse_file(load_dataset, path)


def _config(args) -> CircuitConfig:
    """The circuit shape given by --qubits/--layers/--features."""
    return CircuitConfig(n_qubits=args.qubits, n_layers=args.layers, d_features=args.features)


def _load_circuit(args) -> tuple[CircuitConfig, ParameterSet]:
    if args.circuit:
        return _parse_file(_read_circuit, Path(args.circuit))
    if args.qubits is None:
        raise _UsageError("either --circuit or --qubits/--layers is required")
    config = _config(args)
    if args.theta == "zero":
        params = ParameterSet.zeros(config)
    else:
        params = ParameterSet.random(config, seed=args.param_seed)
    return config, params


def _add_shape_flags(p: argparse.ArgumentParser, required: bool, help: str | None = None) -> None:
    p.add_argument("--qubits", type=int, required=required, help=help)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--features", type=int, default=None)


def _add_circuit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", help="JSON file with config + params (from train)")
    _add_shape_flags(p, required=False, help="build a fixture circuit instead")
    p.add_argument("--theta", choices=["zero", "random"], default="random")
    p.add_argument("--param-seed", type=int, default=0)


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--depolarizing", type=float, default=0.0)


def cmd_datagen(args) -> None:
    run = _Run(args, "datagen")
    ds = synth_generate(
        d=args.dimension, size=args.size, kind=args.kind,
        seed=args.seed, noise_sd=args.noise_sd,
    )
    run.emit_json(args.output, ds.to_json_dict())
    run.finish()


def cmd_preprocess(args) -> None:
    run = _Run(args, "preprocess")
    ds = _load_input_dataset(args)
    if args.normalize:
        ds = normalize(ds)
    if args.pca_k is not None:
        ds = pca(ds, args.pca_k)
    if args.dbscan_eps is not None:
        labels, ds = dbscan(ds, args.dbscan_eps, args.dbscan_min_pts)
        run.log(
            f"dbscan removed {int(np.sum(labels < 0))} noise rows",
            noise_rows=int(np.sum(labels < 0)),
        )
    if args.rescale_targets:
        ds = rescale_targets(ds)
    if args.split is not None:
        train_ds, test_ds = train_test_split(ds, args.split, seed=args.seed)
        run.emit_json("train.json", train_ds.to_json_dict())
        run.emit_json("test.json", test_ds.to_json_dict())
    run.emit_json(args.output, ds.to_json_dict())
    run.finish()


def cmd_train(args) -> None:
    run = _Run(args, "train")
    ds = _parse_file(load_dataset, Path(args.dataset))
    config = _config(args)
    tc = TrainConfig(
        learning_rate=args.learning_rate,
        max_iters=args.max_iters,
        seed=args.seed,
        shots=args.shots,
        tol=args.tol,
    )
    params, history = train(config, ds, tc)
    run.log(
        f"loss {history[0]:.6f} -> {history[-1]:.6f} over {len(history) - 1} iterations",
        loss_initial=history[0], loss_final=history[-1],
    )
    run.emit_json(
        args.output,
        {
            "config": config.to_json_dict(),
            "params": params.to_json_dict(),
            "loss_history": history,
        },
    )
    run.finish()


def cmd_surrogate(args) -> None:
    run = _Run(args, "surrogate")
    config, params = _load_circuit(args)
    if args.mode == "exact":
        model = surrogate_exact(config, params, cap=args.cap)
    else:
        ds = _parse_file(load_dataset, Path(args.dataset))
        noise = NoiseConfig(shots=args.shots, depolarizing_p=args.depolarizing, seed=args.seed)
        model = surrogate_rff(
            config, params, ds.X, D=args.frequencies,
            seed=args.seed, noise=noise, rcond=args.rcond,
        )
    run.emit_json(args.output, model.to_json_dict())
    run.log(
        f"{model.mode} surrogate with {len(model.frequencies)} terms, "
        f"residual {model.residual:.3e}",
        terms=len(model.frequencies), residual=model.residual,
    )
    run.finish()


def cmd_eval(args) -> None:
    run = _Run(args, "eval")
    model = _parse_file(load_model, Path(args.model))
    ds = _parse_file(load_dataset, Path(args.dataset))
    surrogate_mse = mse(model, ds.X, ds.y)
    doc = {"surrogate_mse": surrogate_mse, "n_rows": ds.n_rows}
    if args.circuit:
        config, params = _parse_file(_read_circuit, Path(args.circuit))
        preds = expectation_batch(config, params, ds.X)
        quantum_mse = float(np.mean((preds - ds.y) ** 2))
        doc["quantum_mse"] = quantum_mse
        doc["relative_deviation"] = (
            (surrogate_mse - quantum_mse) / quantum_mse if quantum_mse > 0 else None
        )
    run.emit_json(args.output, doc)
    run.finish()


def cmd_estimate(args) -> None:
    run = _Run(args, "estimate")
    est = estimate_memory(_config(args), bytes_per_entry=args.bytes_per_entry)
    run.log(
        f"lattice {est.lattice_size}, dense design {est.design_matrix_bytes} bytes, "
        f"tier {est.feasible_on}; exact route {est.exact_route_bytes} bytes",
        tier=est.feasible_on,
    )
    run.emit_json(args.output, est.to_json_dict())
    run.finish()


def cmd_bounds(args) -> None:
    run = _Run(args, "bounds")
    if args.omega_max:
        desc = SpectrumDescriptor(omega_max=tuple(args.omega_max))
    elif args.qubits is not None:
        desc = omega_max_of(_config(args))
    else:
        desc = None
    if args.sigma_p is not None:
        sigma_p = args.sigma_p
        d = args.dimension
        if d is None:
            raise _UsageError("--dimension is required with --sigma-p")
    elif desc is not None:
        sigma_p = sigma_p_of(desc)
        d = desc.d
    else:
        raise _UsageError("provide --sigma-p with --dimension, --omega-max, or --qubits")
    params = BoundParams(
        d=d,
        epsilon=args.epsilon,
        delta=args.delta,
        sigma_p=sigma_p,
        ell=args.ell,
        lam=args.lam,
        c1=args.c1,
        c2=args.c2,
        n_layers=args.layers,
        domain_size=args.domain_size,
    )
    if args.kernel_sup_term is not None:
        sup_term = args.kernel_sup_term
    elif desc is not None:
        sup_term = kernel_sup_term(desc, trial_points=args.trial_points, seed=args.seed)
    else:
        raise _UsageError("provide --kernel-sup-term when no spectrum is given")
    alpha = bound_alpha_epsilon(args.epsilon, sup_term)
    doc = {
        "d": d,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "sigma_p": sigma_p,
        "ell": params.ell,
        "sigma_p_ell": sigma_p * params.ell,
        "kernel_sup_term": sup_term,
        "beta_d": bound_beta_d(d),
        "alpha_epsilon": alpha,
        "min_features": bound_min_features(params, alpha),
    }
    if args.lam is not None:
        doc["lrr_features"] = bound_lrr_features(params)
    run.emit_json(args.output, doc)
    run.finish()


def cmd_sweep(args) -> None:
    run = _Run(args, "sweep")
    report = sweep(
        quantity=args.quantity,
        qubit_range=args.qubits,
        thresholds=args.thresholds,
        seeds=args.seeds,
        n_layers=args.layers,
        dataset_size=args.dataset_size,
        train_fraction=args.train_fraction,
        max_frequencies=args.max_frequencies,
        shots=args.shots,
        depolarizing=args.depolarizing,
        noise_sd=args.noise_sd,
        base_seed=args.seed,
    )
    run.emit_json("sweep.json", report.to_json_dict())
    sweep_to_csv(report, run.out_dir / "sweep.csv")
    run.emit_file("sweep.csv")
    run.finish()


def cmd_showcase(args) -> None:
    run = _Run(args, "showcase")
    report = showcase(
        n_qubits=args.qubits,
        n_layers=args.layers,
        dataset_size=args.size,
        n_frequencies=args.frequencies,
        seeds=args.seeds,
        train_iters=args.train_iters,
        learning_rate=args.learning_rate,
        noise_sd=args.noise_sd,
        train_fraction=args.train_fraction,
        shots=args.shots,
        depolarizing=args.depolarizing,
        base_seed=args.seed,
    )
    run.log(
        f"quantum test MSE {report['quantum_test_mse']:.6f}, surrogate "
        f"{report['surrogate_test_mse']:.6f} using "
        f"{report['frequency_fraction']:.3e} of the lattice",
        quantum_test_mse=report["quantum_test_mse"],
        surrogate_test_mse=report["surrogate_test_mse"],
    )
    run.emit_json("showcase.json", report)
    run.finish()


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    as it was, and every default is immutable, so no call hands the next
    one a value it could have changed. ``main`` runs ``cmd_<subcommand>``."""
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    common.add_argument("--json-logs", action="store_true")

    parser = _Parser(prog="fourier-surrogates", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("datagen", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--kind", choices=["trig-poly", "circuit"], default="trig-poly")
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--output", default="dataset.json")

    p = sub.add_parser("preprocess", parents=[common], help="clean and transform a dataset")
    p.add_argument("--input", required=True, help="dataset JSON or CSV file")
    p.add_argument("--target-column", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--pca-k", type=int, default=None)
    p.add_argument("--dbscan-eps", type=float, default=None)
    p.add_argument("--dbscan-min-pts", type=int, default=4)
    p.add_argument("--rescale-targets", action="store_true")
    p.add_argument("--split", type=float, default=None, help="train fraction")
    p.add_argument("--output", default="processed.json")

    p = sub.add_parser("train", parents=[common], help="fit circuit parameters to data")
    p.add_argument("--dataset", required=True)
    _add_shape_flags(p, required=True)
    p.add_argument("--learning-rate", type=float, default=0.2)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--output", default="trained.json")

    p = sub.add_parser("surrogate", help="build a classical surrogate")
    modes = p.add_subparsers(dest="mode", required=True, parser_class=_Parser)
    m = modes.add_parser("exact", parents=[common], help="coefficient walk, grid values and one FFT")
    _add_circuit_flags(m)
    m.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest lattice (grid values computed) accepted")
    m.add_argument("--output", default="model.json")
    m = modes.add_parser("rff", parents=[common], help="sampled frequencies at given points")
    _add_circuit_flags(m)
    m.add_argument("--dataset", required=True, help="input points to evaluate and fit")
    m.add_argument("--frequencies", type=int, default=100)
    m.add_argument("--rcond", type=float, default=DEFAULT_RCOND,
                   help="relative singular-value cutoff of the least-squares fit")
    _add_noise_flags(m)
    m.add_argument("--output", default="model.json")

    p = sub.add_parser("eval", parents=[common], help="score a surrogate on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--circuit", help="JSON file with config + params (from train)")
    p.add_argument("--output", default="eval.json")

    p = sub.add_parser("estimate", parents=[common], help="exact-route memory footprint")
    _add_shape_flags(p, required=True)
    p.add_argument("--bytes-per-entry", type=int, default=16)
    p.add_argument("--output", default="estimate.json")

    p = sub.add_parser("bounds", parents=[common], help="feature-count bound calculators")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--sigma-p", type=float, default=None)
    p.add_argument("--omega-max", type=int, nargs="+", default=None)
    _add_shape_flags(p, required=False)
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--kernel-sup-term", type=float, default=None)
    p.add_argument("--trial-points", type=int, default=200)
    p.add_argument("--lam", type=float, default=None, help="ridge strength for the depth-aware bound")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--domain-size", type=int, default=1)
    p.add_argument("--output", default="bounds.json")

    p = sub.add_parser("sweep", parents=[common], help="minimal-resource scaling sweep")
    p.add_argument("--quantity", choices=["frequencies", "datapoints"], required=True)
    p.add_argument("--qubits", type=int, nargs="+", required=True)
    p.add_argument("--thresholds", type=float, nargs="+", default=(0.1,))
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dataset-size", type=int, default=500)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--max-frequencies", type=int, default=10_000)
    p.add_argument("--noise-sd", type=float, default=0.02)
    _add_noise_flags(p)

    p = sub.add_parser("showcase", parents=[common], help="train + surrogate headline run")
    p.add_argument("--qubits", type=int, default=8)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--size", type=int, default=500)
    p.add_argument("--frequencies", type=int, default=170)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--train-iters", type=int, default=40)
    p.add_argument("--learning-rate", type=float, default=0.3)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.add_argument("--train-fraction", type=float, default=0.7)
    _add_noise_flags(p)

    return parser


def _fail(code: int, exc: Exception) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # looked up per call, not bound into the once-built parser
        globals()[f"cmd_{args.subcommand}"](args)
        return 0
    except _UsageError as exc:
        return _fail(1, exc)
    except InputFormatError as exc:
        return _fail(2, exc)
    except OSError as exc:
        return _fail(2, exc)
    except CapExceeded as exc:
        return _fail(3, exc)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        return _fail(3, exc)
    except (DomainTooSmall, InsufficientSpectrum, ValueError) as exc:
        return _fail(4, exc)
    except Exception as exc:
        traceback.print_exc()
        return _fail(5, exc)


if __name__ == "__main__":
    sys.exit(main())
