"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the named workload from the seed, then runs its ops in a closed
loop. ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs a fixed number of ops untraced and then traced, and
reports the per-layer metrics plus the tracing overhead. The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the full record (machine, op
times, all metrics), which is also written under ``perfbench/results/``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: cold set-ups per end-to-end run: this process plus fresh child processes
SETUP_SAMPLES = 5


def _load_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fourier_surrogates
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fourier_surrogates from {SRC}: {exc}")
    origin = Path(fourier_surrogates.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: fourier_surrogates imported from {origin}, not {SRC}")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_quota() -> float | None:
    """CPUs allowed by the cgroup CPU quota, or None when unlimited."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2:
        quota, period = v2.split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period and int(quota) > 0:
        return int(quota) / int(period)
    return None


def machine_record() -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_quota": _cpu_quota(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _child_setup_s(workload: str, seed: int) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_ops(workload, indices, record: dict) -> tuple[list, list]:
    """Run the ops in ``indices`` one after another, each timed alone.

    Returns the op seconds and (index, returned, result) per op; an op
    that raises counts as failed and the loop goes on.
    """
    times, results = [], []
    for index in indices:
        t = time.perf_counter()
        try:
            result, ok = workload.op(index), True
        except Exception:
            result, ok = None, False
            record["errors"].append(traceback.format_exc(limit=4))
        times.append(time.perf_counter() - t)
        results.append((index, ok, result))
    return times, results


def check_all(workload, results, record: dict) -> list[bool]:
    """Whether each op returned and passed its check."""
    passed = []
    for index, ok, result in results:
        if ok:
            try:
                workload.check(index, result)
            except Exception:
                ok = False
                record["errors"].append(traceback.format_exc(limit=4))
        passed.append(ok)
    return passed


def measure(workload, seconds: float, record: dict) -> tuple[dict, int, int]:
    """End-to-end metrics of one untraced, time-bounded closed loop."""
    times, passed_times = [], []
    failed = 0
    # ops run while the loop's elapsed time plus the median op time so far
    # stays within ``seconds``; checks run between ops, outside the timers
    loop_start = time.perf_counter()
    k = 0
    while True:
        op_times, op_results = run_ops(workload, [k], record)
        (ok,) = check_all(workload, op_results, record)
        times += op_times
        if ok:
            passed_times += op_times
        failed += not ok
        k += 1
        if time.perf_counter() - loop_start + statistics.median(times) > seconds:
            break
    record["op_s"] = times
    # the median is over ops that passed, so fast failures cannot pass for
    # a speed-up; when none passed the run is not correct anyway
    metrics = {
        "ops_per_s": (len(passed_times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(passed_times or times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (len(passed_times) / len(times), "ratio"),
    }
    return metrics, len(times), failed


def measure_traced(workload, record: dict) -> tuple[dict, int, int]:
    """Per-layer metrics of a fixed op list, run untraced and then traced."""
    from tracer import Tracer, layer_metrics

    indices = list(range(workload.trace_ops))
    plain_times, plain_results = run_ops(workload, indices, record)
    passed = check_all(workload, plain_results, record)
    with Tracer() as tracer:
        traced_times, traced_results = run_ops(workload, indices, record)
    passed += check_all(workload, traced_results, record)
    record["op_s"] = {"untraced": plain_times, "traced": traced_times}
    metrics = layer_metrics(tracer)
    metrics["trace.ops_per_s_ratio"] = (sum(plain_times) / sum(traced_times), "ratio")
    return metrics, len(passed), passed.count(False)


def main(argv=None) -> int:
    _load_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="fourier-surrogates benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_record(), "errors": [],
        }
        if args.trace:
            metrics, attempted, failed = measure_traced(workload, record)
        else:
            setups = [setup_s] + [
                _child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
            ]
            record["setup_samples_s"] = setups
            metrics, attempted, failed = measure(workload, args.seconds, record)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        workload.close()

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
