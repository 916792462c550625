"""Record the loss trajectories that check the showcase-train workload.

Runs the workload's op chain (one parameter-shift iteration per op, each
continuing from the previous op's parameters) for every input variant
and writes the losses to ``showcase_oracle.json``. Run it only on a
commit whose trainer is the reference parameter-shift trainer:

    python3 perfbench/record_oracle.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fourier_surrogates as fs  # noqa: E402

from workloads import ORACLE_PATH, SHOWCASE_VARIANTS, ShowcaseTrain  # noqa: E402

#: ops recorded per variant
OPS = 3


def trajectory(variant: int) -> list[float]:
    config, data, params = ShowcaseTrain.inputs(variant)
    tc = fs.TrainConfig(learning_rate=0.3, max_iters=1)
    losses: list[float] = []
    for _ in range(OPS):
        params, history = fs.train(config, data, tc, init=params)
        losses = losses[:-1] + history
        print(f"variant {variant}: {losses}", file=sys.stderr, flush=True)
    return losses


def main() -> None:
    doc = {
        "recorded_with": {"fourier_surrogates": fs.__version__, "trainer": "parameter-shift"},
        "variants": {str(v): trajectory(v) for v in range(SHOWCASE_VARIANTS)},
    }
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
