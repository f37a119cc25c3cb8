#!/usr/bin/env python3
"""Write the committed reference outputs the benchmark checks against.

For each input set k it records, from the program as it is when this runs:

* ``train_loss``: the losses of the first TRAIN_REF_STEPS desk training
  steps from the seeded initial state;
* ``eval_prob``: the row probabilities of one ``evaluate()`` over the test
  split with the seeded desk model;
* ``predict_prob``: the probabilities of the first PREDICT_SEGMENTS test
  segments under the seeded full-size model.

Values are stored as the shortest decimal that reads back to the same
float32. Regenerate only when a change is meant to alter these outputs, and
say so in the change.

Usage (from the repository root):

    python3 perfbench/make_reference.py

It always rewrites the references of all N_INPUT_SETS input sets, so that
they come from one version of the program.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import NullTracer  # noqa: E402
from workloads import (N_INPUT_SETS, PREDICT_SEGMENTS, REFERENCE_DIR,  # noqa: E402
                       TRAIN_REF_STEPS, EvalDesk, PredictFull, TrainDesk,
                       write_inputs)


def _f32(values) -> list[float]:
    return [float(str(np.float32(v))) for v in values]


def reference(k: int, workdir: Path) -> dict:
    tracer = NullTracer()
    write_inputs(PredictFull.name, k, workdir)  # predict_full's inputs include the CSV
    w = TrainDesk(k, workdir, None)
    w.setup()
    losses = [w.op(tracer)[1][1] for _ in range(TRAIN_REF_STEPS)]
    w = EvalDesk(k, workdir, None)
    w.setup()
    _, (_, probs) = w.op(tracer)
    w = PredictFull(k, workdir, None)
    w.setup()
    scores = [float(w.op(tracer)[1][1][0]) for _ in range(PREDICT_SEGMENTS)]
    return {"input_set": k, "train_loss": _f32(losses),
            "eval_prob": _f32(probs), "predict_prob": _f32(scores)}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = HERE / "out" / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for k in range(N_INPUT_SETS):
            ref = reference(k, workdir)
            with open(REFERENCE_DIR / f"set{k:02d}.json", "w") as fh:
                json.dump(ref, fh)
                fh.write("\n")
            print(f"input set {k}: first loss {ref['train_loss'][0]:.6f}, "
                  f"mean eval p {np.mean(ref['eval_prob']):.6f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
