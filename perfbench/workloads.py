"""The benchmark's three workloads, each a closed loop with one caller.

A workload object is built from an input set (``seed % N_INPUT_SETS``) and a
directory that ``write_inputs`` has filled for it (synthetic CSV, and for
predict_full the test segments and the full-size checkpoint); the benchmark
writes them in a child process, so that the memory this takes is not in the
measured process's peak RSS. ``setup`` is the timed set-up; ``op`` runs
one timed operation and returns its wall time and its output
(``items_per_op`` says how many rows or samples it handled); ``check``
compares an output with the committed reference for the input set.

Calls into the program go through module attributes (``model.model_init``,
not a bound name), so the tracer's rebinding reaches them.

Run as a script, it writes the inputs of one workload:

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <input set> <dir>
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from eened import config, data, model, tensor, train
from eened.rng import SeedStream

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Each input set has a committed reference; seed n uses set n % N_INPUT_SETS.
N_INPUT_SETS = 16

T_IN = 178
DESK_MODEL = dict(d_model=64, n_heads=4, head_dim=16, n_blocks=2, d_pwff=256,
                  conv_kernel=15, conv_pad=7, dropout_p=0.1, t_in=T_IN,
                  classifier_hidden=128)
TRAIN_BATCH = 32
EVAL_BATCH = 256
# The train loop restarts from the seeded initial state every this many
# steps, so every step has a committed reference loss.
TRAIN_REF_STEPS = 16
# predict_full cycles over this many test segments.
PREDICT_SEGMENTS = 64

# Reference tolerances. Float32 against float64 runs of the same seeds differ
# by < 3e-7 relative in the 16-step loss and < 1e-7 absolute in
# probabilities; the bounds leave room for reordered float32 arithmetic
# (about 80 ulps of float32 at the checked magnitudes) and no more.
LOSS_RTOL = 1e-5
PROB_ATOL = 1e-5

CSV_NAME = "synthetic.csv"
SEGMENTS_NAME = "segments.npy"
CHECKPOINT_NAME = "full.ckpt"


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def load_reference(k: int) -> dict:
    with open(REFERENCE_DIR / f"set{k:02d}.json") as fh:
        return json.load(fh)


def _prepared_dataset(csv_path, k: int) -> data.Dataset:
    return data.normalize(data.split(data.load_dataset(csv_path, T_IN), seed=k))


def write_inputs(name: str, k: int, workdir: Path) -> None:
    """Write the inputs of workload ``name`` for input set ``k``: the
    synthetic CSV and, for predict_full, its first PREDICT_SEGMENTS
    normalized test segments and a checkpoint of the seeded full-size
    model."""
    workdir = Path(workdir)
    csv = workdir / CSV_NAME
    data.write_synthetic_public_csv(csv, seed=k)
    if name == PredictFull.name:
        ds = _prepared_dataset(csv, k)
        np.save(workdir / SEGMENTS_NAME,
                ds.x[ds.indices_of(data.TEST)[:PREDICT_SEGMENTS]])
        model.save_checkpoint(model.model_init(config.ModelConfig(seed=k)),
                              workdir / CHECKPOINT_NAME)


class TrainDesk:
    """Consecutive desk-scale training steps: zero_grad, taped forward,
    bce_loss, backward, adam_step at B=32 shuffled train rows."""

    name = "train_desk"
    items_per_op = TRAIN_BATCH
    top_span = "step"
    layer_spans = ("data.batch_wait", "model.forward", "train.bce_loss",
                   "tensor.backward", "train.adam_step")
    warmup_ops = 1

    def __init__(self, k: int, workdir: Path, reference: dict | None):
        self.k = k
        self.csv = workdir / CSV_NAME
        self.ref_loss = reference["train_loss"] if reference else None
        self.tcfg = config.TrainConfig(seed=k, batch_size=TRAIN_BATCH)

    def setup(self):
        self.dataset = _prepared_dataset(self.csv, self.k)
        self.model = model.model_init(config.ModelConfig(seed=self.k, **DESK_MODEL))
        self.adam = train.init_adam(self.model.params)
        self.initial = self.model.params.clone_data()
        self._start_trajectory()

    def _start_trajectory(self):
        self.step_index = 0
        self.rng = SeedStream(self.k).child("dropout").generator()
        self.batches = data.batches(self.dataset, data.TRAIN, TRAIN_BATCH,
                                    shuffle_seed=self.k)

    def op(self, tracer):
        if self.step_index == TRAIN_REF_STEPS:
            self.model.params.load_data(self.initial)
            self.adam = train.init_adam(self.model.params)
            self._start_trajectory()
        m = self.model
        t0 = time.perf_counter()
        with tracer.span(self.top_span):
            batch = next(self.batches)
            m.params.zero_grad()
            with tensor.Tape() as tape:
                tracer.watch(tape)
                p = model.model_forward_batch(m, tensor.Tensor(batch.x),
                                              training=True, rng=self.rng)
                loss = train.bce_loss(p, batch.y)
                tracer.time_backward(tape)
                tensor.backward(loss)
            train.adam_step(m.params, self.adam, self.tcfg)
        elapsed = time.perf_counter() - t0
        self.step_index += 1
        return elapsed, (self.step_index - 1, loss.item())

    def check(self, out) -> bool:
        i, loss = out
        ref = self.ref_loss[i]
        return math.isfinite(loss) and abs(loss - ref) <= LOSS_RTOL * abs(ref)

    def taped_forward(self):
        """One taped forward (with its loss) on the next train batch, using
        its own dropout stream so the checked trajectory is not disturbed;
        returns what keeps the tape alive."""
        batch = next(data.batches(self.dataset, data.TRAIN, TRAIN_BATCH,
                                  shuffle_seed=self.k))
        rng = SeedStream(self.k).child("tape-probe").generator()
        with tensor.Tape() as tape:
            p = model.model_forward_batch(self.model, tensor.Tensor(batch.x),
                                          training=True, rng=rng)
            loss = train.bce_loss(p, batch.y)
        return tape, loss


class EvalDesk:
    """Repeated ``evaluate()`` over the 1,840-row test split at batch 256,
    untaped, with the seeded desk model."""

    name = "eval_desk"
    items_per_op = data.TEST_COUNT
    top_span = "evaluate"
    layer_spans = ("data.batch_wait", "model.forward")
    warmup_ops = 0

    def __init__(self, k: int, workdir: Path, reference: dict | None):
        self.k = k
        self.csv = workdir / CSV_NAME
        self.ref_prob = np.asarray(reference["eval_prob"]) if reference else None

    def setup(self):
        self.dataset = _prepared_dataset(self.csv, self.k)
        self.model = model.model_init(config.ModelConfig(seed=self.k, **DESK_MODEL))
        self.truth = self.dataset.y[self.dataset.indices_of(data.TEST)].astype(bool)

    def op(self, tracer):
        # evaluate() reports only confusion counts; its row probabilities are
        # read by a pass-through around the forward it resolves in eened.train
        probs = []
        inner = train.model_forward_batch

        def capture(*args, **kwargs):
            p = inner(*args, **kwargs)
            probs.append(p.data)
            return p

        train.model_forward_batch = capture
        try:
            t0 = time.perf_counter()
            with tracer.span(self.top_span):
                metrics = train.evaluate(self.model, self.dataset, data.TEST,
                                         threshold=0.5, batch_size=EVAL_BATCH)
            elapsed = time.perf_counter() - t0
        finally:
            train.model_forward_batch = inner
        rows = np.concatenate(probs) if probs else np.empty(0)
        return elapsed, (metrics, rows)

    def check(self, out) -> bool:
        metrics, p = out
        if metrics.total != data.TEST_COUNT or p.shape != (data.TEST_COUNT,):
            return False
        if not (np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0))):
            return False
        pred = p >= 0.5
        recount = (int(np.sum(pred & self.truth)), int(np.sum(pred & ~self.truth)),
                   int(np.sum(~pred & ~self.truth)), int(np.sum(~pred & self.truth)))
        if recount != (metrics.tp, metrics.fp, metrics.tn, metrics.fn):
            return False
        return bool(np.all(np.abs(p - self.ref_prob) <= PROB_ATOL))


class PredictFull:
    """Scoring one test segment per request with the paper's default
    19,790,593-parameter model, loaded from a checkpoint."""

    name = "predict_full"
    items_per_op = 1
    top_span = "request"
    layer_spans = ("model.forward",)
    warmup_ops = 2

    def __init__(self, k: int, workdir: Path, reference: dict | None):
        self.k = k
        self.segments = np.load(workdir / SEGMENTS_NAME)
        self.checkpoint = workdir / CHECKPOINT_NAME
        self.ref_prob = reference["predict_prob"] if reference else None
        self.model = None
        self.request = 0

    def setup(self):
        self.model = None  # free the previous copy before loading the next
        self.model = model.load_checkpoint(self.checkpoint)

    def op(self, tracer):
        i = self.request % PREDICT_SEGMENTS
        self.request += 1
        t0 = time.perf_counter()
        with tracer.span(self.top_span):
            p = model.model_forward_batch(
                self.model, tensor.Tensor(self.segments[i:i + 1])).data
        elapsed = time.perf_counter() - t0
        return elapsed, (i, p)

    def check(self, out) -> bool:
        i, p = out
        if p.shape != (1,):
            return False
        v = float(p[0])
        return (math.isfinite(v) and 0.0 <= v <= 1.0
                and abs(v - self.ref_prob[i]) <= PROB_ATOL)


WORKLOADS = {w.name: w for w in (TrainDesk, EvalDesk, PredictFull)}


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
