"""Checks of the benchmark itself: trace coverage, op-count reconciliation,
reference gates and the refusal to run without the program.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from eened import tensor, train  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (LOSS_RTOL, PROB_ATOL, PredictFull, TrainDesk,  # noqa: E402
                       load_reference)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_covers_operations_and_reconciles_op_tally(tmp_path, name):
    tally, metrics, detail = run.layer_metrics(name, 0, 3.0, tmp_path)
    assert tally.failed == 0
    assert detail["coverage_ok"], detail
    assert metrics["trace.coverage"][0] >= run.COVERAGE_GATE
    if name == "train_desk":
        assert detail["reconcile"]["ok"], detail["reconcile"]["mismatches"]
        assert detail["reconcile"]["steps"] >= 1
        assert metrics["tensor.nodes_per_step"][0] == 258
    else:
        assert "reconcile" not in detail  # no tape is recorded
    assert math.isfinite(metrics["trace.overhead_ms"][0])
    declared = {m["name"] for m in run.declared_metrics(trace=1)}
    assert declared <= set(metrics)


def test_nested_op_calls_are_keyed_by_tape_op_name():
    tracer = Tracer()
    rng = np.random.default_rng(0)
    x = tensor.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w = tensor.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = tensor.Tensor(rng.normal(size=(3,)), requires_grad=True)
    with tracer.installed():
        with tracer.span("step"):
            with tensor.Tape() as tape:
                tracer.watch(tape)
                h = tensor.conv1d_pointwise(x, w, b)  # matmul + add, no own node
                p = tensor.softmax_rows(h)
                loss = tensor.mean_all(1.0 - p)  # Tensor.__rsub__ -> sub
                tracer.time_backward(tape)
                tensor.backward(loss)
    rec = tracer.records[0]
    assert dict(rec.fwd_calls) == {"matmul": 1, "add": 1, "softmax": 1,
                                   "sub": 1, "mean": 1}
    assert tracer.reconcile("step")["mismatches"] == []
    assert all(t >= 0.0 for t in rec.node_bwd)
    # the originals are back in place
    assert tensor.softmax_rows.__name__ == "softmax_rows"
    assert tensor._make.__name__ == "_make"
    assert train.bce_loss.__name__ == "bce_loss"


def test_reference_gates_reject_departures(tmp_path):
    ref = load_reference(0)
    w = TrainDesk(0, tmp_path, ref)
    loss0 = ref["train_loss"][0]
    assert w.check((0, loss0))
    assert not w.check((0, loss0 * (1 + 10 * LOSS_RTOL)))
    assert not w.check((0, float("nan")))

    p = PredictFull.__new__(PredictFull)
    p.ref_prob = ref["predict_prob"]
    good = np.array([ref["predict_prob"][3]], dtype=np.float32)
    assert p.check((3, good))
    assert not p.check((3, good + 10 * PROB_ATOL))
    assert not p.check((3, np.array([np.inf], dtype=np.float32)))


@pytest.mark.parametrize("name", ["train_desk", "predict_full"])
def test_short_untraced_run_has_no_failures(tmp_path, name):
    tally, metrics, _ = run.end_to_end(name, 0, 1.0, tmp_path)
    assert tally.attempted >= 2 and tally.failed == 0
    for metric in run.declared_metrics(trace=0):
        assert metrics[metric["name"]][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_desk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

