"""Large tape ops split over the part threads: a split op is bitwise the
whole one, the calling thread records every node, and the part threads
never multiply with other threads or hide an error."""

import os
import sys
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest

import eened.tensor as T
from eened.config import ModelConfig, TrainConfig
from eened.model import model_forward_batch, model_init
from eened.rng import SeedStream
from eened.tensor import (Tape, Tensor, add, backward, conv1d_depthwise,
                          dropout, layer_norm, matmul, mul, softmax_rows,
                          sum_all, swish)
from eened.train import adam_step, bce_loss, init_adam, toy_model_config

NEVER, ALWAYS = 1 << 62, 0  # SPLIT_MIN_ELEMS that keeps every op whole / splits it


def pin_workers(monkeypatch, n):
    monkeypatch.setattr(T, "cpu_workers", lambda: n)


def count_splits(monkeypatch):
    """Record the thread of every split (every call of ``tensor._run``)."""
    threads = []
    real = T._run

    def spy(tasks):
        threads.append(threading.get_ident())
        return real(tasks)

    monkeypatch.setattr(T, "_run", spy)
    return threads


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def forward_backward(op, arrays):
    """The op's output and the gradient of every input under a fixed
    upstream gradient."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        out = op(*inputs)
        up = np.random.default_rng(1).normal(size=out.shape).astype(out.dtype)
        backward(sum_all(mul(out, Tensor(up))))
    return [out.data] + [t.grad for t in inputs]


def reused(x):
    # x feeds two ops, so the sweep sums its two gradients
    return add(swish(x), x)


def dropped(x):
    return dropout(x, 0.1, np.random.default_rng(7))


# desk scale (B=32, D=64, d_pwff 256, 4 heads of 16) and the default model's
# one segment (D=512, d_pwff 2048, 8 heads of 64), kernel 15
CASES = {
    "weight-matmul-desk-pwff-in": (matmul, [(32, 178, 64), (64, 256)]),
    "weight-matmul-desk-pwff-out": (matmul, [(32, 178, 256), (256, 64)]),
    "weight-matmul-desk-head": (matmul, [(32, 178, 64), (64, 16)]),
    "weight-matmul-default-pwff-in": (matmul, [(1, 178, 512), (512, 2048)]),
    "weight-matmul-default-pwff-out": (matmul, [(1, 178, 2048), (2048, 512)]),
    "weight-matmul-default-head": (matmul, [(1, 178, 512), (512, 64)]),
    # the default model's B=8 training step: the weight is the larger
    # operand, so the forward cuts its columns
    "weight-matmul-default-b8-pwff-in": (matmul, [(8, 178, 512), (512, 2048)]),
    "batched-matmul-desk-scores": (matmul, [(32, 178, 16), (32, 16, 178)]),
    "batched-matmul-desk-av": (matmul, [(32, 178, 178), (32, 178, 16)]),
    "batched-matmul-default-scores": (matmul, [(1, 178, 64), (1, 64, 178)]),
    "softmax-desk": (softmax_rows, [(32, 178, 178)]),
    "softmax-default": (softmax_rows, [(1, 178, 178)]),
    "swish-desk": (swish, [(32, 178, 256)]),
    "swish-default": (swish, [(1, 178, 2048)]),
    "layer-norm-desk": (layer_norm, [(32, 178, 64), (64,), (64,)]),
    "layer-norm-default": (layer_norm, [(1, 178, 512), (512,), (512,)]),
    "add-desk": (add, [(32, 178, 64), (32, 178, 64)]),
    "add-bias-desk": (add, [(32, 178, 256), (256,)]),
    "add-bias-default": (add, [(1, 178, 2048), (2048,)]),
    "gradient-sum-desk": (reused, [(32, 178, 64)]),
    "dropout-desk": (dropped, [(32, 178, 64)]),
    "dropout-default": (dropped, [(1, 178, 512)]),
    "depthwise-desk": (conv1d_depthwise, [(32, 178, 64), (64, 15), (64,)]),
    "depthwise-default": (conv1d_depthwise, [(1, 178, 512), (512, 15), (512,)]),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", list(CASES))
def test_split_op_equals_whole_bitwise(monkeypatch, name, dtype):
    op, shapes = CASES[name]
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", NEVER)
    splits = count_splits(monkeypatch)
    whole = forward_backward(op, arrays)
    assert splits == []
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    split = forward_backward(op, arrays)
    assert splits  # the split path ran
    for got, want in zip(split, whole):
        assert_bitwise(got, want)


def assert_more_parts_equal_whole(monkeypatch, name, workers, dtype):
    op, shapes = CASES[name]
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
    pin_workers(monkeypatch, 1)
    whole = forward_backward(op, arrays)
    pin_workers(monkeypatch, workers)
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    for got, want in zip(forward_backward(op, arrays), whole):
        assert_bitwise(got, want)


@pytest.mark.parametrize("workers", [3, 4])
@pytest.mark.parametrize("name", ["weight-matmul-desk-pwff-in",
                                  "weight-matmul-default-pwff-in",
                                  "weight-matmul-default-pwff-out",
                                  "depthwise-desk", "softmax-desk"])
def test_more_parts_than_cores_equal_whole_bitwise(monkeypatch, name, workers):
    assert_more_parts_equal_whole(monkeypatch, name, workers, np.float32)


@pytest.mark.parametrize("workers", [3, 4])
@pytest.mark.parametrize("name", ["weight-matmul-default-pwff-in",
                                  "weight-matmul-default-pwff-out"])
def test_float64_column_parts_equal_whole_bitwise(monkeypatch, name, workers):
    # cut into thirds elsewhere than on multiples of 64 columns, the float64
    # (178, 512) @ (512, 2048) product changed its bits
    assert_more_parts_equal_whole(monkeypatch, name, workers, np.float64)


def test_odd_column_count_keeps_the_row_cut(monkeypatch):
    # the weight outweighs the input, but 513 columns are no multiple of 64:
    # cut into 64-column parts at 4 workers the product differed by 3.9e-14.
    # Its row cut differs from the whole product too (7.8e-14 in float64),
    # so the guard is that the split gives the row parts' bits.
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(178, 512)), rng.normal(size=(512, 513))
    pin_workers(monkeypatch, 4)
    splits = count_splits(monkeypatch)
    got = matmul(Tensor(a), Tensor(b)).data
    assert splits
    want = np.concatenate([a[lo:hi] @ b for lo, hi in T._cuts(178, 4)])
    assert_bitwise(got, want)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("shapes", [[(32, 178, 1), (1, 64)],
                                    [(1, 178, 1), (1, 512)],
                                    [(32, 178, 64), (64, 1)]])
def test_matrix_vector_products_stay_whole(monkeypatch, shapes, workers):
    # a cut of a (178, 512) @ (512, 1) product into 89-row parts, or of a
    # (1, 178) @ (178, 512) one into 3 column parts, changed its bits
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=s).astype(np.float32) for s in shapes]
    pin_workers(monkeypatch, workers)
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    splits = count_splits(monkeypatch)
    forward_backward(matmul, arrays)
    assert splits == []


def train_steps(cfg, batch, steps):
    """Losses and final parameters of ``steps`` training steps on fixed
    batches of ``batch`` rows."""
    m = model_init(cfg)
    state = init_adam(m.params)
    drop_rng = SeedStream(cfg.seed).child("dropout").generator()
    data = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(steps):
        x = data.normal(size=(batch, cfg.t_in)).astype(np.float32)
        y = data.integers(0, 2, size=batch)
        m.params.zero_grad()
        with Tape():
            p = model_forward_batch(m, Tensor(x), training=True, rng=drop_rng)
            loss = bce_loss(p, y)
            backward(loss)
        adam_step(m.params, state, TrainConfig())
        losses.append(loss.item())
    return losses, m.params.clone_data()


def test_desk_steps_on_one_and_two_workers_are_bitwise_equal(monkeypatch):
    desk = ModelConfig(d_model=64, n_heads=4, n_blocks=2, d_pwff=256, seed=3)
    pin_workers(monkeypatch, 1)
    splits = count_splits(monkeypatch)
    losses1, params1 = train_steps(desk, 32, 16)
    assert splits == []
    pin_workers(monkeypatch, 2)
    losses2, params2 = train_steps(desk, 32, 16)
    assert splits  # desk-scale ops split at the shipped threshold
    assert losses2 == losses1
    assert params2.keys() == params1.keys()
    for name in params1:
        assert_bitwise(params2[name], params1[name])


def test_split_op_records_one_node_from_the_calling_thread(monkeypatch):
    pin_workers(monkeypatch, 2)
    x = Tensor(np.ones((32, 178, 256), np.float32), requires_grad=True)
    nodes = []
    for threshold in (NEVER, ALWAYS):
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", threshold)
        with Tape() as tape:
            swish(x)
        nodes.append([(n.op, n.inputs) for n in tape.nodes])
    assert nodes[0] == nodes[1] == [("leaf", ()), ("swish", (0,))]


def test_a_recording_caller_runs_its_items_in_place(monkeypatch):
    # a tape records only its own thread's ops, so items run on a part
    # thread would be missing from it
    pin_workers(monkeypatch, 2)
    x = Tensor(np.ones((4, 8), np.float32), requires_grad=True)
    items = []

    def fn(lo, hi):
        items.extend((i, threading.get_ident(), swish(x)) for i in range(lo, hi))

    with Tape() as tape:
        T.run_on_cpus(fn, 4)
    assert [n.op for n in tape.nodes] == ["leaf"] + ["swish"] * 4
    assert [i for i, _, _ in items] == [0, 1, 2, 3]
    assert {t for _, t, _ in items} == {threading.get_ident()}
    assert [y._tape_id for _, _, y in items] == [1, 2, 3, 4]


def count_heads_threads(monkeypatch):
    """Record the thread of every task of a split that runs attention heads
    (``mhsa_forward``'s ``run_heads``)."""
    threads = []
    real = T._run

    def spy(tasks):
        def traced(task):
            def run():
                if task.func.__name__ == "run_heads":
                    threads.append(threading.get_ident())
                return task()
            return run
        return real([traced(t) if isinstance(t, partial) else t for t in tasks])

    monkeypatch.setattr(T, "_run", spy)
    return threads


def heads_model():
    # 4 heads; the (128, 256) pwff weight outweighs a (64, 128) segment, so
    # its products cut columns once every op splits
    return model_init(ModelConfig(d_model=128, n_heads=4, n_blocks=1, d_pwff=256,
                                  t_in=64, classifier_hidden=8, seed=9))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_segment_heads_on_the_part_threads_are_bitwise_equal(monkeypatch, dtype):
    m = heads_model()
    x = Tensor(np.random.default_rng(0).normal(size=(1, 64)).astype(dtype))
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    threads = count_heads_threads(monkeypatch)
    probs = {}
    for workers in (1, 2, 3):
        pin_workers(monkeypatch, workers)
        threads.clear()
        probs[workers] = model_forward_batch(m, x).data
        if workers == 1:
            assert threads == []  # one CPU: the heads run in place
        else:
            assert set(threads) - {threading.get_ident()}  # a part thread ran heads
    for workers in (2, 3):
        assert_bitwise(probs[workers], probs[1])


def test_taped_heads_record_as_on_one_worker(monkeypatch):
    m = heads_model()
    x = Tensor(np.random.default_rng(0).normal(size=(2, 64)).astype(np.float32))
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    threads = count_heads_threads(monkeypatch)
    ops = []
    for workers in (1, 2):
        pin_workers(monkeypatch, workers)
        with Tape() as tape:
            model_forward_batch(m, x)
        ops.append([n.op for n in tape.nodes])
    assert threads == []  # no head left the calling thread
    assert ops[1] == ops[0]
    assert ops[0].count("softmax") == 4


def assert_same_bits_from_threads_at_once(monkeypatch, compute):
    """Three threads call ``compute`` 10 times each, at once, with more
    parts than cores and every op split; each result must be bitwise the
    one-CPU result."""
    pin_workers(monkeypatch, 1)
    whole = compute()
    pin_workers(monkeypatch, (os.cpu_count() or 1) + 2)
    monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
    results = []

    def run():
        results.extend(compute() for _ in range(10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runners = [threading.Thread(target=run) for _ in range(2)]
        for r in runners:
            r.start()
        run()
        for r in runners:
            r.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in runners)
    assert len(results) == 30
    for got in results:
        assert_bitwise(got, whole)


class TestPartThreads:
    def test_one_cpu_starts_no_part_thread(self, monkeypatch):
        def no_thread():
            raise AssertionError("a part thread was started")

        monkeypatch.setattr(T, "_PartThread", no_thread)
        pin_workers(monkeypatch, 1)
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
        splits = count_splits(monkeypatch)
        forward_backward(*self.big_swish())
        train_steps(toy_model_config(), 4, 2)
        assert splits == []

    @staticmethod
    def big_swish():
        x = np.random.default_rng(0).normal(size=(32, 178, 256)).astype(np.float32)
        return swish, [x]

    def test_part_error_reraises_after_every_part_finished(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        finished = []

        def slow(name):
            time.sleep(0.05)
            finished.append(name)

        def fail():
            raise FloatingPointError("part failed")

        # the failing part on the part thread, then in the calling thread
        with pytest.raises(FloatingPointError, match="part failed"):
            T._run([lambda: slow("caller"), fail])
        assert finished == ["caller"]
        with pytest.raises(FloatingPointError, match="part failed"):
            T._run([fail, lambda: slow("part")])
        assert finished == ["caller", "part"]
        # the first failing part, in task order, is the one re-raised
        with pytest.raises(ValueError):
            T._run([lambda: int("x"), fail])
        # and the part threads still work
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", NEVER)
        whole = forward_backward(*self.big_swish())
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
        for got, want in zip(forward_backward(*self.big_swish()), whole):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("op", [matmul, add])
    def test_parts_run_under_the_callers_error_state(self, monkeypatch, op):
        # the overflow is only in the second part's rows, on the part thread
        pin_workers(monkeypatch, 2)
        x = np.ones((32, 178, 64), np.float32)
        x[20:] = 3e38
        y = np.full((64, 64), 10, np.float32) if op is matmul else x
        args = (Tensor(x), Tensor(y))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                op(*args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="ignore"):
                op(*args)
        assert caught == []

    def test_training_leaves_at_most_one_part_thread_per_extra_cpu(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
        before = set(threading.enumerate())
        splits = count_splits(monkeypatch)
        train_steps(toy_model_config(), 4, 20)
        assert len(splits) > 20
        extra = set(threading.enumerate()) - before
        assert len(extra) <= T.cpu_workers() - 1
        assert all(t.daemon and t.name == "eened-part" for t in extra)

    def test_no_op_splits_inside_eval_blocks(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
        splits = count_splits(monkeypatch)
        m = model_init(toy_model_config(t_in=128, n_blocks=1))
        x = Tensor(np.random.default_rng(0).normal(size=(37, 128)).astype(np.float32))
        untaped = model_forward_batch(m, x).data  # 3 blocks in 2 ranges
        assert splits == [threading.get_ident()]  # the blocks' own split
        splits.clear()
        with Tape():
            taped = model_forward_batch(m, x).data
        assert splits  # the same forward on the calling thread splits
        np.testing.assert_allclose(untaped, taped, rtol=0, atol=1e-6)

    def test_threads_splitting_at_once_under_fast_switching(self, monkeypatch):
        # three threads split at once with more parts than cores: one holds
        # the part threads, the others run their parts themselves, and a
        # part written to the wrong rows changes the result (untaped: the
        # tape is single-writer)
        x = Tensor(self.big_swish()[1][0])
        assert_same_bits_from_threads_at_once(monkeypatch, lambda: swish(x).data)

    def test_one_segment_forwards_at_once_under_fast_switching(self, monkeypatch):
        # as above, and a head stored in another head's slot changes the result
        m = heads_model()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64)).astype(np.float32))
        assert_same_bits_from_threads_at_once(
            monkeypatch, lambda: model_forward_batch(m, x).data)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_forked_child_splits_on_its_own_threads(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        monkeypatch.setattr(T, "SPLIT_MIN_ELEMS", ALWAYS)
        op, arrays = self.big_swish()
        want = forward_backward(op, arrays)  # the parent's part threads run
        pid = os.fork()
        if pid == 0:  # the child: exit 0 iff its split gives the same bits
            ok = False
            try:
                got = forward_backward(op, arrays)
                ok = all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its first split")
