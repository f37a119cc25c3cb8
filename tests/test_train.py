"""Loss, metrics, optimizer, training-loop behavior, and the gradient-check
harness (including its negative control)."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

import eened.encoder
import eened.train
from eened.config import TrainConfig
from eened.data import TRAIN, make_toy_dataset
from eened.model import model_forward_batch, model_init
from eened.rng import SeedStream
from eened.tensor import (ConfigError, ContractError, ParamStore, Tape, Tensor,
                          backward, _make)
from eened.train import (ADAM_EPS, Metrics, NonFiniteLossError, adam_step,
                         bce_loss, evaluate, gradcheck_suite, init_adam,
                         toy_model_config, train)


class TestBceLoss:
    def test_maximum_entropy_point(self):
        p = Tensor(np.full(8, 0.5))
        y = np.random.default_rng(0).integers(0, 2, size=8).astype(np.float64)
        assert_allclose(bce_loss(p, y).item(), math.log(2.0), rtol=1e-12)

    def test_perfect_prediction_clamp_bound(self):
        y = np.array([1.0, 0.0, 1.0])
        p = Tensor(y.copy())
        loss = bce_loss(p, y).item()
        assert 0.0 < loss <= -math.log(1.0 - 1e-7) + 1e-15

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.01, 0.99, size=16)
        y = rng.integers(0, 2, size=16).astype(np.float64)
        want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert_allclose(bce_loss(Tensor(p.copy()), y).item(), want, rtol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = Tensor(rng.uniform(0, 1, size=10))
            y = rng.integers(0, 2, size=10).astype(np.float64)
            assert bce_loss(p, y).item() >= 0.0

    def test_length_mismatch(self):
        from eened.tensor import ShapeError

        with pytest.raises(ShapeError):
            bce_loss(Tensor(np.full(3, 0.5)), np.zeros(4))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        pdata = rng.uniform(0.05, 0.95, size=12)
        y = rng.integers(0, 2, size=12).astype(np.float64)
        p = Tensor(pdata.copy(), requires_grad=True)
        with Tape():
            backward(bce_loss(p, y))
        h = 1e-7
        for i in range(12):
            bumped = pdata.copy()
            bumped[i] += h
            fp = bce_loss(Tensor(bumped), y).item()
            bumped[i] -= 2 * h
            fm = bce_loss(Tensor(bumped), y).item()
            numeric = (fp - fm) / (2 * h)
            rel = abs(p.grad[i] - numeric) / max(abs(numeric), 1e-12)
            assert rel < 1e-6


class TestMetrics:
    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(1, 500))
    @settings(deadline=None, max_examples=50)
    def test_derived_values_recompute_from_counts(self, tp, fp, tn, fn):
        m = Metrics(tp=tp, fp=fp, tn=tn, fn=fn)
        assert m.total == tp + fp + tn + fn
        assert_allclose(m.accuracy, (tp + tn) / m.total, rtol=1e-12)
        if tp + fp:
            assert_allclose(m.precision, tp / (tp + fp), rtol=1e-12)
        if tp + fn:
            assert_allclose(m.recall, tp / (tp + fn), rtol=1e-12)
        if m.precision + m.recall > 0:
            want_f1 = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert_allclose(m.f1_positive, want_f1, rtol=1e-12)
        assert_allclose(m.f1_macro, (m.f1_positive + m.f1_negative) / 2,
                        rtol=1e-12)

    def test_zero_division_degenerate_counts(self):
        m = Metrics(tp=0, fp=0, tn=5, fn=0)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1_positive == 0.0
        assert m.accuracy == 1.0 and m.f1_negative == 1.0

    def test_report_fields(self):
        text = Metrics(tp=1, fp=2, tn=3, fn=4).report()
        for key in ("tp=1", "fp=2", "tn=3", "fn=4", "accuracy=", "precision=",
                    "recall=", "f1_positive=", "f1_negative=", "f1_macro="):
            assert key in text


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = make_toy_dataset(60, 24, seed=2)
        probs = ds.y.astype(np.float32)

        def fake_forward(m, x, training=False, rng=None):
            idx = [np.flatnonzero((ds.x == row).all(axis=1))[0] for row in x.data]
            return Tensor(probs[idx])

        real = eened.train.model_forward_batch
        eened.train.model_forward_batch = fake_forward
        try:
            m = evaluate(None, ds, TRAIN)
        finally:
            eened.train.model_forward_batch = real
        assert m.accuracy == 1.0 and m.fp == 0 and m.fn == 0
        assert m.f1_positive == 1.0 and m.f1_negative == 1.0

    def test_constant_predictor_on_published_test_composition(self, monkeypatch):
        # 379 positives / 1461 negatives: predicting "seizure" everywhere
        # scores exactly 379/1840
        from eened.data import TEST, Dataset

        n = 1840
        y = np.zeros(n, np.uint8)
        y[:379] = 1
        ds = Dataset(x=np.zeros((n, 4), np.float32), y=y,
                     split=np.full(n, TEST, np.uint8))
        monkeypatch.setattr(
            eened.train, "model_forward_batch",
            lambda m, x, training=False, rng=None: Tensor(
                np.full(x.shape[0], 0.99, np.float32)))
        m = evaluate(None, ds, TEST)
        assert m.tp == 379 and m.fp == 1461 and m.tn == 0 and m.fn == 0
        assert_allclose(m.accuracy, 379 / 1840, rtol=1e-12)

    def test_batch_size_does_not_change_counts(self):
        ds = make_toy_dataset(50, 16, seed=5)
        m = model_init(toy_model_config(t_in=16, n_blocks=1))
        a = evaluate(m, ds, TRAIN, batch_size=7)
        b = evaluate(m, ds, TRAIN, batch_size=256)
        assert (a.tp, a.fp, a.tn, a.fn) == (b.tp, b.fp, b.tn, b.fn)

    def test_threshold_monotonic(self):
        ds = make_toy_dataset(50, 16, seed=6)
        m = model_init(toy_model_config(t_in=16, n_blocks=1))
        low = evaluate(m, ds, TRAIN, threshold=0.3)
        high = evaluate(m, ds, TRAIN, threshold=0.9)
        assert high.tp + high.fp <= low.tp + low.fp


def scalar_params(value=1.0, dtype=np.float64):
    store = ParamStore()
    store.add("w", Tensor(np.array([value], dtype=dtype)))
    return store


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        store = scalar_params(3.0)
        store["w"].grad = np.zeros(1)
        state = init_adam(store)
        cfg = TrainConfig(lr=0.1)
        adam_step(store, state, cfg)
        assert store["w"].data[0] == 3.0
        assert state.step == 1

    def test_closed_form_single_step(self):
        # g=1: both bias-corrected moments are exactly 1, so the update is
        # -lr / (1 + eps)
        cfg = TrainConfig(lr=1e-4)
        store = scalar_params(0.5)
        store["w"].grad = np.ones(1)
        state = init_adam(store)
        adam_step(store, state, cfg)
        want = 0.5 - cfg.lr / (1.0 + ADAM_EPS)
        assert_allclose(store["w"].data[0], want, rtol=0, atol=1e-12)

    def test_missing_gradient(self):
        store = scalar_params()
        state = init_adam(store)
        with pytest.raises(ContractError, match="w"):
            adam_step(store, state, TrainConfig())

    def test_moments_decay_under_zero_gradient(self):
        store = scalar_params()
        store["w"].grad = np.ones(1)
        state = init_adam(store)
        cfg = TrainConfig(lr=1e-3)
        adam_step(store, state, cfg)
        m_after_one = state.m["w"].copy()
        store["w"].grad = np.zeros(1)
        adam_step(store, state, cfg)
        assert abs(state.m["w"][0]) < abs(m_after_one[0])

    def test_in_place_update_preserves_identity(self):
        store = scalar_params(1.0)
        ref = store["w"]
        store["w"].grad = np.ones(1)
        adam_step(store, init_adam(store), TrainConfig())
        assert store["w"] is ref


class TestTrainConfig:
    def test_fields_are_the_five_a_run_sets(self):
        # Adam's betas and eps, weight decay and warmup were fields that no
        # caller set
        assert [f.name for f in fields(TrainConfig)] == [
            "epochs", "batch_size", "lr", "seed", "eval_every"]

    @pytest.mark.parametrize("field, value", [
        ("lr", math.inf), ("lr", math.nan),
    ])
    def test_non_finite_real_is_config_error(self, field, value):
        # an infinite lr only failed at step 2
        with pytest.raises(ConfigError, match=f"{field} must be a finite real"):
            TrainConfig(**{field: value})

    def test_field_types_follow_the_defaults(self):
        assert TrainConfig(lr=1).lr == 1  # an int is a real
        for kwargs in ({"epochs": 2.0}, {"batch_size": True}, {"lr": True},
                       {"lr": "1e-4"}, {"eval_every": None}):
            with pytest.raises(ConfigError, match=next(iter(kwargs))):
                TrainConfig(**kwargs)


def training_setup(n=32, t_in=16, seed=0, **cfg_overrides):
    ds = make_toy_dataset(n, t_in, seed=seed)
    ds.split[:] = TRAIN
    mcfg = toy_model_config(t_in=t_in, n_blocks=1, seed=seed)
    base = dict(epochs=2, batch_size=8, lr=1e-3, seed=seed)
    base.update(cfg_overrides)
    return model_init(mcfg), ds, TrainConfig(**base)


class TestTrainLoop:
    def test_loss_strictly_decreases_across_one_epoch(self):
        # separable data, full-dataset loss measured after every optimizer
        # step within the first epoch
        from eened.data import batches

        m, ds, cfg = training_setup(n=32, seed=3, lr=5e-4)

        def full_loss():
            p = model_forward_batch(m, Tensor(ds.x))
            return bce_loss(p, ds.y.astype(np.float64)).item()

        losses = [full_loss()]
        state = init_adam(m.params)
        shuffle_seed = SeedStream(cfg.seed).child("epoch1").child("shuffle").key()
        for batch in batches(ds, TRAIN, cfg.batch_size, shuffle_seed):
            m.params.zero_grad()
            with Tape():
                p = model_forward_batch(m, Tensor(batch.x), training=True,
                                        rng=SeedStream(0).generator())
                backward(bce_loss(p, batch.y))
            adam_step(m.params, state, cfg)
            losses.append(full_loss())
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_zero_learning_rate_changes_nothing(self):
        # TrainConfig requires lr > 0; the degenerate value is forced after
        # construction to exercise the optimizer's behavior alone
        m, ds, cfg = training_setup(epochs=1)
        cfg.lr = 0.0
        before = m.params.clone_data()
        _, logs = train(m, ds, cfg, eval_tag=TRAIN)
        for name, t in m.params.items():
            assert_array_equal(t.data, before[name])

    def test_bitwise_determinism(self):
        runs = []
        for _ in range(2):
            m, ds, cfg = training_setup(seed=11)
            train(m, ds, cfg, eval_tag=TRAIN)
            runs.append({n: t.data.tobytes() for n, t in m.params.items()})
        assert runs[0] == runs[1]

    def test_seed_changes_trajectory(self):
        m1, ds, cfg1 = training_setup(seed=11)
        train(m1, ds, cfg1, eval_tag=TRAIN)
        m2, _, cfg2 = training_setup(seed=11)
        cfg2.seed = 12  # same init/data, different shuffle/dropout draws
        train(m2, ds, cfg2, eval_tag=TRAIN)
        assert any(m1.params[n].data.tobytes() != m2.params[n].data.tobytes()
                   for n, _ in m1.params.items())

    def test_returns_best_accuracy_parameters(self):
        m, ds, cfg = training_setup(epochs=3, seed=4)
        snapshots = []
        real_evaluate = eened.train.evaluate

        def spy(model, dataset, tag, threshold=0.5, batch_size=256):
            metrics = real_evaluate(model, dataset, tag, threshold, batch_size)
            snapshots.append((metrics.accuracy, model.params.clone_data()))
            return metrics

        eened.train.evaluate = spy
        try:
            _, logs = train(m, ds, cfg, eval_tag=TRAIN)
        finally:
            eened.train.evaluate = real_evaluate
        best_acc, best_snapshot = max(snapshots, key=lambda s: s[0])
        for name, t in m.params.items():
            assert_array_equal(t.data, best_snapshot[name])
        assert max(l.metrics.accuracy for l in logs) == best_acc

    def test_log_line_format(self):
        m, ds, cfg = training_setup(epochs=1)
        lines = []
        train(m, ds, cfg, eval_tag=TRAIN, log_fn=lines.append)
        assert len(lines) == 1
        assert re.fullmatch(
            r"epoch=1 loss=\d+\.\d{6} acc=\d+\.\d{6} "
            r"f1_pos=\d+\.\d{6} f1_neg=\d+\.\d{6}", lines[0])

    def test_eval_every_still_evaluates_last_epoch(self):
        m, ds, cfg = training_setup(epochs=3, eval_every=2)
        _, logs = train(m, ds, cfg, eval_tag=TRAIN)
        assert [l.epoch for l in logs] == [2, 3]

    def test_non_finite_loss_stops_at_its_step(self):
        # the first update at lr 1e30 moves every weight by about 1e30, so
        # the second step's forward overflows and its loss is NaN
        m, ds, cfg = training_setup(lr=1e30)
        after_first = []
        real_adam_step = eened.train.adam_step

        def spy(params, state, cfg):
            real_adam_step(params, state, cfg)
            after_first.append(params.clone_data())

        eened.train.adam_step = spy
        try:
            with np.errstate(all="ignore"), \
                    pytest.raises(NonFiniteLossError) as info:
                train(m, ds, cfg, eval_tag=TRAIN)
        finally:
            eened.train.adam_step = real_adam_step
        assert (info.value.epoch, info.value.step) == (1, 2)
        assert not math.isfinite(info.value.loss)
        assert "epoch 1, step 2" in str(info.value)
        # the failing step applied no update
        assert len(after_first) == 1
        for name, t in m.params.items():
            assert_array_equal(t.data, after_first[0][name])


class TestGradcheckHarness:
    def test_suite_module_filter(self):
        reports = gradcheck_suite(["pwff"])
        assert list(reports) == ["pwff"]
        assert reports["pwff"].passed

    def test_unknown_module_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            gradcheck_suite(["nonesuch"])

    def test_impossible_tolerance_fails(self):
        reports = gradcheck_suite(["pwff"], tolerance=1e-15)
        assert not reports["pwff"].passed

    def test_corrupted_gradient_is_detected(self, monkeypatch):
        # swish with a sign error in its backward: the checker must flag the
        # modules that use it
        def bad_swish(a):
            s = expit(a.data)
            out = a.data * s
            return _make("swish", (a,), out,
                         lambda g: (g * (s - out * (1.0 - s)),))

        monkeypatch.setattr(eened.encoder, "swish", bad_swish)
        reports = gradcheck_suite(["pwff", "mhsa"])
        assert not reports["pwff"].passed
        assert reports["pwff"].worst_name.startswith("pwff")
        # attention has no swish anywhere, so it still passes
        assert reports["mhsa"].passed

    def test_report_line_mentions_verdict(self):
        rep = gradcheck_suite(["mhsa"])["mhsa"]
        assert rep.line().startswith("pass")
        assert "max_rel_err" in rep.line()
