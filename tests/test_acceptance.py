"""Acceptance gate: one test per release criterion.

Each test prints exactly one ``ACCEPTANCE <n> <name>: PASS|FAIL|SKIP``
line straight to the terminal (bypassing capture) so a plain pytest run
yields a criterion-by-criterion scoreboard. Tolerances are stated inline
and are the release thresholds, not development defaults.
"""

import dataclasses
import time

import numpy as np
import pytest

from eened.config import ModelConfig, TrainConfig
from eened.data import (TEST, TRAIN, load_dataset, make_toy_dataset,
                        normalize)
from eened.data import split as split_dataset
from eened.encoder import (conv_module_forward, conv_module_init,
                           mhsa_forward, mhsa_init, pwff_forward, pwff_init)
from eened.model import (load_checkpoint, model_forward_batch, model_init,
                         save_checkpoint)
from eened.rng import SeedStream
from eened.tensor import Tensor, conv1d_depthwise, layer_norm, softmax_rows
from eened.train import evaluate, gradcheck_suite, toy_model_config, train
from oracle_utils import np_conv_module, np_depthwise_triple_loop, np_mhsa

# Reduced architecture for the end-to-end training criterion: same block
# structure as the default model, sized to train on a CPU in minutes.
DESK_MODEL = dict(d_model=64, n_heads=4, n_blocks=2, d_pwff=256,
                  conv_kernel=15, dropout_p=0.1, t_in=178,
                  classifier_hidden=128, seed=0)


@pytest.fixture
def emit(capfd):
    """Print a scoreboard line live, bypassing pytest's capture."""

    def _emit(number, name, status, detail=""):
        line = f"ACCEPTANCE {number} {name}: {status}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        return line

    return _emit


@pytest.fixture
def announce(emit):
    def _announce(number, name, ok, detail=""):
        line = emit(number, name, "PASS" if ok else "FAIL", detail)
        assert ok, line

    return _announce


def test_criterion_1_gradient_check(announce):
    """Reverse-mode gradients of every module and of the end-to-end toy
    model match central finite differences to max relative error < 1e-4,
    in float64 with dropout off, in under two minutes."""
    started = time.monotonic()
    reports = gradcheck_suite(tolerance=1e-4)
    elapsed = time.monotonic() - started
    assert set(reports) == {"pwff", "mhsa", "conv", "block", "model"}
    worst = max(reports.values(), key=lambda r: r.max_rel_err)
    ok = all(r.passed for r in reports.values()) and elapsed < 120.0
    announce(1, "gradient-check", ok,
             f"5 modules, max_rel_err={worst.max_rel_err:.3e} < 1e-4, "
             f"{elapsed:.1f}s < 120s")


def test_criterion_2_forward_oracles(announce):
    """Attention and convolution-module forwards match independent dense
    numpy evaluations to 1e-10 in float64; the depthwise convolution matches
    a naive triple-loop oracle bitwise."""
    cfg = toy_model_config()
    stream = SeedStream(402)
    rng = stream.child("x").generator()

    worst_mhsa = 0.0
    worst_conv = 0.0
    for trial in range(3):
        x = rng.normal(0.0, 1.0, size=(7, cfg.d_model))
        mp = mhsa_init(stream.child(f"mhsa{trial}"), cfg.d_model,
                       cfg.n_heads, np.float64)
        got = mhsa_forward(Tensor(x), mp, cfg).data
        want = np_mhsa(x, mp, cfg.d_model, cfg.n_heads)
        worst_mhsa = max(worst_mhsa, float(np.max(np.abs(got - want))))

        cp = conv_module_init(stream.child(f"conv{trial}"), cfg.d_model,
                              cfg.conv_kernel, np.float64)
        got = conv_module_forward(Tensor(x), cp, cfg).data
        want = np_conv_module(x, cp, (cfg.conv_kernel - 1) // 2)
        worst_conv = max(worst_conv, float(np.max(np.abs(got - want))))

    xc = rng.normal(0.0, 1.0, size=(20, 6))
    k = Tensor(rng.normal(0.0, 1.0, size=(6, 5)))
    b = Tensor(rng.normal(0.0, 1.0, size=(6,)))
    got = conv1d_depthwise(Tensor(xc), k, b).data
    want = np_depthwise_triple_loop(xc, k.data, b.data, pad=2)
    depthwise_exact = np.array_equal(got, want)

    ok = worst_mhsa < 1e-10 and worst_conv < 1e-10 and depthwise_exact
    announce(2, "forward-oracles", ok,
             f"attention diff={worst_mhsa:.1e} < 1e-10, "
             f"conv-module diff={worst_conv:.1e} < 1e-10, "
             f"depthwise bitwise-equal={depthwise_exact}")


def test_criterion_3_structural_properties(announce):
    """Softmax rows sum to 1 +- 1e-9; layer-norm rows have mean 0 / variance
    1 within 1e-6; zeroing a branch's output projection makes each module an
    exact identity; attention commutes with timestep permutation while the
    convolution module does not."""
    cfg = toy_model_config()
    stream = SeedStream(734)
    rng = stream.child("x").generator()

    scores = rng.normal(0.0, 1.0, size=(25, 13))
    scores[0, 0] = 500.0  # extreme logit must not break normalization
    scores[1, :] = -500.0
    row_sums = softmax_rows(Tensor(scores)).data.sum(axis=-1)
    softmax_err = float(np.max(np.abs(row_sums - 1.0)))

    xl = rng.normal(3.0, 50.0, size=(40, 16))
    ln = layer_norm(Tensor(xl), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    ln_err = max(float(np.max(np.abs(ln.mean(axis=-1)))),
                 float(np.max(np.abs(ln.var(axis=-1) - 1.0))))

    x = Tensor(rng.normal(0.0, 1.0, size=(9, cfg.d_model)))
    pwff = pwff_init(stream.child("pwff"), cfg.d_model, cfg.d_pwff, np.float64)
    pwff.w2.data[...] = 0.0
    pwff.b2.data[...] = 0.0
    mhsa = mhsa_init(stream.child("mhsa"), cfg.d_model, cfg.n_heads,
                     np.float64)
    mhsa.o.data[...] = 0.0
    conv = conv_module_init(stream.child("conv"), cfg.d_model,
                            cfg.conv_kernel, np.float64)
    conv.proj_w.data[...] = 0.0
    conv.proj_b.data[...] = 0.0
    passthrough = (
        np.array_equal(pwff_forward(x, pwff, cfg).data, x.data)
        and np.array_equal(mhsa_forward(x, mhsa, cfg).data, np.zeros_like(x.data))
        and np.array_equal(conv_module_forward(x, conv, cfg).data, x.data))

    mhsa_live = mhsa_init(stream.child("mhsa-live"), cfg.d_model, cfg.n_heads,
                          np.float64)
    conv_live = conv_module_init(stream.child("conv-live"), cfg.d_model,
                                 cfg.conv_kernel, np.float64)
    perm = stream.child("perm").generator().permutation(9)
    xp = Tensor(x.data[perm])
    equivariance_err = float(np.max(np.abs(
        mhsa_forward(xp, mhsa_live, cfg).data
        - mhsa_forward(x, mhsa_live, cfg).data[perm])))
    conv_divergence = float(np.max(np.abs(
        conv_module_forward(xp, conv_live, cfg).data
        - conv_module_forward(x, conv_live, cfg).data[perm])))

    ok = (softmax_err < 1e-9 and ln_err < 1e-6 and passthrough
          and equivariance_err < 1e-9 and conv_divergence > 1e-3)
    announce(3, "structural-properties", ok,
             f"softmax row-sum err={softmax_err:.1e} < 1e-9, "
             f"layer-norm stats err={ln_err:.1e} < 1e-6, "
             f"zeroed-branch identity={passthrough}, "
             f"attention permutation err={equivariance_err:.1e}, "
             f"conv permutation divergence={conv_divergence:.1e} > 1e-3")


def test_criterion_4_split_protocol(announce, public_layout_csv, real_csv_path):
    """On the full 11500-row CSV the split yields exactly 7360 train and
    1840 test rows with 1461 test negatives, deterministically per seed.
    Counts depend only on the file's label histogram, which the synthetic
    stand-in reproduces exactly when the real recordings are absent."""
    ds = load_dataset(public_layout_csv, t_in=178)
    s0 = split_dataset(ds, seed=0)
    n_train = int(np.sum(s0.split == TRAIN))
    n_test = int(np.sum(s0.split == TEST))
    n_test_neg = int(np.sum((s0.split == TEST) & (s0.y == 0)))
    repeat = split_dataset(ds, seed=0)
    deterministic = np.array_equal(s0.split, repeat.split)
    reseeded = split_dataset(ds, seed=1)
    seed_sensitive = not np.array_equal(s0.split, reseeded.split)

    source = ("real recordings" if real_csv_path is not None else
              "synthetic stand-in, same 11500x178 layout and label histogram")
    ok = (n_train == 7360 and n_test == 1840 and n_test_neg == 1461
          and deterministic and seed_sensitive)
    announce(4, "split-protocol", ok,
             f"train={n_train}, test={n_test}, test-negatives={n_test_neg}, "
             f"deterministic={deterministic}, seed-sensitive={seed_sensitive}; "
             f"source: {source}")


def test_criterion_5_desk_scale_training(announce, emit, real_csv_path):
    """A reduced model (d_model=64, 4 heads, 2 blocks, d_pwff=256) trained
    20 epochs on the real recordings reaches test accuracy >= 0.95. Without
    the recordings the gate cannot be judged: the same architecture is then
    trained on synthetic separable segments as a pipeline check and the
    criterion is reported as SKIP."""
    cfg = ModelConfig(**DESK_MODEL)
    if real_csv_path is not None:
        ds = normalize(split_dataset(load_dataset(real_csv_path, cfg.t_in), seed=0))
        tcfg = TrainConfig(epochs=20, batch_size=32, lr=1e-4, seed=0)
        started = time.monotonic()
        model, _ = train(model_init(cfg), ds, tcfg)
        elapsed = time.monotonic() - started
        acc = evaluate(model, ds, tag=TEST).accuracy
        announce(5, "desk-scale-training", acc >= 0.95,
                 f"real recordings, 20 epochs, test accuracy={acc:.4f} "
                 f">= 0.95, {elapsed:.0f}s")
        return

    ds = normalize(make_toy_dataset(384, cfg.t_in, seed=0))
    tcfg = TrainConfig(epochs=4, batch_size=32, lr=1e-3, seed=0)
    started = time.monotonic()
    model, _ = train(model_init(cfg), ds, tcfg)
    elapsed = time.monotonic() - started
    acc = evaluate(model, ds, tag=TEST).accuracy
    if acc < 0.95:
        announce(5, "desk-scale-training", False,
                 f"synthetic separable segments, test accuracy={acc:.4f} < 0.95")
    line = emit(5, "desk-scale-training", "SKIP",
                "real recordings unavailable in this environment; "
                f"architecture check on synthetic separable segments: "
                f"test accuracy={acc:.4f} >= 0.95, {elapsed:.0f}s")
    pytest.skip(line)


def test_criterion_6_determinism(announce, tmp_path):
    """Two complete training runs with the same seed, config, and data
    produce bitwise-identical checkpoints (dropout active, so the RNG
    discipline is exercised end to end)."""
    cfg = toy_model_config(dropout_p=0.1)
    ds = normalize(make_toy_dataset(64, cfg.t_in, seed=3))
    tcfg = TrainConfig(epochs=4, batch_size=16, lr=1e-3, seed=11)
    blobs = []
    for name in ("first.ckpt", "second.ckpt"):
        model, _ = train(model_init(cfg), ds, tcfg)
        path = tmp_path / name
        save_checkpoint(model, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    announce(6, "determinism", ok,
             f"two runs, {len(blobs[0])}-byte checkpoints bitwise-equal={ok}")


def test_criterion_7_checkpoint_round_trip(announce, tmp_path):
    """Probabilities computed after save -> load equal the pre-save
    probabilities bitwise on a fixed input batch."""
    cfg = toy_model_config()
    model = model_init(cfg)
    x = Tensor(SeedStream(88).child("x").generator()
               .normal(0.0, 1.0, size=(4, cfg.t_in)).astype(np.float32))
    before = model_forward_batch(model, x).data.copy()
    path = tmp_path / "round.ckpt"
    save_checkpoint(model, path)
    after = model_forward_batch(load_checkpoint(path), x).data
    ok = np.array_equal(before, after)
    announce(7, "checkpoint-round-trip", ok,
             f"4 probabilities bitwise-equal={ok}")


def test_criterion_8_overfit_sanity(announce):
    """200 epochs on a 16-row balanced subset drive training accuracy to
    exactly 1.0."""
    cfg = toy_model_config(t_in=178)
    ds = make_toy_dataset(16, cfg.t_in, seed=2)
    ds = dataclasses.replace(ds, split=np.full(16, TRAIN, dtype=np.uint8))
    ds = normalize(ds)
    tcfg = TrainConfig(epochs=200, batch_size=16, lr=1e-3, seed=0,
                       eval_every=10)
    started = time.monotonic()
    model, _ = train(model_init(cfg), ds, tcfg, eval_tag=TRAIN)
    elapsed = time.monotonic() - started
    acc = evaluate(model, ds, tag=TRAIN).accuracy
    announce(8, "overfit-sanity", acc == 1.0,
             f"16 rows, 200 epochs, train accuracy={acc:.3f} == 1.0, "
             f"{elapsed:.0f}s")
