"""Training loop (binary cross-entropy + Adam), evaluation metrics, and the
finite-difference gradient checker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import ModelConfig, TrainConfig
from .data import TEST, TRAIN, Dataset, batches
from .encoder import (conv_module_forward, conv_module_init,
                      encoder_block_forward, encoder_block_init, mhsa_forward,
                      mhsa_init, pwff_forward, pwff_init)
from .model import EenedModel, model_forward_batch, model_init
from .rng import SeedStream
from .tensor import (ContractError, ParamStore, ShapeError, Tape, Tensor,
                     add, backward, clip, log, mean_all, mul, neg)

BCE_EPS = 1e-7


class NonFiniteLossError(ArithmeticError):
    """A training step produced a NaN or infinite loss."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, step {step}")
        self.epoch, self.step, self.loss = epoch, step, loss


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------


def bce_loss(p: Tensor, y, eps: float = BCE_EPS) -> Tensor:
    """Mean binary cross-entropy; probabilities are clamped to
    [eps, 1 - eps] before the logs."""
    ydata = y.data if isinstance(y, Tensor) else np.asarray(y)
    ydata = ydata.astype(p.data.dtype)
    if p.shape != ydata.shape:
        raise ShapeError(f"probabilities {p.shape} vs labels {ydata.shape}")
    ph = clip(p, eps, 1.0 - eps)
    yt = Tensor(ydata)
    yc = Tensor(1.0 - ydata)
    ll = add(mul(yt, log(ph)), mul(yc, log(1.0 - ph)))
    return neg(mean_all(ll))


@dataclass
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1_positive(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    @property
    def f1_negative(self) -> float:
        denom = 2 * self.tn + self.fn + self.fp
        return 2 * self.tn / denom if denom else 0.0

    @property
    def f1_macro(self) -> float:
        return 0.5 * (self.f1_positive + self.f1_negative)

    def report(self) -> str:
        """Structured text block with the confusion matrix and derived
        values."""
        lines = [
            f"tp={self.tp}", f"fp={self.fp}", f"tn={self.tn}", f"fn={self.fn}",
            f"accuracy={self.accuracy:.6f}",
            f"precision={self.precision:.6f}",
            f"recall={self.recall:.6f}",
            f"f1_positive={self.f1_positive:.6f}",
            f"f1_negative={self.f1_negative:.6f}",
            f"f1_macro={self.f1_macro:.6f}",
        ]
        return "\n".join(lines) + "\n"


def evaluate(m: EenedModel, dataset: Dataset, tag: int = TEST,
             threshold: float = 0.5, batch_size: int = 256) -> Metrics:
    """Deterministic eval-mode confusion counts at the given threshold.

    ``batch_size`` only sets how many rows are gathered per call of
    ``model_forward_batch``, which runs them in cache-sized blocks, one
    thread per CPU; it does not affect the counts.
    """
    tp = fp = tn = fn = 0
    for batch in batches(dataset, tag, batch_size, shuffle_seed=None):
        p = model_forward_batch(m, Tensor(batch.x), training=False).data
        pred = p >= threshold
        truth = batch.y.astype(bool)
        tp += int(np.sum(pred & truth))
        fp += int(np.sum(pred & ~truth))
        tn += int(np.sum(~pred & ~truth))
        fn += int(np.sum(~pred & truth))
    return Metrics(tp=tp, fp=fp, tn=tn, fn=fn)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: ParamStore) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(t.data) for name, t in params.items()},
        v={name: np.zeros_like(t.data) for name, t in params.items()},
    )


def adam_step(params: ParamStore, state: AdamState, cfg: TrainConfig) -> None:
    """One in-place Adam update with bias correction. Weight decay enters the
    gradient (L2 style); warmup scales lr linearly over the first
    warmup_steps steps."""
    state.step += 1
    t = state.step
    lr = cfg.lr
    if cfg.warmup_steps > 0 and t <= cfg.warmup_steps:
        lr = cfg.lr * t / cfg.warmup_steps
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ContractError(f"parameter {name} has no gradient")
        if cfg.weight_decay > 0.0:
            g = g + cfg.weight_decay * p.data
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    loss: float
    metrics: Metrics

    def line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.6f} "
                f"acc={self.metrics.accuracy:.6f} "
                f"f1_pos={self.metrics.f1_positive:.6f} "
                f"f1_neg={self.metrics.f1_negative:.6f}")


def train(m: EenedModel, dataset: Dataset, cfg: TrainConfig, *,
          eval_tag: int = TEST, threshold: float = 0.5,
          log_fn: Optional[Callable[[str], None]] = None
          ) -> tuple[EenedModel, list[EpochLog]]:
    """Shuffled mini-batch training. Evaluates every ``eval_every`` epochs
    (always on the last), keeps the best-accuracy parameters, and restores
    them before returning. Bitwise deterministic for a fixed (seed, config,
    dataset). Raises NonFiniteLossError at the first step whose loss is NaN
    or infinite, before that step's update."""
    stream = SeedStream(cfg.seed)
    state = init_adam(m.params)
    logs: list[EpochLog] = []
    best_acc = -1.0
    best_params: Optional[dict[str, np.ndarray]] = None
    n_train = int(np.sum(dataset.split == TRAIN))
    for epoch in range(1, cfg.epochs + 1):
        epoch_stream = stream.child(f"epoch{epoch}")
        drop_rng = epoch_stream.child("dropout").generator()
        shuffle_seed = epoch_stream.child("shuffle").key()
        loss_sum = 0.0
        for step, batch in enumerate(
                batches(dataset, TRAIN, cfg.batch_size, shuffle_seed), start=1):
            m.params.zero_grad()
            with Tape():
                p = model_forward_batch(m, Tensor(batch.x), training=True,
                                        rng=drop_rng)
                loss = bce_loss(p, batch.y)
                backward(loss)
            value = loss.item()
            if not math.isfinite(value):
                raise NonFiniteLossError(epoch, step, value)
            adam_step(m.params, state, cfg)
            loss_sum += value * batch.x.shape[0]
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            metrics = evaluate(m, dataset, eval_tag, threshold)
            entry = EpochLog(epoch=epoch, loss=loss_sum / n_train, metrics=metrics)
            logs.append(entry)
            if log_fn is not None:
                log_fn(entry.line())
            if metrics.accuracy > best_acc:
                best_acc = metrics.accuracy
                best_params = m.params.clone_data()
    if best_params is not None:
        m.params.load_data(best_params)
    return m, logs


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradcheckReport:
    passed: bool
    max_rel_err: float
    worst_name: str
    worst_index: int
    n_checked: int
    tolerance: float

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{verdict} max_rel_err={self.max_rel_err:.3e} "
                f"at {self.worst_name}[{self.worst_index}] "
                f"({self.n_checked} coordinates, tol={self.tolerance:.1e})")


def gradcheck(forward_fn: Callable[[], Tensor],
              params: list[tuple[str, Tensor]],
              tolerance: float = 1e-4, h: float = 1e-5,
              max_coords: int = 12, seed: int = 0) -> GradcheckReport:
    """Compare reverse-mode gradients of a scalar-valued closure against
    central finite differences.

    Coordinates are sampled (without replacement) for tensors larger than
    max_coords. Relative error uses a 1e-8 floor so near-zero pairs compare
    absolutely. The closure must be deterministic and dropout-free.
    """
    for _, t in params:
        t.requires_grad = True
        t.grad = None
    with Tape():
        loss = forward_fn()
        backward(loss)
    pick = SeedStream(seed).child("gradcheck").generator()
    max_rel = 0.0
    worst_name, worst_index = "", -1
    n_checked = 0
    for name, t in params:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        size = t.size
        if size <= max_coords:
            coords = range(size)
        else:
            coords = sorted(pick.choice(size, size=max_coords, replace=False).tolist())
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = forward_fn().item()
            flat[i] = orig - h
            f_minus = forward_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(gflat[i])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            n_checked += 1
            if rel > max_rel:
                max_rel, worst_name, worst_index = rel, name, i
    return GradcheckReport(passed=max_rel < tolerance, max_rel_err=max_rel,
                           worst_name=worst_name or params[0][0],
                           worst_index=max(worst_index, 0),
                           n_checked=n_checked, tolerance=tolerance)


def toy_model_config(**overrides) -> ModelConfig:
    """Small config used by the gradcheck suite and smoke tests."""
    base = dict(d_model=8, n_blocks=2, n_heads=2, head_dim=4, conv_kernel=15,
                conv_pad=7, d_pwff=16, dropout_p=0.0, t_in=12,
                classifier_hidden=8, seed=5)
    base.update(overrides)
    return ModelConfig(**base)


def _weighted_mean(out: Tensor, weights: np.ndarray) -> Tensor:
    return mean_all(mul(out, Tensor(weights)))


def gradcheck_suite(modules: Optional[list[str]] = None,
                    tolerance: float = 1e-4,
                    max_coords: int = 12) -> dict[str, GradcheckReport]:
    """Gradcheck each sub-module and the end-to-end toy model (float64,
    dropout off). ``modules`` filters by name: pwff, mhsa, conv, block,
    model."""
    cfg = toy_model_config()
    dt = np.float64
    stream = SeedStream(917)
    data_rng = stream.child("data").generator()
    t_len, d = 5, cfg.d_model
    x = Tensor(data_rng.normal(0.0, 1.0, size=(t_len, d)).astype(dt))
    w_out = data_rng.normal(0.0, 1.0, size=(t_len, d)).astype(dt)

    cases: dict[str, tuple[Callable[[], Tensor], list[tuple[str, Tensor]]]] = {}

    pwff = pwff_init(stream.child("pwff"), d, cfg.d_pwff, dt)
    cases["pwff"] = (
        lambda: _weighted_mean(pwff_forward(x, pwff, cfg), w_out),
        pwff.named("pwff"))

    mhsa = mhsa_init(stream.child("mhsa"), d, cfg.n_heads, cfg.head_dim, dt)
    cases["mhsa"] = (
        lambda: _weighted_mean(mhsa_forward(x, mhsa, cfg), w_out),
        mhsa.named("mhsa"))

    conv = conv_module_init(stream.child("conv"), d, cfg.conv_kernel, dt)
    cases["conv"] = (
        lambda: _weighted_mean(conv_module_forward(x, conv, cfg), w_out),
        conv.named("conv"))

    block = encoder_block_init(stream.child("block"), cfg, dt)
    cases["block"] = (
        lambda: _weighted_mean(encoder_block_forward(x, block, cfg), w_out),
        block.named("block"))

    toy = model_init(cfg, dtype=dt)
    xb = Tensor(data_rng.normal(0.0, 1.0, size=(3, cfg.t_in)).astype(dt))
    yb = np.array([1.0, 0.0, 1.0], dtype=dt)
    cases["model"] = (
        lambda: bce_loss(model_forward_batch(toy, xb), yb),
        [(name, t) for name, t in toy.params.items()])

    if modules is not None:
        unknown = set(modules) - set(cases)
        if unknown:
            raise ContractError(f"unknown gradcheck modules: {sorted(unknown)}")
        cases = {k: v for k, v in cases.items() if k in modules}

    return {name: gradcheck(fn, plist, tolerance=tolerance, max_coords=max_coords)
            for name, (fn, plist) in cases.items()}
