"""Hyperparameter dataclasses shared by the model, trainer, and CLI."""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields

from .tensor import ConfigError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    Attention scores are scaled by 1/sqrt(d_model / n_heads), so n_heads must
    divide d_model; head_dim must agree with that quotient so the concatenated
    head outputs are d_model wide again.
    """

    d_model: int = 512
    n_blocks: int = 3
    n_heads: int = 8
    head_dim: int = 64
    conv_kernel: int = 15
    conv_pad: int = 7
    d_pwff: int = 2048
    dropout_p: float = 0.1
    t_in: int = 178
    classifier_hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("d_model", "n_blocks", "n_heads", "head_dim", "conv_kernel",
                     "d_pwff", "t_in", "classifier_hidden"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if self.n_heads * self.head_dim != self.d_model:
            raise ConfigError(
                f"n_heads * head_dim must equal d_model: "
                f"{self.n_heads} * {self.head_dim} != {self.d_model}")
        if self.d_pwff < self.d_model:
            raise ConfigError(
                f"d_pwff ({self.d_pwff}) must be >= d_model ({self.d_model}); "
                f"the feed-forward is an expansion layer")
        if self.conv_kernel % 2 == 0:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if not _is_int(self.conv_pad) or self.conv_pad != (self.conv_kernel - 1) // 2:
            raise ConfigError(
                f"conv_pad must be (conv_kernel - 1) / 2 = "
                f"{(self.conv_kernel - 1) // 2}, got {self.conv_pad}")
        if not _is_real(self.dropout_p) or not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass
class TrainConfig:
    """Optimization hyperparameters."""

    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    seed: int = 0
    eval_every: int = 1
    warmup_steps: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("epochs", "batch_size", "seed", "eval_every", "warmup_steps"):
            v = getattr(self, name)
            if not _is_int(v):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        for name in ("lr", "adam_beta1", "adam_beta2", "adam_eps", "weight_decay"):
            v = getattr(self, name)
            if not _is_real(v):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0.0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("adam_beta1", "adam_beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if self.adam_eps <= 0.0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


def model_config_to_text(cfg: ModelConfig) -> str:
    """Canonical text form: sorted ``key=value`` lines, one per field, so two
    equal configs always serialize to identical bytes."""
    pairs = {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)}
    return "".join(f"{k}={pairs[k]}\n" for k in sorted(pairs))


def model_config_from_text(text: str) -> ModelConfig:
    """Inverse of :func:`model_config_to_text`."""
    known = {f.name for f in fields(ModelConfig)}
    kwargs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in known:
            raise ConfigError(f"unknown model config line {line!r}")
        try:
            kwargs[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            raise ConfigError(f"unparseable config value in line {line!r}") from None
    return ModelConfig(**kwargs)
