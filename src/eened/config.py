"""Hyperparameter dataclasses shared by the model, trainer, and CLI, and the
one reader of ``key=value`` text (config files and checkpoint headers)."""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, fields
from typing import Iterable

from .tensor import ConfigError


def read_key_values(lines: Iterable[str], where, known) -> dict:
    """``key=value`` lines as a dict: blank and ``#`` lines are skipped, a
    ``-`` in a key reads as ``_``, and each value is a Python literal. An
    error names ``where:line``; a key not in ``known`` is an error."""
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in known:
            raise ConfigError(f"{where}:{lineno}: unknown option {key!r}")
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            raise ConfigError(
                f"{where}:{lineno}: {key}: unparseable value {value!r}") from None
    return out


def _check_types(cfg) -> None:
    """Each field takes the type of its default: an int field a non-bool
    int; a float field also a float, finite as a float. A float field keeps
    the value as a float, so equal configs serialize alike."""
    for f in fields(cfg):
        v, real = getattr(cfg, f.name), isinstance(f.default, float)
        ok = isinstance(v, int) and not isinstance(v, bool)
        if real:
            ok = (ok or isinstance(v, float)) and abs(v) <= sys.float_info.max
        if not ok:
            kind = "a finite real number" if real else "an integer"
            raise ConfigError(f"{f.name} must be {kind}, got {v!r}")
        if real:
            setattr(cfg, f.name, float(v))


def check_range(obj, rule: str, ok, *names: str) -> None:
    """Raise for the first attribute of ``obj`` in ``names`` whose value
    fails ``ok``; the message names it and says it must be ``rule``."""
    for name in names:
        v = getattr(obj, name)
        if not ok(v):
            raise ConfigError(f"{name} must be {rule}, got {v!r}")


def _takes_derived_sizes(cls):
    """Wrap the generated ``__init__`` so it takes the derived sizes
    keyword-only; unlike InitVars, ``dataclasses.replace`` does not pass them."""
    init = cls.__init__

    def __init__(self, *args, head_dim=None, conv_pad=None, **kwargs):
        init(self, *args, **kwargs)
        for name, v in (("head_dim", head_dim), ("conv_pad", conv_pad)):
            if v is not None and (type(v) is not int or v != getattr(self, name)):
                raise ConfigError(f"{name} is derived as {getattr(self, name)}, got {v!r}")

    cls.__init__ = __init__
    return cls


@_takes_derived_sizes
@dataclass
class ModelConfig:
    """Architecture hyperparameters. Two sizes are derived, not set: each
    head's ``head_dim = d_model // n_heads`` (n_heads must divide d_model) and
    the depthwise conv's ``conv_pad = (conv_kernel - 1) // 2``. The constructor
    takes either name, as CK1 headers carry them, only at that value."""

    d_model: int = 512
    n_blocks: int = 3
    n_heads: int = 8
    conv_kernel: int = 15
    d_pwff: int = 2048
    dropout_p: float = 0.1
    t_in: int = 178
    classifier_hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def conv_pad(self) -> int:
        return (self.conv_kernel - 1) // 2

    def validate(self) -> None:
        _check_types(self)
        check_range(self, ">= 1", lambda v: v >= 1, "d_model", "n_blocks", "n_heads",
                    "conv_kernel", "d_pwff", "t_in", "classifier_hidden")
        check_range(self, ">= 0", lambda v: v >= 0, "seed")
        check_range(self, "in [0, 1)", lambda v: 0.0 <= v < 1.0, "dropout_p")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"n_heads must divide d_model: {self.d_model} % {self.n_heads} != 0")
        if self.d_pwff < self.d_model:
            raise ConfigError(
                f"d_pwff ({self.d_pwff}) must be >= d_model ({self.d_model}); "
                f"the feed-forward is an expansion layer")
        if self.conv_kernel % 2 == 0:
            raise ConfigError(f"conv_kernel must be odd, got {self.conv_kernel}")


@dataclass
class TrainConfig:
    """Optimization hyperparameters; Adam's own constants are fixed in
    ``train``."""

    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check_types(self)
        check_range(self, ">= 1", lambda v: v >= 1, "epochs", "batch_size", "eval_every")
        check_range(self, ">= 0", lambda v: v >= 0, "seed")
        check_range(self, "positive", lambda v: v > 0, "lr")


def model_config_to_text(cfg: ModelConfig) -> str:
    """Canonical text form: sorted ``key=value`` lines, one per field, so two
    equal configs always serialize to identical bytes."""
    pairs = {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)}
    return "".join(f"{k}={pairs[k]}\n" for k in sorted(pairs))


def model_config_from_text(text: str) -> ModelConfig:
    """Inverse of :func:`model_config_to_text`."""
    known = {f.name for f in fields(ModelConfig)} | {"head_dim", "conv_pad"}
    return ModelConfig(**read_key_values(text.splitlines(), "model config", known))
