"""Encoder-block sub-modules: feed-forward, self-attention, convolution.

A block applies them macaron style: a half-step feed-forward, self-attention,
the convolution module, a second half-step feed-forward, and a final layer
norm. Residual connections live where each forward function documents them;
the attention branch is returned pre-residual and the caller adds it.

Every forward accepts a (T, D) input or a batched (B, T, D) input; parameter
tensors are rank <= 2 and broadcast over the batch axis. A forward applies
dropout when it is given the dropout ``rng`` (training) and none without one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import math

import numpy as np

from .config import ModelConfig
from .rng import SeedStream
from .tensor import (Tensor, add, concat_last, conv1d_depthwise,
                     conv1d_pointwise, dropout, layer_norm, matmul, mul,
                     scale, sigmoid, slice_last, softmax_rows, swish,
                     transpose_last2)


def uniform_init(stream: Optional[SeedStream], shape: tuple[int, ...],
                 fan_in: int, dtype) -> Tensor:
    """Weight init: uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) from the
    stream's generator. With no stream nothing is drawn and the array is
    left uninitialised, for a caller that replaces it (checkpoint load);
    the ``*_init`` functions pass a ``None`` stream down unchanged."""
    if stream is None:
        return Tensor(np.empty(shape, dtype=dtype))
    bound = math.sqrt(1.0 / fan_in)
    return Tensor(stream.generator().uniform(-bound, bound, size=shape).astype(dtype))


def child(stream: Optional[SeedStream], name: str) -> Optional[SeedStream]:
    """``stream.child(name)``, or None when there is no stream."""
    return None if stream is None else stream.child(name)


def named(params, prefix: str) -> list[tuple[str, Tensor]]:
    """The (name, tensor) pairs of a parameter dataclass, in field order: a
    tensor field is ``prefix.field``, the items of a list field are
    ``prefix.field0``, ``prefix.field1``, ..., and a nested dataclass is
    walked under ``prefix.field``. This walk defines the checkpoint order
    (``named_parameters``), so a reordered or renamed field no longer loads
    existing checkpoints."""
    out = []
    for f in fields(params):
        value, name = getattr(params, f.name), f"{prefix}.{f.name}"
        if isinstance(value, Tensor):
            out.append((name, value))
        elif isinstance(value, list):
            out += [(f"{name}{i}", t) for i, t in enumerate(value)]
        else:
            out += named(value, name)
    return out


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def _ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# position-wise feed-forward
# ---------------------------------------------------------------------------


@dataclass
class PwffParams:
    """Two-layer expansion MLP. d_pwff >= D (expansion layer)."""

    w1: Tensor  # (D, d_pwff)
    b1: Tensor  # (d_pwff,)
    w2: Tensor  # (d_pwff, D)
    b2: Tensor  # (D,)
    ln_gamma: Tensor  # (D,)
    ln_beta: Tensor  # (D,)


def pwff_init(stream: Optional[SeedStream], d_model: int, d_pwff: int,
              dtype) -> PwffParams:
    return PwffParams(
        w1=uniform_init(child(stream, "w1"), (d_model, d_pwff), d_model, dtype),
        b1=_zeros((d_pwff,), dtype),
        w2=uniform_init(child(stream, "w2"), (d_pwff, d_model), d_pwff, dtype),
        b2=_zeros((d_model,), dtype),
        ln_gamma=_ones((d_model,), dtype),
        ln_beta=_zeros((d_model,), dtype),
    )


def pwff_forward(x: Tensor, p: PwffParams, cfg: ModelConfig,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
    """x + Dropout(Swish(LN(x) W1 + b1) W2 + b2) / 2 (half-step residual
    included)."""
    h = layer_norm(x, p.ln_gamma, p.ln_beta)
    h = add(matmul(h, p.w1), p.b1)
    h = swish(h)
    h = add(matmul(h, p.w2), p.b2)
    h = dropout(h, cfg.dropout_p, rng)
    return add(x, scale(h, 0.5))


# ---------------------------------------------------------------------------
# multi-head self-attention
# ---------------------------------------------------------------------------


@dataclass
class MhsaParams:
    """Per-head projection matrices (no biases) and the output projection."""

    q: list[Tensor]  # H tensors, each (D, head_dim)
    k: list[Tensor]
    v: list[Tensor]
    o: Tensor  # (D, D)
    ln_gamma: Tensor  # (D,)
    ln_beta: Tensor  # (D,)


def mhsa_init(stream: Optional[SeedStream], d_model: int, n_heads: int,
              dtype) -> MhsaParams:
    def heads(tag):
        return [uniform_init(child(stream, f"{tag}{h}"),
                             (d_model, d_model // n_heads), d_model, dtype)
                for h in range(n_heads)]

    return MhsaParams(
        q=heads("q"), k=heads("k"), v=heads("v"),
        o=uniform_init(child(stream, "o"), (d_model, d_model), d_model, dtype),
        ln_gamma=_ones((d_model,), dtype),
        ln_beta=_zeros((d_model,), dtype),
    )


def _attention(xn: Tensor, qh: Tensor, kh: Tensor, cfg: ModelConfig) -> Tensor:
    """One head's attention matrix A_h = softmax(Q_h K_h^T / sqrt(D / H)) over
    the normalized input. The scale is applied to Q_h (T x head_dim) rather
    than to the T x T scores: the same product, on fewer elements."""
    q = scale(matmul(xn, qh), 1.0 / math.sqrt(cfg.d_model / cfg.n_heads))
    k = matmul(xn, kh)
    return softmax_rows(matmul(q, transpose_last2(k)))


def mhsa_forward(x: Tensor, p: MhsaParams, cfg: ModelConfig,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
    """Scaled dot-product attention over the normalized input.

    Per head h: S_h = Q_h K_h^T, A_h = softmax(S_h / sqrt(D / H)),
    C_h = A_h V_h; the concatenated heads go through the output projection and
    dropout. Returns the branch value only: the caller adds the residual. No
    positional encoding, so the map is timestep-permutation-equivariant.
    """
    xn = layer_norm(x, p.ln_gamma, p.ln_beta)
    heads = [matmul(_attention(xn, qh, kh, cfg), matmul(xn, vh))
             for qh, kh, vh in zip(p.q, p.k, p.v)]
    out = matmul(concat_last(heads), p.o)
    return dropout(out, cfg.dropout_p, rng)


# ---------------------------------------------------------------------------
# convolution module
# ---------------------------------------------------------------------------


@dataclass
class ConvModuleParams:
    """Pointwise expansion, gated linear unit, depthwise conv, projection."""

    pw1_w: Tensor  # (D, 2D)
    pw1_b: Tensor  # (2D,)
    glu_w1: Tensor  # (D, D)
    glu_b1: Tensor  # (D,)
    glu_w2: Tensor  # (D, D)
    glu_b2: Tensor  # (D,)
    dw_kernel: Tensor  # (D, K)
    dw_bias: Tensor  # (D,)
    proj_w: Tensor  # (D, D)
    proj_b: Tensor  # (D,)
    ln_gamma: Tensor  # (D,)
    ln_beta: Tensor  # (D,)


def conv_module_init(stream: Optional[SeedStream], d_model: int, kernel: int,
                     dtype) -> ConvModuleParams:
    return ConvModuleParams(
        pw1_w=uniform_init(child(stream, "pw1_w"), (d_model, 2 * d_model), d_model, dtype),
        pw1_b=_zeros((2 * d_model,), dtype),
        glu_w1=uniform_init(child(stream, "glu_w1"), (d_model, d_model), d_model, dtype),
        glu_b1=_zeros((d_model,), dtype),
        glu_w2=uniform_init(child(stream, "glu_w2"), (d_model, d_model), d_model, dtype),
        glu_b2=_zeros((d_model,), dtype),
        dw_kernel=uniform_init(child(stream, "dw_kernel"), (d_model, kernel), kernel, dtype),
        dw_bias=_zeros((d_model,), dtype),
        proj_w=uniform_init(child(stream, "proj_w"), (d_model, d_model), d_model, dtype),
        proj_b=_zeros((d_model,), dtype),
        ln_gamma=_ones((d_model,), dtype),
        ln_beta=_zeros((d_model,), dtype),
    )


def conv_module_forward(x: Tensor, p: ConvModuleParams, cfg: ModelConfig,
                        rng: Optional[np.random.Generator] = None) -> Tensor:
    """LN, pointwise conv to 2D channels, gated linear unit over the halves,
    depthwise conv, Swish, linear projection, dropout, plus the residual
    (included here)."""
    d = x.shape[-1]
    h = layer_norm(x, p.ln_gamma, p.ln_beta)
    h = conv1d_pointwise(h, p.pw1_w, p.pw1_b)
    first = slice_last(h, 0, d)
    second = slice_last(h, d, 2 * d)
    gate = sigmoid(add(matmul(second, p.glu_w2), p.glu_b2))
    h = mul(add(matmul(first, p.glu_w1), p.glu_b1), gate)
    h = conv1d_depthwise(h, p.dw_kernel, p.dw_bias)
    h = swish(h)
    h = add(matmul(h, p.proj_w), p.proj_b)
    h = dropout(h, cfg.dropout_p, rng)
    return add(x, h)


# ---------------------------------------------------------------------------
# encoder block
# ---------------------------------------------------------------------------


@dataclass
class EncoderBlockParams:
    pwff_a: PwffParams
    mhsa: MhsaParams
    conv: ConvModuleParams
    pwff_b: PwffParams
    final_ln_gamma: Tensor  # (D,)
    final_ln_beta: Tensor  # (D,)


def encoder_block_init(stream: Optional[SeedStream], cfg: ModelConfig,
                       dtype) -> EncoderBlockParams:
    return EncoderBlockParams(
        pwff_a=pwff_init(child(stream, "pwff_a"), cfg.d_model, cfg.d_pwff, dtype),
        mhsa=mhsa_init(child(stream, "mhsa"), cfg.d_model, cfg.n_heads, dtype),
        conv=conv_module_init(child(stream, "conv"), cfg.d_model, cfg.conv_kernel, dtype),
        pwff_b=pwff_init(child(stream, "pwff_b"), cfg.d_model, cfg.d_pwff, dtype),
        final_ln_gamma=_ones((cfg.d_model,), dtype),
        final_ln_beta=_zeros((cfg.d_model,), dtype),
    )


def encoder_block_forward(x: Tensor, p: EncoderBlockParams, cfg: ModelConfig,
                          rng: Optional[np.random.Generator] = None) -> Tensor:
    """Half-step feed-forward, attention residual, convolution module, second
    half-step feed-forward, final layer norm."""
    f1 = pwff_forward(x, p.pwff_a, cfg, rng)
    f2 = add(f1, mhsa_forward(f1, p.mhsa, cfg, rng))
    f3 = conv_module_forward(f2, p.conv, cfg, rng)
    h = pwff_forward(f3, p.pwff_b, cfg, rng)
    return layer_norm(h, p.final_ln_gamma, p.final_ln_beta)
