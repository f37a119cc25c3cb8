"""Full network: scalar-to-vector input embedding, a stack of encoder blocks,
mean pooling over time, and a two-layer sigmoid classification head.

Also owns the checkpoint format. A checkpoint is the 8-byte magic
``EENEDCK1``, a u32-length-prefixed canonical text encoding of the model
config, then every parameter in canonical walk order as (u32 name length,
name, u8 rank, u32 extents, little-endian f32 payload). All integers are
little-endian. Round-tripping a float32 model is bitwise lossless.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, model_config_from_text, model_config_to_text
from .encoder import (EncoderBlockParams, encoder_block_forward,
                      encoder_block_init, uniform_init)
from .rng import SeedStream
from .tensor import (ContractError, ParamStore, ShapeError, Tensor, add,
                     matmul, mean_axis, recording, reshape, sigmoid, swish)

MAGIC = b"EENEDCK1"


class CheckpointError(RuntimeError):
    """A checkpoint file could not be used."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the expected magic bytes."""


class CheckpointTruncatedError(CheckpointError):
    """The file ended before the declared payload."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor does not match the config's shape table."""


@dataclass
class EenedModel:
    config: ModelConfig
    embed_w: Tensor  # (1, D)
    embed_b: Tensor  # (D,)
    blocks: list[EncoderBlockParams]
    head_w1: Tensor  # (D, classifier_hidden)
    head_b1: Tensor  # (classifier_hidden,)
    head_w2: Tensor  # (classifier_hidden, 1)
    head_b2: Tensor  # (1,)
    params: ParamStore
    dtype: np.dtype


def named_parameters(m: EenedModel) -> list[tuple[str, Tensor]]:
    """Canonical (name, tensor) walk; defines checkpoint order."""
    out = [("embed.w", m.embed_w), ("embed.b", m.embed_b)]
    for i, block in enumerate(m.blocks):
        out += block.named(f"block{i}")
    out += [("head.w1", m.head_w1), ("head.b1", m.head_b1),
            ("head.w2", m.head_w2), ("head.b2", m.head_b2)]
    return out


def model_init(cfg: ModelConfig, dtype: str | np.dtype = "float32") -> EenedModel:
    """Build a model with all parameters drawn deterministically from
    cfg.seed (each parameter gets its own named stream, so the draw does not
    depend on construction order)."""
    cfg.validate()
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"model dtype must be float32 or float64, got {dt}")
    stream = SeedStream(cfg.seed)
    d = cfg.d_model
    embed = stream.child("embed")
    head = stream.child("head")
    m = EenedModel(
        config=cfg,
        embed_w=uniform_init(embed.child("w").generator(), (1, d), 1, dt),
        embed_b=Tensor(np.zeros((d,), dtype=dt)),
        blocks=[encoder_block_init(stream.child(f"block{i}"), cfg, dt)
                for i in range(cfg.n_blocks)],
        head_w1=uniform_init(head.child("w1").generator(),
                             (d, cfg.classifier_hidden), d, dt),
        head_b1=Tensor(np.zeros((cfg.classifier_hidden,), dtype=dt)),
        head_w2=uniform_init(head.child("w2").generator(),
                             (cfg.classifier_hidden, 1), cfg.classifier_hidden, dt),
        head_b2=Tensor(np.zeros((1,), dtype=dt)),
        params=ParamStore(),
        dtype=dt,
    )
    for name, tensor in named_parameters(m):
        m.params.add(name, tensor)
    return m


# Cache budget of the untaped eval forward, in elements of one activation
# array: 2**18 float32 elements are 1 MB, half the L2 of one core of the
# machine the benchmark figures come from (Intel Xeon, 2 MB L2 per core);
# blocks of 3 to 5 desk-config rows were the fastest. A block also holds at
# least EVAL_BLOCK_MIN_STEPS time steps, so that every weight product is a
# GEMM of at least that many rows: with the default config one 178-step row
# per block was slower than two, whose widest activation overflows the
# budget.
EVAL_BLOCK_ELEMS = 1 << 18
EVAL_BLOCK_MIN_STEPS = 256


def eval_block_rows(cfg: ModelConfig) -> int:
    """Rows per block of the untaped eval forward: the most rows whose widest
    activation, t_in x max(d_pwff, 2 d_model, t_in) elements per row (the
    pwff expansion, the conv module's GLU input or one head's scores), fits
    EVAL_BLOCK_ELEMS, but at least EVAL_BLOCK_MIN_STEPS / t_in rows."""
    widest = cfg.t_in * max(cfg.d_pwff, 2 * cfg.d_model, cfg.t_in)
    return max(math.ceil(EVAL_BLOCK_MIN_STEPS / cfg.t_in),
               EVAL_BLOCK_ELEMS // widest)


def model_forward_batch(m: EenedModel, x: Tensor, training: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Probabilities for a (B, t_in) batch of segments, returned as (B,).

    The caller's batch size only sets how rows are gathered. When no tape
    is recording and ``training`` is False, the rows are independent, so the
    encoder runs over blocks of ``eval_block_rows`` rows whose activations
    stay in cache; the probabilities match the row-by-row forward's to float
    rounding (BLAS may order a product's sums differently for another row
    count). Taped or training forwards run the whole batch in one pass, so
    the tape graph and the dropout stream do not depend on the block size.
    """
    if x.ndim != 2 or x.shape[1] != m.config.t_in:
        raise ShapeError(
            f"expected input of shape (B, {m.config.t_in}), got {x.shape}")
    if x.dtype != m.dtype:
        x = Tensor(x.data.astype(m.dtype))
    if training or recording():
        return _forward(m, x, training, rng)
    rows = eval_block_rows(m.config)
    out = np.empty(x.shape[0], dtype=m.dtype)
    for i in range(0, len(out), rows):
        out[i:i + rows] = _forward(m, Tensor(x.data[i:i + rows]), False, None).data
    return Tensor(out)


def _forward(m: EenedModel, x: Tensor, training: bool,
             rng: np.random.Generator | None) -> Tensor:
    b = x.shape[0]
    h = reshape(x, (b, m.config.t_in, 1))
    h = add(matmul(h, m.embed_w), m.embed_b)
    for block in m.blocks:
        h = encoder_block_forward(h, block, m.config, training, rng)
    pooled = mean_axis(h, 1)
    z = swish(add(matmul(pooled, m.head_w1), m.head_b1))
    z = add(matmul(z, m.head_w2), m.head_b2)
    return reshape(sigmoid(z), (b,))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_write(path):
    """Open a binary file for writing in place of ``path``. The bytes go to a
    temporary file in the same directory, which is synced and replaces
    ``path`` only once the block completes; on any failure it is removed, so
    any previous file at ``path`` stays as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(m: EenedModel, path) -> None:
    """Write the model to ``path`` with ``atomic_write``. Payloads are
    little-endian float32, so saving a float64 model rounds its values."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        cfg_text = model_config_to_text(m.config).encode("utf-8")
        fh.write(struct.pack("<I", len(cfg_text)) + cfg_text)
        for name, tensor in named_parameters(m):
            name_b = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(name_b)}sB{tensor.ndim}I",
                                 len(name_b), name_b, tensor.ndim,
                                 *tensor.shape))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4"))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointTruncatedError(
                f"checkpoint ends at byte {len(self.buf)} but {self.pos + n} are needed")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def done(self) -> bool:
        return self.pos == len(self.buf)


def load_checkpoint(path, dtype: str | np.dtype = "float32") -> EenedModel:
    """Read a checkpoint and return a model; validates magic, config
    invariants, and every tensor against the config's shape table."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointMagicError(f"{path}: not a model checkpoint (bad magic)")
    cfg_text = r.take(r.u32()).decode("utf-8")
    cfg = model_config_from_text(cfg_text)
    m = model_init(cfg, dtype)
    for name, tensor in named_parameters(m):
        stored = r.take(r.u32()).decode("utf-8")
        if stored != name:
            raise CheckpointError(
                f"{path}: expected tensor {name!r}, found {stored!r}")
        rank = r.u8()
        shape = tuple(struct.unpack(f"<{rank}I", r.take(4 * rank))) if rank else ()
        if shape != tensor.shape:
            raise CheckpointShapeError(
                f"{path}: tensor {name!r} has shape {shape}, config implies {tensor.shape}")
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = np.frombuffer(r.take(4 * n), dtype="<f4", count=n).reshape(shape)
        if not np.all(np.isfinite(payload)):
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        tensor.data[...] = payload.astype(m.dtype)
    if not r.done():
        raise CheckpointError(
            f"{path}: {len(r.buf) - r.pos} unexpected trailing bytes")
    return m
