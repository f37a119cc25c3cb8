"""Full network: scalar-to-vector input embedding, a stack of encoder blocks,
mean pooling over time, and a two-layer sigmoid classification head.

Also owns the checkpoint format. A checkpoint is the 8-byte magic
``EENEDCK1``, a u32-length-prefixed canonical text encoding of the model
config, then every parameter in canonical walk order as (u32 name length,
name, u8 rank, u32 extents, little-endian f32 payload). All integers are
little-endian. Round-tripping a float32 model is bitwise lossless.

Loading draws no random numbers and holds no copy of the file: the model's
parameter arrays are allocated empty (``model_init`` with ``_draw=False``)
and each payload is read from the open file straight into its array, so a
load costs about one pass over the file and its peak memory is about the
parameters' own size.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, model_config_from_text, model_config_to_text
from .encoder import (EncoderBlockParams, child, encoder_block_forward,
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


def model_init(cfg: ModelConfig, dtype: str | np.dtype = "float32", *,
               _draw: bool = True) -> EenedModel:
    """Build a model with all parameters drawn deterministically from
    cfg.seed (each parameter gets its own named stream, so the draw does not
    depend on construction order). ``_draw=False`` is for
    ``load_checkpoint`` alone: nothing is drawn and the weights are left
    uninitialised for it to fill."""
    cfg.validate()
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"model dtype must be float32 or float64, got {dt}")
    stream = SeedStream(cfg.seed) if _draw else None
    d = cfg.d_model
    embed = child(stream, "embed")
    head = child(stream, "head")
    m = EenedModel(
        config=cfg,
        embed_w=uniform_init(child(embed, "w"), (1, d), 1, dt),
        embed_b=Tensor(np.zeros((d,), dtype=dt)),
        blocks=[encoder_block_init(child(stream, f"block{i}"), cfg, dt)
                for i in range(cfg.n_blocks)],
        head_w1=uniform_init(child(head, "w1"), (d, cfg.classifier_hidden), d, dt),
        head_b1=Tensor(np.zeros((cfg.classifier_hidden,), dtype=dt)),
        head_w2=uniform_init(child(head, "w2"), (cfg.classifier_hidden, 1),
                             cfg.classifier_hidden, dt),
        head_b2=Tensor(np.zeros((1,), dtype=dt)),
        params=ParamStore(),
        dtype=dt,
    )
    for name, tensor in named_parameters(m):
        m.params.add(name, tensor)
    return m


# Cache budget of one eval block, in elements of one activation array, per
# core: the blocks run in parallel, one per core, so each gets its own core's
# L2. 2**18 float32 elements are 1 MB, half the L2 of one core of the machine
# the benchmark figures come from (Intel Xeon, 2 MB L2 per core); blocks of 3
# to 5 desk-config rows were the fastest. A block also holds at least
# EVAL_BLOCK_MIN_STEPS time steps, so that every weight product is a GEMM of
# at least that many rows: with the default config one 178-step row per block
# was slower than two, whose widest activation overflows the budget.
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


def eval_workers() -> int:
    """Threads for the untaped eval forward: one per CPU this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def model_forward_batch(m: EenedModel, x: Tensor, training: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Probabilities for a (B, t_in) batch of segments, returned as (B,).

    The caller's batch size only sets how rows are gathered. When no tape
    is recording and ``training`` is False, the rows are independent, so the
    encoder runs over blocks of ``eval_block_rows`` rows whose activations
    stay in cache; the probabilities match the row-by-row forward's to float
    rounding (BLAS may order a product's sums differently for another row
    count). The blocks run on a thread pool of ``eval_workers`` threads, at
    most one per block, that lives for this call; each block computes what
    it would serially and writes only its own rows, so the result is bitwise
    the same for any number of threads. With one block or one CPU they run
    in the calling thread. Taped or training forwards run the whole batch in
    one pass, so the tape graph and the dropout stream do not depend on the
    block size.
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
    starts = range(0, len(out), rows)

    def run_block(i: int) -> None:
        out[i:i + rows] = _forward(m, Tensor(x.data[i:i + rows]), False, None).data

    workers = min(eval_workers(), len(starts))
    if workers <= 1:
        for i in starts:
            run_block(i)
    else:
        # imported here: concurrent.futures pulls in logging (about 0.5 MB
        # resident), which forwards that never start a pool need not pay
        from concurrent.futures import ThreadPoolExecutor

        # map re-raises a block's exception here and cancels the queued ones
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run_block, starts))
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
    """Reads an open checkpoint file front to back. Truncation is judged
    from the file's size (``os.fstat``) before each read, and a read that
    returns fewer bytes than asked for fails too, so a short read never
    passes."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _need(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CheckpointTruncatedError(
                f"checkpoint ends at byte {self.size} but {self.pos + n} are needed")

    def _advance(self, n: int, got: int) -> None:
        if got != n:  # the file shrank while it was being read
            raise CheckpointTruncatedError(
                f"checkpoint ended at byte {self.pos + got} while being read, "
                f"but {self.pos + n} are needed")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._need(n)
        out = self.fh.read(n)
        self._advance(n, len(out))
        return out

    def take_into(self, arr: np.ndarray) -> None:
        """Fill the C-contiguous ``arr`` with the next ``arr.nbytes`` bytes."""
        self._need(arr.nbytes)
        self._advance(arr.nbytes, self.fh.readinto(memoryview(arr).cast("B")))

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_checkpoint(path, dtype: str | np.dtype = "float32") -> EenedModel:
    """Read a checkpoint and return a model; validates magic, config
    invariants, and every tensor against the config's shape table. Nothing
    is drawn at random: the parameter arrays are allocated empty, and each
    payload is read from the file straight into its array (through one
    reused float32 scratch buffer, then cast, when the model's arrays are
    not native little-endian float32). Any failure raises, so a partly
    filled model is never returned."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointMagicError(f"{path}: not a model checkpoint (bad magic)")
        cfg = model_config_from_text(r.take(r.u32()).decode("utf-8", "replace"))
        m = model_init(cfg, dtype, _draw=False)
        params = named_parameters(m)
        direct = m.dtype == np.dtype("<f4")
        scratch = None if direct else np.empty(max(t.size for _, t in params), "<f4")
        for name, tensor in params:
            stored = r.take(r.u32())
            if stored != name.encode("utf-8"):
                raise CheckpointError(f"{path}: expected tensor {name!r}, "
                                      f"found {stored.decode('utf-8', 'replace')!r}")
            rank = r.u8()
            shape = tuple(struct.unpack(f"<{rank}I", r.take(4 * rank))) if rank else ()
            if shape != tensor.shape:
                raise CheckpointShapeError(
                    f"{path}: tensor {name!r} has shape {shape}, config implies {tensor.shape}")
            payload = tensor.data if direct else scratch[:tensor.size].reshape(shape)
            r.take_into(payload)
            if not np.isfinite(payload).all():
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
            if not direct:
                tensor.data[...] = payload
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} unexpected trailing bytes")
    return m
