"""Full network: scalar-to-vector input embedding, a stack of encoder blocks,
mean pooling over time, and a two-layer sigmoid classification head.

Also owns the checkpoint format. A checkpoint is the 8-byte magic
``EENEDCK1``, a u32-length-prefixed canonical text encoding of the model
config, then every parameter in canonical walk order as (u32 name length,
name, u8 rank, u32 extents, little-endian f32 payload). All integers are
little-endian. Round-tripping a float32 model is bitwise lossless.

A checkpoint always loads as a float32 model whose parameters are views of
one arena: a first pass checks the headers, a second reads the payloads on
every core (``load_checkpoint``). Loading draws no random numbers and holds
no copy of the file, so its peak memory is about the parameters' own size.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, model_config_from_text, model_config_to_text
from .encoder import (EncoderBlockParams, child, encoder_block_forward,
                      encoder_block_init, named, uniform_init)
from .rng import SeedStream
from .tensor import (ConfigError, ContractError, ParamStore, ShapeError,
                     Tensor, add, cpu_workers, keep_ops_whole, matmul,
                     mean_axis, recording, reshape, sigmoid, swish)

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
        out += named(block, f"block{i}")
    out += [("head.w1", m.head_w1), ("head.b1", m.head_b1),
            ("head.w2", m.head_w2), ("head.b2", m.head_b2)]
    return out


def model_init(cfg: ModelConfig, dtype: str | np.dtype = "float32", *,
               _draw: bool = True) -> EenedModel:
    """Build a model with all parameters drawn deterministically from
    cfg.seed (each parameter gets its own named stream, so the draw does not
    depend on construction order). ``_draw=False`` is for
    ``load_checkpoint`` alone: nothing is drawn, and the weights are left
    empty for it to read their shapes from and then replace."""
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


def run_on_cpus(fn, items) -> None:
    """Call ``fn`` on each of ``items`` on a pool of at most ``cpu_workers``
    threads that lives for this call, or in the calling thread when there is
    one worker or one item. The exception of the first failing item, in
    ``items`` order, is re-raised once every thread has stopped; items not yet
    started are then skipped. The pool's threads keep their tape ops whole,
    so the items, not the ops, take the cores; items run in the calling
    thread may split their ops."""
    workers = min(cpu_workers(), len(items))
    if workers <= 1:
        for item in items:
            fn(item)
        return
    # imported here: concurrent.futures pulls in logging (about 0.5 MB
    # resident), which calls that never start a pool need not pay
    from concurrent.futures import ThreadPoolExecutor

    # map yields in item order and cancels the queued items on an exception
    with ThreadPoolExecutor(workers, initializer=keep_ops_whole) as pool:
        list(pool.map(fn, items))


def model_forward_batch(m: EenedModel, x: Tensor, training: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Probabilities for a (B, t_in) batch of segments, returned as (B,).

    A training forward applies dropout drawn from ``rng``, so it needs one
    (``ContractError`` without); otherwise ``rng`` is ignored.

    The caller's batch size only sets how rows are gathered. When no tape
    is recording and ``training`` is False, the rows are independent, so the
    encoder runs over blocks of ``eval_block_rows`` rows whose activations
    stay in cache; the probabilities match the row-by-row forward's to float
    rounding (BLAS may order a product's sums differently for another row
    count). The blocks run on ``run_on_cpus``; each block computes what it
    would serially and writes only its own rows, so the result is bitwise
    the same for any number of threads. Taped or training forwards run the
    whole batch in one pass, so the tape graph and the dropout stream do not
    depend on the block size.
    """
    if x.ndim != 2 or x.shape[1] != m.config.t_in:
        raise ShapeError(
            f"expected input of shape (B, {m.config.t_in}), got {x.shape}")
    if training and rng is None:
        raise ContractError("a training forward needs the dropout rng")
    if x.dtype != m.dtype:
        x = Tensor(x.data.astype(m.dtype))
    if training or recording():
        return _forward(m, x, rng if training else None)
    rows = eval_block_rows(m.config)
    out = np.empty(x.shape[0], dtype=m.dtype)

    def run_block(i: int) -> None:
        out[i:i + rows] = _forward(m, Tensor(x.data[i:i + rows]), None).data

    run_on_cpus(run_block, range(0, len(out), rows))
    return Tensor(out)


def _forward(m: EenedModel, x: Tensor, rng: np.random.Generator | None) -> Tensor:
    b = x.shape[0]
    h = reshape(x, (b, m.config.t_in, 1))
    h = add(matmul(h, m.embed_w), m.embed_b)
    for block in m.blocks:
        h = encoder_block_forward(h, block, m.config, rng)
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
    little-endian float32, so a float64 model is saved rounded and loads
    back as float32."""
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


def _check_read(pos: int, n: int, got: int) -> None:
    if got != n:  # the file shrank while it was being read
        raise CheckpointTruncatedError(
            f"checkpoint ended at byte {pos + got} while being read, "
            f"but {pos + n} are needed")


def _identity(fh) -> tuple[int, int, int, int]:
    """What tells an open file apart from one renamed into its place later."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Reader:
    """Reads the headers of an open checkpoint file front to back. Truncation
    is judged from the file's size (``os.fstat``) before each read or skip,
    and a read that returns fewer bytes than asked for fails too, so a short
    read never passes."""

    def __init__(self, fh):
        self.fh = fh
        self.identity = _identity(fh)
        self.size = self.identity[2]
        self.pos = 0

    def _need(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CheckpointTruncatedError(
                f"checkpoint ends at byte {self.size} but {self.pos + n} are needed")

    def take(self, n: int) -> bytes:
        self._need(n)
        out = self.fh.read(n)
        _check_read(self.pos, n, len(out))
        self.pos += n
        return out

    def skip(self, n: int) -> int:
        """Step over the next ``n`` bytes, which the file must hold; returns
        their offset."""
        self._need(n)
        self.fh.seek(n, os.SEEK_CUR)
        self.pos += n
        return self.pos - n

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_checkpoint(path) -> EenedModel:
    """Read a checkpoint and return a float32 model; validates magic, config
    invariants, every tensor against the config's shape table, and every
    value's finiteness. Nothing is drawn at random.

    The first pass reads the headers and steps over the payloads, up to the
    trailing-byte check. Then the empty arrays of ``model_init(cfg,
    _draw=False)`` are released, and every parameter becomes a contiguous
    view of one float32 arena, so one parameter's ``.data`` keeps the whole
    arena alive. The second pass splits the payloads by bytes, in file order,
    into one part per ``cpu_workers`` thread (``run_on_cpus``). Each part
    opens the file, reads its bytes straight into their views (byteswapped
    in place on a big-endian host) and checks them with ``min`` and ``max``,
    through which NaN and infinities propagate. So any header failure
    (truncation, a wrong name or shape, trailing bytes) is raised before a
    non-finite value, and of two non-finite tensors the first in file order
    is named. A partly filled model is never returned, nor one whose parts
    come from two files: a part raises when the path no longer names the file
    the first pass read, as after a save renamed a new file into place."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointMagicError(f"{path}: not a model checkpoint (bad magic)")
        try:
            cfg = model_config_from_text(r.take(r.u32()).decode("utf-8", "replace"))
        except ConfigError as e:
            raise CheckpointError(f"{path}: header: {e}") from None
        m = model_init(cfg, _draw=False)
        params = named_parameters(m)
        offsets = []
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
            offsets.append(r.skip(4 * tensor.size))
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} unexpected trailing bytes")

    shapes = [tensor.shape for _, tensor in params]
    for _, tensor in params:
        tensor.data = None  # release the empty arrays before the arena exists
    starts = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    arena = np.empty(starts[-1], dtype=np.float32)
    for (_, tensor), shape, start, end in zip(params, shapes, starts, starts[1:]):
        tensor.data = arena[start:end].reshape(shape)

    def read_part(part: tuple[int, int]) -> None:
        lo, hi = part
        with open(path, "rb") as part_fh:
            if _identity(part_fh) != r.identity:
                raise CheckpointError(f"{path}: replaced while being read")
            for (name, _), offset, start, end in zip(params, offsets, starts, starts[1:]):
                a, b = max(start, lo), min(end, hi)
                if a >= b:
                    continue
                view = arena[a:b]
                pos = offset + 4 * (a - start)
                part_fh.seek(pos)
                _check_read(pos, view.nbytes,
                            part_fh.readinto(memoryview(view).cast("B")))
                if sys.byteorder != "little":
                    view.byteswap(inplace=True)
                if not (math.isfinite(view.min()) and math.isfinite(view.max())):
                    raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")

    parts = cpu_workers()
    cuts = [arena.size * k // parts for k in range(parts + 1)]
    run_on_cpus(read_part, list(zip(cuts, cuts[1:])))
    return m
