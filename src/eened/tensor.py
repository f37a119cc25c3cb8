"""Dense rank-<=3 tensors with reverse-mode automatic differentiation.

The gradient tape is a Wengert list: ops append nodes in execution order, so
the list is topologically sorted by construction and ``backward`` is a single
reverse sweep that visits each node exactly once. Ops compute with numpy and
record a backward closure holding whatever forward values the gradient needs.
A tape is swept once: the sweep drops each closure, and the forward arrays it
held, as soon as it has called it.

Tensors are float32 or float64. Ops are pure; nothing is recorded unless a
``Tape`` is active, so evaluation-mode forward passes carry no bookkeeping.

A large op (products, row-wise ops, the depthwise convolution, and the
gradient sums of the sweep) splits its numpy work into parts, one per CPU,
on a pool of part threads started at the first split and kept. Each part
writes only its own slice of an output the calling thread allocated, and no
part cuts an axis that a result sums over, so a split op is bitwise the
whole one. Parts run numpy only: the calling thread records every node and
runs every closure. Below ``SPLIT_MIN_ELEMS``, with one CPU, or inside a
part, an op runs whole. Independent items (the untaped eval forward's
blocks, a checkpoint's payloads) run on the same threads (``run_on_cpus``).

A tape belongs to the thread that entered it: only that thread's ops record
on it, and only one tape may be active in the process at a time.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """A structural precondition (hyperparameter invariant) is violated."""


class ContractError(RuntimeError):
    """An API contract was broken (non-scalar loss, missing gradient, ...)."""


# ---------------------------------------------------------------------------
# row parts on the program's threads
# ---------------------------------------------------------------------------

# Elements an op must write before it splits over the part threads, or, for
# a product, its multiply-adds / GEMM_ELEM_MACS. Below it the op makes its
# numpy calls whole in the calling thread: a split hands a part to another
# thread and back, about 35 us, and splitting a (256, 256) row op or a
# (890, 64) @ (64, 64) product made it slower on a 2-core box.
SPLIT_MIN_ELEMS = 1 << 18
GEMM_ELEM_MACS = 32


def cpu_workers() -> int:
    """Threads for the work the program splits across cores (large tape
    ops, the untaped eval forward's blocks, a checkpoint's payloads): one per
    CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Local(threading.local):
    whole = False  # True in a part thread, and in a thread running its part
    tape: Optional["Tape"] = None  # the tape this thread entered


_LOCAL = _Local()


def _parts(work: int) -> int:
    """Parts to cut an op of ``work`` elements into: one (run it whole)
    below SPLIT_MIN_ELEMS or in a thread that keeps its ops whole, else one
    per CPU."""
    if work < SPLIT_MIN_ELEMS or _LOCAL.whole:
        return 1
    return cpu_workers()


class _PartThread:
    """A daemon thread that runs the tasks handed to it one at a time, each
    under the floating-point error state of the thread that handed it over.
    Two locks hand a task over and back: 35 us a round trip (median), against
    51 us through a standard-library executor on the same 2-core box."""

    def __init__(self):
        self.start, self.done = threading.Lock(), threading.Lock()
        self.start.acquire()
        self.done.acquire()
        self.task = self.errstate = self.error = None
        threading.Thread(target=self._loop, name="eened-part", daemon=True).start()

    def _loop(self) -> None:
        _LOCAL.whole = True  # the parts of one split take the cores
        while True:
            self.start.acquire()
            try:
                with np.errstate(**self.errstate):
                    self.task()
            except BaseException as e:  # re-raised in the caller by _run
                self.error = e
            self.task = None
            self.done.release()


_PART_THREADS: list[_PartThread] = []  # started at the first split, kept
_PARTS_BUSY = threading.Lock()  # held by the thread whose split they run


def _forget_part_threads() -> None:
    """A forked child has none of its parent's threads."""
    global _PARTS_BUSY
    _PART_THREADS.clear()
    _PARTS_BUSY = threading.Lock()


os.register_at_fork(after_in_child=_forget_part_threads)


def _run(tasks: Sequence[Callable[[], None]]) -> None:
    """Run ``tasks[0]`` in the calling thread and each other task on its own
    part thread, and return when all have finished; the exception of the
    first failing task, in ``tasks`` order, is then re-raised. While another
    thread's split holds the part threads, the tasks all run here in order.
    The calling thread runs its tasks with its ops whole."""
    held = _PARTS_BUSY.acquire(blocking=False)
    was_whole, _LOCAL.whole = _LOCAL.whole, True
    try:
        threads = []
        if held:
            while len(_PART_THREADS) < len(tasks) - 1:
                _PART_THREADS.append(_PartThread())
            threads = _PART_THREADS[:len(tasks) - 1]
        errstate = np.geterr()
        for th, task in zip(threads, tasks[1:]):
            th.task, th.errstate, th.error = task, errstate, None
            th.start.release()
        try:  # tasks[0], or every task when another split holds the threads
            for task in tasks[:len(tasks) - len(threads)]:
                task()
        finally:
            for th in threads:
                th.done.acquire()
        for th in threads:
            error, th.error = th.error, None
            if error is not None:
                raise error
    finally:
        _LOCAL.whole = was_whole
        if held:
            _PARTS_BUSY.release()


def _cuts(n: int, parts: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of ``parts`` near-equal ranges of ``range(n)``
    (fewer when n < parts)."""
    parts = max(1, min(parts, n))
    bounds = [n * k // parts for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _split(parts: int, fn: Callable[[int, int], None], n: int) -> None:
    """``fn(0, n)``, or ``fn(lo, hi)`` on ``parts`` near-equal ranges of
    ``range(n)``, one per thread."""
    if parts == 1:
        fn(0, n)
    else:
        _run([partial(fn, lo, hi) for lo, hi in _cuts(n, parts)])


def run_on_cpus(fn: Callable[[int, int], None], n: int) -> None:
    """Call ``fn(lo, hi)`` on near-equal ranges of ``range(n)`` independent
    items, one per CPU, as the parts of one split (``_run``): the ops inside
    a range run whole, so the ranges, not the ops, take the cores. With one
    range (one CPU, ``n`` <= 1, or a caller inside a part) this is ``fn(0,
    n)`` in place, whose ops may split. When a range fails, those on the
    part threads are not cancelled but run to their end; then the first
    failing range's exception, which is the first failing item's, is
    re-raised."""
    _split(1 if _LOCAL.whole or n <= 1 else cpu_workers(), fn, n)


def _rows(parts: int, kernel: Callable, dtype, *arrays: np.ndarray,
          **whole) -> np.ndarray:
    """``kernel(*arrays, **whole)``, which returns a new array shaped like
    ``arrays[0]``; or, for ``parts`` > 1, that array of ``dtype`` filled on
    row parts, one per thread. The arrays share their leading axes, whose
    flattening gives the rows, and ``whole`` (a weight, a bias) goes to every
    part as it is. Each part calls the kernel on its rows with ``out=`` its
    rows of the result, so the result is bitwise the whole call's."""
    if parts == 1:
        return kernel(*arrays, **whole)
    out = np.empty(arrays[0].shape, dtype)
    rows = [a.reshape(-1, a.shape[-1]) for a in (out,) + arrays]

    def part(lo, hi):
        kernel(*(r[lo:hi] for r in rows[1:]), out=rows[0][lo:hi], **whole)

    _split(parts, part, len(rows[0]))
    return out


def _plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``; on row parts when large and ``b`` has ``a``'s shape or is
    a vector over its last axis (a bias)."""
    parts = _parts(a.size)
    if parts == 1 or b.shape not in (a.shape, a.shape[-1:]):
        return a + b
    return _rows(parts, np.add, np.result_type(a, b), a, np.broadcast_to(b, a.shape))


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("op", "inputs", "backward", "grad", "leaf_tensor")

    def __init__(self, op, inputs, backward, leaf_tensor=None):
        self.op = op
        self.inputs = inputs  # tuple of node ids, all < this node's id
        self.backward = backward  # grad_out -> per-input grads; None for leaves
        self.grad = None
        self.leaf_tensor = leaf_tensor


# Held while a tape is active: leaf stamps on shared parameters (``_leaf_id``)
# and the sweep's ``leaf.grad`` writes would race between two tapes.
_TAPE_OPEN = threading.Lock()


class Tape:
    """Append-only record of differentiable ops, used as a context manager.

    The tape belongs to the thread that entered it: only that thread's ops
    record on it, and ops on other threads run untaped meanwhile. Only one
    tape may be active in the process at a time. An op that splits over the
    part threads still records its one node from the calling thread; the
    parts only fill arrays.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.swept = False

    def __enter__(self) -> "Tape":
        if not _TAPE_OPEN.acquire(blocking=False):
            raise ContractError("a gradient tape is already active")
        _LOCAL.tape = self
        return self

    def __exit__(self, *exc) -> bool:
        _LOCAL.tape = None
        _TAPE_OPEN.release()
        return False


def recording() -> bool:
    """Whether the calling thread has a tape active, so that its ops record
    nodes."""
    return _LOCAL.tape is not None


def _leaf_id(tape: Tape, t: "Tensor") -> int:
    if t._tape is tape:
        return t._tape_id
    node = _Node("leaf", (), None, leaf_tensor=t if t.requires_grad else None)
    tape.nodes.append(node)
    t._tape = tape
    t._tape_id = len(tape.nodes) - 1
    return t._tape_id


def _make(op: str, inputs: Sequence["Tensor"], out_data: np.ndarray,
          backward: Callable[[np.ndarray], tuple]) -> "Tensor":
    """Wrap an op result and record it on the calling thread's tape, if
    any."""
    out = Tensor(out_data)
    tape = _LOCAL.tape
    if tape is not None:
        ids = tuple(_leaf_id(tape, t) for t in inputs)
        tape.nodes.append(_Node(op, ids, backward))
        out._tape = tape
        out._tape_id = len(tape.nodes) - 1
    return out


def backward(loss: "Tensor") -> None:
    """Reverse sweep from a scalar loss, filling ``.grad`` of every leaf
    tensor with ``requires_grad`` that the loss depends on.

    The sweep consumes the tape: each node's closure is dropped once called,
    so the forward arrays it saved are freed while the sweep goes on, and a
    second ``backward`` on the same tape raises ``ContractError``."""
    tape = loss._tape
    if tape is None or loss._tape_id is None:
        raise ContractError("loss is not recorded on a gradient tape")
    if loss.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
    if tape.swept:
        raise ContractError("this tape has already been swept; record a new one")
    tape.swept = True
    nodes = tape.nodes
    nodes[loss._tape_id].grad = np.ones_like(loss.data)
    # Inputs always precede their consumers, so one reverse pass suffices and
    # each node's gradient is complete by the time it is visited.
    for node in reversed(nodes):
        fn, node.backward = node.backward, None
        g, node.grad = node.grad, None
        if g is None:
            continue
        if fn is not None:
            for i, gi in zip(node.inputs, fn(g)):
                if gi is not None:
                    tgt = nodes[i]
                    tgt.grad = gi if tgt.grad is None else _plus(tgt.grad, gi)
        leaf = node.leaf_tensor
        if leaf is not None:
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense float array of rank 0..3, optionally tracked on the active tape.

    Treat instances as immutable values; only the training loop mutates
    parameter ``.data`` in place, between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} > 3 is unsupported (shape {arr.shape})")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None
        self._tape_id: Optional[int] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"

    def __rsub__(self, other):
        """``c - t`` for a python scalar c, as a ``sub`` node."""
        return sub(Tensor(np.asarray(other, dtype=self.dtype)), self)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape of the broadcast operand."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, ext in enumerate(shape):
        if ext == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# arithmetic primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make("add", (a, b), _plus(a.data, b.data), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make("mul", (a, b), ad * bd, bwd)


def neg(a: Tensor) -> Tensor:
    return _make("neg", (a,), -a.data, lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar (no gradient for the scalar)."""
    c = float(c)
    return _make("scale", (a,), a.data * c, lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Rank-2 or rank-3 operands; leading (batch) axes follow
    numpy broadcasting, inner extents must match."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch extents differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    if bd.ndim == 2:
        # A weight product: fold a's leading axes into the rows of one GEMM,
        # so the weight gradient is one GEMM too rather than B summed ones.
        a2 = ad.reshape(-1, ad.shape[-1])
        work = len(a2) * bd.size // GEMM_ELEM_MACS
        # A weight with an extent of 1 makes a product matrix-vector, and a
        # BLAS matrix-vector kernel can round a row differently once its
        # rows are cut: those products stay whole.
        exact = 1 not in bd.shape

        def bwd(g):
            g2 = g.reshape(-1, g.shape[-1])
            parts = _parts(work) if exact else 1
            if parts == 1:
                return (g2 @ bd.T).reshape(ad.shape), a2.T @ g2
            # dx by rows and dW by output columns, each on half the parts:
            # no part cuts the B*T axis that dW sums over
            dx = np.empty(a2.shape, np.result_type(g2, bd))
            dw = np.empty(bd.shape, np.result_type(a2, g2))
            _run([partial(np.matmul, g2[lo:hi], bd.T, out=dx[lo:hi])
                  for lo, hi in _cuts(len(g2), (parts + 1) // 2)]
                 + [partial(np.matmul, a2.T, g2[:, lo:hi], out=dw[:, lo:hi])
                    for lo, hi in _cuts(bd.shape[1], parts // 2)])
            return dx.reshape(ad.shape), dw

        parts = _parts(work) if exact else 1
        if parts == 1:
            out = a2 @ bd
        else:
            out = np.empty((len(a2), bd.shape[1]), np.result_type(ad, bd))
            _split(parts, lambda lo, hi: np.matmul(a2[lo:hi], bd, out=out[lo:hi]),
                   len(a2))
        return _make("matmul", (a, b), out.reshape(ad.shape[:-1] + bd.shape[1:]), bwd)

    # A batched product (attention scores, A.V) splits by batch.
    batched = ad.ndim == bd.ndim == 3
    work = ad.size * bd.shape[-1] // GEMM_ELEM_MACS

    def bwd(g):
        parts = _parts(work) if batched else 1
        if parts == 1:
            ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
            gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
            return ga, gb
        ga = np.empty(ad.shape, np.result_type(g, bd))
        gb = np.empty(bd.shape, np.result_type(ad, g))

        def part(lo, hi):
            np.matmul(g[lo:hi], bd[lo:hi].swapaxes(-1, -2), out=ga[lo:hi])
            np.matmul(ad[lo:hi].swapaxes(-1, -2), g[lo:hi], out=gb[lo:hi])

        _split(parts, part, len(g))
        return ga, gb

    parts = _parts(work) if batched else 1
    if parts == 1:
        out = ad @ bd
    else:
        out = np.empty(ad.shape[:-1] + bd.shape[-1:], np.result_type(ad, bd))
        _split(parts, lambda lo, hi: np.matmul(ad[lo:hi], bd[lo:hi], out=out[lo:hi]),
               len(out))
    return _make("matmul", (a, b), out, bwd)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2 needs rank >= 2, got shape {a.shape}")
    return _make("transpose", (a,), a.data.swapaxes(-1, -2),
                 lambda g: (g.swapaxes(-1, -2),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} ({a.size} values) to {shape}")
    old = a.shape
    return _make("reshape", (a,), a.data.reshape(shape),
                 lambda g: (g.reshape(old),))


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise ShapeError("concat_last of an empty sequence")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last: leading shapes differ: {[p.shape for p in parts]}")
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, offsets, axis=-1))

    out = np.concatenate([p.data for p in parts], axis=-1)
    return _make("concat", tuple(parts), out, bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop] of the last axis."""
    width = a.shape[-1]
    if not (0 <= start < stop <= width):
        raise ShapeError(f"slice [{start}:{stop}] out of range for last axis {width}")
    a_shape = a.shape

    def bwd(g):
        full = np.zeros(a_shape, dtype=g.dtype)
        full[..., start:stop] = g
        return (full,)

    return _make("slice", (a,), a.data[..., start:stop], bwd)


def sum_all(a: Tensor) -> Tensor:
    a_shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g, a_shape).copy(),)

    return _make("sum", (a,), np.asarray(a.data.sum(), dtype=a.dtype), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    a_shape = a.shape

    def bwd(g):
        return (np.broadcast_to(g / n, a_shape).copy(),)

    return _make("mean", (a,), np.asarray(a.data.mean(), dtype=a.dtype), bwd)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis (the axis is removed)."""
    axis = axis if axis >= 0 else a.ndim + axis
    if not 0 <= axis < a.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {a.shape}")
    n = a.shape[axis]

    def bwd(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _make("mean_axis", (a,), a.data.mean(axis=axis), bwd)


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _make("log", (a,), np.log(ad), lambda g: (g / ad,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through unclipped entries."""
    ad = a.data
    mask = (ad >= lo) & (ad <= hi)
    return _make("clip", (a,), np.clip(ad, lo, hi),
                 lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# neural-net primitives
# ---------------------------------------------------------------------------


def _sigmoid_data(x: np.ndarray, out=None) -> np.ndarray:
    """1/(1+exp(-x)) as 0.5*tanh(x/2) + 0.5, in ``out`` or one fresh buffer
    of x's dtype. tanh saturates to +-1 instead of overflowing, so large |x|
    gives exactly 0 or 1."""
    s = np.multiply(x, 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_data(a.data)

    def bwd(g):
        d = np.subtract(1.0, s, dtype=np.result_type(s, g))  # g * s * (1 - s)
        d *= s
        d *= g
        return (d,)

    return _make("sigmoid", (a,), s, bwd)


def swish(a: Tensor) -> Tensor:
    """Elementwise x * sigmoid(x)."""
    x = a.data
    out = _rows(_parts(x.size), _swish_data, x.dtype, x)

    def bwd(g):
        return (_rows(_parts(g.size), _swish_grad, np.result_type(x, g), x, g),)

    return _make("swish", (a,), out, bwd)


def _swish_data(x: np.ndarray, out=None) -> np.ndarray:
    out = _sigmoid_data(x, out)
    out *= x
    return out


def _swish_grad(x: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """g * s * (1 + x*(1-s)), with s = sigmoid(x) recomputed here so that
    the forward fills one buffer."""
    s = _sigmoid_data(x)
    d = np.subtract(1.0, s, out=out, dtype=np.result_type(s, g))
    d *= x
    d += 1.0
    d *= s
    d *= g
    return d


def _row_sum(u: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis (einsum's plain
    accumulation is faster than ``sum``'s pairwise one on short rows)."""
    return np.einsum("...i->...", u)[..., None]


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of matching last-axis rows, kept as a length-1 axis,
    without materializing u * v."""
    return np.einsum("...i,...i->...", u, v)[..., None]


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for overflow safety.

    Every output row is nonnegative and sums to 1; adding a constant to a row
    leaves its softmax unchanged up to rounding of the shifted input.
    """
    y = _rows(_parts(a.size), _softmax_data, a.dtype, a.data)

    def bwd(g):
        return (_rows(_parts(g.size), _softmax_grad, np.result_type(g, y), g, y),)

    return _make("softmax", (a,), y, bwd)


def _softmax_data(x: np.ndarray, out=None) -> np.ndarray:
    y = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= _row_sum(y)
    return y


def _softmax_grad(g: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    d = np.subtract(g, _row_dot(g, y), out=out)  # (g - <g, y>) * y
    d *= y
    return d


LN_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (``LN_EPS`` is
    added to the variance), then scale and shift with per-feature gamma and
    beta."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match feature dim {d}")
    xd, gdat = x.data, gamma.data
    # the normalized rows and their 1/std, which the backward reads
    xhat = np.empty(xd.shape, xd.dtype)
    inv = np.empty(xd.shape[:-1] + (1,), xd.dtype)
    out = _rows(_parts(xd.size), _layer_norm_data, np.result_type(xd, gdat),
                xd, xhat, inv, gamma=gdat, beta=beta.data)

    def bwd(g):
        g2 = g.reshape(-1, d)
        dgamma = np.einsum("ni,ni->i", g2, xhat.reshape(-1, d))
        dbeta = g2.sum(axis=0)
        dx = _rows(_parts(g.size), _layer_norm_grad, np.result_type(g, gdat),
                   g, xhat, inv, gamma=gdat)
        return dx, dgamma, dbeta

    return _make("layer_norm", (x, gamma, beta), out, bwd)


def _layer_norm_data(x, xhat, inv, out=None, *, gamma, beta) -> np.ndarray:
    """Fill ``xhat`` and ``inv``; return (or fill) xhat * gamma + beta."""
    d = x.shape[-1]
    np.subtract(x, _row_sum(x) / d, out=xhat)
    np.divide(1.0, np.sqrt(_row_dot(xhat, xhat) / d + LN_EPS), out=inv)
    xhat *= inv
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _layer_norm_grad(g, xhat, inv, out=None, *, gamma) -> np.ndarray:
    """dL/dxhat = g * gamma, then (dxhat - m1 - xhat*m2) * inv in place."""
    d = g.shape[-1]
    dx = np.multiply(g, gamma, out=out)
    m2 = _row_dot(dx, xhat) / d
    dx -= _row_sum(dx) / d
    dx -= xhat * m2
    dx *= inv
    return dx


def conv1d_pointwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Kernel-size-1 convolution over channels: a per-timestep affine map,
    realized as x @ w + b."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"pointwise conv: input channels {x.shape} do not match weight {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"pointwise conv: bias {b.shape} does not match weight {w.shape}")
    return add(matmul(x, w), b)


# Elements in one slab of conv1d_depthwise's forward: 512 KB of float32, so
# the running sum and the product buffer fit together in a 1 MB L2 cache.
_SLAB_ELEMS = 1 << 17


def conv1d_depthwise(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """Per-channel 1-D cross-correlation with (K-1)/2 zeros of padding on
    each side, so the output keeps length T.

    ``x`` is (T, C) or (B, T, C); ``k`` is (C, K) with K odd and one kernel row
    per channel (groups == C).
    """
    if k.ndim != 2:
        raise ShapeError(f"depthwise kernel must be rank 2 (C, K), got {k.shape}")
    c, kk = k.shape
    if kk % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {kk}")
    if x.shape[-1] != c:
        raise ShapeError(f"depthwise conv: input {x.shape} does not match kernel {k.shape}")
    if b.shape != (c,):
        raise ShapeError(f"depthwise conv: bias {b.shape} does not match kernel {k.shape}")

    pad = (kk - 1) // 2
    xd, kd = x.data, k.data
    # tap j's weights as one contiguous row: a column kd[:, j] of the (C, K)
    # kernel is strided, which made every tap product slower
    taps = np.ascontiguousarray(kd.T)
    t = xd.shape[-2]
    xp = np.empty(xd.shape[:-2] + (t + 2 * pad, c), xd.dtype)
    xp[..., :pad, :] = 0
    xp[..., pad:pad + t, :] = xd
    xp[..., pad + t:, :] = 0
    out = np.empty(xd.shape, b.data.dtype)
    out[...] = b.data
    # Sum the K taps over slabs of whole samples, so that the running sum and
    # the product stay in cache across the K passes; each part of the
    # samples sums over its own slabs.
    xp3 = xp.reshape((-1,) + xp.shape[-2:])
    out3 = out.reshape((-1,) + out.shape[-2:])
    rows = max(1, _SLAB_ELEMS // (t * c))

    def fwd_part(lo, hi):
        prod = np.empty((min(rows, hi - lo), t, c), dtype=out.dtype)
        for i in range(lo, hi, rows):
            acc, src = out3[i:min(i + rows, hi)], xp3[i:min(i + rows, hi)]
            buf = prod[:len(acc)]
            for j in range(kk):
                np.multiply(src[:, j:j + t], taps[j], out=buf)
                acc += buf

    _split(_parts(out.size), fwd_part, len(out3))

    def bwd(g):
        dxp = np.zeros_like(xp)
        dk = np.empty_like(kd)
        g3 = g.reshape((-1, t, c))
        dxp3 = dxp.reshape(xp3.shape)

        def grad_part(lo, hi, first_tap, end_tap):
            # dx of samples [lo, hi) and the taps [first_tap, end_tap) of dk,
            # each tap a sum over every sample
            for j in range(kk):
                dxp3[lo:hi, j:j + t] += g3[lo:hi] * taps[j]
            for j in range(first_tap, end_tap):
                dk[:, j] = np.einsum("btc,btc->c", g3, xp3[:, j:j + t])

        parts = min(_parts(g.size), len(g3), kk)
        if parts > 1:
            _run([partial(grad_part, *samples, *tap_cut) for samples, tap_cut
                  in zip(_cuts(len(g3), parts), _cuts(kk, parts))])
        else:
            grad_part(0, len(g3), 0, kk)
        dx = np.ascontiguousarray(dxp[..., pad:pad + t, :])
        db = g.sum(axis=tuple(range(g.ndim - 1)))
        return dx, dk, db

    return _make("conv1d_depthwise", (x, k, b), out, bwd)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: given an rng, zero each element with probability p
    and rescale survivors by 1/(1-p); without one (evaluation), the
    identity."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    # x * keep * c equals x * (keep / (1 - p)) bitwise: both round x * c once
    c = x.dtype.type(1) / x.dtype.type(1.0 - p)

    def bwd(g):
        return (_rows(_parts(g.size), _masked, g.dtype, g, keep, c=c),)

    out = _rows(_parts(x.size), _masked, x.dtype, x.data, keep, c=c)
    return _make("dropout", (x,), out, bwd)


def _masked(x: np.ndarray, keep: np.ndarray, out=None, *, c) -> np.ndarray:
    out = np.multiply(x, keep, out=out)
    out *= c
    return out


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class ParamStore:
    """Named, ordered collection of trainable tensors.

    The gradient slot of each parameter is its tensor's ``.grad``.
    """

    def __init__(self):
        self._items: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._items:
            raise ContractError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._items[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._items.items())

    def zero_grad(self) -> None:
        for t in self._items.values():
            t.grad = None

    def clone_data(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._items.items()}

    def load_data(self, blobs: dict[str, np.ndarray]) -> None:
        """Copy values into the existing tensors in place."""
        for name, t in self._items.items():
            src = blobs[name]
            if src.shape != t.shape:
                raise ShapeError(f"parameter {name}: stored shape {src.shape} != {t.shape}")
            t.data[...] = src
