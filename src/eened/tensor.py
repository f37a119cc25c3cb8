"""Dense rank-<=3 tensors with reverse-mode automatic differentiation.

The gradient tape is a Wengert list: ops append nodes in execution order, so
the list is topologically sorted by construction and ``backward`` is a single
reverse sweep that visits each node exactly once. Ops compute with numpy and
record a backward closure holding whatever forward values the gradient needs.

Tensors are float32 or float64. Ops are pure; nothing is recorded unless a
``Tape`` is active, so evaluation-mode forward passes carry no bookkeeping.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """A structural precondition (hyperparameter invariant) is violated."""


class ContractError(RuntimeError):
    """An API contract was broken (non-scalar loss, missing gradient, ...)."""


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


_ACTIVE: Optional["Tape"] = None


class Tape:
    """Append-only record of differentiable ops, used as a context manager.

    Only one tape may be active at a time (single-writer: one training step
    runs on one logical thread).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.active = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise ContractError("a gradient tape is already active")
        self.active = True
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> bool:
        global _ACTIVE
        self.active = False
        _ACTIVE = None
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def recording() -> bool:
    """Whether a tape is active, so that ops record nodes."""
    return _ACTIVE is not None and _ACTIVE.active


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
    """Wrap an op result and record it on the active tape, if any."""
    out = Tensor(out_data)
    tape = _ACTIVE
    if tape is not None and tape.active:
        ids = tuple(_leaf_id(tape, t) for t in inputs)
        tape.nodes.append(_Node(op, ids, backward))
        out._tape = tape
        out._tape_id = len(tape.nodes) - 1
    return out


def backward(loss: "Tensor") -> None:
    """Reverse sweep from a scalar loss, filling ``.grad`` of every leaf
    tensor with ``requires_grad`` that the loss depends on."""
    tape = loss._tape
    if tape is None or loss._tape_id is None:
        raise ContractError("loss is not recorded on a gradient tape")
    if loss.size != 1:
        raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
    nodes = tape.nodes
    nodes[loss._tape_id].grad = np.ones_like(loss.data)
    # Inputs always precede their consumers, so one reverse pass suffices and
    # each node's gradient is complete by the time it is visited.
    for node in reversed(nodes):
        g = node.grad
        if g is None:
            continue
        if node.backward is not None:
            for i, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                tgt = nodes[i]
                tgt.grad = gi if tgt.grad is None else tgt.grad + gi
        leaf = node.leaf_tensor
        if leaf is not None:
            leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g
        node.grad = None


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense float array of rank 0..3, optionally tracked on the active tape.

    Treat instances as immutable values; only the training loop mutates
    parameter ``.data`` in place, between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_tape_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
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

    # operator sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(value, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


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

    return _make("add", (a, b), a.data + b.data, bwd)


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

        def bwd(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ bd.T).reshape(ad.shape), a2.T @ g2

        out = (a2 @ bd).reshape(ad.shape[:-1] + bd.shape[1:])
        return _make("matmul", (a, b), out, bwd)

    def bwd(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return _make("matmul", (a, b), ad @ bd, bwd)


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

    return _make("slice", (a,), np.ascontiguousarray(a.data[..., start:stop]), bwd)


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


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) as 0.5*tanh(x/2) + 0.5, in one fresh buffer of x's
    dtype. tanh saturates to +-1 instead of overflowing, so large |x| gives
    exactly 0 or 1."""
    s = np.multiply(x, 0.5)
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
    out = _sigmoid_data(x)
    out *= x

    def bwd(g):
        # sigmoid(x) is recomputed here so that the forward fills one buffer
        s = _sigmoid_data(x)
        d = np.subtract(1.0, s, dtype=np.result_type(s, g))  # g * s * (1 + x*(1-s))
        d *= x
        d += 1.0
        d *= s
        d *= g
        return (d,)

    return _make("swish", (a,), out, bwd)


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
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= _row_sum(y)

    def bwd(g):
        d = g - _row_dot(g, y)  # (g - <g, y>) * y
        d *= y
        return (d,)

    return _make("softmax", (a,), y, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and
    shift with per-feature gamma and beta."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match feature dim {d}")
    xd, gdat = x.data, gamma.data
    xhat = xd - _row_sum(xd) / d
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / d + eps)
    xhat *= inv
    out = xhat * gdat
    out += beta.data

    def bwd(g):
        g2 = g.reshape(-1, d)
        dgamma = np.einsum("ni,ni->i", g2, xhat.reshape(-1, d))
        dbeta = g2.sum(axis=0)
        dx = g * gdat  # dL/dxhat, then (dxhat - m1 - xhat*m2) * inv in place
        m2 = _row_dot(dx, xhat) / d
        dx -= _row_sum(dx) / d
        dx -= xhat * m2
        dx *= inv
        return dx, dgamma, dbeta

    return _make("layer_norm", (x, gamma, beta), out, bwd)


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


def conv1d_depthwise(x: Tensor, k: Tensor, b: Tensor, pad: int) -> Tensor:
    """Per-channel 1-D cross-correlation with zero padding.

    ``x`` is (T, C) or (B, T, C); ``k`` is (C, K) with K odd and one kernel row
    per channel (groups == C); ``pad`` must equal (K-1)/2 so the output keeps
    length T.
    """
    if k.ndim != 2:
        raise ShapeError(f"depthwise kernel must be rank 2 (C, K), got {k.shape}")
    c, kk = k.shape
    if kk % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {kk}")
    if pad != (kk - 1) // 2:
        raise ConfigError(
            f"depthwise padding must be (kernel_size - 1) / 2 = {(kk - 1) // 2}, got {pad}")
    if x.shape[-1] != c:
        raise ShapeError(f"depthwise conv: input {x.shape} does not match kernel {k.shape}")
    if b.shape != (c,):
        raise ShapeError(f"depthwise conv: bias {b.shape} does not match kernel {k.shape}")

    xd, kd = x.data, k.data
    t = xd.shape[-2]
    pad_width = [(0, 0)] * (xd.ndim - 2) + [(pad, pad), (0, 0)]
    xp = np.pad(xd, pad_width)
    out = np.broadcast_to(b.data, xd.shape).copy()
    # Sum the K taps over slabs of whole samples, so that the running sum and
    # the product stay in cache across the K passes.
    xp3 = xp.reshape((-1,) + xp.shape[-2:])
    out3 = out.reshape((-1,) + out.shape[-2:])
    rows = max(1, _SLAB_ELEMS // (t * c))
    prod = np.empty((min(rows, len(out3)), t, c), dtype=out.dtype)
    for i in range(0, len(out3), rows):
        acc, src = out3[i:i + rows], xp3[i:i + rows]
        buf = prod[:len(acc)]
        for j in range(kk):
            np.multiply(src[:, j:j + t], kd[:, j], out=buf)
            acc += buf

    def bwd(g):
        dxp = np.zeros_like(xp)
        dk = np.empty_like(kd)
        lead = tuple(range(g.ndim - 1))
        g3 = g.reshape((-1, t, c))
        for j in range(kk):
            dxp[..., j:j + t, :] += g * kd[:, j]
            dk[:, j] = np.einsum("btc,btc->c", g3, xp3[:, j:j + t])
        dx = np.ascontiguousarray(dxp[..., pad:pad + t, :])
        db = g.sum(axis=lead)
        return dx, dk, db

    return _make("conv1d_depthwise", (x, k, b), out, bwd)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability p and rescale survivors by
    1/(1-p) in training mode; identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in training mode needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    factor = keep / (1.0 - p)
    return _make("dropout", (x,), x.data * factor, lambda g: (g * factor,))


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

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._items.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._items.values())

    def n_params(self) -> int:
        return sum(t.size for t in self._items.values())

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
