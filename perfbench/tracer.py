"""Spans and per-op counters for the traced benchmark run.

Nothing here edits the program. ``Tracer.installed()`` rebinds, for the
duration of a ``with`` block, every name under which an ``eened`` module
holds one of the layer functions in ``LAYER_FUNCS`` or one of the tape ops,
and restores the originals on exit:

* A layer function call becomes a span: name, start, end, parent span and,
  while a tape is watched, the range of tape nodes recorded inside it.
* A tape op call is timed exclusively (time in nested op calls is
  subtracted) and keyed by the op name it passes to ``eened.tensor._make``,
  which is the name its tape node carries (``softmax_rows`` records
  ``softmax``). ``conv1d_pointwise`` records no node itself; its inner
  ``matmul`` and ``add`` run through the rebound names and count as
  themselves, as does the ``sub`` behind ``1.0 - p`` (``Tensor.__rsub__``).
* ``time_backward(tape)`` wraps each recorded node's backward closure, so
  backward time is attributed per op name and, through the node ranges, per
  encoder module.

Counters are kept per top-level span: one train step, one evaluate() call or
one predict request.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from eened import data, encoder, model, tensor, train

_NULL = nullcontext()

# span name -> (module, function name); each call of the function is a span
LAYER_FUNCS = {
    "data.load_dataset": (data, "load_dataset"),
    "model.model_init": (model, "model_init"),
    "model.forward": (model, "model_forward_batch"),
    "model.save_checkpoint": (model, "save_checkpoint"),
    "model.load_checkpoint": (model, "load_checkpoint"),
    "encoder.pwff": (encoder, "pwff_forward"),
    "encoder.mhsa": (encoder, "mhsa_forward"),
    "encoder.conv": (encoder, "conv_module_forward"),
    "encoder.block": (encoder, "encoder_block_forward"),
    "train.bce_loss": (train, "bce_loss"),
    "train.adam_step": (train, "adam_step"),
    "train.evaluate": (train, "evaluate"),
    "tensor.backward": (tensor, "backward"),
}
ENCODER_SPANS = ("encoder.pwff", "encoder.mhsa", "encoder.conv", "encoder.block")

# Tape op names reported on their own; every other op name goes to "other".
NAMED_OPS = ("matmul", "add", "mul", "scale", "swish", "sigmoid", "softmax",
             "layer_norm", "conv1d_depthwise", "dropout", "slice", "concat",
             "transpose")


def op_bucket(op: str) -> str:
    return op if op in NAMED_OPS else "other"


def tape_op_functions() -> list:
    """The functions of ``eened.tensor`` that record a tape node themselves,
    found by their reference to ``_make`` rather than listed by name."""
    return [fn for name, fn in vars(tensor).items()
            if name != "_make" and hasattr(fn, "__code__")
            and fn.__module__ == tensor.__name__
            and "_make" in fn.__code__.co_names]


class NullTracer:
    """What the untraced run hands to the workloads: every hook is free."""

    def span(self, name):
        return _NULL

    def watch(self, tape):
        pass

    def time_backward(self, tape):
        pass


class _OpRecord:
    """Counters of one top-level span."""

    __slots__ = ("fwd_s", "fwd_calls", "node_ops", "node_bwd")

    def __init__(self):
        self.fwd_s = defaultdict(float)  # op name -> exclusive forward seconds
        self.fwd_calls = Counter()  # op name -> calls that recorded a node
        self.node_ops = None  # op name of each tape node
        self.node_bwd = None  # backward seconds of each tape node


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, node_lo, node_hi, record index]
        self.spans: list[list] = []
        self.records: list[_OpRecord] = []  # one per top-level span
        self._stack: list[int] = []
        self._frames: list[list] = []  # per open op call: [op name, nested s]
        self._tape = None

    # ---------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self.records.append(_OpRecord())
            rec = len(self.records) - 1
        else:
            rec = self.spans[parent][6]
        lo = len(self._tape.nodes) if self._tape is not None else None
        entry = [name, time.perf_counter(), None, parent, lo, None, rec]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            if lo is not None and self._tape is not None:
                entry[5] = len(self._tape.nodes)
            self._stack.pop()

    def watch(self, tape):
        """Attribute the tape nodes recorded from now on to the open spans."""
        self._tape = tape

    def time_backward(self, tape):
        """Wrap every recorded node's backward closure with a timer. Call
        after the forward pass, before ``backward``."""
        self._tape = None
        rec = self._record()
        if rec is None:
            return
        nodes = tape.nodes
        rec.node_ops = [node.op for node in nodes]
        rec.node_bwd = durations = [0.0] * len(nodes)
        for i, node in enumerate(nodes):
            if node.backward is not None:
                node.backward = _timed_backward(node.backward, durations, i)

    def _record(self):
        return self.records[self.spans[self._stack[0]][6]] if self._stack else None

    # ------------------------------------------------------------- patching

    @contextmanager
    def installed(self):
        """Rebind the layer functions and tape ops to traced wrappers in
        every loaded ``eened`` module, for the duration of the block."""
        wrappers = {}
        for name, (mod, attr) in LAYER_FUNCS.items():
            fn = getattr(mod, attr)
            wrappers[fn] = _span_wrapper(self, name, fn)
        wrappers[data.batches] = _batches_wrapper(self, data.batches)
        for fn in tape_op_functions():
            wrappers[fn] = _op_wrapper(self, fn)
        wrappers[tensor._make] = _make_wrapper(self, tensor._make)
        patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eened" or mod_name.startswith("eened.")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if callable(value) and value in wrappers:
                    patches.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]
        try:
            yield self
        finally:
            for namespace, attr, value in reversed(patches):
                namespace[attr] = value
            self._tape = None

    # ----------------------------------------------------------- aggregates

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def median_ms(self, name: str):
        d = self.durations(name)
        return 1e3 * statistics.median(d) if d else None

    def _tops(self, top_name: str) -> list[int]:
        return [s[6] for s in self.spans if s[3] == -1 and s[0] == top_name]

    def coverage(self, top_name: str, child_names) -> float | None:
        """Median over top-level spans of the share of their wall time spent
        inside the named layer spans (which must not nest in each other)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s[0] in child_names and s[2] is not None:
                covered[s[6]] += s[2] - s[1]
        shares = [covered[s[6]] / (s[2] - s[1]) for s in self.spans
                  if s[3] == -1 and s[0] == top_name]
        return statistics.median(shares) if shares else None

    def op_table(self, top_name: str) -> dict:
        """Per op bucket, the median over top-level spans of forward ms, call
        count and (where a tape was recorded) backward ms."""
        recs = [self.records[i] for i in self._tops(top_name)]
        taped = [r for r in recs if r.node_bwd is not None]
        buckets = {op_bucket(op) for r in recs for op in r.fwd_calls}
        table = {}
        for b in sorted(buckets):
            row = {
                "fwd_ms": statistics.median(
                    1e3 * sum(v for op, v in r.fwd_s.items() if op_bucket(op) == b)
                    for r in recs),
                "calls": statistics.median(
                    sum(v for op, v in r.fwd_calls.items() if op_bucket(op) == b)
                    for r in recs),
            }
            if taped:
                row["bwd_ms"] = statistics.median(
                    1e3 * sum(t for op, t in zip(r.node_ops, r.node_bwd)
                              if op_bucket(op) == b) for r in taped)
            table[b] = row
        return table

    def encoder_bwd_ms(self) -> dict:
        """Per encoder module, the median per call of the backward time of
        the tape nodes its forward recorded."""
        out = {}
        for name in ENCODER_SPANS:
            vals = [1e3 * sum(self.records[s[6]].node_bwd[s[4]:s[5]])
                    for s in self.spans
                    if s[0] == name and s[5] is not None
                    and self.records[s[6]].node_bwd is not None]
            if vals:
                out[name] = statistics.median(vals)
        return out

    def reconcile(self, top_name: str) -> dict:
        """Compare op-wrapper call counts with the tape's node counts, per
        top-level span that recorded a tape."""
        nodes, mismatches = [], []
        for i in self._tops(top_name):
            rec = self.records[i]
            if rec.node_ops is None:
                continue
            nodes.append(len(rec.node_ops))
            taped = Counter(op for op in rec.node_ops if op != "leaf")
            if taped != rec.fwd_calls:
                mismatches.append({"wrappers": dict(rec.fwd_calls), "tape": dict(taped)})
        return {"nodes_per_step": nodes, "mismatches": mismatches}


def _timed_backward(fn, durations, i):
    def run(g):
        t0 = time.perf_counter()
        out = fn(g)
        durations[i] = time.perf_counter() - t0
        return out
    return run


def _span_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _batches_wrapper(tracer: Tracer, fn):
    """``data.batches`` is a generator: each ``next`` is a batch-wait span."""
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span("data.batch_wait"):
                batch = next(it, None)
            if batch is None:
                return
            yield batch
    return traced


def _op_wrapper(tracer: Tracer, fn):
    frames = tracer._frames

    def traced(*args, **kwargs):
        frame = [None, 0.0]
        frames.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            frames.pop()
            op = frame[0]
            # a call that recorded no node (dropout in eval mode) is not an op
            if op is not None:
                if frames:
                    frames[-1][1] += dt
                rec = tracer._record()
                if rec is not None:
                    rec.fwd_s[op] += dt - frame[1]
                    rec.fwd_calls[op] += 1
    return traced


def _make_wrapper(tracer: Tracer, make):
    frames = tracer._frames

    def traced(op, inputs, out_data, backward):
        if frames:
            frames[-1][0] = op
        return make(op, inputs, out_data, backward)
    return traced
