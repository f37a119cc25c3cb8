#!/usr/bin/env python3
"""eened benchmark: desk training, desk evaluation and full-size scoring.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--workload`` is train_desk, eval_desk, predict_full or all. ``--trace 0``
measures the end-to-end metrics with nothing patched; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones listed in ``BENCHMARK.json``. A fuller record, with the
environment, goes to ``perfbench/out/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# BLAS threads are fixed before numpy loads. One thread: on a shared 2-core
# machine a second BLAS thread made predict_full ~12% faster but its
# run-to-run spread four times wider, and train_desk no faster (its GEMMs
# are small); see perfbench/README.md.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPS = 9
WORKLOAD_NAMES = ("train_desk", "eval_desk", "predict_full")
COVERAGE_GATE = 0.90


def _import_program():
    src = ROOT / "src"
    if not (src / "eened" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no eened package under {src}; "
                         "run from a checkout of the repository\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, input_set: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "input_set": input_set,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    setups: list[float] = field(default_factory=list)  # seconds of each timed set-up
    peak_rss_mb: float | None = None


def run_op(w, tracer, tally: Tally):
    """One checked operation; returns its wall time, or None if it raised."""
    tally.attempted += 1
    try:
        elapsed, out = w.op(tracer)
        ok = w.check(out)
    except Exception:
        if tally.failed == 0:
            traceback.print_exc()
        tally.failed += 1
        return None
    if not ok:
        tally.failed += 1
    return elapsed


def measure(w, seconds: float, tally: Tally) -> list[float]:
    """Closed loop: operations back to back until ``seconds`` have passed
    (the last one is completed), after warm-up operations that are checked
    but not timed.

    SETUP_REPS timed set-ups are spread over the loop: one before it, then
    one each time another 1 / (SETUP_REPS - 1) of ``seconds`` has passed,
    and any left over after it. The machine's speed drifts over seconds, so
    set-ups run back to back can all land in one slow spell. Garbage is
    collected before each one, untimed, so that no set-up pays for the
    garbage of the operations before it. Peak RSS is read before the second
    set-up: set-ups between operations fragment the heap, which a workload
    never does."""
    from tracer import NullTracer

    tracer = NullTracer()
    gap = seconds / (SETUP_REPS - 1)

    def setup():
        if tally.setups and tally.peak_rss_mb is None:
            tally.peak_rss_mb = peak_rss_mb()
        gc.collect()
        t0 = time.perf_counter()
        w.setup()
        tally.setups.append(time.perf_counter() - t0)

    setup()
    for _ in range(w.warmup_ops):
        run_op(w, tracer, tally)
    times = []
    start = time.perf_counter()
    while True:
        if len(tally.setups) < SETUP_REPS \
                and time.perf_counter() - start >= len(tally.setups) * gap:
            setup()
        elapsed = run_op(w, tracer, tally)
        if elapsed is not None:
            times.append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    while len(tally.setups) < SETUP_REPS:
        setup()
    return times


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare_inputs(name: str, k: int, workdir: Path) -> None:
    """Write the workload's inputs in a child process, so that the memory
    this takes (the full-size model is drawn, serialized and written) is
    not in the peak RSS of the process that measures."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(k),
                    str(workdir)], env=env, check=True)


def end_to_end(name: str, seed: int, seconds: float, workdir: Path):
    from workloads import WORKLOADS, input_set, load_reference

    k = input_set(seed)
    prepare_inputs(name, k, workdir)
    w = WORKLOADS[name](k, workdir, load_reference(k))
    tally = Tally()
    times = measure(w, seconds, tally)
    if not times:
        raise RuntimeError("no operation completed")
    items = w.items_per_op
    med = statistics.median(times)
    metrics = {
        # the fastest set-up: the least disturbed by the machine's slow spells
        "setup_s": (min(tally.setups), "s"),
        "latency_ms_p50": (1e3 * med, "ms"),
        "latency_ms_p90": (1e3 * percentile(times, 90), "ms"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    detail = {"setup_s_each": tally.setups, "op_seconds": times, "samples": len(times),
              "items_per_op": items}
    return tally, metrics, detail


def layer_metrics(name: str, seed: int, seconds: float, workdir: Path):
    from eened import data, model
    from tracer import ENCODER_SPANS, NAMED_OPS, NullTracer, Tracer
    from workloads import CSV_NAME, T_IN, WORKLOADS, input_set, load_reference

    k = input_set(seed)
    prepare_inputs(name, k, workdir)
    tracer = Tracer()
    with tracer.installed():
        w = WORKLOADS[name](k, workdir, load_reference(k))
        for _ in range(SETUP_REPS):
            w.setup()
    # Untraced and traced operations alternate, so that the drift of the
    # machine's speed falls on both and their difference is the overhead.
    tally = Tally()
    untraced = NullTracer()
    for _ in range(w.warmup_ops):
        run_op(w, untraced, tally)
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.append(run_op(w, untraced, tally))
        with tracer.installed():
            traced.append(run_op(w, tracer, tally))
    plain = [t for t in plain if t is not None]
    traced = [t for t in traced if t is not None]
    # The read and write paths beside the workload's own set-up: checkpoint
    # round trips of its model, and loads of its CSV (which predict_full's
    # set-up does not read).
    with tracer.installed():
        ckpt = workdir / "roundtrip.ckpt"
        for _ in range(SETUP_REPS):
            model.save_checkpoint(w.model, ckpt)
            model.load_checkpoint(ckpt)
            data.load_dataset(workdir / CSV_NAME, T_IN)
    if not plain or not traced:
        raise RuntimeError("no operation completed")

    ms = tracer.median_ms
    metrics = {
        "data.load_dataset_s": (ms("data.load_dataset") / 1e3, "s"),
        "model.model_init_s": (ms("model.model_init") / 1e3, "s"),
        "model.load_checkpoint_s": (ms("model.load_checkpoint") / 1e3, "s"),
        "model.save_checkpoint_s": (ms("model.save_checkpoint") / 1e3, "s"),
        "model.forward_ms": (ms("model.forward"), "ms"),
    }
    for span in ENCODER_SPANS:
        metrics[f"{span}.fwd_ms"] = (ms(span), "ms")
    table = tracer.op_table(w.top_span)
    for op in NAMED_OPS + ("other",):
        if op in table:
            metrics[f"tensor.fwd_ms.{op}"] = (table[op]["fwd_ms"], "ms")
            metrics[f"tensor.calls.{op}"] = (table[op]["calls"], "count")
            if "bwd_ms" in table[op]:
                metrics[f"tensor.bwd_ms.{op}"] = (table[op]["bwd_ms"], "ms")
    for span, value in tracer.encoder_bwd_ms().items():
        metrics[f"{span}.bwd_ms"] = (value, "ms")
    for span in ("data.batch_wait", "train.bce_loss", "train.adam_step"):
        if tracer.durations(span):
            metrics[f"{span}_ms"] = (ms(span), "ms")
    coverage = tracer.coverage(w.top_span, w.layer_spans)
    plain_med, traced_med = statistics.median(plain), statistics.median(traced)
    metrics["trace.coverage"] = (coverage, "fraction")
    metrics["trace.overhead_ms"] = (1e3 * (traced_med - plain_med), "ms")
    detail = {
        "op_table": table,
        "untraced_op_ms": 1e3 * plain_med,
        "traced_op_ms": 1e3 * traced_med,
        "overhead_frac": traced_med / plain_med - 1.0,
        "coverage_gate": COVERAGE_GATE,
        "coverage_ok": coverage >= COVERAGE_GATE,
        "samples": {"untraced": len(plain), "traced": len(traced)},
    }
    if tracer.durations("tensor.backward"):
        rec = tracer.reconcile(w.top_span)
        metrics["tensor.nodes_per_step"] = (statistics.median(rec["nodes_per_step"]), "count")
        metrics["tensor.backward_ms"] = (ms("tensor.backward"), "ms")
        metrics["tensor.tape_mb"] = (tape_mb(w), "MB")
        detail["reconcile"] = {"steps": len(rec["nodes_per_step"]),
                               "mismatches": rec["mismatches"],
                               "ok": not rec["mismatches"]}
    return tally, metrics, detail


def tape_mb(w) -> float:
    """Bytes allocated and still held after one taped forward, from
    tracemalloc (numpy reports its buffers to it)."""
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alive = w.taped_forward()  # the tape, held while it is counted
        after = tracemalloc.get_traced_memory()[0]
        del alive
    finally:
        tracemalloc.stop()
    return (after - before) / 2**20


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def headline(name: str, metrics: dict, detail: dict) -> list[tuple]:
    """The workload's figures under the names the ROADMAP uses, derived from
    the median operation time (and, for predict_full, its 90th percentile)."""
    p50 = metrics["latency_ms_p50"][0]
    if name == "predict_full":
        return [("predict_ms_p50", p50, "ms"),
                ("predict_ms_p90", metrics["latency_ms_p90"][0], "ms")]
    alias = "train_samples_per_s" if name == "train_desk" else "eval_rows_per_s"
    return [(alias, 1e3 * detail["items_per_op"] / p50, "1/s")]


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import input_set

    declared = declared_metrics(trace)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure_fn = layer_metrics if trace else end_to_end
        tally, metrics, detail = measure_fn(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if metrics.get(m["name"], (None,))[0] is None]
    if missing:
        sys.stderr.write(f"perfbench: {name} did not measure {missing}\n")
        return 1
    failed_frac = tally.failed / tally.attempted
    print(f"workload={name} seed={seed} input_set={input_set(seed)} "
          f"seconds={seconds:g} trace={trace} blas_threads={BLAS_THREADS}")
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"  {metric:<32} {value:14.6g} {unit}")
    if not trace:
        for alias, value, unit in headline(name, metrics, detail):
            print(f"  {alias:<32} {value:14.6g} {unit}  (n={detail['samples']})")
    print(f"  {'failed_frac':<32} {failed_frac:14.6g} fraction  "
          f"({tally.failed}/{tally.attempted})")
    # in the traced run, a failed self-check fails the run
    checks_ok = True
    if trace:
        checks_ok = detail["coverage_ok"]
        ok = "pass" if detail["coverage_ok"] else "FAIL"
        print(f"  coverage gate >= {COVERAGE_GATE:.2f}: {ok}; tracing overhead "
              f"{detail['overhead_frac']:+.2%} of the untraced op time")
        if "reconcile" in detail:
            r = detail["reconcile"]
            checks_ok = checks_ok and r["ok"]
            print(f"  op-count reconciliation: "
                  f"{'pass' if r['ok'] else 'FAIL'} on {r['steps']} steps")

    record = {
        "workload": name, "seconds": seconds, "trace": trace,
        "environment": environment(seed, input_set(seed)),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": failed_frac, "checks_ok": checks_ok,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "detail": detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": tally.failed == 0 and checks_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own child process, one after another, so that
    each peak RSS belongs to one workload."""
    total = Tally()
    correct = True
    merged = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: {name} exited with {proc.returncode}\n")
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        total.attempted += result["attempted"]
        total.failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    _import_program()
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
