#!/usr/bin/env python3
"""Run the benchmark in two checkouts in ABBA order and compare the runs.

Each checkout's ``src/``, ``perfbench/`` and ``BENCHMARK.json`` are copied
into a temporary directory and ``perfbench/run.py --trace 0`` runs there, so
nothing is written into either checkout. Pair i runs the base and then the
change when i is even, and the change first when i is odd (ABBA), so that a
slow spell of the machine falls on both sides alike.

For every end-to-end metric it prints each side's q1/median/q3 over the
runs, the change of the median in percent, and in how many pairs the change
read lower. Each run's values go to stderr as it ends. The exit status is 1
when any run exits nonzero, reports ``correct: false`` or has a failed
operation.

Usage:
    python3 scripts/abba.py BASE CHANGE --workload predict_full --seed 11 \\
        [--pairs 10] [--seconds 30]
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "change")


def copy_checkout(root: Path, dest: Path) -> Path:
    """The files the benchmark reads from checkout ``root``, copied to
    ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, dest / name, ignore=ignore)
    shutil.copy2(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``copy``; a run
    that exits nonzero or prints no result gives ``correct: false`` and no
    metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def ok(result: dict) -> bool:
    return result.get("correct") is True and result.get("failed") == 0


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """Per end-to-end metric of (base, change) result pairs: each side's
    q1/median/q3, the change of the median in percent, and the number of
    pairs in which the change read lower. Pairs with a run that gave no
    metrics are left out."""
    pairs = [(b, c) for b, c in pairs if b["metrics"] and c["metrics"]]
    if not pairs:
        return []
    rows = []
    for name, first in pairs[0][0]["metrics"].items():
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        qb, qc = quartiles(base), quartiles(change)
        rows.append({"metric": name, "unit": first["unit"], "base": qb, "change": qc,
                     "median_pct": 100.0 * (qc[1] / qb[1] - 1.0),
                     "lower": sum(c < b for b, c in zip(base, change)),
                     "pairs": len(pairs)})
    return rows


def format_rows(rows: list[dict]) -> str:
    def q(values):
        return "/".join(f"{v:.4g}" for v in values)

    lines = [f"{'metric':<16} {'base q1/median/q3':<26} {'change q1/median/q3':<26} "
             f"{'median':>8}  change lower"]
    for r in rows:
        lines.append(f"{r['metric']:<16} {q(r['base']):<26} {q(r['change']):<26} "
                     f"{r['median_pct']:+7.1f}%  in {r['lower']}/{r['pairs']} pairs"
                     f" ({r['unit']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout measured as the base")
    parser.add_argument("change", help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    pairs = []
    with tempfile.TemporaryDirectory(prefix="abba-") as tmp:
        copies = {side: copy_checkout(Path(root).resolve(), Path(tmp) / side)
                  for side, root in zip(SIDES, (args.base, args.change))}
        for i in range(args.pairs):
            result = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result[side] = run(copies[side], args.workload, args.seed, args.seconds)
                values = {m: v["value"] for m, v in result[side]["metrics"].items()}
                print(f"pair {i + 1} {side}: correct={result[side]['correct']} "
                      f"failed={result[side]['failed']} {values}", file=sys.stderr)
            pairs.append((result["base"], result["change"]))
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} "
          f"seconds={args.seconds:g}")
    print(format_rows(summarize(pairs)))
    return 0 if all(ok(r) for pair in pairs for r in pair) else 1


if __name__ == "__main__":
    raise SystemExit(main())
