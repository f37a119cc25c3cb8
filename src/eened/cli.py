"""Command-line interface: train, eval, gradcheck, predict.

Exit codes: 0 success, 1 configuration error, 2 data error (missing or
malformed file, non-finite cell, wrong feature count), 3 other runtime error,
4 gradient-check failure, 5 non-finite training loss (no checkpoint is
written). Results go to stdout, diagnostics to stderr.

On train, each config field but seed is a flag. Options may also come from
a ``key=value`` file (--config) whose keys are config fields or split_seed;
one file serves both train and eval. Eval takes its model config from the
checkpoint, and a model key in the file but seed must match it; of the
training keys it reads only seed, which picks the split alone. Explicit
flags win over the file, the file wins over defaults. A threshold must lie
in [0, 1]; --toy and --data, like --csv and --features, exclude each other.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set: the cores go to the program's own threads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields
from typing import Optional

# BLAS threads would multiply with the program's own (eval blocks, checkpoint
# load). This must run before the imports below load numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import ModelConfig, TrainConfig, check_range, read_key_values
from .data import (DataError, Dataset, is_label, load_dataset, make_toy_dataset,
                   normalize, read_csv, read_rows, split, zscore)
from .model import (CheckpointError, atomic_write, load_checkpoint,
                    model_forward_batch, model_init, save_checkpoint)
from .tensor import ConfigError, Tensor
from .train import NonFiniteLossError, evaluate, gradcheck_suite, train

CONFIG_KEYS = [f.name for f in fields(ModelConfig) + fields(TrainConfig)] + ["split_seed"]

# --toy shrinks the network so an end-to-end run stays in CI budget.
TOY = dict(d_model=32, n_heads=4, n_blocks=1, d_pwff=64, t_in=64,
           classifier_hidden=32, epochs=10, lr=1e-3)
TOY_ROWS = 384


def _merge_options(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            merged.update(read_key_values(fh, args.config, CONFIG_KEYS))
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _config(cls, merged: dict):
    """``cls`` built from the merged options that name its fields."""
    return cls(**{f.name: merged[f.name] for f in fields(cls) if f.name in merged})


def _split_seed(merged: dict, seed: int) -> int:
    """The split's seed: ``split_seed`` when given, else the run's seed."""
    split_seed = merged.get("split_seed", seed)
    if type(split_seed) is not int or split_seed < 0:
        raise ConfigError(f"split_seed must be a nonnegative integer, got {split_seed!r}")
    return split_seed


def _load_split_dataset(args, t_in: int, split_seed: int) -> Dataset:
    if args.toy == bool(args.data):
        raise ConfigError("exactly one of --data and --toy is required")
    if args.toy:
        ds = make_toy_dataset(TOY_ROWS, t_in, split_seed)
    else:
        ds = split(load_dataset(args.data, t_in), split_seed)
    return normalize(ds)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    check_range(args, "finite and in [0, 1]", lambda v: 0 <= v <= 1, "threshold")
    merged = _merge_options(args, TOY if args.toy else {})
    mcfg, tcfg = _config(ModelConfig, merged), _config(TrainConfig, merged)
    dataset = _load_split_dataset(args, mcfg.t_in, _split_seed(merged, tcfg.seed))
    model = model_init(mcfg)
    started = time.monotonic()
    model, logs = train(model, dataset, tcfg, threshold=args.threshold, log_fn=print)
    save_checkpoint(model, args.out)
    # train() restored the parameters of its first most accurate evaluation,
    # the one max() picks
    final = max(logs, key=lambda entry: entry.metrics.accuracy).metrics
    mean, std = dataset.norm_stats
    summary = (final.report()
               + f"norm_mean={mean!r}\nnorm_std={std!r}\n"
               + f"train_seconds={time.monotonic() - started:.1f}\n")
    print(summary, end="")
    with atomic_write(args.log or (args.out + ".log")) as fh:
        fh.write(("".join(entry.line() + "\n" for entry in logs)
                  + summary).encode("utf-8"))
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    check_range(args, "finite and in [0, 1]", lambda v: 0 <= v <= 1, "threshold")
    model = load_checkpoint(args.checkpoint)
    merged, ckpt = _merge_options(args, {}), model.config
    # eval draws no weights: its seed picks the split, and no other training
    # key is read
    for key in [f.name for f in fields(ckpt) if f.name in merged and f.name != "seed"]:
        if merged[key] != getattr(ckpt, key):
            raise ConfigError(f"{key} is {merged[key]!r} here but "
                              f"{getattr(ckpt, key)!r} in the checkpoint")
    seed = TrainConfig(seed=merged.get("seed", TrainConfig.seed)).seed
    dataset = _load_split_dataset(args, ckpt.t_in, _split_seed(merged, seed))
    metrics = evaluate(model, dataset, threshold=args.threshold)
    print(metrics.report(), end="")
    return 0


def cmd_gradcheck(args) -> int:
    check_range(args, "finite and > 0", lambda v: math.isfinite(v) and v > 0, "tolerance")
    modules = args.module.split(",") if args.module else None
    reports = gradcheck_suite(modules, tolerance=args.tolerance)
    failed = [name for name, rep in reports.items() if not rep.passed]
    for name, rep in reports.items():
        print(f"{name}: {rep.line()}")
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


def cmd_predict(args) -> int:
    check_range(args, "finite and in [0, 1]", lambda v: 0 <= v <= 1, "threshold")
    check_range(args, "finite", math.isfinite, "norm_mean")
    check_range(args, "finite and > 0", lambda v: math.isfinite(v) and v > 0, "norm_std")
    if bool(args.features) == bool(args.csv):
        raise ConfigError("predict needs exactly one of --csv and --features")
    model = load_checkpoint(args.checkpoint)
    t_in = model.config.t_in
    if args.features:
        rows = read_rows(lambda: [(1, args.features)], "inline feature list")
    else:
        rows = read_csv(args.csv)
        if rows.shape[1] == t_in + 1 and is_label(rows[:, -1]).all():
            rows = rows[:, :-1]  # a trailing label column is dropped
    if rows.shape[1] != t_in:
        raise DataError(f"expected {t_in} features per segment, got {rows.shape[1]}")
    rows = zscore(rows, args.norm_mean, args.norm_std)
    probs = model_forward_batch(model, Tensor(rows), training=False).data
    for p in probs:
        label = int(p >= args.threshold)
        print(f"p={float(p):.6f} label={label}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(sub, seed_help: str, config_fields=()) -> None:
    sub.add_argument("--config", help="key=value options file")
    sub.add_argument("--seed", type=int, help=seed_help)
    sub.add_argument("--split-seed", dest="split_seed", type=int,
                     help="override the train/test split seed")
    for f in config_fields:
        if f.name != "seed":
            sub.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                             type=type(f.default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eened",
        description="Seizure detection from single-channel EEG segments.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--data", help="dataset CSV path")
    p_train.add_argument("--toy", action="store_true",
                         help="use the built-in synthetic dataset")
    p_train.add_argument("--out", default="model.ckpt", help="checkpoint output path")
    p_train.add_argument("--log", help="log file (default: <out>.log)")
    p_train.add_argument("--threshold", type=float, default=0.5)
    _add_config_flags(p_train, "seed for init, split, and shuffling",
                      fields(ModelConfig) + fields(TrainConfig))
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset CSV path")
    p_eval.add_argument("--toy", action="store_true")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    _add_config_flags(p_eval, "seed of the train/test split only")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = subs.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--module",
                        help="comma list from: pwff,mhsa,conv,block,model")
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_pred = subs.add_parser("predict", help="probability for one or more segments")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--csv", help="CSV with one segment per row")
    p_pred.add_argument("--features", help="inline comma-separated feature list")
    p_pred.add_argument("--threshold", type=float, default=0.5)
    p_pred.add_argument("--norm-mean", dest="norm_mean", type=float, default=0.0,
                        help="train-split mean used to normalize inputs")
    p_pred.add_argument("--norm-std", dest="norm_std", type=float, default=1.0,
                        help="train-split std used to normalize inputs")
    p_pred.set_defaults(func=cmd_predict)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, FileNotFoundError, IsADirectoryError,
            PermissionError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NonFiniteLossError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 5
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
