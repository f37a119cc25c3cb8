"""Command-line interface: train, eval, gradcheck, predict.

Exit codes: 0 success, 1 configuration error, 2 data error (missing or
malformed file, wrong feature count), 3 other runtime error, 4 gradient-check
failure, 5 non-finite training loss (no checkpoint is written). Results go
to stdout, diagnostics to stderr.

Options may also come from a ``key=value`` config file (--config) whose keys
are config fields or split_seed; explicit flags win over the file, the file
wins over defaults.
"""

from __future__ import annotations

import argparse
import ast
import sys
import time
from dataclasses import fields
from typing import Optional

from .config import ModelConfig, TrainConfig
from .data import (DataError, Dataset, load_dataset, make_toy_dataset,
                   normalize, read_csv, read_floats, split)
from .model import (CheckpointError, atomic_write, load_checkpoint,
                    model_forward_batch, model_init, save_checkpoint)
from .tensor import ConfigError, Tensor
from .train import NonFiniteLossError, evaluate, gradcheck_suite, train

MODEL_FIELDS = [f.name for f in fields(ModelConfig)]
TRAIN_FIELDS = [f.name for f in fields(TrainConfig)]
CONFIG_KEYS = MODEL_FIELDS + TRAIN_FIELDS + ["split_seed"]

# --toy shrinks the network so an end-to-end run stays in CI budget.
TOY_MODEL = dict(d_model=32, n_heads=4, head_dim=8, n_blocks=1, d_pwff=64,
                 t_in=64, classifier_hidden=32)
TOY_TRAIN = dict(epochs=10, batch_size=32, lr=1e-3)
TOY_ROWS = 384


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                out[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                raise ConfigError(
                    f"{path}:{lineno}: {key}: not a number: {value!r}") from None
    return out


def _merge_options(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _build_configs(args, toy: bool, checkpoint: Optional[ModelConfig] = None
                   ) -> tuple[ModelConfig, TrainConfig, int]:
    """Configs from defaults, --config and flags. Given a checkpoint's model
    config, that config is used, and a model field set here must match it."""
    defaults: dict = {}
    if toy:
        defaults.update(TOY_MODEL)
        defaults.update(TOY_TRAIN)
    merged = _merge_options(args, defaults)
    model_kwargs = {k: merged[k] for k in MODEL_FIELDS if k in merged}
    train_kwargs = {k: merged[k] for k in TRAIN_FIELDS if k in merged}
    if "seed" in merged:
        model_kwargs.setdefault("seed", merged["seed"])
        train_kwargs.setdefault("seed", merged["seed"])
    if checkpoint is None:
        mcfg = ModelConfig(**model_kwargs)
    else:
        mcfg = checkpoint
        for key, value in model_kwargs.items():
            if value != getattr(mcfg, key):
                raise ConfigError(f"{key} is {value!r} here but "
                                  f"{getattr(mcfg, key)!r} in the checkpoint")
    tcfg = TrainConfig(**train_kwargs)
    split_seed = merged.get("split_seed", tcfg.seed)
    if not isinstance(split_seed, int) or split_seed < 0:
        raise ConfigError(f"split_seed must be a nonnegative integer, got {split_seed!r}")
    return mcfg, tcfg, split_seed


def _load_split_dataset(args, mcfg: ModelConfig, split_seed: int) -> Dataset:
    if args.toy:
        ds = make_toy_dataset(TOY_ROWS, mcfg.t_in, split_seed)
    else:
        if not args.data:
            raise ConfigError("either --data or --toy is required")
        ds = load_dataset(args.data, mcfg.t_in)
        ds = split(ds, split_seed)
    return normalize(ds)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    mcfg, tcfg, split_seed = _build_configs(args, args.toy)
    dataset = _load_split_dataset(args, mcfg, split_seed)
    model = model_init(mcfg)
    started = time.monotonic()
    log_lines: list[str] = []

    def log_fn(line: str) -> None:
        log_lines.append(line)
        print(line)

    model, _ = train(model, dataset, tcfg, threshold=args.threshold, log_fn=log_fn)
    save_checkpoint(model, args.out)
    final = evaluate(model, dataset, threshold=args.threshold)
    mean, std = dataset.norm_stats
    summary = (final.report()
               + f"norm_mean={mean!r}\nnorm_std={std!r}\n"
               + f"train_seconds={time.monotonic() - started:.1f}\n")
    print(summary, end="")
    log_path = args.log or (args.out + ".log")
    with atomic_write(log_path) as fh:
        fh.write(("\n".join(log_lines) + ("\n" if log_lines else "")
                  + summary).encode("utf-8"))
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    mcfg, _, split_seed = _build_configs(args, False, model.config)
    dataset = _load_split_dataset(args, mcfg, split_seed)
    metrics = evaluate(model, dataset, threshold=args.threshold)
    print(metrics.report(), end="")
    return 0


def cmd_gradcheck(args) -> int:
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
    model = load_checkpoint(args.checkpoint)
    t_in = model.config.t_in
    if args.features:
        try:
            rows = read_floats([",".join(args.features.replace(",", " ").split())])
        except ValueError as e:
            raise DataError(f"inline feature list: {e}") from None
    elif args.csv:
        rows = read_csv(args.csv)
        if rows.shape[1] == t_in + 1:
            rows = rows[:, :-1]  # a trailing label column is dropped
    else:
        raise ConfigError("predict needs --csv or --features")
    if rows.shape[1] != t_in:
        raise DataError(f"expected {t_in} features per segment, got {rows.shape[1]}")
    rows = (rows - args.norm_mean) / args.norm_std
    probs = model_forward_batch(model, Tensor(rows), training=False).data
    for p in probs:
        label = int(p >= args.threshold)
        print(f"p={float(p):.6f} label={label}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="key=value options file")
    sub.add_argument("--seed", type=int, help="seed for init, split, and shuffling")
    sub.add_argument("--split-seed", dest="split_seed", type=int,
                     help="override the train/test split seed")
    for name in MODEL_FIELDS:
        if name == "seed":
            continue
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int
                         if name != "dropout_p" else float)
    for name in TRAIN_FIELDS:
        if name == "seed":
            continue
        kind = float if name in ("lr", "adam_beta1", "adam_beta2", "adam_eps",
                                 "weight_decay") else int
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind)


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
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = subs.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", help="dataset CSV path")
    p_eval.add_argument("--toy", action="store_true")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    _add_config_flags(p_eval)
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
