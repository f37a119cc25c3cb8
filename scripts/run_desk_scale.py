#!/usr/bin/env python3
"""Train the reduced (desk-scale) model on the real recordings CSV.

Reduced architecture: d_model=64, 4 heads of 16, 2 blocks, d_pwff=256.
Twenty epochs should reach test accuracy >= 0.95. On 2 vCPUs (Intel Xeon)
with 1 BLAS thread they take about 34 minutes: an epoch is 230 training
steps of about 0.40 s and one evaluation of the 1,840 test rows of about
11 s, the medians of the perfbench train_desk and eval_desk workloads.

Usage:
    python3 scripts/run_desk_scale.py path/to/recordings.csv [--epochs 20]
        [--seed 0] [--out desk.ckpt]
"""

import argparse
import sys
import time

from eened.config import ModelConfig, TrainConfig
from eened.data import TEST, load_dataset, normalize, split
from eened.model import model_init, save_checkpoint
from eened.train import evaluate, train

DESK_MODEL = dict(d_model=64, n_heads=4, head_dim=16, n_blocks=2, d_pwff=256,
                  conv_kernel=15, conv_pad=7, dropout_p=0.1, t_in=178,
                  classifier_hidden=128)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", help="full 11500-row recordings CSV")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--lr", type=float, default=1e-4)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="desk.ckpt")
    args = parser.parse_args(argv)

    cfg = ModelConfig(seed=args.seed, **DESK_MODEL)
    tcfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                       lr=args.lr, seed=args.seed)
    dataset = normalize(split(load_dataset(args.csv, cfg.t_in), seed=args.seed))

    model = model_init(cfg)
    print(f"parameters: {model.params.n_params()}")
    started = time.monotonic()
    model, _ = train(model, dataset, tcfg, log_fn=print)
    print(f"train_seconds={time.monotonic() - started:.1f}")

    metrics = evaluate(model, dataset, tag=TEST)
    sys.stdout.write(metrics.report())
    save_checkpoint(model, args.out)
    print(f"checkpoint written to {args.out}")
    return 0 if metrics.accuracy >= 0.95 else 1


if __name__ == "__main__":
    raise SystemExit(main())
