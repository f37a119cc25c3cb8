#!/usr/bin/env python3
"""Write a synthetic CSV with the public recordings file's exact layout.

The file has a header row, an id column, 178 feature columns, and a label
column in 1..5 with 2300 rows per label (11500 rows total). Label-1 rows
carry large-amplitude activity so the file is learnable end to end. Useful
for exercising the full pipeline when the real recordings are not on disk.

Usage:
    python3 scripts/make_synthetic_csv.py out.csv [--seed 0] [--rows 11500]
"""

import argparse

from eened.data import write_synthetic_public_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the CSV to write")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=11500,
                        help="total row count (a positive multiple of 5)")
    args = parser.parse_args(argv)

    try:
        write_synthetic_public_csv(args.out, seed=args.seed, n=args.rows)
    except ValueError as e:
        parser.error(str(e))
    print(f"wrote {args.rows} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
