"""Dataset ingestion and the published train/test protocol.

The source file is the public seizure-recognition CSV: 11500 rows of 178
integer samples (one second of single-channel EEG each) plus a 5-way label.
Label 1 is a seizure segment; labels 2-5 are seizure-free and collapse to the
negative class. The published protocol trains on 7360 segments and tests on
1840 of which 1461 are negative, so the split subsamples the file to those
counts with seeded stratified draws.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .rng import SeedStream

TRAIN, TEST, UNUSED = 0, 1, 2

TRAIN_COUNT = 7360
TEST_COUNT = 1840
TEST_NEG = 1461
TEST_POS = TEST_COUNT - TEST_NEG  # 379
# Only the test composition is published; the train draw keeps the source
# file's 1-in-5 positive rate: 7360 / 5.
TRAIN_POS = 1472
TRAIN_NEG = TRAIN_COUNT - TRAIN_POS  # 5888


class DataError(RuntimeError):
    """Input data is missing, malformed, or insufficient."""


@dataclass
class Dataset:
    x: np.ndarray  # (N, t_in) float32
    y: np.ndarray  # (N,) uint8, 1 = seizure
    split: np.ndarray  # (N,) uint8: TRAIN / TEST / UNUSED
    norm_stats: Optional[tuple[float, float]] = None  # (mean, std) of train values

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def indices_of(self, tag: int) -> np.ndarray:
        return np.flatnonzero(self.split == tag)


@dataclass
class Batch:
    x: np.ndarray  # (B, t_in)
    y: np.ndarray  # (B,)
    indices: np.ndarray  # (B,) positions in the Dataset


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# an id column is read as this placeholder and dropped: numpy then still
# checks every row's column count, which usecols would not do for long rows
_ID_PLACEHOLDER = {0: lambda cell: 0.0}


def read_floats(source, usecols=None, converters=None) -> np.ndarray:
    """The one place where CSV cells become numbers: every row of ``source``
    (a path or an iterable of lines) as a float32 matrix, each cell parsed as
    a double and rounded to float32; ``#`` is an ordinary character. Raises
    ValueError for a non-numeric cell or a changed column count; no rows
    give a (0, 1) matrix."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(source, delimiter=",", dtype=np.float32,
                          comments=None, quotechar='"', usecols=usecols,
                          converters=converters, ndmin=2)


def _is_numeric(line: str, usecols=None) -> bool:
    try:
        read_floats([line], usecols=usecols)
    except ValueError:
        return False
    return True


def _numbered_from(line: str) -> Optional[int]:
    """Where the column numbers 0..n-1 start when the cells of ``line``
    after an optional non-numeric first cell are exactly those numbers, as
    in the header pandas writes for unnamed columns (``0,1,...``, or
    ``,0,1,...`` with its row index first); None otherwise."""
    width = len(next(csv.reader([line])))
    first = 0 if _is_numeric(line, [0]) else 1
    if first == width:
        return None
    try:
        cells = read_floats([line], usecols=range(first, width))[0]
    except ValueError:
        return None
    return first if np.array_equal(cells, np.arange(width - first)) else None


def sniff_csv(path) -> tuple[bool, bool]:
    """Detect (has_header, id_column). The first non-blank line is a header
    when none of its cells is a number (so a data row with a corrupt cell
    stays a data row, and its read reports the cell) or when it numbers the
    columns (``_numbered_from``). The first column is an id when the first
    data cell is not a number, or when a numbering header leaves it unnamed
    (pandas' row index)."""
    with open(path, newline="") as fh:
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        width = len(next(csv.reader([first])))
        numbered = _numbered_from(first)
        has_header = (numbered is not None
                      or not any(_is_numeric(first, [j]) for j in range(width)))
        probe = next(lines, first) if has_header else first
    return has_header, numbered == 1 or not _is_numeric(probe, usecols=[0])


def _data_lines(path, has_header: bool) -> Iterator[tuple[int, str]]:
    """(1-based file line number, text) of each data row: the lines that are
    not blank, without the header (``sniff_csv``)."""
    with open(path, newline="") as fh:
        lines = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        yield from islice(lines, int(has_header), None)


def _cell(path, has_header: bool, row: int, col: int) -> tuple[int, str]:
    """(file line number, text) of cell ``col`` of data row ``row``."""
    lineno, line = next(islice(_data_lines(path, has_header), int(row), None))
    return lineno, next(csv.reader([line]))[col]


def _read_error(path, has_header: bool, first_col: int,
                cause: ValueError) -> DataError:
    """Find the line that made the whole-file read fail by reading the data
    lines one at a time: the first row fixes the column count."""
    width = None
    for lineno, line in _data_lines(path, has_header):
        cells = next(csv.reader([line]))
        width = width or len(cells)
        if len(cells) != width:
            return DataError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}")
        cols = range(first_col, width)
        if not _is_numeric(line, cols):
            bad = next((cells[j] for j in cols if not _is_numeric(line, [j])),
                       line.strip())
            return DataError(f"{path}:{lineno}: non-numeric feature value {bad!r}")
    return DataError(f"{path}: {cause}")


def read_csv(path) -> np.ndarray:
    """Every data row of a CSV file as one (rows, columns) float32 matrix,
    without the header and the id column (see ``sniff_csv``); blank lines
    are skipped. A cell that is not a finite float32 (``nan``, ``inf``,
    ``1e39``) is an error. Errors name the 1-based file line."""
    has_header, id_column = sniff_csv(path)
    try:
        m = read_floats((line for _, line in _data_lines(path, has_header)),
                        converters=_ID_PLACEHOLDER if id_column else None)
    except ValueError as e:
        raise _read_error(path, has_header, int(id_column), e) from None
    if m.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    if not np.isfinite(m).all():
        lineno, cell = _cell(path, has_header, *np.argwhere(~np.isfinite(m))[0])
        raise DataError(f"{path}:{lineno}: non-finite value {cell!r}")
    return m[:, 1:] if id_column else m


def load_dataset(path, t_in: int) -> Dataset:
    """Read the CSV, check the labels and binarize them: label 1 is the
    positive class, labels 2-5 the negative. Split is not yet assigned."""
    m = read_csv(path)
    labels = m[:, -1]
    bad = np.flatnonzero(~np.isin(labels, np.arange(1, 6)))
    if bad.size:
        lineno, cell = _cell(path, sniff_csv(path)[0], bad[0], -1)
        raise DataError(f"{path}:{lineno}: label must be an integer in 1..5, "
                        f"got {cell!r}")
    if m.shape[1] - 1 != t_in:
        raise DataError(
            f"expected {t_in} features per row, file has {m.shape[1] - 1}")
    return Dataset(x=np.ascontiguousarray(m[:, :-1]),
                   y=(labels == 1).astype(np.uint8),
                   split=np.full(m.shape[0], UNUSED, dtype=np.uint8))


# ---------------------------------------------------------------------------
# split / normalize / batch
# ---------------------------------------------------------------------------


def split(dataset: Dataset, seed: int) -> Dataset:
    """Assign the published split: 7360 train / 1840 test rows, 1461 of the
    test rows negative. Stratified draws without replacement, deterministic
    per seed; rows beyond the required counts stay unused."""
    pos = np.flatnonzero(dataset.y == 1)
    neg = np.flatnonzero(dataset.y == 0)
    need_pos = TRAIN_POS + TEST_POS
    need_neg = TRAIN_NEG + TEST_NEG
    if len(pos) < need_pos or len(neg) < need_neg:
        raise DataError(
            f"dataset too small for the published split: need {need_pos} positive "
            f"and {need_neg} negative rows, have {len(pos)} and {len(neg)}")
    rng = SeedStream(seed).child("split").generator()
    pos = pos[rng.permutation(len(pos))]
    neg = neg[rng.permutation(len(neg))]
    tags = np.full(dataset.n, UNUSED, dtype=np.uint8)
    tags[pos[:TEST_POS]] = TEST
    tags[pos[TEST_POS:need_pos]] = TRAIN
    tags[neg[:TEST_NEG]] = TEST
    tags[neg[TEST_NEG:need_neg]] = TRAIN
    return replace(dataset, split=tags)


# rows per chunk of the z-score and of the train-row copy: a chunk's
# temporaries stay about 1.5 MB at 178 float64 samples a row
_CHUNK_ROWS = 1024


def zscore(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    """``(x - mean) / std`` as a new float32 array, computed in float64 and
    rounded once: bitwise ``((x.astype(float64) - mean) / std)
    .astype(float32)``. It works in fixed row chunks, so beyond its output
    it holds one chunk's float64 copy, whatever the row count. ``normalize``
    and ``eened predict`` both z-score through here."""
    out = np.empty(x.shape, dtype=np.float32)
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        part = x[start:start + _CHUNK_ROWS].astype(np.float64)
        part -= mean
        part /= std
        out[start:start + _CHUNK_ROWS] = part
    return out


def normalize(dataset: Dataset) -> Dataset:
    """Global z-score with statistics from the train rows only; test rows are
    transformed with the train statistics (no leakage). ``norm_stats`` are
    bitwise ``values.mean()`` and ``values.std()`` of the train rows as
    float64, and ``x`` is ``zscore``'s. One float64 copy of the train rows
    serves both statistics, so the peak is the larger of that copy and the
    float32 output, plus a chunk: about 1.4 ``x.nbytes`` for the published
    split of the 11,500-row file."""
    train_idx = dataset.indices_of(TRAIN)
    if train_idx.size == 0:
        raise DataError("normalize needs an assigned train split")
    values = np.empty((train_idx.size,) + dataset.x.shape[1:], dtype=np.float64)
    for start in range(0, train_idx.size, _CHUNK_ROWS):
        rows = train_idx[start:start + _CHUNK_ROWS]
        values[start:start + _CHUNK_ROWS] = dataset.x[rows]
    mean = float(values.mean())
    # values.std()'s own steps, in place in the copy
    values -= mean
    np.square(values, out=values)
    std = float(np.sqrt(values.sum() / values.size))
    del values
    if std == 0.0:
        raise DataError("train split has zero variance; cannot normalize")
    return replace(dataset, x=zscore(dataset.x, mean, std),
                   norm_stats=(mean, std))


def batches(dataset: Dataset, tag: int, batch_size: int,
            shuffle_seed: Optional[int] = None) -> Iterator[Batch]:
    """Minibatches covering every row with the given tag exactly once.
    ``shuffle_seed=None`` keeps dataset order."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    idx = dataset.indices_of(tag)
    if idx.size == 0:
        raise DataError(f"no rows with split tag {tag}")
    if shuffle_seed is not None:
        rng = SeedStream(shuffle_seed).child("batches").generator()
        idx = idx[rng.permutation(idx.size)]
    for start in range(0, idx.size, batch_size):
        part = idx[start:start + batch_size]
        yield Batch(x=dataset.x[part], y=dataset.y[part], indices=part)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def make_toy_dataset(n: int, t_in: int, seed: int) -> Dataset:
    """Two separable waveform classes: both are low-amplitude noise, and the
    positive class adds a large Gaussian bump at a random position. Split is
    assigned 80/20 stratified. Used by the CLI --toy mode and smoke tests."""
    if n < 2:
        raise DataError(f"toy dataset needs n >= 2, got {n}")
    rng = SeedStream(seed).child("toy").generator()
    t = np.arange(t_in, dtype=np.float64)
    x = np.empty((n, t_in), dtype=np.float32)
    y = np.zeros(n, dtype=np.uint8)
    y[: n // 2] = 1
    for i in range(n):
        row = rng.normal(0.0, 1.0, size=t_in)
        if y[i] == 1:
            center = rng.uniform(0.2, 0.8) * t_in
            width = rng.uniform(0.03, 0.08) * t_in
            sign = 1.0 if rng.random() < 0.5 else -1.0
            row = row + sign * 8.0 * np.exp(-0.5 * ((t - center) / width) ** 2)
        x[i] = row
    order = rng.permutation(n)
    x, y = x[order], y[order]
    tags = np.full(n, TRAIN, dtype=np.uint8)
    for cls in (0, 1):
        cls_idx = np.flatnonzero(y == cls)
        n_test = max(1, cls_idx.size // 5) if cls_idx.size > 1 else 0
        tags[cls_idx[:n_test]] = TEST
    return Dataset(x=x, y=y, split=tags)


def write_synthetic_public_csv(path, seed: int = 0, n: int = 11500,
                               t_in: int = 178) -> None:
    """A file with the public dataset's layout: header, id column, n rows of
    t_in integer samples, label column cycling 1..5 in equal counts. Feature
    values are noise; only the layout and label histogram matter."""
    rng = SeedStream(seed).child("synthetic-csv").generator()
    labels = np.tile(np.arange(1, 6, dtype=np.int64), n // 5 + 1)[:n]
    labels = labels[rng.permutation(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"X{i}" for i in range(1, t_in + 1)] + ["y"])
        for i in range(n):
            amp = 400 if labels[i] == 1 else 60
            row = np.rint(rng.normal(0.0, amp, size=t_in)).astype(np.int64)
            writer.writerow([f"r{i}", *row.tolist(), int(labels[i])])
