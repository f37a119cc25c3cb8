import errno
import os
from pathlib import Path

import pytest

import eened.model
from eened.data import write_synthetic_public_csv

REAL_CSV_CANDIDATES = [
    "data/seizures.csv",
    "data/Epileptic Seizure Recognition.csv",
    "seizures.csv",
]


def find_real_csv():
    """The real recording CSV, if the environment provides one."""
    env = os.environ.get("EENED_DATA")
    if env and Path(env).is_file():
        return Path(env)
    root = Path(__file__).resolve().parent.parent
    for rel in REAL_CSV_CANDIDATES:
        path = root / rel
        if path.is_file():
            return path
    return None


@pytest.fixture(scope="session")
def real_csv_path():
    return find_real_csv()


@pytest.fixture(scope="session")
def public_layout_csv(tmp_path_factory, real_csv_path):
    """A file with the public dataset's shape: the real one when present,
    otherwise a synthetic stand-in with the same layout and label histogram."""
    if real_csv_path is not None:
        return real_csv_path
    path = tmp_path_factory.mktemp("data") / "synthetic_public.csv"
    write_synthetic_public_csv(path, seed=0)
    return path


class _FullDisk:
    """A file that accepts ``room`` bytes, then fails as a full disk does."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, data):
        view = memoryview(data).cast("B")
        if len(view) > self.room:
            self.fh.write(view[:self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(view)
        return self.fh.write(view)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(room, part)``: files that eened.model opens whose paths
    contain ``part`` take ``room`` bytes, then fail with ENOSPC."""
    real_open = open

    def fill(room, part=""):
        def opener(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return _FullDisk(fh, room) if part in os.fspath(file) else fh

        monkeypatch.setattr(eened.model, "open", opener, raising=False)

    return fill
