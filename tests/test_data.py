"""CSV ingestion, the published split protocol, normalization and
batching."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from eened.data import (TEST, TEST_NEG, TEST_POS, TRAIN, TRAIN_POS, UNUSED,
                        DataError, Dataset, batches, load_dataset,
                        make_toy_dataset, normalize, read_csv, sniff_csv,
                        split, write_synthetic_public_csv, _CHUNK_ROWS)


def write(path, text):
    path.write_text(text)
    return path


class TestParseCsv:
    def test_three_row_smoke(self, tmp_path):
        path = write(tmp_path / "s.csv", "1,2,3,1\n4,5,6,2\n7,8,9,5\n")
        ds = load_dataset(path, t_in=3)
        assert_array_equal(ds.x, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert ds.x.dtype == np.float32 and ds.x.flags.c_contiguous
        assert_array_equal(ds.y, [1, 0, 0])
        assert_array_equal(ds.split, [UNUSED] * 3)

    def test_header_and_id_column(self, tmp_path):
        path = write(tmp_path / "s.csv", "id,X1,X2,y\nr0,1,2,1\nr1,3,4,4\n")
        assert_array_equal(read_csv(path), [[1, 2, 1], [3, 4, 4]])
        assert_array_equal(load_dataset(path, t_in=2).x[1], [3.0, 4.0])

    def test_missing_feature_names_line(self, tmp_path):
        path = write(tmp_path / "s.csv", "1,2,3,1\n4,5,2\n")
        with pytest.raises(DataError, match=":2: expected 4 columns, found 3"):
            load_dataset(path, t_in=3)
        longer = write(tmp_path / "l.csv", "id,a,b,y\nr0,1,2,1\nr1,3,4,5,1\n")
        with pytest.raises(DataError, match=":3: expected 4 columns, found 5"):
            load_dataset(longer, t_in=2)

    def test_non_numeric_feature(self, tmp_path):
        path = write(tmp_path / "s.csv", "1,2,3,1\n1,abc,3,1\n")
        with pytest.raises(DataError, match=":2: non-numeric feature value 'abc'"):
            load_dataset(path, t_in=3)

    def test_corrupt_first_row_is_not_taken_for_a_header(self, tmp_path):
        # a header has no numeric cell: a first data row with one corrupt
        # cell must fail on that cell, not vanish as a header
        path = write(tmp_path / "s.csv", "1,abc,3,1\n4,5,6,2\n")
        assert sniff_csv(path) == (False, False)
        with pytest.raises(DataError, match=":1: non-numeric feature value 'abc'"):
            load_dataset(path, t_in=3)
        one_row = write(tmp_path / "o.csv", "1,abc,3,1\n")
        with pytest.raises(DataError, match=":1: non-numeric feature value 'abc'"):
            read_csv(one_row)
        # nor is a first row that has only its id cell non-numeric
        ids = write(tmp_path / "i.csv", "r0,1,2,1\nr1,3,4,4\n")
        assert sniff_csv(ids) == (False, True)
        assert_array_equal(read_csv(ids), [[1, 2, 1], [3, 4, 4]])

    def test_header_numbering_the_columns_is_a_header(self, tmp_path):
        # pandas writes unnamed columns as 0..n-1, after an empty cell when
        # it writes the row index too; that index is then the id column
        indexed = write(tmp_path / "p.csv", ",0,1,2\n0,7,8,1\n1,9,10,4\n")
        assert sniff_csv(indexed) == (True, True)
        assert_array_equal(read_csv(indexed), [[7, 8, 1], [9, 10, 4]])
        plain = write(tmp_path / "q.csv", "0,1,2\n7,8,1\n9,10,4\n")
        assert sniff_csv(plain) == (True, False)
        assert_array_equal(read_csv(plain), [[7, 8, 1], [9, 10, 4]])
        # any other numbers keep the first line a data row
        for text in ("1,2,3\n7,8,1\n", "0,1,3\n7,8,1\n", "r0,1,2\nr1,8,1\n",
                     "0,0,1\n7,8,1\n"):
            assert not sniff_csv(write(tmp_path / "d.csv", text))[0], text

    def test_feature_count_mismatch_names_the_count(self, tmp_path):
        row = ",".join(["0.5"] * 177) + ",1\n"
        path = write(tmp_path / "s.csv", row * 2)
        with pytest.raises(DataError,
                           match=r"expected 178 features per row, file has 177$"):
            load_dataset(path, t_in=178)

    def test_label_out_of_range(self, tmp_path):
        path = write(tmp_path / "s.csv", "1,2,3,6\n")
        with pytest.raises(DataError, match="label .* got '6'"):
            load_dataset(path, t_in=3)
        path2 = write(tmp_path / "s2.csv", "1,2,3,1.5\n")
        with pytest.raises(DataError, match="label .* got '1.5'"):
            load_dataset(path2, t_in=3)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "s.csv", "")
        with pytest.raises(DataError, match="empty file"):
            load_dataset(path, t_in=3)
        header_only = write(tmp_path / "h.csv", "id,X1,y\n\n")
        with pytest.raises(DataError, match="no data rows"):
            load_dataset(header_only, t_in=1)

    def test_sniff_variants(self, tmp_path):
        plain = write(tmp_path / "a.csv", "1,2,3,1\n")
        assert sniff_csv(plain) == (False, False)
        headed = write(tmp_path / "b.csv", "X1,X2,X3,y\n1,2,3,1\n")
        assert sniff_csv(headed) == (True, False)
        full = write(tmp_path / "c.csv", "id,X1,X2,y\nr0,1,2,1\n")
        assert sniff_csv(full) == (True, True)
        quoted = write(tmp_path / "d.csv", '"1","2","3","1"\n')
        assert sniff_csv(quoted) == (False, False)

    def test_full_public_layout(self, public_layout_csv):
        ds = load_dataset(public_layout_csv, t_in=178)
        assert ds.x.shape == (11500, 178)
        assert int(ds.y.sum()) == 2300

    @pytest.mark.parametrize("row, message", [
        ("r2,1,x,3", "non-numeric feature value 'x'"),
        ("r2,1,2", "expected 4 columns, found 3"),
        ("r2,1,2,7", "label must be an integer in 1..5, got '7'"),
    ])
    def test_error_names_the_file_line(self, tmp_path, row, message):
        # header on line 2 after a blank line, and a line of spaces at 4:
        # the bad row is file line 6, although it is the third data row
        text = f"\nid,a,b,y\nr0,1,2,1\n  \nr1,3,4,2\n{row}\nr3,5,6,3\n"
        with pytest.raises(DataError, match=f"s.csv:6: {re.escape(message)}"):
            load_dataset(write(tmp_path / "s.csv", text), t_in=2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_cell_is_a_data_error(self, tmp_path, cell):
        # such a row once loaded and was scored p=nan; 1e39 overflows
        # float32 to inf
        path = write(tmp_path / "s.csv", f"id,a,b,y\nr0,1,2,1\nr1,3,{cell},2\n")
        for read in (read_csv, lambda p: load_dataset(p, t_in=2)):
            with pytest.raises(DataError,
                               match=f"s.csv:3: non-finite value '{re.escape(cell)}'"):
                read(path)

    def test_hash_is_a_cell_character_not_a_comment(self, tmp_path):
        path = write(tmp_path / "s.csv", "1,2,3,1\n4,5#x,6,1\n")
        with pytest.raises(DataError, match=":2: non-numeric feature value '5#x'"):
            load_dataset(path, t_in=3)

    def test_quoted_numeric_cells(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     'id,a,b,y\n"r,0","1.5",2,"1"\nr1,"-3","4e1",2\n')
        ds = load_dataset(path, t_in=2)
        assert_array_equal(ds.x, [[1.5, 2.0], [-3.0, 40.0]])
        assert_array_equal(ds.y, [1, 0])

    def test_cells_round_like_float_then_float32(self, tmp_path):
        # the reference is the per-cell conversion the reader replaced:
        # Python's float, then one rounding to float32
        rng = np.random.default_rng(0)
        cells = [[f"{v:.6f}" for v in row]
                 for row in rng.uniform(-1e4, 1e4, size=(200, 9))]
        cells = [row[:-1] + [str(1 + i % 5)] for i, row in enumerate(cells)]
        path = write(tmp_path / "s.csv", "".join(",".join(r) + "\n" for r in cells))
        expected = np.array([[np.float32(float(c)) for c in r[:-1]] for r in cells])
        got = load_dataset(path, t_in=8).x
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


class TestBinarize:
    @staticmethod
    def labels_of(tmp_path, labels):
        text = "".join(f"{i},0.5,{v}\n" for i, v in enumerate(labels))
        return load_dataset(write(tmp_path / "l.csv", text), t_in=2).y

    def test_definition(self, tmp_path):
        y = self.labels_of(tmp_path, [1, 2, 3, 4, 5, "1.0"])
        assert y.dtype == np.uint8
        assert_array_equal(y, [1, 0, 0, 0, 0, 1])

    def test_all_positive(self, tmp_path):
        assert_array_equal(self.labels_of(tmp_path, [1] * 4), [1, 1, 1, 1])

    @given(st.permutations(list(range(10))))
    @settings(deadline=None, max_examples=20)
    def test_positive_count_permutation_invariant(self, tmp_path_factory, order):
        labels = [1, 1, 2, 3, 4, 5, 1, 2, 5, 4]
        y = self.labels_of(tmp_path_factory.mktemp("p"), [labels[i] for i in order])
        assert int(y.sum()) == 3


def public_dataset(public_layout_csv):
    return load_dataset(public_layout_csv, t_in=178)


class TestSplit:
    def test_published_counts(self, public_layout_csv):
        ds = split(public_dataset(public_layout_csv), seed=0)
        assert int(np.sum(ds.split == TRAIN)) == 7360
        assert int(np.sum(ds.split == TEST)) == 1840
        test_y = ds.y[ds.split == TEST]
        assert int(np.sum(test_y == 0)) == TEST_NEG == 1461
        assert int(np.sum(test_y == 1)) == TEST_POS == 379
        train_y = ds.y[ds.split == TRAIN]
        assert int(np.sum(train_y == 1)) == TRAIN_POS

    def test_deterministic_per_seed(self, public_layout_csv):
        ds = public_dataset(public_layout_csv)
        a = split(ds, seed=7).split
        b = split(ds, seed=7).split
        assert_array_equal(a, b)

    def test_different_seed_moves_membership_not_counts(self, public_layout_csv):
        ds = public_dataset(public_layout_csv)
        a = split(ds, seed=1)
        b = split(ds, seed=2)
        assert not np.array_equal(a.split, b.split)
        for tagged in (a, b):
            hist = [int(np.sum(tagged.split == t)) for t in (TRAIN, TEST, UNUSED)]
            assert hist == [7360, 1840, 2300]

    def test_too_small_dataset(self):
        ds = Dataset(x=np.zeros((100, 4), np.float32),
                     y=np.tile(np.array([1, 0, 0, 0, 0], np.uint8), 20),
                     split=np.full(100, UNUSED, np.uint8))
        with pytest.raises(DataError, match="too small"):
            split(ds, seed=0)

    def test_original_tags_untouched(self, public_layout_csv):
        ds = public_dataset(public_layout_csv)
        split(ds, seed=0)
        assert np.all(ds.split == UNUSED)


class TestNormalize:
    def test_train_stats_unit(self, public_layout_csv):
        ds = normalize(split(public_dataset(public_layout_csv), seed=0))
        train_vals = ds.x[ds.split == TRAIN].astype(np.float64)
        assert abs(train_vals.mean()) < 1e-6
        assert abs(train_vals.std() - 1.0) < 1e-6

    def test_test_uses_train_stats(self, public_layout_csv):
        ds = normalize(split(public_dataset(public_layout_csv), seed=0))
        test_vals = ds.x[ds.split == TEST].astype(np.float64)
        # transformed with train statistics, so not exactly standardized
        assert abs(test_vals.mean()) > 1e-9 or abs(test_vals.std() - 1.0) > 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_whole_array_formula(self, dtype):
        # a row count that is no multiple of the chunk, a float64 x, and
        # train rows scattered through the file
        n = 2 * _CHUNK_ROWS + 37
        rng = np.random.default_rng(5)
        x = np.rint(rng.normal(0.0, 150.0, size=(n, 7))).astype(dtype)
        tags = rng.choice(np.array([TRAIN, TEST, UNUSED], np.uint8), size=n)
        ds = normalize(Dataset(x=x, y=np.zeros(n, np.uint8), split=tags))
        values = x[tags == TRAIN].astype(np.float64)
        mean, std = values.mean(), values.std()
        assert ds.norm_stats == (mean, std)
        expected = ((x.astype(np.float64) - mean) / std).astype(np.float32)
        assert ds.x.dtype == np.float32
        assert_array_equal(ds.x.view(np.uint32), expected.view(np.uint32))

    def test_peak_memory_is_about_one_copy_of_x(self, public_layout_csv):
        # whole-file float64 copies peaked at 4.29 x.nbytes
        ds = split(public_dataset(public_layout_csv), seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            normalize(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.x.shape == (11500, 178)
        assert peak <= 1.6 * ds.x.nbytes

    def test_zero_variance(self):
        ds = Dataset(x=np.ones((4, 3), np.float32),
                     y=np.array([1, 0, 1, 0], np.uint8),
                     split=np.array([TRAIN, TRAIN, TEST, TEST], np.uint8))
        with pytest.raises(DataError, match="variance"):
            normalize(ds)

    def test_requires_split(self):
        ds = Dataset(x=np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32),
                     y=np.zeros(4, np.uint8), split=np.full(4, UNUSED, np.uint8))
        with pytest.raises(DataError, match="train split"):
            normalize(ds)


def small_dataset(n=10, t=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.normal(size=(n, t)).astype(np.float32),
                   y=(rng.random(n) < 0.5).astype(np.uint8),
                   split=np.full(n, TRAIN, np.uint8))


class TestBatches:
    def test_sizes(self):
        sizes = [b.x.shape[0] for b in batches(small_dataset(10), TRAIN, 3)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_order(self):
        ds = small_dataset(20)
        a = [b.indices.tolist() for b in batches(ds, TRAIN, 4, shuffle_seed=5)]
        b = [b.indices.tolist() for b in batches(ds, TRAIN, 4, shuffle_seed=5)]
        assert a == b

    def test_different_seed_different_order(self):
        ds = small_dataset(20)
        a = [i for b in batches(ds, TRAIN, 4, shuffle_seed=1) for i in b.indices]
        b = [i for b in batches(ds, TRAIN, 4, shuffle_seed=2) for i in b.indices]
        assert a != b

    @given(st.integers(1, 25), st.integers(0, 100))
    @settings(deadline=None, max_examples=30)
    def test_exact_coverage(self, batch_size, seed):
        ds = small_dataset(17)
        seen = [i for b in batches(ds, TRAIN, batch_size, shuffle_seed=seed)
                for i in b.indices.tolist()]
        assert sorted(seen) == list(range(17))

    def test_batch_rows_match_dataset(self):
        ds = small_dataset(12)
        for b in batches(ds, TRAIN, 5, shuffle_seed=3):
            assert_array_equal(b.x, ds.x[b.indices])
            assert_array_equal(b.y, ds.y[b.indices])

    def test_empty_split(self):
        with pytest.raises(DataError, match="no rows"):
            list(batches(small_dataset(5), TEST, 2))

    def test_bad_batch_size(self):
        with pytest.raises(DataError):
            list(batches(small_dataset(5), TRAIN, 0))


class TestToyData:
    def test_balanced_and_split(self):
        ds = make_toy_dataset(40, 32, seed=1)
        assert int(ds.y.sum()) == 20
        assert int(np.sum(ds.split == TEST)) == 8
        assert int(np.sum(ds.split == TRAIN)) == 32
        # both classes appear on both sides
        for tag in (TRAIN, TEST):
            labels = ds.y[ds.split == tag]
            assert 0 < int(labels.sum()) < labels.size

    def test_deterministic(self):
        a = make_toy_dataset(20, 16, seed=9)
        b = make_toy_dataset(20, 16, seed=9)
        assert_array_equal(a.x, b.x)
        assert_array_equal(a.y, b.y)

    def test_classes_are_separable_by_peak_amplitude(self):
        ds = make_toy_dataset(200, 64, seed=4)
        peak = np.abs(ds.x).max(axis=1)
        threshold = 5.0
        predicted = (peak > threshold).astype(np.uint8)
        assert np.mean(predicted == ds.y) > 0.97

    def test_synthetic_public_file_layout(self, tmp_path):
        path = tmp_path / "p.csv"
        write_synthetic_public_csv(path, seed=1, n=50, t_in=12)
        ds = load_dataset(path, t_in=12)
        assert ds.x.shape == (50, 12)
        assert int(ds.y.sum()) == 10
