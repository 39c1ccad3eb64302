import numpy as np
import pytest

import prunescope as ps
from prunescope.data import analysis_subset, epoch_batches, save_csv, spiral_arm
from prunescope.errors import DataParseError, LabelRangeError


class TestGenSpirals:
    def test_noiseless_points_on_arms(self):
        # recompute the documented arm equation plus standardization: exact match
        n, classes = 40, 2
        ds = ps.gen_spirals(n, classes, 0.0, ps.RngStream(0))
        t = (np.arange(n) + 1.0) / n
        coords = np.concatenate(
            [spiral_arm(t, k, classes, 0.0, 0.0) for k in range(classes)]
        )
        coords = (coords - coords.mean(axis=0)) / coords.std(axis=0)
        assert np.max(np.abs(ds.features - coords)) == 0.0

    def test_deterministic(self):
        a = ps.gen_spirals(30, 3, 0.2, ps.RngStream(5))
        b = ps.gen_spirals(30, 3, 0.2, ps.RngStream(5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_balanced_construction(self):
        ds = ps.gen_spirals(100, 3, 0.1, ps.RngStream(1))
        assert ds.n == 300
        np.testing.assert_array_equal(np.bincount(ds.labels), [100, 100, 100])

    def test_standardized(self):
        ds = ps.gen_spirals(200, 3, 0.15, ps.RngStream(2))
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.features.std(axis=0), 1.0, atol=1e-12)


class TestCsv:
    def test_smallest_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        ds = ps.load_csv(path)
        assert (ds.n, ds.d, ds.n_classes) == (2, 2, 2)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip(self, tmp_path):
        ds = ps.gen_spirals(25, 3, 0.3, ps.RngStream(9))
        path = tmp_path / "spirals.csv"
        save_csv(ds, path)
        again = ps.load_csv(path)
        np.testing.assert_array_equal(ds.features, again.features)
        np.testing.assert_array_equal(ds.labels, again.labels)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\nnope,4.0,1\n")
        with pytest.raises(DataParseError, match="line 2"):
            ps.load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(DataParseError, match="line 2"):
            ps.load_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("nan,2.0,0\n")
        with pytest.raises(DataParseError):
            ps.load_csv(path)

    def test_label_beyond_declared_range(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("1.0,2.0,5\n")
        with pytest.raises(LabelRangeError):
            ps.load_csv(path, n_classes=3)


def _write_idx(tmp_path, n=4, rows=2, cols=3, image_magic=0x803, label_magic=0x801):
    import struct

    pixels = bytes(range(n * rows * cols))
    images = struct.pack(">IIII", image_magic, n, rows, cols) + pixels
    labels = struct.pack(">II", label_magic, n) + bytes([0, 1, 1, 0])
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(images)
    lp.write_bytes(labels)
    return ip, lp


class TestIdx:
    def test_load(self, tmp_path):
        ip, lp = _write_idx(tmp_path)
        ds = ps.load_idx(ip, lp)
        assert (ds.n, ds.d, ds.n_classes) == (4, 6, 2)
        assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
        assert ds.features[0, 1] == 1 / 255

    def test_wrong_magic_names_expected(self, tmp_path):
        ip, lp = _write_idx(tmp_path, image_magic=0x123)
        with pytest.raises(DataParseError, match="0x00000803"):
            ps.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        import struct

        ip, lp = _write_idx(tmp_path)
        lp.write_bytes(struct.pack(">II", 0x801, 3) + bytes([0, 1, 1]))
        with pytest.raises(DataParseError):
            ps.load_idx(ip, lp)


class TestBatches:
    def test_chunk_sizes(self):
        sizes = [idx.size for idx in epoch_batches(5, 2, 0, ps.RngStream(0))]
        assert sizes == [2, 2, 1]

    def test_permutation_covers_everything(self):
        batches = epoch_batches(37, 8, 4, ps.RngStream(3))
        combined = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(combined), np.arange(37))

    def test_same_epoch_same_order(self):
        a = epoch_batches(50, 16, 3, ps.RngStream(11))
        b = epoch_batches(50, 16, 3, ps.RngStream(11))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_differ(self):
        a = np.concatenate(epoch_batches(50, 16, 0, ps.RngStream(11)))
        b = np.concatenate(epoch_batches(50, 16, 1, ps.RngStream(11)))
        assert not np.array_equal(a, b)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            epoch_batches(5, 6, 0, ps.RngStream(0))


class TestAnalysisSubset:
    def test_fifth_of_dataset(self):
        ds = ps.gen_spirals(100, 3, 0.1, ps.RngStream(1))
        subset = analysis_subset(ds, ps.RngStream(2))
        assert subset.shape == (60,)  # ceil(300 / 5)

    def test_frozen_given_stream(self):
        ds = ps.gen_spirals(50, 2, 0.1, ps.RngStream(1))
        a = analysis_subset(ds, ps.RngStream(7))
        b = analysis_subset(ds, ps.RngStream(7))
        np.testing.assert_array_equal(a, b)
