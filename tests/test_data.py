import gzip
import struct

import numpy as np
import pytest

import dlrt.data
from dlrt.data import (
    DataError,
    Dataset,
    batches,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    write_idx_images,
    write_idx_labels,
)


def make_image_file(path, count, rows, cols, payload):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", 0x00000803, count, rows, cols))
        fh.write(bytes(payload))


def make_label_file(path, payload):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2I", 0x00000801, len(payload)))
        fh.write(bytes(payload))


class TestLoadImages:
    def test_hand_built_fixture(self, tmp_path):
        p = tmp_path / "img"
        make_image_file(p, 1, 2, 2, [0, 128, 255, 64])
        out = load_idx_images(p)
        np.testing.assert_array_equal(
            out, [[0.0, 128 / 255.0, 1.0, 64 / 255.0]]
        )

    def test_every_byte_value_bit_equal(self, tmp_path):
        # the pixels are divided in place; each of the 256 values gives the
        # same float as the out-of-place division
        p = tmp_path / "img"
        make_image_file(p, 16, 4, 4, range(256))
        out = load_idx_images(p)
        assert out.shape == (16, 16)
        assert out.ravel().tobytes() == (np.arange(256) / 255.0).tobytes()

    def test_gzip_transparent(self, tmp_path):
        raw = struct.pack(">4I", 0x00000803, 1, 1, 2) + bytes([10, 20])
        p = tmp_path / "img.gz"
        p.write_bytes(gzip.compress(raw))
        out = load_idx_images(p)
        np.testing.assert_array_equal(out, [[10 / 255.0, 20 / 255.0]])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(struct.pack(">4I", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(DataError):
            load_idx_images(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(b"")
        with pytest.raises(DataError):
            load_idx_images(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "img"
        make_image_file(p, 2, 2, 2, [1, 2, 3])  # should be 8 bytes
        with pytest.raises(DataError):
            load_idx_images(p)

    def test_oversized_header_rejected(self, tmp_path):
        # 2**16 images of 256 x 256: 2**32 bytes, refused before the body is read
        p = tmp_path / "img"
        make_image_file(p, 2**16, 2**8, 2**8, [0])
        with pytest.raises(DataError, match="overflow"):
            load_idx_images(p)

    @pytest.mark.parametrize("corrupt", [
        lambda gz: gz[:-12],  # truncated: EOFError
        lambda gz: gz[:10] + b"\xff" + gz[11:],  # reserved deflate block type: zlib.error
        lambda gz: gz[:2] + b"\x09" + gz[3:],  # unknown compression method: BadGzipFile
    ])
    def test_corrupt_gzip(self, tmp_path, corrupt):
        raw = struct.pack(">4I", 0x00000803, 2, 2, 2) + bytes(range(8))
        p = tmp_path / "img.gz"
        p.write_bytes(corrupt(gzip.compress(raw)))
        with pytest.raises(DataError, match="corrupt gzip"):
            load_idx_images(p)


class TestLoadLabels:
    def test_fixture(self, tmp_path):
        p = tmp_path / "lab"
        make_label_file(p, [3, 1, 4])
        np.testing.assert_array_equal(load_idx_labels(p), [3, 1, 4])

    def test_out_of_range_label(self, tmp_path):
        # the reader takes any class index; the CLI checks it against the
        # network's output width
        p = tmp_path / "lab"
        make_label_file(p, [3, 12])
        assert load_idx_labels(p).tolist() == [3, 12]

    def test_zero_count(self, tmp_path):
        p = tmp_path / "lab"
        make_label_file(p, [])
        assert load_idx_labels(p).size == 0

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "lab"
        p.write_bytes(struct.pack(">2I", 0x00000803, 0))
        with pytest.raises(DataError):
            load_idx_labels(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "lab"
        p.write_bytes(struct.pack(">2I", 0x00000801, 3) + bytes([1, 2]))
        with pytest.raises(DataError, match="expected 3 label bytes, found 2"):
            load_idx_labels(p)


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 9)).astype(np.float64) / 255.0
        labels = rng.integers(0, 10, size=7)
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx_images(ip, images, rows=3, cols=3)
        write_idx_labels(lp, labels)
        first_i, first_l = ip.read_bytes(), lp.read_bytes()
        ds = Dataset(load_idx_images(ip), load_idx_labels(lp))
        assert np.array_equal(ds.images, images)
        assert np.array_equal(ds.labels, labels)
        write_idx_images(ip, ds.images, rows=3, cols=3)
        write_idx_labels(lp, ds.labels)
        assert ip.read_bytes() == first_i
        assert lp.read_bytes() == first_l


class TestWriters:
    """The writers refuse what a byte cannot hold, and write atomically."""

    @pytest.mark.parametrize("bad", [1.2, -0.1, np.nan, np.inf])
    def test_pixel_not_a_byte(self, tmp_path, bad):
        images = np.full((1, 4), 0.5)
        images[0, 2] = bad
        with pytest.raises(DataError, match="fit a byte"):
            write_idx_images(tmp_path / "i", images, rows=2, cols=2)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [300, -1, 256, np.nan, 2.5])
    def test_label_not_a_byte(self, tmp_path, bad):
        with pytest.raises(DataError, match="fit a byte"):
            write_idx_labels(tmp_path / "l", np.array([3, bad]))
        assert not list(tmp_path.iterdir())

    def test_byte_edges_round_trip(self, tmp_path):
        # 255.49 / 255 still rounds to 255, and -0.49 / 255 to 0
        images = np.array([[0.0, 1.0, -0.49 / 255, 255.49 / 255]])
        write_idx_images(tmp_path / "i", images, rows=2, cols=2)
        write_idx_labels(tmp_path / "l", np.array([0, 255]))
        assert load_idx_images(tmp_path / "i").tolist() == [[0.0, 1.0, 0.0, 1.0]]
        assert load_idx_labels(tmp_path / "l").tolist() == [0, 255]

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        p = tmp_path / "i"
        images = np.zeros((1, 4))
        write_idx_images(p, images, rows=2, cols=2)
        good = p.read_bytes()

        def failing_pack(*args):
            raise struct.error("pack failed")

        monkeypatch.setattr(dlrt.data.struct, "pack", failing_pack)  # fails inside the write
        with pytest.raises(struct.error, match="pack failed"):
            write_idx_images(p, images, rows=2, cols=2)
        assert p.read_bytes() == good
        assert [q.name for q in tmp_path.iterdir()] == ["i"]

    @pytest.mark.parametrize("rows, cols", [(-2, -2), (-1, -4), (0, 4), (4, 0)])
    def test_dims_below_one_rejected(self, tmp_path, rows, cols):
        # rows = cols = -2 passed the width check and failed in struct.pack
        p = tmp_path / "i"
        with pytest.raises(DataError, match="image dims must be >= 1"):
            write_idx_images(p, np.zeros((1, abs(rows * cols))), rows=rows, cols=cols)
        assert not p.exists()

    def test_width_not_rows_times_cols_rejected(self, tmp_path):
        p = tmp_path / "i"
        with pytest.raises(DataError, match="5 pixels, expected 4"):
            write_idx_images(p, np.zeros((1, 5)), rows=2, cols=2)
        assert not p.exists()


class TestLoadDataset:
    def test_loads_both_splits(self, tmp_path):
        make_image_file(tmp_path / "train-images-idx3-ubyte", 2, 1, 2, [1, 2, 3, 4])
        make_label_file(tmp_path / "train-labels-idx1-ubyte", [0, 1])
        make_image_file(tmp_path / "t10k-images-idx3-ubyte", 1, 1, 2, [5, 6])
        make_label_file(tmp_path / "t10k-labels-idx1-ubyte", [2])
        train = load_dataset(tmp_path, "train")
        test = load_dataset(tmp_path, "test")
        assert len(train) == 2 and len(test) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path, "train")

    def test_unknown_split(self, tmp_path):
        with pytest.raises(ValueError, match="unknown split 'val'"):
            load_dataset(tmp_path, "val")

    def test_arrays_read_only(self, tmp_path):
        make_image_file(tmp_path / "train-images-idx3-ubyte", 2, 1, 2, [1, 2, 3, 4])
        make_label_file(tmp_path / "train-labels-idx1-ubyte", [0, 1])
        train = load_dataset(tmp_path, "train")
        for a in (train.images, train.labels):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_count_mismatch_rejected(self, tmp_path):
        make_image_file(tmp_path / "i", 2, 1, 1, [1, 2])
        make_label_file(tmp_path / "l", [0])
        with pytest.raises(DataError):
            Dataset(load_idx_images(tmp_path / "i"), load_idx_labels(tmp_path / "l"))


class TestBatches:
    def dataset(self, n):
        return Dataset(np.arange(n, dtype=np.float64).reshape(n, 1) / 255.0,
                       np.zeros(n, dtype=np.int64))

    def test_covers_every_index_once(self):
        ds = self.dataset(4)
        got = batches(ds, 2, seed=1, epoch=0)
        assert len(got) == 2
        seen = np.concatenate([b[0].ravel() for b in got])
        assert sorted(seen) == sorted(ds.images.ravel())

    def test_deterministic(self):
        ds = self.dataset(10)
        a = batches(ds, 3, seed=5, epoch=2)
        b = batches(ds, 3, seed=5, epoch=2)
        for (xa, ya), (xb, yb) in zip(a, b):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_epochs_reshuffle(self):
        ds = self.dataset(64)
        a = np.concatenate([b[0].ravel() for b in batches(ds, 64, seed=5, epoch=0)])
        b = np.concatenate([b[0].ravel() for b in batches(ds, 64, seed=5, epoch=1)])
        assert not np.array_equal(a, b)

    def test_seed_epoch_pairs_independent(self):
        # a key of seed XOR epoch would give these two pairs one order
        ds = self.dataset(64)
        a = np.concatenate([b[0].ravel() for b in batches(ds, 64, seed=1, epoch=2)])
        b = np.concatenate([b[0].ravel() for b in batches(ds, 64, seed=2, epoch=1)])
        assert not np.array_equal(a, b)

    def test_oversized_batch(self):
        ds = self.dataset(3)
        got = batches(ds, 10, seed=0, epoch=0)
        assert len(got) == 1 and got[0][0].shape[0] == 3

    def test_partial_last_batch_kept(self):
        ds = self.dataset(5)
        got = batches(ds, 2, seed=0, epoch=0)
        assert [b[0].shape[0] for b in got] == [2, 2, 1]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            batches(self.dataset(3), 0, seed=0, epoch=0)

    def test_epoch_coverage_property(self):
        ds = self.dataset(23)
        for epoch in range(3):
            got = batches(ds, 7, seed=9, epoch=epoch)
            seen = sorted(np.concatenate([b[0].ravel() for b in got]))
            assert np.allclose(seen, ds.images.ravel()[np.argsort(ds.images.ravel())])
