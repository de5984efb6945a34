"""MNIST-style IDX ingestion, normalization, and seeded batching.

IDX files are big-endian: a u32 magic (0x00000803 for image tensors,
0x00000801 for label vectors), u32 dimension sizes, then raw unsigned
bytes. Gzip-compressed files are detected by their two magic bytes and
decompressed transparently. Pixels are scaled to [0, 1] as float64.
"""

import gzip
import struct
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write
from .linalg import read_only

__all__ = [
    "DataError",
    "Dataset",
    "load_idx_images",
    "load_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_dataset",
    "batches",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class DataError(Exception):
    """Malformed IDX input."""


@dataclass(frozen=True)
class Dataset:
    """Images with their labels. A dataset takes ownership of both arrays
    and marks them read-only."""

    images: np.ndarray  # N x pixels, float64 in [0, 1]
    labels: np.ndarray  # N non-negative ints, one class index per image

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        read_only(self.images, self.labels)

    def __len__(self):
        return self.images.shape[0]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise DataError(f"corrupt gzip file {path}: {exc}") from exc
    return raw


def _read_u32s(raw: bytes, count: int, offset: int = 0):
    end = offset + 4 * count
    if len(raw) < end:
        raise DataError("truncated IDX header")
    return struct.unpack(f">{count}I", raw[offset:end])


def load_idx_images(path) -> np.ndarray:
    """Image tensor as an N x (rows*cols) float64 matrix scaled to [0, 1]."""
    raw = _read_bytes(path)
    magic, = _read_u32s(raw, 1)
    if magic != IMAGE_MAGIC:
        raise DataError(f"bad image magic 0x{magic:08x}")
    count, rows, cols = _read_u32s(raw, 3, offset=4)
    pixels = rows * cols
    total = count * pixels
    if total > 2**31:
        raise DataError("IDX dimensions overflow a sane image tensor")
    body = raw[16:]
    if len(body) != total:
        raise DataError(f"expected {total} pixel bytes, found {len(body)}")
    data = np.frombuffer(body, dtype=np.uint8).astype(np.float64)
    data /= 255.0  # in place: one N x pixels float array, not two
    return data.reshape(count, pixels)


def load_idx_labels(path) -> np.ndarray:
    """Label vector of class indices, as int64. Whether they fit a network's
    output width is the caller's check."""
    raw = _read_bytes(path)
    magic, = _read_u32s(raw, 1)
    if magic != LABEL_MAGIC:
        raise DataError(f"bad label magic 0x{magic:08x}")
    count, = _read_u32s(raw, 1, offset=4)
    body = raw[8:]
    if len(body) != count:
        raise DataError(f"expected {count} label bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.int64)


def _check_bytes(values: np.ndarray, what: str) -> None:
    # NaN fails every comparison, so it is refused with the values that
    # would wrap around a byte or lose a fraction
    if not np.all((values >= 0) & (values <= 255) & (values == np.rint(values))):
        raise DataError(f"{what} must be integers in [0, 255], not NaN, to fit a byte")


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    """Inverse of load_idx_images; [0,1] floats round back to bytes.

    Raises ``DataError`` for ``rows`` or ``cols`` below 1 and for a pixel
    that is NaN or rounds outside [0, 255] after scaling by 255. The file
    is written through ``atomic_write``.
    """
    count = images.shape[0]
    if rows < 1 or cols < 1:
        raise DataError(f"image dims must be >= 1, got {rows} x {cols}")
    if images.shape[1] != rows * cols:
        raise DataError(f"images have {images.shape[1]} pixels, expected {rows * cols}")
    body = np.rint(np.asarray(images) * 255.0)
    _check_bytes(body, "pixels scaled by 255 and rounded")
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack(">4I", IMAGE_MAGIC, count, rows, cols))
        fh.write(body.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Inverse of load_idx_labels. Raises ``DataError`` for a label that is
    NaN, fractional or outside [0, 255]; the file is written through
    ``atomic_write``."""
    labels = np.asarray(labels)
    _check_bytes(labels, "labels")
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack(">2I", LABEL_MAGIC, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


# canonical MNIST filenames, tried with and without .gz
_SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_dataset(data_dir, split: str) -> Dataset:
    """Load one split ("train" or "test") from a directory of IDX files."""
    if split not in _SPLIT_FILES:
        raise ValueError(f"unknown split {split!r}")
    base = Path(data_dir)
    paths = []
    for name in _SPLIT_FILES[split]:
        for candidate in (base / name, base / (name + ".gz")):
            if candidate.exists():
                paths.append(candidate)
                break
        else:
            raise FileNotFoundError(f"missing {name}[.gz] in {base}")
    return Dataset(load_idx_images(paths[0]), load_idx_labels(paths[1]))


def batches(dataset: Dataset, batch_size: int, seed: int, epoch: int) -> Sequence:
    """Seeded shuffled mini-batches covering the dataset exactly once.

    The permutation is keyed by the pair (seed, epoch) so every epoch
    reshuffles deterministically and distinct pairs draw independent
    orders. The last batch keeps the remainder. The batches come as a
    sequence (length, indices, slices as lists, iteration) that copies each
    (images, labels) pair out of the dataset when it is read, so an epoch
    holds one batch at a time, not a copy of the dataset.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(np.random.SeedSequence([seed, epoch])).permutation(len(dataset))
    return _Batches(dataset, batch_size, order)


class _Batches(Sequence):
    """An epoch's mini-batches in ``order``, each formed when it is read."""

    def __init__(self, dataset: Dataset, batch_size: int, order: np.ndarray):
        self._dataset, self._size, self._order = dataset, batch_size, order

    def __len__(self):
        return -(-len(self._order) // self._size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        idx = self._order[i * self._size : (i + 1) * self._size]
        return self._dataset.images[idx], self._dataset.labels[idx]
