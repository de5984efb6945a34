"""Seeded MNIST-shaped synthetic data written as IDX files.

Each of the ten classes has a template: a soft half-plane edge across the
28x28 image, at an angle of 36 degrees times the class plus a small seeded
jitter. A sample is its class template times a seeded contrast, plus pixel
noise, clipped to [0, 1] and rounded to bytes by ``dlrt.data``'s writers.
The classes are linearly separable but overlap in most pixels, so a network
starts near chance, its loss falls within a few hundred steps at the paper's
learning rate, and the rank-adaptive integrator truncates against a real
signal rather than pure noise.
"""

from pathlib import Path

import numpy as np

from dlrt.data import write_idx_images, write_idx_labels

ROWS = COLS = 28
CLASSES = 10
ANGLE_JITTER = 0.05  # radians
EDGE_STEEPNESS = 4.0
CONTRAST = (0.7, 1.0)
NOISE_STD = 0.05

_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def templates(rng: np.random.Generator) -> np.ndarray:
    """One flattened template per class, values in (0, 1)."""
    yy, xx = (np.mgrid[0:ROWS, 0:COLS] - (ROWS - 1) / 2) / ((ROWS - 1) / 2)
    out = np.empty((CLASSES, ROWS * COLS))
    for c in range(CLASSES):
        theta = 2.0 * np.pi * c / CLASSES + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)
        edge = xx * np.cos(theta) + yy * np.sin(theta)
        out[c] = (1.0 / (1.0 + np.exp(-EDGE_STEEPNESS * edge))).ravel()
    return out


def samples(rng: np.random.Generator, temps: np.ndarray, count: int):
    """``count`` images (rows of pixels in [0, 1]) and their labels."""
    labels = rng.integers(0, CLASSES, count)
    contrast = rng.uniform(*CONTRAST, size=(count, 1))
    noise = NOISE_STD * rng.standard_normal((count, ROWS * COLS))
    return np.clip(temps[labels] * contrast + noise, 0.0, 1.0), labels


def write_dataset(directory, seed: int, n_train: int, n_test: int) -> None:
    """Write train and test splits under the canonical MNIST file names."""
    rng = np.random.default_rng(seed)
    temps = templates(rng)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split, count in (("train", n_train), ("test", n_test)):
        images, labels = samples(rng, temps, count)
        image_file, label_file = _FILES[split]
        write_idx_images(directory / image_file, images, ROWS, COLS)
        write_idx_labels(directory / label_file, labels)
