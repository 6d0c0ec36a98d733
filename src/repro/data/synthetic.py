"""Deterministic synthetic image datasets mirroring the paper's Table 1.

Each class has a smooth random prototype pattern; a sample is its class
prototype under a small random translation, a per-sample gain, and additive
Gaussian noise. ``difficulty`` scales the noise relative to the prototype
separation, so tests can generate near-trivial sets and experiments can
generate sets where accuracy climbs gradually over thousands of SGD steps
(the regime Figures 6/8/13 live in).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.util.rng import spawn_rng

__all__ = [
    "DATASET_GEOMETRY",
    "make_class_prototypes",
    "make_synthetic",
    "make_mnist_like",
    "make_cifar_like",
    "make_imagenet_like",
]

#: Geometry of the paper's datasets (Table 1): (channels, height, width, classes,
#: train size, test size). ImageNet is listed at its true geometry; the
#: generator defaults scale it down so experiments stay laptop-sized, while
#: the cost model (repro.nn.spec) always uses the full-scale numbers.
DATASET_GEOMETRY = {
    "mnist": dict(channels=1, height=28, width=28, classes=10, train=60_000, test=10_000),
    "cifar": dict(channels=3, height=32, width=32, classes=10, train=50_000, test=10_000),
    "imagenet": dict(
        channels=3, height=256, width=256, classes=1000, train=1_200_000, test=150_000
    ),
}


def _smooth_field(rng: np.random.Generator, channels: int, height: int, width: int) -> np.ndarray:
    """A smooth random pattern: white noise blurred by separable box passes.

    Smoothness makes prototypes resemble low-frequency image content, which
    convolution layers pick up quickly — like digit strokes rather than salt
    and pepper.
    """
    field = rng.standard_normal((channels, height, width)).astype(np.float32)
    # Three box-blur passes along each axis approximate a Gaussian blur and
    # keep everything vectorized (guide: avoid Python-level pixel loops).
    for _ in range(3):
        field = (field + np.roll(field, 1, axis=1) + np.roll(field, -1, axis=1)) / 3.0
        field = (field + np.roll(field, 1, axis=2) + np.roll(field, -1, axis=2)) / 3.0
    field -= field.mean()
    norm = np.linalg.norm(field)
    if norm > 0:
        field /= norm
    return field


def make_class_prototypes(
    num_classes: int, channels: int, height: int, width: int, seed: int
) -> np.ndarray:
    """Generate ``(num_classes, C, H, W)`` unit-norm smooth prototypes."""
    rng = spawn_rng(seed, "prototypes")
    protos = np.stack(
        [_smooth_field(rng, channels, height, width) for _ in range(num_classes)]
    )
    return protos.astype(np.float32)


def make_synthetic(
    name: str,
    n: int,
    num_classes: int,
    channels: int,
    height: int,
    width: int,
    seed: int,
    difficulty: float = 1.0,
    max_shift: int = 2,
    split: str = "train",
) -> Dataset:
    """Build a synthetic dataset of ``n`` samples.

    Parameters
    ----------
    difficulty:
        Noise standard deviation relative to the prototype amplitude. ``0``
        yields noiseless (still shifted) samples; ``1`` yields samples where
        a linear classifier plateaus well below 100% but a small CNN can
        still reach high accuracy given enough steps.
    max_shift:
        Maximum circular translation in pixels along each spatial axis.
    split:
        Only used to derive an independent RNG stream so train and test
        sets never share noise.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if max_shift < 0:
        raise ValueError("max_shift must be >= 0")
    if difficulty < 0:
        raise ValueError("difficulty must be >= 0")

    protos = make_class_prototypes(num_classes, channels, height, width, seed)
    # Scale prototypes so per-pixel signal amplitude is O(1) regardless of
    # image size; noise is then directly comparable across geometries.
    amplitude = np.sqrt(channels * height * width).astype(np.float32)
    protos = protos * amplitude

    rng = spawn_rng(seed, "samples", split)
    labels = rng.integers(0, num_classes, size=n)
    shifts_h = rng.integers(-max_shift, max_shift + 1, size=n)
    shifts_w = rng.integers(-max_shift, max_shift + 1, size=n)
    gains = (1.0 + 0.1 * rng.standard_normal(n)).astype(np.float32)
    noise_sigma = np.float32(difficulty)

    images = np.empty((n, channels, height, width), dtype=np.float32)
    # One roll of the prototypes per distinct shift — at most
    # (2 * max_shift + 1)**2 of them — gathered by label, scaled by gain.
    side = 2 * max_shift + 1
    shift_ids = (shifts_h + max_shift) * side + (shifts_w + max_shift)
    for shift_id in np.unique(shift_ids):
        rows = np.flatnonzero(shift_ids == shift_id)
        dh, dw = divmod(int(shift_id), side)
        rolled = np.roll(protos, (dh - max_shift, dw - max_shift), axis=(2, 3))
        images[rows] = rolled[labels[rows]] * gains[rows, None, None, None]
    if noise_sigma > 0:
        images += noise_sigma * rng.standard_normal(images.shape).astype(np.float32)

    return Dataset(
        name=name,
        images=images,
        labels=labels.astype(np.int64),
        num_classes=num_classes,
        meta=dict(seed=seed, difficulty=difficulty, max_shift=max_shift, split=split),
    )


def make_mnist_like(
    n_train: int = 4096,
    n_test: int = 1024,
    seed: int = 0,
    difficulty: float = 1.0,
) -> tuple[Dataset, Dataset]:
    """MNIST-geometry synthetic set: 1x28x28 images, 10 classes."""
    geo = DATASET_GEOMETRY["mnist"]
    common = dict(
        num_classes=geo["classes"],
        channels=geo["channels"],
        height=geo["height"],
        width=geo["width"],
        seed=seed,
        difficulty=difficulty,
    )
    train = make_synthetic("mnist-like", n_train, split="train", **common)
    test = make_synthetic("mnist-like", n_test, split="test", **common)
    return train, test


def make_cifar_like(
    n_train: int = 4096,
    n_test: int = 1024,
    seed: int = 0,
    difficulty: float = 1.2,
) -> tuple[Dataset, Dataset]:
    """CIFAR-geometry synthetic set: 3x32x32 images, 10 classes."""
    geo = DATASET_GEOMETRY["cifar"]
    common = dict(
        num_classes=geo["classes"],
        channels=geo["channels"],
        height=geo["height"],
        width=geo["width"],
        seed=seed,
        difficulty=difficulty,
    )
    train = make_synthetic("cifar-like", n_train, split="train", **common)
    test = make_synthetic("cifar-like", n_test, split="test", **common)
    return train, test


def make_imagenet_like(
    n_train: int = 2048,
    n_test: int = 512,
    seed: int = 0,
    difficulty: float = 1.2,
    num_classes: int = 100,
    side: int = 64,
) -> tuple[Dataset, Dataset]:
    """Scaled-down ImageNet-like set.

    The true ILSVRC geometry (3x256x256, 1000 classes, 1.2 M images) is kept
    in :data:`DATASET_GEOMETRY` for the cost model; the runnable set defaults
    to 3x64x64 with 100 classes so forward/backward passes stay tractable in
    NumPy.
    """
    common = dict(
        num_classes=num_classes,
        channels=3,
        height=side,
        width=side,
        seed=seed,
        difficulty=difficulty,
    )
    train = make_synthetic("imagenet-like", n_train, split="train", **common)
    test = make_synthetic("imagenet-like", n_test, split="test", **common)
    return train, test
