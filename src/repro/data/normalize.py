"""Input normalization (Algorithm 1, line 1).

The paper normalizes X on the host "by standard deviation: E(X) = 0 (mean)
and sigma(X) = 1 (variance)" before training. We implement exactly that:
global mean/std over the training set, applied in place (views, not copies —
datasets can be hundreds of MB).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["standardize", "standardize_like"]

#: Float32 elements in one leaf of :func:`_std`'s sum: 1 MiB of scratch.
_LEAF = (1 << 20) // 4


def standardize(dataset: Dataset, eps: float = 1e-8) -> tuple[float, float]:
    """Normalize ``dataset.images`` in place to zero mean, unit std.

    Returns the ``(mean, std)`` that were removed so a paired test set can be
    normalized with the *training* statistics (the standard protocol — using
    test statistics would leak).
    """
    images = dataset.images
    mean32 = images.mean()
    mean = float(mean32)
    std = float(_std(images, mean32))
    images -= np.float32(mean)
    images /= np.float32(max(std, eps))
    dataset.meta["normalized"] = dict(mean=mean, std=std)
    return mean, std


def standardize_like(dataset: Dataset, mean: float, std: float, eps: float = 1e-8) -> None:
    """Normalize ``dataset`` in place using externally supplied statistics."""
    dataset.images -= np.float32(mean)
    dataset.images /= np.float32(max(std, eps))
    dataset.meta["normalized"] = dict(mean=mean, std=std)


def _std(images: np.ndarray, mean: np.float32) -> np.float32:
    """``images.std()``, bit for bit, without a set-sized temporary.

    NumPy's ``_var`` squares ``images - mean`` into a copy of the whole set
    and sums it pairwise: a range longer than 128 splits at
    ``n2 = n // 2; n2 -= n2 % 8``. This walks the same split down to leaves
    of at most :data:`_LEAF` elements, reduces each leaf's squared
    deviations in one reused buffer (the very pairwise sum NumPy runs on
    that range), and adds the partial sums in float32 up the same tree, so
    every rounding is NumPy's. The divide and ``sqrt`` follow ``_var``.
    Anything but a C-contiguous float32 array takes ``images.std()``.
    """
    if images.dtype != np.float32 or not images.flags.c_contiguous:
        return images.std()
    flat = images.reshape(-1)
    scratch = np.empty(min(flat.size, _LEAF), dtype=np.float32)

    def pairwise(lo: int, n: int) -> np.float32:
        if n <= _LEAF:
            leaf = np.subtract(flat[lo : lo + n], mean, out=scratch[:n])
            return np.add.reduce(np.square(leaf, out=leaf))
        n2 = n // 2
        n2 -= n2 % 8
        return pairwise(lo, n2) + pairwise(lo + n2, n - n2)

    total = pairwise(0, flat.size)
    return np.sqrt(np.float32(total / np.intp(flat.size)))
