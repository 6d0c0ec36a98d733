"""Dataset container shared by generators, samplers, and trainers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """An in-memory labeled image dataset.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"mnist-like"``).
    images:
        ``(N, C, H, W)`` float32 array.
    labels:
        ``(N,)`` int64 array of class indices in ``[0, num_classes)``.
    num_classes:
        Number of distinct classes.
    """

    name: str
    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got shape {self.images.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if self.num_classes <= 1:
            raise ValueError("num_classes must be >= 2")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def sample_shape(self) -> tuple:
        """``(C, H, W)`` of a single image."""
        return tuple(self.images.shape[1:])

    @property
    def nbytes(self) -> int:
        """Total size of the image payload in bytes."""
        return int(self.images.nbytes)
