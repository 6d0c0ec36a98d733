"""Batch sampling.

The paper's algorithms "randomly pick b samples" each iteration (Algorithms
1-4, line 8/10). :class:`BatchSampler` reproduces that with an independent
seeded stream per consumer: every worker samples the full dataset through
its own stream, which is also the weak-scaling protocol of Section 7.1
where *each node holds a full copy* of the dataset.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import Dataset
from repro.util.rng import spawn_rng

__all__ = ["BatchSampler"]


class BatchSampler:
    """Uniform-with-replacement batch sampler, matching the paper's
    "randomly picks b samples" step.

    Each sampler owns an independent RNG stream derived from
    ``(seed, name)`` so that samplers on different simulated workers draw
    independent batches and remain reproducible under any interleaving.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int, name: object = "sampler") -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if batch_size > len(dataset):
            raise ValueError(
                f"batch_size {batch_size} exceeds dataset size {len(dataset)}"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self._rng = spawn_rng(seed, "batch-sampler", name)
        self.batches_drawn = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(images, labels)`` for one random batch."""
        idx = self._rng.integers(0, len(self.dataset), size=self.batch_size)
        self.batches_drawn += 1
        return self.dataset.images[idx], self.dataset.labels[idx]

    def next_batch_into(
        self, images_out: np.ndarray, labels_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next batch directly into caller-owned buffers.

        Consumes the same RNG draw as :meth:`next_batch` and gathers with
        ``np.take(..., out=...)``, so the values (and the stream position)
        are bit-identical to the allocating form — this is the hot-loop
        variant used with a :class:`repro.comm.arena.BufferArena` so
        steady-state training steps allocate nothing for batch staging.
        """
        idx = self._rng.integers(0, len(self.dataset), size=self.batch_size)
        self.batches_drawn += 1
        np.take(self.dataset.images, idx, axis=0, out=images_out)
        np.take(self.dataset.labels, idx, axis=0, out=labels_out)
        return images_out, labels_out

    def get_state(self) -> dict:
        """Snapshot the data cursor: RNG position + batches drawn."""
        return {
            "bit_generator": self._rng.bit_generator.state,
            "batches_drawn": self.batches_drawn,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot; the next draw continues the saved sequence."""
        self._rng.bit_generator.state = state["bit_generator"]
        self.batches_drawn = int(state["batches_drawn"])

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()

