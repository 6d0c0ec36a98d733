"""Publishing and reading torn-free, staleness-tagged weight snapshots.

The bridge between the training hot path and the serving tier.  EASGD's
center variable (Zhang, Choromanska & LeCun, arXiv:1412.6651) is designed
to be a consistent, always-available read point; :class:`ModelSnapshotter`
turns it into one mechanically by copying the packed center vector into a
:class:`~repro.comm.shm_transport.SeqlockBuffer` after training steps.
Publishing is one bounded memcpy plus four int64 stores — it never takes
a lock the training loop could block on, and readers never block the
writer.

:class:`SnapshotReader` is the serving-side counterpart: it caches the
last loaded snapshot and quantifies its **staleness** — how many training
steps the cached weights lag the trainer's heartbeat — which is the
quantity the front-end's ``max_staleness_steps`` bound is enforced
against (staleness-bounded reads in the sense of Elastic Consistency,
arXiv:2001.05918).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.comm.shm_transport import SeqlockBuffer
from repro.trace.events import MASTER, Trace

__all__ = ["ModelSnapshotter", "SnapshotReader"]


class ModelSnapshotter:
    """Publishes packed center weights for the serving tier.

    Attach one to a :class:`~repro.engine.pipeline.StepPipeline` (via
    ``pipeline.snapshotter``) and the engine calls :meth:`on_step` after
    every completed step.  ``publish_every`` thins full publishes; the
    per-step heartbeat (:meth:`SeqlockBuffer.mark_step`) always advances
    so readers can measure how far behind a cached snapshot is even
    between publishes.

    ``shared=True`` backs the buffer with named POSIX shm so training
    ranks in forked processes publish into it; the default keeps it on
    the heap for in-process (thread) training.
    """

    def __init__(
        self,
        elems: int,
        shared: bool = False,
        publish_every: int = 1,
        trace: Optional[Trace] = None,
    ) -> None:
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.buffer = SeqlockBuffer.create(elems, shared=shared)
        self.publish_every = publish_every
        self.publishes = 0
        self.trace = trace

    @property
    def name(self) -> Optional[str]:
        """Shm segment name (None for a heap buffer)."""
        return self.buffer.name

    @property
    def elems(self) -> int:
        return self.buffer.elems

    def on_step(self, params: np.ndarray, step: int, sim_time: float = 0.0) -> None:
        """Engine hook: heartbeat every step, full publish at the cadence."""
        self.buffer.mark_step(step)
        if step % self.publish_every == 0:
            self.publish(params, step, sim_time)

    def publish(self, params: np.ndarray, step: int, sim_time: float = 0.0) -> int:
        """Copy ``params`` into the buffer as the step-``step`` snapshot."""
        version = self.buffer.publish(params, step)
        self.publishes += 1
        if self.trace is not None:
            self.trace.span(
                "mark", MASTER, sim_time, sim_time,
                op="serving/publish", iteration=step, value=float(version),
                nbytes=self.buffer.elems * 4,
            )
        return version

    def reader(self) -> "SnapshotReader":
        """An in-process reader over this snapshotter's buffer."""
        return SnapshotReader(self.buffer)

    def close(self, unlink: bool = False) -> None:
        self.buffer.close(unlink=unlink)


class SnapshotReader:
    """Caches the newest loaded snapshot and tracks its staleness.

    ``refresh()`` pulls a torn-free copy when (and only when) a newer
    version exists; ``staleness()`` is the number of training steps the
    cached weights lag the trainer's heartbeat.  One reader serves one
    front-end; readers are independent, so many can share a buffer.
    """

    def __init__(self, buffer: SeqlockBuffer) -> None:
        self.buffer = buffer
        self.params: Optional[np.ndarray] = None
        self.loaded_step = -1
        self.loaded_version = 0
        self.refreshes = 0

    def has_new(self) -> bool:
        """Whether a newer snapshot than the cached one has been published."""
        return self.buffer.version > self.loaded_version

    def staleness(self) -> int:
        """Training steps the cached snapshot lags the trainer heartbeat.

        ``-1`` means nothing was ever loaded (infinitely stale); the
        front-end treats that as an unconditional refresh.
        """
        if self.loaded_step < 0:
            return -1
        return max(0, self.buffer.train_step - self.loaded_step)

    def refresh(self) -> Tuple[np.ndarray, int, int]:
        """Load the newest snapshot if one exists; return the cached one.

        Returns ``(params, step, version)``.  Raises if nothing has ever
        been published.
        """
        if self.params is None or self.has_new():
            if self.buffer.version == 0:
                raise RuntimeError("no snapshot has been published yet")
            self.params, self.loaded_step, self.loaded_version = self.buffer.read(out=self.params)
            self.refreshes += 1
        return self.params, self.loaded_step, self.loaded_version
