"""Sweep scheduler: multiplex experiment cells over one shared pool.

The companion of :class:`repro.pool.WorkerPool`: a
:class:`SweepScheduler` takes a queue of :class:`SweepCell` work units
(each a rank program needing ``ranks <= P_max`` workers), packs them onto
the pool smallest-first, and returns per-cell :class:`CellOutcome`\\ s
with the wall/spin-up split that makes the amortization visible.

Cells are dispatched to the pool's persistent workers; several cells run
concurrently on disjoint rank blocks, and fork/shm spin-up is paid once
for the whole sweep.

Preemption (PR 6 checkpointing) composes at two levels: cells configure
their own ``checkpoint_every``/``checkpoint_dir`` (so a killed sweep
resumes each cell mid-run), and the scheduler itself records a
``<key>.done.pkl`` marker per finished cell under ``checkpoint_root`` —
a re-run of the same sweep loads finished cells instead of recomputing
them, so only interrupted cells pay anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
import pickle
import re
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.runtime import _DEFAULT_TIMEOUT
from repro.pool.worker_pool import WorkerPool

__all__ = ["SweepCell", "CellOutcome", "SweepScheduler"]


@dataclass
class SweepCell:
    """One schedulable unit: a rank program plus its rank demand.

    ``fn`` must be a module-level function ``fn(ctx, *args)`` (pooled
    dispatch pickles it); use :data:`repro.pool.POOL_PAYLOAD` inside
    ``args`` for fork-inherited pool state.  ``key`` identifies the cell
    across runs — it names the done-marker that makes the cell
    resumable, so it must be stable and unique within a sweep.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    ranks: int = 1


@dataclass
class CellOutcome:
    """One finished cell: per-rank results plus the timing split."""

    key: str
    ranks: int
    results: List[Any] = field(default_factory=list)
    #: Submit-to-completion wall seconds for the cell.
    wall_time: float = 0.0
    #: Seconds from submit until every rank entered the cell body — the
    #: fork/dispatch/attach cost the pool amortizes away.
    spinup_time: float = 0.0
    #: True when the outcome was loaded from a done-marker (a previous
    #: run of this sweep already finished the cell).
    resumed: bool = False

    @property
    def result(self) -> Any:
        """Rank 0's return value (the whole result for 1-rank cells)."""
        return self.results[0]


def _timed_cell(ctx: Any, fn: Callable[..., Any], *args: Any) -> Tuple[float, Any]:
    """Stamp the instant the rank entered the cell body, then run it.

    Runs on every rank of every scheduled cell; the scheduler computes
    ``spinup_time`` as the gap between dispatch and the *last* rank's
    entry stamp (CLOCK_MONOTONIC is system-wide, so worker stamps are
    coherent with the parent's submit stamp).
    """
    return (time.monotonic(), fn(ctx, *args))


def _marker_slug(key: str) -> str:
    """A filesystem-safe name for a cell key."""
    return re.sub(r"[^A-Za-z0-9_.=,+-]", "_", key)


class SweepScheduler:
    """Run a queue of cells over a shared pool."""

    def __init__(
        self,
        pool: WorkerPool,
        timeout: float = _DEFAULT_TIMEOUT,
        checkpoint_root: Optional[str] = None,
    ) -> None:
        self.pool = pool
        self.timeout = timeout
        self.checkpoint_root = checkpoint_root

    # -- done-markers ----------------------------------------------------------
    def _marker_path(self, key: str) -> Optional[str]:
        if self.checkpoint_root is None:
            return None
        return os.path.join(self.checkpoint_root, f"{_marker_slug(key)}.done.pkl")

    def _load_marker(self, cell: SweepCell) -> Optional[CellOutcome]:
        path = self._marker_path(cell.key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                saved = pickle.load(fh)
        except Exception:
            return None  # corrupt marker: recompute the cell
        if saved.get("key") != cell.key or saved.get("ranks") != cell.ranks:
            return None
        return CellOutcome(
            key=cell.key, ranks=cell.ranks, results=saved["results"],
            wall_time=saved["wall_time"], spinup_time=saved["spinup_time"],
            resumed=True,
        )

    def _write_marker(self, outcome: CellOutcome) -> None:
        path = self._marker_path(outcome.key)
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps({
            "key": outcome.key, "ranks": outcome.ranks,
            "results": outcome.results, "wall_time": outcome.wall_time,
            "spinup_time": outcome.spinup_time,
        })
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)  # atomic: a killed sweep never leaves a torn marker

    # -- execution -------------------------------------------------------------
    def run(self, cells: List[SweepCell]) -> List[CellOutcome]:
        """Run every cell; outcomes come back in the input order.

        Cells are packed smallest-first onto free rank blocks; a failing
        cell lets its siblings finish, then the pool is
        :meth:`~repro.pool.WorkerPool.reset` and the failure re-raised.
        """
        keys = [c.key for c in cells]
        if len(set(keys)) != len(keys):
            raise ValueError("cell keys must be unique within a sweep")
        # Before anything is dispatched: a cell the pool refuses mid-loop
        # would orphan the narrower cells already submitted.
        for cell in cells:
            if not 0 < cell.ranks <= self.pool.size:
                raise ValueError(
                    f"cell {cell.key!r} needs {cell.ranks} ranks; "
                    f"the pool has {self.pool.size}"
                )
        outcomes: Dict[str, CellOutcome] = {}
        to_run: List[SweepCell] = []
        for cell in cells:
            loaded = self._load_marker(cell)
            if loaded is not None:
                outcomes[cell.key] = loaded
            else:
                to_run.append(cell)
        # Smallest-first: narrow cells fill the gaps wide cells leave, so
        # a P_max pool rarely idles while work remains.
        to_run.sort(key=lambda cell: cell.ranks)
        jobs = [
            (cell, self.pool.submit(
                cell.ranks, _timed_cell, cell.fn, *cell.args, timeout=self.timeout,
            ))
            for cell in to_run
        ]
        first_error: Optional[BaseException] = None
        for cell, job in jobs:
            try:
                stamped = job.result()
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                continue
            entered = max(t for t, _ in stamped)
            outcome = CellOutcome(
                key=cell.key, ranks=cell.ranks,
                results=[value for _, value in stamped],
                wall_time=job.wall_time,
                spinup_time=max(0.0, entered - job.t_submit),
            )
            self._write_marker(outcome)
            outcomes[cell.key] = outcome
        if first_error is not None:
            # Recover a provably clean fabric before anyone reuses the pool.
            try:
                self.pool.reset()
            except Exception:  # pragma: no cover - pool already broken
                pass
            raise first_error
        return [outcomes[c.key] for c in cells]
