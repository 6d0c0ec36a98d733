"""Multiprocess rank backend: OS processes + POSIX shared memory.

The threaded :class:`repro.comm.runtime.InProcessCommunicator` is the
right tool for semantics (deadlocks, schedules, bit-exact collectives) but
the wrong tool for *scaling measurements*: NumPy releases the GIL for big
kernels, yet the Python glue between kernels serializes, so thread-backed
"P workers" mostly measure scheduler behaviour. This module provides the
same rank API over real processes, which is what the paper's KNL
chip-partitioning experiments (Section 6.2, Figure 12) actually exercise:
independent cores with weight replicas in shared physical memory.

Design:

- There is no process-specific rank context: a forked rank runs
  :class:`repro.comm.runtime.RankContextBase`, so fault-plan sends,
  selective receives, trace emission, and — critically — the
  binomial-tree collectives are *the same code* as the thread backend.
  Identical tree association means identical floating-point results:
  ``threads`` and ``processes`` runs of the sync algorithms are bit-equal.
- The :class:`repro.pool.WorkerPool` worker hands that context this
  substrate's one fabric, shared memory, as data: one
  :class:`repro.comm.shm_transport.ShmInbox` per rank — a shared-memory
  ring per sender, polled without a syscall, per-sender FIFO like the
  thread backend's ``queue.SimpleQueue``; a codec, the worker's
  :class:`~repro.comm.shm_transport.ShmTransport` (a message is one
  pickled record, refused past
  :data:`~repro.comm.shm_transport.INLINE_LIMIT`); and an arena provider
  over named :class:`~repro.comm.shm_transport.CollectiveArena`
  segments, where every bulk byte lives — an allreduce folds in them, an
  ``exchange`` swaps through them, a ``shared_row`` is one.
- Ranks are **forked**, never spawned, and there is one launch path:
  :meth:`MultiprocessCommunicator.run` always dispatches to a
  :class:`repro.pool.WorkerPool` — the attached one, or a private pool
  built for that call and closed after it. The private pool carries
  ``(fn, args)`` as its fork-inherited payload, so cold rank programs
  stay ordinary closures (nothing is pickled on the way in).
  ``CLOCK_MONOTONIC`` is system-wide on Linux, so child timestamps are
  coherent with the parent's.
- Results, trace events, and fault records travel back on each worker's
  result pipe: :class:`repro.trace.events.TraceEvent` and
  :class:`repro.faults.log.FaultRecord` are frozen picklable dataclasses,
  so the parent can merge per-rank logs into its own ``trace`` /
  ``fault_log`` and every existing :mod:`repro.trace.check` invariant
  applies unchanged.
- A child exception is shipped back pickled when possible, else as a
  :class:`RemoteRankError` carrying its repr; a child that dies without
  reporting (crash, ``os._exit``) is seen by the pool the moment it
  exits (its process sentinel) and named in a :class:`RemoteRankError`.
  Multiple
  failures aggregate through :meth:`MultiRankError.aggregate`, exactly as
  in the thread backend.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.runtime import (
    _DEFAULT_TIMEOUT,
    CellOptions,
    MultiRankError,
    RankContextBase,
)
from repro.faults import FaultLog, FaultPlan
from repro.trace.events import Trace

__all__ = [
    "fork_available",
    "RemoteRankError",
    "MultiprocessCommunicator",
    "run_rank_program",
    "emit_transport_marks",
]


def fork_available() -> bool:
    """Whether the ``fork`` start method exists (POSIX yes, Windows no)."""
    return "fork" in multiprocessing.get_all_start_methods()


class RemoteRankError(RuntimeError):
    """A rank process failed in a way its exception could not describe
    across the process boundary: the original error was unpicklable, or
    the process died without reporting (killed, segfault, ``os._exit``).
    Carries the ``rank`` and the best available description."""

    def __init__(self, rank: int, message: str) -> None:
        self.rank = rank
        super().__init__(message)

    def __reduce__(self):
        return (RemoteRankError, (self.rank, self.args[0]))


def _shippable_exception(rank: int, exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a RemoteRankError."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RemoteRankError(rank, f"rank {rank} failed with unpicklable {exc!r}")


def run_rank_program(
    ctx: RankContextBase, fn: Callable[..., Any], args: Tuple[Any, ...]
) -> Tuple[str, Any]:
    """Run ``fn(ctx, *args)`` and normalize the outcome for shipping.

    Returns ``("ok", result)`` or ``("err", exception)`` where the
    exception is guaranteed to survive the result pipe back to the parent.
    Called once per cell rank by the :class:`repro.pool.WorkerPool`
    dispatch loop.
    """
    status: str = "ok"
    payload: Any = None
    try:
        payload = fn(ctx, *args)
        try:
            pickle.dumps(payload)
        except Exception as exc:
            # The report would otherwise fail to pickle in the worker and
            # turn an unpicklable result into a phantom crash.
            status, payload = "err", RemoteRankError(
                ctx.rank, f"rank {ctx.rank} returned an unpicklable result: {exc}"
            )
    except BaseException as exc:
        ctx._abort(exc)
        status, payload = "err", _shippable_exception(ctx.rank, exc)
    return status, payload


def emit_transport_marks(ctx: RankContextBase, tstats: Dict[str, int]) -> None:
    """One instant mark per transport counter: bytes-on-wire vs
    bytes-copied become first-class trace facts."""
    if ctx.trace is None:
        return
    now = ctx._elapsed()
    for key, val in tstats.items():
        ctx.trace.span("mark", ctx.rank, now, now, op=f"transport/{key}", value=float(val))


def _run_inherited(ctx: RankContextBase, payload: Tuple[Any, ...]) -> Any:
    """Rank program of a cold run: unpack the fork-inherited ``(fn, args)``."""
    fn, args = payload
    return fn(ctx, *args)


class MultiprocessCommunicator:
    """Run a function on ``size`` forked rank *processes*.

    Drop-in for :class:`repro.comm.runtime.InProcessCommunicator`: same
    constructor knobs, same ``run``/``close`` surface, same error
    semantics (single failure re-raised; several aggregated into a
    :class:`MultiRankError` naming every failing rank), same trace and
    fault-log population — events from all ranks are merged time-sorted
    into this object's ``trace`` and ``fault_log`` after each run.
    """

    backend = "processes"

    def __init__(
        self,
        size: int,
        timeout: float = _DEFAULT_TIMEOUT,
        faults: Optional[FaultPlan] = None,
        trace: Optional[Trace] = None,
        collective: str = "tree",
        pool: Optional[Any] = None,
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        #: The knobs of every cell this communicator runs, validated here.
        self.options = CellOptions(timeout, faults, collective)
        if not fork_available():
            raise RuntimeError(
                "the processes backend requires the 'fork' start method; "
                "use backend='threads' on this platform"
            )
        self.size = size
        #: Per-run transport counters summed over ranks (inbox_messages,
        #: bytes_copied_in/out, bytes_inplace, arena_tokens, ...; the
        #: table is in docs/observability.md) and the ranks' BLAS thread
        #: budget, ``blas_threads`` (None: an unknown BLAS); empty until a
        #: run completes.
        self.transport_stats: Dict[str, Optional[int]] = {}
        self.trace = trace
        if trace is not None:
            trace.meta.setdefault("ranks", size)
            trace.meta.setdefault("clock", "wall")
            trace.meta.setdefault("backend", "processes")
            trace.meta.setdefault("transport", "shm")
            trace.meta.setdefault("collective", collective)
        self.fault_log = FaultLog()
        #: The reuse path: an attached :class:`repro.pool.WorkerPool` keeps
        #: its forked workers, inboxes and collective arenas alive
        #: across ``run`` calls; without one every ``run`` builds and
        #: closes a private pool. Numerics are identical either way —
        #: both are the same workers running the same rank context over
        #: the same fabric.
        self._pool = pool
        if pool is not None and size > pool.size:
            raise ValueError(
                f"cell needs {size} ranks but the pool holds only {pool.size}"
            )
        self._start = time.monotonic()  # epoch of trace and log timestamps

    def close(self) -> None:
        """Release fabric resources (a cold run's pool is per-call and an
        attached pool belongs to its creator; nothing persists here)."""

    def run(self, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Execute ``fn(ctx, *args)`` on every rank; return per-rank results.

        Without an attached pool, ``fn`` and ``args`` are inherited by
        fork — closures over local state work; nothing is pickled on the
        way *in*. With one, they travel as a work item (the pool forked
        long ago), so ``fn`` must be a module-level function and ``args``
        picklable: they are pickled once per ``run``, every array of at
        least :data:`~repro.comm.shm_transport.DEFAULT_MIN_BYTES` is
        staged once in a shared-memory segment that lives as long as the
        run, and each rank sees those arrays as **read-only** views of it
        (a rank program that writes into one raises; copy first, as it
        must on the thread backend, where ranks share ``args`` outright).
        Return values travel back pickled either way; a rank whose result
        cannot be pickled fails with a :class:`RemoteRankError`.

        Traces and fault records merge into this communicator
        (timestamped against its epoch, which the workers honour per
        job), transport counters land in ``transport_stats``, and
        failures aggregate through :meth:`MultiRankError.aggregate`.
        """
        # Late import: the pool builds its rank contexts from this module.
        from repro.pool.worker_pool import POOL_PAYLOAD, WorkerPool

        pool = self._pool
        if pool is None:
            # A cold run is a pool of one call, with (fn, args) as the
            # fork-inherited payload.
            pool = WorkerPool(self.size, timeout=self.options.timeout, payload=(fn, args))
            fn, args = _run_inherited, (POOL_PAYLOAD,)
        try:
            job = pool.submit(
                self.size, fn, *args,
                tracing=self.trace is not None,
                start_time=self._start,
                **vars(self.options),
            )
            job.wait()
        finally:
            if pool is not self._pool:
                pool.close()
        self.transport_stats = dict(job.transport_stats)
        if self.trace is not None:
            for ev in sorted(job.events, key=lambda e: (e.t0, e.t1, e.rank)):
                self.trace.add(ev)
        for rec in sorted(job.records, key=lambda r: r.time):
            self.fault_log.record(rec.time, rec.kind, rec.subject, rec.detail)
        if job.failures:
            raise MultiRankError.aggregate(sorted(job.failures, key=lambda f: f[0]))
        return list(job.results)
