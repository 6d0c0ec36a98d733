"""Persistent worker pool: fork once, run many experiment cells.

Every sweep the harness runs today pays the full process spin-up bill per
cell: fork ``P`` ranks, build queues, create shm slot rings and
collective arenas, tear it all down, repeat.  For the paper's headline
workloads — Table 4 weak scaling, Fig 6 pairwise comparisons, the
Sec 7.2 batch-size study — the per-cell compute is small enough that
spin-up dominates CI wall-clock.  :class:`WorkerPool` is the same
amortization idea as the paper's packed single-buffer codesign: pay setup
once, reuse it on every round.

Design:

- ``P_max`` rank processes are **forked at construction** (after
  :func:`~repro.comm.shm_lifecycle.reap_stale_segments` and
  :func:`~repro.comm.shm_lifecycle.adopt_owner_pid`, so debris from
  killed runs is cleared and every segment the pool tree creates carries
  the pool parent's pid).  Each worker owns a persistent message inbox
  (the fabric: a :class:`~repro.comm.shm_transport.ShmInbox` segment the
  parent creates before forking and unlinks in :meth:`close`), a
  persistent :class:`~repro.comm.shm_transport.ShmTransport` (slot rings
  are recycled across cells), and a by-name
  :class:`~repro.comm.shm_transport.CollectiveArena` cache (arenas are
  sized once per shape and reused).
- A **cell** is one ``fn(ctx, *args)`` rank program over ``n <= P_max``
  ranks.  :meth:`submit` leases a contiguous block of free workers,
  ships the work item to each over a dispatch pipe (distinct from the
  message fabric, so dispatch never interleaves with rank traffic), and
  returns a :class:`PoolJob` handle.  Cells on disjoint blocks run
  concurrently — the scheduler packs them.
- Each worker **reports** on a result pipe of its own, the mirror of its
  dispatch pipe. One collector thread blocks in
  ``multiprocessing.connection.wait`` on every result pipe and every
  worker's process sentinel, so a worker that dies is seen when it exits,
  and it wakes on a timer only while a failed cell's collection deadline
  is pending. No process of the pool runs a queue feeder thread.
- A cell **owns its cores** when there are cores to own: if the ranks
  leased pool-wide, this cell's included, fit the usable cores, each of
  its ranks is pinned to a core no running cell holds and its receives
  spin before they block; otherwise its ranks run on the full mask and
  block on the doorbell. The verdict is per cell, so a two-rank cell on
  a three-worker pool on two cores is pinned and spinning.
- Each cell gets a **fresh** :class:`~repro.comm.runtime.RankContextBase`
  (fresh stashes, sequence counters, RNG-free) over the recycled fabric —
  the cell's inboxes, the worker's transport as its codec, and a by-name
  arena provider over the worker's arena cache —
  so numerics derive only from the cell's arguments and seeds: a pooled
  cell is bit-identical to a cold-spawn run of the same program.
- :meth:`reset` is the explicit hygiene barrier: workers drain their
  inboxes, rebuild their transports (old ring segments are unlinked by
  the parent), and zero every cached arena row — recovering a provably
  clean fabric after a failed cell.
- A work item is pickled **once** per dispatch (the pool forked long
  ago), so ``fn`` must be a module-level function: that one protocol-5
  pickle is the picklability check and is what every rank receives.  Its
  bulk — every contiguous buffer of at least
  :data:`~repro.comm.shm_transport.DEFAULT_MIN_BYTES`, the same split a
  rank's messages take — is copied once into a
  :class:`~repro.comm.shm_transport.PickleStage` that lives as long as
  the cell, and each rank unpickles with read-only views of it: a
  launch ships a handle, not the dataset, and a rank program that
  writes into a pooled argument raises instead of diverging silently.
  What cannot pickle (closures, an
  :class:`~repro.harness.experiment.ExperimentSpec` with a lambda
  builder) rides fork inheritance: pass it as the pool's ``payload``
  and put the :data:`POOL_PAYLOAD` sentinel in a cell's args — each
  worker substitutes its inherited copy.  A communicator without an
  attached pool uses exactly this: it builds a pool for one ``run``
  with ``(fn, args)`` as the payload, so this module is the only place
  rank processes are launched.

``backend="threads"`` keeps the identical surface over
:class:`~repro.comm.runtime.InProcessCommunicator` cells (thread spin-up
is already cheap; the pool then only bounds concurrency and unifies the
scheduler's code path).
"""

from __future__ import annotations

from functools import partial
import multiprocessing
from multiprocessing.connection import wait as wait_ready
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
import uuid

from repro.comm.mp_runtime import (
    RemoteRankError,
    emit_transport_marks,
    fork_available,
    run_rank_program,
)
from repro.comm.runtime import (
    _DEFAULT_TIMEOUT,
    CellOptions,
    InProcessCommunicator,
    MultiRankError,
    RankContextBase,
)
from repro.comm.shm_lifecycle import (
    adopt_owner_pid,
    list_live_segments,
    reap_stale_segments,
    segment_name,
    unlink_segment,
    unregister_segment,
)
from repro.comm.shm_transport import (
    CollectiveArena,
    DEFAULT_SLOTS,
    PickleStage,
    ShmInbox,
    ShmSlotRef,
    ShmTransport,
    require_tso,
    split_pickle,
)
from repro.faults import FaultLog, FaultPlan
from repro.trace.events import Trace

__all__ = ["POOL_PAYLOAD", "PoolJob", "WorkerPool"]

#: Parent-side patience beyond a job's rank timeout before declaring its
#: workers hung: ranks normally report their own DeadlockError first. It
#: runs from the cell's first failure — the rank timeout bounds one
#: ``recv``, not the program, so a healthy cell has no wall budget.
_COLLECT_GRACE = 30.0


class _PayloadSentinel:
    """Placeholder for the pool's fork-inherited payload in cell args.

    Pickles by reference to the module attribute, so identity survives
    the dispatch pipe and workers can substitute with ``is``.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "POOL_PAYLOAD"

    def __reduce__(self):
        return (_payload_sentinel, ())


def _payload_sentinel() -> "_PayloadSentinel":
    return POOL_PAYLOAD


#: Put this in a cell's args where the pool's ``payload`` should appear.
POOL_PAYLOAD = _PayloadSentinel()


def _run_work(
    ctx: RankContextBase, work: bytes, stage: Optional[ShmSlotRef], payload: Any
) -> Any:
    """What every pooled rank runs: unpickle the dispatch's one work item —
    its bulk viewing the cell's stage — and call it. Inside the rank
    program, so a work item that will not load fails its rank by name."""
    fn, args = PickleStage.load(work, stage)
    return fn(ctx, *(payload if a is POOL_PAYLOAD else a for a in args))


def _cell_arena(
    cache: Dict[str, CollectiveArena], prefix: str, nranks: int, timeout: float,
    tag: int, elems: int,
) -> CollectiveArena:
    """The arena behind a cell's ``allreduce(tag)`` of ``elems`` float32.

    Every rank of the cell derives the same name, so the first arrival
    creates and the rest attach. ``cache`` is the worker's and outlives the
    cell: consecutive cells recycle one mapping, and the worker reports
    the names for the parent to unlink when the pool shuts down.
    """
    name = f"{prefix}-t{tag}-n{elems}"
    arena = cache.get(name)
    if arena is None:
        arena = cache[name] = CollectiveArena.create_or_attach(
            name, nranks, elems, timeout=timeout
        )
    return arena


class PoolJob:
    """Parent-side handle for one dispatched cell."""

    def __init__(self, job_id: int, base: int, nranks: int) -> None:
        self.job_id = job_id
        self.base = base
        self.nranks = nranks
        self.results: List[Any] = [None] * nranks
        self.failures: List[Tuple[int, BaseException]] = []
        self.events: List[Any] = []
        self.records: List[Any] = []
        self.transport_stats: Dict[str, int] = {}
        #: Dispatch instant (monotonic) and completion instant.
        self.t_submit = time.monotonic()
        self.t_done: Optional[float] = None
        self._error: Optional[BaseException] = None
        self._pending = set(range(nranks))
        self._done = threading.Event()
        #: Seconds a failed cell's other ranks get to report (set at
        #: dispatch); ``deadline`` is set when the first rank fails.
        self.patience = 0.0
        self.deadline: Optional[float] = None
        #: The cores this cell owns (one per rank; empty: full mask) and
        #: the segment holding its work item's bulk (None: all in band).
        self.cores: List[int] = []
        self.stage: Optional[PickleStage] = None

    @property
    def wall_time(self) -> float:
        """Submit-to-completion wall seconds (0.0 while running)."""
        return 0.0 if self.t_done is None else self.t_done - self.t_submit

    def _complete(self) -> None:
        self.t_done = time.monotonic()
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until every rank of the cell reported."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"pool job {self.job_id} still running after {timeout}s")

    def result(self, timeout: Optional[float] = None) -> List[Any]:
        """Per-rank results; raises exactly like ``Communicator.run``."""
        self.wait(timeout)
        if self._error is not None:
            raise self._error
        if self.failures:
            raise MultiRankError.aggregate(sorted(self.failures, key=lambda f: f[0]))
        return list(self.results)


class WorkerPool:
    """``P_max`` long-lived ranks shared by many experiment cells.

    ``payload`` is arbitrary fork-inherited state workers substitute for
    :data:`POOL_PAYLOAD` in cell args.  ``timeout`` bounds shm ring
    acquisition and is the default rank timeout for cells that don't
    override it per job.
    """

    def __init__(
        self,
        size: int,
        backend: str = "processes",
        timeout: float = _DEFAULT_TIMEOUT,
        shm_slots: int = DEFAULT_SLOTS,
        payload: Any = None,
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if backend not in ("threads", "processes"):
            raise ValueError(f"unknown backend {backend!r}")
        if shm_slots <= 0:
            # Here, not in the worker's ShmTransport: a constructor that
            # raises inside the worker loop kills every leased worker.
            raise ValueError("shm_slots must be positive")
        self.size = size
        self.backend = backend
        self.timeout = timeout
        self.shm_slots = shm_slots
        self.payload = payload
        #: Completed-cell counter (amortization evidence for benchmarks).
        self.jobs_run = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._free = [True] * size
        self._jobs: Dict[int, PoolJob] = {}
        self._next_job = 0
        self._closed = False
        self._broken: Optional[str] = None
        self._reset_gen = 0
        self._reset_acks = 0
        self._reset_names: List[str] = []
        self._stop_names: List[str] = []

        if backend == "threads":
            self._start = time.monotonic()
            return

        require_tso("WorkerPool(backend='processes')")
        if not fork_available():
            raise RuntimeError(
                "the processes pool requires the 'fork' start method; "
                "use backend='threads' on this platform"
            )
        # Spawn the resource tracker *before* forking: workers then inherit
        # one shared tracker, so their ring registrations are cleared by
        # this parent's unlink instead of each worker's private tracker
        # warning about "leaked" segments at exit.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        # Satellite of the lifecycle contract: clear debris from runs that
        # died by signal, then stamp the pool parent's pid into every
        # segment the whole worker tree will ever create.
        reap_stale_segments()
        adopt_owner_pid()
        self._mp = multiprocessing.get_context("fork")
        self._start = time.monotonic()
        #: Usable cores no running cell owns. A cell is granted one per
        #: rank iff all leased ranks fit the usable cores — exclusive cores
        #: then exist, and pinning several ranks to one would serialize
        #: them outright.
        self._free_cores: List[int] = (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        )
        self._ncores = len(self._free_cores)
        #: Persistent message fabric: one inbox per pool rank, a
        #: shared-memory ring per (source, owner) pair whose owner sets
        #: ``spin`` per cell; cells see the slice ``inboxes[base:base+n]``
        #: so a context's own-rank indexing works unchanged on any block.
        self._inboxes = [ShmInbox.create(size, timeout) for _ in range(size)]
        #: One dispatch pipe and one result pipe per worker, apart from the
        #: message fabric so neither interleaves with rank traffic. Pipes
        #: their writer writes itself rather than Queues: ``Queue.put``
        #: starts a feeder thread per queue, memory freed in a thread's
        #: malloc arena stays resident, and every later fork inherits it
        #: as RSS.
        work = [self._mp.Pipe(duplex=False) for _ in range(size)]
        self._work_recv = [recv for recv, _ in work]
        self._work_send = [send for _, send in work]
        results = [self._mp.Pipe(duplex=False) for _ in range(size)]
        self._result_recv = [recv for recv, _ in results]
        self._result_send = [send for _, send in results]
        #: Stable per-pool stems. Arenas: cells on the same block derive
        #: the same names, so consecutive cells reuse one. Stages: one
        #: segment per cell that has bulk, named by job.
        tag = f"pool{uuid.uuid4().hex[:6]}"
        self._coll_stem = segment_name("coll", tag)
        self._stage_tag = tag
        self._procs = [
            self._mp.Process(target=self._worker_loop, args=(r,), name=f"pool-rank-{r}")
            for r in range(size)
        ]
        for p in self._procs:
            p.start()
        # Worker r alone holds the read end of its work pipe, so dispatching
        # to a dead worker raises BrokenPipeError instead of blocking on a
        # pipe nobody drains, and the write end of its result pipe.
        for conn in self._work_recv + self._result_send:
            conn.close()
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True
        )
        self._collector.start()

    # -- parent side -----------------------------------------------------------
    def _allocate(self, nranks: int) -> int:
        """First contiguous free block (caller holds the lock), or -1."""
        run = 0
        for i in range(self.size):
            run = run + 1 if self._free[i] else 0
            if run == nranks:
                base = i - nranks + 1
                for j in range(base, base + nranks):
                    self._free[j] = False
                return base
        return -1

    def _release(self, base: int, nranks: int) -> None:
        for j in range(base, base + nranks):
            self._free[j] = True

    def _lease_locked(self, nranks: int) -> PoolJob:
        """Wait for a free block of ``nranks`` workers and lease it to a new job."""
        self._check_usable()
        base = self._allocate(nranks)
        while base < 0:
            self._cond.wait()
            self._check_usable()
            base = self._allocate(nranks)
        self._next_job += 1
        return PoolJob(self._next_job, base, nranks)

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._broken is not None:
            raise RuntimeError(f"pool is broken: {self._broken}")

    def submit(
        self,
        nranks: int,
        fn: Callable[..., Any],
        *args: Any,
        tracing: bool = False,
        faults: Optional[FaultPlan] = None,
        timeout: Optional[float] = None,
        max_retries: int = 8,
        retry_backoff: float = 0.001,
        collective: str = "tree",
        start_time: Optional[float] = None,
    ) -> PoolJob:
        """Dispatch ``fn(ctx, *args)`` over ``nranks`` pooled ranks.

        Blocks until a contiguous block of workers is free — concurrent
        submitters therefore pack the pool.  Returns immediately-usable
        :class:`PoolJob`; call :meth:`PoolJob.result` for the per-rank
        values (or :meth:`PoolJob.wait` plus the raw fields).
        """
        if not 0 < nranks <= self.size:
            raise ValueError(f"cell needs 1..{self.size} ranks, got {nranks}")
        # Validated before a worker is leased: a bad knob must not cost a cell.
        options = CellOptions(
            self.timeout if timeout is None else timeout,
            faults, max_retries, retry_backoff, collective,
        )
        if self.backend == "threads":
            return self._submit_threads(nranks, fn, args, tracing, options)
        # The one pickle of the dispatch. It fails fast on unpicklable
        # work (a bad item would otherwise die on its way to the worker
        # and strand the job), and it is what every rank receives.
        try:
            work, bulk = split_pickle((fn, args))
        except Exception as exc:
            raise ValueError(
                f"pool work items must be picklable (module-level fn, "
                f"picklable args; use POOL_PAYLOAD for inherited state): {exc}"
            ) from None
        with self._cond:
            job = self._lease_locked(nranks)
            base = job.base
            job.patience = options.timeout + _COLLECT_GRACE
            if self._free.count(False) <= self._ncores:
                job.cores = [self._free_cores.pop(0) for _ in range(nranks)]
            self._jobs[job.job_id] = job
        if bulk:
            # After the lease, so submitters queued for workers hold no
            # copy of their bulk while they wait.
            try:
                job.stage = PickleStage(f"{self._stage_tag}j{job.job_id}", bulk)
            except BaseException:
                with self._cond:
                    self._finish_job_locked(job)
                raise
        start = self._start if start_time is None else start_time
        stage = None if job.stage is None else job.stage.ref
        for cell_rank in range(nranks):
            core = job.cores[cell_rank] if job.cores else None
            self._dispatch(
                base + cell_rank,
                ("job", job.job_id, base, nranks, cell_rank, core, stage,
                 tracing, options, start),
                work,
            )
        return job

    def _dispatch(
        self, pool_rank: int, item: Tuple[Any, ...], work: Optional[bytes] = None
    ) -> None:
        """Hand ``item`` — and, for a job, the pickled ``work`` behind it,
        as the bytes they are — to one worker (at most one sender per
        worker at a time: a worker is leased to one job, and reset/close
        follow all jobs). A dead worker's pipe is broken; the collector sees
        the death on the worker's sentinel and reports it, so the error is
        dropped here."""
        conn = self._work_send[pool_rank]
        try:
            conn.send(item)
            if work is not None:
                conn.send_bytes(work)
        except OSError:
            pass

    def run(self, nranks: int, fn: Callable[..., Any], *args: Any, **opts: Any) -> List[Any]:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(nranks, fn, *args, **opts).result()

    def _submit_threads(
        self, nranks: int, fn: Callable[..., Any], args: Tuple[Any, ...],
        tracing: bool, options: CellOptions,
    ) -> PoolJob:
        """Thread-backend cell: an InProcessCommunicator on a driver thread.

        Spin-up is cheap here; the pool's job is to bound concurrency to
        ``P_max`` ranks and present the same handle/packing surface.
        """
        with self._cond:
            job = self._lease_locked(nranks)
            self._jobs[job.job_id] = job
        cell_args = tuple(self.payload if a is POOL_PAYLOAD else a for a in args)
        trace = Trace() if tracing else None

        def drive() -> None:
            comm = InProcessCommunicator(nranks, trace=trace, **vars(options))
            try:
                job.results = comm.run(fn, *cell_args)
            except BaseException as exc:
                job._error = exc
            if trace is not None:
                job.events = list(trace.events)
            job.records = list(comm.fault_log.records)
            with self._cond:
                self._release(job.base, nranks)
                self._jobs.pop(job.job_id, None)
                self.jobs_run += 1
                self._cond.notify_all()
            job._complete()

        threading.Thread(target=drive, name=f"pool-cell-{job.job_id}", daemon=True).start()
        return job

    def _collect_loop(self) -> None:
        """Route worker reports to job handles; see deaths as they happen.

        Blocks on every open result pipe and every worker's sentinel at
        once — with a timeout only while a failed cell's deadline is
        pending — and returns once every worker has exited. A worker that
        exited is reaped and its pipe drained before the health check, so
        a report it sent before dying still counts.
        """
        pipes = set(self._result_recv)
        sentinels = {p.sentinel: r for r, p in enumerate(self._procs)}
        while sentinels:
            ready = wait_ready([*pipes, *sentinels], self._until_deadline())
            exited = [sentinels.pop(s) for s in ready if s in sentinels]
            for r in exited:
                self._procs[r].join()  # its exit code, which trails the sentinel
            for conn in [c for c in ready if c in pipes] + [self._result_recv[r] for r in exited]:
                while conn in pipes and conn.poll():
                    try:
                        self._route(conn.recv())
                    except EOFError:  # the worker is gone and so is every write end
                        pipes.discard(conn)
            with self._cond:
                self._check_health_locked()

    def _until_deadline(self) -> Optional[float]:
        """Seconds to the nearest failed cell's collection deadline (None: none)."""
        with self._cond:
            deadlines = [j.deadline for j in self._jobs.values() if j.deadline is not None]
        return None if not deadlines else max(0.0, min(deadlines) - time.monotonic())

    def _route(self, report: Tuple[Any, ...]) -> None:
        """Apply one worker report to its job, reset barrier or shutdown."""
        kind = report[0]
        with self._cond:
            if kind == "done":
                _, job_id, cell_rank, status, payload, events, records, tstats = report
                job = self._jobs.get(job_id)
                if job is None:
                    return
                job.events.extend(events)
                job.records.extend(records)
                for key, val in tstats.items():
                    job.transport_stats[key] = job.transport_stats.get(key, 0) + int(val)
                if status == "ok":
                    job.results[cell_rank] = payload
                else:
                    job.failures.append((cell_rank, payload))
                    if job.deadline is None:
                        job.deadline = time.monotonic() + job.patience
                job._pending.discard(cell_rank)
                if not job._pending:
                    self._finish_job_locked(job)
            elif kind == "reset":
                _, gen, _rank, names = report
                if gen == self._reset_gen:
                    self._reset_acks += 1
                    self._reset_names.extend(names)
                    self._cond.notify_all()
            else:  # "stop"
                self._stop_names.extend(report[2])

    def _finish_job_locked(self, job: PoolJob) -> None:
        self._jobs.pop(job.job_id, None)
        self._release(job.base, job.nranks)
        self._free_cores += job.cores
        if job.stage is not None:
            job.stage.unlink()
        self.jobs_run += 1
        self._cond.notify_all()
        job._complete()

    def _check_health_locked(self) -> None:
        """Fail jobs whose workers died or whose deadline passed."""
        if self._closed:
            return
        dead = [r for r, p in enumerate(self._procs) if p.exitcode is not None]
        now = time.monotonic()
        for job in list(self._jobs.values()):
            lost = [
                cr for cr in sorted(job._pending)
                if job.base + cr in dead
            ]
            hung = job.deadline is not None and now > job.deadline
            if not lost and not hung:
                continue
            self._broken = (
                f"pool worker(s) {[job.base + c for c in lost]} died mid-cell"
                if lost else
                f"cell still running {job.patience:.0f}s after its first rank failed"
            )
            for cr in sorted(job._pending):
                if cr in lost:
                    what = (f"rank {cr} process died without reporting "
                            f"(exitcode {self._procs[job.base + cr].exitcode})")
                elif lost:
                    what = f"rank {cr} abandoned: rank(s) {lost} died mid-cell"
                else:
                    what = f"rank {cr} hung past the collection deadline"
                job.failures.append((cr, RemoteRankError(cr, what)))
            job._pending.clear()
            self._finish_job_locked(job)
        if dead and self._broken is None:
            self._broken = f"pool worker(s) {dead} died"
            self._cond.notify_all()

    def reset(self) -> None:
        """Hygiene barrier: drain fabric, rebuild transports, zero arenas.

        Returns once every worker acked — the fabric is then provably
        indistinguishable from a freshly-forked pool (which is also why
        the happy path never needs this: a *successful* cell consumes all
        its messages and always overwrites reused rows before reading).
        Call it after a failed cell before dispatching the next one.
        """
        if self.backend == "threads":
            with self._cond:
                while self._jobs:
                    self._cond.wait()
            return
        with self._cond:
            self._check_usable()
            while self._jobs:
                self._cond.wait()
                self._check_usable()
            self._reset_gen += 1
            self._reset_acks = 0
            self._reset_names = []
            gen = self._reset_gen
        for r in range(self.size):
            self._dispatch(r, ("reset", gen))
        deadline = time.monotonic() + self.timeout + _COLLECT_GRACE
        with self._cond:
            while self._reset_acks < self.size:
                if self._broken is not None:
                    raise RuntimeError(f"pool is broken: {self._broken}")
                if not self._cond.wait(timeout=max(0.0, deadline - time.monotonic())):
                    raise TimeoutError("pool reset barrier timed out")
            names = list(self._reset_names)
        self._unlink(names)

    def close(self) -> None:
        """Stop every worker, then unlink all recycled shm segments."""
        if self.backend == "threads":
            with self._cond:
                self._closed = True
                while self._jobs:
                    self._cond.wait()
                self._cond.notify_all()
            return
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for r in range(self.size):
            self._dispatch(r, ("stop",))
        if self._broken is not None:
            # The failed cell's survivors wait in a receive nobody will
            # answer, and their reports are already discarded: end them now
            # rather than sit out their rank timeout (``_orphans`` sweeps
            # the rings they never got to name).
            for p in self._procs:
                p.terminate()
        self._collector.join(timeout=self.timeout + _COLLECT_GRACE)
        for p in self._procs:
            p.join(timeout=5.0)
        for p in self._procs:
            if p.is_alive():  # pragma: no cover - hung-worker cleanup
                p.terminate()
                p.join(timeout=5.0)
        self._collector.join(timeout=5.0)  # every sentinel has fired now
        with self._cond:
            names = list(self._stop_names)
            self._stop_names = []
        self._unlink(names + self._orphans())
        for conn in self._work_send + self._result_recv:
            conn.close()
        for inbox in self._inboxes:
            inbox.close(unlink=True)

    def _orphans(self) -> List[str]:
        """Segments no worker reported: a worker that died (or had to be
        terminated) never sent the names of the rings it created, and an
        arena's name is lost only if every rank that mapped it died; a
        cell that never finished still has its stage. Rings carry their
        creator's pid, arenas and stages this pool's stem."""
        stems = (self._coll_stem, segment_name("stage", self._stage_tag)) + tuple(
            segment_name("ring", f"{p.pid}-") for p in self._procs if p.exitcode != 0
        )
        return [name for name in list_live_segments() if name.startswith(stems)]

    @staticmethod
    def _unlink(names: List[str]) -> None:
        """Destroy segments by name (the parent-scoped unlink)."""
        for name in names:
            unlink_segment(name)
            unregister_segment(name)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- worker side -----------------------------------------------------------
    def _worker_loop(self, pool_rank: int) -> None:
        """The forked worker: serve cells until told to stop.

        Persistent state across cells: the ShmTransport (slot rings) and
        the by-name arena cache.  Everything cell-scoped — context,
        stashes, trace, RNG, the affinity mask and whether receives spin
        — is set per job, which is what keeps pooled cells bit-identical
        to cold spawns and never leaves a cell the previous one's cores.
        """
        full_mask = os.sched_getaffinity(0) if self._ncores else None
        for conn in self._work_send + self._result_recv:
            conn.close()
        for r in range(self.size):
            if r != pool_rank:
                self._work_recv[r].close()
                self._result_send[r].close()
        work, results = self._work_recv[pool_rank], self._result_send[pool_rank]
        inbox = self._inboxes[pool_rank]
        transport: Optional[ShmTransport] = None
        arenas: Dict[str, CollectiveArena] = {}

        def report(*msg: Any) -> bool:
            """Send ``msg`` to the collector; False once the parent is gone."""
            try:
                results.send(msg)
            except OSError:
                return False
            return True

        def teardown() -> List[str]:
            nonlocal transport
            names: List[str] = []
            if transport is not None:
                names += transport.ring_names()
                transport.close()
                transport = None
            for arena in arenas.values():
                names.append(arena.name)
                arena.close()
            arenas.clear()
            # Reported names become the parent's to unlink — drop them
            # from this worker's registry so its atexit sweep can't
            # destroy segments a sibling may still hold descriptors into.
            for name in names:
                unregister_segment(name)
            return names

        while True:
            try:
                item = work.recv()
            except EOFError:
                # Every write end is closed: the parent is gone, and with it
                # anyone to report to. Its next run reaps our segments.
                return
            kind = item[0]
            if kind == "stop":
                report("stop", pool_rank, teardown())
                return
            if kind == "reset":
                # Drain stranded fabric traffic (a failed cell may have
                # left messages — and ring descriptors — in flight).
                while not inbox.empty():
                    inbox.get_nowait()
                if not report("reset", item[1], pool_rank, teardown()):
                    return
                continue
            _, job_id, base, nranks, cell_rank, core, stage, tracing, options, start = item
            work_item = work.recv_bytes()
            if transport is None:
                transport = ShmTransport(
                    pool_rank, self.size, slots=self.shm_slots, timeout=self.timeout,
                )
                inbox.stats = transport.stats  # one counter surface per rank
            if full_mask is not None:
                try:
                    os.sched_setaffinity(0, full_mask if core is None else {core})
                except OSError:  # pragma: no cover - cgroup/permission quirk
                    pass
            inbox.spin = core is not None
            # The fabric as data: this cell's inboxes, the worker's
            # transport as codec, and arenas by name (cells on the same
            # block derive the same names, so they reuse one).
            ctx = RankContextBase(
                cell_rank, self._inboxes[base:base + nranks], options,
                fault_log=FaultLog(), trace=Trace() if tracing else None,
                start=start, codec=transport,
                arenas=partial(
                    _cell_arena, arenas, f"{self._coll_stem}b{base}x{nranks}",
                    nranks, options.timeout,
                ),
            )
            stats_before = dict(transport.stats)
            status, payload = run_rank_program(
                ctx, _run_work, (work_item, stage, self.payload)
            )
            transport.stats["cell_pinned"] += core is not None
            if stage is not None and cell_rank == 0:  # copied once, by the parent
                transport.stats["stage_bytes_copied"] += stage.nbytes
            tstats = {k: int(v) - int(stats_before[k]) for k, v in transport.stats.items()}
            emit_transport_marks(ctx, tstats)
            events = list(ctx.trace.events) if ctx.trace is not None else []
            records = list(ctx.fault_log.records)
            sent = report("done", job_id, cell_rank, status, payload, events, records, tstats)
            # A failure's traceback holds the frames that hold the stage's
            # views: drop it now, not when the next cell arrives.
            del payload
            if not sent:
                return
