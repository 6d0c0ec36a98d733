"""Persistent worker pool: fork once, run many experiment cells.

Every sweep the harness runs today pays the full process spin-up bill per
cell: fork ``P`` ranks, build inboxes, create collective arenas, tear
it all down, repeat.  For the paper's headline workloads — Table 4 weak
scaling, Fig 6 pairwise comparisons, the
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
  persistent :class:`~repro.comm.shm_transport.ShmTransport` (its codec
  and counters), and a by-name
  :class:`~repro.comm.shm_transport.CollectiveArena` cache (arenas are
  sized once per shape and reused; every bulk byte a rank moves lives in
  one).
- A **cell** is one ``fn(ctx, *args)`` rank program over ``n <= P_max``
  ranks.  :meth:`submit` leases a contiguous block of free workers,
  ships the work item to each over a dispatch pipe (distinct from the
  message fabric, so dispatch never interleaves with rank traffic), and
  returns a :class:`PoolJob` handle.  Cells on disjoint blocks run
  concurrently — concurrent submitters pack them.
- Each worker **reports** on a result pipe of its own, the mirror of its
  dispatch pipe. One collector thread blocks in
  ``multiprocessing.connection.wait`` on every result pipe and every
  worker's process sentinel, so a worker that dies is seen when it exits,
  and it wakes on a timer only while a failed cell's collection deadline
  is pending. No process of the pool runs a queue feeder thread.
- A cell **owns its cores** when there are cores to own: it leases
  them from the process's core ledger (:mod:`repro.util.cores`), which
  thread-rank cells lease from too. If the ranks of every running cell,
  this one's included, fit the usable cores, each of its ranks is pinned
  to a core no running cell holds and its receives spin before they
  block; otherwise its ranks run on the full mask and block on the
  doorbell. The verdict is per cell, so a two-rank cell on a
  three-worker pool on two cores is pinned and spinning. It sets the
  rank's BLAS thread budget too (:mod:`repro.util.blas`): one thread on
  an owned core, else ``usable_cores // ranks``, never more than the
  worker forked with; ``transport_stats["blas_threads"]`` reports it.
- Each cell gets a **fresh** :class:`~repro.comm.runtime.RankContextBase`
  (fresh stashes, sequence counters, RNG-free) over the recycled fabric —
  the cell's inboxes, the worker's transport as its codec, and a by-name
  arena provider over the worker's arena cache —
  so numerics derive only from the cell's arguments and seeds: a pooled
  cell is bit-identical to a cold-spawn run of the same program. The
  context's cell id is the job id, so whatever a failed cell left in the
  fabric is dropped by the next cell's receives, never read as its own.
- A work item is pickled **once** per dispatch (the pool forked long
  ago), so ``fn`` must be a module-level function: that one protocol-5
  pickle is the picklability check and is what every rank receives.  Its
  bulk — every contiguous buffer of at least
  :data:`~repro.comm.shm_transport.DEFAULT_MIN_BYTES` — is written once,
  through the segment's descriptor, into a
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
    PickleStage,
    ShmInbox,
    ShmSlotRef,
    ShmTransport,
    require_tso,
    split_pickle,
)
from repro.faults import FaultLog, FaultPlan
from repro.trace.events import Trace
from repro.util.blas import blas_threads, set_blas_threads
from repro.util.cores import LEDGER

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
        #: Transport counters summed over the ranks, and the cell's BLAS
        #: thread budget as ``"blas_threads"`` (None: an unknown BLAS).
        self.transport_stats: Dict[str, Optional[int]] = {}
        #: Dispatch instant (monotonic) and completion instant.
        self.t_submit = time.monotonic()
        self.t_done: Optional[float] = None
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
        if self.failures:
            raise MultiRankError.aggregate(sorted(self.failures, key=lambda f: f[0]))
        return list(self.results)


class WorkerPool:
    """``P_max`` long-lived ranks shared by many experiment cells.

    ``payload`` is arbitrary fork-inherited state workers substitute for
    :data:`POOL_PAYLOAD` in cell args.  ``timeout`` bounds a send into a
    full inbox ring and is the default rank timeout for cells that don't
    override it per job.
    """

    def __init__(
        self, size: int, timeout: float = _DEFAULT_TIMEOUT, payload: Any = None
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.size = size
        self.timeout = timeout
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
        self._stop_names: List[str] = []

        require_tso("WorkerPool")
        if not fork_available():
            raise RuntimeError(
                "WorkerPool requires the 'fork' start method; run a sweep "
                "without pool_size, or rank programs with backend='threads'"
            )
        # Spawn the resource tracker *before* forking: workers then inherit
        # one shared tracker, so their arena registrations are cleared by
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
        #: The BLAS threads every worker forks with (None: an unknown BLAS).
        #: A cell's budget never exceeds them, so with an exported
        #: OPENBLAS_NUM_THREADS=1 a worker sets nothing; looked up once,
        #: here, the workers inherit the library handle.
        self._forked_blas = blas_threads()
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
        options = CellOptions(self.timeout if timeout is None else timeout, faults, collective)
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
            job.cores = LEDGER.lease(nranks)
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
        worker at a time: a worker is leased to one job, and close follows
        all jobs). A dead worker's pipe is broken; the collector sees
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
                    except (EOFError, OSError):
                        # The worker is gone and so is every write end; closing
                        # a broken pool may have killed it mid-report.
                        pipes.discard(conn)
            with self._cond:
                self._check_health_locked()

    def _until_deadline(self) -> Optional[float]:
        """Seconds to the nearest failed cell's collection deadline (None: none)."""
        with self._cond:
            deadlines = [j.deadline for j in self._jobs.values() if j.deadline is not None]
        return None if not deadlines else max(0.0, min(deadlines) - time.monotonic())

    def _route(self, report: Tuple[Any, ...]) -> None:
        """Apply one worker report to its job or to the shutdown."""
        kind = report[0]
        with self._cond:
            if kind == "done":
                _, job_id, cell_rank, status, payload, events, records, tstats = report
                job = self._jobs.get(job_id)
                if job is None:
                    return
                job.events.extend(events)
                job.records.extend(records)
                # Counters sum over the ranks; the BLAS budget is the
                # cell's, one value on every rank (None: an unknown BLAS).
                job.transport_stats["blas_threads"] = tstats.pop("blas_threads")
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
            else:  # "stop"
                self._stop_names.extend(report[2])

    def _finish_job_locked(self, job: PoolJob) -> None:
        self._jobs.pop(job.job_id, None)
        self._release(job.base, job.nranks)
        LEDGER.release(job.nranks, job.cores)
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

    def close(self) -> None:
        """Stop every worker, then unlink all recycled shm segments."""
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
            # the arenas they never got to name).
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
            # A cell still running when its workers stopped never reports:
            # end it here, so its waiters and its leased cores are let go.
            for job in list(self._jobs.values()):
                job.failures += [
                    (cr, RemoteRankError(cr, f"rank {cr} stopped: the pool closed mid-cell"))
                    for cr in sorted(job._pending)
                ]
                job._pending.clear()
                self._finish_job_locked(job)
        self._unlink(names + self._orphans())
        for conn in self._work_send + self._result_recv:
            conn.close()
        for inbox in self._inboxes:
            inbox.close(unlink=True)

    def _orphans(self) -> List[str]:
        """Segments no worker reported: an arena's name is lost if every
        rank that mapped it died (or had to be terminated), and a cell
        that never finished still has its stage. Both carry this pool's
        stem."""
        stems = (self._coll_stem, segment_name("stage", self._stage_tag))
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

        Persistent state across cells: the ShmTransport (codec and
        counters) and the by-name arena cache.  Everything cell-scoped —
        context, stashes, trace, RNG, the affinity mask, whether receives spin and
        the BLAS thread budget — is set per job, which is what keeps
        pooled cells bit-identical to cold spawns and never leaves a cell
        the previous one's cores.
        """
        full_mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        usable = len(full_mask) if full_mask else os.cpu_count() or 1
        for conn in self._work_send + self._result_recv:
            conn.close()
        for r in range(self.size):
            if r != pool_rank:
                self._work_recv[r].close()
                self._result_send[r].close()
        work, results = self._work_recv[pool_rank], self._result_send[pool_rank]
        inbox = self._inboxes[pool_rank]
        transport = ShmTransport(timeout=self.timeout)
        inbox.stats = transport.stats  # one counter surface per rank
        arenas: Dict[str, CollectiveArena] = {}

        def report(*msg: Any) -> bool:
            """Send ``msg`` to the collector; False once the parent is gone."""
            try:
                results.send(msg)
            except OSError:
                return False
            return True

        def teardown() -> List[str]:
            names = [arena.name for arena in arenas.values()]
            for arena in arenas.values():
                arena.close()
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
            if item[0] == "stop":
                report("stop", pool_rank, teardown())
                return
            _, job_id, base, nranks, cell_rank, core, stage, tracing, options, start = item
            work_item = work.recv_bytes()
            if full_mask is not None:
                try:
                    os.sched_setaffinity(0, full_mask if core is None else {core})
                except OSError:  # pragma: no cover - cgroup/permission quirk
                    pass
            inbox.spin = core is not None
            budget = self._forked_blas
            if (budget or 1) > 1:  # else every budget is 1 already
                # One thread on an owned core; else a share of the cores.
                budget = set_blas_threads(1 if core is not None
                                          else min(budget, usable // nranks))
            # The fabric as data: this cell's inboxes, the worker's
            # transport as codec, and arenas by name (cells on the same
            # block derive the same names, so they reuse one).
            ctx = RankContextBase(
                cell_rank, self._inboxes[base:base + nranks], options,
                fault_log=FaultLog(), trace=Trace() if tracing else None,
                start=start, cell=job_id, codec=transport,
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
            tstats["blas_threads"] = budget  # a setting, not a counter
            events = list(ctx.trace.events) if ctx.trace is not None else []
            records = list(ctx.fault_log.records)
            sent = report("done", job_id, cell_rank, status, payload, events, records, tstats)
            # A failure's traceback holds the frames that hold the stage's
            # views: drop it now, not when the next cell arrives.
            del payload
            if not sent:
                return
