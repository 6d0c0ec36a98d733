"""In-process MPI-style runtime: one rank context, threads as ranks.

The paper's artifact runs its distributed algorithms over MPI ("We use MPI
for distributed processing on the KNL cluster / multi-GPU multi-node
system"). This module is the offline substitute: an
:class:`InProcessCommunicator` spawns one Python thread per rank and gives
each a :class:`RankContextBase` with the familiar API — ``send``/``recv``
with source+tag matching, and collectives (``bcast``, ``reduce``,
``allreduce``, ``barrier``) built *on top of* point-to-point messages with
the same binomial-tree schedules as :mod:`repro.comm.collectives`, so the
floating-point association (and hence bit-level results) matches the
simulated trainers. A float32 allreduce folds in place in shared rows
(the fabric's arena) and sends only ready/done tokens, which are ordinary
messages to the fault plan and the trace; every other dtype reduces on
the message tree.

This is real concurrency: NumPy kernels release the GIL, messages really
cross thread boundaries, and a bug in the schedule deadlocks exactly as it
would under MPI — surfacing as a :class:`DeadlockError` that names the
waiting rank, the expected source, and the tag.

:class:`RankContextBase` is the only rank context, on threads and on
processes alike. A fabric is not a subclass but three constructor
arguments:

- ``inboxes``, one per rank: anything with ``put(record)``,
  ``get(timeout)`` and ``get_nowait()`` that raises :class:`queue.Empty`
  and keeps per-sender FIFO order — ``queue.Queue`` here, ``ShmInbox``
  between processes. A record is ``(source, tag, payload)``; a rank
  drains only its own inbox and stashes what it was not asked for yet
  (:meth:`RankContextBase._poll`, the one selective-receive loop).
- ``codec``: ``None`` when payloads cross the inbox as they are (by
  reference, here), else an object whose ``pack``/``unpack`` turn a
  payload into the bytes a record carries and back (the shm transport).
- ``arenas``: ``None``, or a callable ``(tag, elems)`` returning the shared
  float32 rows an allreduce folds in place — heap rows here, a named shm
  segment between processes.

Everything above those three exists once, so every substrate shares one
association order and one tag discipline by construction. The per-cell
knobs are one validated record, :class:`CellOptions`.

Collective tag space
--------------------
Every collective's internal phases derive their wire tags from the user
tag by adding multiples of :data:`COLLECTIVE_TAG_STRIDE`, so no two
collectives (or a collective phase and a user point-to-point tag) can
ever share a channel. Historically ``allreduce(tag=103)`` ran its
broadcast phase on ``tag + 1 = 104`` — exactly ``barrier``'s default
reduce tag — so interleaved ``allreduce()`` + ``barrier()`` calls on one
communicator could cross-match messages. The partition makes that
impossible; :func:`collective_wire_tags` exposes the mapping for tests.

Fault injection: pass ``faults=FaultPlan(...).drop_rate(p)`` and every
send — an arena token included — becomes an unreliable-link
transmission: each delivery attempt is
dropped with probability ``p`` (a pure function of the plan seed and the
message identity, so runs are reproducible), the sender retransmits with
exponential backoff up to ``max_retries`` times, and the receiver's
``recv`` polls in exponentially growing slices. A schedule bug or a
message the plan marks lost-forever therefore fails *deterministically and
fast* (a :class:`DeadlockError` at the configured timeout) instead of
hanging for a hardcoded minute. Every drop/retransmission/delay is logged
to the communicator's :class:`repro.faults.FaultLog`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import queue
import threading
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.collectives import shard_bounds, tree_reduce_into, validate_collective
from repro.faults import FaultLog, FaultPlan
from repro.trace.events import Trace

__all__ = [
    "COLLECTIVE_TAG_STRIDE",
    "collective_wire_tags",
    "CellOptions",
    "RankContextBase",
    "InProcessCommunicator",
    "DeadlockError",
    "MultiRankError",
]


def _payload_nbytes(payload: Any) -> int:
    """Best-effort wire size of a payload for trace accounting.

    Recurses into tuples and lists so piggyback payloads like
    ``(loss, weights)`` account for their array bytes — these used to
    report 0, silently zeroing the byte columns of every trace metric
    for any trainer that ships composite messages.
    """
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(item) for item in payload)
    return 0

_DEFAULT_TIMEOUT = 60.0  # seconds before a recv declares a deadlock

#: Width of the user tag block. Collective phases add multiples of this
#: stride to the user tag, so as long as user tags stay below the stride
#: each phase occupies its own disjoint tag range:
#:
#:   block 0: user p2p tags and direct ``bcast``/``reduce`` phases
#:   block 1: ``allreduce`` reduce phase
#:   block 2: ``allreduce`` bcast phase
#:   blocks 4-5: ``barrier`` (its internal allreduce, shifted by block 3)
#:   block 6: ring allreduce reduce-scatter tokens
#:   block 7: ring allreduce allgather tokens
COLLECTIVE_TAG_STRIDE = 1 << 16

#: Default user tags of the four collectives (kept from the original API).
_DEFAULT_TAGS = {"bcast": 101, "reduce": 102, "allreduce": 103, "barrier": 104}


def collective_wire_tags(
    op: str, tag: Optional[int] = None, collective: str = "tree"
) -> Tuple[int, ...]:
    """The point-to-point wire tags a collective with user tag ``tag`` uses.

    The regression surface for the tag-space partition: for any user tags
    within one stride block, the wire-tag sets of ``bcast``, ``reduce``,
    ``allreduce``, and ``barrier`` are pairwise disjoint — and the ring
    schedule's two phase blocks (``collective="ring"``) are disjoint from
    all of them, so a communicator may mix ring and tree allreduces freely
    (``barrier`` always runs its one-element allreduce on the tree).
    """
    if op not in _DEFAULT_TAGS:
        raise ValueError(f"unknown collective {op!r}; expected one of {sorted(_DEFAULT_TAGS)}")
    tag = _DEFAULT_TAGS[op] if tag is None else tag
    if op in ("bcast", "reduce"):
        return (tag,)
    if op == "allreduce":
        if collective == "ring":
            return (tag + 6 * COLLECTIVE_TAG_STRIDE, tag + 7 * COLLECTIVE_TAG_STRIDE)
        return (tag + COLLECTIVE_TAG_STRIDE, tag + 2 * COLLECTIVE_TAG_STRIDE)
    # barrier = allreduce shifted into its own block
    return collective_wire_tags("allreduce", tag + 3 * COLLECTIVE_TAG_STRIDE)


class DeadlockError(TimeoutError):
    """A ``recv`` that can never complete: schedule deadlock or lost message.

    Carries the waiting ``rank``, the expected ``source``, the ``tag``, and
    the ``timeout`` that expired, so the failing edge of the communication
    schedule is identifiable from the exception alone.
    """

    def __init__(self, rank: int, source: int, tag: int, timeout: float) -> None:
        self.rank = rank
        self.source = source
        self.tag = tag
        self.timeout = timeout
        super().__init__(
            f"rank {rank}: recv(source={source}, tag={tag}) timed out after "
            f"{timeout}s — likely a schedule deadlock or a lost message"
        )

    def __reduce__(self):
        # Default BaseException pickling would replay __init__ with the
        # formatted message as the only argument; the multiprocess backend
        # ships these across process boundaries, so pickle the fields.
        return (DeadlockError, (self.rank, self.source, self.tag, self.timeout))


class MultiRankError(RuntimeError):
    """Several ranks failed in one ``run``; every failure is preserved.

    ``failures`` maps rank -> the exception that killed it. The message
    names each failing rank so a 3-of-64 wreck is diagnosable without
    digging — the old behaviour of re-raising only the first collected
    exception silently discarded the other ranks' errors entirely.
    """

    def __init__(self, failures) -> None:
        self.failures: Dict[int, BaseException] = dict(failures)
        parts = "; ".join(
            f"rank {rank}: {type(exc).__name__}: {exc}"
            for rank, exc in sorted(self.failures.items())
        )
        # Not super(): in aggregate()'s mixin classes the next class in the
        # MRO can be the failures' common type, whose __init__ takes that
        # type's own fields (RemoteRankError's rank and message).
        RuntimeError.__init__(self, f"{len(self.failures)} ranks failed — {parts}")

    def __reduce__(self):
        return (_rebuild_multi_rank_error, (list(self.failures.items()),))

    @staticmethod
    def aggregate(failures) -> BaseException:
        """The exception a failed run should raise.

        A lone failure is returned as-is (so ``except RuntimeError`` /
        ``except TimeoutError`` around single-fault runs keep working).
        Several failures become one aggregate that *also* inherits the
        most specific exception type common to all of them — an
        all-ranks deadlock is still catchable as :class:`TimeoutError`,
        an all-ranks ``ValueError`` as :class:`ValueError`.
        """
        failures = list(failures)
        if len(failures) == 1:
            return failures[0][1]
        excs = [exc for _, exc in failures]
        common = next(
            base for base in type(excs[0]).__mro__
            if all(isinstance(exc, base) for exc in excs)
        )  # BaseException at worst, so `next` always yields
        if issubclass(MultiRankError, common):
            return MultiRankError(failures)
        cls = _MULTI_RANK_MIXINS.get(common)
        if cls is None:
            try:
                cls = type(f"MultiRank{common.__name__}", (MultiRankError, common), {})
            except TypeError:  # unresolvable MRO for an exotic base
                cls = MultiRankError
            _MULTI_RANK_MIXINS[common] = cls
        err = cls(failures)
        # Adopt the lowest-rank failure's context attributes (a
        # DeadlockError's rank/source/tag/timeout, say) so handlers that
        # introspect the common type keep working on the aggregate.
        representative = min(failures)[1]
        for key, value in vars(representative).items():
            err.__dict__.setdefault(key, value)
        return err


#: aggregate()'s cache of MultiRankError-with-common-base subclasses.
_MULTI_RANK_MIXINS: Dict[type, type] = {}


def _rebuild_multi_rank_error(failures: List[Tuple[int, BaseException]]) -> "MultiRankError":
    """Pickle hook: rebuild via aggregate() so the dynamic mixin class
    (not importable by name) never needs to be pickled itself."""
    return MultiRankError.aggregate(failures)


@dataclass(frozen=True)
class CellOptions:
    """The per-cell knobs of a rank program, checked in this one place.

    ``timeout`` is the per-``recv`` deadlock budget, ``faults`` makes the
    links unreliable per the plan, ``max_retries`` and ``retry_backoff``
    govern the sender's retransmissions, ``collective`` picks the
    allreduce schedule. Both communicators and
    :meth:`repro.pool.WorkerPool.submit` build one from their arguments.
    """

    timeout: float = _DEFAULT_TIMEOUT
    faults: Optional[FaultPlan] = None
    max_retries: int = 8
    retry_backoff: float = 0.001
    collective: str = "tree"

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        validate_collective(self.collective)


class RankContextBase:
    """One rank's view of a communicator, over any fabric.

    ``inboxes`` (one per rank of the cell), ``codec`` and ``arenas`` are
    the fabric (see the module docstring); an arena is an object with
    ``rows[P]`` and ``result``, float32. Everything else — fault-plan
    sends, selective receive, trace emission, the tree and ring schedules
    and their arena variants — is this class, which is what keeps the
    ``threads`` and ``processes`` backends bit-identical.

    ``fault_log`` and ``trace`` are where this rank records: the
    communicator's own between threads, rank-local ones in a forked rank
    (the parent merges them after the run), so nothing on the message
    path takes a cross-process lock. ``start`` is the epoch of
    :meth:`_elapsed`.

    ``collective`` is "tree" (binomial, log P full-buffer rounds) or
    "ring" (reduce-scatter + allgather, 2(P-1) rounds of n/P shards).
    Both produce bitwise-identical sums; see ``allreduce`` for which
    buffers take which path.
    """

    def __init__(
        self,
        rank: int,
        inboxes: List[Any],
        options: CellOptions,
        *,
        fault_log: FaultLog,
        trace: Optional[Trace],
        start: float,
        codec: Optional[Any] = None,
        arenas: Optional[Callable[[int, int], Any]] = None,
    ) -> None:
        self.rank = rank
        self.size = len(inboxes)
        self.timeout = options.timeout
        self.faults = options.faults
        self.max_retries = options.max_retries
        self.retry_backoff = options.retry_backoff
        self.collective = options.collective
        self.fault_log = fault_log
        self.trace = trace
        self._inboxes = inboxes
        self._codec = codec
        self._arenas = arenas
        self._start = start
        # Selective receive: messages for channels nobody asked about yet.
        self._stash: Dict[Tuple[int, int], Deque[Any]] = {}
        self._send_seq: Dict[Tuple[int, int], int] = {}
        #: Rank programs may set this so trace events carry iteration ids.
        self.trace_iteration = -1
        self._trace_op = ""  # label for p2p events inside a collective
        self._trace_round = -1

    # -- the fabric: deliver, poll, clock ---------------------------------------
    def _deliver(self, dest: int, tag: int, payload: Any) -> None:
        """Enqueue at ``dest``. A codec serializes the payload once, stages
        its bulk out of band and leaves only the descriptor for the inbox."""
        codec = self._codec
        if codec is None:
            self._inboxes[dest].put((self.rank, tag, payload))
            return
        try:
            self._inboxes[dest].put((self.rank, tag, codec.pack(dest, tag, payload)))
        except queue.Full:  # only a bounded inbox fills
            raise codec.backpressure(self.rank, dest, tag) from None

    def _poll(self, source: int, tag: int, on_retry: Optional[Callable[[int], None]]) -> Any:
        """Blocking selective receive with exponential-backoff polling.

        Drains this rank's inbox, stashing what belongs to other
        ``(source, tag)`` channels, until the wanted message arrives.
        Waits in growing slices (so a transiently dropped-and-retransmitted
        message is picked up shortly after redelivery); raises
        :class:`DeadlockError` naming ``(rank, source, tag)`` once the
        total ``timeout`` budget is spent — never a bare
        :class:`queue.Empty`, which would leak the inbox abstraction to
        callers racing collectives under fault plans. A message that
        lands exactly as the budget expires is still drained by a final
        non-blocking poll before the error is raised, so a delivery
        racing the deadline wins instead of deadlocking. ``on_retry`` is
        invoked with the attempt number after each empty slice — the
        hook ``recv`` uses for fault logging.
        """
        wanted = (source, tag)
        stashed = self._stash.get(wanted)
        if stashed:
            return stashed.popleft()
        inbox = self._inboxes[self.rank]
        codec = self._codec
        deadline = time.monotonic() + self.timeout
        wait = min(0.05, self.timeout)
        attempt = 0
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    src, t, record = inbox.get_nowait()  # the race: delivered at the wire
                else:
                    src, t, record = inbox.get(timeout=min(wait, remaining))
            except queue.Empty:
                if remaining <= 0:
                    raise DeadlockError(self.rank, source, tag, self.timeout) from None
                attempt += 1
                if on_retry is not None:
                    on_retry(attempt)
                wait = min(wait * 2.0, 2.0)
                continue
            # Decode every record at once, the wanted one or not: a
            # descriptor parked in the stash would pin its ring slot and
            # could backpressure-deadlock the sender.
            payload = record if codec is None else codec.unpack(record)
            if (src, t) == wanted:
                return payload
            self._stash.setdefault((src, t), deque()).append(payload)

    def _elapsed(self) -> float:
        # CLOCK_MONOTONIC is system-wide on Linux, so timestamps from rank
        # processes are directly comparable with the parent's (and each other's).
        return time.monotonic() - self._start

    # -- point to point --------------------------------------------------------
    def _next_seq(self, dest: int, tag: int) -> int:
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        return seq

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest`` (asynchronous, buffered).

        Under a fault plan the link is unreliable: each delivery attempt may
        be dropped, in which case the sender backs off exponentially and
        retransmits (up to ``max_retries`` retries). A channel the plan
        marks lost-forever silently never delivers — the receiving rank's
        ``recv`` then raises :class:`DeadlockError`.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        if self.faults is None and self.trace is None:
            self._deliver(dest, tag, payload)
            return
        self._send(payload, dest, tag, None)

    def _send(self, payload: Any, dest: int, tag: int, nbytes: Optional[int]) -> None:
        """:meth:`send` under a fault plan or a trace. ``nbytes`` is the
        size the trace records: ``None`` measures the payload, an arena
        token passes the buffer or shard it stands for."""
        plan = self.faults
        trace = self.trace
        seq = self._next_seq(dest, tag)
        if trace is not None:
            if nbytes is None:
                nbytes = _payload_nbytes(payload)
            payload = (seq, payload)  # carry the identity to the recv side
        if plan is None:
            t0 = self._elapsed()
            self._deliver(dest, tag, payload)
            self._trace_send(seq, dest, tag, nbytes, t0)
            return
        edge = f"rank {self.rank} -> {dest} tag {tag}"
        if plan.is_lost(self.rank, dest, tag):
            self.fault_log.record(self._elapsed(), "lost", edge, f"seq={seq}: never delivered")
            self._trace_fault("lost", dest, tag, seq)
            return
        lag = plan.delay_seconds(self.rank, dest, tag, seq)
        if lag > 0.0:
            self.fault_log.record(self._elapsed(), "delay", edge, f"+{lag:.4g}s seq={seq}")
            self._trace_fault("delay", dest, tag, seq)
            time.sleep(lag)
        for attempt in range(self.max_retries + 1):
            if plan.should_drop(self.rank, dest, tag, seq, attempt):
                self.fault_log.record(self._elapsed(), "drop", edge, f"seq={seq} attempt={attempt}")
                self._trace_fault("drop", dest, tag, seq)
                time.sleep(self.retry_backoff * (2 ** min(attempt, 6)))
                continue
            if attempt > 0:
                self.fault_log.record(
                    self._elapsed(), "retransmit", edge, f"seq={seq} delivered on attempt {attempt}"
                )
            t0 = self._elapsed()
            self._deliver(dest, tag, payload)
            self._trace_send(seq, dest, tag, nbytes, t0)
            return
        self.fault_log.record(
            self._elapsed(), "lost", edge,
            f"seq={seq}: dropped on all {self.max_retries + 1} attempts",
        )
        self._trace_fault("lost", dest, tag, seq)

    # -- trace plumbing (no-ops unless the communicator carries a Trace) ----------
    def _trace_send(self, seq: int, dest: int, tag: int, nbytes: Optional[int], t0: float) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.send(self.rank, dest, t0, self._elapsed(), tag=tag,
                   nbytes=nbytes, seq=seq, op=self._trace_op,
                   round=self._trace_round, iteration=self.trace_iteration)

    def _trace_fault(self, op: str, dest: int, tag: int, seq: int) -> None:
        trace = self.trace
        if trace is None:
            return
        trace.fault(self.rank, self._elapsed(), op, peer=dest, tag=tag,
                    seq=seq, iteration=self.trace_iteration)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Block until a message from ``source`` with ``tag`` arrives.

        Raises :class:`DeadlockError` (a :class:`TimeoutError`) carrying
        rank/source/tag once the communicator's timeout budget is spent.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range for size {self.size}")
        return self._recv(source, tag, None)

    def _recv(self, source: int, tag: int, nbytes: Optional[int]) -> Any:
        """:meth:`recv` past the range check; ``nbytes`` as in :meth:`_send`."""
        on_retry = None
        if self.faults is not None:
            fault_log = self.fault_log
            elapsed = self._elapsed

            def on_retry(attempt: int, _edge=f"rank {self.rank} <- {source} tag {tag}") -> None:
                fault_log.record(elapsed(), "recv-retry", _edge, f"poll {attempt}")

        trace = self.trace
        t0 = self._elapsed() if trace is not None else 0.0
        payload = self._poll(source, tag, on_retry)
        if trace is None:
            return payload
        seq, payload = payload
        if nbytes is None:
            nbytes = _payload_nbytes(payload)
        trace.recv(self.rank, source, t0, self._elapsed(), tag=tag,
                   nbytes=nbytes, seq=seq, op=self._trace_op,
                   round=self._trace_round, iteration=self.trace_iteration)
        return payload

    # -- collectives (binomial-tree + ring schedules) -----------------------------
    def _collective_span(self, op: str, t0: float) -> None:
        trace = self.trace
        if trace is not None:
            trace.span("collective", self.rank, t0, self._elapsed(), op=op,
                       iteration=self.trace_iteration)

    def bcast(self, payload: Any, root: int = 0, tag: int = 101) -> Any:
        """Broadcast from ``root``; every rank returns the payload."""
        t0 = self._elapsed()
        prev_op = self._trace_op
        self._trace_op = "tree-bcast"
        rel = (self.rank - root) % self.size
        # receive from parent (the rank that turned our bit on)
        if rel != 0:
            have = 1
            while have * 2 <= rel:
                have *= 2
            parent_rel = rel - have
            self._trace_round = have.bit_length() - 1
            payload = self.recv((parent_rel + root) % self.size, tag)
        # forward to children
        have = 1
        while have <= rel:
            have *= 2
        while have < self.size:
            child_rel = rel + have
            if child_rel < self.size:
                self._trace_round = have.bit_length() - 1
                self.send(payload, (child_rel + root) % self.size, tag)
            have *= 2
        self._trace_op, self._trace_round = prev_op, -1
        self._collective_span("tree-bcast", t0)
        return payload

    def reduce(self, array: np.ndarray, root: int = 0, tag: int = 102) -> Optional[np.ndarray]:
        """Tree-sum arrays to ``root`` with the same association order as
        :func:`repro.comm.collectives.tree_reduce`. Returns the sum at the
        root, ``None`` elsewhere. Each tree edge moves the buffer as one
        packed message, which the receiver folds into its private
        accumulator in place (``np.add(acc, x, out=acc)``: the same ufunc
        as ``acc + x``, so the same bits, and no fresh sum per edge).
        """
        t0 = self._elapsed()
        prev_op = self._trace_op
        self._trace_op = "tree-reduce"
        rel = (self.rank - root) % self.size
        acc = np.array(array, copy=True)
        result: Optional[np.ndarray] = None
        stride = 1
        while stride < self.size:
            self._trace_round = stride.bit_length() - 1
            if rel % (2 * stride) == 0:
                partner = rel + stride
                if partner < self.size:
                    np.add(acc, self.recv((partner + root) % self.size, tag), out=acc)
            elif rel % (2 * stride) == stride:
                self.send(acc, (rel - stride + root) % self.size, tag)
                break  # sent upstream; this rank is done
            stride *= 2
        else:
            result = acc if rel == 0 else None
        self._trace_op, self._trace_round = prev_op, -1
        self._collective_span("tree-reduce", t0)
        return result

    def allreduce(self, array: np.ndarray, tag: int = 103, *, view: bool = False) -> np.ndarray:
        """Sum across ranks; every rank returns the total.

        A float32 buffer of a multi-rank cell folds in place in the
        fabric's shared rows and only tokens cross the message fabric
        (:meth:`_arena_allreduce`), whatever its size or layout and under
        a fault plan too. Its schedule follows ``self.collective``: the
        binomial tree (reduce to rank 0 + bcast) or the sharded ring
        (reduce-scatter + allgather, Theta(1) bytes per rank in the
        buffer size); a buffer of fewer elements than ranks — ``barrier``'s
        one element — takes the tree. A lone rank, and any other dtype,
        reduce on the message tree in their own dtype. Every path
        produces bitwise-identical results.

        Each phase runs on tags derived from ``tag`` in reserved blocks
        (see :func:`collective_wire_tags`) so no phase can ever collide
        with ``barrier`` or with user point-to-point traffic.

        ``view=True`` permits the fabric to return a *read-only* view of
        shared result storage, valid until this rank's next allreduce on
        the same tag — the zero-copy path for callers that only read the
        total (default: always a private array).
        """
        arr = np.asarray(array)
        arena = self._collective_arena(tag, arr.size) if arr.dtype == np.float32 else None
        if arena is not None:
            return self._arena_allreduce(arena, arr, tag, view)
        total = self.reduce(arr, root=0, tag=tag + COLLECTIVE_TAG_STRIDE)
        return self.bcast(total, root=0, tag=tag + 2 * COLLECTIVE_TAG_STRIDE)

    # -- arena allreduce: folds in place in shared rows, tokens on the fabric ----
    def _count(self, key: str, n: int) -> None:
        """Add ``n`` to the codec's transport counter ``key`` (a fabric
        without a codec keeps no counters)."""
        if self._codec is not None:
            self._codec.stats[key] += n

    def _collective_arena(self, tag: int, elems: int) -> Optional[Any]:
        """The arena a float32 ``allreduce(tag)`` of ``elems`` folds in, or
        None on a fabric without arenas, on a lone rank, or for an empty
        buffer (nothing to fold) — the one rule, shared by
        :meth:`allreduce` and :meth:`collective_buffer`. Every rank
        reaches the same verdict because (as under MPI) all ranks pass
        buffers of one size and dtype.
        """
        if self._arenas is None or self.size == 1 or not elems:
            return None
        return self._arenas(tag, int(elems))

    def _token_out(self, dest: int, tag: int, nbytes: int, rnd: int) -> None:
        """Send one arena token: a row is ready, or a fold is done.

        The bulk bytes move through shared rows, so the token stands for
        the ``nbytes`` of buffer or shard a message would have carried in
        round ``rnd``, and that logical message is what the trace records
        — the schedule's structure stays checkable (one message per edge,
        per-channel ``seq``). With neither a fault plan nor a trace a
        token is one bare :meth:`_deliver`; otherwise it is an ordinary
        :meth:`_send`, which the plan may drop, delay, retransmit or lose.
        """
        if self.faults is None and self.trace is None:
            self._deliver(dest, tag, None)
        else:
            self._trace_round = rnd
            self._send(None, dest, tag, nbytes)
        self._count("arena_tokens", 1)

    def _token_in(self, source: int, tag: int, nbytes: int, rnd: int) -> None:
        """Wait for one arena token (raises :class:`DeadlockError` like any
        receive): one bare :meth:`_poll`, or :meth:`_recv` under a fault
        plan or a trace."""
        if self.faults is None and self.trace is None:
            self._poll(source, tag, None)
        else:
            self._trace_round = rnd
            self._recv(source, tag, nbytes)

    def _arena_allreduce(self, arena: Any, arr: np.ndarray, tag: int, view: bool) -> np.ndarray:
        """Allreduce with the bulk bytes never leaving the arena.

        1. Stage the contribution into ``rows[rank]`` — a no-op when the
           caller computed into :meth:`collective_buffer`. A buffer that
           is not the row is *copied*, never folded into: the caller's
           array is left untouched.
        2. Run the schedule (:meth:`_arena_tree`, or :meth:`_arena_ring`
           when the ring has at least one element per rank) on tokens;
           every fold is ``np.add`` in :func:`tree_reduce`'s
           stride-doubling order, so the bits are the message tree's by
           construction.
        3. Hand out ``result`` — never a contribution row, which the tree
           clobbers with partial sums: the read-only window itself under
           ``view=True``, else a private copy.
        """
        flat = arr.reshape(-1)
        row = arena.rows[self.rank]
        if not np.shares_memory(row, flat):
            np.copyto(row, flat)
            self._count("bytes_copied_in", row.nbytes)
        prev_op = self._trace_op
        if self.collective == "ring" and flat.size >= self.size:
            self._arena_ring(arena, tag)
        else:
            self._arena_tree(arena, tag)
        self._trace_op, self._trace_round = prev_op, -1
        if view:
            result = arena.result.view()
            result.flags.writeable = False
            return result.reshape(arr.shape)
        self._count("bytes_copied_out", row.nbytes)
        return arena.result.reshape(arr.shape).copy()

    def _arena_tree(self, arena: Any, tag: int) -> None:
        """Binomial-tree allreduce over arena rows.

        The schedule of :meth:`reduce` + :meth:`bcast` from rank 0, with
        each message replaced by a token: a child sends "row ready", its
        parent folds ``rows[r] += rows[child]`` in place, the root's last
        fold writes the separate ``result`` row, and done tokens travel
        down the broadcast tree.

        Reuse safety: a row is read only by its parent, after the ready
        token and before the parent's own ready token (or, at the root,
        its final fold). A rank returns only after its done token, which
        the root emits after that fold — so a rank may overwrite its row
        as soon as it returns. ``result`` is rewritten only by the root's
        final fold of round t+1, which needs a ready token from every
        subtree, i.e. every rank has left round t — exactly the
        documented validity window of a ``view=True`` result.
        """
        p, r = self.size, self.rank
        rows, nbytes = arena.rows, arena.result.nbytes
        red_tag = tag + COLLECTIVE_TAG_STRIDE
        bc_tag = tag + 2 * COLLECTIVE_TAG_STRIDE

        t0 = self._elapsed()
        self._trace_op = "tree-reduce"
        stride = 1
        while stride < p:
            rnd = stride.bit_length() - 1
            if r % (2 * stride):
                self._token_out(r - stride, red_tag, nbytes, rnd)
                break  # row handed upstream; nothing left to fold here
            child = r + stride
            if child < p:
                self._token_in(child, red_tag, nbytes, rnd)
                last = r == 0 and 2 * stride >= p
                np.add(rows[r], rows[child], out=arena.result if last else rows[r])
                self._count("bytes_inplace", nbytes)
            stride *= 2
        self._collective_span("tree-reduce", t0)

        t0 = self._elapsed()
        self._trace_op = "tree-bcast"
        have = 1
        while have * 2 <= r:
            have *= 2
        if r:  # the parent is the rank that turned our top bit on
            self._token_in(r - have, bc_tag, nbytes, have.bit_length() - 1)
            have *= 2
        while have < p:
            if r + have < p:
                self._token_out(r + have, bc_tag, nbytes, have.bit_length() - 1)
            have *= 2
        self._collective_span("tree-bcast", t0)

    def _arena_ring(self, arena: Any, tag: int) -> None:
        """Sharded ring allreduce over arena rows.

        The buffer splits into P owner shards (:func:`shard_bounds`).
        *Reduce-scatter* (tag block 6): a ready token to every peer,
        theirs collected, then the P row slices of our owner shard
        tree-reduced straight into ``result`` — in rank order with the
        binomial-tree association (:func:`tree_reduce_into`), which is
        what makes the sum bitwise equal to the tree's. *Allgather* (tag
        block 7): a done token to every peer, theirs collected, and
        ``result`` is complete. Logically each rank sends 2(P-1) messages
        of ~n/P elements — Theta(1) bytes in n per rank versus the tree's
        Theta(log P) — and that is what the trace records.

        Reuse safety (single-generation rows): a rank re-enters (and may
        overwrite its row) only after collecting *all* P-1 done tokens,
        and a done token is sent only after its owner finished reading
        every row — so no row is overwritten while any reader is
        mid-reduce. ``result`` for round t+1 is rewritten only after
        every rank has sent its round-t+1 ready token, i.e. after every
        rank returned from round t — the ``view=True`` validity window.
        """
        t0 = self._elapsed()
        p, r = self.size, self.rank
        rs_tag = tag + 6 * COLLECTIVE_TAG_STRIDE
        ag_tag = tag + 7 * COLLECTIVE_TAG_STRIDE
        rows = arena.rows
        bounds = shard_bounds(rows[r].size, p)
        shard_nbytes = [(bounds[s + 1] - bounds[s]) * rows[r].itemsize for s in range(p)]
        lo, hi = bounds[r], bounds[r + 1]

        # Logically rank r ships shard (r+k)%p's chunk to its owner in
        # step k, and later its reduced shard to everyone: the trace says so.
        self._trace_op = "ring-reduce-scatter"
        for k in range(1, p):
            self._token_out((r + k) % p, rs_tag, shard_nbytes[(r + k) % p], k - 1)
        for k in range(1, p):
            self._token_in((r - k) % p, rs_tag, shard_nbytes[r], k - 1)
        if hi > lo:
            tree_reduce_into([rows[q][lo:hi] for q in range(p)], arena.result[lo:hi])
            self._count("bytes_inplace", (p - 1) * shard_nbytes[r])

        self._trace_op = "ring-allgather"
        for k in range(1, p):
            self._token_out((r + k) % p, ag_tag, shard_nbytes[r], k - 1)
        for k in range(1, p):
            self._token_in((r - k) % p, ag_tag, shard_nbytes[(r - k) % p], k - 1)
        self._collective_span("ring-allreduce", t0)

    def collective_buffer(self, elems: int, tag: int = 103) -> np.ndarray:
        """A zeroed float32 staging buffer for ``allreduce(..., tag=tag)``.

        When an arena will carry that allreduce this is the rank's own
        contribution row: a caller that computes *into* it skips the
        staging copy — gradients are born in the fabric. The allreduce
        may leave partial sums in it, so refill it every step. Otherwise
        (messages: see :meth:`_collective_arena`) an ordinary private
        buffer, so callers can use this unconditionally on any backend.
        """
        if elems <= 0:
            raise ValueError("elems must be positive")
        arena = self._collective_arena(tag, elems)
        if arena is None:
            return np.zeros(int(elems), dtype=np.float32)
        row = arena.rows[self.rank]
        row[:] = 0.0
        return row

    def barrier(self, tag: int = 104) -> None:
        """Synchronize all ranks (zero-byte allreduce on a reserved tag block)."""
        self.allreduce(np.zeros(1, dtype=np.float32), tag=tag + 3 * COLLECTIVE_TAG_STRIDE)


class _HeapArena:
    """The shape of the shm ``CollectiveArena`` on the process heap: one
    float32 contribution row per rank plus the result row, which rank
    threads share by reference."""

    def __init__(self, size: int, elems: int) -> None:
        block = np.zeros((size + 1, elems), dtype=np.float32)
        self.rows: List[np.ndarray] = list(block[:size])
        self.result: np.ndarray = block[size]


class InProcessCommunicator:
    """Spawn ``size`` rank threads and run a function on each.

    The thread substrate of :class:`RankContextBase`: a ``queue.Queue``
    inbox per rank (payloads cross by reference — already zero-copy, so
    no codec) and heap arena rows. ``timeout``, ``faults``,
    ``max_retries``, ``retry_backoff`` and ``collective`` are the
    :class:`CellOptions` of every ``run``.
    """

    backend = "threads"

    def __init__(
        self,
        size: int,
        timeout: float = _DEFAULT_TIMEOUT,
        faults: Optional[FaultPlan] = None,
        max_retries: int = 8,
        retry_backoff: float = 0.001,
        trace: Optional[Trace] = None,
        collective: str = "tree",
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.options = CellOptions(timeout, faults, max_retries, retry_backoff, collective)
        self.size = size
        #: When set, every send/recv/collective records a TraceEvent here
        #: (wall-clock spans). None = tracing off, zero overhead.
        self.trace = trace
        if trace is not None:
            trace.meta.setdefault("ranks", size)
            trace.meta.setdefault("clock", "wall")
            trace.meta.setdefault("collective", collective)
        #: Drops, retransmissions, delays, and lost messages land here.
        self.fault_log = FaultLog()
        #: The inboxes are the communicator's, not a run's: a message no
        #: rank received is still there for the next ``run``.
        self._inboxes: List["queue.Queue[Any]"] = [queue.Queue() for _ in range(size)]
        #: Arena rows by ``(tag, elems)``, built on first use and kept for
        #: the communicator's life: their pages are faulted in once, not
        #: per allreduce.
        self._arenas: Dict[Tuple[int, int], _HeapArena] = {}
        self._arena_lock = threading.Lock()
        self._start = time.monotonic()  # epoch of trace and log timestamps

    def _arena(self, tag: int, elems: int) -> _HeapArena:
        arena = self._arenas.get((tag, elems))
        if arena is None:
            with self._arena_lock:  # every rank asks at once; one allocates
                arena = self._arenas.get((tag, elems))
                if arena is None:
                    arena = self._arenas[(tag, elems)] = _HeapArena(self.size, elems)
        return arena

    def close(self) -> None:
        """Release fabric resources (no-op for the thread backend; present
        so callers can treat both backends uniformly)."""

    def run(self, fn: Callable[..., Any], *args: Any) -> List[Any]:
        """Execute ``fn(ctx, *args)`` on every rank; return per-rank results.

        Rank failures are re-raised in the caller after all threads have
        been joined: a single failure propagates as-is; multiple failures
        are aggregated into a :class:`MultiRankError` that names every
        failing rank (no silent partial failures, no discarded errors).
        """
        results: List[Any] = [None] * self.size
        errors: List[Tuple[int, BaseException]] = []

        def runner(rank: int) -> None:
            try:
                ctx = RankContextBase(
                    rank, self._inboxes, self.options, fault_log=self.fault_log,
                    trace=self.trace, start=self._start, arenas=self._arena,
                )
                results[rank] = fn(ctx, *args)
            except BaseException as exc:
                errors.append((rank, exc))

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"rank-{r}")
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise MultiRankError.aggregate(errors)
        return results
