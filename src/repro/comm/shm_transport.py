"""Zero-copy shared-memory transport for the multiprocess rank runtime.

The process backend's queues (`multiprocessing.Queue` = pickle + pipe)
charge Θ(|W|) serialization for every packed weight/gradient buffer the
Θ(log P) tree moves — exactly the parameter-movement tax the paper's
codesign removes (Section 5.2's packed single-buffer messages). This module
supplies the shared-memory substrate: bulk tensor bytes cross process
boundaries through fixed-capacity **slot rings** in named POSIX shared
memory, and the queue carries only a tiny :class:`ShmSlotRef` descriptor.

Design
------
- One :class:`SlotRing` per ``(src, dst, tag)`` channel, created lazily by
  the *sender* on first large payload and sized to it (a later, larger
  payload retires the ring and allocates a new generation; in-flight
  descriptors keep naming the old segment, which stays mapped until the
  run ends). Default capacity 2 — double buffering, the paper's overlap
  primitive.
- Segment layout: a 64-byte header whose first int64 is the **consumed
  count (tail)**, written only by the receiver, followed by
  ``capacity × slot_nbytes`` payload bytes. The sender keeps its produced
  count (head) locally, so each channel is single-producer/single-consumer
  and plain aligned int64 loads/stores are the whole protocol — no locks
  anywhere on the message path.
- **Backpressure**: a send with ``head - tail >= capacity`` blocks until
  the receiver consumes a slot; if the ring stays full past the timeout it
  raises :class:`RingBackpressureError` — a :class:`DeadlockError`, so the
  failure surface matches a wedged ``recv`` on the other side.
- Serialization is pickle protocol 5 with out-of-band buffers: the
  *structure* of the payload (tuples, scalars, dtypes, shapes — including
  the ``(seq, payload)`` wrapping the tracing path adds) travels in a
  small in-band pickle, while every contiguous array body is memcpy'd
  into the slot. ``decode`` copies slot bytes into private storage before
  reconstructing, so received arrays are ordinary writable NumPy arrays
  with no aliasing of ring memory — one memcpy per side versus the
  pickle-everything path's serialize + pipe-write + pipe-read + unpickle.
- Small or array-free payloads (below ``min_bytes`` of out-of-band data)
  return ``None`` from :meth:`ShmTransport.encode` and keep the existing
  pickle path; non-contiguous arrays pickle in-band and likewise fall
  through. Correctness never depends on which path a payload takes.

Lifecycle: each rank process owns the rings it sends on and closes its
mappings on exit; the *parent* communicator unlinks the segments by name
after the run (children report their ring names in the result tuple), so
a descriptor that is still in flight when its sender finishes remains
attachable.
"""

from __future__ import annotations

from dataclasses import dataclass
import os
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple
import uuid

import numpy as np

from repro.comm.runtime import _DEFAULT_TIMEOUT, DeadlockError
from repro.comm.shm_lifecycle import (
    register_segment,
    segment_name,
    unregister_segment,
)

__all__ = [
    "TRANSPORTS",
    "validate_transport",
    "RingBackpressureError",
    "ShmSlotRef",
    "SlotRing",
    "ShmTransport",
    "CollectiveArena",
    "SeqlockBuffer",
    "TornReadError",
    "DEFAULT_SLOTS",
    "DEFAULT_MIN_BYTES",
]

#: The recognised message transports for the process backend.
#: ``queue``: every payload pickles through the inbox queue (PR 3 behaviour).
#: ``shm``: large array payloads stage through shared-memory slot rings.
TRANSPORTS = ("queue", "shm")

#: Ring capacity: 2 slots = double buffering (sender may run one full
#: message ahead of the receiver — the overlap window Sync EASGD3 needs).
DEFAULT_SLOTS = 2

#: Payloads whose out-of-band array bytes total less than this stay on the
#: pickle path: below ~16 KiB the descriptor + segment machinery costs more
#: than pickling, and control traffic (barrier's 4-byte buffers, scalars)
#: should not allocate rings at all.
DEFAULT_MIN_BYTES = 1 << 14

#: Segment header: one cache line. Word 0 is the receiver-written consumed
#: count; the rest is reserved padding so slot 0 starts cache-aligned.
_HEADER_BYTES = 64


def validate_transport(transport: str) -> str:
    """Return ``transport`` or raise a ValueError naming the valid choices."""
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    return transport


class RingBackpressureError(DeadlockError):
    """A send blocked on a full slot ring until the timeout expired.

    The sender-side mirror of a receive deadlock: every slot of the
    ``(rank → dest, tag)`` channel stayed occupied for the whole budget,
    meaning the receiver stopped consuming (died, wedged, or the schedule
    never receives this message). ``source`` carries the *destination*
    rank — the peer whose consumption was awaited.
    """

    def __init__(self, rank: int, dest: int, tag: int, timeout: float, capacity: int) -> None:
        super().__init__(rank, dest, tag, timeout)
        self.capacity = capacity
        self.args = (
            f"rank {rank}: send(dest={dest}, tag={tag}) blocked for {timeout}s "
            f"with all {capacity} ring slots full — receiver not consuming",
        )

    def __reduce__(self):
        return (
            RingBackpressureError,
            (self.rank, self.source, self.tag, self.timeout, self.capacity),
        )


@dataclass(frozen=True)
class ShmSlotRef:
    """The small descriptor that replaces a staged payload on the queue.

    ``buffers`` lists ``(offset_in_slot, nbytes)`` for each out-of-band
    array body, in pickle-5 buffer order; ``meta`` is the in-band pickle
    stream carrying the payload's structure. Everything here is cheap to
    pickle — the whole point.
    """

    segment: str  # shared-memory name, attachable from any process
    segment_bytes: int  # total segment size (attach needs it for the view)
    slot_offset: int  # absolute byte offset of this message's slot
    buffers: Tuple[Tuple[int, int], ...]
    meta: bytes
    nbytes: int  # total out-of-band bytes (== bytes memcpy'd per side)


class SlotRing:
    """Sender-owned SPSC ring of fixed-size slots in one shm segment."""

    def __init__(
        self,
        rank: int,
        dest: int,
        tag: int,
        slot_nbytes: int,
        capacity: int = DEFAULT_SLOTS,
    ) -> None:
        if slot_nbytes <= 0:
            raise ValueError("slot_nbytes must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        from multiprocessing import shared_memory

        self.rank = rank
        self.dest = dest
        self.tag = tag
        # Round each slot up to a cache line so slots never share one.
        self.slot_nbytes = -(-slot_nbytes // 64) * 64
        self.capacity = capacity
        self.total_bytes = _HEADER_BYTES + self.capacity * self.slot_nbytes
        # Lifecycle-tracked name: the pid-stamped prefix lets a later run
        # reap this segment if the whole run dies before any unlink path
        # executes; the creating rank's own pid lets the pool parent find
        # the rings of a rank that died without reporting them.
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.total_bytes,
            name=segment_name("ring", f"{os.getpid()}-{uuid.uuid4().hex[:8]}"),
        )
        register_segment(self._shm.name)
        self._tail = np.frombuffer(self._shm.buf, dtype=np.int64, count=1)
        self._tail[0] = 0
        self._data = np.frombuffer(self._shm.buf, dtype=np.uint8)
        self.head = 0  # produced count; sender-local, no sharing needed

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def in_flight(self) -> int:
        """Messages produced but not yet consumed (0..capacity)."""
        return self.head - int(self._tail[0])

    def acquire(self, timeout: float = _DEFAULT_TIMEOUT) -> int:
        """Claim the next slot; returns its absolute byte offset.

        Blocks while the ring is full (receiver owes consumption of the
        oldest slot), polling the shared tail with the same exponential
        backoff the receive path uses; raises
        :class:`RingBackpressureError` once ``timeout`` is spent. On
        return the slot is the caller's to fill, and ``head`` has been
        advanced — the message **must** then be delivered.
        """
        if self.head - int(self._tail[0]) >= self.capacity:
            deadline = time.monotonic() + timeout
            wait = min(0.0005, timeout)
            while self.head - int(self._tail[0]) >= self.capacity:
                if time.monotonic() >= deadline:
                    raise RingBackpressureError(
                        self.rank, self.dest, self.tag, timeout, self.capacity
                    )
                time.sleep(wait)
                wait = min(wait * 2.0, 0.05)
        slot = self.head % self.capacity
        self.head += 1
        return _HEADER_BYTES + slot * self.slot_nbytes

    def write(self, offset: int, data: np.ndarray) -> None:
        """memcpy ``data`` (flat uint8) into the slot starting at ``offset``."""
        self._data[offset : offset + data.size] = data

    def close(self, unlink: bool = False) -> None:
        """Drop this process's views and mapping; ``unlink`` destroys the
        segment system-wide (owner-side convenience for unit tests — the
        communicator instead unlinks by name from the parent)."""
        # The NumPy views pin the exported buffer; drop them before close.
        self._tail = None
        self._data = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a stray view still pinned
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            unregister_segment(self._shm.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlotRing({self.rank}->{self.dest} tag={self.tag}, "
            f"slots={self.capacity}x{self.slot_nbytes}B, head={self.head})"
        )


def _contains_array(payload: Any) -> bool:
    """Whether staging could help: any ndarray anywhere in the payload."""
    if isinstance(payload, np.ndarray):
        return True
    if isinstance(payload, (tuple, list)):
        return any(_contains_array(p) for p in payload)
    return False


class ShmTransport:
    """Per-rank encode/decode endpoint over shared-memory slot rings.

    One instance lives in each rank process. ``encode`` stages a payload
    and returns the descriptor to enqueue (or ``None`` — caller keeps the
    pickle path); ``decode`` reconstructs a payload from a descriptor
    popped off the inbox. ``stats`` counts both paths so traces can report
    bytes-on-wire (descriptor pickles) versus bytes-copied (slot memcpys).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        slots: int = DEFAULT_SLOTS,
        min_bytes: int = DEFAULT_MIN_BYTES,
        timeout: float = _DEFAULT_TIMEOUT,
    ) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        if min_bytes < 0:
            raise ValueError("min_bytes must be non-negative")
        self.rank = rank
        self.size = size
        self.slots = slots
        self.min_bytes = min_bytes
        self.timeout = timeout
        self._rings: Dict[Tuple[int, int], SlotRing] = {}
        self._retired: List[SlotRing] = []  # outgrown generations, kept mapped
        self._attached: Dict[str, Tuple[Any, np.ndarray, np.ndarray]] = {}
        self.stats: Dict[str, int] = {
            "shm_messages": 0,
            "queue_messages": 0,
            "bytes_copied_in": 0,  # sender-side memcpys into slots
            "bytes_copied_out": 0,  # receiver-side memcpys out of slots
            "bytes_inplace": 0,  # consumed in place from slots (no copy at all)
            "bytes_on_wire": 0,  # descriptor meta actually crossing the pipe
            "ring_allocs": 0,
        }

    # -- sender side -----------------------------------------------------------
    def encode(self, dest: int, tag: int, payload: Any) -> Optional[ShmSlotRef]:
        """Stage ``payload`` for ``(dest, tag)``; None = use the pickle path."""
        if not _contains_array(payload):
            self.stats["queue_messages"] += 1
            return None
        buffers: List[pickle.PickleBuffer] = []
        try:
            meta = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
        except Exception:  # exotic payload; the queue path handles it
            self.stats["queue_messages"] += 1
            return None
        views = [buf.raw() for buf in buffers]
        total = sum(v.nbytes for v in views)
        if total < self.min_bytes:
            # Small arrays (barrier tokens, scalars) — and non-contiguous
            # ones, which pickle in-band — are cheaper on the queue.
            for buf in buffers:
                buf.release()
            self.stats["queue_messages"] += 1
            return None

        ring = self._rings.get((dest, tag))
        if ring is None or ring.slot_nbytes < total:
            if ring is not None:
                self._retired.append(ring)  # in-flight refs may still name it
            ring = SlotRing(self.rank, dest, tag, total, capacity=self.slots)
            self._rings[(dest, tag)] = ring
            self.stats["ring_allocs"] += 1

        offset = ring.acquire(self.timeout)
        descs: List[Tuple[int, int]] = []
        cursor = 0
        for view in views:
            flat = np.frombuffer(view, dtype=np.uint8)
            ring.write(offset + cursor, flat)
            descs.append((cursor, flat.size))
            cursor += flat.size
        for buf in buffers:
            buf.release()
        self.stats["shm_messages"] += 1
        self.stats["bytes_copied_in"] += total
        self.stats["bytes_on_wire"] += len(meta)
        return ShmSlotRef(
            segment=ring.name,
            segment_bytes=ring.total_bytes,
            slot_offset=offset,
            buffers=tuple(descs),
            meta=meta,
            nbytes=total,
        )

    # -- receiver side ---------------------------------------------------------
    def _attach(self, segment: str) -> Tuple[Any, np.ndarray, np.ndarray]:
        """Map (and cache) a sender's segment; returns (shm, tail, data)."""
        entry = self._attached.get(segment)
        if entry is None:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=segment)
            tail = np.frombuffer(shm.buf, dtype=np.int64, count=1)
            data = np.frombuffer(shm.buf, dtype=np.uint8)
            entry = self._attached[segment] = (shm, tail, data)
        return entry

    def decode(self, ref: ShmSlotRef) -> Any:
        """Reconstruct the payload and release its slot back to the sender.

        The slot bytes are copied into private storage *before* the tail
        advances, so the returned arrays are ordinary writable NumPy arrays
        that never alias ring memory — a sender overwriting the slot later
        cannot corrupt them.
        """
        _, tail, data = self._attach(ref.segment)
        privates: List[np.ndarray] = []
        for off, nbytes in ref.buffers:
            start = ref.slot_offset + off
            private = np.empty(nbytes, dtype=np.uint8)
            np.copyto(private, data[start : start + nbytes])
            privates.append(private)
        tail[0] += 1  # slot is free for the sender again
        self.stats["bytes_copied_out"] += ref.nbytes
        return pickle.loads(ref.meta, buffers=privates)

    def decode_view(self, ref: ShmSlotRef) -> Tuple[Any, Any]:
        """Reconstruct the payload with arrays *viewing* slot memory.

        The zero-copy receive for consume-once readers (the in-place
        reduce fold): no private copy is made and the tail does **not**
        advance yet — the slot stays claimed while the caller reads the
        views. Returns ``(payload, release)``; the caller must drop every
        reference into the payload and then call ``release()`` exactly
        once to hand the slot back to the sender. Holding the payload past
        ``release()`` would race the sender's next overwrite.
        """
        _, tail, data = self._attach(ref.segment)
        views = [
            data[ref.slot_offset + off : ref.slot_offset + off + nbytes].data
            for off, nbytes in ref.buffers
        ]
        payload = pickle.loads(ref.meta, buffers=views)
        self.stats["bytes_inplace"] += ref.nbytes

        def release() -> None:
            tail[0] += 1

        return payload, release

    # -- lifecycle -------------------------------------------------------------
    def ring_names(self) -> List[str]:
        """Names of every segment this rank created (for parent cleanup)."""
        return [r.name for r in [*self._rings.values(), *self._retired]]

    def close(self, unlink: bool = False) -> None:
        """Release all mappings; ``unlink`` also destroys owned segments."""
        for ring in [*self._rings.values(), *self._retired]:
            ring.close(unlink=unlink)
        self._rings.clear()
        self._retired.clear()
        for name in list(self._attached):
            shm, tail, data = self._attached.pop(name)
            tail = data = None  # noqa: F841 - drop the views pinning the buffer
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a stray payload view
                pass


class CollectiveArena:
    """All-ranks shared staging area for one sharded-ring allreduce channel.

    One named segment holds P float32 **contribution rows** (``elems``
    elements, one row per rank, each row cache-line aligned) followed by
    one float32 **result row**. The ring schedule then never moves the
    bulk bytes at all: every rank writes its contribution into its own row,
    each shard owner tree-reduces the P row slices of its shard straight
    into the result row — reduction happens *in place in shared memory* —
    and every rank reads the finished result row directly. Only tiny
    ready/done tokens cross the message fabric; see
    :meth:`repro.comm.mp_runtime.MpRankContext._ring_allreduce` for the
    protocol and its single-generation reuse-safety argument.

    All ranks of a run map the same segment: the first caller of
    :meth:`create_or_attach` creates it, the rest attach by name (retrying
    while the creator's ftruncate is still in flight). The parent
    communicator unlinks by name after the run, exactly like slot rings.
    """

    def __init__(self, shm: Any, size: int, elems: int) -> None:
        self.size = size
        self.elems = elems
        self.row_nbytes = self._row_nbytes(elems)
        self._shm = shm
        #: rows[q]: rank q's contribution.
        self.rows: List[np.ndarray] = [
            np.frombuffer(shm.buf, dtype=np.float32, count=elems, offset=q * self.row_nbytes)
            for q in range(size)
        ]
        #: The result row all ranks read after the owners reduce.
        self.result: np.ndarray = np.frombuffer(
            shm.buf, dtype=np.float32, count=elems, offset=size * self.row_nbytes
        )

    @staticmethod
    def _row_nbytes(elems: int) -> int:
        return -(-elems * 4 // 64) * 64

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create_or_attach(
        cls,
        name: str,
        size: int,
        elems: int,
        timeout: float = _DEFAULT_TIMEOUT,
    ) -> "CollectiveArena":
        """Map the arena ``name``, creating it if this rank arrives first.

        Creation is racy by design (all ranks call this with the same
        name): exactly one create succeeds, the others attach. An attacher
        can glimpse the segment between the creator's ``shm_open`` and
        ``ftruncate`` — it retries until the mapping reaches the expected
        size or ``timeout`` expires.
        """
        if size <= 0 or elems <= 0:
            raise ValueError("size and elems must be positive")
        from multiprocessing import shared_memory

        total = size * cls._row_nbytes(elems) + elems * 4
        try:
            shm = shared_memory.SharedMemory(create=True, size=total, name=name)
            register_segment(name)
            return cls(shm, size, elems)
        except FileExistsError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, ValueError):
                shm = None
            if shm is not None:
                if shm.buf.nbytes >= total:
                    return cls(shm, size, elems)
                shm.close()  # creator's ftruncate not landed yet
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"collective arena {name!r} never reached {total} bytes"
                )
            time.sleep(0.0005)

    def close(self, unlink: bool = False) -> None:
        """Drop this process's views and mapping; ``unlink`` destroys the
        segment system-wide (the communicator unlinks by name from the
        parent, so ranks normally close only)."""
        self.rows = []
        self.result = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a stray view still pinned
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            unregister_segment(self._shm.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CollectiveArena({self.name!r}, ranks={self.size}, elems={self.elems})"


class TornReadError(RuntimeError):
    """A seqlock reader could not obtain a stable snapshot in time.

    Raised only when the writer publishes continuously faster than one
    reader memcpy for the whole retry budget — in practice a sign the
    publisher is spinning in a tight loop, not a transient race.
    """


class SeqlockBuffer:
    """Double-buffered, version-counted publication area for one packed vector.

    The serving tier's read point (and the guard the evaluation path was
    missing): a single writer repeatedly :meth:`publish`\\ es the latest
    center weights; any number of readers :meth:`read` a torn-free,
    staleness-tagged copy without ever blocking the writer.  No locks —
    the protocol is the classic **seqlock** over a **double buffer**:

    - Header (one cache line of int64 words): ``seq`` (even = stable; a
      publish increments it twice), ``active`` slot index, ``step`` tag
      of the active snapshot, ``elems``, and a ``train_step`` heartbeat
      the trainer bumps every step even when it skips a full publish.
    - Two float32 slots of ``elems`` each.  The writer always fills the
      *inactive* slot, then flips ``active``/``step`` inside the odd
      ``seq`` window.  A reader copies the active slot and accepts the
      copy only if ``seq`` did not change around it; for its copy to be
      torn the writer would have had to complete a *second* publish into
      the slot being read, which changes ``seq`` and forces a retry.

    Storage is either a named POSIX shm segment (``shared=True`` — the
    cross-process read point, lifecycle-tracked like every other repro
    segment) or a private NumPy buffer (``shared=False`` — same protocol
    for thread readers, nothing to unlink).

    Word-ordering caveat: CPython offers no memory barriers, so this
    leans on the same x86-TSO store-ordering assumption the slot-ring
    head/tail protocol above already makes.
    """

    _HEADER_WORDS = 8  # seq, active, step, elems, train_step, 3 reserved
    _W_SEQ, _W_ACTIVE, _W_STEP, _W_ELEMS, _W_TRAIN = 0, 1, 2, 3, 4

    def __init__(self, shm: Optional[Any], buf: Any, elems: int, owner: bool) -> None:
        self._shm = shm  # None for local (in-process) storage
        self.elems = int(elems)
        self.owner = owner
        self.slot_nbytes = -(-self.elems * 4 // 64) * 64
        self._header = np.frombuffer(buf, dtype=np.int64, count=self._HEADER_WORDS)
        self._slots = [
            np.frombuffer(buf, dtype=np.float32, count=self.elems,
                          offset=_HEADER_BYTES + s * self.slot_nbytes)
            for s in (0, 1)
        ]
        if owner:
            self._header[:] = 0
            self._header[self._W_ELEMS] = self.elems

    @staticmethod
    def _total_bytes(elems: int) -> int:
        return _HEADER_BYTES + 2 * (-(-elems * 4 // 64) * 64)

    @property
    def name(self) -> Optional[str]:
        """The shm segment name (None for local storage)."""
        return self._shm.name if self._shm is not None else None

    @classmethod
    def create(cls, elems: int, shared: bool = False) -> "SeqlockBuffer":
        """Allocate a buffer for ``elems`` float32 values.

        ``shared=True`` places it in named shared memory so forked serving
        processes can :meth:`attach`; ``shared=False`` keeps it on the
        process heap (thread readers share it by reference).
        """
        if elems <= 0:
            raise ValueError("elems must be positive")
        total = cls._total_bytes(elems)
        if shared:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=total, name=segment_name("snap")
            )
            register_segment(shm.name)
            return cls(shm, shm.buf, elems, owner=True)
        return cls(None, np.zeros(total, dtype=np.uint8).data, elems, owner=True)

    @classmethod
    def attach(cls, name: str, elems: int) -> "SeqlockBuffer":
        """Map an existing shared buffer by name (reader side)."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        buf = cls(shm, shm.buf, elems, owner=False)
        if int(buf._header[cls._W_ELEMS]) not in (0, elems):
            size = int(buf._header[cls._W_ELEMS])
            buf.close()
            raise ValueError(f"buffer {name!r} holds {size} elems, expected {elems}")
        return buf

    # -- writer side -------------------------------------------------------
    def publish(self, vec: np.ndarray, step: int) -> int:
        """Publish ``vec`` as the snapshot for training step ``step``.

        Single-writer: fill the inactive slot, then flip inside the odd
        seq window. Returns the new version number.
        """
        flat = np.asarray(vec).reshape(-1)
        if flat.size != self.elems:
            raise ValueError(f"expected {self.elems} elems, got {flat.size}")
        header = self._header
        target = 1 - int(header[self._W_ACTIVE])
        np.copyto(self._slots[target], flat, casting="same_kind")
        header[self._W_SEQ] += 1  # odd: flip in progress
        header[self._W_ACTIVE] = target
        header[self._W_STEP] = int(step)
        if step > header[self._W_TRAIN]:
            header[self._W_TRAIN] = int(step)
        header[self._W_SEQ] += 1  # even: stable again
        return int(header[self._W_SEQ]) // 2

    def mark_step(self, step: int) -> None:
        """Record training progress without republishing weights.

        One int64 store — the cheap per-step heartbeat that makes "steps
        behind training" staleness measurable between full publishes.
        """
        self._header[self._W_TRAIN] = int(step)

    # -- reader side -------------------------------------------------------
    @property
    def version(self) -> int:
        """Completed publish count (0 = nothing published yet)."""
        return int(self._header[self._W_SEQ]) // 2

    @property
    def step(self) -> int:
        """Training step tag of the newest published snapshot."""
        return int(self._header[self._W_STEP])

    @property
    def train_step(self) -> int:
        """Newest training step the writer has reached (heartbeat word)."""
        return int(self._header[self._W_TRAIN])

    def read(
        self,
        out: Optional[np.ndarray] = None,
        timeout: float = _DEFAULT_TIMEOUT,
    ) -> Tuple[np.ndarray, int, int]:
        """A torn-free ``(params, step, version)`` snapshot copy.

        Never blocks the writer; retries while a flip is in flight or a
        flip landed mid-copy.  ``out`` (shape ``(elems,)`` float32) makes
        the hot serving path allocation-free.
        """
        header = self._header
        if out is None:
            out = np.empty(self.elems, dtype=np.float32)
        deadline = time.monotonic() + timeout
        while True:
            s0 = int(header[self._W_SEQ])
            if s0 & 1 == 0:
                slot = int(header[self._W_ACTIVE])
                step = int(header[self._W_STEP])
                np.copyto(out, self._slots[slot])
                if int(header[self._W_SEQ]) == s0:
                    return out, step, s0 // 2
            if time.monotonic() >= deadline:
                raise TornReadError(
                    f"no stable snapshot within {timeout}s — writer is "
                    "publishing continuously"
                )
            time.sleep(0.0)  # yield; flips are two int64 stores, retry is cheap

    # -- lifecycle ---------------------------------------------------------
    def close(self, unlink: bool = False) -> None:
        """Drop views and mapping; ``unlink`` destroys a shared segment."""
        self._header = None  # type: ignore[assignment]
        self._slots = []
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a stray view still pinned
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            unregister_segment(self._shm.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.name or "local"
        return f"SeqlockBuffer({where}, elems={self.elems}, version={self.version})"
