"""Zero-copy shared-memory transport: the one process fabric.

A ``multiprocessing.Queue`` fabric (pickle -> feeder thread -> pipe ->
reader lock -> ``poll``) would charge every message twice: Θ(|W|)
serialization for each packed weight/gradient buffer the Θ(log P) tree
moves — exactly the parameter-movement tax the paper's codesign removes
(Section 5.2's packed single-buffer messages) — and a cross-core
*blocking* wake of 50-100 us for every hop, however small. This module is
the substrate that pays neither, and the only way bytes move between rank
processes: bulk bytes cross process boundaries through **slot rings**
in named POSIX shared memory, the descriptors (and everything small)
through a per-rank **inbox ring** the receiver spins on before it blocks,
and an allreduce's bytes do not cross at all — they are folded in place
in a :class:`CollectiveArena`. No syscall and no copy on the hot path.

Design
------
- **Control path.** One :class:`ShmInbox` per rank, created by the pool
  parent before it forks: a byte ring of length-prefixed records per
  (source, owner) pair, head written only by that source, tail only by
  the owner. A record body is a pickle — the payload's own when it is
  small, else a :class:`ShmSlotRef`'s. Receive is *spin-then-doorbell*:
  poll the heads for :data:`_SPIN_SECONDS`, then set a ``sleeping`` word
  and block on a fork-inherited semaphore that senders post only when
  they see the word set. Spinning is on for exactly the cells whose
  ranks the pool pinned to cores of their own (decided per cell, at
  dispatch); it is not an option. A full ring is backpressure.
- **Bulk path.** One :class:`SlotRing` per ``(src, dst, tag)`` channel,
  created lazily by the *sender* on first large payload and sized to it
  (a later, larger payload retires the ring and allocates a new
  generation; in-flight descriptors keep naming the old segment, which
  stays mapped until the run ends). Default capacity 2 — double
  buffering, the paper's overlap primitive.
- Slot-ring layout: a 64-byte header whose first int64 is the **consumed
  count (tail)**, written only by the receiver, followed by
  ``capacity × slot_nbytes`` payload bytes. The sender keeps its produced
  count (head) locally, so each channel is single-producer/single-consumer
  and plain aligned int64 loads/stores are the whole protocol — no locks
  anywhere on the message path.
- **Backpressure**: a send with ``head - tail >= capacity`` (or into an
  inbox ring without room) blocks until the receiver consumes; past the
  timeout it raises :class:`RingBackpressureError` — a
  :class:`DeadlockError`, so the failure surface matches a wedged
  ``recv`` on the other side. Every such wait in this module is
  :func:`_wait_until`.
- Serialization is pickle protocol 5, once per message
  (:func:`split_pickle`): the *structure* of the payload (tuples,
  scalars, dtypes, shapes — including the ``(seq, payload)`` wrapping the
  tracing path adds) travels in a small in-band pickle, while every
  contiguous buffer of at least ``min_bytes`` is memcpy'd into the slot.
  A pool dispatch is the same split with one writer and many readers:
  its bulk goes once into a per-cell :class:`PickleStage`, which the
  cell's ranks map read-only.
  ``decode`` copies slot bytes into private storage before
  reconstructing, so received arrays are ordinary writable NumPy arrays
  with no aliasing of ring memory.
- **The spill rule.** Smaller buffers, array-free payloads and
  non-contiguous arrays pickle in band. An in-band stream longer than
  :data:`INLINE_LIMIT` rides the slot as one more body, so the inbox
  ring carries descriptors and scalars only, no payload can fail for its
  size, and "a sender may run ``slots`` messages ahead of its receiver"
  stays the one buffering rule. Correctness never depends on which path
  a payload takes.
- **Memory model.** The rings, the inboxes and :class:`SeqlockBuffer`
  publish with plain aligned stores and no barriers (CPython has none),
  which is correct only where stores become visible in program order:
  x86-TSO. :func:`require_tso` refuses any other host before a fork or a
  segment, with :class:`UnsupportedMemoryModelError`.

Lifecycle: each rank process owns the rings it sends on and closes its
mappings on exit; the *parent* unlinks the segments by name after the run
(children report their ring and arena names), so a descriptor that is
still in flight when its sender finishes remains attachable. Inboxes are
the pool parent's own: created before the fork, unlinked in its
``close``, reaped by the next run like any ``repro-<pid>-`` segment if it
is killed.
"""

from __future__ import annotations

from dataclasses import dataclass
import multiprocessing
import os
import pickle
import platform
import queue
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
import uuid

import numpy as np

from repro.comm.runtime import _DEFAULT_TIMEOUT, DeadlockError
from repro.comm.shm_lifecycle import create_segment, unregister_segment

__all__ = [
    "TSO_MACHINES",
    "UnsupportedMemoryModelError",
    "require_tso",
    "RingBackpressureError",
    "split_pickle",
    "PickleStage",
    "ShmSlotRef",
    "SlotRing",
    "ShmTransport",
    "ShmInbox",
    "CollectiveArena",
    "SeqlockBuffer",
    "TornReadError",
    "DEFAULT_SLOTS",
    "DEFAULT_MIN_BYTES",
]

#: ``platform.machine()`` values (lower-cased) of the x86 family, whose
#: TSO store ordering every lock-free protocol in this module relies on.
TSO_MACHINES = frozenset({"x86_64", "amd64", "i386", "i486", "i586", "i686", "x86"})

#: Ring capacity: 2 slots = double buffering (sender may run one full
#: message ahead of the receiver — the overlap window Sync EASGD3 needs).
DEFAULT_SLOTS = 2

#: Buffers below this pickle in band instead of being staged through a
#: slot ring or a dispatch stage: below ~16 KiB the shared-segment
#: machinery costs more than the copy it saves.
DEFAULT_MIN_BYTES = 1 << 14

#: Segment header: one cache line. Word 0 is the receiver-written consumed
#: count; the rest is reserved padding so slot 0 starts cache-aligned.
_HEADER_BYTES = 64

#: How long a receive busy-polls the shared heads before it blocks on the
#: doorbell, when the rank owns its core (a cross-core blocking wake costs
#: 50-100 us on this class of host, a spin hit ~15 us). Swept on the 2-core
#: reference host: 0 us reads 0.127 ms/step on the 64 KiB tree allreduce,
#: 50 us to 1 ms all read 0.061 (docs/performance.md, "Message transport").
_SPIN_SECONDS = 200e-6

#: Longest nap of a polled wait (full ring, arena attach): a freed slot is
#: noticed within a millisecond however long the wait has lasted.
_SLEEP_CAP = 1e-3

#: Longest doorbell wait before a blocked receiver re-scans unprompted. A
#: sender's store(head) -> load(sleeping) may reorder against the owner's
#: store(sleeping) -> load(head) (x86 permits store->load), so a wake-up
#: can be missed; it then costs one slice, never a hang.
_DOORBELL_SLICE = 4e-3

#: In-band pickles above this ride a slot ring like an array body instead
#: of the inbox ring: the control ring carries descriptors and scalars.
INLINE_LIMIT = 1 << 11

#: Bytes of inbox ring per (source, owner) pair.
INBOX_RING_BYTES = 1 << 16


class UnsupportedMemoryModelError(RuntimeError):
    """This host's CPU is not known to keep stores in program order.

    :class:`SlotRing`, :class:`ShmInbox` and :class:`SeqlockBuffer` publish
    a head, a tail or a sequence word with a plain store after the bytes it
    guards, which another process reads in that order only under x86-TSO.
    On a weaker memory model a reader could see the word before the bytes
    and act on torn data, so these are refused instead of run.
    """


def require_tso(what: str) -> None:
    """Raise :class:`UnsupportedMemoryModelError` unless ``platform.machine()``
    is on :data:`TSO_MACHINES`. ``what`` names the refused request; callers
    check before they fork or create a segment."""
    machine = platform.machine()
    if machine.lower() not in TSO_MACHINES:
        raise UnsupportedMemoryModelError(
            f"{what} needs shared-memory rings, which assume x86-TSO store "
            f"ordering; this host's machine is {machine!r}, not known to be TSO. "
            "Use backend='threads': its ranks share one process and need no rings."
        )


def _close_segment(shm: Any, unlink: bool) -> None:
    """Unmap ``shm`` (its NumPy views must already be dropped); ``unlink``
    also destroys the segment system-wide and forgets it in the registry."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - a stray view still pinned
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        unregister_segment(shm.name)


def _wait_until(
    ready: Callable[[], Any],
    timeout: float,
    spin: bool = False,
    doze: Optional[Callable[[float], None]] = None,
) -> Any:
    """Wait for ``ready()`` (a predicate over shared words) to turn truthy.

    Returns its value, or ``None`` once ``timeout`` is spent — the caller
    raises its own typed error. ``spin`` busy-polls for the first
    :data:`_SPIN_SECONDS` (only sensible when this rank owns its core: a
    spinner sharing its peer's core turns a 33 us round trip into 8 ms).
    After that the wait naps in doubling slices capped at
    :data:`_SLEEP_CAP`, or calls ``doze(seconds)`` when the waiter has a
    doorbell to block on. ``ready`` runs once more at the deadline, so
    whatever lands exactly then still wins.
    """
    now = time.monotonic()
    deadline = now + timeout
    if spin:
        spin_end = min(deadline, now + _SPIN_SECONDS)
        while time.monotonic() < spin_end:
            value = ready()
            if value:
                return value
    nap = 50e-6
    while True:
        value = ready()
        if value:
            return value
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        if doze is not None:
            doze(min(_DOORBELL_SLICE, remaining))
        else:
            time.sleep(min(nap, remaining))
            nap = min(2.0 * nap, _SLEEP_CAP)


class RingBackpressureError(DeadlockError):
    """A send blocked on a full slot ring until the timeout expired.

    The sender-side mirror of a receive deadlock: every slot of the
    ``(rank → dest, tag)`` channel stayed occupied for the whole budget,
    meaning the receiver stopped consuming (died, wedged, or the schedule
    never receives this message). ``source`` carries the *destination*
    rank — the peer whose consumption was awaited. The same error ends a
    send blocked on a full :class:`ShmInbox` ring, whose ``capacity``
    counts bytes.
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
    stream carrying the payload's structure — or empty when that stream
    was itself too long for the inbox ring and rides the slot as the last
    entry of ``buffers``. Everything here is cheap to pickle — the whole
    point.
    """

    segment: str  # shared-memory name, attachable from any process
    segment_bytes: int  # total segment size (attach needs it for the view)
    slot_offset: int  # absolute byte offset of this message's slot
    buffers: Tuple[Tuple[int, int], ...]
    meta: bytes
    nbytes: int  # total out-of-band bytes (== bytes memcpy'd per side)


def split_pickle(
    obj: Any, min_bytes: int = DEFAULT_MIN_BYTES
) -> Tuple[bytes, List[pickle.PickleBuffer]]:
    """Pickle ``obj`` once (protocol 5): ``(in-band stream, bulk buffers)``.

    Every contiguous buffer of at least ``min_bytes`` stays out of band,
    in pickle-5 buffer order, for the caller to place in shared memory;
    smaller ones, and non-contiguous arrays, pickle in band (below
    :data:`DEFAULT_MIN_BYTES` the shm machinery costs more than the copy,
    and a small message should not allocate a segment). The one split behind both a
    rank's messages (:meth:`ShmTransport.pack`) and a pool's dispatch
    (:class:`PickleStage`).
    """
    buffers: List[pickle.PickleBuffer] = []

    def in_band(buf: pickle.PickleBuffer) -> bool:
        if memoryview(buf).nbytes < min_bytes:
            return True
        buffers.append(buf)
        return False

    return pickle.dumps(obj, protocol=5, buffer_callback=in_band), buffers


class PickleStage:
    """A write-once segment holding the bulk of one :func:`split_pickle`.

    The counterpart of a slot for one writer and many readers: the
    creator copies the out-of-band buffers in once, cache-line aligned,
    and drops its mapping; every reader views them in place
    (:meth:`load`); nobody consumes a tail. ``ref`` is the descriptor
    readers need — the in-band stream travels apart from it, so its
    ``meta`` is empty. :meth:`unlink` is the creator's; readers' mappings
    outlive it.
    """

    def __init__(self, suffix: str, buffers: List[pickle.PickleBuffer]) -> None:
        bodies = [np.frombuffer(buf.raw(), dtype=np.uint8) for buf in buffers]
        descs: List[Tuple[int, int]] = []
        total = 0
        for body in bodies:
            descs.append((total, body.size))
            total += -(-body.size // 64) * 64
        self._shm = create_segment("stage", total, suffix)
        data = np.frombuffer(self._shm.buf, dtype=np.uint8)
        for (offset, nbytes), body in zip(descs, bodies):
            data[offset : offset + nbytes] = body
        del data
        for buf in buffers:
            buf.release()
        _close_segment(self._shm, unlink=False)
        self.ref = ShmSlotRef(
            segment=self._shm.name, segment_bytes=total, slot_offset=0,
            buffers=tuple(descs), meta=b"", nbytes=sum(n for _, n in descs),
        )

    def unlink(self) -> None:
        """Destroy the segment system-wide and forget it in the registry."""
        _close_segment(self._shm, unlink=True)

    @staticmethod
    def load(meta: bytes, ref: Optional[ShmSlotRef]) -> Any:
        """Unpickle ``meta`` with its bulk viewing ``ref``'s segment read-only.

        No byte is copied: the arrays of the result are windows on a
        ``PROT_READ`` mapping, so a write to one raises instead of
        diverging silently from what the other readers see. The mapping
        lives exactly as long as those arrays do. ``ref=None`` — nothing
        was staged — is a plain ``pickle.loads``.
        """
        if ref is None:
            return pickle.loads(meta)
        import _posixshmem  # what multiprocessing.shared_memory opens segments with
        import mmap

        fd = _posixshmem.shm_open("/" + ref.segment, os.O_RDONLY, mode=0o600)
        try:
            view = memoryview(mmap.mmap(fd, ref.segment_bytes, access=mmap.ACCESS_READ))
        finally:
            os.close(fd)
        return pickle.loads(meta, buffers=[view[off : off + n] for off, n in ref.buffers])


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
        self._shm = create_segment(
            "ring", self.total_bytes, f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
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
        oldest slot), polling the shared tail (:func:`_wait_until`: a
        freed slot is noticed within a millisecond); raises
        :class:`RingBackpressureError` once ``timeout`` is spent. On
        return the slot is the caller's to fill, and ``head`` has been
        advanced — the message **must** then be delivered.
        """
        if self.in_flight >= self.capacity and not _wait_until(
            lambda: self.in_flight < self.capacity, timeout
        ):
            raise RingBackpressureError(
                self.rank, self.dest, self.tag, timeout, self.capacity
            )
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
        _close_segment(self._shm, unlink)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlotRing({self.rank}->{self.dest} tag={self.tag}, "
            f"slots={self.capacity}x{self.slot_nbytes}B, head={self.head})"
        )


class ShmTransport:
    """Per-rank encode/decode endpoint over shared-memory slot rings.

    One instance lives in each rank process. :meth:`pack` serializes a
    payload once into the bytes its inbox record carries — the payload's
    own pickle when it is small, else a pickled :class:`ShmSlotRef` naming
    the slot its bulk bytes were staged into; :meth:`unpack` turns a record
    popped off the inbox back into the payload, through :meth:`decode`
    when it is a descriptor. That pair is the ``codec`` of a rank context.
    ``stats`` counts both paths so traces can report bytes-on-wire
    (descriptor pickles) versus bytes-copied (slot memcpys); the rank's
    :class:`ShmInbox` and the arena collectives count into the same dict.
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
            "shm_messages": 0,  # staged through a slot ring
            "inband_messages": 0,  # wholly in the inbox record
            "bytes_copied_in": 0,  # memcpys into slots and arena rows
            "bytes_copied_out": 0,  # memcpys out of slots and arena results
            "bytes_inplace": 0,  # peers' arena rows folded where they lie
            "bytes_on_wire": 0,  # in-band bytes of staged messages
            "ring_allocs": 0,
            "inbox_messages": 0,  # records written to inbox rings
            "inbox_spills": 0,  # in-band pickles staged through a slot ring
            "doorbell_waits": 0,  # receives that had to block
            "arena_tokens": 0,  # ready/done tokens of arena collectives
            # The pool's, per cell, on the same surface:
            "cell_pinned": 0,  # 1 when this rank ran the cell on a core of its own
            "stage_bytes_copied": 0,  # dispatch bulk staged once (counted on rank 0)
        }

    # -- sender side -----------------------------------------------------------
    def pack(self, dest: int, tag: int, payload: Any) -> bytes:
        """The bytes ``payload``'s inbox record carries.

        The payload is pickled once (:func:`split_pickle`: every
        contiguous buffer of at least ``min_bytes`` stays out of band).
        With nothing out of band and an in-band stream of at most
        :data:`INLINE_LIMIT`, that stream is the record. Otherwise the
        buffers — and a longer in-band stream too — are memcpy'd into the
        one slot of the ``(dest, tag)`` ring, and the record is the
        pickled :class:`ShmSlotRef` naming it. So "a sender may run
        ``slots`` messages ahead of its receiver" is the one buffering
        rule for everything too big for the control ring.
        """
        self.stats["inbox_messages"] += 1
        meta, buffers = split_pickle(payload, self.min_bytes)
        spill = len(meta) > INLINE_LIMIT
        if not buffers and not spill:
            self.stats["inband_messages"] += 1
            return meta
        bodies = [np.frombuffer(buf.raw(), dtype=np.uint8) for buf in buffers]
        if spill:
            bodies.append(np.frombuffer(meta, dtype=np.uint8))
            self.stats["inbox_spills"] += 1
            meta = b""
        total = sum(body.size for body in bodies)

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
        for body in bodies:
            ring.write(offset + cursor, body)
            descs.append((cursor, body.size))
            cursor += body.size
        for buf in buffers:
            buf.release()
        self.stats["shm_messages"] += 1
        self.stats["bytes_copied_in"] += total
        self.stats["bytes_on_wire"] += len(meta)
        ref = ShmSlotRef(
            segment=ring.name,
            segment_bytes=ring.total_bytes,
            slot_offset=offset,
            buffers=tuple(descs),
            meta=meta,
            nbytes=total,
        )
        return pickle.dumps(ref, protocol=5)

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
        cannot corrupt them. A spilled in-band stream is the slot's last
        body.
        """
        _, tail, data = self._attach(ref.segment)
        base = ref.slot_offset
        views = [data[base + off : base + off + nbytes] for off, nbytes in ref.buffers]
        meta = ref.meta or views.pop().tobytes()
        privates = [view.copy() for view in views]
        del views
        tail[0] += 1  # slot is free for the sender again
        self.stats["bytes_copied_out"] += ref.nbytes
        return pickle.loads(meta, buffers=privates)

    def unpack(self, record: bytes) -> Any:
        """The inverse of :meth:`pack`: the payload of an inbox record, a
        descriptor's through :meth:`decode` — nothing of it aliases ring
        memory."""
        payload = pickle.loads(record)
        return self.decode(payload) if isinstance(payload, ShmSlotRef) else payload

    def backpressure(self, rank: int, dest: int, tag: int) -> RingBackpressureError:
        """The error of cell rank ``rank``'s send that found its ring in
        ``dest``'s :class:`ShmInbox` full for this transport's timeout."""
        return RingBackpressureError(rank, dest, tag, self.timeout, INBOX_RING_BYTES)

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
            _close_segment(shm, unlink=False)


class ShmInbox:
    """One rank's message inbox: a byte ring per source in one shm segment.

    What ``queue.Queue`` is to a thread rank's context — ``put``,
    ``get(timeout)``, ``get_nowait`` — across processes, without the
    pickle-to-a-feeder-thread, the pipe, the reader lock and the two
    ``poll`` syscalls per message a ``multiprocessing.Queue`` would cost.
    The pool parent creates one per rank before forking; children inherit
    the mapping and the doorbell.

    Layout: a ``sleeping`` word (owner-written), ``nsrc`` head words (each
    written only by its source), ``nsrc`` tail words (owner-written), then
    ``nsrc`` rings of :data:`INBOX_RING_BYTES`. Heads and tails count bytes
    and only grow. A record is a 16-byte ``(tag, nbytes)`` header plus the
    body, padded to 16 bytes so a header never wraps (a body may). Every
    ring is single-producer/single-consumer — source ``s`` of the running
    cell is the only writer of ring ``s`` — so, as in :class:`SlotRing`,
    plain aligned int64 loads and stores are the whole protocol: the head
    is published after the record bytes and the tail after they are
    copied out, under the same x86-TSO store-ordering assumption. A writer
    that dies mid-``put`` never published its head, so it cannot wedge
    anyone.

    Receive is **spin-then-doorbell**: with ``spin`` (the pool worker
    sets it per cell, exactly when the cell's ranks were pinned to cores
    of their own) ``get`` polls
    the heads for :data:`_SPIN_SECONDS`; then it sets ``sleeping`` and
    blocks on the fork-inherited semaphore, which a sender posts only
    when it sees that word set. The sleeper re-scans after setting the
    word and wakes every :data:`_DOORBELL_SLICE` regardless.

    One thread per process may use an inbox (the rank's own).
    """

    _RECORD = struct.Struct("<qq")  # tag, body bytes
    _ALIGN = 16

    def __init__(self, shm: Any, bell: Any, nsrc: int, timeout: float, spin: bool) -> None:
        self._shm = shm
        self._bell = bell
        self.nsrc = nsrc
        self.timeout = timeout
        self.spin = spin
        words = np.frombuffer(shm.buf, dtype=np.int64, count=self._header_words(nsrc))
        self._sleeping = words[0:1]
        self._heads = words[8 : 8 + nsrc]
        self._tails = words[8 + self._lane(nsrc) : 8 + self._lane(nsrc) + nsrc]
        self._buf = shm.buf
        self._base = 8 * self._header_words(nsrc)
        self._consumed: List[int] = self._tails.tolist()  # owner's copy of the tails
        self._next = 0  # round-robin scan start, so no source starves
        self._blocked = False
        #: ``doorbell_waits`` lands here; the pool worker points it at its
        #: transport's counters.
        self.stats: Dict[str, int] = {"doorbell_waits": 0}

    @staticmethod
    def _lane(nsrc: int) -> int:
        """Words per head/tail group: whole cache lines, so senders'
        stores and the owner's never share one."""
        return -(-nsrc // 8) * 8

    @classmethod
    def _header_words(cls, nsrc: int) -> int:
        return 8 + 2 * cls._lane(nsrc)

    @classmethod
    def _record_bytes(cls, n: int) -> int:
        """Ring bytes an ``n``-byte body occupies, header and padding included."""
        return cls._ALIGN + -(-n // cls._ALIGN) * cls._ALIGN

    @classmethod
    def create(cls, nsrc: int, timeout: float = _DEFAULT_TIMEOUT, spin: bool = False) -> "ShmInbox":
        """Allocate an empty inbox for ``nsrc`` sources (call before forking)."""
        if nsrc <= 0:
            raise ValueError("nsrc must be positive")
        shm = create_segment(
            "inbox", 8 * cls._header_words(nsrc) + nsrc * INBOX_RING_BYTES
        )
        bell = multiprocessing.get_context("fork").Semaphore(0)
        return cls(shm, bell, nsrc, timeout, spin)

    @property
    def name(self) -> str:
        return self._shm.name

    def empty(self) -> bool:
        """Whether every ring is drained (readable from any process)."""
        return self._heads.tolist() == self._tails.tolist()

    # -- sender side -----------------------------------------------------------
    def put(self, item: Tuple[int, int, bytes]) -> None:
        """Append ``(source, tag, body)`` to the source's ring.

        Blocks while the ring lacks room; raises :class:`queue.Full` once
        the inbox's ``timeout`` is spent with the owner not consuming.
        """
        src, tag, body = item
        n = len(body)
        need = self._record_bytes(n)
        if need > INBOX_RING_BYTES:
            raise ValueError(f"a {n}-byte record cannot fit a {INBOX_RING_BYTES}-byte inbox ring")
        head = int(self._heads[src])
        limit = head + need - INBOX_RING_BYTES  # the tail must reach this
        if self._tails[src] < limit and not _wait_until(
            lambda: self._tails[src] >= limit, self.timeout
        ):
            raise queue.Full
        ring = self._base + src * INBOX_RING_BYTES
        pos = head % INBOX_RING_BYTES
        self._RECORD.pack_into(self._buf, ring + pos, tag, n)
        pos = (pos + self._ALIGN) % INBOX_RING_BYTES
        first = min(n, INBOX_RING_BYTES - pos)
        self._buf[ring + pos : ring + pos + first] = body[:first]
        if first < n:
            self._buf[ring : ring + n - first] = body[first:]
        self._heads[src] = head + need  # publish: after the record bytes
        if self._sleeping[0]:
            self._bell.release()

    # -- owner side ------------------------------------------------------------
    def _pop(self) -> Optional[Tuple[int, int, bytes]]:
        heads = self._heads.tolist()
        consumed = self._consumed
        if heads == consumed:
            return None
        nsrc = self.nsrc
        for k in range(nsrc):
            src = (self._next + k) % nsrc
            tail = consumed[src]
            if heads[src] != tail:
                break
        ring = self._base + src * INBOX_RING_BYTES
        pos = tail % INBOX_RING_BYTES
        tag, n = self._RECORD.unpack_from(self._buf, ring + pos)
        pos = (pos + self._ALIGN) % INBOX_RING_BYTES
        first = min(n, INBOX_RING_BYTES - pos)
        body = bytes(self._buf[ring + pos : ring + pos + first])
        if first < n:
            body += bytes(self._buf[ring : ring + n - first])
        tail += self._record_bytes(n)
        consumed[src] = tail
        self._tails[src] = tail  # release: after the body is copied out
        self._next = src + 1
        return src, tag, body

    def _doze(self, seconds: float) -> None:
        """Block on the doorbell for at most ``seconds``."""
        self._sleeping[0] = 1
        if self.empty():  # re-scan: a put may have raced the word
            self._blocked = True
            self._bell.acquire(timeout=seconds)
        self._sleeping[0] = 0

    def get(self, timeout: float) -> Tuple[int, int, bytes]:
        """The next ``(source, tag, body)``; :class:`queue.Empty` after ``timeout``."""
        self._blocked = False
        record = _wait_until(self._pop, timeout, self.spin, self._doze)
        if record is None:
            raise queue.Empty
        self.stats["doorbell_waits"] += self._blocked
        return record

    def get_nowait(self) -> Tuple[int, int, bytes]:
        record = self._pop()
        if record is None:
            raise queue.Empty
        return record

    # -- lifecycle -------------------------------------------------------------
    def close(self, unlink: bool = False) -> None:
        """Drop this process's views and mapping; ``unlink`` (the creating
        parent's job) destroys the segment system-wide."""
        self._sleeping = self._heads = self._tails = None  # type: ignore[assignment]
        self._buf = None
        _close_segment(self._shm, unlink)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShmInbox({self.name!r}, sources={self.nsrc}, spin={self.spin})"


class CollectiveArena:
    """All-ranks shared staging area for one in-place allreduce channel.

    One named segment holds P float32 **contribution rows** (``elems``
    elements, one row per rank, each row cache-line aligned) followed by
    one float32 **result row**. An allreduce then never moves the bulk
    bytes at all: every rank writes its contribution into its own row,
    the folds happen *in place in shared memory* — up the binomial tree
    into the root's row and finally the result row, or shard by shard
    straight into the result row on the ring — and every rank reads the
    finished result row directly. Only tiny ready/done tokens cross the
    message fabric; see
    :meth:`repro.comm.runtime.RankContextBase._arena_tree` and
    ``_arena_ring`` for the protocols and their reuse-safety arguments.

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
            return cls(create_segment("coll", total, name=name), size, elems)
        except FileExistsError:
            pass

        def attach() -> Optional["CollectiveArena"]:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, ValueError):
                return None
            if shm.buf.nbytes >= total:
                return cls(shm, size, elems)
            shm.close()  # creator's ftruncate not landed yet
            return None

        arena = _wait_until(attach, timeout)
        if arena is None:
            raise TimeoutError(
                f"collective arena {name!r} never reached {total} bytes"
            )
        return arena

    def close(self, unlink: bool = False) -> None:
        """Drop this process's views and mapping; ``unlink`` destroys the
        segment system-wide (the communicator unlinks by name from the
        parent, so ranks normally close only)."""
        self.rows = []
        self.result = None  # type: ignore[assignment]
        _close_segment(self._shm, unlink)

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
    head/tail protocol above already makes, so ``shared=True`` on any
    other host raises :class:`UnsupportedMemoryModelError`.
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
            require_tso("SeqlockBuffer.create(shared=True)")
            shm = create_segment("snap", total)
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
        if self._shm is not None:
            _close_segment(self._shm, unlink)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.name or "local"
        return f"SeqlockBuffer({where}, elems={self.elems}, version={self.version})"
