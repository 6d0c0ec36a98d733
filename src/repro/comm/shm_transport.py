"""Shared-memory fabric between rank processes: inbox records and arenas.

A ``multiprocessing.Queue`` fabric (pickle -> feeder thread -> pipe ->
reader lock -> ``poll``) would charge every message twice: Θ(|W|)
serialization for each packed weight/gradient buffer — exactly the
parameter-movement tax the paper's codesign removes (Section 5.2's packed
single-buffer messages) — and a cross-core *blocking* wake of 50-100 us
for every hop, however small. This module is the substrate that pays
neither, and the only way bytes move between rank processes. It has two
lanes and no third: bulk bytes never travel as messages — an allreduce,
a pairwise exchange and a shared row all live in a
:class:`CollectiveArena` every rank of the cell maps, and are folded or
read where they lie — and a message is exactly one record in the
receiver's **inbox ring**, which it spins on before it blocks. No
syscall and no copy of bulk bytes on the hot path.

Design
------
- **Messages.** One :class:`ShmInbox` per rank, created by the pool
  parent before it forks: a byte ring of length-prefixed records per
  (source, owner) pair, head written only by that source, tail only by
  the owner. A record body is the payload pickled once
  (:class:`ShmTransport`); one longer than :data:`INLINE_LIMIT` is
  refused with :class:`RecordTooLargeError`, naming the rank, dest, tag
  and size. Receive is *spin-then-doorbell*: poll the heads for
  :data:`_SPIN_SECONDS`, then set a ``sleeping`` word and block on a
  fork-inherited semaphore that senders post only when they see the word
  set. Spinning is on for exactly the cells whose ranks the pool pinned
  to cores of their own (decided per cell, at dispatch); it is not an
  option.
- **Bulk.** :class:`CollectiveArena` rows, one per rank plus a result
  row; only ready/done tokens (inbox records) cross the message fabric.
  The protocols and their reuse-safety arguments are the rank context's
  (:mod:`repro.comm.runtime`).
- **Backpressure**: a send into an inbox ring without room blocks until
  the receiver consumes; past the timeout it raises
  :class:`RingBackpressureError` — a :class:`DeadlockError`, so the
  failure surface matches a wedged ``recv`` on the other side. Every
  such wait in this module is :func:`_wait_until`.
- **Dispatch.** A pool dispatch is pickled once (:func:`split_pickle`):
  its structure travels in a small in-band pickle, and every contiguous
  buffer of at least :data:`DEFAULT_MIN_BYTES` goes once into a per-cell
  :class:`PickleStage`, which the cell's ranks map read-only.
- **Memory model.** The inboxes and :class:`SeqlockBuffer` publish with
  plain aligned stores and no barriers (CPython has none), which is
  correct only where stores become visible in program order: x86-TSO.
  :func:`require_tso` refuses any other host before a fork or a segment,
  with :class:`UnsupportedMemoryModelError`.

Lifecycle: the *parent* unlinks arenas by name after the run (ranks
report their names), so a rank that finishes early never pulls a
segment from under a peer. Inboxes are the pool parent's own: created
before the fork, unlinked in its ``close``, reaped by the next run like
any ``repro-<pid>-`` segment if it is killed.
"""

from __future__ import annotations

from dataclasses import dataclass
import errno
import multiprocessing
import os
import pickle
import platform
import queue
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comm.runtime import _DEFAULT_TIMEOUT, DeadlockError
from repro.comm.shm_lifecycle import (
    create_segment,
    shm_free_bytes,
    ShmCapacityError,
    unregister_segment,
)

__all__ = [
    "TSO_MACHINES",
    "UnsupportedMemoryModelError",
    "require_tso",
    "RingBackpressureError",
    "RecordTooLargeError",
    "CollectiveTooLargeError",
    "split_pickle",
    "PickleStage",
    "ShmSlotRef",
    "ShmTransport",
    "ShmInbox",
    "CollectiveArena",
    "SeqlockBuffer",
    "TornReadError",
    "DEFAULT_MIN_BYTES",
    "INLINE_LIMIT",
]

#: ``platform.machine()`` values (lower-cased) of the x86 family, whose
#: TSO store ordering every lock-free protocol in this module relies on.
TSO_MACHINES = frozenset({"x86_64", "amd64", "i386", "i486", "i586", "i686", "x86"})

#: A dispatch's buffers below this pickle in band instead of being staged
#: in its :class:`PickleStage`: below ~16 KiB the shared-segment machinery
#: costs more than the copy it saves.
DEFAULT_MIN_BYTES = 1 << 14

#: How long a receive busy-polls the shared heads before it blocks on the
#: doorbell, when the rank owns its core (a cross-core blocking wake costs
#: 50-100 us on this class of host, a spin hit ~15 us). Swept on the 2-core
#: reference host: 0 us reads 0.127 ms/step on the 64 KiB tree allreduce,
#: 50 us to 1 ms all read 0.061 (docs/performance.md, "Message transport").
_SPIN_SECONDS = 200e-6

#: Longest nap of a polled wait (full inbox ring, arena attach): freed room
#: is noticed within a millisecond however long the wait has lasted.
_SLEEP_CAP = 1e-3

#: Longest doorbell wait before a blocked receiver re-scans unprompted. A
#: sender's store(head) -> load(sleeping) may reorder against the owner's
#: store(sleeping) -> load(head) (x86 permits store->load), so a wake-up
#: can be missed; it then costs one slice, never a hang.
_DOORBELL_SLICE = 4e-3

#: The longest record a rank may send: scalars, tokens and control
#: tuples fit; bulk bytes belong in an arena.
INLINE_LIMIT = 1 << 11

#: Bytes of inbox ring per (source, owner) pair.
INBOX_RING_BYTES = 1 << 16


class UnsupportedMemoryModelError(RuntimeError):
    """This host's CPU is not known to keep stores in program order.

    :class:`ShmInbox` and :class:`SeqlockBuffer` publish
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
            "Use backend='threads' (its ranks share one process and need no "
            "rings), and run sweeps without pool_size (inline, in this process)."
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
    """A send blocked on a full :class:`ShmInbox` ring until the timeout.

    The sender-side mirror of a receive deadlock: the ``rank → dest`` ring
    stayed full for the whole budget, meaning the receiver stopped
    consuming (died, wedged, or the schedule never receives these
    messages). ``source`` carries the *destination* rank — the peer whose
    consumption was awaited — and ``capacity`` the ring's bytes.
    """

    def __init__(self, rank: int, dest: int, tag: int, timeout: float, capacity: int) -> None:
        super().__init__(rank, dest, tag, timeout)
        self.capacity = capacity
        self.args = (
            f"rank {rank}: send(dest={dest}, tag={tag}) blocked for {timeout}s "
            f"with its {capacity}-byte inbox ring full — receiver not consuming",
        )

    def __reduce__(self):
        return (
            RingBackpressureError,
            (self.rank, self.source, self.tag, self.timeout, self.capacity),
        )


@dataclass(frozen=True)
class ShmSlotRef:
    """The descriptor of a :class:`PickleStage`: what a pool dispatch
    ships in place of its bulk.

    ``buffers`` lists ``(offset, nbytes)`` for each out-of-band buffer,
    in pickle-5 buffer order. Everything here is cheap to pickle — the
    whole point.
    """

    segment: str  # shared-memory name, attachable from any process
    segment_bytes: int  # total segment size (attach needs it for the view)
    buffers: Tuple[Tuple[int, int], ...]
    nbytes: int  # total out-of-band bytes (written once, by the creator)


def _pwrite_all(fd: int, body: memoryview, offset: int) -> None:
    """Write all of ``body`` at ``offset`` of ``fd``, looping on short writes."""
    done = 0
    while done < body.nbytes:
        done += os.pwrite(fd, body[done:], offset + done)


def split_pickle(
    obj: Any, min_bytes: int = DEFAULT_MIN_BYTES
) -> Tuple[bytes, List[pickle.PickleBuffer]]:
    """Pickle ``obj`` once (protocol 5): ``(in-band stream, bulk buffers)``.

    Every contiguous buffer of at least ``min_bytes`` stays out of band,
    in pickle-5 buffer order, for the caller to place in shared memory;
    smaller ones, and non-contiguous arrays, pickle in band (below
    :data:`DEFAULT_MIN_BYTES` the shm machinery costs more than the copy).
    A pool's dispatch splits this way (:class:`PickleStage`).
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

    One writer, many readers: the creator writes the out-of-band buffers
    in once, cache-line aligned, through the segment's file descriptor
    (``os.pwrite``), so it never maps a page of the stage — the kernel
    allocates the tmpfs pages inside the write, and a ``/dev/shm`` that
    fills up mid-write is a :class:`ShmCapacityError` (``ENOSPC``) with
    the half-written segment unlinked, where a copy through a mapping
    would die of ``SIGBUS``. Every reader views the buffers in place
    (:meth:`load`). ``ref`` is the descriptor readers need — the in-band
    stream travels apart from it. :meth:`unlink` is the creator's;
    readers' mappings outlive it.
    """

    def __init__(self, suffix: str, buffers: List[pickle.PickleBuffer]) -> None:
        descs: List[Tuple[int, int]] = []
        total = 0
        for buf in buffers:
            with buf.raw() as body:
                nbytes = body.nbytes
            descs.append((total, nbytes))
            total += -(-nbytes // 64) * 64
        self._shm = create_segment("stage", total, suffix)
        try:
            for (offset, _), buf in zip(descs, buffers):
                with buf.raw() as body:  # the descriptor stays open until close
                    _pwrite_all(self._shm._fd, body, offset)
        except OSError as exc:
            free = shm_free_bytes()
            _close_segment(self._shm, unlink=True)
            if exc.errno == errno.ENOSPC:
                raise ShmCapacityError("stage", total, free or 0) from None
            raise
        finally:
            for buf in buffers:
                buf.release()
        _close_segment(self._shm, unlink=False)
        self.ref = ShmSlotRef(
            segment=self._shm.name, segment_bytes=total,
            buffers=tuple(descs), nbytes=sum(n for _, n in descs),
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


class RecordTooLargeError(ValueError):
    """A rank sent a payload whose record exceeds :data:`INLINE_LIMIT`.

    A process-fabric message is one inbox record and nothing else: bulk
    bytes live in the cell's arena (``allreduce``, ``exchange``,
    ``shared_row``), never on the message path. Names the sending cell
    ``rank``, the ``dest``, the ``tag`` and the record's ``nbytes``. A
    ``ValueError``, not a deadlock, so the rank's peers are aborted at once.
    """

    def __init__(self, rank: int, dest: int, tag: int, nbytes: int) -> None:
        self.rank = rank
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        super().__init__(
            f"rank {rank}: send(dest={dest}, tag={tag}) of a {nbytes}-byte record "
            f"exceeds the {INLINE_LIMIT}-byte inbox record; bulk bytes go through "
            "the cell's arena (allreduce, exchange, shared_row)"
        )

    def __reduce__(self):
        return (RecordTooLargeError, (self.rank, self.dest, self.tag, self.nbytes))


class CollectiveTooLargeError(ValueError):
    """A collective over a non-float32 buffer whose bytes alone exceed
    :data:`INLINE_LIMIT`, refused on every rank before the first send.

    Only a float32 buffer folds in the cell's arena; any other dtype
    reduces on the message tree, one inbox record per edge, which such a
    buffer can never fit. Names the ``op``, the ``dtype`` and ``nbytes``.
    """

    def __init__(self, op: str, dtype: str, nbytes: int) -> None:
        self.op = op
        self.dtype = dtype
        self.nbytes = nbytes
        super().__init__(
            f"{op} of a {nbytes}-byte {dtype} buffer exceeds the {INLINE_LIMIT}-byte "
            "inbox record: only float32 folds in the cell's arena, so cast the buffer "
            "to float32 or run it on backend='threads'"
        )

    def __reduce__(self):
        return (CollectiveTooLargeError, (self.op, self.dtype, self.nbytes))


class ShmTransport:
    """Per-rank codec of the process fabric: a message is one inbox record.

    One instance lives in each rank process. :meth:`pack` pickles a
    payload once into the bytes its record carries and refuses one longer
    than :data:`INLINE_LIMIT`; :meth:`unpack` is ``pickle.loads``. That
    pair is the ``codec`` of a rank context. ``stats`` is the rank's one
    counter surface: the :class:`ShmInbox`, the arena collectives and the
    pool count into it too.
    """

    def __init__(self, timeout: float = _DEFAULT_TIMEOUT) -> None:
        self.timeout = timeout
        self.stats: Dict[str, int] = {
            "bytes_copied_in": 0,  # memcpys into arena rows
            "bytes_copied_out": 0,  # memcpys out of arena rows and results
            "bytes_inplace": 0,  # peers' arena rows folded where they lie
            "bytes_on_wire": 0,  # bulk bytes on the message path: always 0
            "inbox_messages": 0,  # records written to inbox rings
            "doorbell_waits": 0,  # receives that had to block
            "arena_tokens": 0,  # ready/done tokens of arena collectives
            # The pool's, per cell, on the same surface:
            "cell_pinned": 0,  # 1 when this rank ran the cell on a core of its own
            "stage_bytes_copied": 0,  # dispatch bulk staged once (counted on rank 0)
        }

    def pack(self, rank: int, dest: int, tag: int, payload: Any) -> bytes:
        """The record cell rank ``rank`` sends ``dest`` on ``tag``: the
        payload pickled once, or :class:`RecordTooLargeError` if that is
        longer than :data:`INLINE_LIMIT`."""
        record = pickle.dumps(payload, protocol=5)
        if len(record) > INLINE_LIMIT:
            raise RecordTooLargeError(rank, dest, tag, len(record))
        self.stats["inbox_messages"] += 1
        return record

    unpack = staticmethod(pickle.loads)

    @staticmethod
    def check_inline(op: str, array: np.ndarray) -> None:
        """Refuse ``op`` on the message tree, before any send, when the
        buffer alone cannot fit one record (:class:`CollectiveTooLargeError`)."""
        if array.nbytes > INLINE_LIMIT:
            raise CollectiveTooLargeError(op, str(array.dtype), int(array.nbytes))

    def backpressure(self, rank: int, dest: int, tag: int) -> RingBackpressureError:
        """The error of cell rank ``rank``'s send that found its ring in
        ``dest``'s :class:`ShmInbox` full for this transport's timeout."""
        return RingBackpressureError(rank, dest, tag, self.timeout, INBOX_RING_BYTES)


class ShmInbox:
    """One rank's message inbox: a byte ring per source in one shm segment.

    What ``queue.SimpleQueue`` is to a thread rank's context — ``put``,
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
    cell is the only writer of ring ``s`` — so plain aligned int64 loads
    and stores are the whole protocol: the head
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
    def put(self, item: Tuple[int, int, bytes], timeout: Optional[float] = None) -> None:
        """Append ``(source, tag, body)`` to the source's ring.

        Blocks while the ring lacks room; raises :class:`queue.Full` once
        ``timeout`` (default: the inbox's) is spent with the owner not
        consuming.
        """
        src, tag, body = item
        n = len(body)
        need = self._record_bytes(n)
        if need > INBOX_RING_BYTES:
            raise ValueError(f"a {n}-byte record cannot fit a {INBOX_RING_BYTES}-byte inbox ring")
        head = int(self._heads[src])
        limit = head + need - INBOX_RING_BYTES  # the tail must reach this
        if self._tails[src] < limit and not _wait_until(
            lambda: self._tails[src] >= limit, self.timeout if timeout is None else timeout
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

    def put_nowait(self, item: Tuple[int, int, bytes]) -> None:
        """:meth:`put` that raises :class:`queue.Full` at once if the ring
        lacks room."""
        self.put(item, 0.0)

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
    pool parent unlinks it by name when the pool closes.
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
    leans on the same x86-TSO store-ordering assumption the inbox's
    head/tail protocol above already makes, so ``shared=True`` on any
    other host raises :class:`UnsupportedMemoryModelError`.
    """

    _HEADER_WORDS = 8  # seq, active, step, elems, train_step, 3 reserved: one cache line
    _HEADER_BYTES = 8 * _HEADER_WORDS
    _W_SEQ, _W_ACTIVE, _W_STEP, _W_ELEMS, _W_TRAIN = 0, 1, 2, 3, 4

    def __init__(self, shm: Optional[Any], buf: Any, elems: int, owner: bool) -> None:
        self._shm = shm  # None for local (in-process) storage
        self.elems = int(elems)
        self.owner = owner
        self.slot_nbytes = -(-self.elems * 4 // 64) * 64
        self._header = np.frombuffer(buf, dtype=np.int64, count=self._HEADER_WORDS)
        self._slots = [
            np.frombuffer(buf, dtype=np.float32, count=self.elems,
                          offset=self._HEADER_BYTES + s * self.slot_nbytes)
            for s in (0, 1)
        ]
        if owner:
            self._header[:] = 0
            self._header[self._W_ELEMS] = self.elems

    @classmethod
    def _total_bytes(cls, elems: int) -> int:
        return cls._HEADER_BYTES + 2 * (-(-elems * 4 // 64) * 64)

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
