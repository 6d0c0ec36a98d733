"""Shared-memory segment lifecycle: naming, tracking, and debris removal.

POSIX shared memory outlives the processes that created it: a SIGKILLed
run (exactly what ``tests/test_durability_kill.py`` inflicts) leaves its
inboxes, collective arenas, and weight segments as ``/dev/shm`` files
nobody will ever unlink.  Before this module, cleanup relied entirely on
the parent communicator's happy-path ``finally`` block — robust against
exceptions, helpless against signals.

Three mechanisms close the gap, in escalating order of desperation:

1. **Deterministic naming** — every segment the reproduction creates is
   named ``repro-<pid>-<kind>-<suffix>`` via :func:`segment_name`, where
   ``<pid>`` is the *creating* process.  A segment's owner liveness is
   then decidable from its name alone.
2. **Process-local registry + atexit sweep** — creators call
   :func:`register_segment`; clean unlink paths call
   :func:`unregister_segment`.  Whatever is still registered when the
   interpreter exits normally (including ``sys.exit`` from a signal
   handler or an unhandled exception that skipped a ``finally``) is
   unlinked by the atexit hook.  This is the "parent-scoped cleanup"
   fallback: it costs one ``atexit.register`` and fires only for names
   the orderly paths missed.
3. **Stale-segment reaping** — :func:`reap_stale_segments` scans
   ``/dev/shm`` for ``repro-*`` names whose embedded pid is dead and
   unlinks them.  SIGKILL defeats mechanisms 1-2 *in the killed
   process*; the next run (e.g. the ``--resume`` invocation the kill
   test performs) reaps the debris on startup.  Segments whose owner is
   alive are never touched, so concurrent runs stay safe.

Creation goes through one door as well: :func:`create_segment` names,
sizes, creates and registers a segment, and refuses — with a typed
:class:`ShmCapacityError` instead of a later ``SIGBUS`` on first touch —
one that ``/dev/shm`` has no room for.

The registry is intentionally process-local state (no locks beyond a
``threading.Lock``): forked children inherit a *copy* and each process
sweeps only what it registered itself after the fork — double unlinks
are harmless (``FileNotFoundError`` is swallowed) but avoided anyway
because children unregister nothing they didn't create.
"""

from __future__ import annotations

import atexit
import errno
import os
import re
import threading
from typing import Any, List, Optional, Set
import uuid

from repro.util.pids import pid_alive

__all__ = [
    "SEGMENT_PREFIX",
    "ShmCapacityError",
    "segment_name",
    "shm_free_bytes",
    "create_segment",
    "adopt_owner_pid",
    "register_segment",
    "unregister_segment",
    "registered_segments",
    "unlink_segment",
    "cleanup_registered",
    "stale_segments",
    "reap_stale_segments",
    "list_live_segments",
]

#: Leading token of every segment name this codebase creates.
SEGMENT_PREFIX = "repro"

#: ``repro-<pid>-...`` — the pid group is what the reaper keys on.
_NAME_RE = re.compile(rf"^{SEGMENT_PREFIX}-(\d+)-")

#: Where POSIX shm segments appear as files (Linux; macOS has no stable
#: listing, so the reaper silently no-ops there).
_SHM_DIR = "/dev/shm"

_registry_lock = threading.Lock()
_registered: Set[str] = set()
_registered_pid: Optional[int] = None  # which process the registry belongs to
_atexit_installed = False
#: Pid stamped into new segment names instead of the caller's own (set by
#: a communicator before forking ranks; inherited by fork).
_owner_pid: Optional[int] = None


def adopt_owner_pid(pid: Optional[int] = None) -> int:
    """Stamp subsequent segment names with ``pid`` (default: this process).

    A multiprocess run is *parent-scoped*: rank children create arena
    segments but the parent unlinks them after the run, so a rank
    may exit while its segments are still legitimately mapped elsewhere.
    Stamping the top-level pid keeps the reaper honest — it fires only
    when the whole run is dead, never on a finished rank of a live run.
    First adoption wins (nested communicators keep the topmost pid); the
    global is inherited by fork, so calling this pre-fork covers every
    descendant.
    """
    global _owner_pid
    if _owner_pid is None or not pid_alive(_owner_pid):
        _owner_pid = os.getpid() if pid is None else int(pid)
    return _owner_pid


def segment_name(kind: str, suffix: Optional[str] = None) -> str:
    """A fresh lifecycle-tracked segment name: ``repro-<pid>-<kind>-<sfx>``.

    ``kind`` is a short label ("inbox", "coll", "snap", "stage")
    that makes ``ls /dev/shm`` debuggable; ``suffix`` defaults to 8 random hex chars.
    The pid is the adopted owner (see :func:`adopt_owner_pid`) when one is
    set and alive, else the calling process.
    """
    if suffix is None:
        suffix = uuid.uuid4().hex[:8]
    pid = _owner_pid if (_owner_pid is not None and pid_alive(_owner_pid)) else os.getpid()
    return f"{SEGMENT_PREFIX}-{pid}-{kind}-{suffix}"


class ShmCapacityError(OSError):
    """``/dev/shm`` has no room for a segment about to be created.

    tmpfs hands out pages on first touch, so an oversized segment is
    created happily and kills its writer with ``SIGBUS`` later; this is
    the same fact as an exception, raised before anything is created —
    or, for a stage written through its descriptor, when the write meets
    ``ENOSPC`` (the half-written segment is unlinked first).
    """

    def __init__(self, kind: str, needed: int, free: int) -> None:
        super().__init__(
            errno.ENOSPC,
            f"no room in {_SHM_DIR} for a {kind!r} segment: "
            f"{needed} bytes needed, {free} free",
        )
        self.kind = kind
        self.needed = needed
        self.free = free

    def __reduce__(self):
        return (ShmCapacityError, (self.kind, self.needed, self.free))


def shm_free_bytes() -> Optional[int]:
    """Bytes an unprivileged writer may still place in ``/dev/shm``, or
    ``None`` where it cannot be inspected (non-Linux)."""
    try:
        vfs = os.statvfs(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux shm layout
        return None
    return vfs.f_bavail * vfs.f_frsize


def create_segment(
    kind: str, size: int, suffix: Optional[str] = None, name: Optional[str] = None
) -> Any:
    """Create and register a ``size``-byte segment; returns its ``SharedMemory``.

    The one creation path of every segment this codebase owns: the name is
    :func:`segment_name`'s (``name`` overrides it where all ranks must
    agree on one, as for a collective arena — a lost creation race is the
    caller's ``FileExistsError``), the free-space check raises
    :class:`ShmCapacityError`, and the segment is registered for the
    atexit sweep. Where ``/dev/shm`` cannot be inspected (non-Linux) the
    check is skipped.
    """
    from multiprocessing import shared_memory

    free = shm_free_bytes()
    if free is not None and size > free:
        raise ShmCapacityError(kind, size, free)
    shm = shared_memory.SharedMemory(
        create=True, size=size, name=name or segment_name(kind, suffix)
    )
    register_segment(shm.name)
    return shm


def _reset_registry_for_pid(pid: int) -> None:
    """Forked children inherit the parent's set; start theirs empty so a
    child's sweep never races the parent's over the same names."""
    global _registered_pid, _atexit_installed
    _registered.clear()
    _registered_pid = pid
    _atexit_installed = False


def register_segment(name: str) -> str:
    """Track ``name`` for end-of-process cleanup; returns it unchanged."""
    global _atexit_installed
    pid = os.getpid()
    with _registry_lock:
        if _registered_pid != pid:
            _reset_registry_for_pid(pid)
        _registered.add(name)
        if not _atexit_installed:
            atexit.register(cleanup_registered)
            _atexit_installed = True
    return name


def unregister_segment(name: str) -> None:
    """Drop ``name`` from the cleanup set (it was unlinked in an orderly way)."""
    with _registry_lock:
        if _registered_pid == os.getpid():
            _registered.discard(name)


def registered_segments() -> List[str]:
    """Names currently awaiting orderly unlink in this process (testing aid)."""
    with _registry_lock:
        if _registered_pid != os.getpid():
            return []
        return sorted(_registered)


def unlink_segment(name: str) -> bool:
    """Unlink ``name`` system-wide if it still exists; True if it did."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, ValueError):
        return False
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race, same outcome
        pass
    seg.close()
    return True


def cleanup_registered() -> List[str]:
    """Unlink every still-registered segment (the atexit fallback path)."""
    with _registry_lock:
        if _registered_pid != os.getpid():
            return []
        names = sorted(_registered)
        _registered.clear()
    return [name for name in names if unlink_segment(name)]


def list_live_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """All ``repro-*`` segment names currently present (testing aid)."""
    try:
        entries = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-Linux shm layout
        return []
    return sorted(e for e in entries if _NAME_RE.match(e))


def stale_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """``repro-*`` segments whose creating process is dead (no unlinking).

    The observation half of :func:`reap_stale_segments` — tests assert
    this is empty after a kill-and-resume cycle.
    """
    out: List[str] = []
    for name in list_live_segments(shm_dir):
        match = _NAME_RE.match(name)
        if match is not None and not pid_alive(int(match.group(1))):
            out.append(name)
    return out


def reap_stale_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """Unlink ``repro-*`` segments whose creating process is dead.

    The post-mortem for SIGKILLed runs: their atexit hooks never fired,
    but their pids are encoded in the segment names, so any later run can
    tell debris from live traffic.  Returns the names it reaped.  Safe to
    call concurrently (unlink races collapse to FileNotFoundError).
    """
    return [name for name in stale_segments(shm_dir) if unlink_segment(name)]
