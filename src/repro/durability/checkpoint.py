"""Crash-safe, versioned checkpoints of full pipeline state.

One checkpoint *version* is one file, ``ckpt-<step>``:

- a magic line, ``repro-ckpt\n``;
- an 8-byte little-endian length, then a header of that length: the
  format version, step, the model's ``structure_fingerprint``, the
  non-array state (RNG stream positions, data-loader cursors, event
  queues, fault-plan progress, trajectory records, trace events) and
  each array's (name, dtype, shape), pickled with a fixed protocol so
  identical state produces identical bytes;
- every array's raw bytes, in header order (packed center and worker
  weights, optimizer/velocity vectors, ...);
- the SHA-256 of everything before it.

Writes are atomic: the version is streamed into a ``tmp-`` file, fsynced,
renamed into place in one step (over an existing version of the same
step, too), and the directory is fsynced. A process killed at *any*
instant therefore leaves either the previous versions untouched or a
complete new one — never a half-written version a resume could trust.

Loads walk versions newest-first: any version that fails validation
(truncated, bit-flipped, empty, a header that does not account for the
body — the expected debris of a SIGKILL mid-write or a bad disk) is
logged as a structured warning and skipped, falling back to the previous
valid version. The digest is checked before anything is unpickled.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import pickle
import queue
import re
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.durability.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    NoCheckpointError,
)
from repro.util.pids import pid_alive

__all__ = [
    "FORMAT_VERSION",
    "CheckpointData",
    "CheckpointManager",
    "list_versions",
    "read_version",
    "write_version",
    "load_latest_valid",
]

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 2

#: Pinned so identical state always pickles to identical bytes (the
#: bit-identical-resume tests compare checkpoint files across runs).
_PICKLE_PROTOCOL = 4

_MAGIC = b"repro-ckpt\n"
_LENGTH = struct.Struct("<Q")
_DIGEST_SIZE = 32  # SHA-256
_VERSION_RE = re.compile(r"^ckpt-(\d{8,})$")
_STAGED_RE = re.compile(r"^tmp-ckpt-\d{8,}-(\d+)$")

logger = logging.getLogger("repro.durability")


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def list_versions(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """All complete checkpoint versions under ``directory``, oldest first.

    Only files named ``ckpt-<step>`` (the step zero-padded to at least 8
    digits) count: ``tmp-`` debris from interrupted writes is invisible
    here by construction, and so is a format-1 version (a directory).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for entry in directory.iterdir():
        m = _VERSION_RE.match(entry.name)
        if m is not None and entry.is_file():
            found.append((int(m.group(1)), entry))
    found.sort(key=lambda sp: sp[0])
    return found


@dataclass
class CheckpointData:
    """One loaded (validated) checkpoint version."""

    step: int
    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any]
    path: Path
    fingerprint: str


def write_version(
    directory: Union[str, Path],
    step: int,
    arrays: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    *,
    fingerprint: str = "",
) -> Tuple[Path, int]:
    """Atomically write one checkpoint version; returns (path, bytes).

    The version is streamed into ``tmp-ckpt-<step>-<pid>``, fsynced, then
    renamed into place, replacing any version of the same step.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / f"ckpt-{step:08d}"
    tmp = directory / f"tmp-{final.name}-{os.getpid()}"

    arrays = {name: np.asarray(arr, order="C") for name, arr in arrays.items()}
    header = pickle.dumps({
        "format_version": FORMAT_VERSION,
        "step": int(step),
        "fingerprint": fingerprint,
        "meta": meta,
        "arrays": [(name, arr.dtype.str, arr.shape) for name, arr in arrays.items()],
    }, protocol=_PICKLE_PROTOCOL)
    # Flat uint8 views, not ``tobytes()``: the copy would hold the GIL for
    # the whole buffer, which the background writer thread must not do
    # while training steps run; hashing and writing a view release it.
    parts = [_MAGIC, _LENGTH.pack(len(header)), header,
             *(arr.reshape(-1).view(np.uint8) for arr in arrays.values())]
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())
            nbytes = fh.tell()
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(directory)
    return final, nbytes


def read_version(path: Union[str, Path]) -> CheckpointData:
    """Load and fully validate one version file.

    Raises :class:`CheckpointCorruptionError` on *any* validation
    failure: an unreadable file, no magic line, a digest that does not
    match the bytes before it (truncation, a bit flip), a wrong format
    version, or a header that will not parse or whose arrays do not
    account for every body byte.
    """
    path = Path(path)
    try:
        return _parse(path.read_bytes(), path)
    except Exception as exc:  # what a file on disk holds: any fault is corruption
        raise CheckpointCorruptionError(f"{path.name}: {exc}") from exc


def _parse(blob: bytes, path: Path) -> CheckpointData:
    """One version file's contents; raises on any fault in ``blob``."""
    start = len(_MAGIC) + _LENGTH.size
    end = len(blob) - _DIGEST_SIZE
    if end < start or not blob.startswith(_MAGIC):
        raise ValueError("not a checkpoint file")
    view = memoryview(blob)
    if hashlib.sha256(view[:end]).digest() != blob[end:]:
        raise ValueError("checksum mismatch")
    (length,) = _LENGTH.unpack_from(blob, len(_MAGIC))
    header = pickle.loads(view[start:start + length])
    if header["format_version"] != FORMAT_VERSION:
        raise ValueError(f"format version {header['format_version']!r} "
                         f"not supported (expected {FORMAT_VERSION})")
    offset, arrays = start + length, {}
    for name, dtype, shape in header["arrays"]:
        arr = np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
        arrays[name] = arr.copy()  # writable, aligned and C-contiguous
        offset += arr.nbytes
    if offset != end:
        raise ValueError(f"the header's arrays span {offset - start - length} "
                         f"bytes, the body holds {end - start - length}")
    return CheckpointData(step=int(header["step"]), arrays=arrays,
                          meta=header["meta"], path=path,
                          fingerprint=str(header["fingerprint"]))


def load_latest_valid(
    directory: Union[str, Path],
    *,
    fingerprint: Optional[str] = None,
) -> CheckpointData:
    """Newest version that passes validation, falling back over corrupt ones.

    Corrupt versions (the debris a kill mid-write leaves) are skipped
    with a structured warning; a *valid* version whose structure
    fingerprint disagrees with ``fingerprint`` raises
    :class:`CheckpointMismatchError` immediately — that is a caller
    error, and silently resuming an older architecture would be worse
    than failing.
    """
    versions = list_versions(directory)
    if not versions:
        raise NoCheckpointError(f"no checkpoint versions under {directory}")
    for step, path in reversed(versions):
        try:
            data = read_version(path)
        except CheckpointCorruptionError as exc:
            logger.warning(
                "checkpoint version %s failed validation; falling back to the "
                "previous version",
                path.name,
                extra={"checkpoint_path": str(path), "checkpoint_step": step,
                       "reason": str(exc)},
            )
            continue
        if fingerprint is not None and data.fingerprint != fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint {path.name} was written for structure "
                f"{data.fingerprint[:12]}..., this run is "
                f"{fingerprint[:12]}..."
            )
        return data
    raise NoCheckpointError(
        f"all {len(versions)} checkpoint versions under {directory} failed validation"
    )


@dataclass
class CheckpointManager:
    """Policy + bookkeeping around the version store for one run.

    ``every`` is the step cadence (0 disables periodic saves but the
    manager can still load for resume); ``keep`` bounds retention —
    after each save only the newest ``keep`` versions survive, and the
    staged files of writers that died are removed.
    ``stats`` accumulates observable write cost: count, bytes, wall
    seconds (surfaced as ``checkpoint_*`` extras on the RunResult).

    ``save_async`` hands the (already detached) payload to a single
    background writer thread, which runs :meth:`save`, so the fsync cost
    overlaps training instead of stalling it. Writes stay strictly
    ordered (one queue, one thread), the queue is bounded so memory
    cannot run away at aggressive cadences, and ``drain()`` joins the
    writer — callers drain before trusting ``stats`` or exiting.
    """

    directory: Union[str, Path]
    every: int = 0
    keep: int = 3
    fingerprint: str = ""
    stats: Dict[str, float] = field(
        default_factory=lambda: {"writes": 0.0, "bytes": 0.0, "seconds": 0.0}
    )
    _queue: Optional["queue.Queue"] = field(default=None, init=False, repr=False)
    _thread: Optional[threading.Thread] = field(default=None, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False)
    _error: Optional[BaseException] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("checkpoint cadence must be non-negative")
        if self.keep < 1:
            raise ValueError("must keep at least one checkpoint version")
        self.directory = Path(self.directory)

    def due(self, step: int) -> bool:
        return self.every > 0 and step % self.every == 0

    def save(self, step: int, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> int:
        """Write one version, prune old ones; returns bytes written.

        The writer thread's one job: callers queue with :meth:`save_async`.
        """
        t0 = time.perf_counter()
        _, nbytes = write_version(
            self.directory, step, arrays, meta, fingerprint=self.fingerprint
        )
        self._prune()
        with self._lock:
            self.stats["writes"] += 1.0
            self.stats["bytes"] += float(nbytes)
            self.stats["seconds"] += time.perf_counter() - t0
        return nbytes

    def save_async(self, step: int, arrays: Dict[str, np.ndarray],
                   meta: Dict[str, Any]) -> None:
        """Queue one version for the background writer.

        The caller must hand over *detached* payloads (arrays copied,
        meta freshly built): the writer serializes them concurrently
        with further training steps. A failed background write is
        re-raised here on the next call (and by :meth:`drain`).
        """
        self._raise_pending()
        if self._thread is None:
            # Depth 2: the step being written plus one queued behind it.
            # A full queue blocks the trainer (backpressure) rather than
            # buffering unbounded copies of the model state.
            self._queue = queue.Queue(maxsize=2)
            self._thread = threading.Thread(
                target=self._writer_loop, name="checkpoint-writer", daemon=True
            )
            self._thread.start()
        self._queue.put((step, arrays, meta))

    def drain(self, raise_errors: bool = True) -> None:
        """Flush queued writes and stop the writer thread.

        ``raise_errors=False`` still flushes but keeps any write failure
        pending instead of raising — for cleanup paths that must not
        mask an exception already propagating.
        """
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join()
            self._thread = None
            self._queue = None
        if raise_errors:
            self._raise_pending()

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                self.save(*item)
            except BaseException as exc:
                with self._lock:
                    self._error = exc

    def _raise_pending(self) -> None:
        with self._lock:
            exc, self._error = self._error, None
        if exc is not None:
            raise CheckpointError(
                f"background checkpoint write failed: {exc}"
            ) from exc

    def load_latest(self) -> CheckpointData:
        return load_latest_valid(self.directory, fingerprint=self.fingerprint or None)

    def _prune(self) -> None:
        versions = list_versions(self.directory)
        doomed = [path for _, path in versions[: max(0, len(versions) - self.keep)]]
        # A writer killed mid-stage leaves its pid-stamped tmp file; once
        # that pid is gone, nothing else would ever remove it.
        for entry in self.directory.iterdir():
            m = _STAGED_RE.match(entry.name)
            if m is not None and entry.is_file() and not pid_alive(int(m.group(1))):
                doomed.append(entry)
        for path in doomed:
            path.unlink(missing_ok=True)


def require_configured(manager: Optional["CheckpointManager"]) -> "CheckpointManager":
    """The resume path's guard: checkpointing must be configured."""
    if manager is None:
        raise CheckpointError(
            "resume requested but checkpointing is not configured "
            "(set checkpoint_dir / --checkpoint-dir)"
        )
    return manager
