"""Crash-safe, versioned checkpoints of full pipeline state.

One checkpoint *version* is a directory ``ckpt-<step>`` holding three
files:

- ``arrays.npz`` — every numpy array of the run state (packed center and
  worker weights, optimizer/velocity vectors, ...), uncompressed;
- ``state.pkl``  — everything else (RNG stream positions, data-loader
  cursors, event queues, fault-plan progress, trajectory records, trace
  events), pickled with a fixed protocol so identical state produces
  identical bytes;
- ``manifest.json`` — the format version, the model's
  ``structure_fingerprint``, and a BLAKE2 checksum per array plus one
  for the pickled state.

Writes are atomic: the version is assembled in a ``tmp-`` directory,
every file (and the directory) is fsynced, and the directory is renamed
into place in one step. A process killed at *any* instant therefore
leaves either the previous versions untouched or a complete new one —
never a half-written version a resume could trust.

Loads walk versions newest-first: any version that fails validation
(truncated archive, checksum mismatch, unreadable manifest — the
expected debris of a SIGKILL mid-write) is logged as a structured
warning and skipped, falling back to the previous valid version.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import queue
import re
import shutil
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

__all__ = [
    "FORMAT_VERSION",
    "CheckpointData",
    "CheckpointManager",
    "array_digest",
    "list_versions",
    "read_version",
    "write_version",
    "load_latest_valid",
]

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

#: Pinned so identical state always pickles to identical bytes (the
#: bit-identical-resume tests compare checkpoint payloads across runs).
_PICKLE_PROTOCOL = 4

_ARRAYS_FILE = "arrays.npz"
_STATE_FILE = "state.pkl"
_MANIFEST_FILE = "manifest.json"
_VERSION_RE = re.compile(r"^ckpt-(\d{8})$")

logger = logging.getLogger("repro.durability")


def array_digest(arr: np.ndarray) -> str:
    """A stable BLAKE2 digest of an array's dtype, shape, and contents."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype.str).encode("ascii"))
    h.update(str(tuple(arr.shape)).encode("ascii"))
    # Hash through a flat view, not ``tobytes()``: the copy would hold the
    # GIL for the whole buffer, which the background writer thread must
    # not do while training steps run.
    h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def _bytes_digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _version_name(step: int) -> str:
    return f"ckpt-{step:08d}"


def list_versions(directory: Union[str, Path]) -> List[Tuple[int, Path]]:
    """All complete checkpoint versions under ``directory``, oldest first.

    Only directories matching ``ckpt-<8 digits>`` count; ``tmp-`` debris
    from interrupted writes is invisible here by construction.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: List[Tuple[int, Path]] = []
    for entry in directory.iterdir():
        m = _VERSION_RE.match(entry.name)
        if m is not None and entry.is_dir():
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

    The version is staged in ``tmp-ckpt-<step>-<pid>``, fully fsynced,
    then renamed into place. An existing version for the same step is
    replaced atomically (rename-away then rename-in).
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / _version_name(step)
    tmp = directory / f"tmp-{_version_name(step)}-{os.getpid()}"
    if tmp.exists():  # debris from a previous kill in this very slot
        shutil.rmtree(tmp)
    tmp.mkdir()

    try:
        manifest: Dict[str, Any] = {
            "format_version": FORMAT_VERSION,
            "step": int(step),
            "structure_fingerprint": fingerprint,
            "arrays": {},
        }
        # Arrays: one uncompressed npz, digest per entry.
        with open(tmp / _ARRAYS_FILE, "wb") as fh:
            np.savez(fh, **arrays)
        for name, arr in arrays.items():
            manifest["arrays"][name] = {
                "digest": array_digest(np.asarray(arr)),
                "dtype": np.asarray(arr).dtype.str,
                "shape": list(np.asarray(arr).shape),
            }
        # Non-array state: deterministic pickle + digest.
        state_blob = pickle.dumps(meta, protocol=_PICKLE_PROTOCOL)
        (tmp / _STATE_FILE).write_bytes(state_blob)
        manifest["state_digest"] = _bytes_digest(state_blob)

        manifest_blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
        (tmp / _MANIFEST_FILE).write_text(manifest_blob)

        for name in (_ARRAYS_FILE, _STATE_FILE, _MANIFEST_FILE):
            _fsync_file(tmp / name)
        _fsync_dir(tmp)

        if final.exists():
            # Same-step rewrite (e.g. a rerun into the same directory):
            # move the old version aside so the rename below stays atomic.
            graveyard = directory / f"tmp-old-{_version_name(step)}-{os.getpid()}"
            if graveyard.exists():
                shutil.rmtree(graveyard)
            os.replace(final, graveyard)
            shutil.rmtree(graveyard, ignore_errors=True)
        os.replace(tmp, final)
        _fsync_dir(directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    nbytes = sum((final / name).stat().st_size
                 for name in (_ARRAYS_FILE, _STATE_FILE, _MANIFEST_FILE))
    return final, nbytes


def read_version(path: Union[str, Path]) -> CheckpointData:
    """Load and fully validate one version directory.

    Raises :class:`CheckpointCorruptionError` on *any* validation
    failure: missing files, unreadable manifest, wrong format version,
    archive truncation, or a checksum that does not match its payload.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / _MANIFEST_FILE).read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"{path.name}: manifest unreadable ({exc})"
        ) from exc
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        raise CheckpointCorruptionError(f"{path.name}: manifest missing format_version")
    if manifest["format_version"] != FORMAT_VERSION:
        raise CheckpointCorruptionError(
            f"{path.name}: format version {manifest['format_version']!r} "
            f"not supported (expected {FORMAT_VERSION})"
        )

    try:
        state_blob = (path / _STATE_FILE).read_bytes()
    except OSError as exc:
        raise CheckpointCorruptionError(f"{path.name}: state file unreadable") from exc
    if _bytes_digest(state_blob) != manifest.get("state_digest"):
        raise CheckpointCorruptionError(f"{path.name}: state checksum mismatch")
    try:
        meta = pickle.loads(state_blob)
    except Exception as exc:  # truncated/garbled pickle
        raise CheckpointCorruptionError(f"{path.name}: state unpicklable ({exc})") from exc

    arrays: Dict[str, np.ndarray] = {}
    try:
        # np.load leaks a handle it opened itself when the zip directory
        # is unreadable; one opened here is closed whatever it raises.
        with open(path / _ARRAYS_FILE, "rb") as fh, np.load(fh) as data:
            names = set(data.files)
            expected = manifest.get("arrays", {})
            if names != set(expected):
                raise CheckpointCorruptionError(
                    f"{path.name}: archive holds {sorted(names)}, "
                    f"manifest expects {sorted(expected)}"
                )
            for name in sorted(names):
                arr = data[name]
                if array_digest(arr) != expected[name]["digest"]:
                    raise CheckpointCorruptionError(
                        f"{path.name}: checksum mismatch on array {name!r}"
                    )
                arrays[name] = arr
    except CheckpointCorruptionError:
        raise
    except Exception as exc:  # BadZipFile, OSError, truncated entries, ...
        raise CheckpointCorruptionError(
            f"{path.name}: array archive unreadable ({exc})"
        ) from exc

    return CheckpointData(
        step=int(manifest.get("step", -1)),
        arrays=arrays,
        meta=meta,
        path=path,
        fingerprint=str(manifest.get("structure_fingerprint", "")),
    )


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
    after each save only the newest ``keep`` versions survive.
    ``stats`` accumulates observable write cost: count, bytes, wall
    seconds (surfaced as ``checkpoint_*`` extras on the RunResult).

    ``save`` writes synchronously; ``save_async`` hands the (already
    detached) payload to a single background writer thread so the fsync
    cost overlaps training instead of stalling it. Writes stay strictly
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
        """Write one version, prune old ones; returns bytes written."""
        t0 = time.perf_counter()
        _, nbytes = write_version(
            self.directory, step, arrays, meta, fingerprint=self.fingerprint
        )
        self._prune()
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
            step, arrays, meta = item
            t0 = time.perf_counter()
            try:
                _, nbytes = write_version(
                    self.directory, step, arrays, meta, fingerprint=self.fingerprint
                )
                self._prune()
            except BaseException as exc:
                with self._lock:
                    self._error = exc
            else:
                with self._lock:
                    self.stats["writes"] += 1.0
                    self.stats["bytes"] += float(nbytes)
                    self.stats["seconds"] += time.perf_counter() - t0

    def _raise_pending(self) -> None:
        with self._lock:
            exc, self._error = self._error, None
        if exc is not None:
            raise CheckpointError(
                f"background checkpoint write failed: {exc}"
            ) from exc

    def load_latest(self) -> CheckpointData:
        return load_latest_valid(self.directory, fingerprint=self.fingerprint or None)

    def has_any(self) -> bool:
        return bool(list_versions(self.directory))

    def _prune(self) -> None:
        versions = list_versions(self.directory)
        for _, path in versions[: max(0, len(versions) - self.keep)]:
            shutil.rmtree(path, ignore_errors=True)


def require_configured(manager: Optional["CheckpointManager"]) -> "CheckpointManager":
    """The resume path's guard: checkpointing must be configured."""
    if manager is None:
        raise CheckpointError(
            "resume requested but checkpointing is not configured "
            "(set checkpoint_dir / --checkpoint-dir)"
        )
    return manager
