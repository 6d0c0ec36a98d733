"""Typed failure modes of the durability subsystem.

The loader distinguishes *corruption* (a checkpoint that cannot be
trusted: truncated files, failed checksums, unreadable manifests — the
expected aftermath of a crash mid-write or a bad disk) from *mismatch*
(a perfectly healthy checkpoint that belongs to a different model
architecture or run configuration). Corruption triggers fallback to the
previous valid version; mismatch is a caller error and always raises.
"""

from __future__ import annotations

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "NoCheckpointError",
]


class CheckpointError(RuntimeError):
    """Base class for all checkpoint save/load failures."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint version failed validation (truncated, bit-flipped,
    unreadable manifest, or a checksum that does not match its payload).

    The version loader treats this as "skip and fall back", never as a
    crash: a run killed mid-write must be able to resume from the
    previous valid version.
    """


class CheckpointMismatchError(CheckpointError, ValueError):
    """A (valid) checkpoint belongs to a different architecture or run.

    Subclasses :class:`ValueError`: like any bad argument, it is the
    caller's mistake. Unlike corruption this never falls back — silently
    training a different model than the one checkpointed is exactly the
    failure mode the structure fingerprint exists to prevent.
    """


class NoCheckpointError(CheckpointError):
    """Resume was requested but no valid checkpoint version exists."""
