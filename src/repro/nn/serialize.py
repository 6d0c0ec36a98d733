"""Checkpointing: save/restore packed network weights.

Long training runs on shared clusters need checkpoints (Cori jobs are
time-sliced); the packed parameter buffer makes this trivial — one array
plus a structural fingerprint so a checkpoint can never be loaded into the
wrong architecture silently.
"""

from __future__ import annotations

from contextlib import ExitStack
import hashlib
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.durability.errors import CheckpointCorruptionError, CheckpointMismatchError
from repro.nn.network import Network

__all__ = ["structure_fingerprint", "save_checkpoint", "load_checkpoint"]


def structure_fingerprint(net: Network) -> str:
    """A stable hash of the network's segment table (names, shapes, order)."""
    desc = [
        (seg.layer_name, seg.param_name, list(seg.shape)) for seg in net.segments
    ]
    blob = json.dumps(desc, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def save_checkpoint(net: Network, path: Union[str, Path], iteration: int = 0) -> None:
    """Write the packed weights + fingerprint + metadata to an ``.npz``."""
    path = Path(path)
    np.savez(
        path,
        params=net.params,
        fingerprint=np.frombuffer(
            structure_fingerprint(net).encode("ascii"), dtype=np.uint8
        ),
        iteration=np.int64(iteration),
        name=np.frombuffer(net.name.encode("utf-8"), dtype=np.uint8),
    )


def load_checkpoint(net: Network, path: Union[str, Path]) -> int:
    """Restore weights into ``net`` in place; returns the saved iteration.

    The structural fingerprint is validated *before* any weight is
    loaded: a checkpoint from a different layer stack, shapes, or
    ordering raises :class:`~repro.durability.errors.
    CheckpointMismatchError` — same-shaped buffers from a different
    architecture must never load silently. An unreadable or incomplete
    file raises :class:`~repro.durability.errors.
    CheckpointCorruptionError`.
    """
    path = Path(path)
    with ExitStack() as stack:
        try:
            # np.load leaks a handle it opened itself when the zip directory
            # is unreadable; one opened here is closed whatever it raises.
            fh = stack.enter_context(open(path, "rb"))
            data = stack.enter_context(np.load(fh))
        except Exception as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {path} is unreadable ({exc})"
            ) from exc
        for key in ("fingerprint", "params", "iteration"):
            if key not in data.files:
                raise CheckpointCorruptionError(
                    f"checkpoint {path} is missing entry {key!r}"
                )
        saved_fp = bytes(data["fingerprint"]).decode("ascii")
        expected_fp = structure_fingerprint(net)
        if saved_fp != expected_fp:
            raise CheckpointMismatchError(
                f"checkpoint structure mismatch: saved {saved_fp[:12]}..., "
                f"network is {expected_fp[:12]}..."
            )
        net.set_params(data["params"])
        return int(data["iteration"])
