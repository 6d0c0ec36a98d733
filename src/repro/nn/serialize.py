"""The structural fingerprint of a network's packed parameter layout.

Checkpoints are written and read by :mod:`repro.durability`'s versioned
store; each version records this fingerprint so a checkpoint can never be
loaded into the wrong architecture silently — same-shaped buffers from a
different layer stack, shapes or ordering raise
:class:`~repro.durability.errors.CheckpointMismatchError`.
"""

from __future__ import annotations

import hashlib
import json

from repro.nn.network import Network

__all__ = ["structure_fingerprint"]


def structure_fingerprint(net: Network) -> str:
    """A stable hash of the network's segment table (names, shapes, order)."""
    desc = [
        (seg.layer_name, seg.param_name, list(seg.shape)) for seg in net.segments
    ]
    blob = json.dumps(desc, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()
