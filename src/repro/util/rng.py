"""Deterministic random-number stream management.

Every stochastic component in the reproduction (data generators, weight
initialization, per-worker compute jitter, batch sampling) draws from a
named, seeded stream so that whole experiments are bit-reproducible — the
paper's Sync EASGD determinism claim is only testable if the substrate
itself is deterministic.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "spawn_rng"]


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a child seed from a root seed and a path of names.

    Uses BLAKE2 over the textual path so that seeds are stable across runs,
    Python versions, and process boundaries (unlike ``hash()``).
    """
    text = f"{root_seed}//" + "/".join(str(n) for n in names)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def spawn_rng(root_seed: int, *names: object) -> np.random.Generator:
    """Create an independent ``numpy.random.Generator`` for a named component."""
    return np.random.default_rng(derive_seed(root_seed, *names))

