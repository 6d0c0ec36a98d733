"""Small shared utilities: seeded RNG streams, human formatting, text tables."""

from repro.util.format import format_bytes, format_percent, format_seconds
from repro.util.rng import derive_seed, spawn_rng
from repro.util.tables import TextTable

__all__ = [
    "spawn_rng",
    "derive_seed",
    "format_bytes",
    "format_seconds",
    "format_percent",
    "TextTable",
]
