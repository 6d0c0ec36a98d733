"""Durable runs: crash-safe, versioned checkpointing with bit-identical resume.

The package is deliberately small: :mod:`repro.durability.checkpoint`
owns the atomic version store and retention policy, :mod:`repro.
durability.state` captures hidden stochastic state (dropout RNGs,
batch-norm running stats), and :mod:`repro.durability.errors` gives the
loader's failure modes distinct types. The actual wiring into training
lives in :class:`repro.engine.pipeline.StepPipeline`, which saves and
restores through each strategy's ``state_dict``/``load_state_dict``.
"""

from repro.durability.checkpoint import (
    FORMAT_VERSION,
    CheckpointData,
    CheckpointManager,
    list_versions,
    load_latest_valid,
    read_version,
    write_version,
)
from repro.durability.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    NoCheckpointError,
)
from repro.durability.state import (
    network_stochastic_state,
    restore_network_stochastic_state,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointData",
    "CheckpointManager",
    "list_versions",
    "load_latest_valid",
    "read_version",
    "write_version",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "NoCheckpointError",
    "network_stochastic_state",
    "restore_network_stochastic_state",
]
