"""Sync SGD over the rank runtimes (threads or processes).

The message-passing twin of :class:`repro.algorithms.sync_sgd
.SyncSGDTrainer`: both run :class:`~repro.engine.strategy
.MeanGradientUpdate`, the ranks on the one synchronous rank program
(:func:`repro.engine.rank_loop.sync_rank_program`). Per iteration every
rank computes a gradient at the shared weights, the gradients are
allreduced, and every rank applies the rule's mean step. The runtime's
``allreduce`` (tree or ring) reproduces :func:`repro.comm.collectives
.tree_reduce`'s association order, so for dropout-free models the final
weights are *bit-identical* to the simulator's, on any backend.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.algorithms.launch import launch_sync, MpiResult
from repro.data.dataset import Dataset
from repro.engine.strategy import MeanGradientUpdate
from repro.nn.network import Network
from repro.trace.events import Trace

__all__ = ["run_mpi_sync_sgd"]


def run_mpi_sync_sgd(
    network: Network,
    train_set: Dataset,
    ranks: int,
    iterations: int,
    batch_size: int = 32,
    lr: float = 0.05,
    seed: int = 0,
    timeout: float = 120.0,
    trace: Optional[Trace] = None,
    backend: str = "threads",
    transport: Optional[str] = None,
    collective: str = "tree",
    pool: Optional[Any] = None,
) -> MpiResult:
    """Run synchronous data-parallel SGD across ``ranks`` real workers.

    ``collective`` picks the allreduce schedule (``"tree"`` or ``"ring"``);
    like ``pool`` it is wall-clock only — the weights are bit-identical
    (``transport``/``pool``: see :func:`repro.algorithms.launch.launch`).
    """
    return launch_sync(
        partial(MeanGradientUpdate, lr), lr, network, train_set, ranks, iterations,
        batch_size, seed, backend=backend, timeout=timeout, transport=transport,
        pool=pool, trace=trace, collective=collective,
        trace_meta={"method": "MPI Sync SGD", "pattern": collective,
                    "packed": True, "messages_per_exchange": 1},
    )
