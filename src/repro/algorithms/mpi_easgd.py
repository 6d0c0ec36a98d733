"""Sync EASGD over the rank runtimes (the artifact's ``mpi_easgd`` port).

*Actual message passing*: one thread or process per rank, each with its
own replica, running the simulator's :class:`~repro.engine.strategy
.SyncElasticUpdate` on :func:`repro.engine.rank_loop.sync_rank_program`.
Eq 2 needs only the replicas' sum, so every rank holds the center: one
allreduce per iteration (the tree edges and bytes of a reduce to the
master plus a bcast of the center), then Eq 1 and Eq 2 on every rank.
The allreduce keeps :func:`repro.comm.collectives.tree_reduce`'s
association and the samplers the simulator's seeds, so the center and
every replica are *bit-identical* to :class:`repro.algorithms.sync_easgd
.SyncEASGDTrainer`'s (``tests/test_sync_families.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.algorithms.launch import launch_sync, MpiResult
from repro.data.dataset import Dataset
from repro.engine.strategy import SyncElasticUpdate
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import Trace

__all__ = ["run_mpi_sync_easgd"]


def run_mpi_sync_easgd(
    network: Network,
    train_set: Dataset,
    ranks: int,
    iterations: int,
    batch_size: int = 32,
    lr: float = 0.05,
    rho: float = 2.0,
    seed: int = 0,
    record_history: bool = False,
    timeout: float = 120.0,
    trace: Optional[Trace] = None,
    backend: str = "threads",
    transport: Optional[str] = None,
    pool: Optional[Any] = None,
) -> MpiResult:
    """Run Sync EASGD across ``ranks`` real threads or processes.

    Both backends run the identical rank program over identical binomial
    trees, so the returned weights are bit-equal across ``backend`` and
    ``pool`` (``transport``/``pool``: see
    :func:`repro.algorithms.launch.launch`). The paper's Sync EASGD1/2/3
    differ in *system* behaviour (per-layer vs packed messages, overlap)
    but share one set of update equations, so this one schedule stands in
    for all three.

    Pass a :class:`repro.trace.Trace` to record every point-to-point
    message the runtime actually moves (wall-clock spans, per-round
    stamps) — the trace the structural invariants in
    :mod:`repro.trace.check` verify against the simulator's claims.
    """
    hyper = EASGDHyper(lr=lr, rho=rho)
    hyper.validate_sync(ranks)
    return launch_sync(
        partial(SyncElasticUpdate, hyper), lr, network, train_set, ranks, iterations,
        batch_size, seed, record_history=record_history, backend=backend,
        timeout=timeout, transport=transport, pool=pool, trace=trace,
        trace_meta={"method": "MPI Sync EASGD", "pattern": "tree", "packed": True,
                    "messages_per_exchange": 1},
    )
