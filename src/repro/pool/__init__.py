"""Persistent worker pool + sweep scheduler (spin-up amortization).

``WorkerPool`` keeps ``P_max`` forked ranks alive across experiment
cells, recycling slot rings and collective arenas instead of rebuilding
them per run; ``SweepScheduler`` multiplexes a queue of cells over the
pool with smallest-first packing and checkpointable done-markers.  See
``docs/performance.md`` ("Persistent worker pool"); the spine's ``mlp-ranks-sweep``
workload (``benchmarks/spine/``) measures it.
"""

from repro.pool.scheduler import CellOutcome, SweepCell, SweepScheduler
from repro.pool.worker_pool import POOL_PAYLOAD, PoolJob, WorkerPool

__all__ = [
    "POOL_PAYLOAD",
    "PoolJob",
    "WorkerPool",
    "SweepCell",
    "CellOutcome",
    "SweepScheduler",
]
