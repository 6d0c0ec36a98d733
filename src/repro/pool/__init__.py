"""Persistent worker pool (spin-up amortization).

``WorkerPool`` keeps ``P_max`` forked ranks alive across experiment
cells, recycling inboxes and collective arenas instead of rebuilding
them per run; concurrent ``submit`` calls pack cells onto disjoint rank
blocks. Sweeps reach it through ``grid_sweep(..., pool_size=P)`` and
``run_methods(..., pool_size=P)``. See ``docs/performance.md``
("Persistent worker pool"); the spine's ``mlp-ranks-sweep`` workload
(``benchmarks/spine/``) measures it.
"""

from repro.pool.worker_pool import POOL_PAYLOAD, PoolJob, WorkerPool

__all__ = ["POOL_PAYLOAD", "PoolJob", "WorkerPool"]
