"""Sync EASGD over the in-process MPI-style runtime (the artifact's
``mpi_easgd`` port).

Unlike the simulated trainers, this version runs *actual message passing*:
one thread per rank, each with its own network replica, exchanging weights
through :class:`repro.comm.runtime.InProcessCommunicator` with the same
binomial-tree schedules the simulator costs. Rank 0 doubles as the master
holding the center weight (Algorithm 4's "master: KNL1" pattern).

Because the collectives reproduce :func:`repro.comm.collectives
.tree_reduce`'s association order and the samplers use the same seed
derivation as :class:`repro.algorithms.sync_easgd.SyncEASGDTrainer`, the
weight trajectory is *bit-identical* to the simulated trainer's — the
cross-validation test in ``tests/test_mpi_runtime.py`` asserts exactly
that.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.algorithms.launch import launch, MpiResult, RankOutcome
from repro.comm.arena import BufferArena
from repro.comm.runtime import RankContextBase
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.rank_loop import rank_steps
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper, elastic_worker_update
from repro.trace.events import Trace

__all__ = ["rank_program", "run_mpi_sync_easgd"]


def rank_program(
    ctx: RankContextBase,
    template: Network,
    train_set: Dataset,
    iterations: int,
    batch_size: int,
    hyper: EASGDHyper,
    seed: int,
    record_history: bool,
    variant: int,
) -> RankOutcome:
    """The per-rank program: compute, allreduce weights, elastic updates."""
    net = template.clone(name=f"mpi-rank{ctx.rank}")
    local = template.get_params()  # all replicas start from W (Alg 4 line 6)
    center = local.copy() if ctx.rank == 0 else None
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    history: List[np.ndarray] = []
    arena = BufferArena()  # hot-loop scratch: gradient copy + staged batches

    # Sync EASGD3 overlaps communication with data staging (the paper's
    # 87% -> 14% comm-overhead move). Here that means drawing the *next*
    # batch into pre-registered arena buffers right before this rank blocks
    # in the tree reduce: the memcpy runs while the rest of the tree is
    # still combining partial sums. One draw per iteration in the same
    # stream order as the eager form, so the trajectory stays bit-identical.
    overlap = variant == 3
    if overlap:
        img_buf = arena.get(
            "images", (batch_size,) + train_set.images.shape[1:], train_set.images.dtype
        )
        lbl_buf = arena.get(
            "labels", (batch_size,) + train_set.labels.shape[1:], train_set.labels.dtype
        )
        sampler.next_batch_into(img_buf, lbl_buf)  # batch for t=1, staged eagerly

    for t in rank_steps(ctx, iterations):
        if overlap:
            images, labels = img_buf, lbl_buf
        else:
            images, labels = sampler.next_batch()
        net.set_params(local)
        net.gradient(images, labels, loss)
        grad = arena.fill("grad", net.grads)

        # The gradient pass is done with the current batch, so its buffers
        # are free: stage iteration t+1 now, before blocking in the reduce.
        if overlap and t < iterations:
            t0 = ctx._elapsed() if ctx.trace is not None else 0.0
            sampler.next_batch_into(img_buf, lbl_buf)
            if ctx.trace is not None:
                ctx.trace.span(
                    "staging", ctx.rank, t0, ctx._elapsed(),
                    op="prefetch-batch", nbytes=img_buf.nbytes + lbl_buf.nbytes,
                    iteration=t,
                )

        # Step 12-13 of Algorithm 4: master needs sum of W_j^t; every worker
        # needs Wbar_t. One tree reduce + one tree bcast.
        sum_w = ctx.reduce(local, root=0)
        if ctx.rank == 0:
            wbar_t = center.copy()
        else:
            wbar_t = None
        wbar_t = ctx.bcast(wbar_t, root=0)

        elastic_worker_update(local, grad, wbar_t, hyper)  # Eq 1, every rank
        if ctx.rank == 0:  # Eq 2 at the master
            center += hyper.alpha * (sum_w - ctx.size * center)
            if record_history:
                history.append(center.copy())

    return RankOutcome(local, center, history)


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
    variant: int = 3,
    transport: Optional[str] = None,
    pool: Optional[Any] = None,
) -> MpiResult:
    """Run Sync EASGD across ``ranks`` real threads or processes.

    Both backends run the identical rank program over identical binomial
    trees, so the returned weights are bit-equal across ``backend``,
    ``transport`` and ``pool`` (see :func:`repro.algorithms.launch.launch`).

    ``variant`` labels which Sync EASGD flavour (1, 2, or 3) this run
    stands in for. The paper's variants differ in *system* behaviour
    (per-layer vs packed messages, overlap) but share one set of update
    equations — the simulated trainers' weight trajectories are already
    variant-independent, so one message-passing schedule serves all
    three; the stamp rides on the trace metadata.

    Pass a :class:`repro.trace.Trace` to record every point-to-point
    message the runtime actually moves (wall-clock spans, per-round
    stamps) — the trace the structural invariants in
    :mod:`repro.trace.check` verify against the simulator's claims.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2, or 3, got {variant}")
    hyper = EASGDHyper(lr=lr, rho=rho)
    hyper.validate_sync(ranks)
    return launch(
        rank_program,
        (network, train_set, iterations, batch_size, hyper, seed, record_history, variant),
        ranks, iterations, min_ranks=1, backend=backend, timeout=timeout,
        transport=transport, pool=pool, trace=trace,
        trace_meta={
            "method": f"MPI Sync EASGD{variant}",
            # NOT "variant": that key dispatches the simulator's overlap
            # invariants, which need compute spans the runtime doesn't
            # emit. The variant label is informational here.
            "easgd_variant": variant,
            "pattern": "tree",
            "packed": True,
            "messages_per_exchange": 1,
        },
    )
