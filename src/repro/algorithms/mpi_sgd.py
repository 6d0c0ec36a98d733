"""Sync SGD over the rank runtimes (threads or processes).

The message-passing twin of :class:`repro.algorithms.sync_sgd
.SyncSGDTrainer`: per iteration every rank computes a gradient at the
shared weights, gradients are tree-allreduced, and the averaged gradient
is applied identically everywhere. Every floating-point expression below
mirrors the simulated trainer line for line —
``tree_reduce(grads) / P`` then ``weights -= lr * mean`` with the same
float64 intermediate from the Python-float learning rate — and the
runtime's ``allreduce`` reproduces :func:`repro.comm.collectives
.tree_reduce`'s association order, so for dropout-free models the final
weights are *bit-identical* to the simulator's (and, because both
backends run this same rank program, bit-identical between ``threads``
and ``processes``).
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.algorithms.launch import launch, MpiResult, RankOutcome
from repro.comm.runtime import RankContextBase
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.rank_loop import rank_steps
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.trace.events import Trace

__all__ = ["rank_program", "run_mpi_sync_sgd"]


def rank_program(
    ctx: RankContextBase,
    template: Network,
    train_set: Dataset,
    iterations: int,
    batch_size: int,
    lr: float,
    seed: int,
) -> RankOutcome:
    """The per-rank program: gradient, packed allreduce, identical update."""
    net = template.clone(name=f"sgd-rank{ctx.rank}")
    weights = template.get_params()
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    mean_losses: List[float] = []
    # The packed send buffer, refilled every step. Where an arena carries
    # the allreduce (shm and threads, tree or ring) this is the rank's
    # contribution row: gradients are packed straight into the fabric and
    # the allreduce skips its staging copy. Elsewhere it is an ordinary
    # private buffer (reuse is safe either way — the collective copies,
    # or owns the row protocol).
    buf = ctx.collective_buffer(weights.size + 1)

    for _t in rank_steps(ctx, iterations):
        images, labels = sampler.next_batch()
        net.set_params(weights)
        batch_loss = net.gradient(images, labels, loss)

        # allreduce == tree_reduce association + bcast of the root's sum
        # (or the sharded ring, whose shard-wise folds reproduce the same
        # association), so every rank applies the bit-identical averaged
        # gradient. The scalar batch loss piggybacks as one extra element:
        # elementwise summation leaves the gradient entries untouched, and
        # the iteration stays a single packed buffer per tree edge (the
        # invariant check_packed_single_message enforces). ``view=True``
        # lets an arena hand back a zero-copy window on the shared
        # result row — read before the next collective, never written.
        buf[:-1] = net.grads
        buf[-1] = np.float32(batch_loss)
        total = ctx.allreduce(buf, view=True)
        mean_grad = total[:-1] / ctx.size
        weights -= lr * mean_grad

        if ctx.rank == 0:
            mean_losses.append(float(total[-1] / ctx.size))

    # The weights are identical on every rank, so they are also the center.
    return RankOutcome(weights, weights, losses=mean_losses)


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
    like ``transport`` and ``pool`` (see :func:`repro.algorithms.launch
    .launch`) it is wall-clock only — the weights are bit-identical.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    return launch(
        rank_program, (network, train_set, iterations, batch_size, lr, seed),
        ranks, iterations, min_ranks=1, backend=backend, timeout=timeout,
        transport=transport, pool=pool, trace=trace, collective=collective,
        trace_meta={"method": "MPI Sync SGD", "pattern": collective,
                    "packed": True, "messages_per_exchange": 1},
    )
