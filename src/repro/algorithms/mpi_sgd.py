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

from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from repro.comm.backend import make_communicator
from repro.comm.runtime import RankContextBase
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.rank_loop import rank_steps
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.trace.events import Trace

__all__ = ["MpiSgdResult", "run_mpi_sync_sgd"]


@dataclass
class MpiSgdResult:
    """Outcome of one message-passing Sync SGD run."""

    weights: np.ndarray  # the shared final weights (identical on every rank)
    mean_losses: List[float]  # per-iteration loss averaged over ranks (rank 0)


def _rank_main(
    ctx: RankContextBase,
    template: Network,
    train_set: Dataset,
    iterations: int,
    batch_size: int,
    lr: float,
    seed: int,
):
    net = template.clone(name=f"sgd-rank{ctx.rank}")
    weights = template.get_params()
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    mean_losses: List[float] = []
    # The packed send buffer, reused every step. On the shm-backed ring
    # this is the rank's collective-arena contribution row: gradients are
    # packed straight into shared memory and the allreduce skips its
    # staging copy. Elsewhere it is an ordinary private buffer (reuse is
    # safe either way — the collective copies, or owns the row protocol).
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
        # lets the shm ring hand back a zero-copy window on the shared
        # result row — read before the next collective, never written.
        buf[:-1] = net.grads
        buf[-1] = np.float32(batch_loss)
        total = ctx.allreduce(buf, view=True)
        mean_grad = total[:-1] / ctx.size
        weights -= lr * mean_grad

        if ctx.rank == 0:
            mean_losses.append(float(total[-1] / ctx.size))

    return weights, mean_losses


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
) -> MpiSgdResult:
    """Run synchronous data-parallel SGD across ``ranks`` real workers.

    ``transport`` picks the process backend's byte path (``"shm"`` or
    ``"queue"``; ``None`` = backend default) and ``collective`` the
    allreduce schedule (``"tree"`` or ``"ring"``) — wall-clock only, the
    weights are bit-identical either way. ``pool`` dispatches the process
    backend to a persistent :class:`repro.pool.WorkerPool` instead of
    forking per call.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if ranks <= 0:
        raise ValueError("ranks must be positive")
    if lr <= 0:
        raise ValueError("lr must be positive")

    if trace is not None:
        trace.meta.setdefault("method", "MPI Sync SGD")
        trace.meta.setdefault("pattern", collective)
        trace.meta.setdefault("packed", True)
        trace.meta.setdefault("messages_per_exchange", 1)
    comm = make_communicator(
        ranks, backend=backend, timeout=timeout, trace=trace, transport=transport,
        collective=collective, pool=pool,
    )
    try:
        results = comm.run(
            _rank_main, network, train_set, iterations, batch_size, lr, seed
        )
    finally:
        comm.close()
    return MpiSgdResult(weights=results[0][0], mean_losses=results[0][1])
