"""Rank programs: step sequencing and the one synchronous program.

The message-passing runners (``run_mpi_*``) and the Hogwild runner do
not run one loop per *run* — they run one loop per *rank*. The step
sequencing those loops share (1-based iteration numbering, stamping the
rank context's ``trace_iteration`` so runtime-emitted events carry the
loop index, input validation) lives here so the rank programs keep no
private loop machinery of their own. So does every synchronous family's
rank twin, :func:`sync_rank_program`, which runs the simulator's own
:class:`~repro.engine.strategy.UpdateRule` through its per-rank face.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.comm.topology import gossip_pairs
from repro.data.loader import BatchSampler
from repro.nn.losses import SoftmaxCrossEntropy

__all__ = ["RankOutcome", "rank_steps", "sync_rank_program"]

TAG_GOSSIP = 13  # peer <-> peer pairwise exchange (clear of the collective strides)


class RankOutcome(NamedTuple):
    """What one rank returns to the launcher."""

    local: Optional[np.ndarray]  # this rank's final replica (None: a pure server)
    center: Optional[np.ndarray] = None  # rank 0: the center / the shared weights
    history: Sequence[np.ndarray] = ()  # rank 0: center snapshot per round
    losses: Sequence[float] = ()  # per-round batch loss, from the ranks that report one
    extras: Optional[Dict[str, float]] = None  # rank 0: method-specific scalars


def rank_steps(ctx, iterations: int) -> Iterator[int]:
    """Iterate a rank program's steps ``1..iterations``.

    Stamps ``ctx.trace_iteration`` before yielding each step so every
    message the runtime moves during the step is attributed to it.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    for t in range(1, iterations + 1):
        ctx.trace_iteration = t
        yield t


def _gossip_swap(ctx, t: int, mine: np.ndarray) -> Optional[np.ndarray]:
    """Swap ``mine`` with this rank's round-``t`` peer (None: a bye). The
    lower rank sends first: deadlock-free under any buffering."""
    for a, b in gossip_pairs(t, ctx.size):
        if ctx.rank == a:
            ctx.send(mine.copy(), dest=b, tag=TAG_GOSSIP)
            return ctx.recv(source=b, tag=TAG_GOSSIP)
        if ctx.rank == b:
            peer = ctx.recv(source=a, tag=TAG_GOSSIP)
            ctx.send(mine.copy(), dest=a, tag=TAG_GOSSIP)
            return peer
    return None


def sync_rank_program(ctx, make_rule: Callable, template, train_set, iterations: int,
                      batch_size: int, seed: int, record_history: bool) -> RankOutcome:
    """One rank of a synchronous family: gradient, exchange, the rule's fold.

    ``make_rule()`` builds this rank's own rule (thread ranks share their
    arguments). An ``"allreduce"`` exchange carries the contribution plus
    the batch loss as one packed buffer, computed into the fabric's
    :meth:`~repro.comm.runtime.RankContextBase.collective_buffer`; rank 0
    reports the mean loss. A ``"gossip"`` exchange swaps with the round's
    peer; every rank reports its own loss.

    The next batch is staged as soon as the gradient pass is done, before
    the exchange blocks (Sync EASGD3's overlap); ``next_batch_into``
    consumes the same draw as ``next_batch``, so no bit moves.
    """
    rule = make_rule()
    state = rule.init_state(template.get_params(), 1)  # every replica starts from W
    replicas = rule.replicas(state)
    weights = rule.eval_params(state) if replicas is None else replicas[0]
    net = template.clone(name=f"sync-rank{ctx.rank}")
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()
    images = np.empty((batch_size,) + train_set.images.shape[1:], train_set.images.dtype)
    labels = np.empty((batch_size,) + train_set.labels.shape[1:], train_set.labels.dtype)
    sampler.next_batch_into(images, labels)
    allreduce = rule.rank_exchange == "allreduce"
    if allreduce:
        buf = ctx.collective_buffer(weights.size + 1)
    history: List[np.ndarray] = []
    losses: List[float] = []

    for t in rank_steps(ctx, iterations):
        net.set_params(weights)
        batch_loss = net.gradient(images, labels, loss)
        grad = net.grads
        if t < iterations:
            t0 = ctx._elapsed() if ctx.trace is not None else 0.0
            sampler.next_batch_into(images, labels)
            if ctx.trace is not None:
                ctx.trace.span("staging", ctx.rank, t0, ctx._elapsed(), op="prefetch-batch",
                               nbytes=images.nbytes + labels.nbytes, iteration=t)
        if allreduce:
            buf[:-1] = rule.contribute(state, grad)
            buf[-1] = np.float32(batch_loss)
            total = ctx.allreduce(buf, view=True)  # read-only until the next allreduce
            rule.fold(state, grad, total[:-1], ctx.size)
            if ctx.rank == 0:
                losses.append(float(total[-1] / ctx.size))
        else:
            peer = _gossip_swap(ctx, t, rule.contribute(state, grad))
            if peer is not None:
                rule.fold(state, grad, peer, 2)
            losses.append(float(batch_loss))
        if record_history and ctx.rank == 0:
            history.append(rule.rank_center(state).copy())

    return RankOutcome(weights, rule.rank_center(state) if ctx.rank == 0 else None,
                       history, losses)
