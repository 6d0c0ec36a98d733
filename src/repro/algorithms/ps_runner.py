"""The asynchronous families over the rank runtimes (threads/processes).

The message-passing twin of :class:`repro.algorithms.async_ps
.AsyncPSTrainer`: one deterministic rank program that reads the same
:data:`repro.engine.ps.PS_FAMILIES` row the simulation reads. Rank 0 is
the server holding the center through the row's store; ranks 1..P-1 are
workers whose arrays, local steps, payload and reply fold all come from
the row's rule. The server serves workers in round-robin order, so the
final weights are bit-identical across backends (``threads`` vs
``processes``) and pooled or cold launches — determinism bought with the
wall-clock freedom of a first-come-first-served master, whose
contention behaviour the simulated trainer covers. A bounded row threads
its :class:`~repro.engine.ps.StalenessBound` through the server with real
master versions; a rejected worker resyncs from the center.

Nothing is copied on the worker's hot path: the request aliases the
worker's own arrays, which is safe even when the thread backend passes it
by reference, because the server consumes the request *before* replying
and the worker cannot touch its state until the reply arrives. The
server's reply is always a detached array — the worker keeps it.

Gossip has no server — peers average pairwise over a tournament schedule —
so :func:`run_mpi_gossip` runs the simulator's synchronous
:class:`~repro.engine.strategy.GossipUpdate` on
:func:`repro.engine.rank_loop.sync_rank_program` instead.
"""

from __future__ import annotations

from functools import partial
from typing import Any, List, Optional

import numpy as np

from repro.algorithms.launch import launch, launch_sync, MpiResult, RankOutcome
from repro.comm.runtime import RankContextBase
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.ps import CenterStore, PS_FAMILIES, PsFamily, StalenessBound
from repro.engine.rank_loop import rank_steps
from repro.engine.strategy import GossipUpdate
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import Trace

__all__ = [
    "PS_RUNNER_METHODS",
    "ps_rank_program",
    "run_mpi_ps",
    "run_mpi_async_easgd",
    "run_mpi_gossip",
]

#: Wire tags for the request/reply pair (clear of the collective strides).
TAG_REQ = 11  # worker -> server: (batch loss, family payload)
TAG_REP = 12  # server -> worker: (verdict, family reply)

#: Families with a rank-program twin: the rows whose service discipline a
#: round-robin server reproduces (the lock-free rows have no real-message
#: analogue; the gradient-push rows are covered by ``run_mpi_sync_sgd``).
PS_RUNNER_METHODS = ("async-easgd", "downpour", "adag", "eamsgd", "bounded-async-easgd")


def _server_main(ctx: RankContextBase, store: CenterStore,
                 bound: Optional[StalenessBound], iterations: int,
                 record_history: bool) -> RankOutcome:
    """Rank 0: serve one exchange per worker per round, round-robin."""
    workers = ctx.size - 1
    trace = ctx.trace
    version = 0
    worker_version = [0] * ctx.size
    history: List[np.ndarray] = []
    mean_losses: List[float] = []
    for t in rank_steps(ctx, iterations):
        loss_sum = 0.0
        for j in range(1, ctx.size):
            batch_loss, payload = ctx.recv(source=j, tag=TAG_REQ)
            t0 = ctx._elapsed() if trace is not None else 0.0
            loss_sum += float(batch_loss)
            verdict = "apply"
            if bound is not None:
                verdict, _scale = bound.admit(version - worker_version[j])
            if verdict == "reject":
                # Discard the contribution; the worker resyncs from the
                # untouched center. No version bump — nothing landed.
                reply = store.pull()
            else:
                # The payload may alias the worker's own arrays under the
                # thread backend: serve() folds it before we reply.
                reply = store.serve(payload)
                if reply is store.weights:
                    reply = store.pull()  # the worker keeps the reply
                version += 1
            worker_version[j] = version
            ctx.send((verdict, reply), dest=j, tag=TAG_REP)
            if trace is not None:
                # value = when the request reached the serial server: the
                # FCFS invariant checks service order against it.
                trace.span(
                    "service", ctx.rank, t0, ctx._elapsed(), op="ps-serve",
                    nbytes=payload.nbytes, iteration=t, value=t0,
                )
        mean_losses.append(loss_sum / workers)
        if record_history:
            history.append(store.pull())
    return RankOutcome(None, store.weights, history, mean_losses,
                       bound.extras() if bound is not None else None)


def _worker_main(ctx: RankContextBase, row: PsFamily, template: Network,
                 train_set: Dataset, iterations: int, batch_size: int,
                 local_steps: int, hyper: EASGDHyper, seed: int) -> RankOutcome:
    """Ranks 1..P-1: local pass(es), push the rule's payload, fold the reply."""
    net = template.clone(name=f"ps-rank{ctx.rank}")
    rule = row.rule()
    state = rule.init_state(template.get_params())
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", ctx.rank))
    loss = SoftmaxCrossEntropy()

    for _t in rank_steps(ctx, iterations):
        batch_loss = row.local_passes(rule, state, net, sampler, loss, hyper, local_steps)
        grad = net.grads
        ctx.send((np.float32(batch_loss), rule.payload(state, grad)),
                 dest=0, tag=TAG_REQ)
        verdict, reply = ctx.recv(source=0, tag=TAG_REP)
        if verdict == "reject":
            rule.resync(state, reply)  # local progress is discarded
        else:
            rule.apply(state, grad, reply, hyper)
    return RankOutcome(state["w"])


def ps_rank_program(ctx: RankContextBase, key: str, template: Network,
                    train_set: Dataset, iterations: int, batch_size: int,
                    local_steps: int, hyper: EASGDHyper, seed: int,
                    bound: Optional[StalenessBound],
                    record_history: bool) -> RankOutcome:
    """One rank of family ``key`` (rows hold factories, so the key travels)."""
    row = PS_FAMILIES[key]
    if ctx.rank == 0:
        store = row.store(hyper, ctx.size - 1).bind(template.get_params())
        return _server_main(ctx, store, bound, iterations, record_history)
    return _worker_main(ctx, row, template, train_set, iterations, batch_size,
                        local_steps, hyper, seed)


def _run_family(method: str, network: Network, train_set: Dataset, ranks: int,
                iterations: int, batch_size: int, local_steps: Optional[int],
                hyper: EASGDHyper, tau: Optional[int], seed: int,
                record_history: bool = False, **launch_kwargs: Any) -> MpiResult:
    """Resolve ``method``'s row and launch its rank program."""
    if method not in PS_RUNNER_METHODS:
        raise ValueError(f"method must be one of {PS_RUNNER_METHODS}, got {method!r}")
    if ranks < 2:
        raise ValueError("need at least 2 ranks (one server, one worker)")
    row = PS_FAMILIES[method]
    local_steps, bound = row.options(ranks - 1, local_steps, tau)
    return launch(
        ps_rank_program,
        (method, network, train_set, iterations, batch_size, local_steps, hyper,
         seed, bound, record_history),
        ranks, iterations,
        trace_meta={"method": f"MPI {row.name}", "pattern": "ps",
                    "service": "round-robin", **row.trace_meta(local_steps, bound)},
        **launch_kwargs,
    )


def run_mpi_ps(
    method: str,
    network: Network,
    train_set: Dataset,
    ranks: int,
    iterations: int,
    batch_size: int = 32,
    local_steps: Optional[int] = None,
    lr: float = 0.05,
    rho: float = 2.0,
    mu: float = 0.9,
    tau: Optional[int] = None,
    seed: int = 0,
    timeout: float = 120.0,
    backend: str = "threads",
    transport: Optional[str] = None,
    pool: Optional[Any] = None,
    trace: Optional[Trace] = None,
) -> MpiResult:
    """Run one centered family across ``ranks`` real threads/processes.

    ``ranks`` counts the server: ``ranks - 1`` workers train. The server's
    round-robin service makes the schedule deterministic, so the returned
    weights are bit-identical across backends for a fixed seed.
    ``local_steps`` and ``tau`` default to the family's own values; a
    family that cannot honour a passed one raises a ``ValueError`` naming
    it. ``transport``/``pool``: see :func:`repro.algorithms.launch.launch`.
    """
    return _run_family(
        method, network, train_set, ranks, iterations, batch_size, local_steps,
        EASGDHyper(lr=lr, rho=rho, mu=mu), tau, seed, timeout=timeout,
        backend=backend, transport=transport, pool=pool, trace=trace,
    )


def run_mpi_async_easgd(
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
    """Run Async EASGD (the ``async-easgd`` row) across ``ranks`` ranks.

    The artifact's ``mpi_easgd -a`` port: the worker sends ``(loss,
    W^j_t)``, the master replies the pre-update center ``Wbar_t`` and
    folds the worker in with the single-worker Eq 2 step (Algorithm 1
    line 14). Over :func:`run_mpi_ps` it adds ``record_history``: the
    center after every round, as ``center_history``.
    """
    return _run_family(
        "async-easgd", network, train_set, ranks, iterations, batch_size, None,
        EASGDHyper(lr=lr, rho=rho), None, seed, record_history, timeout=timeout,
        backend=backend, transport=transport, pool=pool, trace=trace,
    )


def run_mpi_gossip(
    network: Network,
    train_set: Dataset,
    ranks: int,
    iterations: int,
    batch_size: int = 32,
    lr: float = 0.05,
    seed: int = 0,
    timeout: float = 120.0,
    backend: str = "threads",
    transport: Optional[str] = None,
    pool: Optional[Any] = None,
) -> MpiResult:
    """Run decentralized gossip SGD across ``ranks`` real threads/processes.

    All ranks train; the returned center is the consensus mean of the
    final replicas. The tournament pairing schedule is deterministic, so
    the result is bit-identical across backends.
    """
    result = launch_sync(
        partial(GossipUpdate, lr), lr, network, train_set, ranks, iterations,
        batch_size, seed, min_ranks=2, backend=backend, timeout=timeout,
        transport=transport, pool=pool,
    )
    result.center = np.mean(np.stack(result.worker_weights, axis=0), axis=0)
    return result
