"""The asynchronous families over the rank runtimes (threads/processes).

The message-passing twin of :class:`repro.algorithms.async_ps
.AsyncPSTrainer`: one rank program that reads the same
:data:`repro.engine.ps.PS_FAMILIES` row the simulation reads. Every rank
is a worker whose arrays, local steps, payload and reply fold all come
from the row's rule; the center has no rank of its own. It lives in the
cell's shared arena (heap rows between threads, a named segment between
processes), bound to the row's store, and the row decides how the
workers reach it — the paper's own framing of Hogwild EASGD as Async
EASGD with the master's lock taken out:

- A **locked** row's workers take turns: a turn token goes round the
  ring of workers, and only its holder calls ``store.serve``. That is
  Sync EASGD2's placement (the center on the device the workers share)
  with Original EASGD's round-robin master as a service *order* instead
  of a process: worker 0..W-1 each round, one of the orders a
  first-come-first-served lock allows, so the final weights are
  bit-identical across backends (``threads`` vs ``processes``) and
  pooled or cold launches — determinism bought with the wall-clock
  freedom of an FCFS master, whose contention behaviour the simulated
  trainer covers. The token carries the master's scalars, so admission
  is decided exactly as a serial server would: the master version, the
  round's loss sum and, for a bounded row, the
  :class:`~repro.engine.ps.StalenessBound` counters; a rejected worker
  resyncs from the center. The reply is detached before the token moves
  on (the next holder folds into the center), and the worker folds it
  after passing the token.
- A **lock-free** row's workers serve whenever they get there, so their
  ``+=`` race on the center as the paper's lock-free master does (NumPy
  ufuncs release the GIL between threads; processes race in physical
  memory). Worker 0 seeds the center and releases each peer with one
  0-byte message before anyone serves; the last worker pulls the center
  after one 0-byte "done" message from each peer. Each worker reports
  its own per-round loss.

No byte of the center ever travels in a message. With one worker
nothing races or waits, and the final center is byte-equal to the
simulated row's.

Gossip has no center — peers average pairwise over a tournament schedule —
so :func:`run_mpi_gossip` runs the simulator's synchronous
:class:`~repro.engine.strategy.GossipUpdate` on
:func:`repro.engine.rank_loop.sync_rank_program` instead.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, List, Optional

import numpy as np

from repro.algorithms.launch import (
    launch,
    launch_sync,
    MpiResult,
    RankOutcome,
    validate_hyperparameters,
)
from repro.comm.runtime import RankContextBase
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.ps import PS_FAMILIES, StalenessBound
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

#: Wire tag of the turn token and of the lock-free release and done
#: messages (clear of the collective strides); the shared center is the
#: arena channel of the same tag.
TAG_TURN = 11

#: Families with a rank-program twin: every centered row whose master is
#: the center alone. ``async-msgd`` has none: its server velocity is a
#: second store array beside the center.
PS_RUNNER_METHODS = ("async-sgd", "hogwild-sgd", "async-easgd", "async-measgd",
                     "hogwild-easgd", "downpour", "adag", "eamsgd",
                     "bounded-async-easgd")


def ps_rank_program(ctx: RankContextBase, key: str, template: Network,
                    train_set: Dataset, iterations: int, batch_size: int,
                    local_steps: int, hyper: EASGDHyper, seed: int,
                    bound: Optional[StalenessBound],
                    record_history: bool) -> RankOutcome:
    """Worker ``ctx.rank`` of family ``key`` (rows hold factories, so the
    key travels): local pass(es), a serve at the shared center — on its
    turn, or whenever it gets there if the row is lock-free — then the
    reply's fold. The last worker reports the center, the history and the
    extras; the per-round mean loss is the turn's (locked) or each
    worker's own (lock-free)."""
    row = PS_FAMILIES[key]
    workers, rank = ctx.size, ctx.rank
    last = rank == workers - 1
    net = template.clone(name=f"ps-w{rank}")
    rule = row.rule()
    init = template.get_params()
    state = rule.init_state(init)
    sampler = BatchSampler(train_set, batch_size, seed, name=("worker", rank))
    loss = SoftmaxCrossEntropy()
    center = ctx.shared_row(TAG_TURN, init.size)  # None: a lone worker
    store = row.store(hyper, workers).bind(init if center is None else center)
    token = center is not None and not row.lock_free
    race = center is not None and row.lock_free
    bound = copy.copy(bound)  # thread ranks share their arguments
    trace = ctx.trace
    version = worker_version = 0
    loss_sum = 0.0
    history: List[np.ndarray] = []
    mean_losses: List[float] = []

    if center is not None and rank == 0:
        np.copyto(center, init)  # a pooled arena holds the last cell's bits
        if race:
            for peer in range(1, workers):
                ctx.send(None, dest=peer, tag=TAG_TURN)
    elif race:
        ctx.recv(source=0, tag=TAG_TURN)  # the center is seeded

    for t in rank_steps(ctx, iterations):
        batch_loss = row.local_passes(rule, state, net, sampler, loss, hyper, local_steps)
        grad = net.grads
        if token and (rank > 0 or t > 1):
            version, loss_sum, counters = ctx.recv(source=(rank - 1) % workers, tag=TAG_TURN)
            if bound is not None:
                bound.load_state_dict(counters)
        t0 = ctx._elapsed() if trace is not None else 0.0
        payload = rule.payload(state, grad)
        loss_sum += float(np.float32(batch_loss))
        verdict = "apply" if bound is None else bound.admit(version - worker_version)[0]
        if verdict == "reject":
            reply = store.pull()  # nothing landed: no version bump
        else:
            reply = store.serve(payload)
            if reply is store.weights:
                reply = store.pull()  # the next serve folds into the center
            version += 1
        worker_version = version
        if last or row.lock_free:
            mean_losses.append(loss_sum / (1 if row.lock_free else workers))
            loss_sum = 0.0
        if last and record_history:
            history.append(store.pull())
        if trace is not None:
            # value = when the serve began: the FCFS invariant checks
            # service order against it.
            trace.span("service", ctx.rank, t0, ctx._elapsed(), op="ps-serve",
                       nbytes=payload.nbytes, iteration=t, value=t0)
        if token and not (last and t == iterations):
            ctx.send((version, loss_sum, None if bound is None else bound.state_dict()),
                     dest=(rank + 1) % workers, tag=TAG_TURN)
        if verdict == "reject":
            rule.resync(state, reply)  # local progress is discarded
        else:
            rule.apply(state, grad, reply, hyper)
    if race and last:
        for peer in range(workers - 1):
            ctx.recv(source=peer, tag=TAG_TURN)  # its last serve has landed
    elif race:
        ctx.send(None, dest=workers - 1, tag=TAG_TURN)
    if not last:
        return RankOutcome(state["w"], losses=mean_losses)
    return RankOutcome(state["w"], store.pull(), history, mean_losses,
                       None if bound is None else bound.extras())


def _run_family(method: str, network: Network, train_set: Dataset, ranks: int,
                iterations: int, batch_size: int, local_steps: Optional[int],
                hyper: EASGDHyper, tau: Optional[int], seed: int,
                record_history: bool = False, **launch_kwargs: Any) -> MpiResult:
    """Resolve ``method``'s row and launch its rank program."""
    if method not in PS_RUNNER_METHODS:
        raise ValueError(f"method must be one of {PS_RUNNER_METHODS}, got {method!r}")
    if ranks < 2:
        raise ValueError("need at least 2 ranks (the center's slot, one worker)")
    validate_hyperparameters(hyper.lr, batch_size, train_set)
    row = PS_FAMILIES[method]
    local_steps, bound = row.options(ranks - 1, local_steps, tau)
    return launch(
        ps_rank_program,
        (method, network, train_set, iterations, batch_size, local_steps, hyper,
         seed, bound, record_history),
        ranks - 1, iterations, min_ranks=1,
        trace_meta={"method": f"MPI {row.name}", "pattern": "ps",
                    "service": "lock-free" if row.lock_free else "round-robin",
                    **row.trace_meta(local_steps, bound)},
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

    ``ranks`` counts the center's slot: ``ranks - 1`` workers train, each
    on a rank of its own, and serve at the shared center. A locked row's
    workers take round-robin turns, which makes the schedule deterministic:
    the returned weights are bit-identical across backends for a fixed
    seed. A lock-free row's workers race (``hogwild-sgd``,
    ``hogwild-easgd``), and ``mean_losses`` averages their own losses.
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

    The artifact's ``mpi_easgd -a`` exchange, with the master's half run
    by the worker holding the turn: it reads the pre-update center
    ``Wbar_t`` and folds its own ``W^j_t`` in with the single-worker Eq 2
    step (Algorithm 1 line 14). Over :func:`run_mpi_ps` it adds ``record_history``: the
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
