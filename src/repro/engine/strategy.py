"""Strategy interfaces and shared numerics for the step pipeline.

A trainer family plugs into :class:`repro.engine.pipeline.StepPipeline`
through a *step strategy*: either a :class:`ClockStepStrategy` (the
synchronous families — one closed-form simulated-time advance per
iteration) or an :class:`EventStepStrategy` (the asynchronous
parameter-server families — a discrete-event simulation where only some
events complete a logical step).

A synchronous family is a composition of two smaller objects, each with
one signature, on the one :class:`repro.engine.sync.SyncStep`:

- an :class:`UpdateRule` carrying the family's parameter mathematics
  (the four rules below), and
- a :class:`CommStrategy` carrying its communication cost/trace model
  (defined beside the family's trainer).

The update rules are expressed through the parameter-server protocol
layer (:mod:`repro.engine.ps`): a :class:`~repro.engine.ps.CenterStore`
holds the server-side fold, a :class:`~repro.engine.ps.WorkerRule` the
worker-side mathematics. A rule's per-rank face runs it on real ranks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.comm.collectives import tree_reduce
from repro.comm.topology import gossip_pairs
from repro.engine.ps import ElasticCenterStore, ElasticWorkerRule, GossipStore
from repro.optim.easgd import (
    EASGDHyper,
    elastic_center_update_single,
    elastic_worker_update,
)
from repro.optim.quantize import quantize_gradient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pipeline import StepPipeline

__all__ = [
    "StepStrategy",
    "ClockStepStrategy",
    "EventStepStrategy",
    "CommStrategy",
    "UpdateRule",
    "SyncElasticUpdate",
    "RoundRobinElasticUpdate",
    "MeanGradientUpdate",
    "GossipUpdate",
    "live_gossip_pairs",
]


class StepStrategy:
    """What a trainer family provides to the pipeline.

    The pipeline owns sequencing (loop, clock, records, result); the
    strategy owns per-family state and the content of one step. The
    ``last_loss`` attribute is read by :class:`repro.engine.policy
    .EvalPolicy` at every snapshot point.
    """

    #: Most recent training-batch loss, stamped into trajectory records.
    last_loss: float = float("nan")
    #: Execution substrate recorded on the RunResult (None = simulated).
    run_backend: Optional[str] = None

    def begin(self, pipeline: "StepPipeline") -> None:
        """Allocate per-run state (replicas, samplers, costs, trace)."""

    def eval_params(self) -> np.ndarray:
        """The packed vector whose accuracy the trajectory tracks.

        Contract: return the *live* packed array (a view, not a copy) —
        the pipeline's snapshot publisher copies it into the seqlock
        buffer itself, so a defensive copy here would just double the
        memcpy on every publish.  Consumers that need isolation from
        later in-place updates (evaluation, serving) go through
        :meth:`StepPipeline.eval_view` / the snapshot reader, never
        through a raw reference they hold across steps.
        """
        raise NotImplementedError

    def extras(self) -> Dict[str, float]:
        """Method-specific scalars for ``RunResult.extras``."""
        return {}

    def end(self, pipeline: "StepPipeline") -> None:
        """Successful-completion hook (runs after ``cleanup``)."""

    def cleanup(self, pipeline: "StepPipeline") -> None:
        """Always-run teardown hook (processes, queues, shared memory)."""

    # -- durability protocol -----------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Full per-run state as ``{"arrays": {...}, "meta": {...}}``.

        ``arrays`` maps names to the family's numpy vectors (center,
        replicas, velocities); ``meta`` holds everything else (sampler
        cursors, fault-tracker progress, event queues) as plain
        picklable values. Together with the pipeline-level state this
        must be *complete*: restoring it after a fresh ``begin()`` and
        re-running must be bit-identical to never having stopped.
        Collections with history-dependent iteration order (sets) must
        be serialized sorted.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot into a begun strategy.

        Called after ``begin()``: structure (replica lists, samplers,
        comm models) already exists and only its *state* is overwritten,
        in place where other components hold references (shared-memory
        segments, the evaluation network).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )


class ClockStepStrategy(StepStrategy):
    """One iteration == one step == one closed-form clock advance."""

    def step(self, pipeline: "StepPipeline", t: int) -> float:
        """Run iteration ``t``; return the simulated seconds it took."""
        raise NotImplementedError


class EventStepStrategy(StepStrategy):
    """Discrete-event families: steps complete on *some* events only."""

    def pending(self) -> bool:
        """Whether the event queue can still produce steps."""
        raise NotImplementedError

    def advance(self, pipeline: "StepPipeline", t_next: int) -> bool:
        """Process one event; return True iff it completed step ``t_next``.

        Non-completing events (rejoins, dropped/retransmitted messages,
        arrivals from dead workers) return False and the pipeline simply
        keeps draining the queue.
        """
        raise NotImplementedError

    def on_drained(self, pipeline: "StepPipeline", t: int) -> None:
        """Called when the loop exits; raise if the run made no progress."""

    def on_complete(self, pipeline: "StepPipeline", t: int) -> None:
        """Final accounting (e.g. in-flight messages lost at run end)."""


class CommStrategy:
    """A family's communication model: simulated cost + trace emission.

    ``charge`` composes the iteration's simulated time from the phase
    costs and books the :class:`~repro.algorithms.base.TimeBreakdown`
    parts; ``emit`` expands the same iteration into its traced timeline.
    Every model has this one signature, so any of them composes with any
    :class:`UpdateRule`: ``active`` is the rule's pick of workers that
    computed this iteration (the round-robin model reads ``active[0]``),
    ``fwdbwd_each`` their forward/backward seconds in the same order.
    """

    #: Workers the model is costed for at full strength.
    ranks: int
    #: What a fault-driven change of group size rebuilds, in the fault
    #: log's words; None = no ``tree-rebuild`` record and no ``retime``.
    resize_label: Optional[str] = None
    #: The trace metadata the invariant checks dispatch on (``pattern``,
    #: ``packed``, ...); None = the family records no trace.
    trace_meta: Optional[Dict[str, object]] = None

    def retime(self, ranks: int) -> None:
        """Re-cost the collective for the surviving group of ``ranks``."""

    def charge(self, pipeline: "StepPipeline", t: int, active: List[int],
               fwdbwd_each: List[float]) -> float:
        raise NotImplementedError

    def emit(self, trace, t: int, T: float, active: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        """Emit the iteration's trace spans (called only when tracing)."""


class UpdateRule:
    """A family's parameter-update mathematics, free of loop plumbing.

    The rule allocates the run's arrays once (:meth:`init_state`) and
    updates them in place from then on; the dict it returns *is* what a
    checkpoint saves, under the same names.
    """

    #: What a rejoining worker does, as the fault log words it.
    rejoin_note = "re-pulled elastic center"

    def init_state(self, w0: np.ndarray, ranks: int) -> Dict[str, np.ndarray]:
        """The family's arrays for ``ranks`` workers, all starting at ``w0``
        (which the rule adopts)."""
        raise NotImplementedError

    def replicas(self, state) -> Optional[List[np.ndarray]]:
        """Per-worker weights to load before a pass; None = the network
        already holds the shared weights every worker computes at."""
        return None

    def active(self, t: int, live: List[int]) -> List[int]:
        """The live workers that compute at iteration ``t``."""
        return live

    def keep(self, state, j: int, grad: np.ndarray):
        """What survives worker ``j``'s pass for :meth:`apply`: ``grad`` is
        the network's live buffer, overwritten by the next pass, so rules
        that need all gradients at once keep a copy."""
        return grad.copy()

    def apply(self, state, grads: Sequence, losses: Sequence[float],
              active: List[int], live: List[int], t: int) -> float:
        """Fold iteration ``t`` into ``state``; return the loss to stamp.
        ``grads`` (what :meth:`keep` kept) and ``losses`` follow ``active``."""
        raise NotImplementedError

    def eval_params(self, state) -> np.ndarray:
        """The live vector whose accuracy the trajectory tracks."""
        raise NotImplementedError

    def restore(self, state, j: int) -> None:
        """Bring rejoining worker ``j`` back up to date."""

    def meta(self) -> Dict[str, object]:
        """Non-array state a checkpoint must carry (picklable)."""
        return {}

    def load_meta(self, meta: Dict[str, object]) -> None:
        """Restore what :meth:`meta` captured."""

    # -- the per-rank face: one rank of :func:`repro.engine.rank_loop
    # .sync_rank_program` holds ``init_state(w0, 1)`` -------------------------

    #: How ranks combine what they :meth:`contribute`: ``"allreduce"``
    #: sums every rank's; ``"gossip"`` swaps with the round's tournament
    #: peer. None: the rule has no rank twin.
    rank_exchange: Optional[str] = None

    def contribute(self, state, grad: np.ndarray) -> np.ndarray:
        """What this rank puts into the exchange after its pass."""
        raise NotImplementedError(f"{type(self).__name__} has no rank twin")

    def fold(self, state, grad: np.ndarray, received: np.ndarray, ranks: int) -> None:
        """Apply what the exchange brought back: the sum of ``ranks``
        contributions, or the gossip peer's."""
        raise NotImplementedError(f"{type(self).__name__} has no rank twin")

    def rank_center(self, state) -> Optional[np.ndarray]:
        """The center a rank holds (None: the family has none)."""
        return self.eval_params(state)


class _ReplicaState(UpdateRule):
    """State shared by the rules that keep one replica per worker beside
    a center (or the consensus that stands in for one)."""

    center_name, replica_stem = "center", "worker"

    def init_state(self, w0, ranks):
        self.ranks = ranks
        return {self.center_name: w0,
                **{f"{self.replica_stem}-{j}": w0.copy() for j in range(ranks)}}

    def replicas(self, state):
        return [state[f"{self.replica_stem}-{j}"] for j in range(self.ranks)]

    def eval_params(self, state):
        return state[self.center_name]

    def restore(self, state, j):
        state[f"{self.replica_stem}-{j}"][...] = state[self.center_name]


class SyncElasticUpdate(_ReplicaState):
    """Synchronous EASGD (Algorithms 2-4): tree-sum, Eq 1, Eq 2.

    Shared verbatim by Sync EASGD1/2/3, the KNL cluster trainer, and the
    multinode cluster trainer — the unification the engine exists for.
    Expressed through the PS layer: an :class:`ElasticWorkerRule` applies
    Eq 1 per live worker against the pre-update center, then an
    :class:`ElasticCenterStore` folds the tree-reduced sum (Eq 2).

    Eq 2 needs only the replicas' sum, so every real rank holds the center
    and, after one allreduce of the replicas, applies Eq 1 and Eq 2 itself.
    """

    rank_exchange = "allreduce"

    def __init__(self, hyper: EASGDHyper) -> None:
        self.hyper = hyper
        self.store = ElasticCenterStore(hyper)
        self.rule = ElasticWorkerRule()

    def apply(self, state, grads, losses, active, live, t):
        center, workers = state["center"], self.replicas(state)
        sum_w = tree_reduce([workers[j] for j in active])  # step 3: tree sum
        # step 4: Eq 1 on every live worker; Eq 1/Eq 2 both read the
        # pre-update center.
        for i, j in enumerate(active):
            self.rule.apply({"w": workers[j]}, grads[i], center, self.hyper)
        # step 5: Eq 2 — in place, reading the pre-update value once.
        self.store.bind(center).fold_sum(sum_w, len(active))
        return losses[-1]

    def contribute(self, state, grad):
        return state["worker-0"]

    def fold(self, state, grad, received, ranks):
        center = state["center"]
        self.rule.apply({"w": state["worker-0"]}, grad, center, self.hyper)
        self.store.bind(center).fold_sum(received, ranks)


class RoundRobinElasticUpdate(_ReplicaState):
    """Original EASGD (Algorithm 1): one worker per iteration meets the master.

    Lines 3-5 are the shared state: per-GPU local weights and the CPU
    center, all copies of the same initialization.
    """

    def __init__(self, hyper: EASGDHyper) -> None:
        self.hyper = hyper

    def active(self, t, live):
        j = (t - 1) % self.ranks  # Algorithm 1 line 7 (0-based)
        # Round-robin over survivors: the master skips dead ranks
        # instead of blocking on a reply that will never come.
        while j not in live:
            j = (j + 1) % self.ranks
        return [j]

    def keep(self, state, j, grad):
        return grad  # one pass per iteration: applied before the next

    def apply(self, state, grads, losses, active, live, t):
        worker, center = state[f"worker-{active[0]}"], state["center"]
        w_before = worker.copy()  # W_j^t as fetched by the CPU (line 12)
        # line 13: GPU applies Eq 1 against the Wbar it was sent.
        elastic_worker_update(worker, grads[0], center, self.hyper)
        # line 14: CPU applies the single-worker Eq 2 with W_j^t.
        elastic_center_update_single(center, w_before, self.hyper)
        return losses[0]


class MeanGradientUpdate(UpdateRule):
    """Data-parallel SGD: apply the tree-reduced mean gradient everywhere.

    With ``quantize_bits`` each gradient is stochastically quantized to
    that width before the reduction (drawing from ``quant_rng``, which is
    checkpoint state).
    """

    rejoin_note = "re-entered allreduce group"
    rank_exchange = "allreduce"

    def __init__(self, lr: float, quantize_bits: Optional[int] = None,
                 quant_rng: Optional[np.random.Generator] = None) -> None:
        self.lr = lr
        self.quantize_bits = quantize_bits
        self.quant_rng = quant_rng

    def init_state(self, w0, ranks):
        return {"weights": w0}

    def apply(self, state, grads, losses, active, live, t):
        if self.quantize_bits is not None:
            grads = [
                quantize_gradient(grad, self.quantize_bits, self.quant_rng)[0]
                for grad in grads
            ]
        self.fold(state, None, tree_reduce(grads), len(active))
        return float(np.mean(losses))

    def contribute(self, state, grad):
        return grad

    def fold(self, state, grad, received, ranks):
        state["weights"] -= self.lr * (received / ranks)  # the mean-gradient step

    def eval_params(self, state):
        return state["weights"]

    def meta(self):
        rng = self.quant_rng
        return {"quant_rng": rng.bit_generator.state if rng is not None else None}

    def load_meta(self, meta):
        if meta["quant_rng"] is not None:
            self.quant_rng.bit_generator.state = meta["quant_rng"]


def live_gossip_pairs(t: int, ranks: int, live: Sequence[int]) -> List[Tuple[int, int]]:
    """Round ``t``'s tournament pairs; a pair with a dead peer sits out."""
    live_set = set(live)
    return [(a, b) for a, b in gossip_pairs(t, ranks)
            if a in live_set and b in live_set]


class GossipUpdate(_ReplicaState):
    """Gossip SGD: a local SGD step everywhere, then pairwise averaging.

    There is no center: the live replicas' mean (the ``consensus`` array)
    stands in for it at evaluation and when a rejoiner catches up (it is
    the rejoiner's checkpoint).
    """

    center_name, replica_stem = "consensus", "replica"
    rejoin_note = "re-pulled consensus mean"
    rank_exchange = "gossip"

    def __init__(self, lr: float) -> None:
        self.lr = lr

    def init_state(self, w0, ranks):
        state = super().init_state(w0, ranks)
        self.store = GossipStore().bind_replicas(self.replicas(state))
        return state

    def keep(self, state, j, grad):
        # The local step needs nothing from the other workers: take it
        # now, from the live buffer, and keep nothing.
        self.store.replicas[j] -= self.lr * grad

    def apply(self, state, grads, losses, active, live, t):
        for a, b in live_gossip_pairs(t, self.ranks, live):
            self.store.mix(a, b)
        self.store.consensus_into(state["consensus"], live)
        return float(np.mean(losses))

    def rank_center(self, state):
        return None  # a rank sees two replicas, never the consensus

    def contribute(self, state, grad):
        self.keep(state, 0, grad)
        return state["replica-0"]

    def fold(self, state, grad, received, ranks):
        replica = state["replica-0"]
        replica[...] = self.store.average(replica, received)
