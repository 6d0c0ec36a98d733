"""Strategy interfaces and shared numerics for the step pipeline.

A trainer family plugs into :class:`repro.engine.pipeline.StepPipeline`
through a *step strategy*: either a :class:`ClockStepStrategy` (the
synchronous families — one closed-form simulated-time advance per
iteration) or an :class:`EventStepStrategy` (the asynchronous
parameter-server families — a discrete-event simulation where only some
events complete a logical step).

The strategies themselves are thin compositions of two smaller objects:

- an :class:`UpdateRule` carrying the family's parameter mathematics, and
- a :class:`CommStrategy` carrying its communication cost/trace model.

The update rules are expressed through the parameter-server protocol
layer (:mod:`repro.engine.ps`): a :class:`~repro.engine.ps.CenterStore`
holds the server-side fold, a :class:`~repro.engine.ps.WorkerRule` the
worker-side mathematics. The shared compute helpers
(:func:`gather_gradients`, :func:`jittered_fwdbwd`) live in
:mod:`repro.engine.compute` and are re-exported here for compatibility.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

import numpy as np

from repro.comm.collectives import tree_reduce
from repro.engine.compute import gather_gradients, jittered_fwdbwd
from repro.engine.ps import ElasticCenterStore, ElasticWorkerRule
from repro.optim.easgd import EASGDHyper

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pipeline import StepPipeline

__all__ = [
    "StepStrategy",
    "ClockStepStrategy",
    "EventStepStrategy",
    "CommStrategy",
    "UpdateRule",
    "SyncElasticUpdate",
    "MeanGradientUpdate",
    "gather_gradients",
    "jittered_fwdbwd",
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
    Families with richer signatures (the round-robin exchange, the
    parameter server) specialize freely — the pipeline never calls a
    CommStrategy directly, the family's step strategy does.
    """

    def charge(self, pipeline: "StepPipeline", t: int, live: List[int],
               fwdbwd_each: List[float]) -> float:
        raise NotImplementedError

    def emit(self, trace, t: int, T: float, live: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        """Emit the iteration's trace spans (no-op when tracing is off)."""


class UpdateRule:
    """A family's parameter-update mathematics, free of loop plumbing."""


class SyncElasticUpdate(UpdateRule):
    """Synchronous EASGD (Algorithms 2-4): tree-sum, Eq 1, Eq 2.

    Shared verbatim by Sync EASGD1/2/3, the KNL cluster trainer, and the
    multinode cluster trainer — the unification the engine exists for.
    Expressed through the PS layer: an :class:`ElasticWorkerRule` applies
    Eq 1 per live worker against the pre-update center, then an
    :class:`ElasticCenterStore` folds the tree-reduced sum (Eq 2).
    """

    def __init__(self, hyper: EASGDHyper) -> None:
        self.hyper = hyper
        self.store = ElasticCenterStore(hyper)
        self.rule = ElasticWorkerRule()

    def apply(
        self,
        center: np.ndarray,
        workers: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        live: Sequence[int],
    ) -> None:
        sum_w = tree_reduce([workers[j] for j in live])  # step 3: tree sum
        center_t = center  # Eq 1/Eq 2 both read the pre-update center
        for i, j in enumerate(live):  # step 4: Eq 1 on every live worker
            self.rule.apply({"w": workers[j]}, grads[i], center_t, self.hyper)
        # step 5: Eq 2 — in place, reading the pre-update value once.
        self.store.bind(center).fold_sum(sum_w, len(live))


class MeanGradientUpdate(UpdateRule):
    """Data-parallel SGD: apply the tree-reduced mean gradient everywhere."""

    def __init__(self, lr: float) -> None:
        self.lr = lr

    def apply(self, net, weights: np.ndarray, grads: Sequence[np.ndarray],
              count: int) -> None:
        weights -= self.lr * (tree_reduce(grads) / count)
        net.set_params(weights)
