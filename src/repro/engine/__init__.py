"""The step-pipeline engine every trainer family runs on.

One engine, many strategies. Each training method in this repo — the
simulated trainers in :mod:`repro.algorithms`, the KNL and multinode
cluster trainers, the chip-partition trainer, and the message-passing
rank programs (Hogwild included) — used to carry its own hand-rolled
loop re-wiring batch staging, evaluation snapshots, trace spans, fault
hooks, and result assembly. EASGD and its siblings differ only in their
*communication/update rule*, not in their step structure, so the loop now
lives here exactly once:

```
stage data -> local compute -> communicate -> apply update
          -> snapshot / trace / fault hooks
```

The engine vocabulary:

- :class:`StepPipeline` owns step sequencing: the clock-driven iteration
  loop (synchronous families), the discrete-event loop (asynchronous
  parameter-server families), the simulated clock, the
  :class:`~repro.algorithms.base.TimeBreakdown`, the trajectory records,
  and :class:`~repro.algorithms.base.RunResult` assembly.
- :class:`EvalPolicy` owns the evaluation cadence and trajectory
  snapshot/early-stop logic every trainer used to copy by hand.
- :class:`ClockStepStrategy` / :class:`EventStepStrategy` are the two
  step shapes a family plugs into the pipeline.
- :class:`SyncStep` is the one clock step every synchronous family runs:
  a family is the (:class:`UpdateRule`, :class:`CommStrategy`) pair its
  trainer hands it.
- :class:`CommStrategy` is a family's communication model: what an
  iteration costs on the simulated hardware and which trace spans it
  emits.
- :class:`UpdateRule` is a family's parameter-update mathematics
  (synchronous elastic averaging, mean-gradient SGD, round-robin
  elastic exchange, gossip averaging; the async parameter-server
  interactions are the rows of :data:`PS_FAMILIES`).
- :class:`SyncFaultTracker` is the shared crash/rejoin/tree-rebuild
  bookkeeping of the synchronous families.
- :func:`rank_steps` sequences the rank programs (one loop per rank, not
  per run); :func:`~repro.engine.rank_loop.sync_rank_program` runs every
  synchronous family's :class:`UpdateRule` on real ranks.
"""

from repro.engine.compute import gather_gradients, jittered_fwdbwd
from repro.engine.faults import SyncFaultTracker
from repro.engine.pipeline import run_training, StepPipeline
from repro.engine.policy import EvalPolicy
from repro.engine.ps import (
    AccumGradWorkerRule,
    AdagServerStore,
    CenterStore,
    DeltaServerStore,
    ElasticCenterStore,
    ElasticMomentumWorkerRule,
    ElasticPullWorkerRule,
    ElasticWorkerRule,
    FreshPullWorkerRule,
    GossipStore,
    LocalSgdWorkerRule,
    PS_FAMILIES,
    PsFamily,
    SgdServerStore,
    StalenessBound,
    UnsupportedOptionError,
    WorkerRule,
)
from repro.engine.rank_loop import rank_steps
from repro.engine.strategy import (
    ClockStepStrategy,
    CommStrategy,
    EventStepStrategy,
    GossipUpdate,
    MeanGradientUpdate,
    RoundRobinElasticUpdate,
    StepStrategy,
    SyncElasticUpdate,
    UpdateRule,
)
from repro.engine.sync import SyncStep

__all__ = [
    "StepPipeline",
    "run_training",
    "EvalPolicy",
    "StepStrategy",
    "ClockStepStrategy",
    "EventStepStrategy",
    "CommStrategy",
    "UpdateRule",
    "SyncStep",
    "SyncElasticUpdate",
    "RoundRobinElasticUpdate",
    "MeanGradientUpdate",
    "GossipUpdate",
    "CenterStore",
    "ElasticCenterStore",
    "SgdServerStore",
    "DeltaServerStore",
    "AdagServerStore",
    "GossipStore",
    "WorkerRule",
    "ElasticWorkerRule",
    "ElasticMomentumWorkerRule",
    "ElasticPullWorkerRule",
    "FreshPullWorkerRule",
    "LocalSgdWorkerRule",
    "AccumGradWorkerRule",
    "StalenessBound",
    "PsFamily",
    "PS_FAMILIES",
    "UnsupportedOptionError",
    "SyncFaultTracker",
    "gather_gradients",
    "jittered_fwdbwd",
    "rank_steps",
]
