"""Shared trainer machinery: config, metrics records, time breakdown.

Every trainer runs *real numerics* (the actual update equations on real
NumPy weights, real batches, real test accuracy) while charging a simulated
clock through a :class:`repro.cluster.platform.GpuPlatform`. A run yields a
:class:`RunResult`: the accuracy-vs-simulated-time trajectory (Figures 6/8),
the per-part time breakdown (Table 3 / Figure 11), and totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cost import CostModel
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.faults import FaultLog, FaultPlan
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.trace.events import Trace

__all__ = [
    "TrainerConfig",
    "TrainRecord",
    "TimeBreakdown",
    "RunResult",
    "BaseTrainer",
    "BREAKDOWN_PARTS",
    "COMM_PARTS",
]

#: Table 3's eight time-consuming parts, minus I/O and initialization which
#: the paper ignores ("they only cost a tiny percent of time").
BREAKDOWN_PARTS = (
    "gpu-gpu para",
    "cpu-gpu data",
    "cpu-gpu para",
    "for/backward",
    "gpu update",
    "cpu update",
)

#: The parts the paper counts as communication when quoting "87% -> 14%".
COMM_PARTS = ("gpu-gpu para", "cpu-gpu data", "cpu-gpu para")

#: Fraction of overlappable work actually hidden when two things run side
#: by side: a collective beside the stage+compute path (Sync EASGD3,
#: Algorithm 4, the GPU cluster), or the master's Eq 2 beside a worker's
#: Eq 1 (Original EASGD). A free parameter (docs/calibration.md).
OVERLAP_EFFICIENCY = 0.7


@dataclass
class TrainerConfig:
    """Hyperparameters shared by all trainers.

    ``lr * rho`` is the elastic step (must be in (0,1), checked by
    :class:`repro.optim.easgd.EASGDHyper`). ``eval_every``/``eval_samples``
    control how often and on how much of the test set accuracy snapshots are
    taken along the trajectory.

    Only what the shared pipeline reads lives here. A knob one trainer
    reads is that trainer's constructor argument — e.g.
    ``SyncSGDTrainer(collective="ring")`` or
    ``ChipPartitionTrainer(backend="processes")`` — so
    :func:`repro.algorithms.make_trainer` can refuse it by name anywhere
    else.
    """

    batch_size: int = 64
    lr: float = 0.05
    rho: float = 2.0
    mu: float = 0.9
    seed: int = 0
    eval_every: int = 50
    eval_samples: int = 512
    #: Record a structured communication trace (repro.trace) for the run.
    #: Off by default: the hot path then allocates no TraceEvent at all.
    trace: bool = False
    #: Durable runs (repro.durability): save a crash-safe checkpoint of the
    #: full pipeline state every N completed steps (0 = off). Requires
    #: ``checkpoint_dir``. Like tracing, this never changes run numerics.
    checkpoint_every: int = 0
    #: Directory holding the run's versioned checkpoint store.
    checkpoint_dir: Optional[str] = None
    #: Retention: how many newest checkpoint versions survive pruning.
    checkpoint_keep: int = 3

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.eval_samples <= 0:
            raise ValueError("eval_samples must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be at least 1")
        if self.checkpoint_every > 0 and self.checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")


@dataclass(frozen=True)
class TrainRecord:
    """One trajectory point: state of the run at a simulated instant."""

    iteration: int
    sim_time: float
    train_loss: float
    test_accuracy: float


class TimeBreakdown:
    """Accumulator for Table 3's per-part simulated seconds.

    ``degraded_rounds`` counts iterations executed in degraded mode (some
    worker dead, evicted, or retransmitting) — it is bookkeeping next to,
    not inside, the per-part seconds so Table 3 renderings are unchanged.
    """

    def __init__(self) -> None:
        self.parts: Dict[str, float] = {p: 0.0 for p in BREAKDOWN_PARTS}
        self.degraded_rounds: int = 0

    def mark_degraded(self, rounds: int = 1) -> None:
        """Count ``rounds`` iterations that ran with a degraded worker pool."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.degraded_rounds += rounds

    def add(self, part: str, seconds: float) -> None:
        if part not in self.parts:
            raise KeyError(f"unknown breakdown part {part!r}; expected one of {BREAKDOWN_PARTS}")
        if seconds < 0:
            raise ValueError("cannot add negative time")
        self.parts[part] += seconds

    @property
    def total(self) -> float:
        return sum(self.parts.values())

    @property
    def comm_seconds(self) -> float:
        return sum(self.parts[p] for p in COMM_PARTS)

    @property
    def comm_ratio(self) -> float:
        """Fraction of total time spent in communication (the 87% -> 14% figure)."""
        total = self.total
        return self.comm_seconds / total if total > 0 else 0.0

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {p: 0.0 for p in self.parts}
        return {p: v / total for p, v in self.parts.items()}


@dataclass
class RunResult:
    """Everything one training run produced."""

    method: str
    records: List[TrainRecord]
    breakdown: TimeBreakdown
    iterations: int
    sim_time: float
    final_accuracy: float
    reached_target: Optional[bool] = None
    extras: Dict[str, float] = field(default_factory=dict)
    #: Structured record of every injected/detected fault event, present
    #: when the run executed under a :class:`repro.faults.FaultPlan`.
    fault_log: Optional[FaultLog] = None
    #: Per-message communication trace, present when the run was configured
    #: with ``TrainerConfig(trace=True)``.
    trace: Optional[Trace] = None
    #: Execution substrate that produced the run, set by runners that move
    #: real messages ("threads" / "processes"); None for simulated runs.
    backend: Optional[str] = None

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Simulated seconds until test accuracy first reached ``target``."""
        for rec in self.records:
            if rec.test_accuracy >= target:
                return rec.sim_time
        return None

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, accuracies) arrays for plotting accuracy vs time."""
        times = np.array([r.sim_time for r in self.records])
        accs = np.array([r.test_accuracy for r in self.records])
        return times, accs


class BaseTrainer:
    """Common state: datasets, the evaluation network, metric recording.

    Subclasses implement ``make_step()``, returning the step strategy the
    shared :class:`repro.engine.StepPipeline` drives. ``train_to_accuracy``
    wraps ``train`` for the Table 3 protocol ("same accuracy 98.8%"): run
    until a target accuracy is reached or the iteration cap hits.
    """

    name = "base"

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.net = network
        self.train_set = train_set
        self.test_set = test_set
        self.config = config
        self.cost = cost_model or CostModel.from_network(network)
        self.loss = SoftmaxCrossEntropy()
        #: The fault schedule this trainer runs under (None = healthy run).
        self.faults = faults
        #: Refreshed at the start of every ``train()`` call so per-run logs
        #: from identical plans compare equal.
        self.fault_log = FaultLog()
        #: Refreshed per ``train()`` call when ``config.trace`` is on.
        self.trace: Optional[Trace] = None

        n_eval = min(config.eval_samples, len(test_set))
        self._eval_images = test_set.images[:n_eval]
        self._eval_labels = test_set.labels[:n_eval]
        #: When set, training loops stop at the first evaluation point whose
        #: accuracy reaches this value (the Table 3 protocol).
        self._stop_accuracy: Optional[float] = None

    # -- helpers for subclasses ------------------------------------------------
    def make_trace(self, ranks: int, **meta) -> Optional[Trace]:
        """A fresh per-run trace, or None when tracing is off.

        Subclasses call this at the top of ``train()`` and stamp the
        metadata the invariant checks dispatch on (``pattern``, ``packed``,
        ``variant``, ...). The None return is the zero-overhead contract:
        every emission site guards on it.
        """
        if not self.config.trace:
            self.trace = None
            return None
        trace = Trace(meta={"method": self.name, "ranks": ranks, "clock": "simulated", **meta})
        self.trace = trace
        return trace

    def make_sampler(self, consumer: object) -> BatchSampler:
        """Independent seeded sampler for one worker/master."""
        return BatchSampler(
            self.train_set, self.config.batch_size, self.config.seed, name=consumer
        )

    def evaluate_params(self, params: np.ndarray) -> float:
        """Test accuracy of a packed parameter vector (inference mode)."""
        saved = self.net.get_params()
        self.net.set_params(params)
        acc = self.net.evaluate(self._eval_images, self._eval_labels)
        self.net.set_params(saved)
        return acc

    def should_stop(self, accuracy: float) -> bool:
        """Early-stop predicate trainers consult at every evaluation point."""
        return self._stop_accuracy is not None and accuracy >= self._stop_accuracy

    # -- public API --------------------------------------------------------------
    def make_step(self):
        """The family's step strategy (see :mod:`repro.engine.strategy`)."""
        raise NotImplementedError

    def train(self, iterations: int, resume: bool = False,
              snapshotter=None) -> RunResult:
        """Run ``iterations`` steps through the shared step pipeline.

        All step sequencing (the loop, the clock, eval snapshots, result
        assembly) lives in :mod:`repro.engine`; subclasses contribute only
        their step strategy via :meth:`make_step`. With ``resume=True``
        the run continues from the newest valid checkpoint under
        ``config.checkpoint_dir`` instead of from scratch, bit-identically
        to a run that was never interrupted. ``snapshotter`` attaches a
        serving-tier publisher (see :mod:`repro.serving`).
        """
        # Late import: repro.engine depends on this module's dataclasses.
        from repro.engine import run_training

        return run_training(self, iterations, resume=resume,
                            snapshotter=snapshotter)

    def train_to_accuracy(self, target: float, max_iterations: int) -> RunResult:
        """Run until test accuracy >= target (checked at trajectory points).

        Training stops at the first evaluation point that meets the target
        (the paper's "time to the same accuracy" protocol); ``reached_target``
        records whether it happened within ``max_iterations``.
        """
        self._stop_accuracy = target
        try:
            result = self.train(max_iterations)
        finally:
            self._stop_accuracy = None
        hit_time = result.time_to_accuracy(target)
        if hit_time is None:
            result.reached_target = False
            return result
        result.reached_target = True
        for rec in result.records:
            if rec.test_accuracy >= target:
                result.sim_time = rec.sim_time
                result.iterations = rec.iteration
                result.final_accuracy = rec.test_accuracy
                break
        # Scale the breakdown down to the truncated window so comm ratios
        # refer to the time actually needed to reach the target.
        if result.breakdown.total > 0 and result.sim_time < result.breakdown.total:
            scale = result.sim_time / result.breakdown.total
            for part in result.breakdown.parts:
                result.breakdown.parts[part] *= scale
        return result
