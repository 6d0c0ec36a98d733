"""The step pipeline: one loop for every trainer family.

:class:`StepPipeline` owns everything the bespoke ``train()`` loops used
to duplicate — the iteration/event loop itself, the simulated clock, the
:class:`~repro.algorithms.base.TimeBreakdown`, the trajectory records,
the :class:`~repro.engine.policy.EvalPolicy` cadence, and
:class:`~repro.algorithms.base.RunResult` assembly. A trainer family
contributes only a step strategy (see :mod:`repro.engine.strategy`).

Two loop shapes cover all families:

- ``clock``: synchronous trainers advance the clock by a closed-form
  per-iteration time (:class:`ClockStepStrategy`).
- ``events``: the asynchronous parameter-server simulation pops events
  until one completes a logical step (:class:`EventStepStrategy`).

Durability rides on the same seam: when a
:class:`~repro.durability.CheckpointManager` is attached, the pipeline
saves the *complete* run state (strategy arrays + meta, trajectory
records, breakdown, fault log, trace events, hidden network RNG/EMA
state) at the checkpoint cadence, and ``run(..., resume=True)`` rebuilds
structure via ``begin()`` then overwrites its state from the newest
valid checkpoint — bit-identical continuation is a tested invariant.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import RunResult, TimeBreakdown, TrainRecord
from repro.engine.policy import EvalPolicy
from repro.engine.strategy import ClockStepStrategy, EventStepStrategy, StepStrategy
from repro.trace.events import MASTER, TraceEvent
from repro.util.blas import blas_threads

__all__ = ["StepPipeline", "run_training"]


class StepPipeline:
    """Drives one training run of ``trainer`` through its step strategy."""

    def __init__(self, trainer, strategy: StepStrategy, checkpointer=None,
                 snapshotter=None) -> None:
        self.trainer = trainer
        self.strategy = strategy
        self.policy = EvalPolicy(every=trainer.config.eval_every)
        self.breakdown = TimeBreakdown()
        self.records: List[TrainRecord] = []
        self.sim_time = 0.0
        #: Optional :class:`repro.durability.CheckpointManager`.
        self.checkpointer = checkpointer
        #: Optional :class:`repro.serving.ModelSnapshotter`.  When set,
        #: every completed step publishes (or heartbeats) the strategy's
        #: packed eval vector for the serving tier — a bounded memcpy on
        #: the training side, never a lock.
        self.snapshotter = snapshotter

    def _publish(self, t: int) -> None:
        if self.snapshotter is not None:
            self.snapshotter.on_step(self.strategy.eval_params(), t, self.sim_time)

    def eval_view(self, t: int) -> np.ndarray:
        """The packed params to evaluate at step ``t``, torn-free.

        With a snapshotter attached, the step-``t`` publish already put
        these exact bits behind a seqlock — read them back through the
        guard so the eval path can never observe a half-written vector
        (float32→float32 round-trips bit-exactly, so trajectories are
        identical with and without serving attached).  Without one, hand
        back the strategy's live reference: the pipeline is between
        steps, when no writer is active.
        """
        ref = self.strategy.eval_params()
        snap = self.snapshotter
        if snap is not None and snap.buffer.step == t and ref.dtype == np.float32:
            params, step, _ = snap.buffer.read()
            if step == t and params.size == ref.size:
                return params
        return ref

    def run(self, iterations: int, resume: bool = False) -> RunResult:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        strategy = self.strategy
        strategy.begin(self)
        try:
            start = self._restore() if resume else 0
            if isinstance(strategy, EventStepStrategy):
                self._run_events(strategy, iterations, start)
            else:
                self._run_clock(strategy, iterations, start)
        except BaseException:
            # Flush queued writes but never let a background write error
            # mask the exception already propagating.
            if self.checkpointer is not None:
                self.checkpointer.drain(raise_errors=False)
            strategy.cleanup(self)
            raise
        if self.checkpointer is not None:
            self.checkpointer.drain()
        strategy.cleanup(self)
        strategy.end(self)
        return self._assemble()

    # -- the two loop shapes ---------------------------------------------------
    def _run_clock(self, strategy: ClockStepStrategy, iterations: int,
                   start: int) -> None:
        for t in range(start + 1, iterations + 1):
            self.sim_time += strategy.step(self, t)
            self._publish(t)
            stop = False
            if self.policy.due(t, iterations):
                stop = self.policy.snapshot(self, t)
            if self.checkpointer is not None and self.checkpointer.due(t):
                self._save_checkpoint(t)
            if stop:
                break

    def _run_events(self, strategy: EventStepStrategy, iterations: int,
                    start: int) -> None:
        t = start
        while t < iterations and strategy.pending():
            if not strategy.advance(self, t + 1):
                continue
            t += 1
            self._publish(t)
            stop = False
            if self.policy.due(t, iterations):
                stop = self.policy.snapshot(self, t)
            if self.checkpointer is not None and self.checkpointer.due(t):
                self._save_checkpoint(t)
            if stop:
                break
        strategy.on_drained(self, t)
        if not self.records or self.records[-1].iteration != t:
            # Fault-truncated run (queue drained mid-stride): snapshot the
            # final state so the degraded trajectory is still analyzable.
            self.policy.snapshot(self, t)
        strategy.on_complete(self, t)

    # -- durability ------------------------------------------------------------
    def _save_checkpoint(self, t: int) -> None:
        trainer = self.trainer
        # The trace mark goes in *before* capture so the checkpoint's own
        # marker is part of the saved stream — a straight run and a
        # resumed run then serialize identical traces. Its payload is the
        # deterministic array volume; the wall-clock write cost goes to
        # extras only, never into compared numerics.
        state = self.strategy.state_dict()
        # Detach the arrays: the strategy hands out live buffers, and the
        # background writer serializes while later steps mutate them.
        arrays: Dict[str, np.ndarray] = {
            name: np.array(a, copy=True) for name, a in state["arrays"].items()
        }
        if trainer.trace is not None:
            nbytes = int(sum(a.nbytes for a in arrays.values()))
            trainer.trace.span("mark", MASTER, self.sim_time, self.sim_time,
                               op="checkpoint", nbytes=nbytes, iteration=t)
        self.checkpointer.save_async(t, arrays, self._capture_meta(t, state["meta"]))

    def _capture_meta(self, t: int, strategy_meta: Dict) -> Dict:
        from repro.durability.state import (
            network_stochastic_state,
            platform_jitter_state,
        )

        trainer = self.trainer
        return {
            "step": int(t),
            "sim_time": self.sim_time,
            "records": [
                (r.iteration, r.sim_time, r.train_loss, r.test_accuracy)
                for r in self.records
            ],
            "breakdown": {
                "parts": dict(self.breakdown.parts),
                "degraded_rounds": self.breakdown.degraded_rounds,
            },
            "strategy": strategy_meta,
            "fault_log": [
                (r.time, r.kind, r.subject, r.detail)
                for r in trainer.fault_log.records
            ],
            "network": network_stochastic_state(trainer.net),
            "jitter": platform_jitter_state(getattr(trainer, "platform", None)),
            "trace": (
                [e.to_dict() for e in trainer.trace.events]
                if trainer.trace is not None else None
            ),
        }

    def _restore(self) -> int:
        """Overwrite begun state from the newest valid checkpoint.

        ``begin()`` has already rebuilt all structure deterministically;
        this replaces its state wholesale (including the trace events and
        fault records ``begin`` just emitted). Returns the step to
        continue after.
        """
        from repro.durability.checkpoint import require_configured
        from repro.durability.state import (
            restore_network_stochastic_state,
            restore_platform_jitter_state,
        )

        data = require_configured(self.checkpointer).load_latest()
        meta = data.meta
        trainer = self.trainer
        self.sim_time = float(meta["sim_time"])
        self.records[:] = [TrainRecord(*rec) for rec in meta["records"]]
        self.breakdown.parts.update(meta["breakdown"]["parts"])
        self.breakdown.degraded_rounds = int(meta["breakdown"]["degraded_rounds"])
        self.strategy.load_state_dict({"arrays": data.arrays,
                                       "meta": meta["strategy"]})
        restore_network_stochastic_state(trainer.net, meta["network"])
        if meta["jitter"]:
            restore_platform_jitter_state(trainer.platform, meta["jitter"])
        log = trainer.fault_log
        log.reset()
        for rec in meta["fault_log"]:
            log.record(*rec)
        if trainer.trace is not None and meta["trace"] is not None:
            trainer.trace.events[:] = [
                TraceEvent.from_dict(d) for d in meta["trace"]
            ]
        return int(meta["step"])

    # -- result assembly -------------------------------------------------------
    def _assemble(self) -> RunResult:
        trainer = self.trainer
        records = self.records
        final_acc = records[-1].test_accuracy if records else 0.0
        extras = dict(self.strategy.extras())
        # The BLAS thread budget the run computed under (None: an unknown
        # BLAS), so a measurement states what it ran on.
        extras["blas_threads"] = blas_threads()
        if self.checkpointer is not None:
            stats = self.checkpointer.stats
            # Observable durability overhead. Wall-clock cost lives here
            # (and only here): bit-identity comparisons must exclude the
            # checkpoint_* keys, which necessarily differ across a
            # straight run and a killed-and-resumed one.
            extras["checkpoint_writes"] = stats["writes"]
            extras["checkpoint_bytes"] = stats["bytes"]
            extras["checkpoint_write_seconds"] = stats["seconds"]
        return RunResult(
            method=trainer.name,
            records=records,
            breakdown=self.breakdown,
            iterations=records[-1].iteration if records else 0,
            sim_time=self.sim_time,
            final_accuracy=final_acc,
            extras=extras,
            fault_log=trainer.fault_log if trainer.faults is not None else None,
            trace=trainer.trace,
            backend=self.strategy.run_backend,
        )


def _make_checkpointer(trainer) -> Optional[object]:
    """Build the run's CheckpointManager from TrainerConfig, if configured."""
    cfg = trainer.config
    if cfg.checkpoint_dir is None:
        return None
    from repro.durability import CheckpointManager
    from repro.nn.serialize import structure_fingerprint

    return CheckpointManager(
        cfg.checkpoint_dir,
        every=cfg.checkpoint_every,
        keep=cfg.checkpoint_keep,
        fingerprint=structure_fingerprint(trainer.net),
    )


def run_training(trainer, iterations: int, resume: bool = False,
                 snapshotter=None, strategy: Optional[StepStrategy] = None) -> RunResult:
    """Run ``trainer`` for ``iterations`` steps through the pipeline.

    ``snapshotter`` attaches a serving-tier
    :class:`~repro.serving.ModelSnapshotter`: each completed step then
    publishes the packed eval vector for concurrent inference readers.
    ``strategy`` is the step strategy to drive when the caller holds
    something ``trainer.make_step()`` cannot know (a rank context).
    """
    if strategy is None:
        strategy = trainer.make_step()
    pipeline = StepPipeline(trainer, strategy,
                            checkpointer=_make_checkpointer(trainer),
                            snapshotter=snapshotter)
    return pipeline.run(iterations, resume=resume)
