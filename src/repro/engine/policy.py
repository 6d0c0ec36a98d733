"""Evaluation cadence and trajectory snapshots, hoisted out of trainers.

Every trainer family used to end its iteration with the same copied
block::

    if t % cfg.eval_every == 0 or t == iterations:
        acc = self.evaluate_params(vec)
        records.append(TrainRecord(t, sim_time, last_loss, acc))
        if self.should_stop(acc):
            break

:class:`EvalPolicy` is that block. The pipeline asks :meth:`due` after
every completed step and :meth:`snapshot` when it answers yes; the stop
predicate (``train_to_accuracy``'s target) still lives on the trainer,
the policy merely consults it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.algorithms.base import TrainRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.pipeline import StepPipeline

__all__ = ["EvalPolicy"]


@dataclass
class EvalPolicy:
    """When to snapshot the trajectory, and what one snapshot does."""

    every: int

    def due(self, t: int, iterations: int) -> bool:
        """Snapshot at the cadence boundary and always at the final step."""
        return t % self.every == 0 or t == iterations

    def snapshot(self, pipeline: "StepPipeline", t: int) -> bool:
        """Evaluate, record a trajectory point, and report early-stop.

        The params are :meth:`StepPipeline.eval_view`, which is
        ``strategy.eval_params()``: the live vector, read between steps,
        when no writer is active. A serving publish copies the same bits
        out of it, so an attached serving tier leaves the trajectory
        unchanged.
        """
        trainer = pipeline.trainer
        acc = trainer.evaluate_params(pipeline.eval_view())
        pipeline.records.append(
            TrainRecord(t, pipeline.sim_time, pipeline.strategy.last_loss, acc)
        )
        return trainer.should_stop(acc)
