"""The synchronous iteration, written once.

The clock-driven families differ in their update mathematics and their
wire pattern, not in the shape of an iteration::

    fault prologue -> rule picks who computes -> gather -> rule.apply
                   -> jitter -> comm.charge -> comm.emit

A family is the :class:`~repro.engine.strategy.UpdateRule` and the
:class:`~repro.engine.strategy.CommStrategy` its trainer hands over; the
per-run plumbing — replicas, samplers, fault tracker, trace, the
checkpoint protocol, the fault counters — lives here.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.engine.compute import gather_gradients, jittered_fwdbwd
from repro.engine.faults import SyncFaultTracker
from repro.engine.strategy import ClockStepStrategy, CommStrategy, UpdateRule
from repro.faults import FaultLog

__all__ = ["SyncStep"]


class SyncStep(ClockStepStrategy):
    """One clock-driven iteration of ``rule`` over ``comm``.

    ``sampler_label`` names the per-worker batch streams; the trainers
    that predate the shared step drew theirs under different labels, and
    the label is part of a run's trajectory.
    """

    def __init__(self, trainer, rule: UpdateRule, comm: CommStrategy,
                 sampler_label: str = "worker") -> None:
        self.trainer = trainer
        self.rule = rule
        self.comm = comm
        self.sampler_label = sampler_label

    def begin(self, pipeline) -> None:
        tr, rule, comm = self.trainer, self.rule, self.comm
        ranks = comm.ranks
        self.state = rule.init_state(tr.net.get_params(), ranks)
        self.replicas = rule.replicas(self.state)
        self.keep = partial(rule.keep, self.state)
        self.samplers = [tr.make_sampler((self.sampler_label, j)) for j in range(ranks)]
        if comm.trace_meta is not None:
            tr.make_trace(ranks, **comm.trace_meta)
        # Fault machinery: a crash removes a rank from the group (a tree
        # or allreduce is rebuilt over the survivors instead of
        # deadlocking); a rejoining rank catches up the rule's way first.
        log = tr.fault_log = FaultLog()
        self.tracker = SyncFaultTracker(
            tr.faults, log, ranks, tr.name,
            rejoin_note=rule.rejoin_note,
            restore=partial(rule.restore, self.state),
            on_resize=comm.retime if comm.resize_label is not None else None,
            resize_label=comm.resize_label,
        )
        self._load_shared_weights()

    def _load_shared_weights(self) -> None:
        """A rule without replicas computes at the weights *in the net*."""
        if self.replicas is None:
            self.trainer.net.set_params(self.rule.eval_params(self.state))

    def step(self, pipeline, t: int) -> float:
        tr = self.trainer
        live = self.tracker.prologue(pipeline, t)
        active = self.rule.active(t, live)

        # --- numerics ----------------------------------------------------
        grads, losses = gather_gradients(tr, self.samplers, active, self.replicas, self.keep)
        self.last_loss = self.rule.apply(self.state, grads, losses, active, live, t)
        self._load_shared_weights()

        # --- simulated time (jitter: the workers that computed only) -----
        fwdbwd_each = jittered_fwdbwd(
            tr.platform, tr.cost, tr.config.batch_size, active, tr.faults,
            pipeline.sim_time,
        )
        iter_time = self.comm.charge(pipeline, t, active, fwdbwd_each)
        if tr.trace is not None:
            self.comm.emit(tr.trace, t, pipeline.sim_time, active, fwdbwd_each, iter_time)
        return iter_time

    def eval_params(self) -> np.ndarray:
        return self.rule.eval_params(self.state)

    def state_dict(self) -> Dict:
        return {
            "arrays": dict(self.state),
            "meta": {
                "last_loss": self.last_loss,
                "samplers": [s.get_state() for s in self.samplers],
                "tracker": self.tracker.state_dict(),
                "rule": self.rule.meta(),
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        arrays, meta = state["arrays"], state["meta"]
        for name, array in self.state.items():
            array[...] = arrays[name]
        for sampler, st in zip(self.samplers, meta["samplers"]):
            sampler.set_state(st)
        self.last_loss = meta["last_loss"]
        self.rule.load_meta(meta["rule"])
        # Restoring the tracker re-fires comm.retime if the saved run was
        # mid-degradation, so the collective is costed for the survivors.
        self.tracker.load_state_dict(meta["tracker"])
        self._load_shared_weights()

    def extras(self) -> Dict[str, float]:
        if self.trainer.faults is None:
            return {}
        return {
            "degraded_rounds": float(self.tracker.degraded_rounds),
            "tree_rebuilds": float(self.tracker.rebuilds),
            "workers_rejoined": float(self.tracker.rejoined),
        }
