"""The classic parameter-server zoo on the engine's PS protocol layer.

Five families beyond the paper's own methods. Four are centered — DOWNPOUR
SGD (Dean et al., NIPS 2012), ADAG (accumulated-gradient asynchronous
SGD), EAMSGD (Zhang, Choromanska & LeCun, NIPS 2015) and bounded-async
EASGD (Async EASGD under a :class:`repro.engine.ps.StalenessBound`) — and
are nothing but rows of :data:`repro.engine.ps.PS_FAMILIES` bound to the
one asynchronous trainer; their mathematics is documented on the rows'
stores and rules.

The fifth has no center, so it is the one family with code here: **Gossip
SGD** (Jin et al. / Blot et al. style). Each round every worker takes one
local SGD step, then deterministic tournament pairs
(:func:`repro.comm.topology.gossip_pairs`) average pairwise on a
:class:`repro.engine.ClockStepStrategy`; the consensus mean stands in for
the center at evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.async_ps import AsyncPSTrainer
from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.comm.topology import gossip_pairs
from repro.data.dataset import Dataset
from repro.engine.compute import jittered_fwdbwd
from repro.engine.faults import SyncFaultTracker
from repro.engine.ps import GossipStore, PS_FAMILIES
from repro.engine.strategy import ClockStepStrategy
from repro.faults import FaultLog, FaultPlan
from repro.nn.network import Network

__all__ = [
    "DownpourTrainer",
    "AdagTrainer",
    "EamsgdTrainer",
    "GossipSGDTrainer",
    "BoundedAsyncEasgdTrainer",
]


class DownpourTrainer(AsyncPSTrainer):
    """DOWNPOUR SGD: local SGD bursts, raw weight-delta pushes, fresh pulls."""

    row = PS_FAMILIES["downpour"]


class AdagTrainer(AsyncPSTrainer):
    """ADAG: accumulate gradients while stepping locally; server applies /P."""

    row = PS_FAMILIES["adag"]


class EamsgdTrainer(AsyncPSTrainer):
    """EAMSGD: local momentum SGD between purely-elastic exchanges (Eqs 5-6)."""

    row = PS_FAMILIES["eamsgd"]


class BoundedAsyncEasgdTrainer(AsyncPSTrainer):
    """Async EASGD under a hard staleness bound (reject or clip policy)."""

    row = PS_FAMILIES["bounded-async-easgd"]


class _GossipStep(ClockStepStrategy):
    """One gossip round: local SGD everywhere, tournament pairs average."""

    def __init__(self, trainer: "GossipSGDTrainer") -> None:
        self.trainer = trainer

    def begin(self, pipeline) -> None:
        tr = self.trainer
        g = self.g = tr.platform.num_gpus
        cfg = tr.config
        init = tr.net.get_params()
        self.replicas: List[np.ndarray] = [init.copy() for _ in range(g)]
        self.consensus = init.copy()
        self.samplers = [tr.make_sampler(("worker", j)) for j in range(g)]
        self.store = GossipStore().bind_replicas(self.replicas)
        self.stage_t = tr.platform.stage_batch_time(tr.cost, cfg.batch_size)
        self.exch_t = tr.platform.gpu_gpu_param_time(tr.cost, packed=True)
        self.upd_t = tr.platform.gpu_update_time(tr.cost)
        plan_msgs = tr.platform.param_plan(tr.cost, packed=True)
        self.nb = plan_msgs.total_bytes
        tr.make_trace(
            g,
            pattern="gossip",
            packed=True,
            messages_per_exchange=1,
        )
        log = tr.fault_log = FaultLog()
        self.tracker = SyncFaultTracker(
            tr.faults, log, g, tr.name,
            rejoin_note="re-pulled consensus mean",
            restore=self._restore,
        )

    def _restore(self, j: int) -> None:
        """A rejoiner adopts the current consensus mean (its checkpoint)."""
        self.replicas[j][...] = self.consensus

    def step(self, pipeline, t: int) -> float:
        tr = self.trainer
        cfg = tr.config
        live = self.tracker.prologue(pipeline, t)
        live_set = set(live)

        # Local SGD step on every live replica.
        losses = []
        for j in live:
            images, labels = self.samplers[j].next_batch()
            tr.net.set_params(self.replicas[j])
            losses.append(tr.net.gradient(images, labels, tr.loss))
            self.replicas[j] -= cfg.lr * tr.net.grads
        self.last_loss = float(np.mean(losses))

        # Deterministic tournament pairing; pairs with a dead peer skip.
        pairs = [
            (a, b) for a, b in gossip_pairs(t, self.g)
            if a in live_set and b in live_set
        ]
        for a, b in pairs:
            self.store.mix(a, b)
        self.store.consensus_into(self.consensus, live)

        # --- simulated time & trace ------------------------------------
        fwdbwd_each = jittered_fwdbwd(
            tr.platform, tr.cost, cfg.batch_size, live, tr.faults,
            pipeline.sim_time,
        )
        fwdbwd_max = max(fwdbwd_each)
        exch = self.exch_t if pairs else 0.0
        iter_time = self.stage_t + fwdbwd_max + exch + self.upd_t
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add("for/backward", fwdbwd_max)
        breakdown.add("gpu-gpu para", exch)
        breakdown.add("gpu update", self.upd_t)

        trace = tr.trace
        if trace is not None:
            T = pipeline.sim_time
            t_stage = T + self.stage_t
            t_comp = t_stage + fwdbwd_max
            t_done = t_comp + exch
            for j, fwd in zip(live, fwdbwd_each):
                trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
                trace.span("compute", j, t_stage, t_stage + fwd, op="fwd-bwd",
                           iteration=t)
            for a, b in pairs:
                for src, dst in ((a, b), (b, a)):
                    trace.send(src, dst, t_comp, t_done, tag=0, nbytes=self.nb,
                               seq=t, op="gossip-exchange", iteration=t)
                    trace.recv(dst, src, t_comp, t_done, tag=0, nbytes=self.nb,
                               seq=t, op="gossip-exchange", iteration=t)
                for j in (a, b):
                    trace.span("update", j, t_done, t_done + self.upd_t,
                               op="gossip-avg", iteration=t)
        return iter_time

    def eval_params(self) -> np.ndarray:
        return self.consensus

    def state_dict(self) -> Dict:
        arrays = {"consensus": self.consensus}
        for j, w in enumerate(self.replicas):
            arrays[f"replica-{j}"] = w
        return {
            "arrays": arrays,
            "meta": {
                "last_loss": self.last_loss,
                "samplers": [s.get_state() for s in self.samplers],
                "tracker": self.tracker.state_dict(),
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        arrays, meta = state["arrays"], state["meta"]
        self.consensus[...] = arrays["consensus"]
        for j, w in enumerate(self.replicas):
            w[...] = arrays[f"replica-{j}"]
        for sampler, st in zip(self.samplers, meta["samplers"]):
            sampler.set_state(st)
        self.last_loss = meta["last_loss"]
        self.tracker.load_state_dict(meta["tracker"])

    def extras(self) -> Dict[str, float]:
        if self.trainer.faults is None:
            return {}
        return {"degraded_rounds": float(self.tracker.degraded_rounds)}


class GossipSGDTrainer(BaseTrainer):
    """Decentralized gossip SGD: pairwise averaging, no parameter server."""

    name = "Gossip SGD"

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        self.platform = platform

    def make_step(self) -> _GossipStep:
        return _GossipStep(self)
