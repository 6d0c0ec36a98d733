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
(:func:`repro.comm.topology.gossip_pairs`) average pairwise — the
:class:`~repro.engine.GossipUpdate` rule on the shared
:class:`repro.engine.SyncStep`, costed by the pairwise-exchange model
below; the consensus mean stands in for the center at evaluation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.async_ps import AsyncPSTrainer
from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.data.dataset import Dataset
from repro.engine.ps import PS_FAMILIES
from repro.engine.strategy import CommStrategy, GossipUpdate, live_gossip_pairs
from repro.engine.sync import SyncStep
from repro.faults import FaultPlan
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


class _GossipComm(CommStrategy):
    """One gossip round's cost: local step everywhere, one pairwise exchange."""

    def __init__(self, trainer: "GossipSGDTrainer") -> None:
        tr = trainer
        self.ranks = tr.platform.num_gpus
        self.stage_t = tr.platform.stage_batch_time(tr.cost, tr.config.batch_size)
        self.exch_t = tr.platform.gpu_gpu_param_time(tr.cost, packed=True)
        self.upd_t = tr.platform.gpu_update_time(tr.cost)
        self.nb = tr.platform.param_plan(tr.cost, packed=True).total_bytes
        self.trace_meta = dict(pattern="gossip", packed=True, messages_per_exchange=1)

    def _exchange(self, t: int, active: List[int]):
        """The round's live pairs and what their (concurrent) exchange costs."""
        pairs = live_gossip_pairs(t, self.ranks, active)
        return pairs, (self.exch_t if pairs else 0.0)

    def charge(self, pipeline, t: int, active: List[int],
               fwdbwd_each: List[float]) -> float:
        fwdbwd_max = max(fwdbwd_each)
        _, exch = self._exchange(t, active)
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add("for/backward", fwdbwd_max)
        breakdown.add("gpu-gpu para", exch)
        breakdown.add("gpu update", self.upd_t)
        return self.stage_t + fwdbwd_max + exch + self.upd_t

    def emit(self, trace, t: int, T: float, active: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        pairs, exch = self._exchange(t, active)
        t_stage = T + self.stage_t
        t_comp = t_stage + max(fwdbwd_each)
        t_done = t_comp + exch
        for j, fwd in zip(active, fwdbwd_each):
            trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
            trace.span("compute", j, t_stage, t_stage + fwd, op="fwd-bwd", iteration=t)
        for a, b in pairs:
            for src, dst in ((a, b), (b, a)):
                trace.send(src, dst, t_comp, t_done, tag=0, nbytes=self.nb,
                           seq=t, op="gossip-exchange", iteration=t)
                trace.recv(dst, src, t_comp, t_done, tag=0, nbytes=self.nb,
                           seq=t, op="gossip-exchange", iteration=t)
            for j in (a, b):
                trace.span("update", j, t_done, t_done + self.upd_t, op="gossip-avg", iteration=t)


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

    def make_step(self) -> SyncStep:
        return SyncStep(self, GossipUpdate(self.config.lr), _GossipComm(self))
