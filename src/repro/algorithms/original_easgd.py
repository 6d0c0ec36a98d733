"""Original EASGD (Algorithm 1) — the paper's baseline.

Round-robin schedule: at iteration t only worker ``j = t mod G`` interacts
with the master. The master sends the center weight Wbar down, receives the
worker's local weight W_j back, the worker applies Eq 1 on its GPU, and the
CPU applies the single-worker Eq 2. All parameter traffic crosses the
CPU<->GPU link *per blob* (the pre-Section-5.2 unpacked scheme), which is
what makes this method communication-bound (Table 3: 87%).

Two timing variants, as in Table 3:
- ``overlapped=False`` -> "Original EASGD*": strictly serial parts.
- ``overlapped=True``  -> "Original EASGD": forward/backward hides under the
  CPU<->GPU parameter transfers; only the residue is visible compute.

The iteration is the shared :class:`repro.engine.SyncStep`; this module
contributes the point-to-point communication model, paired with the
:class:`~repro.engine.RoundRobinElasticUpdate` rule (one worker computes
per iteration).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import OVERLAP_EFFICIENCY, BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.data.dataset import Dataset
from repro.engine.strategy import CommStrategy, RoundRobinElasticUpdate
from repro.engine.sync import SyncStep
from repro.faults import FaultPlan
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import MASTER
from repro.trace.schedule import emit_p2p

__all__ = ["OriginalEASGDTrainer"]


class _RoundRobinComm(CommStrategy):
    """Per-blob CPU<->GPU point-to-point exchange with one worker per step."""

    def __init__(self, trainer: "OriginalEASGDTrainer") -> None:
        tr = trainer
        self.ranks = tr.platform.num_gpus
        self.overlapped = tr.overlapped
        self.stage_t = tr.platform.stage_batch_time(tr.cost, tr.config.batch_size)
        # The original implementation sends per blob.
        self.param_oneway = tr.platform.cpu_gpu_param_time(tr.cost, packed=False)
        self.gpu_upd_t = tr.platform.gpu_update_time(tr.cost)
        self.cpu_upd_t = tr.platform.cpu_update_time(tr.cost)
        # Lines 13 and 14 run on different devices (GPU_j vs CPU), so the
        # two weight updates overlap; only the GPU residue is visible.
        self.visible_gpu_upd = max(
            0.0, self.gpu_upd_t - OVERLAP_EFFICIENCY * self.cpu_upd_t
        )
        self.plan_msgs = tr.platform.param_plan(tr.cost, packed=False)
        self.trace_meta = dict(pattern="round-robin", packed=False,
                               overlapped=tr.overlapped,
                               messages_per_exchange=self.plan_msgs.num_messages)

    def _visible_fwd(self, fwdbwd: float) -> float:
        if not self.overlapped:
            return fwdbwd
        # The pass pipelines fully under the (longer) weight
        # transfers; only the part of compute that outlasts the
        # transfer remains visible (Table 3 measures 3% residue).
        return max(0.0, fwdbwd - 2.0 * self.param_oneway)

    def charge(self, pipeline, t: int, active: List[int],
               fwdbwd_each: List[float]) -> float:
        param_comm = 2.0 * self.param_oneway  # send Wbar down, fetch W_j up
        visible_fwd = self._visible_fwd(fwdbwd_each[0])
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add("cpu-gpu para", param_comm)
        breakdown.add("for/backward", visible_fwd)
        breakdown.add("gpu update", self.visible_gpu_upd)
        breakdown.add("cpu update", self.cpu_upd_t)
        return self.stage_t + param_comm + visible_fwd + self.visible_gpu_upd + self.cpu_upd_t

    def emit(self, trace, t: int, T: float, active: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        # Reconstruct the iteration's timeline: staging, then the two
        # CPU<->GPU transfers (compute hides under them when
        # overlapped), then the visible update residues.
        j, fwdbwd = active[0], fwdbwd_each[0]
        t_stage = T + self.stage_t
        t_down = t_stage + self.param_oneway
        t_up = t_down + self.param_oneway
        trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
        emit_p2p(trace, MASTER, j, t_stage, t_down, op="round-robin",
                 nbytes=self.plan_msgs.total_bytes,
                 messages=self.plan_msgs.num_messages, tag=1, seq=t, iteration=t)
        emit_p2p(trace, j, MASTER, t_down, t_up, op="round-robin",
                 nbytes=self.plan_msgs.total_bytes,
                 messages=self.plan_msgs.num_messages, tag=2, seq=t, iteration=t)
        c0 = t_stage if self.overlapped else t_up
        trace.span("compute", j, c0, c0 + fwdbwd, op="fwd-bwd", iteration=t)
        u0 = t_up + self._visible_fwd(fwdbwd)
        trace.span("update", j, u0, u0 + self.visible_gpu_upd, op="gpu-update",
                   iteration=t)
        trace.span("update", MASTER, u0 + self.visible_gpu_upd,
                   u0 + self.visible_gpu_upd + self.cpu_upd_t, op="cpu-update",
                   iteration=t)


class OriginalEASGDTrainer(BaseTrainer):
    """Algorithm 1 with real numerics and round-robin simulated timing."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        overlapped: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        self.platform = platform
        self.overlapped = overlapped
        self.name = "Original EASGD" if overlapped else "Original EASGD*"
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)

    def make_step(self) -> SyncStep:
        return SyncStep(self, RoundRobinElasticUpdate(self.hyper), _RoundRobinComm(self))
