"""Sync EASGD (Algorithms 2-4): tree-reduction EASGD, three codesign steps.

All three variants run *identical numerics* — per iteration every worker
computes a gradient, the workers' weights are tree-reduced, the workers
apply Eq 1 against the broadcast Wbar_t, and the master applies Eq 2. They
differ only in where the center lives and what overlaps, i.e. in simulated
time (Section 6.1):

- **variant 1** (Algorithm 2): center on the CPU; tree bcast/reduce over
  the CPU<->GPU link; packed single-message transfers (Section 5.2).
- **variant 2** (Algorithm 3): center on GPU1; tree bcast/reduce over the
  GPU<->GPU switch; the CPU<->GPU parameter traffic disappears.
- **variant 3** (Algorithm 3 + overlap): the GPU<->GPU communication
  (steps 11-12) overlaps the data staging + forward/backward critical path
  (steps 7-10) — they are independent, since Eq 2 needs only W_j^t and
  Eq 1 needs only Wbar_t, both available at iteration start.

That the three variants produce bit-identical weight trajectories while
their clocks strictly improve is the paper's determinism + speedup story,
and is asserted by the integration tests.

The iteration itself is the shared :class:`repro.engine.SyncStep`; this
module contributes the family's two strategy objects: the shared
:class:`~repro.engine.SyncElasticUpdate` rule and :class:`TreeEasgdComm`,
the tree clock whose phase costs are data — so Algorithm 4 on KNL nodes
and the multi-node GPU cluster are further constructions of it
(:mod:`repro.knl.trainer`, :mod:`repro.algorithms.multinode`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.comm.packing import MessagePlan
from repro.data.dataset import Dataset
from repro.engine.strategy import CommStrategy, SyncElasticUpdate
from repro.engine.sync import SyncStep
from repro.faults import FaultPlan
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import MASTER
from repro.trace.schedule import emit_tree_phase

__all__ = ["SyncEASGDTrainer", "TreeEasgdComm"]


@dataclass
class TreeEasgdComm(CommStrategy):
    """Tree EASGD's per-iteration cost + trace spans, phase costs as data.

    Two shapes. *Serial* (Algorithms 2 and 3): stage, bcast, compute,
    reduce, updates, each waiting for the previous one. *Overlapped*
    (Sync EASGD3, Algorithm 4, the GPU cluster): the collective runs
    beside the staging + compute path and only the part of it that
    ``overlap_efficiency`` fails to hide is visible. ``cpu_upd_t`` says
    where the center lives: on the host (its Eq 2 cost; parameter traffic
    crosses the CPU<->GPU link) or, when None, on worker 0's device.
    ``recost(ranks)`` gives ``(bcast_t, reduce_t)`` for a tree rebuilt
    over survivors; a traced run draws its tree edges from ``plan_msgs``.
    """

    ranks: int
    overlapped: bool
    stage_t: float
    bcast_t: float
    reduce_t: float
    upd_t: float  # Eq 1 on one worker's device
    overlap_efficiency: float
    cpu_upd_t: Optional[float] = None
    recost: Optional[Callable[[int], Tuple[float, float]]] = None
    trace_meta: Optional[Dict[str, object]] = None
    plan_msgs: Optional[MessagePlan] = None

    def __post_init__(self) -> None:
        if self.cpu_upd_t is not None:
            self.param_traffic = "cpu-gpu para"
            self.gpu_upd_part, self.cpu_upd_part = self.upd_t, self.cpu_upd_t
        else:
            # Center on worker 0's device: it also applies Eq 2.
            self.param_traffic = "gpu-gpu para"
            self.gpu_upd_part, self.cpu_upd_part = 2.0 * self.upd_t, 0.0
        if self.recost is not None:
            self.resize_label = "binomial tree"

    def retime(self, ranks: int) -> None:
        """Re-cost the tree phases after a rebuild over the survivors."""
        self.bcast_t, self.reduce_t = self.recost(ranks)

    def timing(self, fwdbwd_max: float) -> Tuple[float, float]:
        """(iteration, visible communication) seconds at one compute time."""
        comm = self.bcast_t + self.reduce_t
        if not self.overlapped:
            # Serial: stage, bcast, compute, reduce, worker and master update.
            return (self.stage_t + self.bcast_t + fwdbwd_max + self.reduce_t
                    + self.gpu_upd_part + self.cpu_upd_part), comm
        # The collective overlaps the stage+compute path.
        hidden = self.overlap_efficiency * min(comm, self.stage_t + fwdbwd_max)
        visible_comm = comm - hidden
        return self.stage_t + fwdbwd_max + visible_comm + self.gpu_upd_part, visible_comm

    def charge(self, pipeline, t: int, active: List[int],
               fwdbwd_each: List[float]) -> float:
        fwdbwd_max = max(fwdbwd_each)
        iter_time, visible_comm = self.timing(fwdbwd_max)
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add(self.param_traffic, visible_comm)
        breakdown.add("for/backward", fwdbwd_max)
        breakdown.add("gpu update", self.gpu_upd_part)
        breakdown.add("cpu update", self.cpu_upd_part)
        return iter_time

    def emit(self, trace, t: int, T: float, active: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        """Expand one iteration into its traced timeline.

        The serial shape is strictly serial: staging, broadcast, compute,
        reduce, updates. The overlapped shape runs both tree phases
        concurrently with the staging+compute path (the overlap the
        paper's speedup comes from), with updates at the iteration tail.
        The tree is drawn over the live ranks (root = ``active[0]`` after
        a rebuild); a host-resident center's extra residency is a
        link-cost matter already folded into ``bcast_t``/``reduce_t``.
        """
        gpu_upd_t = self.upd_t
        t_stage = T + self.stage_t
        reduce = ("tree-reduce", self.reduce_t, 102, True)
        bcast = ("tree-bcast", self.bcast_t, 101, False)
        if self.overlapped:
            t_comp, starts = t_stage, ((T, reduce), (T + self.reduce_t, bcast))
            u0 = T + iter_time - 2.0 * gpu_upd_t
        else:  # each phase waits for the previous one
            t_comp = t_stage + self.bcast_t
            t_reduce = t_comp + max(fwdbwd_each)
            starts = ((t_stage, bcast), (t_reduce, reduce))
            u0 = t_reduce + self.reduce_t
        for j, fwd in zip(active, fwdbwd_each):
            trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
            trace.span("compute", j, t_comp, t_comp + fwd, op="fwd-bwd", iteration=t)
        for t0, (phase, seconds, tag, is_reduce) in starts:
            emit_tree_phase(trace, phase, active, t0, t0 + seconds,
                            nbytes=self.plan_msgs.total_bytes,
                            messages_per_edge=self.plan_msgs.num_messages,
                            tag=tag, iteration=t, reduce=is_reduce)
        for j in active:
            trace.span("update", j, u0, u0 + gpu_upd_t, op="gpu-update", iteration=t)
        if self.cpu_upd_t is not None:
            trace.span("update", MASTER, u0 + gpu_upd_t,
                       u0 + gpu_upd_t + self.cpu_upd_t, op="cpu-update", iteration=t)
        else:
            trace.span("update", active[0], u0 + gpu_upd_t, u0 + 2.0 * gpu_upd_t,
                       op="gpu-update", iteration=t)


class SyncEASGDTrainer(BaseTrainer):
    """Sync EASGD1/2/3 — deterministic tree-reduction EASGD."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        variant: int = 3,
        packed: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        if variant not in (1, 2, 3):
            raise ValueError("variant must be 1, 2, or 3")
        self.platform = platform
        self.variant = variant
        self.packed = packed
        self.name = f"Sync EASGD{variant}"
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)
        self.hyper.validate_sync(platform.num_gpus)

    def make_comm(self) -> TreeEasgdComm:
        """The variant's clock: where the center lives and what overlaps."""
        platform, cost, packed = self.platform, self.cost, self.packed
        traffic = "cpu-gpu para" if self.variant == 1 else "gpu-gpu para"

        def tree_times(ranks: int) -> Tuple[float, float]:
            return (platform.tree_bcast_time(cost, traffic, packed, ranks=ranks),
                    platform.tree_reduce_time(cost, traffic, packed, ranks=ranks))

        bcast_t, reduce_t = tree_times(platform.num_gpus)
        plan_msgs = platform.param_plan(cost, packed=packed)
        return TreeEasgdComm(
            platform.num_gpus,
            overlapped=self.variant == 3,
            stage_t=platform.stage_batch_time(cost, self.config.batch_size),
            bcast_t=bcast_t,
            reduce_t=reduce_t,
            upd_t=platform.gpu_update_time(cost),
            cpu_upd_t=platform.cpu_update_time(cost) if self.variant == 1 else None,
            overlap_efficiency=self.config.overlap_efficiency,
            recost=tree_times,
            trace_meta=dict(pattern="tree", variant=self.variant, packed=packed,
                            overlapped=self.variant == 3,
                            messages_per_exchange=plan_msgs.num_messages),
            plan_msgs=plan_msgs,
        )

    def make_step(self) -> SyncStep:
        return SyncStep(self, SyncElasticUpdate(self.hyper), self.make_comm())
