"""Synchronous data-parallel SGD with tree allreduce.

The workhorse for the single-layer (packed) communication study of
Figure 10: per iteration every worker computes a gradient at the shared
weights, gradients are tree-reduced, and the averaged gradient is applied
everywhere. The ``packed`` flag switches between one message carrying all
layers and one message per parameter blob — the only difference Figure 10
measures.

``quantize_bits`` enables the paper's reserved future-work direction
(Section 3.4: low-precision gradient communication a la 1-bit SGD): each
worker's gradient is stochastically quantized to the given width before
the reduction, and the collective's byte volume shrinks proportionally.
It trades trajectory fidelity for bandwidth — the ablation benchmark
measures both sides.

The iteration is the shared :class:`repro.engine.SyncStep`; this module
contributes the allreduce communication model, paired with the shared
:class:`~repro.engine.MeanGradientUpdate` rule (which owns the
quantization).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.comm.collectives import ring_allreduce_cost, tree_rounds, validate_collective
from repro.data.dataset import Dataset
from repro.engine.strategy import CommStrategy, MeanGradientUpdate
from repro.engine.sync import SyncStep
from repro.faults import FaultPlan
from repro.nn.network import Network
from repro.trace.schedule import emit_ring_allreduce, emit_tree_phase
from repro.util.rng import spawn_rng

__all__ = ["SyncSGDTrainer"]

#: The allreduce moves parameters GPU to GPU: Table 3's "gpu-gpu para"
#: part, and the topology link it is costed on.
_PARAM_PART = "gpu-gpu para"


class _AllreduceComm(CommStrategy):
    """Allreduce cost/trace model: tree or sharded ring, optionally quantized.

    The tree costs reduce + bcast as two equal Theta(log P) phases of
    ``tree_t`` each; the ring costs one reduce-scatter + allgather pass —
    2(P-1) steps of n/P-byte shards
    (:func:`repro.comm.collectives.ring_allreduce_cost`), the
    bandwidth-optimal schedule the process backend implements for real.
    """

    def __init__(self, trainer: "SyncSGDTrainer") -> None:
        tr = trainer
        platform, cost = tr.platform, tr.cost
        g = self.ranks = platform.num_gpus
        self.stage_t = platform.stage_batch_time(cost, tr.config.batch_size)
        self.gpu_upd_t = platform.gpu_update_time(cost)
        self.tree_t = platform.tree_time(cost, _PARAM_PART, tr.packed)
        self.plan_msgs = plan = platform.param_plan(cost, tr.packed)
        self._link = link = platform.topology.link_for(_PARAM_PART)
        self.wire_bytes = plan.total_bytes
        if tr.quantize_bits is not None:
            # Low-precision wire format: the latency (alpha) terms stay, the
            # byte volume scales with the bit width.
            shrink = tr.quantize_bits / 32.0
            full_bytes_time = link.beta * plan.total_bytes
            hops = tree_rounds(g)
            saved = hops * full_bytes_time * (1.0 - shrink)
            self.tree_t = max(self.tree_t - saved, hops * link.alpha * plan.num_messages)
            self.wire_bytes = int(self.wire_bytes * tr.quantize_bits / 32.0)
        self.full_tree_t = self.tree_t
        self.collective = tr.collective
        self.resize_label = f"allreduce {tr.collective}"
        self.trace_meta = dict(
            pattern=tr.collective,  # "tree" or "ring" — picks the invariants
            packed=tr.packed, messages_per_exchange=plan.num_messages,
            quantize_bits=tr.quantize_bits or 0,
        )
        self.ring_t = (
            ring_allreduce_cost(link, self.wire_bytes, g)
            if self.collective == "ring" else 0.0
        )

    def comm_time(self) -> float:
        """The allreduce's charge on the iteration critical path."""
        if self.collective == "ring":
            return self.ring_t
        return self.tree_t + self.tree_t

    def retime(self, ranks: int) -> None:
        """Re-cost the collective for the surviving group.

        The tree shrinks its depth at unchanged per-hop cost (incl. any
        quantized-width adjustment); the ring re-shards the same buffer
        over the survivors — fewer, larger shards, 2(ranks-1) steps.
        """
        depth_ratio = tree_rounds(ranks) / max(tree_rounds(self.ranks), 1)
        self.tree_t = self.full_tree_t * depth_ratio
        if self.collective == "ring":
            self.ring_t = ring_allreduce_cost(self._link, self.wire_bytes, ranks)

    def charge(self, pipeline, t: int, active: List[int],
               fwdbwd_each: List[float]) -> float:
        fwdbwd_max = max(fwdbwd_each)
        comm_t = self.comm_time()
        iter_time = self.stage_t + fwdbwd_max + comm_t + self.gpu_upd_t
        breakdown = pipeline.breakdown
        breakdown.add("cpu-gpu data", self.stage_t)
        breakdown.add(_PARAM_PART, comm_t)
        breakdown.add("for/backward", fwdbwd_max)
        breakdown.add("gpu update", self.gpu_upd_t)
        return iter_time

    def emit(self, trace, t: int, T: float, active: List[int],
             fwdbwd_each: List[float], iter_time: float) -> None:
        # Serial timeline: stage, compute, allreduce (gradient tree-reduce
        # + weight tree-bcast, or one sharded ring pass), local update.
        fwdbwd_max = max(fwdbwd_each)
        t_stage = T + self.stage_t
        t_comp = t_stage + fwdbwd_max
        for j, fwd in zip(active, fwdbwd_each):
            trace.span("staging", j, T, t_stage, op="cpu-gpu-data", iteration=t)
            trace.span("compute", j, t_stage, t_stage + fwd, op="fwd-bwd", iteration=t)
        if self.collective == "ring":
            t_done = t_comp + self.ring_t
            emit_ring_allreduce(trace, active, t_comp, t_done,
                                nbytes=self.wire_bytes, tag=102, iteration=t)
        else:
            t_red = t_comp + self.tree_t
            t_done = t_red + self.tree_t
            emit_tree_phase(trace, "tree-reduce", active, t_comp, t_red,
                            nbytes=self.wire_bytes,
                            messages_per_edge=self.plan_msgs.num_messages,
                            tag=102, iteration=t, reduce=True)
            emit_tree_phase(trace, "tree-bcast", active, t_red, t_done,
                            nbytes=self.wire_bytes,
                            messages_per_edge=self.plan_msgs.num_messages,
                            tag=101, iteration=t)
        for j in active:
            trace.span("update", j, t_done, t_done + self.gpu_upd_t, op="gpu-update",
                       iteration=t)


class SyncSGDTrainer(BaseTrainer):
    """Tree-allreduce synchronous SGD (the paper's Sync SGD, Figure 10).

    ``collective`` is the allreduce schedule the clock charges: "tree"
    (binomial, Theta(log P) latency) or "ring" (sharded reduce-scatter +
    allgather, Theta(1) per-rank bandwidth); the weights are bit-identical.
    """

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        packed: bool = True,
        quantize_bits: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        collective: str = "tree",
    ) -> None:
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        if quantize_bits is not None and not 1 <= quantize_bits <= 16:
            raise ValueError("quantize_bits must be in [1, 16]")
        self.platform = platform
        self.packed = packed
        self.quantize_bits = quantize_bits
        self.collective = validate_collective(collective)
        if self.collective == "ring" and not packed:
            raise ValueError("the ring allreduce ships one packed buffer; use packed=True")
        suffix = "packed" if packed else "per-layer"
        if self.collective == "ring":
            suffix += ", ring"
        if quantize_bits is not None:
            suffix += f", {quantize_bits}-bit"
        self.name = f"Sync SGD ({suffix})"
        self._quant_rng = spawn_rng(config.seed, "grad-quantize") if quantize_bits else None

    def make_step(self) -> SyncStep:
        rule = MeanGradientUpdate(self.config.lr, self.quantize_bits, self._quant_rng)
        return SyncStep(self, rule, _AllreduceComm(self))
