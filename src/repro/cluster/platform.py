"""Platforms: the timing facade trainers charge simulated seconds against.

A :class:`GpuPlatform` mirrors the paper's multi-GPU node (host CPU + G GPUs
on a PCIe switch); a :class:`KnlPlatform` mirrors a KNL cluster on a Cray
Aries-class fabric. All methods return *seconds of simulated time*; the
trainers decide what overlaps with what (that is exactly where Sync EASGD1,
2, and 3 differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.cost import CostModel
from repro.cluster.devices import ComputeJitter, DeviceModel, K80_HALF, KNL_7250, XEON_E5_HOST
from repro.comm.alphabeta import LinkModel
from repro.comm.collectives import tree_bcast_cost, tree_reduce_cost
from repro.comm.packing import MessagePlan, packed_plan, per_layer_plan
from repro.comm.topology import GpuNodeTopology, KnlClusterTopology

__all__ = ["GpuPlatform", "KnlPlatform"]


@dataclass
class GpuPlatform:
    """Host + ``num_gpus`` GPUs; the platform of Algorithms 1-3."""

    num_gpus: int
    gpu: DeviceModel = K80_HALF
    host: DeviceModel = XEON_E5_HOST
    topology: GpuNodeTopology = None  # type: ignore[assignment]
    jitter_sigma: float = 0.08
    seed: int = 0
    _jitters: Dict[int, ComputeJitter] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.topology is None:
            self.topology = GpuNodeTopology(self.num_gpus)
        elif self.topology.num_gpus != self.num_gpus:
            raise ValueError("topology GPU count disagrees with platform")

    # -- compute -----------------------------------------------------------
    def jitter_for(self, worker: int) -> ComputeJitter:
        """The worker's jitter stream (created on first use)."""
        jitter = self._jitters.get(worker)
        if jitter is None:
            jitter = ComputeJitter(self.seed, ("gpu", worker), self.jitter_sigma)
            self._jitters[worker] = jitter
        return jitter

    def fwdbwd_time(self, cost: CostModel, batch_size: int, worker: int, jittered: bool = True) -> float:
        """One forward+backward pass on one GPU, with per-worker jitter."""
        base = self.gpu.compute_time(cost.fwdbwd_flops(batch_size))
        if not jittered or self.jitter_sigma == 0.0:
            return base
        return base * self.jitter_for(worker).sample()

    def gpu_update_time(self, cost: CostModel) -> float:
        """Eq 1 on a GPU: stream read+write of the packed weights (3 passes)."""
        return self.gpu.update_time(3 * cost.weight_bytes)

    def cpu_update_time(self, cost: CostModel) -> float:
        """Eq 2 on the host: stream read+write of the packed weights."""
        return self.host.update_time(3 * cost.weight_bytes)

    # -- communication -------------------------------------------------------
    def stage_batch_time(self, cost: CostModel, batch_size: int) -> float:
        """Copy one batch of samples host -> GPU (cpu-gpu data traffic)."""
        link = self.topology.link_for("cpu-gpu data")
        return link.cost(cost.batch_bytes(batch_size))

    def param_plan(self, cost: CostModel, packed: bool = True) -> MessagePlan:
        """The message plan of one full-model exchange."""
        return packed_plan(cost.layer_bytes) if packed else per_layer_plan(cost.layer_bytes)

    def cpu_gpu_param_time(self, cost: CostModel, packed: bool = True) -> float:
        """One model transfer host <-> one GPU (cpu-gpu para traffic)."""
        link = self.topology.link_for("cpu-gpu para")
        return self.param_plan(cost, packed).cost(link)

    def gpu_gpu_param_time(self, cost: CostModel, packed: bool = True) -> float:
        """One model transfer GPU <-> GPU through the switch."""
        link = self.topology.link_for("gpu-gpu para")
        return self.param_plan(cost, packed).cost(link)

    def tree_bcast_time(
        self, cost: CostModel, link_traffic: str, packed: bool = True,
        ranks: Optional[int] = None,
    ) -> float:
        """Binomial-tree broadcast of the model to ``ranks`` GPUs (default:
        all of them; fewer after a fault-driven tree rebuild)."""
        link = self.topology.link_for(link_traffic)
        per_hop = self.param_plan(cost, packed).cost(link)
        return tree_bcast_cost(_unit_link(per_hop), 0, ranks or self.num_gpus)

    def tree_reduce_time(
        self, cost: CostModel, link_traffic: str, packed: bool = True,
        ranks: Optional[int] = None,
    ) -> float:
        """Binomial-tree reduction of ``ranks`` GPUs' models to the root
        (default: all of them; fewer after a fault-driven tree rebuild)."""
        link = self.topology.link_for(link_traffic)
        per_hop = self.param_plan(cost, packed).cost(link)
        return tree_reduce_cost(_unit_link(per_hop), 0, ranks or self.num_gpus)


def _unit_link(per_message_cost: float) -> LinkModel:
    """A link whose every message costs exactly ``per_message_cost``.

    Lets the collective cost formulas (which take alpha-beta links) be reused
    when the per-hop cost already folds in a multi-message plan.
    """
    return LinkModel("derived", alpha=per_message_cost, beta=0.0)


@dataclass
class KnlPlatform:
    """``num_nodes`` self-hosted KNL nodes on one fabric (Algorithm 4)."""

    num_nodes: int
    node: DeviceModel = KNL_7250
    topology: KnlClusterTopology = None  # type: ignore[assignment]
    jitter_sigma: float = 0.05
    seed: int = 0
    _jitters: Dict[int, ComputeJitter] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if self.topology is None:
            self.topology = KnlClusterTopology(self.num_nodes)
        elif self.topology.num_nodes != self.num_nodes:
            raise ValueError("topology node count disagrees with platform")

    def jitter_for(self, worker: int) -> ComputeJitter:
        """The node's jitter stream (created on first use)."""
        jitter = self._jitters.get(worker)
        if jitter is None:
            jitter = ComputeJitter(self.seed, ("knl", worker), self.jitter_sigma)
            self._jitters[worker] = jitter
        return jitter

    def fwdbwd_time(self, cost: CostModel, batch_size: int, worker: int, jittered: bool = True) -> float:
        base = self.node.compute_time(cost.fwdbwd_flops(batch_size))
        if not jittered or self.jitter_sigma == 0.0:
            return base
        return base * self.jitter_for(worker).sample()

    def update_time(self, cost: CostModel) -> float:
        """Eq 1/Eq 2 on a KNL node (MCDRAM-speed streaming)."""
        return self.node.update_time(3 * cost.weight_bytes)

    def param_plan(self, cost: CostModel, packed: bool = True) -> MessagePlan:
        return packed_plan(cost.layer_bytes) if packed else per_layer_plan(cost.layer_bytes)

    def tree_bcast_time(self, cost: CostModel, packed: bool = True) -> float:
        link = self.topology.link_for("node-node para")
        per_hop = self.param_plan(cost, packed).cost(link)
        return tree_bcast_cost(_unit_link(per_hop), 0, self.num_nodes)

    def tree_reduce_time(self, cost: CostModel, packed: bool = True) -> float:
        link = self.topology.link_for("node-node para")
        per_hop = self.param_plan(cost, packed).cost(link)
        return tree_reduce_cost(_unit_link(per_hop), 0, self.num_nodes)
