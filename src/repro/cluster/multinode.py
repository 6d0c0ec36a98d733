"""Multi-node GPU cluster platform (Artifact Description 10.4).

The paper's first system: 16 nodes, each with GPUs behind a PCIe switch,
connected by 56 Gbit/s FDR InfiniBand, with MPI + NCCL for communication.
Collectives are hierarchical: reduce within each node over the PCIe switch,
then across nodes over the fabric (tree or bandwidth-optimal ring), then
broadcast back down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict

from repro.cluster.cost import CostModel
from repro.cluster.devices import ComputeJitter, DeviceModel, K80_HALF, XEON_E5_HOST
from repro.cluster.platform import SimulatedWorkers
from repro.comm.alphabeta import LinkModel, MELLANOX_FDR_56G
from repro.comm.collectives import allreduce_cost, ring_allreduce_cost, tree_cost
from repro.comm.topology import GpuNodeTopology

__all__ = ["GpuClusterPlatform"]


@dataclass
class GpuClusterPlatform(SimulatedWorkers):
    """``num_nodes`` multi-GPU nodes on an InfiniBand-class fabric."""

    num_nodes: int
    gpus_per_node: int
    gpu: DeviceModel = K80_HALF
    host: DeviceModel = XEON_E5_HOST
    network: LinkModel = MELLANOX_FDR_56G
    node_topology: GpuNodeTopology = None  # type: ignore[assignment]
    jitter_sigma: float = 0.08
    seed: int = 0
    _jitters: Dict[int, ComputeJitter] = field(default_factory=dict, repr=False)

    _stream = "cluster-gpu"
    _device = property(attrgetter("gpu"))

    def __post_init__(self) -> None:
        if self.num_nodes <= 0 or self.gpus_per_node <= 0:
            raise ValueError("node and GPU counts must be positive")
        if self.node_topology is None:
            self.node_topology = GpuNodeTopology(self.gpus_per_node)
        elif self.node_topology.num_gpus != self.gpus_per_node:
            raise ValueError("node topology GPU count disagrees with platform")

    @property
    def num_workers(self) -> int:
        """Total GPU count across the cluster (one worker per GPU)."""
        return self.num_nodes * self.gpus_per_node

    def stage_batch_time(self, cost: CostModel, batch_size: int) -> float:
        """Host -> GPU staging inside a node (concurrent across nodes)."""
        link = self.node_topology.link_for("cpu-gpu data")
        return link.cost(cost.batch_bytes(batch_size))

    def gpu_update_time(self, cost: CostModel) -> float:
        return self.gpu.update_time(3 * cost.weight_bytes)

    # -- hierarchical collectives -------------------------------------------------
    def intra_node_tree_time(self, cost: CostModel) -> float:
        """One tree phase (reduce or broadcast) among the GPUs of one node
        (all nodes concurrently)."""
        link = self.node_topology.link_for("gpu-gpu para")
        return tree_cost(link, cost.weight_bytes, self.gpus_per_node)

    def inter_node_allreduce_time(self, cost: CostModel, algorithm: str = "tree") -> float:
        """Allreduce of the packed weights across node leaders."""
        if algorithm == "tree":
            return allreduce_cost(self.network, cost.weight_bytes, self.num_nodes)
        if algorithm == "ring":
            return ring_allreduce_cost(self.network, cost.weight_bytes, self.num_nodes)
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    def hierarchical_allreduce_time(self, cost: CostModel, algorithm: str = "tree") -> float:
        """Full cluster weight allreduce: intra-reduce, inter-allreduce,
        intra-bcast. Intra-node phases run concurrently on every node."""
        intra = self.intra_node_tree_time(cost)
        return intra + self.inter_node_allreduce_time(cost, algorithm) + intra
