"""Platform topologies: which link carries which traffic class.

Mirrors the paper's two experimental systems (Artifact Description 10.4):
a multi-GPU node whose GPUs hang off a PCIe switch with the host CPU, and a
KNL cluster on a Cray Aries fabric. Trainers never touch raw LinkModels;
they ask the topology for the link of a traffic class, which keeps the
Table 3 breakdown categories (cpu-gpu data, cpu-gpu para, gpu-gpu para)
honest by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.comm.alphabeta import CRAY_ARIES, LinkModel, PCIE_GEN3_X16, PCIE_SWITCH_P2P

__all__ = [
    "GpuNodeTopology",
    "KnlClusterTopology",
    "gossip_pairs",
]


def gossip_pairs(round_index: int, p: int) -> List[Tuple[int, int]]:
    """Deterministic peer pairing for gossip round ``round_index``.

    The circle (round-robin tournament) schedule: rank ``p-1`` stays
    seated, the rest rotate one seat per round, and opposite seats pair
    up. Every unordered pair meets exactly once per ``p-1`` rounds (for
    even P; odd P adds a phantom seat, so one rank sits out — a bye —
    each round and the period is P). Pairs come back sorted, each as
    ``(low, high)``, so traces and checks agree on edge identity.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if round_index < 0:
        raise ValueError("round_index must be non-negative")
    if p == 1:
        return []
    n = p + (p % 2)  # phantom seat gives odd P its bye
    m = n - 1
    seats = [n - 1] + [(i + round_index) % m for i in range(m)]
    pairs = []
    for i in range(n // 2):
        a, b = seats[i], seats[n - 1 - i]
        if a >= p or b >= p:
            continue  # the phantom's partner sits out this round
        pairs.append((min(a, b), max(a, b)))
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class GpuNodeTopology:
    """One multi-GPU node: host CPU + ``num_gpus`` GPUs on a PCIe switch."""

    num_gpus: int
    cpu_gpu: LinkModel = PCIE_GEN3_X16
    gpu_gpu: LinkModel = PCIE_SWITCH_P2P

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")

    def link_for(self, traffic: str) -> LinkModel:
        """Resolve a traffic class to its link.

        ``cpu-gpu data``  — staging a batch of samples host -> GPU;
        ``cpu-gpu para``  — weights host <-> GPU (Algorithms 1-2);
        ``gpu-gpu para``  — weights GPU <-> GPU via the switch (Algorithm 3).
        """
        if traffic in ("cpu-gpu data", "cpu-gpu para"):
            return self.cpu_gpu
        if traffic == "gpu-gpu para":
            return self.gpu_gpu
        raise KeyError(f"unknown traffic class {traffic!r}")


@dataclass(frozen=True)
class KnlClusterTopology:
    """A cluster of self-hosted KNL nodes on a Cray Aries-style fabric."""

    num_nodes: int
    network: LinkModel = CRAY_ARIES

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")

    def link_for(self, traffic: str) -> LinkModel:
        """KNL nodes are self-hosted and read batches from local memory:
        the one traffic class, ``node-node para``, rides the fabric."""
        if traffic == "node-node para":
            return self.network
        raise KeyError(f"unknown traffic class {traffic!r}")
