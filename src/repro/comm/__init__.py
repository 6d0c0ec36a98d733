"""Communication substrate: alpha-beta cost model, message packing plans,
tree collectives (real numerics + modeled cost), and platform topologies."""

from repro.comm.alphabeta import (
    CRAY_ARIES,
    INTEL_10GBE,
    INTEL_QDR_40G,
    LinkModel,
    MELLANOX_FDR_56G,
    PCIE_GEN3_X16,
    PCIE_SWITCH_P2P,
    TABLE2_NETWORKS,
)
from repro.comm.arena import BufferArena
from repro.comm.backend import BACKENDS, make_communicator, validate_backend
from repro.comm.collectives import (
    allreduce_cost,
    flat_sequential_cost,
    tree_cost,
    tree_reduce,
)
from repro.comm.collectives import ring_allreduce, ring_allreduce_cost
from repro.comm.mp_runtime import (
    fork_available,
    MultiprocessCommunicator,
    RemoteRankError,
)
from repro.comm.packing import MessagePlan, packed_plan, per_layer_plan
from repro.comm.runtime import (
    CellAborted,
    COLLECTIVE_TAG_STRIDE,
    collective_wire_tags,
    DeadlockError,
    InProcessCommunicator,
    MultiRankError,
    RankContextBase,
)
from repro.comm.shm_lifecycle import ShmCapacityError
from repro.comm.shm_transport import (
    CollectiveTooLargeError,
    RecordTooLargeError,
    RingBackpressureError,
    UnsupportedMemoryModelError,
)
from repro.comm.topology import GpuNodeTopology, KnlClusterTopology

__all__ = [
    "LinkModel",
    "MELLANOX_FDR_56G",
    "INTEL_QDR_40G",
    "INTEL_10GBE",
    "PCIE_GEN3_X16",
    "PCIE_SWITCH_P2P",
    "CRAY_ARIES",
    "TABLE2_NETWORKS",
    "MessagePlan",
    "packed_plan",
    "per_layer_plan",
    "tree_reduce",
    "tree_cost",
    "flat_sequential_cost",
    "allreduce_cost",
    "GpuNodeTopology",
    "KnlClusterTopology",
    "COLLECTIVE_TAG_STRIDE",
    "collective_wire_tags",
    "CellAborted",
    "DeadlockError",
    "MultiRankError",
    "InProcessCommunicator",
    "RankContextBase",
    "MultiprocessCommunicator",
    "RemoteRankError",
    "fork_available",
    "BACKENDS",
    "BufferArena",
    "CollectiveTooLargeError",
    "RecordTooLargeError",
    "RingBackpressureError",
    "ShmCapacityError",
    "UnsupportedMemoryModelError",
    "make_communicator",
    "validate_backend",
    "ring_allreduce",
    "ring_allreduce_cost",
]
