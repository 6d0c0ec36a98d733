"""Simulated cluster hardware: device models, the simulated clock, and the
discrete-event engine that asynchronous trainers run on."""

from repro.cluster.cost import BWD_FLOPS_FACTOR, CostModel
from repro.cluster.devices import ComputeJitter, DeviceModel, K80_HALF, KNL_7250, M40, XEON_E5_HOST
from repro.cluster.multinode import GpuClusterPlatform
from repro.cluster.platform import GpuPlatform, KnlPlatform
from repro.cluster.simclock import Event, EventQueue

__all__ = [
    "DeviceModel",
    "K80_HALF",
    "M40",
    "KNL_7250",
    "XEON_E5_HOST",
    "ComputeJitter",
    "EventQueue",
    "Event",
    "GpuPlatform",
    "KnlPlatform",
    "CostModel",
    "BWD_FLOPS_FACTOR",
    "GpuClusterPlatform",
]
