"""Name -> trainer-factory registry used by the harness and benchmarks.

Keys match the method names of Figures 8-9 plus the cluster-scale trainers
(Algorithm 4 / Section 7). Each factory has the uniform signature
``(network, train_set, test_set, platform, config, cost_model)`` where
``platform`` is the harness-built :class:`repro.cluster.GpuPlatform`; the
cluster entries adapt it into the platform type their trainer simulates
(one KNL node, or one single-GPU cluster node, per requested worker).

:data:`ALGORITHM_INFO` carries the presentation metadata (family,
synchronisation style, paper section) behind ``repro --list-algorithms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict

from repro.algorithms.async_ps import (
    AsyncEASGDTrainer,
    AsyncMEASGDTrainer,
    AsyncMSGDTrainer,
    AsyncSGDTrainer,
    HogwildEASGDTrainer,
    HogwildSGDTrainer,
)
from repro.algorithms.base import BaseTrainer
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.ps_zoo import (
    AdagTrainer,
    BoundedAsyncEasgdTrainer,
    DownpourTrainer,
    EamsgdTrainer,
    GossipSGDTrainer,
)
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.engine.ps import PS_FAMILIES, UnsupportedOptionError

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_INFO",
    "AlgorithmInfo",
    "UnsupportedOptionError",
    "make_trainer",
]


def _make_knl_sync_easgd(network, train_set, test_set, platform, config,
                         cost_model=None, **kwargs) -> BaseTrainer:
    """Adapt the harness GpuPlatform into ``num_gpus`` KNL nodes."""
    from repro.cluster.platform import KnlPlatform
    from repro.knl.trainer import KnlSyncEASGDTrainer

    knl = KnlPlatform(num_nodes=platform.num_gpus, seed=platform.seed)
    return KnlSyncEASGDTrainer(
        network, train_set, test_set, knl, config, cost_model, **kwargs
    )


def _make_cluster_sync_easgd(network, train_set, test_set, platform, config,
                             cost_model=None, **kwargs) -> BaseTrainer:
    """Adapt the harness GpuPlatform into ``num_gpus`` single-GPU nodes."""
    from repro.algorithms.multinode import ClusterSyncEASGDTrainer
    from repro.cluster.multinode import GpuClusterPlatform

    cluster = GpuClusterPlatform(
        num_nodes=platform.num_gpus, gpus_per_node=1, seed=platform.seed
    )
    return ClusterSyncEASGDTrainer(
        network, train_set, test_set, cluster, config, cost_model, **kwargs
    )


ALGORITHMS: Dict[str, Callable[..., BaseTrainer]] = {
    # existing methods (baselines the paper compares against)
    "original-easgd": partial(OriginalEASGDTrainer, overlapped=True),
    "original-easgd*": partial(OriginalEASGDTrainer, overlapped=False),
    "async-sgd": AsyncSGDTrainer,
    "async-msgd": AsyncMSGDTrainer,
    "hogwild-sgd": HogwildSGDTrainer,
    "sync-sgd": SyncSGDTrainer,
    "sync-sgd-unpacked": partial(SyncSGDTrainer, packed=False),
    # the paper's methods
    "async-easgd": AsyncEASGDTrainer,
    "async-measgd": AsyncMEASGDTrainer,
    "hogwild-easgd": HogwildEASGDTrainer,
    "sync-easgd1": partial(SyncEASGDTrainer, variant=1),
    "sync-easgd2": partial(SyncEASGDTrainer, variant=2),
    "sync-easgd3": partial(SyncEASGDTrainer, variant=3),
    "sync-easgd": partial(SyncEASGDTrainer, variant=3),  # the headline method
    # cluster-scale trainers (platform adapted from the harness GpuPlatform)
    "knl-sync-easgd": _make_knl_sync_easgd,
    "cluster-sync-easgd": _make_cluster_sync_easgd,
    # the parameter-server zoo (the PS protocol layer's new families)
    "downpour": DownpourTrainer,
    "adag": AdagTrainer,
    "eamsgd": EamsgdTrainer,
    "gossip-sgd": GossipSGDTrainer,
    "bounded-async-easgd": BoundedAsyncEasgdTrainer,
}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Presentation metadata for one registry entry."""

    family: str  # which trainer family implements it
    sync: str  # "sync" or "async"
    section: str  # where the paper (or cited work) introduces/measures it
    family_class: str = "centered"  # "centered" (a real center) or "decentralized"
    staleness: str = "none (bulk-sync)"  # the family's staleness semantics


def _ps_info(key: str, section: str) -> AlgorithmInfo:
    """An asynchronous family's metadata, read off its PS_FAMILIES row."""
    row = PS_FAMILIES[key]
    return AlgorithmInfo(
        "parameter server", "async", section, family_class=row.kind,
        staleness="bounded: tau (reject/clip)" if row.bounded else "unbounded",
    )


ALGORITHM_INFO: Dict[str, AlgorithmInfo] = {
    "original-easgd": AlgorithmInfo(
        "round-robin EASGD", "sync", "Alg 1, Table 3"),
    "original-easgd*": AlgorithmInfo(
        "round-robin EASGD", "sync", "Alg 1, Table 3"),
    "async-sgd": _ps_info("async-sgd", "Sec 3.1"),
    "async-msgd": _ps_info("async-msgd", "Sec 3.1, Eqs 3-4"),
    "hogwild-sgd": _ps_info("hogwild-sgd", "Sec 3.2"),
    "sync-sgd": AlgorithmInfo(
        "allreduce SGD", "sync", "Sec 5.2, Fig 10"),
    "sync-sgd-unpacked": AlgorithmInfo(
        "allreduce SGD", "sync", "Sec 5.2, Fig 10"),
    "async-easgd": _ps_info("async-easgd", "Sec 5.1, Eqs 1-2"),
    "async-measgd": _ps_info("async-measgd", "Sec 5.1, Eqs 5-6"),
    "hogwild-easgd": _ps_info("hogwild-easgd", "Sec 5.1"),
    "sync-easgd1": AlgorithmInfo("tree EASGD", "sync", "Sec 6.1, Alg 2"),
    "sync-easgd2": AlgorithmInfo("tree EASGD", "sync", "Sec 6.1, Alg 3"),
    "sync-easgd3": AlgorithmInfo("tree EASGD", "sync", "Sec 6.1, Alg 3+overlap"),
    "sync-easgd": AlgorithmInfo("tree EASGD", "sync", "Sec 6.1, Alg 3+overlap"),
    "knl-sync-easgd": AlgorithmInfo("KNL cluster", "sync", "Sec 6.2, Alg 4"),
    "cluster-sync-easgd": AlgorithmInfo("GPU cluster", "sync", "Sec 7, Table 4"),
    "downpour": _ps_info("downpour", "Dean et al. 2012"),
    "adag": _ps_info("adag", "accumulated-gradient ASGD"),
    "eamsgd": _ps_info("eamsgd", "Zhang et al. 2015, Eqs 5-6"),
    "gossip-sgd": AlgorithmInfo(
        "gossip", "sync", "Jin et al. 2016",
        family_class="decentralized", staleness="none (pairwise)"),
    "bounded-async-easgd": _ps_info("bounded-async-easgd", "bounded-delay EASGD"),
}

#: Options only (some) asynchronous families honour; everything else
#: rejects them by name instead of failing on an unexpected keyword.
PS_OPTIONS = ("local_steps", "tau", "staleness_policy")
#: Families with no re-costing story for a group that shrinks (the fabric
#: tree, the hierarchical allreduce): they refuse a fault plan by name.
NO_FAULT_PLAN = ("knl-sync-easgd", "cluster-sync-easgd")


def make_trainer(name: str, *args, **kwargs) -> BaseTrainer:
    """Instantiate a registered trainer by method name.

    Raises :class:`UnsupportedOptionError` when ``kwargs`` carries a
    parameter-server option (``local_steps``, ``tau``,
    ``staleness_policy``) or a ``faults`` plan the method cannot honour.
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    if name not in PS_FAMILIES:  # the rows check their own options
        for option in PS_OPTIONS:
            if option in kwargs:
                raise UnsupportedOptionError(name, option)
    if name in NO_FAULT_PLAN and "faults" in kwargs:
        raise UnsupportedOptionError(name, "faults")
    return factory(*args, **kwargs)
