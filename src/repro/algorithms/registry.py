"""Name -> trainer-factory registry used by the harness and benchmarks.

Keys match the method names of Figures 8-9 plus the cluster-scale trainers
(Algorithm 4 / Section 7). Each factory has the uniform signature
``(network, train_set, test_set, platform, config, cost_model)`` where
``platform`` is the harness-built :class:`repro.cluster.GpuPlatform`; the
cluster entries adapt it into the platform type their trainer simulates
(one KNL node, or one single-GPU cluster node, per requested worker).

:data:`ALGORITHM_INFO` carries the presentation metadata (family,
synchronisation style, paper section) behind ``repro --list-algorithms``.
Both are read off one table that writes each method name once; an
asynchronous method is its :data:`repro.engine.ps.PS_FAMILIES` row, so a
new parameter-server family is that row plus one ``_ps(key, section)``
line here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import inspect
from typing import Callable, Dict, FrozenSet, Tuple

from repro.algorithms.async_ps import AsyncPSTrainer
from repro.algorithms.base import BaseTrainer
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.ps_zoo import GossipSGDTrainer
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
                         cost_model=None) -> BaseTrainer:
    """Adapt the harness GpuPlatform into ``num_gpus`` KNL nodes."""
    from repro.cluster.platform import KnlPlatform
    from repro.knl.trainer import KnlSyncEASGDTrainer

    knl = KnlPlatform(num_nodes=platform.num_gpus, seed=platform.seed)
    return KnlSyncEASGDTrainer(network, train_set, test_set, knl, config, cost_model)


def _make_cluster_sync_easgd(network, train_set, test_set, platform, config,
                             cost_model=None, allreduce="tree") -> BaseTrainer:
    """Adapt the harness GpuPlatform into ``num_gpus`` single-GPU nodes."""
    from repro.algorithms.multinode import ClusterSyncEASGDTrainer
    from repro.cluster.multinode import GpuClusterPlatform

    cluster = GpuClusterPlatform(
        num_nodes=platform.num_gpus, gpus_per_node=1, seed=platform.seed
    )
    return ClusterSyncEASGDTrainer(
        network, train_set, test_set, cluster, config, cost_model, allreduce=allreduce,
    )


@dataclass(frozen=True)
class AlgorithmInfo:
    """Presentation metadata for one registry entry."""

    family: str  # which trainer family implements it
    sync: str  # "sync" or "async"
    section: str  # where the paper (or cited work) introduces/measures it
    family_class: str = "centered"  # "centered" (a real center) or "decentralized"
    staleness: str = "none (bulk-sync)"  # the family's staleness semantics


_Entry = Tuple[str, Callable[..., BaseTrainer], AlgorithmInfo]


def _sync(name: str, factory: Callable[..., BaseTrainer], family: str,
          section: str, **info) -> _Entry:
    """A synchronous entry: its factory and metadata, written out."""
    return name, factory, AlgorithmInfo(family, "sync", section, **info)


def _ps(key: str, section: str) -> _Entry:
    """An asynchronous entry: the one trainer bound to its PS_FAMILIES row,
    whose class and staleness are read off the row."""
    row = PS_FAMILIES[key]
    return key, partial(AsyncPSTrainer, family=key), AlgorithmInfo(
        "parameter server", "async", section, family_class=row.kind,
        staleness="bounded: tau (reject/clip)" if row.bounded else "unbounded",
    )


_ENTRIES = (
    # existing methods (baselines the paper compares against)
    _sync("original-easgd", partial(OriginalEASGDTrainer, overlapped=True),
          "round-robin EASGD", "Alg 1, Table 3"),
    _sync("original-easgd*", partial(OriginalEASGDTrainer, overlapped=False),
          "round-robin EASGD", "Alg 1, Table 3"),
    _ps("async-sgd", "Sec 3.1"),
    _ps("async-msgd", "Sec 3.1, Eqs 3-4"),
    _ps("hogwild-sgd", "Sec 3.2"),
    _sync("sync-sgd", partial(SyncSGDTrainer, packed=True), "allreduce SGD",
          "Sec 5.2, Fig 10"),
    _sync("sync-sgd-unpacked", partial(SyncSGDTrainer, packed=False),
          "allreduce SGD", "Sec 5.2, Fig 10"),
    # the paper's methods
    _ps("async-easgd", "Sec 5.1, Eqs 1-2"),
    _ps("async-measgd", "Sec 5.1, Eqs 5-6"),
    _ps("hogwild-easgd", "Sec 5.1"),
    _sync("sync-easgd1", partial(SyncEASGDTrainer, variant=1), "tree EASGD", "Sec 6.1, Alg 2"),
    _sync("sync-easgd2", partial(SyncEASGDTrainer, variant=2), "tree EASGD", "Sec 6.1, Alg 3"),
    _sync("sync-easgd3", partial(SyncEASGDTrainer, variant=3), "tree EASGD",
          "Sec 6.1, Alg 3+overlap"),
    _sync("sync-easgd", partial(SyncEASGDTrainer, variant=3), "tree EASGD",  # the headline
          "Sec 6.1, Alg 3+overlap"),
    # cluster-scale trainers (platform adapted from the harness GpuPlatform)
    _sync("knl-sync-easgd", _make_knl_sync_easgd, "KNL cluster", "Sec 6.2, Alg 4"),
    _sync("cluster-sync-easgd", _make_cluster_sync_easgd, "GPU cluster",
          "Sec 7, Table 4"),
    # the parameter-server zoo (the PS protocol layer's new families)
    _ps("downpour", "Dean et al. 2012"),
    _ps("adag", "accumulated-gradient ASGD"),
    _ps("eamsgd", "Zhang et al. 2015, Eqs 5-6"),
    _sync("gossip-sgd", GossipSGDTrainer, "gossip", "Jin et al. 2016",
          family_class="decentralized", staleness="none (pairwise)"),
    _ps("bounded-async-easgd", "bounded-delay EASGD"),
)

ALGORITHMS: Dict[str, Callable[..., BaseTrainer]] = {
    name: factory for name, factory, _ in _ENTRIES}
ALGORITHM_INFO: Dict[str, AlgorithmInfo] = {name: info for name, _, info in _ENTRIES}

#: The keywords each entry's constructor names, less those its ``partial``
#: binds (the name fixes them); any other is refused.
_ACCEPTS: Dict[str, FrozenSet[str]] = {
    name: frozenset(inspect.signature(factory).parameters)
    - set(getattr(factory, "keywords", ()))
    for name, factory in ALGORITHMS.items()
}


def make_trainer(name: str, *args, **kwargs) -> BaseTrainer:
    """Instantiate a registered trainer by method name.

    A keyword the entry's constructor does not name, or one the entry's
    name already fixes (``variant`` on ``sync-easgd1``, ``packed`` on
    ``sync-sgd``, ``family`` on a parameter-server method), raises
    :class:`UnsupportedOptionError` — a knob the method never reads is
    refused, not ignored. Which *values* an accepted option may take is
    the constructor's business (a parameter-server row refuses a ``tau``
    it cannot honour the same way).
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None
    for keyword in kwargs:
        if keyword not in _ACCEPTS[name]:
            raise UnsupportedOptionError(name, keyword)
    return factory(*args, **kwargs)
