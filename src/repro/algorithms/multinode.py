"""Sync EASGD on a multi-node multi-GPU cluster.

The paper's acknowledgements mention a "multi-node multi-GPU EASGD with
less global communication overhead"; the artifact's ``mpi_easgd`` code runs
Sync EASGD over MPI across nodes. This trainer composes Algorithm 3 with
the hierarchical collective of :class:`repro.cluster.multinode.
GpuClusterPlatform`: per iteration every GPU in the cluster computes a
gradient, worker weights are reduced within each node and allreduced
across nodes, and the EASGD updates are applied exactly as in Sync EASGD3
(including the compute/communication overlap).

The iteration is the shared :class:`repro.engine.SyncStep` under Sync
EASGD3's :class:`~repro.engine.SyncElasticUpdate` rule; the clock is its
:class:`~repro.algorithms.sync_easgd.TreeEasgdComm` over that allreduce.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.algorithms.sync_easgd import TreeEasgdComm
from repro.cluster.cost import CostModel
from repro.cluster.multinode import GpuClusterPlatform
from repro.data.dataset import Dataset
from repro.engine.strategy import SyncElasticUpdate
from repro.engine.sync import SyncStep
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper

__all__ = ["ClusterSyncEASGDTrainer"]


class ClusterSyncEASGDTrainer(BaseTrainer):
    """Hierarchical Sync EASGD across nodes x GPUs workers."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuClusterPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        allreduce: str = "tree",
    ) -> None:
        super().__init__(network, train_set, test_set, config, cost_model)
        if allreduce not in ("tree", "ring"):
            raise ValueError("allreduce must be 'tree' or 'ring'")
        self.platform = platform
        self.allreduce = allreduce
        self.name = (
            f"Cluster Sync EASGD ({platform.num_nodes}x{platform.gpus_per_node}, "
            f"{allreduce})"
        )
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)
        self.hyper.validate_sync(platform.num_workers)

    def make_comm(self) -> TreeEasgdComm:
        """Sync EASGD3's clock over the nodes x GPUs hierarchy."""
        platform, cost = self.platform, self.cost
        return TreeEasgdComm(
            platform.num_workers,
            overlapped=True,
            stage_t=platform.stage_batch_time(cost, self.config.batch_size),
            bcast_t=0.0,  # the allreduce leaves the sum on every worker
            reduce_t=platform.hierarchical_allreduce_time(cost, self.allreduce),
            upd_t=platform.gpu_update_time(cost),
        )

    def iteration_time(self) -> float:
        """Per-iteration simulated seconds (jitter-free expectation)."""
        fwdbwd = self.platform.fwdbwd_time(
            self.cost, self.config.batch_size, worker=0, jittered=False
        )
        return self.make_comm().timing(fwdbwd)[0]

    def make_step(self) -> SyncStep:
        return SyncStep(self, SyncElasticUpdate(self.hyper), self.make_comm(),
                        sampler_label="cluster-worker")
