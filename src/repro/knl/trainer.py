"""Communication-Efficient EASGD on a KNL cluster (Algorithm 4).

Structurally Sync EASGD3 transplanted to K self-hosted KNL nodes: every
node holds the full dataset locally (line 10: "randomly pick b samples from
local memory" — no staging traffic), the center weight lives on node 1, the
bcast/reduce trees run over the fabric, and the fabric communication
overlaps the local compute (the same independence argument as Sync EASGD3).
Used by the Figure 13 experiment and as the per-iteration model behind the
Table 4 weak-scaling study.

The iteration is the shared :class:`repro.engine.SyncStep` under Sync
EASGD3's :class:`~repro.engine.SyncElasticUpdate` rule; the clock is its
:class:`~repro.algorithms.sync_easgd.TreeEasgdComm` over the fabric trees.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.algorithms.sync_easgd import TreeEasgdComm
from repro.cluster.cost import CostModel
from repro.cluster.platform import KnlPlatform
from repro.data.dataset import Dataset
from repro.engine.strategy import SyncElasticUpdate
from repro.engine.sync import SyncStep
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper

__all__ = ["KnlSyncEASGDTrainer"]


class KnlSyncEASGDTrainer(BaseTrainer):
    """Algorithm 4 with real numerics and fabric-level simulated timing."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: KnlPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        super().__init__(network, train_set, test_set, config, cost_model)
        self.platform = platform
        self.name = f"KNL Sync EASGD ({platform.num_nodes} nodes)"
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)
        self.hyper.validate_sync(platform.num_nodes)

    def make_comm(self) -> TreeEasgdComm:
        """Algorithm 4's clock: local batches, fabric trees, overlap."""
        platform, cost = self.platform, self.cost
        tree_t = platform.tree_time(cost)  # fabric traffic
        return TreeEasgdComm(
            platform.num_nodes,
            overlapped=True,
            stage_t=0.0,  # line 10: batches come from local memory
            bcast_t=tree_t,
            reduce_t=tree_t,
            upd_t=platform.update_time(cost),
        )

    def iteration_time(self) -> float:
        """Simulated seconds per iteration (constant, modulo jitter)."""
        fwdbwd = max(
            self.platform.fwdbwd_time(self.cost, self.config.batch_size, worker=j)
            for j in range(self.platform.num_nodes)
        )
        return self.make_comm().timing(fwdbwd)[0]

    def make_step(self) -> SyncStep:
        return SyncStep(self, SyncElasticUpdate(self.hyper), self.make_comm(),
                        sampler_label="node")
