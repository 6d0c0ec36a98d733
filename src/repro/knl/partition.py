"""KNL chip partitioning (Section 6.2, Figure 12).

The optimization: partition the 68-core chip into P SNC-style groups, give
every group its own *copy* of the data and its own weight replica, let the
groups compute gradients independently, and tree-reduce the gradient sum
across groups each iteration (divide-and-conquer). Two effects drive the
3.3x speedup:

1. Smaller synchronization domains: a 4-17 core group runs its kernels at
   much better parallel efficiency than one 68-core OpenMP region, and its
   slice of the batch streams through NUMA-local MCDRAM (SNC-4-style
   pinning) instead of bouncing across all tag directories.
2. The conquer step (tree-reducing P partial gradients) is cheap as long
   as all P weight/data copies stay in MCDRAM.

Each group computes the gradient of its ``b/P`` slice of the global batch;
the tree-reduced sum is *exactly* the batch-b gradient, so partitioning
changes the clock, not the optimization trajectory — the paper's "same
accuracy (0.625)" comparison is then purely a time ratio.

The gate: all P copies of (weights + data) must fit in 16 GB MCDRAM, or the
working set spills to DDR4 bandwidth. AlexNet (249 MB) + one CIFAR copy
(687 MB) fits 16 copies, not 32 — the paper's "P <= 16" limit.

Both execution backends (serial simulation and real forked groups, the
ranks of one :func:`repro.comm.backend.make_communicator` cell) are clock
step strategies over the shared :class:`repro.engine.StepPipeline`; they
differ in where gradients are computed, never in the numbers they
produce. On forked groups no bulk byte is a message, as in the paper's
codesign: every group draws the global batch itself and keeps its slice,
the gradients fold in the cell's arena, and restored weights travel in a
shared row; rank 0 sends only small control records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer, RunResult, TrainerConfig
from repro.cluster.cost import CostModel
from repro.comm.backend import make_communicator, validate_backend
from repro.comm.collectives import tree_rounds
from repro.data.dataset import Dataset
from repro.engine.pipeline import run_training
from repro.engine.ps import UnsupportedOptionError
from repro.engine.strategy import ClockStepStrategy, MeanGradientUpdate
from repro.knl.chip import KNL_7250_CHIP, KnlChip
from repro.nn.network import Network

__all__ = ["PartitionPlan", "plan_partition", "ChipPartitionTrainer"]

#: The arena channel of rank 0's restored weights (no collective uses it).
TAG_WEIGHTS = 17

#: One CIFAR-10 copy as the paper counts it ("one Cifar data copy is 687 MB").
CIFAR_COPY_BYTES = int(687e6)


@dataclass(frozen=True)
class PartitionPlan:
    """The placement decision for P groups on one chip."""

    parts: int
    cores_per_group: float
    copy_bytes: int  # one replica: weights + data copy
    total_bytes: int  # P * copy_bytes
    in_mcdram: bool
    bandwidth: float  # bytes/s the working set sees

    @property
    def memory_name(self) -> str:
        return "MCDRAM" if self.in_mcdram else "DDR4"


def plan_partition(
    parts: int,
    weight_bytes: int,
    data_bytes: int,
    chip: KnlChip = KNL_7250_CHIP,
) -> PartitionPlan:
    """Decide where P replicas of (weights + data) live on the chip."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    if parts > chip.cores:
        raise ValueError(f"cannot make {parts} groups on a {chip.cores}-core chip")
    if weight_bytes <= 0 or data_bytes <= 0:
        raise ValueError("weight and data sizes must be positive")
    copy = weight_bytes + data_bytes
    total = parts * copy
    if total > chip.ddr4_bytes:
        raise ValueError(
            f"{parts} copies ({total / 1e9:.1f} GB) exceed even DDR4 capacity"
        )
    in_mcdram = chip.fits_in_mcdram(total)
    return PartitionPlan(
        parts=parts,
        cores_per_group=chip.cores / parts,
        copy_bytes=copy,
        total_bytes=total,
        in_mcdram=in_mcdram,
        bandwidth=chip.working_set_bandwidth(total),
    )


class _PartitionStepBase(ClockStepStrategy):
    """Shared setup/extras for both chip-partition backends."""

    def __init__(self, trainer: "ChipPartitionTrainer") -> None:
        self.trainer = trainer

    def begin(self, pipeline) -> None:
        tr = self.trainer
        self.weights = tr.net.get_params()
        # One global batch per round, divided into P equal slices — the
        # partitioning must be invisible to the optimization trajectory.
        self.sampler = tr.make_sampler("global-batch")
        self.iter_time = tr._iter_time()

    def eval_params(self) -> np.ndarray:
        return self.weights

    def state_dict(self) -> Dict:
        return {
            "arrays": {"weights": self.weights},
            "meta": {
                "last_loss": self.last_loss,
                "sampler": self.sampler.get_state(),
            },
        }

    def load_state_dict(self, state: Dict) -> None:
        self.weights[:] = state["arrays"]["weights"]
        self.sampler.set_state(state["meta"]["sampler"])
        self.last_loss = state["meta"]["last_loss"]
        self._publish_weights()

    def _publish_weights(self) -> None:
        """Push restored weights to wherever the backend computes from."""

    def extras(self) -> Dict[str, float]:
        tr = self.trainer
        return {
            "parts": float(tr.parts),
            "in_mcdram": float(tr.plan.in_mcdram),
            "bandwidth": tr.plan.bandwidth,
            "iter_time": self.iter_time,
        }


class _PartitionSerialStep(_PartitionStepBase):
    """All P group gradients computed in-process, one slice at a time."""

    def begin(self, pipeline) -> None:
        super().begin(pipeline)
        self.update = MeanGradientUpdate(self.trainer.config.lr)
        self.trainer.net.set_params(self.weights)

    def _publish_weights(self) -> None:
        self.trainer.net.set_params(self.weights)

    def step(self, pipeline, t: int) -> float:
        tr = self.trainer
        p = tr.parts
        images, labels = self.sampler.next_batch()
        grads: List[np.ndarray] = []
        losses = []
        for j in range(p):
            lo, hi = j * tr.group_batch, (j + 1) * tr.group_batch
            losses.append(tr.net.gradient(images[lo:hi], labels[lo:hi], tr.loss))
            grads.append(tr.net.grads.copy())
        self.last_loss = self.update.apply(
            {"weights": self.weights}, grads, losses, range(p), range(p), t)
        tr.net.set_params(self.weights)

        pipeline.breakdown.add("for/backward", self.iter_time)  # single-chip: no links
        return self.iter_time


def _group_round(ctx, tr, weights: np.ndarray, buf: np.ndarray,
                 images: np.ndarray, labels: np.ndarray) -> float:
    """One group's share of a round, identical on every rank of the cell:
    the slice gradient packed into the allreduce buffer, the conquer step,
    and the batch-b update on this group's replica. Returns the slice loss.
    """
    net = tr.net
    net.set_params(weights)
    loss = net.gradient(images, labels, tr.loss)
    buf[:] = net.grads
    # The arena folds in tree_reduce's stride-doubling association at any
    # buffer size, so this is the serial path's update expression bit for
    # bit.
    weights -= tr.config.lr * (ctx.allreduce(buf, view=True) / ctx.size)
    return loss


def _follow(ctx, tr: "ChipPartitionTrainer") -> None:
    """Ranks 1..P-1: a group's weight replica, driven by rank 0's control
    records — ``("round",)`` (draw the global batch from this group's own
    ``"global-batch"`` sampler, the same stream as rank 0's, and keep this
    group's slice), ``("weights", sampler_state)`` (restored from a
    checkpoint: the weights are in rank 0's shared row) or ``None`` (the
    run is over, however it ended)."""
    weights = tr.net.get_params()
    buf = ctx.collective_buffer(weights.size)
    sampler = tr.make_sampler("global-batch")
    lo, hi = ctx.rank * tr.group_batch, (ctx.rank + 1) * tr.group_batch
    while True:
        msg = ctx.recv(0)
        if msg is None:
            return
        if msg[0] == "weights":
            weights[:] = ctx.shared_row(TAG_WEIGHTS, weights.size)
            sampler.set_state(msg[1])
        else:
            images, labels = sampler.next_batch()
            ctx.send(_group_round(ctx, tr, weights, buf, images[lo:hi], labels[lo:hi]), 0)


class _PartitionRootStep(_PartitionStepBase):
    """The Figure 12 experiment on real cores: rank 0 of a P-rank cell.

    Every rank is a forked group holding a weight replica (its copy of
    the network) and a ``"global-batch"`` sampler on the trainer's seed.
    Each round rank 0 tells the groups to go; every group draws the same
    global batch, computes the gradient of its ``b/P`` slice and joins the
    allreduce **in the same group order and association as the serial
    path**, so for deterministic (dropout-free) models the weight
    trajectory is bit-identical to
    ``backend="threads"`` / the serial simulation. (Models with
    stochastic layers diverge: the serial path threads ONE RNG through
    all groups, replicas cannot.)

    The simulated clock is charged exactly as in the serial path —
    backends change wall-time, never the modeled time.
    """

    run_backend = "processes"

    def __init__(self, trainer: "ChipPartitionTrainer", ctx) -> None:
        super().__init__(trainer)
        self.ctx = ctx

    def begin(self, pipeline) -> None:
        super().begin(pipeline)
        self.buf = self.ctx.collective_buffer(self.weights.size)

    def _tell_groups(self, msg) -> None:
        for j in range(1, self.ctx.size):
            self.ctx.send(msg, j)

    def _publish_weights(self) -> None:
        # The other groups hold replicas of their own, not self.weights,
        # and samplers of their own. The row is written once, on restore
        # and before any round: each group reads it before it joins the
        # next allreduce, so it is never rewritten under a reader.
        if self.ctx.size > 1:
            self.ctx.shared_row(TAG_WEIGHTS, self.weights.size)[:] = self.weights
            self._tell_groups(("weights", self.sampler.get_state()))

    def step(self, pipeline, t: int) -> float:
        tr, ctx = self.trainer, self.ctx
        b = tr.group_batch
        self._tell_groups(("round",))
        images, labels = self.sampler.next_batch()
        losses = [_group_round(ctx, tr, self.weights, self.buf, images[:b], labels[:b])]
        # Python floats, gathered in group order: riding the float32
        # buffer instead would change train_loss in the records.
        losses += [ctx.recv(j) for j in range(1, ctx.size)]
        self.last_loss = float(np.mean(losses))

        pipeline.breakdown.add("for/backward", self.iter_time)
        return self.iter_time

    def cleanup(self, pipeline) -> None:
        # On every way out (completion, early stop, exception): a follower
        # left in recv would sit out its whole timeout inside a dead cell.
        self._tell_groups(None)
        # A failure's traceback keeps this step alive past the worker's
        # teardown, and a live row view pins the arena's mapping.
        self.buf = None


def _partition_cell(ctx, tr: "ChipPartitionTrainer", iterations: int,
                    resume: bool, snapshotter):
    """Rank program of the chip-partition cell. Rank 0 runs the same
    pipeline as the serial path — eval cadence, records, clock, and the
    checkpoint manager, whose writer thread is born here, after the fork —
    and hands back the final weights with the result."""
    if ctx.rank:
        return _follow(ctx, tr)
    step = _PartitionRootStep(tr, ctx)
    result = run_training(tr, iterations, resume=resume, snapshotter=snapshotter,
                          strategy=step)
    return result, step.weights


class ChipPartitionTrainer(BaseTrainer):
    """Real-numerics trainer for the Figure 12 experiment.

    P groups each compute the gradient of their ``b/P`` slice of the global
    batch; per round the slice gradients are tree-reduced and every group
    applies the same batch-b update (divide and conquer). The clock charges
    each group's compute at the partition's parallel efficiency and the
    reduction/update at the working set's memory bandwidth (MCDRAM while
    the P copies fit, DDR4 after the spill).

    ``backend`` is where the groups run: "threads" is the serial
    simulation, "processes" the ranks of one forked cell (``knl
    --backend``); the weights are the same either way.
    """

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        config: TrainerConfig,
        parts: int,
        chip: KnlChip = KNL_7250_CHIP,
        cost_model: Optional[CostModel] = None,
        data_bytes: Optional[int] = None,
        backend: str = "threads",
    ) -> None:
        super().__init__(network, train_set, test_set, config, cost_model)
        self.chip = chip
        self.parts = parts
        self.backend = validate_backend(backend)
        if config.batch_size % parts != 0:
            raise ValueError(
                f"batch_size {config.batch_size} must divide evenly into "
                f"{parts} groups"
            )
        self.group_batch = config.batch_size // parts
        self.plan = plan_partition(
            parts,
            weight_bytes=self.cost.weight_bytes,
            data_bytes=data_bytes if data_bytes is not None else train_set.nbytes,
            chip=chip,
        )
        self.name = f"KNL {parts}-part"

    def _iter_time(self) -> float:
        """Simulated seconds per round (all groups in parallel + reduction)."""
        group_rate = self.chip.group_flops(self.parts)
        compute = self.cost.fwdbwd_flops(self.group_batch) / group_rate
        # Conquer step: tree-reduce the packed gradient across groups, then
        # every group streams one update pass — all at working-set bandwidth.
        hops = tree_rounds(self.parts)
        reduce_time = hops * (2 * self.cost.weight_bytes / self.plan.bandwidth)
        update_time = 3 * self.cost.weight_bytes / self.plan.bandwidth
        return compute + reduce_time + update_time

    def make_step(self) -> _PartitionStepBase:
        return _PartitionSerialStep(self)

    def train(self, iterations: int, resume: bool = False,
              snapshotter=None) -> RunResult:
        """``backend="processes"`` runs the whole pipeline inside one cold
        P-rank cell (the trainer is fork-inherited, see
        :func:`_partition_cell`); anything else is the serial simulation."""
        if self.backend != "processes":
            return super().train(iterations, resume=resume, snapshotter=snapshotter)
        if snapshotter is not None and snapshotter.name is None:
            # Rank 0 would publish into its private copy of the heap buffer.
            raise UnsupportedOptionError(
                self.name, "a heap-backed snapshotter (shared=False) on "
                           "backend='processes'")
        comm = make_communicator(self.parts, backend="processes")
        try:
            result, weights = comm.run(
                _partition_cell, self, iterations, resume, snapshotter)[0]
        finally:
            comm.close()
        # Leave the net at the final weights, as the serial path does.
        self.net.set_params(weights)
        return result
