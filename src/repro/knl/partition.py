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

Both execution backends (serial simulation and real forked group workers)
are clock step strategies over the shared :class:`repro.engine
.StepPipeline`; they differ in where gradients are computed, never in the
numbers they produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.comm.collectives import tree_reduce, tree_rounds
from repro.data.dataset import Dataset
from repro.engine.strategy import ClockStepStrategy, MeanGradientUpdate
from repro.knl.chip import KNL_7250_CHIP, KnlChip
from repro.nn.network import Network

__all__ = ["PartitionPlan", "plan_partition", "ChipPartitionTrainer"]

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
        self.update = MeanGradientUpdate(tr.config.lr)

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


class _PartitionProcessesStep(_PartitionStepBase):
    """The Figure 12 experiment on real cores.

    P persistent forked group workers each hold a weight replica
    (their forked copy of the network) and one named shared-memory
    gradient segment; the parent holds the weights in a named
    shared-memory segment all groups map. Per round the parent stages
    each group's ``b/P`` batch slice directly into per-group
    shared-memory segments (float32 images, integer labels) and puts
    only a round token on the task queue — no batch bytes are ever
    pickled; the ``done_q`` round barrier guarantees a single staging
    buffer per group suffices. The groups write gradients straight
    into shared memory, and the parent tree-reduces the P
    segment views **in the same group order and association as the
    serial path**, so for deterministic (dropout-free) models the
    weight trajectory is bit-identical to ``backend="threads"`` /
    the serial simulation. (Models with stochastic layers diverge:
    the serial path threads ONE RNG through all groups, replicas
    cannot.)

    The simulated clock is charged exactly as in the serial path —
    backends change wall-time, never the modeled time.
    """

    run_backend = "processes"

    def begin(self, pipeline) -> None:
        import multiprocessing

        from repro.comm.mp_runtime import SharedFlatArray, fork_available

        if not fork_available():
            raise RuntimeError(
                "backend='processes' requires the fork start method; "
                "use backend='threads' on this platform"
            )
        super().begin(pipeline)
        tr = self.trainer
        p = tr.parts
        mp_ctx = multiprocessing.get_context("fork")

        w_shm = SharedFlatArray.from_array(self.weights)
        g_shms = [SharedFlatArray.create(tr.net.num_params) for _ in range(p)]
        # Per-group batch staging segments: the parent writes each round's
        # slice in place, children read the same physical pages (MCDRAM-
        # style data placement) — the task queue carries a bare round token.
        img_shape = (tr.group_batch,) + tr.train_set.images.shape[1:]
        lbl_shape = (tr.group_batch,) + tr.train_set.labels.shape[1:]
        img_shms = [
            SharedFlatArray.create(
                int(np.prod(img_shape)), dtype=tr.train_set.images.dtype
            )
            for _ in range(p)
        ]
        lbl_shms = [
            SharedFlatArray.create(
                int(np.prod(lbl_shape)), dtype=tr.train_set.labels.dtype
            )
            for _ in range(p)
        ]
        task_qs = [mp_ctx.Queue() for _ in range(p)]
        done_q = mp_ctx.Queue()
        net, loss_fn = tr.net, tr.loss

        def group_main(j: int) -> None:
            # `net` is this child's forked copy — the group's MCDRAM-style
            # weight replica; `w_shm`/`g_shms`/`img_shms`/`lbl_shms` map the
            # parent's segments.
            grad_view = g_shms[j].array
            images = img_shms[j].array.reshape(img_shape)
            labels = lbl_shms[j].array.reshape(lbl_shape)
            while True:
                task = task_qs[j].get()
                if task is None:
                    return
                net.set_params(w_shm.array)
                loss = net.gradient(images, labels, loss_fn)
                grad_view[:] = net.grads
                done_q.put((j, loss))

        procs = [
            mp_ctx.Process(target=group_main, args=(j,), name=f"knl-group-{j}")
            for j in range(p)
        ]
        for proc in procs:
            proc.start()

        self.w_shm, self.g_shms = w_shm, g_shms
        self.img_shms, self.lbl_shms = img_shms, lbl_shms
        self.task_qs, self.done_q = task_qs, done_q
        self.procs = procs
        self.img_views = [s.array.reshape(img_shape) for s in img_shms]
        self.lbl_views = [s.array.reshape(lbl_shape) for s in lbl_shms]

    def _publish_weights(self) -> None:
        # The group workers read the shared segment, not self.weights.
        self.w_shm.array[:] = self.weights

    def step(self, pipeline, t: int) -> float:
        import queue as _queue

        tr = self.trainer
        p = tr.parts
        images, labels = self.sampler.next_batch()
        # Stage slices in shared memory, then wake each group with a
        # round token. Safe with one buffer per group: the done_q
        # barrier below means no group is still reading round t-1.
        for j in range(p):
            lo, hi = j * tr.group_batch, (j + 1) * tr.group_batch
            self.img_views[j][:] = images[lo:hi]
            self.lbl_views[j][:] = labels[lo:hi]
            self.task_qs[j].put(t)
        losses: List[float] = [0.0] * p
        for _ in range(p):
            try:
                j, loss = self.done_q.get(timeout=120.0)
            except _queue.Empty:
                dead = [j for j in range(p) if not self.procs[j].is_alive()]
                raise RuntimeError(
                    f"KNL group worker(s) {dead} died mid-iteration {t}"
                ) from None
            losses[j] = loss
        self.last_loss = float(np.mean(losses))
        self.weights -= tr.config.lr * (tree_reduce([g.array for g in self.g_shms]) / p)
        self.w_shm.array[:] = self.weights  # publish for the next round

        pipeline.breakdown.add("for/backward", self.iter_time)
        return self.iter_time

    def cleanup(self, pipeline) -> None:
        for q in self.task_qs:
            q.put(None)
        for proc in self.procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung-worker cleanup
                proc.terminate()
                proc.join(timeout=5.0)
        for q in [*self.task_qs, self.done_q]:
            q.cancel_join_thread()
            q.close()
        # The reshaped views export the segments' buffers; a mapping cannot
        # close while one is alive.
        self.img_views = self.lbl_views = []
        for seg in [self.w_shm, *self.g_shms, *self.img_shms, *self.lbl_shms]:
            seg.unlink()

    def end(self, pipeline) -> None:
        # Leave the net at the final weights, as the serial path does.
        self.trainer.net.set_params(self.weights)


class ChipPartitionTrainer(BaseTrainer):
    """Real-numerics trainer for the Figure 12 experiment.

    P groups each compute the gradient of their ``b/P`` slice of the global
    batch; per round the slice gradients are tree-reduced and every group
    applies the same batch-b update (divide and conquer). The clock charges
    each group's compute at the partition's parallel efficiency and the
    reduction/update at the working set's memory bandwidth (MCDRAM while
    the P copies fit, DDR4 after the spill).
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
        kernel_efficiency: float = 0.25,
    ) -> None:
        super().__init__(network, train_set, test_set, config, cost_model)
        self.chip = chip
        self.parts = parts
        self.kernel_efficiency = kernel_efficiency
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
        group_rate = self.chip.group_flops(self.parts, self.kernel_efficiency)
        compute = self.cost.fwdbwd_flops(self.group_batch) / group_rate
        # Conquer step: tree-reduce the packed gradient across groups, then
        # every group streams one update pass — all at working-set bandwidth.
        hops = tree_rounds(self.parts)
        reduce_time = hops * (2 * self.cost.weight_bytes / self.plan.bandwidth)
        update_time = 3 * self.cost.weight_bytes / self.plan.bandwidth
        return compute + reduce_time + update_time

    def make_step(self) -> _PartitionStepBase:
        if self.config.backend == "processes":
            return _PartitionProcessesStep(self)
        return _PartitionSerialStep(self)
