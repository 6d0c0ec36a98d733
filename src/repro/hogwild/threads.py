"""Hogwild training on a shared weight vector (threads or processes).

Each worker owns a private network replica and batch sampler; the master
weights live in a :class:`repro.hogwild.shared.SharedWeights`. Two update
rules:

- ``"sgd"``: workers push gradient steps straight into the shared weights
  (Hogwild SGD, Recht et al.).
- ``"easgd"``: workers keep local weights, exchange elastically with the
  shared center (Hogwild EASGD, the paper's method).

This is wall-clock-real concurrency, not simulation: with ``use_lock=False``
the workers race on the shared buffer exactly as the paper's lock-free
master does. ``backend="threads"`` races Python threads on a heap array;
``backend="processes"`` forks real OS processes racing on a named
shared-memory segment — the same physical-memory picture as the paper's
multi-core masters, with no GIL serializing the ``+=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import List, Tuple

import numpy as np

from repro.comm.arena import BufferArena
from repro.comm.backend import make_communicator, validate_backend
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.rank_loop import rank_steps
from repro.hogwild.shared import SharedWeights
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper, elastic_worker_update

__all__ = ["HogwildResult", "HogwildRunner"]


@dataclass
class HogwildResult:
    """Outcome of one concurrent run."""

    final_weights: np.ndarray
    #: Launch + run + teardown of the communicator cell the workers ran in.
    wall_seconds: float
    steps_per_worker: List[int]
    final_losses: List[float] = field(default_factory=list)
    backend: str = "threads"

    @property
    def total_steps(self) -> int:
        return sum(self.steps_per_worker)


class HogwildRunner:
    """Run ``num_workers`` workers for ``steps_per_worker`` updates each."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        num_workers: int,
        steps_per_worker: int,
        rule: str = "easgd",
        use_lock: bool = False,
        batch_size: int = 32,
        lr: float = 0.05,
        rho: float = 2.0,
        seed: int = 0,
        backend: str = "threads",
    ) -> None:
        if num_workers <= 0 or steps_per_worker <= 0:
            raise ValueError("workers and steps must be positive")
        if rule not in ("sgd", "easgd"):
            raise ValueError("rule must be 'sgd' or 'easgd'")
        validate_backend(backend)
        self.template = network
        self.train_set = train_set
        self.num_workers = num_workers
        self.steps_per_worker = steps_per_worker
        self.rule = rule
        self.use_lock = use_lock
        self.batch_size = batch_size
        self.hyper = EASGDHyper(lr=lr, rho=rho)
        self.seed = seed
        self.backend = backend

    def _worker_body(self, ctx, shared: SharedWeights) -> Tuple[int, float]:
        """One worker's full run; returns (steps completed, last batch loss)."""
        net = self.template.clone(name=f"hogwild-w{ctx.rank}")
        local = shared.snapshot()
        sampler = BatchSampler(
            self.train_set, self.batch_size, self.seed, name=("hogwild", ctx.rank)
        )
        loss = SoftmaxCrossEntropy()
        # Per-worker scratch (scaled gradient, pulled center) reused every
        # step — the hot loop allocates nothing for the master exchange.
        arena = BufferArena()
        steps = 0
        last_loss = float("nan")
        for _ in rank_steps(ctx, self.steps_per_worker):
            images, labels = sampler.next_batch()
            net.set_params(local)
            last_loss = net.gradient(images, labels, loss)
            if self.rule == "sgd":
                scaled = arena.get("scaled-grad", net.grads.shape, net.grads.dtype)
                np.multiply(net.grads, self.hyper.lr, out=scaled)
                shared.sgd_update(scaled)
                shared.snapshot_into(local)
            else:
                center = shared.elastic_interaction(
                    local, self.hyper,
                    out=arena.get("center", local.shape, local.dtype),
                )
                elastic_worker_update(local, net.grads, center, self.hyper)
            steps += 1
        return steps, last_loss

    def run(self) -> HogwildResult:
        """Race the workers as the ranks of one communicator cell.

        The store is built *before* the launch: on ``processes`` the
        forked ranks inherit the :class:`SharedWeights` object whose
        buffer is a named shared-memory mapping (with its
        ``multiprocessing.Lock`` and counter), so their lock-free ``+=``
        really interleave in physical memory and nothing is pickled on
        the way in. Launch, pinning, failure aggregation and the
        died-without-reporting check are the communicator's.
        """
        start = time.perf_counter()
        comm = make_communicator(self.num_workers, backend=self.backend)
        shared = SharedWeights(
            self.template.get_params(), use_lock=self.use_lock,
            storage="shared" if self.backend == "processes" else "local",
        )
        try:
            outcomes = comm.run(self._worker_body, shared)
            wall = time.perf_counter() - start
            final = shared.snapshot()
        finally:
            comm.close()
            shared.close()
        return HogwildResult(
            final_weights=final,
            wall_seconds=wall,
            steps_per_worker=[steps for steps, _ in outcomes],
            final_losses=[loss for _, loss in outcomes],
            backend=self.backend,
        )
