"""Hogwild training on a shared-memory center (threads or processes).

:class:`HogwildRunner` runs one :data:`repro.engine.ps.PS_FAMILIES` row
on workers that share the center itself, with no turn order. Each worker
runs the row's local pass, serves its payload to the row's store bound
to the shared center, and folds the reply with the row's rule: the
sequence the simulated trainer and the rank program
(:mod:`repro.algorithms.ps_runner`, whose workers take round-robin
turns) run, so the row's mathematics exists once for every plane. With one worker nothing races, and the final
center is byte-equal to the simulated row's.

The row decides the lock. A lock-free row (``hogwild-sgd``,
``hogwild-easgd``) serves without one, so the workers' ``+=`` race on the
center exactly as the paper's lock-free master does; its locked twin
(``async-sgd``, ``async-easgd``) holds one around each serve.
``backend="threads"`` races Python threads on a heap copy of the center
(NumPy ufuncs release the GIL); ``backend="processes"`` forks real OS
processes racing on a named shared-memory segment — the same
physical-memory picture as the paper's multi-core masters, with no GIL
serializing the ``+=``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
import multiprocessing
import threading
import time
from typing import List, Tuple

import numpy as np

from repro.algorithms.launch import validate_hyperparameters
from repro.comm.backend import make_communicator, validate_backend
from repro.comm.mp_runtime import SharedFlatArray
from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.engine.ps import CenterStore, PS_FAMILIES
from repro.engine.rank_loop import rank_steps
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Network
from repro.optim import EASGDHyper

__all__ = ["HOGWILD_METHODS", "HogwildResult", "HogwildRunner"]

#: The rows a shared center runs: SGD and EASGD, each lock-free and
#: behind the master's lock — the paper's Hogwild comparison.
HOGWILD_METHODS = ("hogwild-sgd", "hogwild-easgd", "async-sgd", "async-easgd")


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
    """Run ``num_workers`` workers of family ``method`` (one of
    :data:`HOGWILD_METHODS`) for ``steps_per_worker`` exchanges each."""

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        num_workers: int,
        steps_per_worker: int,
        method: str = "hogwild-easgd",
        batch_size: int = 32,
        lr: float = 0.05,
        rho: float = 2.0,
        seed: int = 0,
        backend: str = "threads",
    ) -> None:
        if method not in HOGWILD_METHODS:
            raise ValueError(f"method must be one of {HOGWILD_METHODS}, got {method!r}")
        if num_workers <= 0 or steps_per_worker <= 0:
            raise ValueError("workers and steps must be positive")
        validate_hyperparameters(lr, batch_size, train_set)
        validate_backend(backend)
        self.template = network
        self.train_set = train_set
        self.num_workers = num_workers
        self.steps_per_worker = steps_per_worker
        self.row = PS_FAMILIES[method]
        self.batch_size = batch_size
        self.hyper = EASGDHyper(lr=lr, rho=rho)
        self.seed = seed
        self.backend = backend

    def _worker_body(self, ctx, store: CenterStore, lock) -> Tuple[int, float]:
        """One worker's full run; returns (steps completed, last batch loss)."""
        row = self.row
        net = self.template.clone(name=f"hogwild-w{ctx.rank}")
        rule = row.rule()
        state = rule.init_state(net.params)
        sampler = BatchSampler(
            self.train_set, self.batch_size, self.seed, name=("worker", ctx.rank)
        )
        loss = SoftmaxCrossEntropy()
        steps = 0
        last_loss = float("nan")
        for _ in rank_steps(ctx, self.steps_per_worker):
            last_loss = row.local_passes(rule, state, net, sampler, loss, self.hyper, 1)
            grad = net.grads
            with lock:
                reply = store.serve(rule.payload(state, grad))
                if reply is store.weights:
                    reply = store.pull()  # read the live center under the lock
            rule.apply(state, grad, reply, self.hyper)
            steps += 1
        return steps, last_loss

    def run(self) -> HogwildResult:
        """Race the workers as the ranks of one communicator cell.

        The store is built *before* the launch: on ``processes`` the
        forked ranks inherit it bound to a named shared-memory segment
        (and, for a locked row, a ``multiprocessing.Lock``), so their
        lock-free ``+=`` really interleave in physical memory and nothing
        is pickled on the way in. Launch, pinning, failure aggregation
        and the died-without-reporting check are the communicator's.
        """
        start = time.perf_counter()
        comm = make_communicator(self.num_workers, backend=self.backend)
        init = self.template.get_params()
        segment = SharedFlatArray.from_array(init) if self.backend == "processes" else None
        store = self.row.store(self.hyper, self.num_workers).bind(
            init if segment is None else segment.array)
        if self.row.lock_free:
            lock = nullcontext()
        else:
            lock = threading.Lock() if segment is None else multiprocessing.Lock()
        try:
            outcomes = comm.run(self._worker_body, store, lock)
            wall = time.perf_counter() - start
        finally:
            comm.close()
            final = store.pull()
            store.weights = None  # the last view of the segment goes first
            if segment is not None:
                segment.unlink()
        return HogwildResult(
            final_weights=final,
            wall_seconds=wall,
            steps_per_worker=[steps for steps, _ in outcomes],
            final_losses=[loss for _, loss in outcomes],
            backend=self.backend,
        )
