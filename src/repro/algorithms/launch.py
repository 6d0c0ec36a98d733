"""The one launcher behind every ``run_mpi_*`` entry point.

A message-passing run is a *rank program* — a module-level function
``program(ctx, *args)`` executed once per rank — plus the same five
steps around it: validate, build the communicator, run, close, unpack.
Those steps live here once. Every rank program hands back a
:class:`RankOutcome`; :func:`launch` folds the ranks' outcomes into one
:class:`MpiResult`; :func:`launch_sync` runs a synchronous family's rule.
What every rank would trip over is refused by
:func:`validate_hyperparameters`, before any rank starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.comm.backend import make_communicator
from repro.data.dataset import Dataset
from repro.engine.rank_loop import RankOutcome, sync_rank_program
from repro.nn.network import Network
from repro.trace.events import Trace

__all__ = ["RankOutcome", "MpiResult", "launch", "launch_sync", "validate_hyperparameters"]


@dataclass
class MpiResult:
    """Outcome of one message-passing run."""

    center: np.ndarray  # final center (sync SGD: the shared weights)
    worker_weights: List[np.ndarray]  # final local weights of every training rank
    center_history: List[np.ndarray] = field(default_factory=list)
    mean_losses: List[float] = field(default_factory=list)  # per round, over workers
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def weights(self) -> np.ndarray:
        """The trained model: the center."""
        return self.center


def launch(
    program: Callable[..., RankOutcome],
    args: tuple,
    ranks: int,
    iterations: int,
    *,
    min_ranks: int = 2,
    trace: Optional[Trace] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    **comm: Any,
) -> MpiResult:
    """Run ``program(ctx, *args)`` on ``ranks`` threads or processes.

    ``comm`` goes to :func:`repro.comm.backend.make_communicator`:
    ``backend``, ``timeout``, ``pool`` (a persistent
    :class:`repro.pool.WorkerPool` instead of a fork per call) and
    ``collective`` — all of which change how bytes travel, never their
    values — plus ``transport``, a compatibility argument that accepts
    only ``None`` or ``"shm"`` (shared memory is the one process fabric).
    ``trace_meta`` stamps defaults on a caller's trace.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if ranks < min_ranks:
        raise ValueError(f"need at least {min_ranks} ranks, got {ranks}")
    if trace is not None:
        for key, value in (trace_meta or {}).items():
            trace.meta.setdefault(key, value)
    communicator = make_communicator(ranks, trace=trace, **comm)
    try:
        outcomes = communicator.run(program, *args)
    finally:
        communicator.close()
    reported = [o.losses for o in outcomes if len(o.losses)]
    if len(reported) == 1:
        mean_losses = list(reported[0])
    else:  # peers each report their own: average per round
        mean_losses = [float(np.mean(per_round)) for per_round in zip(*reported)]
    root = next((o for o in outcomes if o.center is not None), outcomes[0])
    return MpiResult(
        center=root.center,
        worker_weights=[o.local for o in outcomes],
        center_history=list(root.history),
        mean_losses=mean_losses,
        extras=dict(root.extras or {}),
    )


def validate_hyperparameters(lr: float, batch_size: int, train_set: Dataset) -> None:
    """Refuse a step size or batch every rank would trip over, in the
    caller, before any rank starts (a rank's failure costs a launch)."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if batch_size > len(train_set):
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {len(train_set)}")


def launch_sync(make_rule: Callable[[], Any], lr: float, network: Network,
                train_set: Dataset, ranks: int, iterations: int, batch_size: int,
                seed: int, *, record_history: bool = False, min_ranks: int = 1,
                **launch_kwargs: Any) -> MpiResult:
    """Run :func:`repro.engine.rank_loop.sync_rank_program` on ``ranks``
    ranks, each building its own rule with ``make_rule()`` (picklable).
    ``launch_kwargs`` go to :func:`launch`."""
    validate_hyperparameters(lr, batch_size, train_set)
    return launch(
        sync_rank_program,
        (make_rule, network, train_set, iterations, batch_size, seed, record_history),
        ranks, iterations, min_ranks=min_ranks, **launch_kwargs,
    )
