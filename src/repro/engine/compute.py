"""The shared "stage data -> local compute" phase of every simulated family.

Every synchronous family (:class:`repro.engine.sync.SyncStep`) runs the
same two sub-phases per iteration: draw one batch per computing worker
and take its gradient (:func:`gather_gradients`), and cost the
forward/backward passes with per-worker straggler inflation
(:func:`jittered_fwdbwd`). They live here so the update/communication
seam (strategy + parameter-server layers) carries no compute plumbing;
``repro.engine`` re-exports both names.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["gather_gradients", "jittered_fwdbwd"]


def gather_gradients(
    trainer,
    samplers,
    live: Sequence[int],
    weights: Optional[Sequence[np.ndarray]],
    keep: Callable[[int, np.ndarray], object],
) -> Tuple[list, List[float]]:
    """Stage one batch and compute one gradient per live worker.

    When ``weights`` is given each worker's replica is loaded before its
    pass (the EASGD families); when it is None the network keeps its
    current (shared) parameters (the Sync SGD family). ``keep(j, grad)``
    is handed the network's live gradient buffer after worker ``j``'s
    pass and returns what outlives the next one (a copy when all
    gradients meet in a reduction).
    """
    grads: list = []
    losses: List[float] = []
    for j in live:
        images, labels = samplers[j].next_batch()
        if weights is not None:
            trainer.net.set_params(weights[j])
        losses.append(trainer.net.gradient(images, labels, trainer.loss))
        grads.append(keep(j, trainer.net.grads))
    return grads, losses


def jittered_fwdbwd(
    platform,
    cost,
    batch_size: int,
    live: Sequence[int],
    plan,
    sim_time: float,
) -> List[float]:
    """Per-live-worker forward/backward seconds with straggler inflation."""
    return [
        platform.fwdbwd_time(cost, batch_size, worker=j)
        * (plan.slowdown(j, sim_time) if plan is not None else 1.0)
        for j in live
    ]
