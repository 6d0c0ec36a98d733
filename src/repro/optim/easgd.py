"""The EASGD update equations (Zhang et al. 2015; paper Eqs 1, 2, 5, 6).

Worker update (Eq 1):

    W^i_{t+1} = W^i_t - eta * (dW^i_t + rho * (W^i_t - Wbar_t))

Center (master) update (Eq 2):

    Wbar_{t+1} = Wbar_t + eta * sum_i rho * (W^i_t - Wbar_t)

Momentum worker update (Eqs 5-6):

    V^i_{t+1} = mu V^i_t - eta dW^i_t
    W^i_{t+1} = W^i_t + V^i_{t+1} - eta rho (W^i_t - Wbar_t)

The round-robin / asynchronous master applies Eq 2 with a single worker's
term at a time (Algorithm 1 line 14): ``Wbar += eta rho (W^j - Wbar)``.

All functions mutate their first argument in place on packed flat vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EASGDHyper",
    "elastic_worker_update",
    "elastic_center_update",
    "elastic_center_update_single",
    "elastic_momentum_worker_update",
]


@dataclass(frozen=True)
class EASGDHyper:
    """Hyperparameters shared by all EASGD variants.

    The elastic step size ``eta * rho`` must lie in (0, 1) for the elastic
    force to be a contraction toward the center (stability condition from
    the EASGD paper); validated here so every algorithm inherits the check.
    """

    lr: float  # eta
    rho: float  # elastic coupling strength
    mu: float = 0.9  # momentum rate (MEASGD only)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must be in [0, 1)")
        if not 0.0 < self.lr * self.rho < 1.0 and self.rho > 0:
            raise ValueError(
                f"elastic step lr*rho = {self.lr * self.rho} must be in (0, 1)"
            )

    @property
    def alpha(self) -> float:
        """The elastic step size eta * rho (the EASGD paper's alpha)."""
        return self.lr * self.rho

    def validate_sync(self, num_workers: int) -> None:
        """Reject hyperparameters that make synchronous EASGD diverge.

        On a quadratic of curvature h, Eq 1 and Eq 2 (both reading the
        pre-update center) move the workers' mean and the center by a
        2 x 2 linear map (Zhang et al.'s stability analysis). One of its
        stability conditions is ``(2 - eta*h) * (2 - P*alpha) > 2*alpha``;
        along the flat directions every network has (``eta*h -> 0``) they
        all reduce to ``(P + 1) * alpha < 2``. The center's own recurrence
        alone would only need ``P * alpha < 2``: the looser bound admits
        ``2/(P+1) <= alpha < 2/P``, where the coupled pair oscillates with
        growing amplitude (``tests/test_optim.py``).
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if (num_workers + 1) * self.alpha >= 2.0:
            raise ValueError(
                "unstable synchronous EASGD: (P+1)*alpha = "
                f"{(num_workers + 1) * self.alpha:.3f} >= 2 at P = {num_workers}; "
                "reduce lr or rho"
            )


def elastic_worker_update(
    weights: np.ndarray, grads: np.ndarray, center: np.ndarray, hyper: EASGDHyper
) -> None:
    """Equation 1, in place on ``weights``.

    The right-hand side is evaluated fully before the in-place subtraction,
    so both the gradient term and the elastic term see the pre-update W^i_t.
    """
    weights -= hyper.lr * grads + hyper.alpha * (weights - center)


def elastic_center_update(
    center: np.ndarray, worker_weights: Sequence[np.ndarray], hyper: EASGDHyper
) -> None:
    """Equation 2, in place on ``center``: fold in all workers at once.

    Stability: beside Eq 1 this iteration diverges unless
    ``(P + 1) * alpha < 2`` (the paper's Eq 2 is silent on this;
    :meth:`EASGDHyper.validate_sync` derives the bound). We reject the
    unstable regime outright.
    """
    if not worker_weights:
        raise ValueError("need at least one worker weight vector")
    hyper.validate_sync(len(worker_weights))
    total = np.zeros_like(center)
    for w in worker_weights:
        total += w
    p = len(worker_weights)
    center += hyper.alpha * (total - p * center)


def elastic_center_update_single(
    center: np.ndarray, worker_weight: np.ndarray, hyper: EASGDHyper
) -> None:
    """One-worker master step (Algorithm 1 line 14 / async service)."""
    center += hyper.alpha * (worker_weight - center)


def elastic_momentum_worker_update(
    weights: np.ndarray,
    velocity: np.ndarray,
    grads: np.ndarray,
    center: np.ndarray,
    hyper: EASGDHyper,
) -> None:
    """Equations 5-6, in place on ``weights`` and ``velocity``."""
    velocity *= hyper.mu
    velocity -= hyper.lr * grads
    # Eq 6's elastic term uses W^i_t (pre-update), so apply it before adding V.
    weights -= hyper.alpha * (weights - center)
    weights += velocity
