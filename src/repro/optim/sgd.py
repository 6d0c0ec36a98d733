"""Plain and momentum SGD over packed parameter vectors.

Weight Update (Section 2.2): ``W <- W - eta * dW``. Momentum SGD
(Equations 3-4): ``V <- mu V - eta dW;  W <- W + V``. All updates are
in-place on the flat buffers (HPC guide: in-place ops, no copies).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SGDRule", "MomentumRule"]


class SGDRule:
    """Stateless SGD step on a packed parameter vector.

    ``weight_decay`` adds the usual L2 term: the effective gradient is
    ``grads + weight_decay * params`` (Caffe's ``weight_decay`` solver
    field, which the paper's prototxt configurations carry).
    """

    def __init__(self, lr: float, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``params -= lr * (grads + weight_decay * params)`` in place."""
        if self.weight_decay:
            params -= self.lr * (grads + self.weight_decay * params)
        else:
            params -= self.lr * grads


class MomentumRule:
    """Momentum SGD (Equations 3-4), per-replica velocity state.

    ``nesterov=True`` applies the look-ahead form (Sutskever et al. [24],
    the reference the paper cites for momentum): the parameters move by
    ``mu*V - lr*grad`` evaluated after the velocity update.
    """

    def __init__(
        self, lr: float, mu: float = 0.9, weight_decay: float = 0.0, nesterov: bool = False
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= mu < 1.0:
            raise ValueError("momentum mu must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.mu = mu
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self.velocity: np.ndarray | None = None

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``V <- mu V - lr dW;  W <- W + V`` (or the Nesterov form)."""
        if self.velocity is None:
            self.velocity = np.zeros_like(params)
        if self.weight_decay:
            grads = grads + self.weight_decay * params
        v = self.velocity
        v *= self.mu
        v -= self.lr * grads
        if self.nesterov:
            params += self.mu * v - self.lr * grads
        else:
            params += v
