"""Regularization layers: Dropout and BatchNorm.

AlexNet (used for the CIFAR experiments) relies on dropout in its
fully-connected layers; batch norm is included for the VGG/GoogleNet-style
mini models where it substantially shortens the synthetic-data runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import Layer, ParamSpec
from repro.util.rng import spawn_rng

__all__ = ["Dropout", "BatchNorm"]


class Dropout(Layer):
    """Inverted dropout: scales at train time so inference is a no-op."""

    def __init__(self, rate: float, seed: int = 0, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = spawn_rng(seed, "dropout", name or "dropout")
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask


class BatchNorm(Layer):
    """Batch normalization over the channel axis (2-D or 4-D inputs).

    For ``(N, C, H, W)`` inputs statistics are computed per channel over
    ``(N, H, W)``; for ``(N, F)`` inputs per feature over ``N``. Running
    statistics (exponential moving average) are used at inference.
    """

    def __init__(self, momentum: float = 0.9, eps: float = 1e-5, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.eps = eps
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        self._cache: Optional[tuple] = None

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) not in (1, 3):
            raise ValueError(f"BatchNorm expects (F,) or (C, H, W), got {input_shape}")
        self.channels = input_shape[0]
        self.running_mean = np.zeros(self.channels, dtype=np.float32)
        self.running_var = np.ones(self.channels, dtype=np.float32)
        return super().build(input_shape)

    def param_specs(self) -> List[ParamSpec]:
        c = self.channels
        return [
            ParamSpec("gamma", (c,), "ones", c, c),
            ParamSpec("beta", (c,), "zeros", c, c),
        ]

    def _axes_and_shape(self, x: np.ndarray) -> tuple:
        if x.ndim == 4:
            return (0, 2, 3), (1, -1, 1, 1)
        if x.ndim == 2:
            return (0,), (1, -1)
        raise ValueError(f"BatchNorm got {x.ndim}-D input")

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes, bshape = self._axes_and_shape(x)
        gamma = self.params["gamma"].reshape(bshape)
        beta = self.params["beta"].reshape(bshape)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean += (1 - self.momentum) * (mean - self.running_mean)
            self.running_var += (1 - self.momentum) * (var - self.running_var)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
            self._cache = (x_hat, inv_std, axes, bshape)
            return gamma * x_hat + beta
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        x_hat = (x - self.running_mean.reshape(bshape)) * inv_std.reshape(bshape)
        return gamma * x_hat + beta

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training-mode forward")
        x_hat, inv_std, axes, bshape = self._cache
        m = dy.size // self.channels  # samples per channel

        self.grads["gamma"] += (dy * x_hat).sum(axis=axes)
        self.grads["beta"] += dy.sum(axis=axes)

        gamma = self.params["gamma"].reshape(bshape)
        dxhat = dy * gamma
        # Standard batchnorm backward: dx = (1/m) inv_std (m dxhat
        #   - sum(dxhat) - x_hat * sum(dxhat * x_hat))
        sum_dxhat = dxhat.sum(axis=axes, keepdims=True)
        sum_dxhat_xhat = (dxhat * x_hat).sum(axis=axes, keepdims=True)
        inv = inv_std.reshape(bshape)
        return (inv / m) * (m * dxhat - sum_dxhat - x_hat * sum_dxhat_xhat)
