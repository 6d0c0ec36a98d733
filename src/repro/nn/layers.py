"""Trainable and structural layers.

Every layer follows a build/bind/forward/backward protocol designed around
the packed parameter buffer of Section 5.2:

1. ``build(input_shape)`` infers the output shape and declares parameter
   specs (name, shape, initializer, fan-in/out) — no allocation yet.
2. The owning :class:`repro.nn.network.Network` allocates ONE contiguous
   float32 buffer for all parameters (and one for all gradients) and calls
   ``bind`` with per-parameter views into it.
3. ``forward``/``backward`` operate batch-at-a-time; ``backward`` writes
   parameter gradients into the bound views and returns the input gradient.

Shapes exclude the batch dimension: ``input_shape`` is e.g. ``(C, H, W)``.

**Memory order.** Every 4-D array a layer receives or returns is *shaped*
``(N, C, H, W)``. :class:`Conv2D` produces its output (and its input
gradient) with the batch innermost in memory — ``(C, H, W, N)`` handed on
as a transposed view, see :mod:`repro.nn.tensor_ops` — and the elementwise
and pooling layers downstream keep whatever order they are given (NumPy's
``order="K"``), so they walk unit-stride runs either way. No layer but
``Conv2D`` depends on it: ``Flatten`` and ``Dense`` reshape by logical index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.tensor_ops import col2im, conv_output_size, im2col

__all__ = [
    "ParamSpec",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
]


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one trainable tensor within a layer."""

    name: str
    shape: Tuple[int, ...]
    init: str  # key into repro.nn.init.INITIALIZERS
    fan_in: int
    fan_out: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def _zeros_ordered_like(like: np.ndarray, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Zeros of ``shape`` whose axes sit in memory in the order ``like``'s do.

    What ``np.zeros_like(..., order="K")`` would give if it took a shape:
    a layer that allocates its input gradient this way hands back the
    memory order it was given, whatever that order is.
    """
    outer_first = sorted(range(like.ndim), key=lambda a: -abs(like.strides[a]))
    buf = np.zeros([shape[a] for a in outer_first], dtype=dtype)
    return buf.transpose(np.argsort(outer_first))


class Layer:
    """Base layer. Subclasses override ``build``, ``forward``, ``backward``.

    **Aliasing contract.** What ``forward`` and ``backward`` return is never
    a view of state that a later call overwrites: a caller may keep it
    (serving keeps logits, the gradchecks keep ``dx``). No result depends on
    what an earlier call left behind.

    **One backward per training forward.** ``backward`` may release what
    ``forward`` cached once it has used it; :class:`Conv2D` does, because
    its unfolded input is ``k*k`` times the input and would otherwise stay
    pinned per replica until the next step — or, in a finished trainer's
    network, until the cyclic GC finds it. A second ``backward`` raises the
    same ``RuntimeError`` as one with no training-mode forward before it.
    """

    #: Per-call caches — forward activations, masks, and the
    #: ``params``/``grads`` views the owning network re-binds. They are not
    #: part of a layer's state: a copied or pickled layer starts without them.
    _CACHES = ("params", "grads", "_x", "_y", "_cols", "_mask", "_masks",
               "_relu_mask", "_cache")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._CACHES:
            if name in state:
                state[name] = {} if isinstance(state[name], dict) else None
        return state

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------
    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Infer the output shape; default is shape-preserving."""
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        """Parameter declarations; default: parameter-free layer."""
        return []

    def bind(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        """Attach parameter/gradient views allocated by the network."""
        self.params = params
        self.grads = grads

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- cost accounting ---------------------------------------------------
    def flops_per_sample(self) -> int:
        """Approximate forward-pass FLOPs per input sample (multiply-adds x2).

        Used by the simulated clock; backward is modeled as 2x forward.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, out={self.output_shape})"


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b`` over flattened features."""

    def __init__(self, units: int, name: Optional[str] = None) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = units
        self._x: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got {input_shape}; add Flatten first"
            )
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        (fan_in,) = self.input_shape
        return [
            ParamSpec("W", (fan_in, self.units), "xavier", fan_in, self.units),
            ParamSpec("b", (self.units,), "zeros", fan_in, self.units),
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """``input_grad=False`` (the network's first trainable layer) skips
        the ``dy @ W.T`` nobody reads and returns None."""
        if self._x is None:
            raise RuntimeError("backward called without a training-mode forward")
        self.grads["W"] += self._x.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T if input_grad else None

    def flops_per_sample(self) -> int:
        (fan_in,) = self.input_shape
        return 2 * fan_in * self.units


class Conv2D(Layer):
    """2-D convolution via im2col + GEMM, with AlexNet-style channel groups.

    Input ``(N, C, H, W)``; weight ``(out_channels, C/groups, kh, kw)``;
    output ``(N, out_channels, H', W')``. ``groups > 1`` splits input and
    output channels into independent groups (AlexNet's two-GPU legacy
    layout for conv2/4/5, which the full-scale ModelSpec also uses).

    The unfolded input is one channel-major matrix ``(C*k*k, H'*W'*N)``
    (:func:`repro.nn.tensor_ops.im2col`); a group is a block of its rows,
    so every ``groups`` takes the same path:
    ``y[group] = W_mat[group] @ cols[group rows]`` straight into an
    ``(out_channels, H', W', N)`` buffer returned as an NCHW view.
    """

    #: Samples per unfold at inference: an evaluation batch goes through in
    #: slices, so the unfolded matrix of a whole one is never allocated.
    INFERENCE_SLICE = 32

    def __init__(
        self,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        groups: int = 1,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if out_channels <= 0 or kernel_size <= 0 or stride <= 0 or pad < 0:
            raise ValueError("invalid Conv2D hyperparameters")
        if groups <= 0 or out_channels % groups != 0:
            raise ValueError("groups must be positive and divide out_channels")
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        self.groups = groups
        self._cols: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        if c % self.groups != 0:
            raise ValueError(
                f"input channels {c} not divisible into {self.groups} groups"
            )
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.pad)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.pad)
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.out_channels, out_h, out_w)
        self.built = True
        return self.output_shape

    def param_specs(self) -> List[ParamSpec]:
        c, _, _ = self.input_shape
        k = self.kernel_size
        cg = c // self.groups
        fan_in = cg * k * k
        fan_out = (self.out_channels // self.groups) * k * k
        return [
            ParamSpec("W", (self.out_channels, cg, k, k), "he", fan_in, fan_out),
            ParamSpec("b", (self.out_channels,), "zeros", fan_in, fan_out),
        ]

    def _groups(self):
        """Per group: its rows of the unfolded matrix, its output channels."""
        rows = (self.input_shape[0] // self.groups) * self.kernel_size ** 2
        og = self.out_channels // self.groups
        for g in range(self.groups):
            yield slice(g * rows, (g + 1) * rows), slice(g * og, (g + 1) * og)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n = x.shape[0]
        k = self.kernel_size
        out_c, out_h, out_w = self.output_shape
        hw = out_h * out_w
        w_mat = self.params["W"].reshape(out_c, -1)
        y = np.empty((out_c, hw, n), dtype=np.result_type(x.dtype, w_mat.dtype))

        # A training batch is unfolded whole (backward needs the columns);
        # an inference batch goes through in slices.
        step = n if training else min(n, self.INFERENCE_SLICE)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            cols = im2col(x[lo:hi], k, k, self.stride, self.pad)
            # The batch is the innermost axis of y: a slice of it is not a
            # column block, so it takes one extra copy into place.
            whole = hi - lo == n
            part = y.reshape(out_c, -1) if whole else np.empty((out_c, hw * (hi - lo)), y.dtype)
            for in_rows, outs in self._groups():
                np.matmul(w_mat[outs], cols[in_rows], out=part[outs])
            if not whole:
                y[:, :, lo:hi] = part.reshape(out_c, hw, hi - lo)
        y += self.params["b"][:, None, None]

        self._cols = cols if training else None
        return y.reshape(out_c, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """``input_grad=False`` (the network's first trainable layer) skips
        the ``dcols`` GEMM and the fold nobody reads and returns None."""
        if self._cols is None:
            raise RuntimeError("backward called without a training-mode forward")
        n, out_c = dy.shape[:2]
        k = self.kernel_size
        # A view when dy has the output's memory order (it does when it
        # comes back through ReLU/pooling from this layer's own output).
        dy_mat = dy.transpose(1, 2, 3, 0).reshape(out_c, -1)  # (out_c, oh*ow*N)
        w_mat = self.params["W"].reshape(out_c, -1)
        g_mat = self.grads["W"].reshape(out_c, -1)
        cols, self._cols = self._cols, None

        self.grads["b"] += dy_mat.sum(axis=1)
        for in_rows, outs in self._groups():
            # (cols @ dy.T).T, not dy @ cols.T: same product, and the BLAS
            # here runs it 1.7-2x faster with the long axis contiguous on
            # both operands (docs/performance.md, "The nn plane").
            g_mat[outs] += (cols[in_rows] @ dy_mat[outs].T).T
        if not input_grad:
            return None
        dcols = np.empty(cols.shape, dtype=np.result_type(dy.dtype, w_mat.dtype))
        for in_rows, outs in self._groups():
            np.matmul(w_mat[outs].T, dy_mat[outs], out=dcols[in_rows])
        return col2im(dcols, (n,) + self.input_shape, k, k, self.stride, self.pad)

    def flops_per_sample(self) -> int:
        c, _, _ = self.input_shape
        out_c, out_h, out_w = self.output_shape
        k = self.kernel_size
        return 2 * out_c * out_h * out_w * (c // self.groups) * k * k


class _Pool2D(Layer):
    """Shared machinery for max/avg pooling over square windows."""

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self.stride = stride or pool_size

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"pooling expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        self.input_shape = tuple(input_shape)
        self.output_shape = (c, out_h, out_w)
        self.built = True
        return self.output_shape

    def _windows(self, x: np.ndarray) -> np.ndarray:
        """(N, C, oh, ow, p, p) strided view of pooling windows."""
        view = np.lib.stride_tricks.sliding_window_view(
            x, (self.pool_size, self.pool_size), axis=(2, 3)
        )
        return view[:, :, :: self.stride, :: self.stride, :, :]


class MaxPool2D(_Pool2D):
    """Max pooling; gradient routes to the first maximal element of each window.

    One path for every stride, overlapping windows included: the window
    offset ``(i, j)`` selects the strided slice ``x[:, :, i::s, j::s]`` of
    every window's ``(i, j)`` element at once, forward is a running
    ``np.maximum`` over the ``p*p`` slices, and backward adds ``dy`` back
    through per-slice masks. Ties go to the first offset in row-major
    order, as ``argmax`` over the flattened window would.
    """

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(pool_size, stride, name)
        self._masks: Optional[List[np.ndarray]] = None

    def _slices(self, x: np.ndarray) -> List[np.ndarray]:
        """Per in-window offset, the (N, C, oh, ow) view of that element of every window."""
        _, out_h, out_w = self.output_shape
        p, s = self.pool_size, self.stride
        return [
            x[:, :, i : i + s * out_h : s, j : j + s * out_w : s]
            for i in range(p)
            for j in range(p)
        ]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        slices = self._slices(x)
        y = slices[0].copy(order="K")
        for part in slices[1:]:
            np.maximum(y, part, out=y)
        if not training:
            return y
        # First-match masks: an element wins if it equals the maximum and
        # no earlier offset already did (all-zero post-ReLU windows tie).
        masks = [slices[0] == y]
        unclaimed = ~masks[0]
        for part in slices[1:]:
            mask = part == y
            mask &= unclaimed
            unclaimed ^= mask
            masks.append(mask)
        self._masks = masks
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._masks is None:
            raise RuntimeError("backward called without a training-mode forward")
        # Everything below runs in the masks' (= the input's) memory order,
        # whatever order dy arrives in.
        first = self._masks[0]
        grad = np.empty_like(first, dtype=dy.dtype)
        grad[...] = dy
        dx = _zeros_ordered_like(first, dy.shape[:1] + self.input_shape, dy.dtype)
        routed = np.empty_like(grad)
        for part, mask in zip(self._slices(dx), self._masks):
            np.multiply(grad, mask, out=routed)
            part += routed
        return dx


class AvgPool2D(_Pool2D):
    """Average pooling; gradient spreads uniformly over each window."""

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(pool_size, stride, name)
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return self._windows(x).mean(axis=(-2, -1))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a training-mode forward")
        p = self.pool_size
        share = dy / (p * p)
        dx = np.zeros(self._x_shape, dtype=dy.dtype)
        n, c, oh, ow = dy.shape
        for i in range(p):
            for j in range(p):
                dx[
                    :,
                    :,
                    i : i + self.stride * oh : self.stride,
                    j : j + self.stride * ow : self.stride,
                ] += share
        return dx


class Flatten(Layer):
    """Collapse (C, H, W) features to a flat vector for Dense layers."""

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(np.prod(input_shape)),)
        self.built = True
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape((dy.shape[0],) + self.input_shape)
