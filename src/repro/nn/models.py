"""Runnable mini versions of the paper's networks (Section 4.2).

These are real, trainable NumPy networks with the same architectural shape
as the paper's models — LeNet for MNIST-like, AlexNet-style for CIFAR-like,
VGG-style (conv-conv-pool blocks), and a GoogleNet-style net with genuine
Inception (multi-branch concat) modules — scaled so forward/backward passes
run in milliseconds. The full-scale counterparts used by the timing model
live in :mod:`repro.nn.spec`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, Layer, MaxPool2D, ParamSpec
from repro.nn.network import Network
from repro.nn.regularization import BatchNorm, Dropout

__all__ = [
    "Block",
    "InceptionBlock",
    "ResidualBlock",
    "build_mlp",
    "build_lenet",
    "build_alexnet_mini",
    "build_vgg_mini",
    "build_googlenet_mini",
    "build_resnet_mini",
]


class Block(Layer):
    """A layer made of inner layers, named by ``sublayers()`` prefixes.

    Inner parameters are re-exported as ``<prefix>.<param>`` so they pack
    into the network's flat buffer like any other layer's, and the
    durability helpers (:mod:`repro.durability.state`) reach the hidden
    state of inner layers through the same prefixes.
    """

    def sublayers(self) -> Iterator[Tuple[str, Layer]]:
        raise NotImplementedError

    def param_specs(self) -> List[ParamSpec]:
        return [
            ParamSpec(f"{prefix}.{spec.name}", spec.shape, spec.init,
                      spec.fan_in, spec.fan_out)
            for prefix, layer in self.sublayers()
            for spec in layer.param_specs()
        ]

    def bind(self, params, grads) -> None:
        super().bind(params, grads)
        for prefix, layer in self.sublayers():
            layer.bind(
                {s.name: params[f"{prefix}.{s.name}"] for s in layer.param_specs()},
                {s.name: grads[f"{prefix}.{s.name}"] for s in layer.param_specs()},
            )

    def flops_per_sample(self) -> int:
        return sum(layer.flops_per_sample() for _, layer in self.sublayers())


class InceptionBlock(Block):
    """A genuine multi-branch Inception module for the sequential framework.

    Each branch is its own stack of layers run on the same input; outputs
    are concatenated along the channel axis. Parameters of inner layers are
    re-exported with ``branch.layer.param`` names so they pack into the
    network's flat buffer like any other layer.
    """

    def __init__(self, branches: Sequence[Sequence[Layer]], name: Optional[str] = None) -> None:
        super().__init__(name)
        if not branches or any(not b for b in branches):
            raise ValueError("InceptionBlock needs non-empty branches")
        self.branches: List[List[Layer]] = [list(b) for b in branches]
        self._channel_splits: List[int] = []

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"InceptionBlock expects (C, H, W), got {input_shape}")
        self.input_shape = tuple(input_shape)
        out_hw: Optional[Tuple[int, int]] = None
        channels = []
        for branch in self.branches:
            shape = self.input_shape
            for layer in branch:
                shape = layer.build(shape)
            c, h, w = shape
            if out_hw is None:
                out_hw = (h, w)
            elif out_hw != (h, w):
                raise ValueError(
                    f"branch spatial shapes differ: {out_hw} vs {(h, w)}"
                )
            channels.append(c)
        self._channel_splits = channels
        self.output_shape = (sum(channels), *out_hw)
        self.built = True
        return self.output_shape

    def sublayers(self):
        for bi, branch in enumerate(self.branches):
            for li, layer in enumerate(branch):
                yield f"b{bi}.{li}", layer

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        outputs = []
        for branch in self.branches:
            h = x
            for layer in branch:
                h = layer.forward(h, training=training)
            outputs.append(h)
        return np.concatenate(outputs, axis=1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = None
        offset = 0
        for branch, channels in zip(self.branches, self._channel_splits):
            dslice = dy[:, offset : offset + channels]
            offset += channels
            for layer in reversed(branch):
                dslice = layer.backward(dslice)
            dx = dslice if dx is None else dx + dslice
        return dx


def build_mlp(
    input_shape: Tuple[int, ...] = (1, 28, 28),
    hidden: Sequence[int] = (64,),
    num_classes: int = 10,
    seed: int = 0,
) -> Network:
    """Small multilayer perceptron — the cheapest learnable model (tests)."""
    layers: List[Layer] = [Flatten()]
    for i, width in enumerate(hidden):
        layers += [Dense(width, name=f"fc{i + 1}"), ReLU()]
    layers.append(Dense(num_classes, name="logits"))
    return Network(layers, input_shape, seed=seed, name="mlp")


def build_lenet(
    input_shape: Tuple[int, ...] = (1, 28, 28), num_classes: int = 10, seed: int = 0
) -> Network:
    """LeNet-style CNN for the MNIST-like experiments (Figures 6, 8, Table 3)."""
    layers: List[Layer] = [
        Conv2D(8, 5, name="conv1"),
        ReLU(),
        MaxPool2D(2),
        Conv2D(16, 5, name="conv2"),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(64, name="ip1"),
        ReLU(),
        Dense(num_classes, name="ip2"),
    ]
    return Network(layers, input_shape, seed=seed, name="lenet")


def build_alexnet_mini(
    input_shape: Tuple[int, ...] = (3, 32, 32),
    num_classes: int = 10,
    seed: int = 0,
) -> Network:
    """AlexNet-shaped CNN (5 conv stages compressed to 3, 2 FC) for CIFAR-like.

    AlexNet's dropout before the first FC layer is kept (rate 0.25); its
    local response normalization and two-GPU channel groups are not — the
    groups live in the full-scale cost model (:data:`repro.nn.spec.ALEXNET`).
    """
    layers: List[Layer] = [
        Conv2D(16, 3, pad=1, name="conv1"),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 3, pad=1, name="conv2"),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 3, pad=1, name="conv3"),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dropout(0.25, seed=seed, name="drop6"),
        Dense(128, name="fc6"),
        ReLU(),
        Dense(num_classes, name="fc8"),
    ]
    return Network(layers, input_shape, seed=seed, name="alexnet-mini")


def build_vgg_mini(
    input_shape: Tuple[int, ...] = (3, 32, 32), num_classes: int = 10, seed: int = 0
) -> Network:
    """VGG-style net: stacked 3x3 conv pairs with batch norm, then FC head."""
    layers: List[Layer] = [
        Conv2D(16, 3, pad=1, name="conv1_1"),
        BatchNorm(name="bn1_1"),
        ReLU(),
        Conv2D(16, 3, pad=1, name="conv1_2"),
        BatchNorm(name="bn1_2"),
        ReLU(),
        MaxPool2D(2),
        Conv2D(32, 3, pad=1, name="conv2_1"),
        BatchNorm(name="bn2_1"),
        ReLU(),
        Conv2D(32, 3, pad=1, name="conv2_2"),
        BatchNorm(name="bn2_2"),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(128, name="fc6"),
        ReLU(),
        Dense(num_classes, name="fc8"),
    ]
    return Network(layers, input_shape, seed=seed, name="vgg-mini")


def _inception_mini(cin_name: str, c1: int, c3r: int, c3: int, pp: int) -> InceptionBlock:
    """Three-branch mini inception: 1x1, 1x1->3x3, 3x3pool->1x1."""
    return InceptionBlock(
        branches=[
            [Conv2D(c1, 1, name="b1x1"), ReLU()],
            [Conv2D(c3r, 1, name="b3r"), ReLU(), Conv2D(c3, 3, pad=1, name="b3"), ReLU()],
            [MaxPool2D(3, stride=1), _Pad1(), Conv2D(pp, 1, name="bpp"), ReLU()],
        ],
        name=cin_name,
    )


class _Pad1(Layer):
    """Zero-pad spatial dims by 1 so a stride-1 3x3 pool keeps H, W."""

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        self.input_shape = tuple(input_shape)
        self.output_shape = (c, h + 2, w + 2)
        self.built = True
        return self.output_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="constant")

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy[:, :, 1:-1, 1:-1]


def build_googlenet_mini(
    input_shape: Tuple[int, ...] = (3, 32, 32), num_classes: int = 10, seed: int = 0
) -> Network:
    """GoogleNet-style net: stem conv + two real Inception modules + avg pool."""
    layers: List[Layer] = [
        Conv2D(16, 3, pad=1, name="conv1"),
        ReLU(),
        MaxPool2D(2),
        _inception_mini("inc3a", c1=8, c3r=8, c3=16, pp=8),
        MaxPool2D(2),
        _inception_mini("inc4a", c1=16, c3r=12, c3=24, pp=8),
        AvgPool2D(8),
        Flatten(),
        Dense(num_classes, name="classifier"),
    ]
    return Network(layers, input_shape, seed=seed, name="googlenet-mini")


class ResidualBlock(Block):
    """A genuine residual block: ``y = relu(F(x) + shortcut(x))``.

    ``F`` is conv-bn-relu-conv-bn; the shortcut is the identity when shapes
    match and a 1x1 strided conv otherwise (He et al. 2016 — the ResNet the
    paper's introduction motivates scaling work with). Inner parameters are
    re-exported into the packed buffer like :class:`InceptionBlock`'s.
    """

    def __init__(self, channels: int, stride: int = 1, name: Optional[str] = None) -> None:
        super().__init__(name)
        if channels <= 0 or stride <= 0:
            raise ValueError("channels and stride must be positive")
        self.channels = channels
        self.stride = stride
        self.body: List[Layer] = [
            Conv2D(channels, 3, stride=stride, pad=1, name="c1"),
            BatchNorm(name="bn1"),
            ReLU(),
            Conv2D(channels, 3, pad=1, name="c2"),
            BatchNorm(name="bn2"),
        ]
        self.shortcut: List[Layer] = []  # decided in build()
        self._relu_mask: Optional[np.ndarray] = None

    def build(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ValueError(f"ResidualBlock expects (C, H, W), got {input_shape}")
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for layer in self.body:
            shape = layer.build(shape)
        if shape != self.input_shape:
            # projection shortcut: 1x1 conv matching channels and stride
            self.shortcut = [
                Conv2D(self.channels, 1, stride=self.stride, name="proj"),
                BatchNorm(name="bnp"),
            ]
            s2 = self.input_shape
            for layer in self.shortcut:
                s2 = layer.build(s2)
            if s2 != shape:
                raise ValueError(f"shortcut shape {s2} != body shape {shape}")
        self.output_shape = shape
        self.built = True
        return self.output_shape

    def sublayers(self):
        for li, layer in enumerate(self.body):
            yield f"b{li}", layer
        for li, layer in enumerate(self.shortcut):
            yield f"s{li}", layer

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        h = x
        for layer in self.body:
            h = layer.forward(h, training=training)
        identity = x
        for layer in self.shortcut:
            identity = layer.forward(identity, training=training)
        y = h + identity
        if training:
            self._relu_mask = y > 0
            return y * self._relu_mask
        return np.maximum(y, 0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._relu_mask is None:
            raise RuntimeError("backward called without a training-mode forward")
        dy = dy * self._relu_mask
        dbody = dy
        for layer in reversed(self.body):
            dbody = layer.backward(dbody)
        dshort = dy
        for layer in reversed(self.shortcut):
            dshort = layer.backward(dshort)
        return dbody + dshort


def build_resnet_mini(
    input_shape: Tuple[int, ...] = (3, 32, 32), num_classes: int = 10, seed: int = 0
) -> Network:
    """ResNet-style net: stem conv + three residual stages + global pool.

    The paper's introduction motivates the work with ResNet-152's depth;
    this is the runnable miniature with real skip connections.
    """
    layers: List[Layer] = [
        Conv2D(16, 3, pad=1, name="stem"),
        BatchNorm(name="bn0"),
        ReLU(),
        ResidualBlock(16, name="res1"),
        ResidualBlock(32, stride=2, name="res2"),
        ResidualBlock(32, name="res3"),
        AvgPool2D(16),
        Flatten(),
        Dense(num_classes, name="classifier"),
    ]
    return Network(layers, input_shape, seed=seed, name="resnet-mini")
