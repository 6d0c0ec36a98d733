"""From-scratch NumPy deep-learning framework (substrate S1).

The paper's single-node engine is Caffe/cuDNN; here forward/backward
propagation, weight update, and the packed contiguous parameter layout of
Section 5.2 are implemented directly on NumPy arrays. The key structural
feature is :class:`repro.nn.network.Network`: all layer parameters live as
views into one flat float32 buffer, so "single-layer communication" (one
message carrying every layer) is the natural representation and the
per-layer ("unpacked") scheme of Figure 10 is derived from the recorded
segment table.
"""

from repro.nn.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, Layer, MaxPool2D
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.models import (
    build_alexnet_mini,
    build_googlenet_mini,
    build_lenet,
    build_mlp,
    build_resnet_mini,
    build_vgg_mini,
    InceptionBlock,
    ResidualBlock,
)
from repro.nn.network import Network, ParamSegment
from repro.nn.regularization import BatchNorm, Dropout
from repro.nn.serialize import structure_fingerprint
from repro.nn.spec import ALEXNET, GOOGLENET, LayerSpec, LENET, ModelSpec, VGG19

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "BatchNorm",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "Network",
    "ParamSegment",
    "build_lenet",
    "build_mlp",
    "build_alexnet_mini",
    "build_vgg_mini",
    "build_googlenet_mini",
    "build_resnet_mini",
    "InceptionBlock",
    "ResidualBlock",
    "ModelSpec",
    "LayerSpec",
    "LENET",
    "ALEXNET",
    "VGG19",
    "GOOGLENET",
    "structure_fingerprint",
]
