"""Synthetic stand-ins for the paper's datasets (Table 1).

The paper trains on MNIST, CIFAR-10, and ImageNet (ILSVRC-2012). Those files
are not available offline, so this package generates deterministic,
class-conditional synthetic datasets with the *same tensor geometry*
(28x28x1/10 classes, 3x32x32/10 classes, 3xHxW/many classes) that are
learnable by the mini networks in :mod:`repro.nn.models`. Accuracy-vs-time
comparisons between training algorithms remain meaningful because every
algorithm consumes the same sample stream through the same model.
"""

from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.data.normalize import standardize, standardize_like
from repro.data.synthetic import (
    DATASET_GEOMETRY,
    make_cifar_like,
    make_imagenet_like,
    make_mnist_like,
)

__all__ = [
    "Dataset",
    "make_mnist_like",
    "make_cifar_like",
    "make_imagenet_like",
    "DATASET_GEOMETRY",
    "standardize",
    "standardize_like",
    "BatchSampler",
]
