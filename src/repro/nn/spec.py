"""Full-scale model descriptors for the simulated clock.

Training AlexNet/VGG-19/GoogleNet at their true sizes is not feasible in
NumPy, but the paper's *timing* claims depend only on layer-by-layer
parameter counts (message sizes) and FLOP counts (compute times). A
:class:`ModelSpec` records exactly those, at full scale:

- AlexNet: ~61 M parameters — the paper quotes its weights at 249 MB.
- VGG-19: ~143.7 M parameters — the paper quotes 575 MB.
- GoogleNet: ~7 M parameters, 22 layers.
- LeNet: ~0.43 M parameters.

Convergence experiments use the *mini* runnable models in
:mod:`repro.nn.models`; time models use these specs. EXPERIMENTS.md records
this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["LayerSpec", "ModelSpec", "LENET", "ALEXNET", "VGG19", "GOOGLENET", "MODEL_SPECS"]

FLOAT_BYTES = 4


@dataclass(frozen=True)
class LayerSpec:
    """One layer's cost-relevant numbers.

    ``blobs`` lists the byte sizes of the separately-communicated tensors of
    the layer (weight and bias for conv/fc; one pair per inner convolution
    for inception modules) — Caffe-style per-blob transfers, which is what
    the *unpacked* scheme of Figure 10 actually sends.
    """

    name: str
    kind: str  # "conv" | "fc" | "inception" | "pool" | ...
    params: int  # trainable parameter count
    flops_per_sample: int  # forward multiply-add FLOPs per input sample
    blobs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.blobs and sum(self.blobs) != FLOAT_BYTES * self.params:
            raise ValueError(
                f"layer {self.name}: blob bytes {sum(self.blobs)} != "
                f"{FLOAT_BYTES * self.params}"
            )

    @property
    def nbytes(self) -> int:
        return FLOAT_BYTES * self.params

    @property
    def blob_sizes(self) -> Tuple[int, ...]:
        """Per-tensor message sizes; defaults to one blob when unspecified."""
        return self.blobs if self.blobs else ((self.nbytes,) if self.params else ())


@dataclass(frozen=True)
class ModelSpec:
    """A full-scale model as a table of layers."""

    name: str
    input_shape: Tuple[int, int, int]
    layers: Tuple[LayerSpec, ...] = field(default_factory=tuple)

    @property
    def num_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def nbytes(self) -> int:
        """Total weight bytes — the packed message size."""
        return FLOAT_BYTES * self.num_params

    @property
    def flops_per_sample(self) -> int:
        """Forward FLOPs per sample; backward is conventionally ~2x this."""
        return sum(l.flops_per_sample for l in self.layers)

    def layer_messages(self) -> List[int]:
        """Per-blob weight byte counts (the unpacked message plan)."""
        return [size for l in self.layers for size in l.blob_sizes]


def _conv(name: str, cin: int, cout: int, k: int, out_hw: int, groups: int = 1) -> LayerSpec:
    w = cout * (cin // groups) * k * k
    params = w + cout
    flops = 2 * params * out_hw * out_hw
    return LayerSpec(name, "conv", params, flops, blobs=(FLOAT_BYTES * w, FLOAT_BYTES * cout))


def _fc(name: str, fin: int, fout: int) -> LayerSpec:
    params = fin * fout + fout
    return LayerSpec(
        name, "fc", params, 2 * params,
        blobs=(FLOAT_BYTES * fin * fout, FLOAT_BYTES * fout),
    )


# --- LeNet-5 (Caffe variant), MNIST geometry -------------------------------
LENET = ModelSpec(
    name="LeNet",
    input_shape=(1, 28, 28),
    layers=(
        _conv("conv1", 1, 20, 5, 24),
        _conv("conv2", 20, 50, 5, 8),
        _fc("ip1", 50 * 4 * 4, 500),
        _fc("ip2", 500, 10),
    ),
)

# --- AlexNet (ILSVRC-2012), two-group variant -> ~61 M params (249 MB) -----
ALEXNET = ModelSpec(
    name="AlexNet",
    input_shape=(3, 227, 227),
    layers=(
        _conv("conv1", 3, 96, 11, 55),
        _conv("conv2", 96, 256, 5, 27, groups=2),
        _conv("conv3", 256, 384, 3, 13),
        _conv("conv4", 384, 384, 3, 13, groups=2),
        _conv("conv5", 384, 256, 3, 13, groups=2),
        _fc("fc6", 256 * 6 * 6, 4096),
        _fc("fc7", 4096, 4096),
        _fc("fc8", 4096, 1000),
    ),
)

# --- VGG-19 -> ~143.7 M params (575 MB) -------------------------------------
VGG19 = ModelSpec(
    name="VGG-19",
    input_shape=(3, 224, 224),
    layers=(
        _conv("conv1_1", 3, 64, 3, 224),
        _conv("conv1_2", 64, 64, 3, 224),
        _conv("conv2_1", 64, 128, 3, 112),
        _conv("conv2_2", 128, 128, 3, 112),
        _conv("conv3_1", 128, 256, 3, 56),
        _conv("conv3_2", 256, 256, 3, 56),
        _conv("conv3_3", 256, 256, 3, 56),
        _conv("conv3_4", 256, 256, 3, 56),
        _conv("conv4_1", 256, 512, 3, 28),
        _conv("conv4_2", 512, 512, 3, 28),
        _conv("conv4_3", 512, 512, 3, 28),
        _conv("conv4_4", 512, 512, 3, 28),
        _conv("conv5_1", 512, 512, 3, 14),
        _conv("conv5_2", 512, 512, 3, 14),
        _conv("conv5_3", 512, 512, 3, 14),
        _conv("conv5_4", 512, 512, 3, 14),
        _fc("fc6", 512 * 7 * 7, 4096),
        _fc("fc7", 4096, 4096),
        _fc("fc8", 4096, 1000),
    ),
)


def _inception(
    name: str,
    cin: int,
    c1: int,
    c3r: int,
    c3: int,
    c5r: int,
    c5: int,
    pp: int,
    out_hw: int,
) -> LayerSpec:
    """One GoogleNet inception module collapsed to a single LayerSpec.

    Branch params: 1x1; 1x1 reduce + 3x3; 1x1 reduce + 5x5; pool-proj 1x1.
    """
    convs = (
        (cin * c1, c1),
        (cin * c3r, c3r),
        (c3r * 9 * c3, c3),
        (cin * c5r, c5r),
        (c5r * 25 * c5, c5),
        (cin * pp, pp),
    )
    params = sum(w + b for w, b in convs)
    flops = 2 * params * out_hw * out_hw
    blobs = tuple(FLOAT_BYTES * n for wb in convs for n in wb)
    return LayerSpec(name, "inception", params, flops, blobs=blobs)


# --- GoogleNet (Inception v1) -> ~7 M params --------------------------------
GOOGLENET = ModelSpec(
    name="GoogleNet",
    input_shape=(3, 224, 224),
    layers=(
        _conv("conv1", 3, 64, 7, 112),
        _conv("conv2_reduce", 64, 64, 1, 56),
        _conv("conv2", 64, 192, 3, 56),
        _inception("inc3a", 192, 64, 96, 128, 16, 32, 32, 28),
        _inception("inc3b", 256, 128, 128, 192, 32, 96, 64, 28),
        _inception("inc4a", 480, 192, 96, 208, 16, 48, 64, 14),
        _inception("inc4b", 512, 160, 112, 224, 24, 64, 64, 14),
        _inception("inc4c", 512, 128, 128, 256, 24, 64, 64, 14),
        _inception("inc4d", 512, 112, 144, 288, 32, 64, 64, 14),
        _inception("inc4e", 528, 256, 160, 320, 32, 128, 128, 14),
        _inception("inc5a", 832, 256, 160, 320, 32, 128, 128, 7),
        _inception("inc5b", 832, 384, 192, 384, 48, 128, 128, 7),
        _fc("classifier", 1024, 1000),
    ),
)

MODEL_SPECS = {spec.name: spec for spec in (LENET, ALEXNET, VGG19, GOOGLENET)}
