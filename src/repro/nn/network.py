"""Sequential network with a packed contiguous parameter buffer.

This is the "single-layer layout and communication" technique of Section 5.2
made structural: every layer's parameters are float32 views into ONE flat
buffer (``self.params``), and likewise for gradients (``self.grads``).
Consequences used throughout the reproduction:

- Sending "the whole model" is a single message of ``nbytes`` bytes — one
  ``alpha + |W| * beta`` term instead of L of them (Figure 10's packed
  scheme).
- The per-layer segment table (``self.segments``) is retained so the
  *unpacked* scheme (L separate messages) can be costed for comparison.
- EASGD's elastic updates (Equations 1-2) are single vectorized expressions
  over the flat buffers — no per-layer Python loops (HPC guide idiom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.init import INITIALIZERS
from repro.nn.layers import Conv2D, Dense, Layer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.util.rng import spawn_rng

__all__ = ["ParamSegment", "Network"]


@dataclass(frozen=True)
class ParamSegment:
    """One parameter tensor's slice of the packed buffer."""

    layer_name: str
    param_name: str
    start: int
    stop: int
    shape: Tuple[int, ...]

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return 4 * self.size  # float32


class Network:
    """A feed-forward stack of layers sharing one packed parameter buffer."""

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Tuple[int, ...],
        seed: int = 0,
        name: str = "net",
    ) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.seed = seed

        # Shape inference pass.
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.build(shape)
        self.output_shape = shape

        # Packed allocation: one flat buffer for params, one for grads.
        self.segments: List[ParamSegment] = []
        offset = 0
        for layer in self.layers:
            for spec in layer.param_specs():
                self.segments.append(
                    ParamSegment(layer.name, spec.name, offset, offset + spec.size, spec.shape)
                )
                offset += spec.size
        self.params = np.zeros(offset, dtype=np.float32)
        self.grads = np.zeros(offset, dtype=np.float32)
        self._bind_layers()

        rng = spawn_rng(seed, "init", name)
        for layer in self.layers:
            for spec in layer.param_specs():
                layer.params[spec.name][...] = INITIALIZERS[spec.init](
                    rng, spec.shape, spec.fan_in, spec.fan_out
                )

    def _bind_layers(self) -> None:
        """Point every layer's ``params``/``grads`` at its slices of the packed buffers."""
        seg_iter = iter(self.segments)
        for layer in self.layers:
            params, grads = {}, {}
            for spec in layer.param_specs():
                seg = next(seg_iter)
                params[spec.name] = self.params[seg.start : seg.stop].reshape(spec.shape)
                grads[spec.name] = self.grads[seg.start : seg.stop].reshape(spec.shape)
            layer.bind(params, grads)

    def __setstate__(self, state: dict) -> None:
        # A pickled or deep-copied network carries the packed buffers once
        # and its layers without views or scratch (Layer.__getstate__);
        # re-binding makes set_params/zero_grads reach the layers again.
        self.__dict__.update(state)
        self._bind_layers()

    # -- introspection -------------------------------------------------------
    @property
    def num_params(self) -> int:
        """Total trainable parameter count."""
        return int(self.params.size)

    @property
    def nbytes(self) -> int:
        """Model size in bytes (float32)."""
        return int(self.params.nbytes)

    def flops_per_sample(self) -> int:
        """Forward-pass FLOPs per sample, summed over layers."""
        return sum(layer.flops_per_sample() for layer in self.layers)

    # -- weight transport ------------------------------------------------------
    def get_params(self) -> np.ndarray:
        """Copy of the packed parameter vector."""
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        """Overwrite the packed parameter vector (in place; views stay valid).

        Accepts any buffer holding exactly ``num_params`` elements — a flat
        vector, an ``(N, 1)`` column, a raw shared-memory view — and casts
        to the packed buffer's float32. Element *count* is what matters,
        and it is what the error reports on mismatch.
        """
        flat = np.asarray(flat)
        if flat.size != self.params.size:
            raise ValueError(
                f"parameter vector has size {flat.size}, expected {self.params.size}"
            )
        self.params[...] = flat.reshape(self.params.shape).astype(np.float32, copy=False)

    def zero_grads(self) -> None:
        """Clear the packed gradient buffer in place."""
        self.grads[...] = 0.0

    def clone(self, name: Optional[str] = None, seed: Optional[int] = None) -> "Network":
        """A replica of this network: same layers, same weights, zero grads.

        Used to give each simulated worker its own local weight replica
        (Algorithm 1 line 4): every replica starts from this network's
        parameters, as the paper does ("copy W to W_j"). The whole network
        is deep-copied — packed buffers, layers and per-layer state such as
        dropout RNGs and batch-norm running statistics — so running one
        never perturbs the other; per-call caches are not copied
        (:meth:`Layer.__getstate__`). No initializer runs. ``name`` and
        ``seed`` label the replica.
        """
        import copy as _copy

        other = _copy.deepcopy(self)
        other.name = name or f"{self.name}-clone"
        other.seed = self.seed if seed is None else seed
        other.zero_grads()
        return other

    # -- execution ---------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward propagation through all layers."""
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Backward propagation; accumulates into the packed gradient buffer.

        Returns the gradient with respect to the network's input.
        ``input_grad=False`` — what :meth:`gradient` passes, since no
        trainer reads an image gradient — stops at the first layer that
        owns parameters, tells it to skip its own input gradient where the
        layer can (``Dense``, ``Conv2D``), and returns None.
        """
        layers = self.layers
        if not input_grad:
            first = next((i for i, layer in enumerate(layers) if layer.params), 0)
            layers = layers[first:]
        for layer in reversed(layers[1:]):
            dy = layer.backward(dy)
        head = layers[0]
        if input_grad or not isinstance(head, (Dense, Conv2D)):
            dy = head.backward(dy)
        else:
            head.backward(dy, input_grad=False)
        return dy if input_grad else None

    def gradient(
        self, images: np.ndarray, labels: np.ndarray, loss: Optional[SoftmaxCrossEntropy] = None
    ) -> float:
        """One fused forward+backward over a batch.

        Zeroes the gradient buffer, runs forward propagation, evaluates the
        loss, and backpropagates the parameter gradients. After this call
        ``self.grads`` holds the batch-mean gradient; returns the scalar loss.
        """
        loss = loss or SoftmaxCrossEntropy()
        self.zero_grads()
        logits = self.forward(images, training=True)
        value = loss.forward(logits, labels)
        self.backward(loss.backward(), input_grad=False)
        return value

    def evaluate(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Classification accuracy over a labeled set (inference mode)."""
        correct = 0
        for start in range(0, len(images), batch_size):
            chunk = slice(start, start + batch_size)
            logits = self.forward(images[chunk], training=False)
            correct += int((logits.argmax(axis=1) == labels[chunk]).sum())
        return correct / len(images)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, layers={len(self.layers)}, "
            f"params={self.num_params})"
        )
