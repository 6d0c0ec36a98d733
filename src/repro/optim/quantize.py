"""Low-precision gradient quantization (paper Section 3.4 / future work).

The paper cites 1-bit SGD and low-precision training ([4], [8], [10], [22])
as a reserved future direction. We provide the standard uniform stochastic
quantizer as an *extension ablation*: benchmarks can measure the message-
size/accuracy trade-off it would add on top of Sync EASGD. It is not part
of any reproduced table or figure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_gradient"]


def quantize_gradient(
    grad: np.ndarray, bits: int, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, float]:
    """Uniform (optionally stochastic) quantization of a gradient vector.

    Returns ``(quantized, scale)`` where ``quantized`` has the same dtype as
    the input but only ``2**bits`` distinct magnitude levels; ``scale`` is
    the dequantization factor. With an ``rng``, rounding is stochastic and
    unbiased (E[q] = grad); without, deterministic round-to-nearest.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    levels = (1 << bits) - 1
    if grad.size == 0:
        return grad.copy(), 1.0
    max_abs = float(np.abs(grad).max())
    if not np.isfinite(max_abs):
        raise ValueError("cannot quantize a gradient containing NaN or Inf")
    if max_abs == 0.0:
        return grad.copy(), 1.0
    scale = max_abs / levels
    scaled = grad / scale
    if rng is not None:
        floor = np.floor(scaled)
        frac = scaled - floor
        rounded = floor + (rng.random(grad.shape) < frac)
    else:
        rounded = np.rint(scaled)
    rounded = np.clip(rounded, -levels, levels)
    return (rounded * scale).astype(grad.dtype), scale
