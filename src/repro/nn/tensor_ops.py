"""Low-level tensor transforms: im2col / col2im over channel-major columns.

Convolution is implemented as a single large matrix multiply over an
im2col-unfolded input — the standard GEMM formulation the paper's substrate
(cuDNN/MKL) uses, and the vectorization idiom the HPC guides call for
(one big BLAS call instead of Python-level loops).

**Layout.** Columns are *channel-major, batch-innermost*: the unfolded
matrix has shape ``(C * field_h * field_w, out_h * out_w * N)``, row
``(c, i, j)`` holding input channel ``c`` shifted by the in-window offset
``(i, j)``, column ``(oy, ox, n)`` naming one output position of one
sample. Filling it (and folding it back) is ``field_h * field_w`` slice
copies whose innermost runs are ``out_w * N`` contiguous floats on both
sides at stride 1 (``N`` at a larger stride) — the unit-stride streaming
the paper's KNL half argues for, and long even where the image has shrunk
to 8x8 — and ``W_mat @ cols`` lands directly in
``(out_channels, out_h, out_w, N)``, which is handed on as an
``(N, out_channels, out_h, out_w)`` *view*. Only this module and
:class:`repro.nn.layers.Conv2D` know the layout; every other layer sees
ordinary NCHW-shaped arrays (whose memory happens to be ordered C, H, W, N).
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, field: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool window sweep."""
    out = (size + 2 * pad - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size}, field={field}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def im2col(x: np.ndarray, field_h: int, field_w: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(C * field_h * field_w, out_h * out_w * N)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)
    out = np.empty((c * field_h * field_w, out_h * out_w * n), dtype=x.dtype)

    # Bring x to the columns' memory order once — a copy only when it is
    # not there already (the network's input images; a padded input) — so
    # the field_h * field_w slice copies below all stream.
    xc = x.transpose(1, 2, 3, 0)  # (C, H, W, N) view
    if pad > 0:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
        padded[:, pad : pad + h, pad : pad + w] = xc
        xc = padded
    else:
        xc = np.ascontiguousarray(xc)
    cols6 = out.reshape(c, field_h, field_w, out_h, out_w, n)
    for i in range(field_h):
        i_max = i + stride * out_h
        for j in range(field_w):
            j_max = j + stride * out_w
            cols6[:, i, j] = xc[:, i:i_max:stride, j:j_max:stride]
    return out


def col2im(
    cols: np.ndarray, x_shape: tuple, field_h: int, field_w: int, stride: int, pad: int
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    ``cols`` has shape ``(C * field_h * field_w, out_h * out_w * N)``;
    returns an ``x_shape`` = ``(N, C, H, W)`` *view* of a channel-major,
    batch-innermost accumulator. Overlapping windows accumulate, which is
    exactly the gradient of the unfolding.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)
    cols6 = cols.reshape(c, field_h, field_w, out_h, out_w, n)

    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    # One strided accumulation per in-window offset: field_h * field_w
    # passes instead of N * out_h * out_w.
    for i in range(field_h):
        i_max = i + stride * out_h
        for j in range(field_w):
            j_max = j + stride * out_w
            padded[:, i:i_max:stride, j:j_max:stride] += cols6[:, i, j]
    return padded[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)
