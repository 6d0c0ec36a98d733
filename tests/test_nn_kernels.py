"""The nn kernels against reference oracles kept in this file.

* ``Conv2D`` against a position-by-position float64 convolution that shares
  nothing with im2col/GEMM (forward, dW, db, dX), over kernels, strides,
  paddings, block-diagonal (grouped) weights, batch sizes and spatial sizes
  the stride does not divide.
* ``MaxPool2D`` against the implementation it replaced — strided windows,
  ``argmax``, ``np.add.at`` — which stays here as the oracle: equal values
  and equal gradient routing (ties included) for non-overlapping windows.
* ``Network.gradient`` (which skips the first trainable layer's input
  gradient) against ``forward`` + ``backward`` (which does not), and one
  LeNet gradient pinned to its bits.
* The layer contracts: returned arrays are never overwritten by a later
  call, no result depends on an earlier call, inference is sliced.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import (
    build_alexnet_mini,
    build_googlenet_mini,
    build_lenet,
    build_mlp,
    SoftmaxCrossEntropy,
)
from repro.nn.activations import ReLU
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.network import Network
from repro.nn.regularization import Dropout
from repro.nn.tensor_ops import conv_output_size


def _rel_err(got, want):
    want = np.asarray(want, dtype=np.float64)
    return float(np.linalg.norm(np.asarray(got, dtype=np.float64) - want)
                 / max(np.linalg.norm(want), 1e-30))


# -- convolution ------------------------------------------------------------------
def conv_oracle(x, w, b, stride, pad, dy):
    """Direct convolution, one output position at a time, in float64.

    Returns ``(y, dw, db, dx)`` for the upstream gradient ``dy``.
    """
    x, w, b, dy = (np.asarray(a, dtype=np.float64) for a in (x, w, b, dy))
    n, c, h, wd = x.shape
    out_c, _, k, _ = w.shape
    out_h = conv_output_size(h, k, stride, pad)
    out_w = conv_output_size(wd, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, out_c, out_h, out_w))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i in range(out_h):
        for j in range(out_w):
            rows = slice(i * stride, i * stride + k)
            cols = slice(j * stride, j * stride + k)
            patch = xp[:, :, rows, cols]  # (n, c, k, k)
            y[:, :, i, j] = np.einsum("nckl,ockl->no", patch, w) + b
            d = dy[:, :, i, j]  # (n, out_c)
            dw += np.einsum("no,nckl->ockl", d, patch)
            dxp[:, :, rows, cols] += np.einsum("no,ockl->nckl", d, w)
    dx = dxp[:, :, pad : pad + h, pad : pad + wd]
    return y, dw, dy.sum(axis=(0, 2, 3)), dx


def _block_diagonal(cout, cin, groups):
    """``(cout, cin, 1, 1)`` mask of a grouped conv's weight: AlexNet's
    channel groups as one ungrouped GEMM whose weight is zero across groups."""
    mask = np.zeros((cout, cin, 1, 1), dtype=np.float32)
    og, cg = cout // groups, cin // groups
    for g in range(groups):
        mask[g * og : (g + 1) * og, g * cg : (g + 1) * cg] = 1.0
    return mask


#: (in_channels, out_channels, kernel, stride, pad, groups, (H, W)); groups > 1
#: makes the weight block-diagonal over that many channel groups.
CONV_GRID = [
    (1, 8, 5, 1, 0, 1, (12, 12)),  # LeNet conv1's shape, shrunk
    (8, 16, 5, 1, 0, 1, (9, 9)),  # LeNet conv2's
    (3, 6, 3, 1, 1, 1, (8, 7)),  # same-padding 3x3
    (4, 6, 3, 2, 1, 1, (9, 10)),  # stride 2 over sizes it does not divide
    (4, 4, 3, 3, 0, 1, (11, 10)),  # stride 3, rows and columns left over
    (2, 4, 2, 2, 0, 1, (7, 9)),  # even kernel, odd image
    (4, 6, 3, 1, 1, 2, (6, 7)),  # two groups
    (6, 6, 3, 2, 2, 3, (7, 8)),  # three groups, stride 2, pad 2
    (4, 8, 1, 1, 0, 2, (5, 6)),  # 1x1, grouped
    (3, 5, 1, 2, 0, 1, (7, 6)),  # 1x1, strided
    (2, 3, 5, 2, 2, 1, (9, 11)),  # 5x5, stride 2, pad 2
    (2, 4, 4, 3, 1, 1, (10, 12)),  # 4x4, stride 3, pad 1
]


class TestConvAgainstDirectConvolution:
    @pytest.mark.parametrize("batch", [1, 7, 32])
    @pytest.mark.parametrize("cin,cout,k,stride,pad,groups,hw", CONV_GRID)
    def test_forward_and_all_gradients(self, cin, cout, k, stride, pad, groups, hw, batch):
        rng = np.random.default_rng(hash((cin, cout, k, stride, pad, groups, batch)) % 2**32)
        layer = Conv2D(cout, k, stride=stride, pad=pad)
        net = Network([layer], input_shape=(cin, *hw), seed=1)
        layer.params["W"][...] *= _block_diagonal(cout, cin, groups)
        layer.params["b"][...] = rng.normal(size=cout)
        x = rng.normal(size=(batch, cin, *hw)).astype(np.float32)
        dy = rng.normal(size=(batch,) + net.output_shape).astype(np.float32)

        y = net.forward(x, training=True)
        dx = net.backward(dy)
        want_y, want_dw, want_db, want_dx = conv_oracle(
            x, layer.params["W"], layer.params["b"], stride, pad, dy)

        assert y.shape == want_y.shape and dx.shape == x.shape
        assert _rel_err(y, want_y) < 1e-5
        assert _rel_err(layer.grads["W"], want_dw) < 1e-5
        assert _rel_err(layer.grads["b"], want_db) < 1e-5
        assert _rel_err(dx, want_dx) < 1e-5
        # Inference takes the sliced path (batch 32 > one slice at 7): same values.
        assert _rel_err(net.forward(x), want_y) < 1e-5

    def test_inference_slices_match_the_whole_batch(self, monkeypatch):
        net = Network([Conv2D(5, 3, pad=1)], input_shape=(2, 6, 5), seed=0)
        x = np.random.default_rng(0).normal(size=(23, 2, 6, 5)).astype(np.float32)
        whole = net.forward(x, training=True)  # training never slices
        monkeypatch.setattr(Conv2D, "INFERENCE_SLICE", 7)  # 7 + 7 + 7 + ragged 2
        np.testing.assert_allclose(net.forward(x), whole, rtol=1e-6, atol=1e-6)

    def test_input_grad_false_leaves_parameter_gradients_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4, 7, 7)).astype(np.float32)
        dy = rng.normal(size=(5, 6, 7, 7)).astype(np.float32)
        grads = []
        for input_grad in (True, False):
            net = Network([Conv2D(6, 3, pad=1)], input_shape=(4, 7, 7), seed=2)
            net.forward(x, training=True)
            dx = net.layers[0].backward(dy, input_grad=input_grad)
            assert (dx is None) == (not input_grad)
            grads.append(net.grads.copy())
        assert grads[0].tobytes() == grads[1].tobytes()


# -- max pooling --------------------------------------------------------------------
def pool_oracle(x, pool, stride, dy):
    """The replaced MaxPool2D: strided windows, argmax, np.add.at."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    n, c, out_h, out_w = windows.shape[:4]
    flat = windows.reshape(n, c, out_h, out_w, pool * pool)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    dx = np.zeros(x.shape, dtype=dy.dtype)
    ni, ci, oi, oj = np.indices((n, c, out_h, out_w))
    np.add.at(dx, (ni, ci, oi * stride + arg // pool, oj * stride + arg % pool), dy)
    return y, dx


def _pool(x, pool, stride, dy):
    layer = MaxPool2D(pool, stride=stride)
    Network([layer], input_shape=x.shape[1:], seed=0)
    y = layer.forward(x, training=True)
    return y, layer.backward(dy), layer.forward(x)


class TestMaxPoolAgainstArgmaxScatter:
    @pytest.mark.parametrize("pool,hw", [(2, (8, 8)), (2, (7, 9)), (3, (10, 11)), (4, (9, 6))])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_non_overlapping_is_bit_equal(self, pool, hw, batch):
        rng = np.random.default_rng(pool * 100 + batch)
        x = rng.normal(size=(batch, 3, *hw)).astype(np.float32)
        out = tuple(conv_output_size(s, pool, pool, 0) for s in hw)
        dy = rng.normal(size=(batch, 3, *out)).astype(np.float32)
        y, dx, y_inference = _pool(x, pool, pool, dy)
        want_y, want_dx = pool_oracle(x, pool, pool, dy)
        assert y.tobytes() == want_y.tobytes()
        assert y_inference.tobytes() == want_y.tobytes()
        assert np.ascontiguousarray(dx).tobytes() == want_dx.tobytes()

    def test_ties_route_to_the_first_element(self):
        # Post-ReLU activations: whole windows of zeros, and repeated maxima.
        rng = np.random.default_rng(5)
        x = np.maximum(rng.normal(size=(7, 4, 9, 8)).astype(np.float32) - 0.8, 0)
        x[:, :, 2:6, 2:6] = 0.0
        x[:, 0, :2, :2] = 1.5  # a window whose four elements tie
        assert (x.reshape(7, 4, -1) == 0).mean() > 0.5
        dy = rng.normal(size=(7, 4, 4, 4)).astype(np.float32)
        y, dx, _ = _pool(x, 2, 2, dy)
        want_y, want_dx = pool_oracle(x, 2, 2, dy)
        np.testing.assert_array_equal(y, want_y)
        assert np.ascontiguousarray(dx).tobytes() == want_dx.tobytes()
        assert dx[0, 0, 0, 0] == dy[0, 0, 0, 0] and not dx[0, 0, :2, :2].ravel()[1:].any()

    @pytest.mark.parametrize("batch", [1, 7])
    def test_overlapping_windows_accumulate(self, batch):
        # GoogleNet-mini's inception pool: 3x3 windows at stride 1.
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, 5, 8, 7)).astype(np.float32)
        dy = rng.normal(size=(batch, 5, 6, 5)).astype(np.float32)
        y, dx, _ = _pool(x, 3, 1, dy)
        want_y, want_dx = pool_oracle(x, 3, 1, dy)
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-6, atol=1e-6)

    def test_memory_order_of_the_input_does_not_matter(self):
        # Conv2D hands its output on batch-innermost; a test hands it C-ordered.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 3, 8, 8)).astype(np.float32)
        dy = rng.normal(size=(6, 3, 4, 4)).astype(np.float32)
        batch_innermost = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        y1, dx1, _ = _pool(x, 2, 2, dy)
        y2, dx2, _ = _pool(batch_innermost, 2, 2, dy)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(dx1, dx2)


# -- Network.gradient ---------------------------------------------------------------
BUILDERS = [build_mlp, build_lenet, build_alexnet_mini, build_googlenet_mini]


def _batch(net, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n,) + net.input_shape).astype(np.float32),
            rng.integers(0, 10, size=n))


class TestGradientSkipsOnlyTheImageGradient:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_parameter_gradients_bit_equal_to_forward_backward(self, builder):
        # Two identically seeded networks: dropout draws the same masks.
        fused, stepwise = builder(seed=4), builder(seed=4)
        x, labels = _batch(fused, 8, seed=1)
        loss = SoftmaxCrossEntropy()

        value = fused.gradient(x, labels, loss)

        stepwise.zero_grads()
        logits = stepwise.forward(x, training=True)
        want = loss.forward(logits, labels)
        dx = stepwise.backward(loss.backward())

        assert dx.shape == x.shape  # Network.backward still returns the image gradient
        assert value == want
        assert fused.grads.tobytes() == stepwise.grads.tobytes()
        assert np.abs(fused.grads).max() > 0

    def test_first_trainable_layer_is_found_behind_parameter_free_ones(self):
        net = Network([ReLU(), Flatten(), Dense(4), ReLU(), Dense(3)], (1, 3, 3), seed=0)
        twin = net.clone()
        x = np.random.default_rng(0).normal(size=(5, 1, 3, 3)).astype(np.float32)
        dy = np.ones((5, 3), dtype=np.float32)
        for n, input_grad in ((net, False), (twin, True)):
            n.zero_grads()
            n.forward(x, training=True)
            assert (n.backward(dy, input_grad=input_grad) is None) == (not input_grad)
        assert net.grads.tobytes() == twin.grads.tobytes()


#: sha256 of ``build_lenet(seed=0)``'s gradient bytes on ``_batch(net, 8, seed=0)``.
LENET_GRADIENT_SHA256 = "8c44c79cb2ec95d80c7e323bee1757a731561d453f73dd5543b2767c668cf7aa"


def test_lenet_gradient_bits_are_pinned():
    """The conv, pool and dense kernels' bits on one LeNet step.

    Like the trace goldens, the constant depends on the BLAS build (a
    different GEMM blocking moves the last bits): a rewrite of a kernel
    must keep it; a new NumPy/BLAS may re-record it.
    """
    net = build_lenet(seed=0)
    x, labels = _batch(net, 8, seed=0)
    net.gradient(x, labels)
    assert hashlib.sha256(net.grads.tobytes()).hexdigest() == LENET_GRADIENT_SHA256

# -- contracts ----------------------------------------------------------------------
class TestReturnedArraysAreTheCallers:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("conv_only", [False, True])
    def test_logits_survive_the_next_call(self, training, conv_only):
        net = (Network([Conv2D(4, 3, pad=1)], (2, 6, 6), seed=0) if conv_only
               else build_lenet(seed=0))
        x1, _ = _batch(net, 6, seed=1)
        x2, _ = _batch(net, 6, seed=2)
        first = net.forward(x1, training=training)
        kept = first.copy()
        for mode in (False, True):
            net.forward(x2, training=mode)
        np.testing.assert_array_equal(first, kept)

    def test_input_gradient_survives_the_next_step(self):
        net = Network([Conv2D(4, 3, pad=1), ReLU(), MaxPool2D(2)], (2, 6, 6), seed=0)
        x1, _ = _batch(net, 5, seed=1)
        x2, _ = _batch(net, 5, seed=2)
        dy = np.random.default_rng(3).normal(size=(5, 4, 3, 3)).astype(np.float32)
        net.forward(x1, training=True)
        dx = net.backward(dy)
        kept = dx.copy()
        net.forward(x2, training=True)
        net.backward(2 * dy)
        np.testing.assert_array_equal(dx, kept)

    def test_conv_backward_consumes_the_forward_cache(self):
        net = Network([Conv2D(4, 3)], (1, 5, 5), seed=0)
        x, _ = _batch(net, 2, seed=0)
        dy = np.ones((2, 4, 3, 3), dtype=np.float32)
        net.forward(x, training=True)
        net.backward(dy)
        with pytest.raises(RuntimeError, match="training-mode forward"):
            net.backward(dy)


class TestNoResultDependsOnAnEarlierCall:
    @pytest.mark.parametrize("builder", [build_lenet, build_alexnet_mini],
                             ids=lambda b: b.__name__)
    def test_batch_32_7_32_reproduces_a_fresh_network(self, builder):
        used = builder(seed=2)
        for layer in used.layers:
            if isinstance(layer, Dropout):
                layer.rate = 0.0  # a mask per call would change every result
        big, big_labels = _batch(used, 32, seed=1)
        small, small_labels = _batch(used, 7, seed=2)
        used.evaluate(big, big_labels)
        used.gradient(big, big_labels)
        used.gradient(small, small_labels)
        used.evaluate(small, small_labels)
        value = used.gradient(big, big_labels)

        fresh = used.clone()
        assert fresh.gradient(big, big_labels) == value
        assert fresh.grads.tobytes() == used.grads.tobytes()
        # ... and the same call twice gives the same bits.
        again = used.grads.copy()
        assert used.gradient(big, big_labels) == value
        assert used.grads.tobytes() == again.tobytes()


class TestEvaluateChunking:
    def test_same_accuracy_at_every_chunk_size(self):
        net = build_lenet(seed=3)
        x, labels = _batch(net, 300, seed=5)  # not a multiple of any chunk
        for _ in range(3):  # a few steps so the predictions are not all one class
            net.gradient(x[:32], labels[:32])
            net.set_params(net.params - 0.05 * net.grads)
        accuracies = {chunk: net.evaluate(x, labels, batch_size=chunk) for chunk in (16, 32, 256)}
        assert len(set(accuracies.values())) == 1, accuracies
        want = float((net.forward(x).argmax(axis=1) == labels).mean())
        assert accuracies[256] == pytest.approx(want)
