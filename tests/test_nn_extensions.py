"""Extended nn features: residual blocks, ResNet mini."""

import numpy as np
import pytest

from repro.nn.models import build_resnet_mini, ResidualBlock
from repro.nn.network import Network


def _data(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestResidualBlock:
    def test_identity_shortcut_shape(self):
        net = Network([ResidualBlock(4)], input_shape=(4, 6, 6), seed=0)
        assert net.output_shape == (4, 6, 6)
        assert not net.layers[0].shortcut  # identity: no projection layers

    def test_projection_shortcut_when_strided(self):
        net = Network([ResidualBlock(8, stride=2)], input_shape=(4, 6, 6), seed=0)
        assert net.output_shape == (8, 3, 3)
        assert net.layers[0].shortcut  # 1x1 projection present

    def test_skip_connection_carries_signal(self):
        """Zeroing the body weights leaves relu(identity) — a true skip."""
        net = Network([ResidualBlock(3)], input_shape=(3, 4, 4), seed=1)
        block = net.layers[0]
        for layer in block.body:
            for p in layer.params.values():
                p[...] = 0.0
        x = np.abs(_data((1, 3, 4, 4), seed=12))
        # body(x) = 0 (bn of zeros is zero), so y = relu(x) = x for x >= 0
        np.testing.assert_allclose(net.forward(x), x, atol=1e-5)

    def test_gradcheck(self):
        """Training-mode numeric probe: the block contains BatchNorm, whose
        inference path uses running statistics and would not match the
        training-mode analytic gradient."""
        from repro.nn.losses import MeanSquaredError

        from conftest import numeric_gradient

        net = Network([ResidualBlock(3)], input_shape=(3, 4, 4), seed=2)
        x = _data((2, 3, 4, 4), seed=13) + 0.2
        t = _data((2, 3, 4, 4), seed=14)
        loss = MeanSquaredError()

        def f():
            return loss.forward(net.forward(x, training=True), t)

        net.zero_grads()
        out = net.forward(x, training=True)
        loss.forward(out, t)
        net.backward(loss.backward())
        analytic = net.grads.copy()
        numeric = numeric_gradient(f, net.params)
        np.testing.assert_allclose(analytic, numeric, rtol=8e-2, atol=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualBlock(0)


class TestResNetMini:
    def test_forward_shape(self):
        net = build_resnet_mini(seed=0)
        y = net.forward(_data((2, 3, 32, 32), seed=15))
        assert y.shape == (2, 10)

    def test_learns(self):
        net = build_resnet_mini(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, 16)
        first = net.gradient(x, y)
        for _ in range(50):
            net.gradient(x, y)
            net.params -= 0.05 * net.grads
        assert net.gradient(x, y) < first * 0.6

    def test_all_residual_params_packed(self):
        net = build_resnet_mini(seed=0)
        net.params[...] = 0.5
        block = net.layers[3]
        np.testing.assert_array_equal(block.body[0].params["W"], 0.5)
