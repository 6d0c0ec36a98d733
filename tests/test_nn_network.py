"""Network: packed buffer invariants, clone semantics, training API."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.layers import Conv2D, Dense, Flatten
from repro.nn.network import Network


def _net(seed=0):
    return Network(
        [Conv2D(3, 3, pad=1, name="c1"), ReLU(), Flatten(), Dense(5, name="d1")],
        input_shape=(1, 4, 4),
        seed=seed,
    )


class TestPackedBuffer:
    def test_params_are_views_into_flat_buffer(self):
        net = _net()
        net.params[...] = 0.0
        for layer in net.layers:
            for p in layer.params.values():
                assert p.sum() == 0.0
        net.params[...] = 1.0
        for layer in net.layers:
            for p in layer.params.values():
                np.testing.assert_array_equal(p, 1.0)

    def test_segments_cover_buffer_exactly(self):
        net = _net()
        covered = 0
        prev_stop = 0
        for seg in net.segments:
            assert seg.start == prev_stop  # contiguous, ordered
            covered += seg.size
            prev_stop = seg.stop
        assert covered == net.num_params

    def test_segment_sizes_match_shapes(self):
        net = _net()
        for seg in net.segments:
            assert seg.size == int(np.prod(seg.shape))

    def test_nbytes_is_4x_params(self):
        net = _net()
        assert net.nbytes == 4 * net.num_params

    def test_grads_are_views_too(self):
        net = _net()
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4)).astype(np.float32)
        net.gradient(x, np.array([0, 1]))
        total = sum(float(np.abs(g).sum()) for l in net.layers for g in l.grads.values())
        assert total == pytest.approx(float(np.abs(net.grads).sum()), rel=1e-6)

    def test_layer_nbytes_sums_to_total(self):
        net = _net()
        assert sum(seg.nbytes for seg in net.segments) == net.nbytes


class TestWeightTransport:
    def test_get_params_is_a_copy(self):
        net = _net()
        snap = net.get_params()
        snap[...] = 99.0
        assert net.params[0] != 99.0

    def test_set_params_roundtrip(self):
        a, b = _net(seed=1), _net(seed=2)
        assert not np.allclose(a.params, b.params)
        b.set_params(a.get_params())
        np.testing.assert_array_equal(a.params, b.params)

    def test_set_params_validates_size(self):
        net = _net()
        with pytest.raises(ValueError):
            net.set_params(np.zeros(3, dtype=np.float32))

    def test_zero_grads(self):
        net = _net()
        net.grads[...] = 5.0
        net.zero_grads()
        assert np.all(net.grads == 0.0)


class TestClone:
    def test_clone_copies_weights(self):
        net = _net(seed=3)
        dup = net.clone()
        np.testing.assert_array_equal(net.params, dup.params)

    def test_clone_is_independent(self):
        net = _net(seed=3)
        dup = net.clone()
        dup.params[...] = 0.0
        assert not np.allclose(net.params, 0.0)

    def test_clone_forward_matches(self):
        net = _net(seed=4)
        dup = net.clone()
        x = np.random.default_rng(1).normal(size=(2, 1, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(net.forward(x), dup.forward(x), rtol=1e-6)


class TestTraining:
    def test_gradient_reduces_loss(self):
        net = _net(seed=5)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 5, 8)
        first = net.gradient(x, y)
        for _ in range(30):
            net.gradient(x, y)
            net.params -= 0.1 * net.grads
        assert net.gradient(x, y) < first

    def test_determinism_same_seed(self):
        a, b = _net(seed=6), _net(seed=6)
        np.testing.assert_array_equal(a.params, b.params)
        x = np.random.default_rng(3).normal(size=(2, 1, 4, 4)).astype(np.float32)
        y = np.array([0, 1])
        a.gradient(x, y)
        b.gradient(x, y)
        np.testing.assert_array_equal(a.grads, b.grads)

    def test_evaluate_range(self):
        net = _net(seed=7)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 1, 4, 4)).astype(np.float32)
        y = rng.integers(0, 5, 20)
        acc = net.evaluate(x, y)
        assert 0.0 <= acc <= 1.0

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            Network([], input_shape=(1, 2, 2))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_pack_unpack_identity(self, seed):
        """set_params(get_params()) is the identity for any weights."""
        net = _net(seed=seed % 10)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=net.num_params).astype(np.float32)
        net.set_params(vec)
        np.testing.assert_array_equal(net.get_params(), vec)

    @settings(max_examples=10, deadline=None)
    @given(scale=st.floats(0.1, 10.0))
    def test_flops_independent_of_weights(self, scale):
        net = _net()
        before = net.flops_per_sample()
        net.params *= np.float32(scale)
        assert net.flops_per_sample() == before


class TestCloneIsolation:
    """Clone must deep-copy layer state: running one net can't perturb the
    other (the shallow-copy bug shared dropout RNGs and forward caches)."""

    def test_original_forward_backward_does_not_affect_clone(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=(4, 1, 4, 4)).astype(np.float32)
        x2 = rng.normal(size=(4, 1, 4, 4)).astype(np.float32)
        dy = np.ones((4, 5), dtype=np.float32)

        original = _net(seed=3)
        clone = original.clone()
        control = original.clone()

        # Interleave: the clone caches activations for x1, then the
        # original runs a full step on x2 before the clone's backward.
        clone.forward(x1, training=True)
        original.forward(x2, training=True)
        original.backward(dy)
        clone.backward(dy)

        control.forward(x1, training=True)
        control.backward(dy)
        np.testing.assert_array_equal(clone.grads, control.grads)

    def test_dropout_rng_not_shared_with_clone(self):
        from repro.nn.regularization import Dropout

        net = Network(
            [Flatten(), Dense(6, name="d1"), Dropout(0.5, seed=5), Dense(5, name="d2")],
            input_shape=(1, 4, 4),
            seed=1,
        )
        x = np.random.default_rng(2).normal(size=(8, 1, 4, 4)).astype(np.float32)
        net.forward(x)  # build
        clone = net.clone()

        # Advancing the original's dropout RNG must leave the clone's
        # stream untouched: both clones of the same net draw identical
        # masks regardless of what the original does in between.
        control = net.clone()
        for _ in range(3):
            net.forward(x, training=True)
        out_clone = clone.forward(x, training=True)
        out_control = control.forward(x, training=True)
        np.testing.assert_array_equal(out_clone, out_control)


class TestSetParamsBuffers:
    """set_params accepts any same-size buffer (column vectors included)
    and rejects mismatched sizes with the actual sizes in the message."""

    def test_accepts_column_vector(self):
        net = _net()
        flat = np.arange(net.num_params, dtype=np.float32)
        net.set_params(flat.reshape(-1, 1))  # (N, 1), same size
        np.testing.assert_array_equal(net.get_params(), flat)

    def test_accepts_float64_with_cast(self):
        net = _net()
        flat = np.linspace(0.0, 1.0, net.num_params, dtype=np.float64)
        net.set_params(flat)
        assert net.get_params().dtype == np.float32
        np.testing.assert_array_equal(net.get_params(), flat.astype(np.float32))

    def test_rejects_wrong_size_with_sizes_in_message(self):
        net = _net()
        with pytest.raises(ValueError, match=f"size 3, expected {net.num_params}"):
            net.set_params(np.zeros(3, dtype=np.float32))

    def test_rejects_wrong_size_even_if_shaped(self):
        net = _net()
        with pytest.raises(ValueError, match="expected"):
            net.set_params(np.zeros((2, net.num_params), dtype=np.float32))


class TestPickleAndDeepCopy:
    """A pickled or deep-copied network stays one packed buffer with views
    into it (it used to come back detached, with four copies of the weights
    and every layer's scratch in the payload)."""

    @staticmethod
    def _roundtrips(net):
        import copy
        import pickle

        return [pickle.loads(pickle.dumps(net)), copy.deepcopy(net)]

    def test_layer_views_alias_the_packed_buffers(self):
        net = _net(seed=1)
        for twin in self._roundtrips(net):
            np.testing.assert_array_equal(twin.params, net.params)
            for layer in twin.layers:
                for name, view in layer.params.items():
                    assert np.shares_memory(view, twin.params)
                    assert np.shares_memory(layer.grads[name], twin.grads)
                    assert not np.shares_memory(view, net.params)

    def test_set_params_reaches_forward(self):
        from repro.nn.models import build_mlp

        net = build_mlp(seed=2)
        x = np.random.default_rng(0).normal(size=(3, 1, 28, 28)).astype(np.float32)
        for twin in self._roundtrips(net):
            np.testing.assert_array_equal(twin.forward(x), net.forward(x))
            twin.set_params(np.zeros(twin.num_params, dtype=np.float32))
            np.testing.assert_array_equal(twin.forward(x), 0.0)
            twin.gradient(x, np.array([1, 2, 3]))  # zero weights: only the last bias moves
            assert twin.grads.any() and twin.layers[-1].grads["b"].any()

    def test_trained_network_pickles_to_two_buffers(self):
        import pickle

        from repro.nn.models import build_lenet

        net = build_lenet(seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 1, 28, 28)).astype(np.float32)
        net.gradient(x, rng.integers(0, 10, size=32))
        net.evaluate(x, rng.integers(0, 10, size=32))
        assert len(pickle.dumps(net)) <= 2 * net.nbytes + 32 * 1024

    def test_stochastic_layer_state_survives(self):
        from repro.nn.regularization import BatchNorm, Dropout

        net = Network(
            [Flatten(), Dense(6, name="d1"), BatchNorm(name="bn"), Dropout(0.5, seed=5),
             Dense(5, name="d2")],
            input_shape=(1, 4, 4),
            seed=1,
        )
        x = np.random.default_rng(2).normal(size=(8, 1, 4, 4)).astype(np.float32)
        net.forward(x, training=True)  # advances the dropout stream and the running stats
        twins = self._roundtrips(net)
        want = net.forward(x, training=True)
        for twin in twins:  # the same next mask, the same running statistics after it
            np.testing.assert_array_equal(twin.forward(x, training=True), want)
            np.testing.assert_array_equal(twin.layers[2].running_mean, net.layers[2].running_mean)
