"""Datasets: container validation, generators, normalization, samplers."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.data.normalize import standardize, standardize_like
from repro.data.synthetic import (
    DATASET_GEOMETRY,
    make_cifar_like,
    make_class_prototypes,
    make_imagenet_like,
    make_mnist_like,
    make_synthetic,
)
from repro.util.rng import spawn_rng


def _tiny(n=32, seed=0):
    return make_synthetic("t", n, num_classes=4, channels=1, height=6, width=6, seed=seed)


class TestDataset:
    def test_valid_construction(self):
        ds = _tiny()
        assert len(ds) == 32
        assert ds.sample_shape == (1, 6, 6)

    def test_nbytes(self):
        ds = _tiny()
        assert ds.nbytes == 32 * 1 * 6 * 6 * 4

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Dataset("x", np.zeros((4, 3, 3)), np.zeros(4, dtype=int), 2)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset("x", np.zeros((4, 1, 2, 2)), np.zeros(3, dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Dataset("x", np.zeros((2, 1, 2, 2)), np.array([0, 5]), 2)


class TestGenerators:
    def test_mnist_geometry(self):
        train, test = make_mnist_like(n_train=64, n_test=16, seed=1)
        assert train.sample_shape == (1, 28, 28)
        assert train.num_classes == 10
        assert len(train) == 64 and len(test) == 16

    def test_cifar_geometry(self):
        train, _ = make_cifar_like(n_train=32, n_test=8, seed=1)
        assert train.sample_shape == (3, 32, 32)

    def test_imagenet_like_scaled(self):
        train, _ = make_imagenet_like(n_train=16, n_test=8, seed=1, num_classes=20, side=32)
        assert train.sample_shape == (3, 32, 32)
        assert train.num_classes == 20

    def test_deterministic(self):
        a, _ = make_mnist_like(n_train=16, n_test=4, seed=7)
        b, _ = make_mnist_like(n_train=16, n_test=4, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a, _ = make_mnist_like(n_train=16, n_test=4, seed=7)
        b, _ = make_mnist_like(n_train=16, n_test=4, seed=8)
        assert not np.allclose(a.images, b.images)

    def test_train_test_noise_independent(self):
        train, test = make_mnist_like(n_train=16, n_test=16, seed=9)
        assert not np.allclose(train.images, test.images)

    def test_zero_difficulty_separable(self):
        """At difficulty 0 same-class samples differ only by shift/gain."""
        ds = make_synthetic(
            "z", 64, num_classes=3, channels=1, height=8, width=8, seed=3,
            difficulty=0.0, max_shift=0,
        )
        for c in range(3):
            cls = ds.images[ds.labels == c]
            if len(cls) >= 2:
                # same prototype up to gain: normalized images identical
                a = cls[0] / np.linalg.norm(cls[0])
                b = cls[1] / np.linalg.norm(cls[1])
                np.testing.assert_allclose(a, b, atol=1e-5)

    def test_geometry_table_matches_paper(self):
        assert DATASET_GEOMETRY["mnist"]["train"] == 60_000
        assert DATASET_GEOMETRY["cifar"]["train"] == 50_000
        assert DATASET_GEOMETRY["imagenet"]["classes"] == 1000

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_synthetic("x", 0, 2, 1, 4, 4, seed=0)
        with pytest.raises(ValueError):
            make_synthetic("x", 4, 2, 1, 4, 4, seed=0, difficulty=-1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_all_classes_represented_eventually(self, seed):
        ds = make_synthetic("p", 256, num_classes=4, channels=1, height=4, width=4, seed=seed)
        assert set(np.unique(ds.labels)) == {0, 1, 2, 3}


def _synthetic_reference(n, num_classes, channels, height, width, seed, difficulty, max_shift):
    """The per-sample generator ``make_synthetic`` replaced: one roll per sample."""
    protos = make_class_prototypes(num_classes, channels, height, width, seed)
    protos = protos * np.sqrt(channels * height * width).astype(np.float32)
    rng = spawn_rng(seed, "samples", "train")
    labels = rng.integers(0, num_classes, size=n)
    shifts_h = rng.integers(-max_shift, max_shift + 1, size=n)
    shifts_w = rng.integers(-max_shift, max_shift + 1, size=n)
    gains = (1.0 + 0.1 * rng.standard_normal(n)).astype(np.float32)
    images = np.empty((n, channels, height, width), dtype=np.float32)
    base = protos[labels]
    for i in range(n):
        img = base[i]
        if shifts_h[i] or shifts_w[i]:
            img = np.roll(img, (int(shifts_h[i]), int(shifts_w[i])), axis=(1, 2))
        images[i] = img * gains[i]
    if difficulty > 0:
        images += np.float32(difficulty) * rng.standard_normal(images.shape).astype(np.float32)
    return images, labels


class TestSyntheticAgainstThePerSampleLoop:
    @pytest.mark.parametrize("max_shift", [0, 2])
    @pytest.mark.parametrize("geometry", [(1, 28, 28), (3, 32, 32), (3, 64, 64)],
                             ids=lambda g: "x".join(map(str, g)))
    def test_byte_equal(self, geometry, max_shift):
        c, h, w = geometry
        ds = make_synthetic("t", 300, num_classes=10, channels=c, height=h, width=w,
                            seed=7, difficulty=0.8, max_shift=max_shift)
        images, labels = _synthetic_reference(300, 10, c, h, w, 7, 0.8, max_shift)
        assert ds.images.tobytes() == images.tobytes()
        assert ds.labels.tobytes() == labels.astype(np.int64).tobytes()

class TestNormalize:
    def test_standardize_in_place(self):
        ds = _tiny(seed=4)
        standardize(ds)
        assert ds.images.mean() == pytest.approx(0.0, abs=1e-5)
        assert ds.images.std() == pytest.approx(1.0, abs=1e-4)

    def test_returns_original_stats(self):
        ds = _tiny(seed=5)
        orig_mean = float(ds.images.mean())
        mean, std = standardize(ds)
        assert mean == pytest.approx(orig_mean)

    def test_standardize_like_uses_given_stats(self):
        a, b = _tiny(seed=6), _tiny(seed=6)
        mean, std = standardize(a)
        standardize_like(b, mean, std)
        np.testing.assert_allclose(a.images, b.images, atol=1e-6)

    def test_zero_variance_guarded(self):
        ds = Dataset("c", np.ones((4, 1, 2, 2), dtype=np.float32), np.zeros(4, dtype=int), 2)
        standardize(ds)
        assert np.all(np.isfinite(ds.images))


class TestBatchSampler:
    def test_batch_shapes(self):
        ds = _tiny()
        s = BatchSampler(ds, 8, seed=0)
        x, y = s.next_batch()
        assert x.shape == (8, 1, 6, 6) and y.shape == (8,)

    def test_deterministic_stream(self):
        ds = _tiny()
        a = BatchSampler(ds, 4, seed=1, name="w0")
        b = BatchSampler(ds, 4, seed=1, name="w0")
        for _ in range(5):
            xa, ya = a.next_batch()
            xb, yb = b.next_batch()
            np.testing.assert_array_equal(ya, yb)

    def test_named_streams_independent(self):
        ds = _tiny()
        a = BatchSampler(ds, 4, seed=1, name="w0")
        b = BatchSampler(ds, 4, seed=1, name="w1")
        same = all(
            np.array_equal(a.next_batch()[1], b.next_batch()[1]) for _ in range(5)
        )
        assert not same

    def test_counts_batches(self):
        ds = _tiny()
        s = BatchSampler(ds, 4, seed=0)
        for _ in range(3):
            s.next_batch()
        assert s.batches_drawn == 3

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            BatchSampler(_tiny(n=4), 8, seed=0)

    def test_iterator_protocol(self):
        ds = _tiny()
        it = iter(BatchSampler(ds, 2, seed=0))
        x, y = next(it)
        assert x.shape[0] == 2


