"""Datasets: container validation, generators, normalization, samplers."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.loader import BatchSampler
from repro.data.normalize import _LEAF, standardize, standardize_like
from repro.data.synthetic import (
    DATASET_GEOMETRY,
    NOISE_BLOCK_BYTES,
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


#: The generators at sizes that span several noise blocks and are not a
#: multiple of one, with their test splits.
_PINNED_SIZES = {
    "mnist": (make_mnist_like, dict(n_train=4099, n_test=1021)),
    "cifar": (make_cifar_like, dict(n_train=1531, n_test=509)),
    "imagenet": (make_imagenet_like, dict(n_train=301, n_test=127)),
}

#: sha256 of (train images, train labels, test images, test labels), written
#: by the generator that drew the whole noise tensor in one call (NumPy 2.4,
#: x86-64). Drawing it a block at a time must not move a byte.
_PINNED_SHA256 = {
    ("mnist", 0): (
        "d3718526c80d70a0ff2114450e2ddc46384a9be63f7211858aad9f2103d2db1b",
        "e46ee2d893eaa1c66ea1326291586f79a6ceae1bcef378fddedc185e0fa805e0",
        "06f4463bc961aa3cef18dc37fc259e2b28a0bab1115a221e28212f088fd97bc7",
        "b94066cbe6b448d730e2d1da7deffc5b9c0d57e09844a45f1d7ec50d28d04a5e",
    ),
    ("mnist", 5): (
        "c6173e63002bbb50587d7b1833b8cd0dbc890d381f939e538175885ec19b85d5",
        "177ad7f88d3c2c3fe675c552cacfcda6bfeb8c7d9b0e9bc15902daa65e27041d",
        "d611e26d91b7b02071ceece299f198c2fe18d16b1748fcd6460277e6b6b18486",
        "04dc7bd045a54274f8524552d2996ff1a1cc3ea5a43b49a7ef920a5033105de9",
    ),
    ("cifar", 0): (
        "432c09a020fc12900d8e387d875c434732ad21974bc48ce0e62a4caaa3074ca1",
        "8f38020f1d10f59339efa1cd4b1388c0203650585e797bf72e7698a102cdefe8",
        "6142859623f915c1d909f51e05ff1e08858568ec371ba690c3b00e0fab9110b0",
        "ef7bef49801764fd26b41bfcbdcfd7160b0ab135485bf5d2c63ad288be03452c",
    ),
    ("cifar", 5): (
        "ccc65abe1cab2d1d225548497f50da518c0555218f34a6c0dbbc8acc16cf903a",
        "3c0f9915fb662acdc292103be52707b20c16054158fd6e62484f672a1fc27c53",
        "7a5bd9190fc67cc4af684fa4a206900becb4aaa1baab0e8ab51d897fce4bc413",
        "dc47d326bbcdd6e15619f87a33e2d4df255d2cb1a3c1f2dc25670c08c2beb64b",
    ),
    ("imagenet", 0): (
        "58091aa259d14516d3ab9eef20e1740c8f93e0e59935da135806bb93025bd7ed",
        "20102fbdf09ffbf95d34204a4e6022ba33003cddd82097e798662a724534d08a",
        "340b47be17215db8bcaf17fa9dc898b4743d5413471600770d728b4f0f772d28",
        "5e2ab08e0d68b922ac9b28fe056d8f1faa5020b4a060d50ec4990e98b1e8c4d3",
    ),
    ("imagenet", 5): (
        "587864e5b50a8a39d6f601f8c0316cdb7f7944636dd56d1f1a1bad5f39045eb2",
        "bec40e3f83889d06da709d282648fd312f0c9b822749e749e949a5901656158d",
        "b880ac9d36e71c0ec384637113953636cbb38e1be8136d9f755610c187c4aed8",
        "5f22dc28373ffc3526c8b27165f61eac7c7d1cd5e4403840ebcdf9732dfb428d",
    ),
}

#: A 2999-sample MNIST-geometry set at difficulty 0: (images, labels).
_PINNED_NOISELESS_SHA256 = (
        "5151ae3c4bff12f90b1039c224c959df055a49e405d4381448d07813e9cc5c0d",
        "cd605cbafc5876f10b4794b8a79a580738df3a2a6e99446dc9f82d74ffae4b90",
    )


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestSyntheticBytesAndMemory:
    @pytest.mark.parametrize("name, seed", list(_PINNED_SHA256),
                             ids=[f"{n}-{s}" for n, s in _PINNED_SHA256])
    def test_bytes_are_pinned(self, name, seed):
        make, sizes = _PINNED_SIZES[name]
        train, test = make(seed=seed, **sizes)
        rows = NOISE_BLOCK_BYTES // train.images[0].nbytes
        assert len(train) > 2 * rows and len(train) % rows  # a ragged last block
        got = tuple(_sha256(a) for a in (train.images, train.labels,
                                         test.images, test.labels))
        assert got == _PINNED_SHA256[name, seed]

    def test_noiseless_bytes_are_pinned(self):
        ds = make_synthetic("z", 2999, num_classes=10, channels=1, height=28,
                            width=28, seed=3, difficulty=0.0)
        assert (_sha256(ds.images), _sha256(ds.labels)) == _PINNED_NOISELESS_SHA256

    def test_transient_is_a_few_blocks(self):
        # A set eight blocks large: a dataset-sized noise draw would peak at
        # about four times the set (a float64 draw, its float32 cast, the
        # scaled copy); a block at a time it is the set plus ~3 blocks.
        n = 8 * (NOISE_BLOCK_BYTES // (28 * 28 * 4)) + 17
        tracemalloc.start()
        try:
            ds = make_synthetic("m", n, num_classes=10, channels=1, height=28,
                                width=28, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ds.images.nbytes + 4 * NOISE_BLOCK_BYTES

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic mmap threshold")
    def test_generation_keeps_the_nn_plane_off_mmap(self):
        # Freeing a noise block raises glibc's mmap and trim thresholds past
        # LeNet's per-step scratch. With a budget too small for that, the
        # steps pay heap trims: a 256-row budget took ~1,000 to ~300,000
        # minor faults over these 300 steps, depending on the heap's layout;
        # 4 MiB blocks take 1, as the one dataset-sized draw did.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", _BARE_LENET_LOOP], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        steps, faults = json.loads(out.stdout)
        assert faults < steps, f"{faults} minor faults over {steps} LeNet steps"


_BARE_LENET_LOOP = """
import json, resource
from repro.data import make_mnist_like
from repro.nn.models import build_lenet

train, _ = make_mnist_like(seed=0)  # un-normalized: nothing else frees a block
net = build_lenet(seed=0)
x, y = train.images[:32], train.labels[:32]
net.gradient(x, y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(300):
    net.gradient(x, y)
print(json.dumps([300, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before]))
"""


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

    # Element counts that put the blocked sum's tree in each shape: under
    # one leaf, exactly 2**k leaves, a partial last leaf, more than 8 leaves.
    @pytest.mark.parametrize("n", [1000, _LEAF, 4 * _LEAF, 3 * _LEAF + 40, 9 * _LEAF + 77],
                             ids=["one-leaf", "2^k-leaves", "partial-leaf", "9-leaves",
                                  "odd-tail"])
    def test_std_is_numpys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        images = (3.0 * rng.standard_normal(n) + 1.7).astype(np.float32).reshape(n, 1, 1, 1)
        expected = images.std()
        mean, std = standardize(Dataset("s", images, np.zeros(n, dtype=np.int64), 2))
        assert std == float(expected)

    def test_std_of_a_non_contiguous_view_is_numpys(self):
        rng = np.random.default_rng(3)
        base = (2.0 * rng.standard_normal((64, 2, 16, 16)) - 0.5).astype(np.float32)
        view = base[::2, :1]
        expected = view.std()
        mean, std = standardize(Dataset("v", view, np.zeros(32, dtype=np.int64), 2))
        assert std == float(expected)

    def test_std_takes_no_set_sized_temporary(self):
        # An 8 MiB set; images.std() would square a copy of all of it.
        images = np.random.default_rng(0).random((2048, 1, 32, 32), dtype=np.float32)
        ds = Dataset("m", images, np.zeros(2048, dtype=np.int64), 2)
        tracemalloc.start()
        try:
            standardize(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4 * _LEAF, f"traced peak {peak} B for an {images.nbytes} B set"


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


