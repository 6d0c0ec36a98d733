"""Direct tests for paths previously exercised only through benchmarks."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.cluster import CostModel, GpuClusterPlatform, GpuPlatform, KnlPlatform
from repro.knl import ChipPartitionTrainer, KnlChip, KnlSyncEASGDTrainer, McdramMode
from repro.knl.partition import CIFAR_COPY_BYTES
from repro.nn.models import build_mlp
from repro.nn.spec import ALEXNET, LENET


class TestQuantizedSyncSGD:
    def _trainer(self, mnist_tiny, bits):
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, lr=0.03, rho=2.0, eval_every=10, eval_samples=128)
        return SyncSGDTrainer(
            build_mlp(seed=3),
            train,
            test,
            GpuPlatform(num_gpus=4, seed=0),
            cfg,
            CostModel.from_spec(LENET),
            quantize_bits=bits,
        )

    def test_quantized_still_learns(self, mnist_tiny):
        res = self._trainer(mnist_tiny, 4).train(60)
        assert res.final_accuracy > 0.7

    def test_quantized_is_faster_on_the_wire(self, mnist_tiny):
        full = self._trainer(mnist_tiny, None).train(10)
        q4 = self._trainer(mnist_tiny, 4).train(10)
        assert q4.sim_time < full.sim_time

    def test_one_bit_extreme_still_moves(self, mnist_tiny):
        res = self._trainer(mnist_tiny, 1).train(40)
        assert res.final_accuracy > 0.3  # crude but nonzero signal

    def test_name_reflects_bits(self, mnist_tiny):
        assert "4-bit" in self._trainer(mnist_tiny, 4).name

    def test_invalid_bits_rejected(self, mnist_tiny):
        with pytest.raises(ValueError):
            self._trainer(mnist_tiny, 0)
        with pytest.raises(ValueError):
            self._trainer(mnist_tiny, 32)


class TestKnlTrainerVariants:
    def test_overlap_is_faster(self, mnist_tiny):
        """Algorithm 4 hides part of the fabric trees under compute: its
        iteration is shorter than the same phases run back to back."""
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, eval_every=10, eval_samples=128)
        comm = KnlSyncEASGDTrainer(
            build_mlp(seed=5), train, test, KnlPlatform(num_nodes=4, seed=0), cfg,
            CostModel.from_spec(LENET),
        ).make_comm()
        serial = dataclasses.replace(comm, overlapped=False)
        for fwdbwd in (comm.reduce_t, 10.0 * comm.reduce_t):
            assert comm.timing(fwdbwd)[0] < serial.timing(fwdbwd)[0]


class TestClusterPlatformPieces:
    def test_intra_node_times_scale_with_gpus(self):
        cost = CostModel.from_spec(LENET)
        two = GpuClusterPlatform(num_nodes=2, gpus_per_node=2)
        eight = GpuClusterPlatform(num_nodes=2, gpus_per_node=8)
        assert two.intra_node_reduce_time(cost) < eight.intra_node_reduce_time(cost)

    def test_stage_time_independent_of_cluster_size(self):
        cost = CostModel.from_spec(LENET)
        small = GpuClusterPlatform(num_nodes=1, gpus_per_node=2)
        big = GpuClusterPlatform(num_nodes=16, gpus_per_node=2)
        assert small.stage_batch_time(cost, 32) == big.stage_batch_time(cost, 32)

    def test_jitter_free_compute_deterministic(self):
        cost = CostModel.from_spec(LENET)
        plat = GpuClusterPlatform(num_nodes=2, gpus_per_node=2, jitter_sigma=0.0)
        assert plat.fwdbwd_time(cost, 32, worker=0) == plat.fwdbwd_time(cost, 32, worker=1)


class TestPartitionWithCacheMode:
    def test_cache_mode_softens_the_spill(self, mnist_tiny):
        """In cache mode the 32-part working set degrades gradually instead
        of dropping to DDR4 speed — Figure 2's cache-vs-flat trade."""
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=32, lr=0.05, eval_every=10, eval_samples=128)

        def iter_time(mode):
            trainer = ChipPartitionTrainer(
                build_mlp(input_shape=(1, 28, 28), seed=4),
                train,
                test,
                cfg,
                parts=32,
                chip=KnlChip(mcdram_mode=mode),
                cost_model=CostModel.from_spec(ALEXNET),
                data_bytes=CIFAR_COPY_BYTES,
            )
            return trainer._iter_time()

        assert iter_time(McdramMode.CACHE) < iter_time(McdramMode.FLAT)


class TestQuantizeEdgeCases:
    """Contract tests for the uniform stochastic quantizer's boundaries."""

    def test_empty_gradient_round_trips(self):
        from repro.optim.quantize import quantize_gradient

        empty = np.array([], dtype=np.float32)
        q, scale = quantize_gradient(empty, 8)
        assert q.size == 0
        assert q.dtype == np.float32
        assert scale == 1.0

    def test_all_zero_gradient_is_identity(self):
        from repro.optim.quantize import quantize_gradient

        zeros = np.zeros(16, dtype=np.float64)
        q, scale = quantize_gradient(zeros, 4)
        np.testing.assert_array_equal(q, zeros)
        assert scale == 1.0
        assert q is not zeros  # a copy, never an alias

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_rejected(self, bad):
        from repro.optim.quantize import quantize_gradient

        grad = np.array([0.5, bad, -0.25], dtype=np.float32)
        with pytest.raises(ValueError, match="NaN or Inf"):
            quantize_gradient(grad, 8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype):
        from repro.optim.quantize import quantize_gradient

        rng = np.random.default_rng(3)
        grad = rng.normal(size=64).astype(dtype)
        det, _ = quantize_gradient(grad, 6)
        sto, _ = quantize_gradient(grad, 6, rng)
        assert det.dtype == dtype
        assert sto.dtype == dtype

    def test_level_count_bounded(self):
        from repro.optim.quantize import quantize_gradient

        rng = np.random.default_rng(4)
        grad = rng.normal(size=4096).astype(np.float32)
        bits = 3
        q, _ = quantize_gradient(grad, bits)
        # signed uniform grid: at most 2*(2^bits - 1) + 1 distinct values
        assert len(np.unique(q)) <= 2 * ((1 << bits) - 1) + 1

    @pytest.mark.parametrize("bits", [0, 17, -1])
    def test_bits_out_of_range(self, bits):
        from repro.optim.quantize import quantize_gradient

        with pytest.raises(ValueError, match="bits"):
            quantize_gradient(np.ones(4), bits)

    def test_stochastic_rounding_is_unbiased(self):
        from repro.optim.quantize import quantize_gradient

        rng = np.random.default_rng(5)
        grad = np.full(20_000, 0.3, dtype=np.float64)
        q, _ = quantize_gradient(grad, 2, rng)
        assert abs(float(q.mean()) - 0.3) < 0.01


class TestCheckpointRoundTrips:
    """Round-trip coverage for packed weights in repro.durability's store
    beyond the happy path."""

    def test_values_and_dtype_survive(self, tmp_path):
        from repro.durability import load_latest_valid, write_version
        from repro.nn.serialize import structure_fingerprint

        net = build_mlp(seed=8)
        rng = np.random.default_rng(8)
        net.set_params(rng.normal(size=net.params.size).astype(net.params.dtype))
        before = net.get_params().copy()
        write_version(tmp_path, 7, {"params": net.params}, {},
                      fingerprint=structure_fingerprint(net))

        other = build_mlp(seed=99)  # different init, same architecture
        data = load_latest_valid(tmp_path, fingerprint=structure_fingerprint(other))
        assert data.step == 7
        other.set_params(data.arrays["params"])
        restored = other.get_params()
        np.testing.assert_array_equal(restored, before)
        assert restored.dtype == before.dtype

    def test_fingerprint_depends_on_structure_not_values(self):
        from repro.nn.serialize import structure_fingerprint

        a, b = build_mlp(seed=1), build_mlp(seed=2)
        assert structure_fingerprint(a) == structure_fingerprint(b)
        b.set_params(np.zeros_like(b.params))
        assert structure_fingerprint(a) == structure_fingerprint(b)

    def test_mismatched_architecture_refused_without_mutation(self, tmp_path):
        from repro.durability import CheckpointMismatchError, load_latest_valid, write_version
        from repro.nn.models import build_lenet
        from repro.nn.serialize import structure_fingerprint

        lenet = build_lenet(seed=1)
        write_version(tmp_path, 0, {"params": lenet.params}, {},
                      fingerprint=structure_fingerprint(lenet))
        target = build_mlp(seed=3)
        before = target.get_params().copy()
        with pytest.raises(CheckpointMismatchError, match="was written for structure"):
            data = load_latest_valid(tmp_path, fingerprint=structure_fingerprint(target))
            target.set_params(data.arrays["params"])
        np.testing.assert_array_equal(target.get_params(), before)
