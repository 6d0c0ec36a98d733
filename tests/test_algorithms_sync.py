"""Sync EASGD1/2/3 and Sync SGD: determinism, timing order, breakdowns."""

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.nn.models import build_mlp
from repro.nn.spec import LENET


def _trainer(mnist_tiny, cfg, variant=3, seed=0, **kw):
    train, test = mnist_tiny
    return SyncEASGDTrainer(
        build_mlp(seed=seed),
        train,
        test,
        GpuPlatform(num_gpus=4, seed=cfg.seed),
        cfg,
        CostModel.from_spec(LENET),
        variant=variant,
        **kw,
    )


class TestSyncEASGDNumerics:
    def test_variants_are_bit_identical(self, mnist_tiny, fast_config):
        """The paper's determinism claim: variants differ only in timing."""
        results = {}
        for v in (1, 2, 3):
            tr = _trainer(mnist_tiny, fast_config, variant=v)
            res = tr.train(20)
            results[v] = [r.test_accuracy for r in res.records]
        assert results[1] == results[2] == results[3]

    def test_rerun_is_reproducible(self, mnist_tiny, fast_config):
        a = _trainer(mnist_tiny, fast_config).train(15)
        b = _trainer(mnist_tiny, fast_config).train(15)
        assert [r.test_accuracy for r in a.records] == [r.test_accuracy for r in b.records]
        assert a.sim_time == b.sim_time

    def test_learns(self, mnist_tiny, fast_config):
        res = _trainer(mnist_tiny, fast_config).train(80)
        assert res.final_accuracy > 0.7

    def test_accuracy_improves_along_trajectory(self, mnist_tiny, fast_config):
        res = _trainer(mnist_tiny, fast_config).train(80)
        assert res.records[-1].test_accuracy > res.records[0].test_accuracy

    def test_invalid_variant(self, mnist_tiny, fast_config):
        with pytest.raises(ValueError):
            _trainer(mnist_tiny, fast_config, variant=4)

    def test_unstable_hyper_rejected(self, mnist_tiny):
        cfg = TrainerConfig(batch_size=16, lr=0.3, rho=2.0)  # 4 * 0.6 >= 2
        with pytest.raises(ValueError, match="unstable"):
            _trainer(mnist_tiny, cfg)

    def test_zero_iterations_rejected(self, mnist_tiny, fast_config):
        with pytest.raises(ValueError):
            _trainer(mnist_tiny, fast_config).train(0)


class TestSyncEASGDTiming:
    def test_variant_times_strictly_improve(self, mnist_tiny, fast_config):
        """EASGD1 > EASGD2 > EASGD3 in simulated time (Table 3's order)."""
        times = {}
        for v in (1, 2, 3):
            times[v] = _trainer(mnist_tiny, fast_config, variant=v).train(10).sim_time
        assert times[1] > times[2] > times[3]

    def test_comm_ratio_drops_from_1_to_3(self, mnist_tiny, fast_config):
        r1 = _trainer(mnist_tiny, fast_config, variant=1).train(10)
        r3 = _trainer(mnist_tiny, fast_config, variant=3).train(10)
        assert r3.breakdown.comm_ratio < r1.breakdown.comm_ratio

    def test_variant2_has_no_cpu_gpu_param_traffic(self, mnist_tiny, fast_config):
        res = _trainer(mnist_tiny, fast_config, variant=2).train(5)
        assert res.breakdown.parts["cpu-gpu para"] == 0.0
        assert res.breakdown.parts["gpu-gpu para"] > 0.0

    def test_variant1_has_no_gpu_gpu_traffic(self, mnist_tiny, fast_config):
        res = _trainer(mnist_tiny, fast_config, variant=1).train(5)
        assert res.breakdown.parts["gpu-gpu para"] == 0.0  # booked as cpu-gpu para
        assert res.breakdown.parts["cpu-gpu para"] > 0.0

    def test_breakdown_total_matches_sim_time(self, mnist_tiny, fast_config):
        res = _trainer(mnist_tiny, fast_config, variant=1).train(8)
        assert res.breakdown.total == pytest.approx(res.sim_time, rel=1e-6)


class TestSyncSGD:
    def _sgd(self, mnist_tiny, cfg, packed=True):
        train, test = mnist_tiny
        return SyncSGDTrainer(
            build_mlp(seed=1),
            train,
            test,
            GpuPlatform(num_gpus=4, seed=cfg.seed),
            cfg,
            CostModel.from_spec(LENET),
            packed=packed,
        )

    def test_learns(self, mnist_tiny, fast_config):
        assert self._sgd(mnist_tiny, fast_config).train(80).final_accuracy > 0.7

    def test_packed_and_unpacked_same_numerics(self, mnist_tiny, fast_config):
        """Figure 10's premise: packing changes time, not the trajectory."""
        a = self._sgd(mnist_tiny, fast_config, packed=True).train(20)
        b = self._sgd(mnist_tiny, fast_config, packed=False).train(20)
        assert [r.test_accuracy for r in a.records] == [r.test_accuracy for r in b.records]
        assert b.sim_time > a.sim_time

    def test_equivalent_to_large_batch_sgd(self, mnist_tiny, fast_config):
        """Tree-summed mean gradient over G workers == one batch of G*b."""
        res = self._sgd(mnist_tiny, fast_config).train(30)
        assert res.final_accuracy > 0.5


class TestTrainToAccuracy:
    def test_truncates_at_target(self, mnist_tiny, fast_config):
        tr = _trainer(mnist_tiny, fast_config)
        res = tr.train_to_accuracy(0.5, max_iterations=120)
        assert res.reached_target
        assert res.final_accuracy >= 0.5
        assert res.iterations <= 120

    def test_unreachable_target(self, mnist_tiny, fast_config):
        tr = _trainer(mnist_tiny, fast_config)
        res = tr.train_to_accuracy(0.9999, max_iterations=10)
        assert res.reached_target is False

    def test_breakdown_rescaled_to_truncated_window(self, mnist_tiny, fast_config):
        tr = _trainer(mnist_tiny, fast_config)
        res = tr.train_to_accuracy(0.4, max_iterations=120)
        if res.reached_target:
            assert res.breakdown.total == pytest.approx(res.sim_time, rel=1e-6)
