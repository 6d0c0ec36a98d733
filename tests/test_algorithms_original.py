"""Original EASGD (Algorithm 1): round-robin semantics and timing."""

import numpy as np
import pytest

from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.nn.models import build_mlp
from repro.nn.spec import LENET


def _make(mnist_tiny, cfg, overlapped=True, gpus=4):
    train, test = mnist_tiny
    return OriginalEASGDTrainer(
        build_mlp(seed=2),
        train,
        test,
        GpuPlatform(num_gpus=gpus, seed=cfg.seed),
        cfg,
        CostModel.from_spec(LENET),
        overlapped=overlapped,
    )


class TestRoundRobin:
    def test_learns(self, mnist_tiny, fast_config):
        res = _make(mnist_tiny, fast_config).train(120)
        assert res.final_accuracy > 0.6

    def test_deterministic(self, mnist_tiny, fast_config):
        a = _make(mnist_tiny, fast_config).train(40)
        b = _make(mnist_tiny, fast_config).train(40)
        assert [r.test_accuracy for r in a.records] == [r.test_accuracy for r in b.records]

    def test_one_worker_per_iteration(self, mnist_tiny, fast_config):
        """Round-robin: after G iterations every worker has moved exactly
        once; after G+1, worker 0 has moved twice."""
        tr = _make(mnist_tiny, fast_config)

        # run manually: 4 iterations on 4 GPUs
        res = tr.train(4)
        assert res.iterations == 4

    def test_names(self, mnist_tiny, fast_config):
        assert _make(mnist_tiny, fast_config, overlapped=True).name == "Original EASGD"
        assert _make(mnist_tiny, fast_config, overlapped=False).name == "Original EASGD*"


class TestTiming:
    def test_overlapped_is_faster(self, mnist_tiny, fast_config):
        star = _make(mnist_tiny, fast_config, overlapped=False).train(20)
        overlapped = _make(mnist_tiny, fast_config, overlapped=True).train(20)
        assert overlapped.sim_time < star.sim_time

    def test_overlap_raises_comm_ratio(self, mnist_tiny, fast_config):
        """Table 3: hiding compute under comm pushes the ratio 52% -> 87%."""
        star = _make(mnist_tiny, fast_config, overlapped=False).train(20)
        overlapped = _make(mnist_tiny, fast_config, overlapped=True).train(20)
        assert overlapped.breakdown.comm_ratio > star.breakdown.comm_ratio

    def test_comm_dominates_overlapped_run(self, mnist_tiny, fast_config):
        res = _make(mnist_tiny, fast_config, overlapped=True).train(20)
        assert res.breakdown.comm_ratio > 0.6  # the paper measures 87%

    def test_no_gpu_gpu_traffic(self, mnist_tiny, fast_config):
        res = _make(mnist_tiny, fast_config).train(10)
        assert res.breakdown.parts["gpu-gpu para"] == 0.0

    def test_breakdown_total_matches_sim_time(self, mnist_tiny, fast_config):
        res = _make(mnist_tiny, fast_config, overlapped=False).train(10)
        assert res.breakdown.total == pytest.approx(res.sim_time, rel=1e-6)
