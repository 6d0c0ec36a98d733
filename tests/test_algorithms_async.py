"""Async parameter-server family: DES behaviour, locks, learning."""

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.algorithms.async_ps import (
    AsyncEASGDTrainer,
    AsyncMEASGDTrainer,
    AsyncMSGDTrainer,
    AsyncSGDTrainer,
    HogwildEASGDTrainer,
    HogwildSGDTrainer,
)
from repro.cluster import CostModel, GpuPlatform
from repro.nn.models import build_mlp
from repro.nn.spec import LENET


def _make(cls, mnist_tiny, cfg, gpus=4, seed=1):
    train, test = mnist_tiny
    return cls(
        build_mlp(seed=seed),
        train,
        test,
        GpuPlatform(num_gpus=gpus, seed=cfg.seed),
        cfg,
        CostModel.from_spec(LENET),
    )


@pytest.fixture()
def async_config():
    return TrainerConfig(batch_size=16, lr=0.02, rho=2.0, seed=0, eval_every=20, eval_samples=128)


ALL_ASYNC = [
    AsyncSGDTrainer,
    HogwildSGDTrainer,
    AsyncEASGDTrainer,
    AsyncMEASGDTrainer,
    HogwildEASGDTrainer,
]


@pytest.mark.parametrize("cls", ALL_ASYNC)
class TestAsyncCommon:
    def test_learns(self, cls, mnist_tiny, async_config):
        res = _make(cls, mnist_tiny, async_config).train(150)
        assert res.final_accuracy > 0.6, f"{cls.__name__} did not learn"

    def test_deterministic(self, cls, mnist_tiny, async_config):
        a = _make(cls, mnist_tiny, async_config).train(60)
        b = _make(cls, mnist_tiny, async_config).train(60)
        assert [r.test_accuracy for r in a.records] == [r.test_accuracy for r in b.records]
        assert a.sim_time == b.sim_time

    def test_sim_time_monotone_in_iterations(self, cls, mnist_tiny, async_config):
        a = _make(cls, mnist_tiny, async_config).train(40)
        b = _make(cls, mnist_tiny, async_config).train(80)
        assert b.sim_time > a.sim_time

    def test_records_time_nondecreasing(self, cls, mnist_tiny, async_config):
        res = _make(cls, mnist_tiny, async_config).train(80)
        times = [r.sim_time for r in res.records]
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestLockVsLockFree:
    def test_hogwild_is_faster_than_locked(self, mnist_tiny, async_config):
        """Removing the master lock removes queueing delay (the paper's
        Hogwild argument) — strictly fewer simulated seconds for the same
        number of interactions."""
        locked = _make(AsyncEASGDTrainer, mnist_tiny, async_config).train(200)
        lockfree = _make(HogwildEASGDTrainer, mnist_tiny, async_config).train(200)
        assert lockfree.sim_time <= locked.sim_time
        assert lockfree.extras["master_wait_seconds"] == 0.0
        assert locked.extras["master_wait_seconds"] >= 0.0

    def test_more_workers_more_queueing(self, mnist_tiny, async_config):
        w2 = _make(AsyncSGDTrainer, mnist_tiny, async_config, gpus=2).train(100)
        w8 = _make(AsyncSGDTrainer, mnist_tiny, async_config, gpus=8).train(100)
        assert w8.extras["master_wait_seconds"] >= w2.extras["master_wait_seconds"]


class TestElasticOverlap:
    def test_easgd_cycles_faster_than_sgd(self, mnist_tiny, async_config):
        """EASGD overlaps the pass with the exchange (Section 5.1 step 2),
        so the same interaction count takes less simulated time."""
        sgd = _make(AsyncSGDTrainer, mnist_tiny, async_config).train(200)
        easgd = _make(AsyncEASGDTrainer, mnist_tiny, async_config).train(200)
        assert easgd.sim_time < sgd.sim_time


class TestUpdateRules:
    def test_async_sgd_master_follows_gradients(self, mnist_tiny, async_config):
        tr = _make(AsyncSGDTrainer, mnist_tiny, async_config)
        init = tr.net.get_params()
        tr.train(30)
        assert not np.allclose(tr.step.eval_params(), init)

    def test_easgd_workers_stay_distinct_from_center(self, mnist_tiny, async_config):
        tr = _make(AsyncEASGDTrainer, mnist_tiny, async_config)
        tr.train(50)
        center = tr.step.eval_params()
        assert any(not np.allclose(st["w"], center) for st in tr.step.states)

    def test_measgd_uses_velocity(self, mnist_tiny, async_config):
        tr = _make(AsyncMEASGDTrainer, mnist_tiny, async_config)
        tr.train(30)
        assert any(float(np.abs(st["v"]).sum()) > 0 for st in tr.step.states)

    def test_msgd_uses_master_velocity(self, mnist_tiny, async_config):
        # mu=0.5 keeps master momentum stable at this scale.
        cfg = TrainerConfig(batch_size=16, lr=0.02, rho=2.0, mu=0.5, seed=0, eval_every=20)
        tr = _make(AsyncMSGDTrainer, mnist_tiny, cfg)
        tr.train(30)
        assert float(np.abs(tr.step.store.velocity).sum()) > 0

    def test_sgd_workers_track_master_exactly(self, mnist_tiny, async_config):
        """An SGD worker's weights after a reply are the master weights at
        that reply — they never drift independently."""
        tr = _make(AsyncSGDTrainer, mnist_tiny, async_config)
        tr.train(9)  # not a multiple of 4: last reply state differs per worker
        # At least the most recently served worker matches the master.
        center = tr.step.eval_params()
        assert any(np.allclose(st["w"], center) for st in tr.step.states)
