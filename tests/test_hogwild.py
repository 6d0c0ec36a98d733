"""Real shared-memory Hogwild: a ``PS_FAMILIES`` row on a shared center.

One worker is the simulated row byte for byte; the center's two master
updates are the row's stores; lock-free workers still converge.
"""

import os
import time

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.comm.shm_lifecycle import registered_segments
from repro.engine.ps import ElasticCenterStore, SgdServerStore
from repro.harness.experiment import ExperimentSpec, build_trainer
from repro.hogwild import HOGWILD_METHODS, HogwildRunner
from repro.nn.models import build_mlp
from repro.optim.easgd import EASGDHyper


def _no_segment_left():
    mine = f"repro-{os.getpid()}-"
    assert registered_segments() == []
    assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] == []


class TestCenterStore:
    """The shared center's master updates are the row's stores."""

    def test_pull_is_copy(self):
        s = ElasticCenterStore(EASGDHyper(lr=0.05, rho=2.0)).bind(
            np.ones(4, dtype=np.float32))
        snap = s.pull()
        snap[...] = 9.0
        np.testing.assert_array_equal(s.weights, 1.0)

    def test_sgd_update(self):
        s = SgdServerStore(0.5).bind(np.ones(4, dtype=np.float32))
        reply = s.serve(np.full(4, 0.5, dtype=np.float32))
        np.testing.assert_allclose(s.weights, 0.75)
        assert reply is s.weights  # live: the runner pulls it under the lock

    def test_elastic_serve_returns_pre_update_center(self):
        h = EASGDHyper(lr=0.05, rho=2.0)
        s = ElasticCenterStore(h).bind(np.zeros(2, dtype=np.float32))
        returned = s.serve(np.ones(2, dtype=np.float32))
        np.testing.assert_array_equal(returned, 0.0)
        np.testing.assert_allclose(s.weights, h.alpha)


ONE_WORKER_STEPS = 30


def _simulated_center(mnist_tiny, method, steps):
    """The simulated row's center after ``steps`` exchanges of one worker."""
    train, test = mnist_tiny
    config = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0, eval_every=steps)
    spec = ExperimentSpec(train, test, lambda: build_mlp(seed=7), num_gpus=1,
                          config=config)
    trainer = build_trainer(spec, method)
    trainer.train(steps)
    return trainer.step.store.weights


@pytest.mark.mp
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("method", HOGWILD_METHODS)
def test_one_worker_is_the_simulated_row(mnist_tiny, method, backend):
    """With nothing to race, the shared center runs the row's sequence
    (local pass, serve, apply) on the simulator's sampler: same bits."""
    res = HogwildRunner(
        build_mlp(seed=7), mnist_tiny[0], num_workers=1,
        steps_per_worker=ONE_WORKER_STEPS, method=method, batch_size=16,
        lr=0.05, rho=2.0, seed=0, backend=backend,
    ).run()
    center = _simulated_center(mnist_tiny, method, ONE_WORKER_STEPS)
    assert res.final_weights.tobytes() == center.tobytes()


class TestHogwildRunner:
    def _runner(self, mnist_tiny, **kw):
        train, _ = mnist_tiny
        defaults = dict(
            num_workers=4, steps_per_worker=15, batch_size=16, lr=0.05, rho=2.0,
            seed=0,
        )
        defaults.update(kw)
        return HogwildRunner(build_mlp(seed=7), train, **defaults)

    def _accuracy(self, mnist_tiny, res):
        net = build_mlp(seed=7)
        net.set_params(res.final_weights)
        return net.evaluate(mnist_tiny[1].images, mnist_tiny[1].labels)

    def test_all_workers_complete(self, mnist_tiny):
        res = self._runner(mnist_tiny).run()
        assert res.steps_per_worker == [15] * 4
        assert res.total_steps == 60

    def test_lockfree_easgd_converges(self, mnist_tiny):
        """The paper's Hogwild EASGD claim: lock-free elastic averaging still
        trains — verified with genuine racing threads."""
        res = self._runner(mnist_tiny, method="hogwild-easgd", steps_per_worker=40).run()
        assert self._accuracy(mnist_tiny, res) > 0.6

    def test_lockfree_sgd_converges(self, mnist_tiny):
        res = self._runner(mnist_tiny, method="hogwild-sgd", lr=0.02,
                           steps_per_worker=40).run()
        assert self._accuracy(mnist_tiny, res) > 0.6

    def test_locked_matches_quality(self, mnist_tiny):
        res = self._runner(mnist_tiny, method="async-easgd", steps_per_worker=40).run()
        assert self._accuracy(mnist_tiny, res) > 0.6

    def test_wall_time_recorded(self, mnist_tiny):
        assert self._runner(mnist_tiny, steps_per_worker=2).run().wall_seconds > 0

    def test_validation(self, mnist_tiny):
        train, _ = mnist_tiny
        with pytest.raises(ValueError):
            HogwildRunner(build_mlp(), train, num_workers=0, steps_per_worker=1)
        with pytest.raises(ValueError, match="'nope'"):
            HogwildRunner(build_mlp(), train, num_workers=1, steps_per_worker=1,
                          method="nope")

    @pytest.mark.parametrize("option", [{"rule": "sgd"}, {"use_lock": True}])
    def test_rule_and_lock_are_not_options(self, mnist_tiny, option):
        """The row decides both: the update rule and whether the lock is held."""
        with pytest.raises(TypeError):
            self._runner(mnist_tiny, **option)

    @pytest.mark.parametrize("method", ["async-msgd", "downpour", "sync-easgd"])
    def test_unsupported_method_refused_before_any_rank_starts(
            self, mnist_tiny, monkeypatch, method):
        def no_launch(*args, **kwargs):
            raise AssertionError("a rank launched")

        monkeypatch.setattr("repro.hogwild.threads.make_communicator", no_launch)
        with pytest.raises(ValueError, match=f"'{method}'"):
            self._runner(mnist_tiny, method=method, backend="processes").run()


@pytest.mark.mp
class TestHogwildProcesses:
    """backend='processes': forked workers racing on one shm segment."""

    def test_all_workers_complete_and_weights_move(self, mnist_tiny):
        train, _ = mnist_tiny
        runner = HogwildRunner(
            build_mlp(seed=7), train, num_workers=3, steps_per_worker=5,
            method="async-easgd", batch_size=16, backend="processes",
        )
        start = runner.template.get_params().copy()
        res = runner.run()
        assert res.backend == "processes"
        assert res.steps_per_worker == [5] * 3
        assert res.total_steps == 15
        assert all(np.isfinite(l) for l in res.final_losses)
        assert not np.array_equal(res.final_weights, start)

    @pytest.mark.parametrize("method", HOGWILD_METHODS)
    def test_run_leaves_no_segment(self, mnist_tiny, method):
        HogwildRunner(
            build_mlp(seed=7), mnist_tiny[0], num_workers=2, steps_per_worker=3,
            method=method, batch_size=16, backend="processes",
        ).run()
        _no_segment_left()

    @pytest.mark.slow
    def test_lockfree_easgd_converges_across_processes(self, mnist_tiny):
        train, test = mnist_tiny
        res = HogwildRunner(
            build_mlp(seed=7), train, num_workers=4, steps_per_worker=40,
            method="hogwild-easgd", batch_size=16, backend="processes",
        ).run()
        net = build_mlp(seed=7)
        net.set_params(res.final_weights)
        assert net.evaluate(test.images, test.labels) > 0.6

    def test_invalid_backend_rejected(self, mnist_tiny):
        train, _ = mnist_tiny
        with pytest.raises(ValueError, match="backend"):
            HogwildRunner(build_mlp(), train, num_workers=1, steps_per_worker=1,
                          backend="greenlets")


def _failing_gradient(monkeypatch, workers, fail):
    """Patch ``Network.gradient`` (before the launch, so a fork inherits
    it) to ``fail()`` on a worker's second step in the named workers."""
    from repro.nn.network import Network

    gradient, calls = Network.gradient, []

    def patched(self, *args):
        calls.append(self.name)
        if self.name in workers and calls.count(self.name) == 2:
            fail()
        return gradient(self, *args)

    monkeypatch.setattr(Network, "gradient", patched)


@pytest.mark.mp
class TestHogwildFailures:
    """Worker failures come from the communicator the workers run on:
    the same aggregation on both backends, a hard death named at once."""

    def _runner(self, mnist_tiny, backend, workers=3):
        return HogwildRunner(
            build_mlp(seed=7), mnist_tiny[0], num_workers=workers,
            steps_per_worker=30, batch_size=16, backend=backend,
        )

    def test_worker_that_dies_hard_is_named_at_once(self, mnist_tiny, monkeypatch):
        from repro.comm.mp_runtime import RemoteRankError

        _failing_gradient(monkeypatch, {"hogwild-w1"}, lambda: os._exit(3))
        t0 = time.monotonic()
        with pytest.raises(RemoteRankError) as ei:
            self._runner(mnist_tiny, "processes").run()
        assert time.monotonic() - t0 < 10.0
        failures = getattr(ei.value, "failures", {ei.value.rank: ei.value})
        assert "rank 1" in str(failures[1]) and "exitcode 3" in str(failures[1])
        _no_segment_left()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("failing", [(1,), (0, 2)])
    def test_exceptions_aggregate_alike_on_both_backends(
            self, mnist_tiny, monkeypatch, failing, backend):
        from repro.comm.runtime import MultiRankError

        def boom():
            raise ValueError("boom")

        _failing_gradient(monkeypatch, {f"hogwild-w{r}" for r in failing}, boom)
        with pytest.raises(ValueError, match="boom") as ei:
            self._runner(mnist_tiny, backend).run()
        if len(failing) == 1:
            assert type(ei.value) is ValueError  # a lone failure travels as itself
        else:
            assert isinstance(ei.value, MultiRankError)
            assert set(ei.value.failures) == set(failing)
