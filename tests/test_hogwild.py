"""Real-threads Hogwild: shared store semantics and lock-free convergence."""

import os
import time

import numpy as np
import pytest

from repro.hogwild import HogwildRunner, SharedWeights
from repro.nn.models import build_mlp
from repro.optim.easgd import EASGDHyper


class TestSharedWeights:
    def test_snapshot_is_copy(self):
        s = SharedWeights(np.ones(4, dtype=np.float32), use_lock=True)
        snap = s.snapshot()
        snap[...] = 9.0
        np.testing.assert_array_equal(s.snapshot(), 1.0)

    def test_sgd_update(self):
        s = SharedWeights(np.ones(4, dtype=np.float32), use_lock=True)
        s.sgd_update(np.full(4, 0.25, dtype=np.float32))
        np.testing.assert_allclose(s.snapshot(), 0.75)
        assert s.update_count == 1

    def test_elastic_interaction_returns_pre_update_center(self):
        s = SharedWeights(np.zeros(2, dtype=np.float32), use_lock=True)
        h = EASGDHyper(lr=0.05, rho=2.0)
        w = np.ones(2, dtype=np.float32)
        returned = s.elastic_interaction(w, h)
        np.testing.assert_array_equal(returned, 0.0)
        np.testing.assert_allclose(s.snapshot(), h.alpha)

    def test_lock_free_mode_constructs(self):
        s = SharedWeights(np.zeros(2, dtype=np.float32), use_lock=False)
        s.sgd_update(np.zeros(2, dtype=np.float32))
        assert s.update_count == 1


class TestHogwildRunner:
    def _runner(self, mnist_tiny, **kw):
        train, _ = mnist_tiny
        defaults = dict(
            num_workers=4, steps_per_worker=15, rule="easgd", use_lock=False,
            batch_size=16, lr=0.05, rho=2.0, seed=0,
        )
        defaults.update(kw)
        return HogwildRunner(build_mlp(seed=7), train, **defaults)

    def test_all_workers_complete(self, mnist_tiny):
        res = self._runner(mnist_tiny).run()
        assert res.steps_per_worker == [15] * 4
        assert res.total_steps == 60

    def test_lockfree_easgd_converges(self, mnist_tiny):
        """The paper's Hogwild EASGD claim: lock-free elastic averaging still
        trains — verified with genuine racing threads."""
        train, test = mnist_tiny
        runner = self._runner(mnist_tiny, steps_per_worker=40)
        res = runner.run()
        net = build_mlp(seed=7)
        net.set_params(res.final_weights)
        assert net.evaluate(test.images, test.labels) > 0.6

    def test_lockfree_sgd_converges(self, mnist_tiny):
        train, test = mnist_tiny
        res = self._runner(mnist_tiny, rule="sgd", lr=0.02, steps_per_worker=40).run()
        net = build_mlp(seed=7)
        net.set_params(res.final_weights)
        assert net.evaluate(test.images, test.labels) > 0.6

    def test_locked_matches_quality(self, mnist_tiny):
        train, test = mnist_tiny
        res = self._runner(mnist_tiny, use_lock=True, steps_per_worker=40).run()
        net = build_mlp(seed=7)
        net.set_params(res.final_weights)
        assert net.evaluate(test.images, test.labels) > 0.6

    def test_wall_time_recorded(self, mnist_tiny):
        assert self._runner(mnist_tiny, steps_per_worker=2).run().wall_seconds > 0

    def test_validation(self, mnist_tiny):
        train, _ = mnist_tiny
        with pytest.raises(ValueError):
            HogwildRunner(build_mlp(), train, num_workers=0, steps_per_worker=1)
        with pytest.raises(ValueError):
            HogwildRunner(build_mlp(), train, num_workers=1, steps_per_worker=1, rule="nope")


class TestSharedWeightsShm:
    """storage='shared': same semantics, buffer in named shared memory."""

    def test_shared_storage_semantics_match_local(self):
        s = SharedWeights(np.ones(4, dtype=np.float32), use_lock=True, storage="shared")
        try:
            assert s.segment_name is not None
            s.sgd_update(np.full(4, 0.25, dtype=np.float32))
            np.testing.assert_allclose(s.snapshot(), 0.75)
            assert s.update_count == 1
            snap = s.snapshot()
            snap[...] = 9.0
            np.testing.assert_allclose(s.snapshot(), 0.75)
        finally:
            s.close()

    def test_elastic_interaction_in_shared_storage(self):
        s = SharedWeights(np.zeros(2, dtype=np.float32), use_lock=False, storage="shared")
        try:
            h = EASGDHyper(lr=0.05, rho=2.0)
            returned = s.elastic_interaction(np.ones(2, dtype=np.float32), h)
            np.testing.assert_array_equal(returned, 0.0)
            np.testing.assert_allclose(s.snapshot(), h.alpha)
            assert s.update_count == 1
        finally:
            s.close()

    def test_close_releases_segment_and_keeps_snapshot(self):
        s = SharedWeights(np.full(3, 2.0, dtype=np.float32), use_lock=True, storage="shared")
        s.close()
        np.testing.assert_array_equal(s.snapshot(), 2.0)  # local copy survives
        assert s.segment_name is None
        s.close()  # idempotent

    def test_invalid_storage_rejected(self):
        with pytest.raises(ValueError, match="storage"):
            SharedWeights(np.zeros(2, dtype=np.float32), use_lock=True, storage="mmap")

    def test_local_storage_has_no_segment(self):
        s = SharedWeights(np.zeros(2, dtype=np.float32), use_lock=True)
        assert s.storage == "local"
        assert s.segment_name is None


@pytest.mark.mp
class TestHogwildProcesses:
    """backend='processes': forked workers racing on one shm segment."""

    def test_all_workers_complete_and_weights_move(self, mnist_tiny):
        train, _ = mnist_tiny
        runner = HogwildRunner(
            build_mlp(seed=7), train, num_workers=3, steps_per_worker=5,
            rule="easgd", use_lock=True, batch_size=16, backend="processes",
        )
        start = runner.template.get_params().copy()
        res = runner.run()
        assert res.backend == "processes"
        assert res.steps_per_worker == [5] * 3
        assert res.total_steps == 15
        assert all(np.isfinite(l) for l in res.final_losses)
        assert not np.array_equal(res.final_weights, start)

    @pytest.mark.slow
    def test_lockfree_easgd_converges_across_processes(self, mnist_tiny):
        train, test = mnist_tiny
        res = HogwildRunner(
            build_mlp(seed=7), train, num_workers=4, steps_per_worker=40,
            rule="easgd", use_lock=False, batch_size=16, backend="processes",
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
        from repro.comm.shm_lifecycle import registered_segments

        _failing_gradient(monkeypatch, {"hogwild-w1"}, lambda: os._exit(3))
        t0 = time.monotonic()
        with pytest.raises(RemoteRankError) as ei:
            self._runner(mnist_tiny, "processes").run()
        assert time.monotonic() - t0 < 10.0
        failures = getattr(ei.value, "failures", {ei.value.rank: ei.value})
        assert "rank 1" in str(failures[1]) and "exitcode 3" in str(failures[1])
        assert registered_segments() == []
        mine = f"repro-{os.getpid()}-"
        assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] == []

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
