"""The asynchronous rank program's shared center, locked and lock-free.

Every ``PS_RUNNER_METHODS`` row runs on a center in the cell's arena:
one worker is the simulated row byte for byte; the center's master
updates are the row's stores; lock-free workers race (Hogwild) and still
converge; a worker that raises aborts its cell at once.
"""

import os
import time

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.algorithms.ps_runner import PS_RUNNER_METHODS, run_mpi_ps, TAG_TURN
from repro.comm.shm_lifecycle import registered_segments
from repro.engine.ps import ElasticCenterStore, SgdServerStore
from repro.harness.experiment import ExperimentSpec, build_trainer
from repro.nn.models import build_mlp
from repro.optim.easgd import EASGDHyper
from repro.pool import WorkerPool


def _no_segment_left():
    mine = f"repro-{os.getpid()}-"
    assert registered_segments() == []
    assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] == []


def _run(mnist_tiny, method="hogwild-easgd", workers=4, iterations=15, **kw):
    """``workers`` ranks of ``method`` at batch 16 (``ranks`` counts the
    center's slot)."""
    return run_mpi_ps(method, build_mlp(seed=7), mnist_tiny[0], ranks=workers + 1,
                      iterations=iterations, batch_size=16, **kw)


def _accuracy(mnist_tiny, res):
    net = build_mlp(seed=7)
    net.set_params(res.center)
    return net.evaluate(mnist_tiny[1].images, mnist_tiny[1].labels)


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
        assert reply is s.weights  # live: the worker pulls it before the next serve

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
@pytest.mark.parametrize("method", sorted(PS_RUNNER_METHODS))
def test_one_worker_is_the_simulated_row(mnist_tiny, method, backend):
    """With nothing to race or wait for, the shared center runs the row's
    sequence (local pass, serve, apply) on the simulator's sampler: same
    bits."""
    res = _run(mnist_tiny, method, workers=1, iterations=ONE_WORKER_STEPS,
               lr=0.05, rho=2.0, seed=0, backend=backend)
    center = _simulated_center(mnist_tiny, method, ONE_WORKER_STEPS)
    assert res.center.tobytes() == center.tobytes()


class TestAsyncRankProgram:
    """Every worker serves at the shared center: a locked row's in turn, a
    lock-free row's racing."""

    def test_all_workers_complete(self, mnist_tiny):
        res = _run(mnist_tiny)
        assert len(res.worker_weights) == 4
        assert len(res.mean_losses) == 15
        assert all(np.isfinite(res.mean_losses))

    def test_lockfree_easgd_converges(self, mnist_tiny):
        """The paper's Hogwild EASGD claim: lock-free elastic averaging still
        trains — verified with genuine racing threads."""
        res = _run(mnist_tiny, "hogwild-easgd", iterations=40)
        assert _accuracy(mnist_tiny, res) > 0.6

    def test_lockfree_sgd_converges(self, mnist_tiny):
        res = _run(mnist_tiny, "hogwild-sgd", iterations=40, lr=0.02)
        assert _accuracy(mnist_tiny, res) > 0.6

    def test_locked_matches_quality(self, mnist_tiny):
        res = _run(mnist_tiny, "async-easgd", iterations=40)
        assert _accuracy(mnist_tiny, res) > 0.6

    def test_validation(self, mnist_tiny):
        with pytest.raises(ValueError, match="at least 2 ranks"):
            _run(mnist_tiny, workers=0)
        with pytest.raises(ValueError, match="'nope'"):
            _run(mnist_tiny, "nope")

    @pytest.mark.parametrize("option", [{"rule": "sgd"}, {"use_lock": True}])
    def test_rule_and_lock_are_not_options(self, mnist_tiny, option):
        """The row decides both: the update rule and whether workers take turns."""
        with pytest.raises(TypeError):
            _run(mnist_tiny, **option)

    @pytest.mark.parametrize("method", ["async-msgd", "sync-easgd"])
    def test_unsupported_method_refused_before_any_rank_starts(
            self, mnist_tiny, monkeypatch, method):
        def no_launch(*args, **kwargs):
            raise AssertionError("a rank launched")

        monkeypatch.setattr("repro.algorithms.launch.make_communicator", no_launch)
        with pytest.raises(ValueError, match=f"'{method}'"):
            _run(mnist_tiny, method, backend="processes")


def _poison_center(ctx, elems):
    """A prior cell's bits in the pooled arena row the next cell's center reuses."""
    ctx.shared_row(TAG_TURN, elems).fill(np.nan)


@pytest.mark.mp
class TestHogwildProcesses:
    """backend='processes': forked workers racing on one arena segment."""

    def test_all_workers_complete_and_weights_move(self, mnist_tiny):
        start = build_mlp(seed=7).get_params()
        res = _run(mnist_tiny, "async-easgd", workers=3, iterations=5,
                   backend="processes")
        assert len(res.worker_weights) == 3
        assert len(res.mean_losses) == 5
        assert all(np.isfinite(res.mean_losses))
        assert not np.array_equal(res.center, start)

    @pytest.mark.parametrize("method", sorted(PS_RUNNER_METHODS))
    def test_run_leaves_no_segment(self, mnist_tiny, method):
        _run(mnist_tiny, method, workers=2, iterations=3, backend="processes")
        _no_segment_left()

    @pytest.mark.slow
    def test_lockfree_easgd_converges_across_processes(self, mnist_tiny):
        res = _run(mnist_tiny, "hogwild-easgd", iterations=40, backend="processes")
        assert _accuracy(mnist_tiny, res) > 0.6

    def test_invalid_backend_rejected(self, mnist_tiny):
        with pytest.raises(ValueError, match="backend"):
            _run(mnist_tiny, workers=1, iterations=1, backend="greenlets")

    @pytest.mark.parametrize("method", ["hogwild-sgd", "hogwild-easgd"])
    def test_a_stale_pooled_center_is_seeded_before_anyone_serves(self, mnist_tiny, method):
        """A pooled arena keeps the last cell's bits: worker 0 seeds the
        center and releases its peers before any of them serves, so NaN
        left there never reaches a racing worker."""
        elems = build_mlp(seed=7).get_params().size
        with WorkerPool(3) as pool:
            pool.run(3, _poison_center, elems)
            res = _run(mnist_tiny, method, workers=3, iterations=3,
                       backend="processes", pool=pool)
        assert np.isfinite(res.center).all()
        assert all(np.isfinite(w).all() for w in res.worker_weights)
        _no_segment_left()


def _failing_gradient(monkeypatch, workers, fail):
    """Patch ``Network.gradient`` (before the launch, so a fork inherits
    it) to ``fail()`` on the first step of the named workers: before any
    of them waits for a peer, so each one named surely raises."""
    from repro.nn.network import Network

    gradient = Network.gradient

    def patched(self, *args):
        if self.name in workers:
            fail()
        return gradient(self, *args)

    monkeypatch.setattr(Network, "gradient", patched)


#: A row whose workers take turns, and one whose workers never wait.
FAILURE_ROWS = ("async-easgd", "hogwild-easgd")


@pytest.mark.mp
class TestHogwildFailures:
    """A worker that raises aborts its cell: its peers stop at once, and the
    same aggregation names it on both backends; a hard death is named at
    once."""

    def _run(self, mnist_tiny, method, backend):
        return _run(mnist_tiny, method, workers=3, iterations=30, timeout=10.0,
                    backend=backend)

    def test_worker_that_dies_hard_is_named_at_once(self, mnist_tiny, monkeypatch):
        from repro.comm.mp_runtime import RemoteRankError

        _failing_gradient(monkeypatch, {"ps-w1"}, lambda: os._exit(3))
        for method in FAILURE_ROWS:
            t0 = time.monotonic()
            with pytest.raises(RemoteRankError) as ei:
                self._run(mnist_tiny, method, "processes")
            assert time.monotonic() - t0 < 10.0
            failures = getattr(ei.value, "failures", {ei.value.rank: ei.value})
            assert "rank 1" in str(failures[1]) and "exitcode 3" in str(failures[1])
            _no_segment_left()

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("failing", [(1,), (0, 2)])
    def test_exceptions_aggregate_alike_on_both_backends(
            self, mnist_tiny, monkeypatch, failing, backend):
        """Only the ranks that raised are failures: a peer stopped by the
        abort is not, so a lone failure travels as itself, long before the
        10 s receive timeout."""
        from repro.comm.runtime import MultiRankError

        def boom():
            raise ValueError("boom")

        _failing_gradient(monkeypatch, {f"ps-w{r}" for r in failing}, boom)
        for method in FAILURE_ROWS:
            t0 = time.monotonic()
            with pytest.raises(ValueError, match="boom") as ei:
                self._run(mnist_tiny, method, backend)
            assert time.monotonic() - t0 < 1.0, method
            if len(failing) == 1:
                assert type(ei.value) is ValueError  # a lone failure travels as itself
            else:
                assert isinstance(ei.value, MultiRankError)
                assert set(ei.value.failures) == set(failing)
            if backend == "processes":
                _no_segment_left()
