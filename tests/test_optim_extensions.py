"""Optimizer extensions: weight decay, Nesterov, gradient clipping,
pipelined transfers, hyperparameter sweeps, fault injection."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.algorithms import make_trainer, TrainerConfig
from repro.cluster import CostModel, GpuPlatform
from repro.comm.alphabeta import LinkModel, PCIE_SWITCH_P2P
from repro.comm.collectives import tree_cost
from repro.comm.pipelining import optimal_chunks, pipelined_hops_cost, pipelined_tree_bcast_cost
from repro.faults import FaultPlan
from repro.harness.experiment import ExperimentSpec
from repro.harness.sweeps import best_point, grid_sweep
from repro.nn.models import build_mlp
from repro.nn.spec import ALEXNET, LENET
from repro.optim import MomentumRule, SGDRule


class TestWeightDecay:
    def test_sgd_decay_shrinks_weights(self):
        p = np.ones(8, dtype=np.float32)
        SGDRule(lr=0.1, weight_decay=0.5).apply(p, np.zeros(8, dtype=np.float32))
        np.testing.assert_allclose(p, 1.0 - 0.1 * 0.5)

    def test_zero_decay_matches_plain(self):
        p1, p2 = np.ones(4, dtype=np.float32), np.ones(4, dtype=np.float32)
        g = np.full(4, 0.3, dtype=np.float32)
        SGDRule(lr=0.1).apply(p1, g)
        SGDRule(lr=0.1, weight_decay=0.0).apply(p2, g)
        np.testing.assert_array_equal(p1, p2)

    def test_momentum_decay(self):
        p = np.ones(4, dtype=np.float32)
        rule = MomentumRule(lr=0.1, mu=0.0, weight_decay=1.0)
        rule.apply(p, np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(p, 0.9)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            SGDRule(lr=0.1, weight_decay=-1.0)


class TestNesterov:
    def test_first_step_double_counts_gradient(self):
        """Nesterov's first step: W += mu*(-lr g) - lr g with V0 = 0."""
        p = np.zeros(2, dtype=np.float32)
        g = np.ones(2, dtype=np.float32)
        MomentumRule(lr=0.1, mu=0.5, nesterov=True).apply(p, g)
        np.testing.assert_allclose(p, -(0.5 * 0.1 + 0.1))

    def test_mu_zero_matches_plain_sgd(self):
        p1, p2 = np.ones(4, dtype=np.float32), np.ones(4, dtype=np.float32)
        g = np.full(4, 0.2, dtype=np.float32)
        MomentumRule(lr=0.1, mu=0.0, nesterov=True).apply(p1, g)
        SGDRule(lr=0.1).apply(p2, g)
        np.testing.assert_allclose(p1, p2, rtol=1e-6)


class TestPipelining:
    def test_one_chunk_matches_plain(self):
        link = PCIE_SWITCH_P2P
        plain = 3 * link.cost(10**6)
        assert pipelined_hops_cost(link, 10**6, depth=3, chunks=1) == pytest.approx(plain)

    def test_pipelining_beats_plain_for_large_buffers(self):
        link = PCIE_SWITCH_P2P
        n = ALEXNET.nbytes
        plain = tree_cost(link, n, 8)
        piped = pipelined_tree_bcast_cost(link, n, 8)
        assert piped < plain

    def test_single_rank_free(self):
        assert pipelined_tree_bcast_cost(PCIE_SWITCH_P2P, 10**6, 1) == 0.0

    def test_optimal_chunks_is_locally_optimal(self):
        link = PCIE_SWITCH_P2P
        n, depth = 50_000_000, 4
        c = optimal_chunks(link, n, depth)
        best = pipelined_hops_cost(link, n, depth, c)
        for other in (c - 1, c + 1):
            if other >= 1:
                assert best <= pipelined_hops_cost(link, n, depth, other) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(10**4, 10**9),
        depth=st.integers(2, 8),
        chunks=st.integers(1, 64),
    )
    def test_optimal_never_worse_than_arbitrary(self, n, depth, chunks):
        link = LinkModel("t", alpha=1e-4, beta=1e-10)
        c = optimal_chunks(link, n, depth)
        assert pipelined_hops_cost(link, n, depth, c) <= pipelined_hops_cost(
            link, n, depth, chunks
        ) * (1 + 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            pipelined_hops_cost(PCIE_SWITCH_P2P, 100, depth=0, chunks=1)
        with pytest.raises(ValueError):
            pipelined_hops_cost(PCIE_SWITCH_P2P, 100, depth=1, chunks=0)


class TestSweeps:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.data import make_mnist_like, standardize, standardize_like

        train, test = make_mnist_like(n_train=256, n_test=128, seed=88, difficulty=0.8)
        mean, std = standardize(train)
        standardize_like(test, mean, std)
        return ExperimentSpec(
            train_set=train,
            test_set=test,
            model_builder=lambda: build_mlp(seed=2),
            num_gpus=2,
            config=TrainerConfig(batch_size=16, lr=0.03, rho=2.0, eval_every=10, eval_samples=128),
            cost_model=CostModel.from_spec(LENET),
            normalized=True,
        )

    def test_grid_covers_product(self, spec):
        points = grid_sweep(spec, "sync-easgd3", {"lr": [0.01, 0.05], "rho": [1.0, 2.0]}, 20)
        assert len(points) == 4
        combos = {(p.params["lr"], p.params["rho"]) for p in points}
        assert combos == {(0.01, 1.0), (0.01, 2.0), (0.05, 1.0), (0.05, 2.0)}

    def test_best_point_by_accuracy(self, spec):
        points = grid_sweep(spec, "sync-easgd3", {"lr": [0.001, 0.05]}, 30)
        winner = best_point(points)
        assert winner.params["lr"] == 0.05  # 0.001 barely moves in 30 iters

    def test_best_point_by_target(self, spec):
        points = grid_sweep(spec, "sync-easgd3", {"lr": [0.001, 0.05]}, 30)
        winner = best_point(points, target=0.5)
        assert winner.params["lr"] == 0.05

    def test_unknown_field_rejected(self, spec):
        with pytest.raises(KeyError):
            grid_sweep(spec, "sync-easgd3", {"warp_factor": [9.0]}, 5)

    def test_empty_grid_rejected(self, spec):
        with pytest.raises(ValueError):
            grid_sweep(spec, "sync-easgd3", {}, 5)
        with pytest.raises(ValueError):
            grid_sweep(spec, "sync-easgd3", {"lr": []}, 5)

    def test_best_point_requires_points(self):
        with pytest.raises(ValueError):
            best_point([])


class TestFaultInjection:
    def _trainer(self, mnist_tiny, crashes):
        """``crashes`` maps a worker to the simulated instant it fail-stops."""
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, lr=0.02, rho=2.0, eval_every=20, eval_samples=128)
        plan = FaultPlan(seed=cfg.seed) if crashes else None
        for worker, when in crashes.items():
            plan.crash(worker, when)
        return make_trainer(
            "async-easgd",
            build_mlp(seed=1),
            train,
            test,
            GpuPlatform(num_gpus=4, seed=0),
            cfg,
            CostModel.from_spec(LENET),
            faults=plan,
        )

    def test_survives_one_dead_worker(self, mnist_tiny):
        """The cloud-robustness motivation: async EASGD keeps converging
        after a fail-stop worker loss."""
        res = self._trainer(mnist_tiny, {2: 0.01}).train(150)
        assert res.final_accuracy > 0.7
        assert res.extras["failed_worker_events_dropped"] >= 1

    def test_no_failures_drops_nothing(self, mnist_tiny):
        res = self._trainer(mnist_tiny, {}).train(60)
        assert res.extras["failed_worker_events_dropped"] == 0

    def test_all_workers_dead_raises_gracefully(self, mnist_tiny):
        from repro.faults import AllWorkersCrashedError

        with pytest.raises(AllWorkersCrashedError, match="crashed before any"):
            self._trainer(mnist_tiny, {j: 1e-9 for j in range(4)}).train(100)

    def test_validation(self, mnist_tiny):
        with pytest.raises(ValueError, match="targets worker 9"):
            self._trainer(mnist_tiny, {9: 1.0})
        with pytest.raises(ValueError, match=r"crash\(worker=0\)"):
            self._trainer(mnist_tiny, {0: -1.0})
        # A failure time of exactly 0.0 used to be accepted silently.
        with pytest.raises(ValueError, match=r"crash\(worker=1\)"):
            self._trainer(mnist_tiny, {1: 0.0})
