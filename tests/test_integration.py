"""Cross-module integration: the paper's qualitative claims, end to end.

These tests run real training through the full stack (data -> nn ->
algorithms -> cluster timing -> harness) and assert the *shape* results the
reproduction is supposed to preserve.
"""

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel
from repro.data import make_mnist_like
from repro.harness import ExperimentSpec, run_method, run_methods
from repro.nn.models import build_lenet, build_mlp
from repro.nn.spec import LENET


@pytest.fixture(scope="module")
def spec():
    train, test = make_mnist_like(n_train=1024, n_test=384, seed=41, difficulty=1.0)
    s = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_mlp(seed=13),
        num_gpus=4,
        config=TrainerConfig(batch_size=16, lr=0.02, rho=2.0, eval_every=25, eval_samples=256),
        cost_model=CostModel.from_spec(LENET),
    )
    return s.normalize()


class TestEveryMethodLearns:
    @pytest.mark.parametrize(
        "method",
        [
            "original-easgd",
            "async-sgd",
            "hogwild-sgd",
            "async-easgd",
            "async-measgd",
            "hogwild-easgd",
            "sync-easgd3",
            "sync-sgd",
            "downpour",
            "adag",
            "eamsgd",
            "gossip-sgd",
            "bounded-async-easgd",
        ],
    )
    def test_method_learns(self, spec, method, request):
        res = run_method(spec, method, iterations=200)
        assert res.final_accuracy > 0.6, f"{method} stuck at {res.final_accuracy}"


class TestPaperClaims:
    def test_sync_easgd_beats_original_easgd_in_time(self, spec):
        """Figure 6.4 / Table 3: Sync EASGD reaches accuracy sooner."""
        target = 0.7
        orig = run_method(spec, "original-easgd", target_accuracy=target, max_iterations=600)
        sync = run_method(spec, "sync-easgd3", target_accuracy=target, max_iterations=600)
        assert sync.reached_target
        if orig.reached_target:
            assert sync.sim_time < orig.sim_time

    def test_hogwild_easgd_beats_hogwild_sgd_in_time(self, spec):
        """Figure 6.3's shape (time axis, same interactions)."""
        a = run_method(spec, "hogwild-easgd", iterations=200)
        b = run_method(spec, "hogwild-sgd", iterations=200)
        assert a.sim_time < b.sim_time

    def test_async_easgd_beats_async_sgd_in_time(self, spec):
        """Figure 6.1's shape."""
        a = run_method(spec, "async-easgd", iterations=200)
        b = run_method(spec, "async-sgd", iterations=200)
        assert a.sim_time < b.sim_time

    def test_comm_ratio_drops_original_to_sync3(self, spec):
        """The headline 87% -> 14%."""
        orig = run_method(spec, "original-easgd", iterations=40)
        sync3 = run_method(spec, "sync-easgd3", iterations=40)
        assert orig.breakdown.comm_ratio > 0.6
        assert sync3.breakdown.comm_ratio < 0.3

    def test_sync_variants_deterministic_and_ordered(self, spec):
        """Sync EASGD1/2/3: same numerics, strictly improving clocks."""
        out = run_methods(spec, ["sync-easgd1", "sync-easgd2", "sync-easgd3"], iterations=30)
        accs = {m: [r.test_accuracy for r in res.records] for m, res in out.items()}
        assert accs["sync-easgd1"] == accs["sync-easgd2"] == accs["sync-easgd3"]
        assert (
            out["sync-easgd1"].sim_time
            > out["sync-easgd2"].sim_time
            > out["sync-easgd3"].sim_time
        )

    def test_packed_beats_unpacked(self, spec):
        """Figure 10's shape."""
        packed = run_method(spec, "sync-sgd", iterations=30)
        unpacked = run_method(spec, "sync-sgd-unpacked", iterations=30)
        assert packed.sim_time < unpacked.sim_time
        # identical numerics
        assert [r.test_accuracy for r in packed.records] == [
            r.test_accuracy for r in unpacked.records
        ]


class TestFailureInjection:
    def test_stragglers_hurt_round_robin_more_than_fcfs(self):
        """A slow worker blocks a round-robin master every G-th turn but an
        async FCFS master only when that worker happens to arrive."""
        train, test = make_mnist_like(n_train=512, n_test=128, seed=43, difficulty=0.8)
        base_cfg = TrainerConfig(batch_size=16, lr=0.02, rho=2.0, eval_every=50)

        def run(jitter):
            s = ExperimentSpec(
                train_set=train,
                test_set=test,
                model_builder=lambda: build_mlp(seed=17),
                num_gpus=4,
                config=base_cfg,
                cost_model=CostModel.from_spec(LENET),
                jitter_sigma=jitter,
            )
            s.normalized = True  # reuse without re-normalizing shared arrays
            orig = run_method(s, "original-easgd", iterations=100)
            asgd = run_method(s, "async-easgd", iterations=100)
            return orig.sim_time, asgd.sim_time

        orig_lo, asgd_lo = run(0.01)
        orig_hi, asgd_hi = run(0.6)
        orig_slowdown = orig_hi / orig_lo
        asgd_slowdown = asgd_hi / asgd_lo
        assert orig_slowdown > 0.9  # jitter costs something
        # FCFS absorbs stragglers better than the ordered round-robin.
        assert asgd_slowdown <= orig_slowdown * 1.1

    def test_lenet_on_mnist_geometry_end_to_end(self, spec):
        """Full conv path: LeNet (not MLP) through a sync trainer."""
        train, test = make_mnist_like(n_train=512, n_test=128, seed=44, difficulty=0.8)
        s = ExperimentSpec(
            train_set=train,
            test_set=test,
            model_builder=lambda: build_lenet(seed=19),
            num_gpus=2,
            config=TrainerConfig(batch_size=16, lr=0.05, rho=2.0, eval_every=20, eval_samples=128),
        )
        s.normalize()
        res = run_method(s, "sync-easgd3", iterations=60)
        assert res.final_accuracy > 0.8
