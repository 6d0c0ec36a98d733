"""Integration of the trajectory-analysis tools with real training runs."""

import pytest

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel
from repro.data import make_mnist_like
from repro.harness import accuracy_at_time, ExperimentSpec, run_method
from repro.nn.models import build_mlp
from repro.nn.spec import LENET


@pytest.fixture(scope="module")
def runs():
    train, test = make_mnist_like(n_train=1024, n_test=384, seed=51, difficulty=1.2)
    spec = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_mlp(seed=23),
        num_gpus=4,
        config=TrainerConfig(batch_size=16, lr=0.02, rho=2.0, eval_every=20, eval_samples=256),
        cost_model=CostModel.from_spec(LENET),
    ).normalize()
    return {"sync": run_method(spec, "sync-easgd3", iterations=120)}


class TestAnalysisOnRealRuns:
    def test_accuracy_at_time_monotone_envelope(self, runs):
        res = runs["sync"]
        ts = [0.0, res.sim_time / 2, res.sim_time]
        vals = [accuracy_at_time(res, t) for t in ts]
        assert vals[0] <= vals[1] <= vals[2]
