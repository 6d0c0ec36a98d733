"""Shared fixtures for the paper-reproduction benchmarks.

Every ``bench_*`` file regenerates one table or figure of the paper's
evaluation section, with two exceptions that time this host instead:
``bench_serving.py`` (the serving tier, which the spine has no cell for)
and ``bench_micro_substrate.py`` (substrate micro-benchmarks, Hogwild
included); every other host measurement is ``benchmarks/spine/``. The
experiments run real training on synthetic data with mini models while
charging the simulated clock for the paper-scale models (see DESIGN.md
section 5 and EXPERIMENTS.md); the assertions check the *shape* of each
result — who wins, by roughly what factor — not the absolute seconds.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel
from repro.data import make_cifar_like, make_mnist_like
from repro.harness import ExperimentSpec
from repro.nn.models import build_alexnet_mini, build_lenet
from repro.nn.spec import ALEXNET, LENET

#: The paper trains MNIST/LeNet to 98.8%; on our synthetic MNIST-like set
#: the comparable "hard but reachable" target is 95%.
MNIST_TARGET = 0.95

#: The paper's Figure 12 target on CIFAR/AlexNet is 62.5%.
CIFAR_TARGET = 0.625


@pytest.fixture(scope="session")
def mnist_spec() -> ExperimentSpec:
    """The Figure 6/8 + Table 3 platform: LeNet, MNIST-like, 4 GPUs.

    Numerics: mini LeNet (20 k params). Clock: full-scale LeNet (431 k
    params, Table 3's message sizes).
    """
    train, test = make_mnist_like(n_train=4096, n_test=1024, seed=101, difficulty=1.6)
    spec = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_lenet(seed=7),
        num_gpus=4,
        config=TrainerConfig(
            batch_size=32, lr=0.03, rho=2.0, seed=0, eval_every=25, eval_samples=512
        ),
        cost_model=CostModel.from_spec(LENET),
    )
    return spec.normalize()


@pytest.fixture(scope="session")
def cifar_spec() -> ExperimentSpec:
    """The Figure 10/12 platform: AlexNet-style net, CIFAR-like data.

    Numerics: mini AlexNet (81 k params). Clock: full-scale AlexNet
    (61 M params / 249 MB — the size Section 6.1 quotes).
    """
    train, test = make_cifar_like(n_train=4096, n_test=1024, seed=102, difficulty=1.4)
    spec = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_alexnet_mini(seed=9),
        num_gpus=4,
        config=TrainerConfig(
            batch_size=32, lr=0.04, rho=2.0, seed=0, eval_every=25, eval_samples=512
        ),
        cost_model=CostModel.from_spec(ALEXNET),
    )
    return spec.normalize()


@pytest.fixture(scope="session")
def fault_artifact_path() -> Path:
    """Where the fault-tolerance benchmark archives its JSON sweep.

    ``benchmarks/artifacts/`` is created on demand; the file it returns is
    the raw material for the robustness degradation curve in
    ``docs/robustness.md``.
    """
    out = Path(__file__).parent / "artifacts"
    out.mkdir(exist_ok=True)
    return out / "fault_tolerance.json"


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
