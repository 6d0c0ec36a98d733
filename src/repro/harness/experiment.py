"""The standard experiment runner: one spec, many methods, fair comparison.

The paper's protocol (Section 2.4): "All algorithmic comparisons used the
same hardware and the same hyper-parameters." An :class:`ExperimentSpec`
pins dataset, model builder, platform shape, hyperparameters, and the cost
model once; ``run_method(s)`` then instantiates each trainer from the same
frozen ingredients so no method sees different data or constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

from repro.algorithms.base import RunResult, TrainerConfig
from repro.algorithms.registry import make_trainer
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.data.dataset import Dataset
from repro.data.normalize import standardize, standardize_like
from repro.nn.network import Network

__all__ = ["ExperimentSpec", "build_trainer", "run_method", "run_methods"]


@dataclass
class ExperimentSpec:
    """Everything an algorithm comparison holds fixed."""

    train_set: Dataset
    test_set: Dataset
    model_builder: Callable[[], Network]  # fresh identical model per method
    num_gpus: int = 4
    config: TrainerConfig = field(default_factory=TrainerConfig)
    cost_model: Optional[CostModel] = None  # None -> self-consistent costing
    jitter_sigma: float = 0.08
    normalized: bool = False

    def normalize(self) -> "ExperimentSpec":
        """Apply Algorithm 1 line 1 once (idempotent): train-set statistics."""
        if not self.normalized:
            mean, std = standardize(self.train_set)
            standardize_like(self.test_set, mean, std)
            self.normalized = True
        return self

    def make_platform(self) -> GpuPlatform:
        """A fresh platform so per-worker jitter streams restart identically."""
        return GpuPlatform(
            num_gpus=self.num_gpus,
            jitter_sigma=self.jitter_sigma,
            seed=self.config.seed,
        )


def build_trainer(spec: ExperimentSpec, method: str, **trainer_kwargs):
    """Instantiate the trainer for ``method`` from the frozen spec.

    The spin-up half of :func:`run_method`: fresh model, fresh platform
    (identical jitter streams), shared datasets. Split out so sweep
    drivers can time construction separately from the training loop.
    """
    return make_trainer(
        method,
        spec.model_builder(),
        spec.train_set,
        spec.test_set,
        spec.make_platform(),
        spec.config,
        spec.cost_model,
        **trainer_kwargs,
    )


def run_method(
    spec: ExperimentSpec,
    method: str,
    iterations: Optional[int] = None,
    target_accuracy: Optional[float] = None,
    max_iterations: int = 20_000,
    resume: bool = False,
    snapshotter=None,
    **trainer_kwargs,
) -> RunResult:
    """Run one registered method under the spec.

    Exactly one of ``iterations`` (fixed-length run) or ``target_accuracy``
    (Table 3 protocol: run until the target, report truncated time) must be
    given. ``resume=True`` continues a fixed-length run from the newest
    checkpoint under ``spec.config.checkpoint_dir``. ``snapshotter``
    attaches a serving-tier publisher to a fixed-length run.
    """
    if (iterations is None) == (target_accuracy is None):
        raise ValueError("pass exactly one of iterations / target_accuracy")
    if snapshotter is not None and iterations is None:
        raise ValueError("snapshotter requires a fixed-length run")
    trainer = build_trainer(spec, method, **trainer_kwargs)
    if iterations is not None:
        return trainer.train(iterations, resume=resume, snapshotter=snapshotter)
    if resume:
        raise ValueError("resume is only supported with fixed-length runs")
    return trainer.train_to_accuracy(target_accuracy, max_iterations)


def _method_cell_main(
    ctx,
    spec: ExperimentSpec,
    method: str,
    iterations: Optional[int],
    target_accuracy: Optional[float],
    max_iterations: int,
) -> RunResult:
    """One method comparison as a sweep cell (``ctx`` unused: the
    registered trainers are engine-driven, not message-passing)."""
    return run_method(spec, method, iterations, target_accuracy, max_iterations)


def run_methods(
    spec: ExperimentSpec,
    methods: Iterable[str],
    iterations: Optional[int] = None,
    target_accuracy: Optional[float] = None,
    max_iterations: int = 20_000,
    pool_size: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Run several methods under identical conditions; keyed by method name.

    ``pool_size`` runs the methods as concurrent 1-rank cells on a pool of
    that many workers instead of sequentially — same per-method numerics
    (each cell builds its own trainer from the frozen spec), sweep-level
    wall-clock only. Call ``spec.normalize()`` first: the pool's workers
    inherit the spec as it is when they fork. This is the sweep runner of
    :mod:`repro.harness.sweeps`, so a failing method lets the others
    finish before its error is raised.
    """
    from repro.harness.sweeps import _run_cells  # sweeps imports this module

    methods = list(methods)
    runs = _run_cells(
        spec, _method_cell_main,
        [(m, iterations, target_accuracy, max_iterations) for m in methods],
        pool_size,
    )
    return {m: result for m, (result, _, _) in zip(methods, runs)}
