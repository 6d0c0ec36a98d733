"""repro — reproduction of "Scaling Deep Learning on GPU and Knights
Landing clusters" (You, Buluç, Demmel; SC'17).

Subpackages
-----------
``repro.nn``
    From-scratch NumPy DNN framework with a packed contiguous parameter
    buffer (the Section 5.2 single-layer layout).
``repro.data``
    Deterministic synthetic datasets with MNIST/CIFAR/ImageNet geometry.
``repro.optim``
    SGD, momentum SGD, and the EASGD update equations (Eqs 1-6).
``repro.comm``
    Alpha-beta cost model (Table 2), message packing, tree collectives.
``repro.cluster``
    Simulated devices (K80, M40, KNL, host CPU), platforms, event queue.
``repro.algorithms``
    All nine training algorithms of Sections 3, 5 and 6.
``repro.knl``
    KNL chip model, Section 6.2 chip partitioning, Algorithm 4 trainer.
``repro.hogwild``
    Real lock-free training (threads or processes) on a shared center.
``repro.faults``
    Deterministic fault schedules (crash/straggler/drop) + recovery.
``repro.durability``
    Crash-safe versioned checkpoints with bit-identical resume.
``repro.scaling``
    Table 4 weak-scaling models (ours vs Intel-Caffe-like).
``repro.harness``
    Experiment runners and table/figure regenerators.

Quick start::

    from repro.data import make_mnist_like
    from repro.nn import build_lenet
    from repro.algorithms import TrainerConfig
    from repro.harness import ExperimentSpec, run_method

    train, test = make_mnist_like(seed=0)
    spec = ExperimentSpec(train, test, build_lenet).normalize()
    result = run_method(spec, "sync-easgd3", iterations=200)
    print(result.final_accuracy, result.sim_time)
"""

from repro.algorithms import ALGORITHMS, make_trainer, TrainerConfig
from repro.cluster import CostModel, GpuPlatform, KnlPlatform
from repro.comm.runtime import DeadlockError
from repro.durability import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    NoCheckpointError,
)
from repro.faults import AllWorkersCrashedError, FaultError, FaultLog, FaultPlan
from repro.harness import ExperimentSpec, run_method, run_methods

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ALGORITHMS",
    "TrainerConfig",
    "make_trainer",
    "CostModel",
    "GpuPlatform",
    "KnlPlatform",
    "ExperimentSpec",
    "run_method",
    "run_methods",
    "FaultPlan",
    "FaultLog",
    "FaultError",
    "AllWorkersCrashedError",
    "DeadlockError",
    "CheckpointManager",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "NoCheckpointError",
]
