"""The paper's distributed training algorithms (Sections 3, 5, 6).

Existing methods reproduced as baselines: Original EASGD (round-robin,
Algorithm 1), Async SGD (parameter server), Async MSGD, Hogwild SGD.
The paper's methods: Async EASGD, Async MEASGD, Hogwild EASGD, and
Sync EASGD1/2/3 (Algorithms 2-4), plus Sync SGD for the packed-layer study.
Every asynchronous method is one ``PS_FAMILIES`` row run by the one
``AsyncPSTrainer``; build any method by name through :data:`ALGORITHMS`
or :func:`make_trainer`.
"""

from repro.algorithms.base import RunResult, TimeBreakdown, TrainerConfig, TrainRecord
from repro.algorithms.launch import MpiResult
from repro.algorithms.mpi_async_easgd import run_mpi_async_easgd
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.algorithms.multinode import ClusterSyncEASGDTrainer
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.registry import (
    ALGORITHM_INFO,
    AlgorithmInfo,
    ALGORITHMS,
    make_trainer,
    UnsupportedOptionError,
)
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer

__all__ = [
    "TrainerConfig",
    "TrainRecord",
    "RunResult",
    "TimeBreakdown",
    "OriginalEASGDTrainer",
    "SyncEASGDTrainer",
    "SyncSGDTrainer",
    "ClusterSyncEASGDTrainer",
    "MpiResult",
    "run_mpi_sync_sgd",
    "run_mpi_sync_easgd",
    "run_mpi_async_easgd",
    "ALGORITHM_INFO",
    "ALGORITHMS",
    "AlgorithmInfo",
    "make_trainer",
    "UnsupportedOptionError",
]
