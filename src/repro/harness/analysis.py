"""Trajectory analytics: the quantities EXPERIMENTS.md reports.

Run trajectories are step functions of simulated time; these helpers read
the best accuracy reached by a given time (Figure 13's fixed-time cut) and
the accuracy-vs-fault-rate curve of the fault-tolerance benchmark.
"""

from __future__ import annotations

from typing import Mapping, Tuple

import numpy as np

from repro.algorithms.base import RunResult

__all__ = ["accuracy_at_time", "fault_rate_curve"]


def _series(result: RunResult) -> Tuple[np.ndarray, np.ndarray]:
    times, accs = result.series()
    if times.size == 0:
        raise ValueError(f"run {result.method!r} has no trajectory records")
    return times, accs


def accuracy_at_time(result: RunResult, t: float) -> float:
    """Best accuracy observed at or before simulated time ``t`` (0 before
    the first record)."""
    times, accs = _series(result)
    mask = times <= t
    if not mask.any():
        return 0.0
    return float(np.maximum.accumulate(accs)[mask][-1])


def fault_rate_curve(
    results_by_rate: Mapping[float, RunResult],
) -> Tuple[np.ndarray, np.ndarray]:
    """Accuracy-vs-fault-rate curve from a sweep keyed by fault rate.

    Returns sorted ``(rates, final_accuracies)`` arrays — the robustness
    figure-of-merit the fault-tolerance benchmark plots: how gracefully a
    method's converged accuracy degrades as the message-drop (or crash)
    rate grows.
    """
    if not results_by_rate:
        raise ValueError("results_by_rate must not be empty")
    rates = np.array(sorted(results_by_rate), dtype=float)
    accs = np.array([results_by_rate[r].final_accuracy for r in rates])
    return rates, accs
