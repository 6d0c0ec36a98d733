"""Hyperparameter sweeps — the workload the paper's introduction motivates.

"Deep learning researchers often need to tune many hyperparameters, which
is extremely time-consuming" (Section 1) — that is exactly why the
Θ(log P) Sync EASGD matters. This module runs a grid of (lr, rho, ...)
configurations through one method under the fair-comparison protocol and
ranks the outcomes.

Every sweep — :func:`grid_sweep` and
:func:`repro.harness.experiment.run_methods` — runs its cells through one
runner, :func:`_run_cells`:

- **inline** (the default): every cell builds and trains its trainer in
  this process, sequentially — the cold baseline.
- **pooled** (``pool_size=P``): every cell is a 1-rank job on a
  :class:`repro.pool.WorkerPool` of ``P`` workers that the runner builds
  around the spec (fork-inherited) and closes — spin-up (fork, shm
  arenas) is paid once per worker instead of once per cell, with
  bit-identical per-cell results.

Either way a failing cell lets the others finish before its error is
raised, and ``grid_sweep(checkpoint_root=)`` resumes finished cells from
their done-markers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import itertools
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RunResult
from repro.harness.experiment import ExperimentSpec, build_trainer

__all__ = ["SweepPoint", "grid_sweep", "best_point"]


@dataclass
class SweepPoint:
    """One grid cell's configuration and outcome."""

    params: Dict[str, float]
    result: RunResult
    #: Wall seconds from cell dispatch to completion (build + train).
    wall_time: float = 0.0
    #: Seconds of pure spin-up inside ``wall_time``: dispatch/fork latency
    #: plus trainer construction — the share a persistent pool amortizes.
    spinup_time: float = 0.0
    #: True when the point was loaded from a done-marker a previous run of
    #: the same sweep left under ``checkpoint_root``.
    resumed: bool = False

    @property
    def final_accuracy(self) -> float:
        return self.result.final_accuracy

    def time_to(self, target: float) -> Optional[float]:
        return self.result.time_to_accuracy(target)


def _cell_key(params: Dict[str, Any]) -> str:
    """A stable, human-readable identity for one grid cell."""
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _swept_spec(spec: ExperimentSpec, params: Dict[str, Any]) -> ExperimentSpec:
    return ExperimentSpec(
        train_set=spec.train_set,
        test_set=spec.test_set,
        model_builder=spec.model_builder,
        num_gpus=spec.num_gpus,
        config=replace(spec.config, **params),
        cost_model=spec.cost_model,
        jitter_sigma=spec.jitter_sigma,
        normalized=True,  # shares the (already normalized) arrays
    )


def _sweep_cell_main(
    ctx: Any,
    spec: ExperimentSpec,
    method: str,
    params: Dict[str, Any],
    iterations: int,
    checkpoint_root: Optional[str],
) -> Tuple[float, RunResult]:
    """One grid cell as a sweep cell: build, maybe resume, train.

    Returns ``(build_seconds, result)`` so the driver can fold trainer
    construction into the cell's spin-up share. ``checkpoint_root``
    threads PR 6 durability through the sweep: the cell checkpoints under
    ``<root>/cells/<key>`` and resumes from the newest version there, so
    a preempted sweep re-run only pays the unfinished tail of each cell.
    """
    swept = _swept_spec(spec, params)
    resume = False
    if checkpoint_root is not None:
        cell_dir = os.path.join(checkpoint_root, "cells", _cell_key(params))
        every = swept.config.checkpoint_every or max(1, iterations // 4)
        swept.config = replace(
            swept.config, checkpoint_every=every, checkpoint_dir=cell_dir
        )
        from repro.durability.checkpoint import list_versions

        resume = os.path.isdir(cell_dir) and bool(list_versions(cell_dir))
    t0 = time.monotonic()
    trainer = build_trainer(swept, method)
    build_s = time.monotonic() - t0
    return build_s, trainer.train(iterations, resume=resume)


def _timed_cell(ctx: Any, fn: Callable[..., Any], *args: Any) -> Tuple[float, Any]:
    """Stamp the instant the cell body starts, then run it. CLOCK_MONOTONIC
    is system-wide, so a pool worker's stamp is coherent with the parent's
    submit stamp."""
    return time.monotonic(), fn(ctx, *args)


#: One finished cell: (value, wall seconds, seconds from submit to entry).
_CellRun = Tuple[Any, float, float]


def _run_cells(
    spec: ExperimentSpec,
    fn: Callable[..., Any],
    cells: Sequence[Tuple[Any, ...]],
    pool_size: Optional[int] = None,
    on_done: Optional[Callable[[int, _CellRun], None]] = None,
) -> List[_CellRun]:
    """Run ``fn(ctx, spec, *args)`` once per ``args`` in ``cells``.

    Without ``pool_size`` each cell runs here, in order, with ``ctx``
    None. With it, each is a 1-rank job on a ``WorkerPool(pool_size,
    payload=spec)`` built and closed here, so the spec rides the fork and
    never the dispatch pipe. Returns one ``(value, wall, spinup)`` per
    cell, in input order. A failing cell lets the others finish —
    ``on_done(i, run)`` is called as each one does — and the first error
    is raised.
    """
    runs: List[Optional[_CellRun]] = [None] * len(cells)
    errors: List[Exception] = []

    def settle(i: int, t_submit: float, stamped: Tuple[float, Any], t_done: float) -> None:
        entered, value = stamped
        runs[i] = (value, t_done - t_submit, max(0.0, entered - t_submit))
        if on_done is not None:
            on_done(i, runs[i])

    if pool_size is None:
        for i, args in enumerate(cells):
            t_submit = time.monotonic()
            try:
                stamped = _timed_cell(None, fn, spec, *args)
            except Exception as exc:
                errors.append(exc)
                continue
            settle(i, t_submit, stamped, time.monotonic())
    elif cells:  # a fully resumed sweep forks nothing
        from repro.pool import POOL_PAYLOAD, WorkerPool

        with WorkerPool(pool_size, payload=spec) as pool:
            jobs = [pool.submit(1, _timed_cell, fn, POOL_PAYLOAD, *args) for args in cells]
            for i, job in enumerate(jobs):
                try:
                    (stamped,) = job.result()
                except Exception as exc:
                    errors.append(exc)
                    continue
                settle(i, job.t_submit, stamped, job.t_done)
    if errors:
        raise errors[0]
    return runs  # type: ignore[return-value]


def grid_sweep(
    spec: ExperimentSpec,
    method: str,
    grid: Dict[str, Sequence[float]],
    iterations: int,
    *,
    pool_size: Optional[int] = None,
    checkpoint_root: Optional[str] = None,
) -> List[SweepPoint]:
    """Run ``method`` at every point of the cartesian ``grid``.

    ``grid`` keys must be :class:`TrainerConfig` fields (``lr``, ``rho``,
    ``mu``, ``batch_size``, ...), each with distinct values. Each point
    gets a fresh model and platform (identical seeds), so only the swept
    values differ.

    ``pool_size`` runs the cells on a dedicated pool of that many workers
    (see :func:`_run_cells`); the per-cell numerics are bit-identical to
    the inline path — the pool only changes who pays spin-up.
    ``checkpoint_root`` makes the sweep preemptible on either path: a
    finished cell leaves ``<root>/<key>.done.pkl`` and a running one
    checkpoints under ``<root>/cells/<key>``, so a re-run loads finished
    cells, resumes interrupted ones and recomputes a cell whose marker is
    torn.
    """
    if not grid:
        raise ValueError("grid must contain at least one axis")
    for key, values in grid.items():
        if not hasattr(spec.config, key):
            raise KeyError(f"unknown TrainerConfig field {key!r}")
        _check_axis(key, values)

    keys = sorted(grid)
    cells_params = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    points: List[Optional[SweepPoint]] = [
        _load_marker(checkpoint_root, params) for params in cells_params
    ]
    todo = [i for i, point in enumerate(points) if point is None]

    def done(k: int, run: _CellRun) -> None:
        (build_s, result), wall, spinup = run
        i = todo[k]
        points[i] = SweepPoint(cells_params[i], result, wall, spinup + build_s)
        _write_marker(checkpoint_root, points[i])

    _run_cells(
        spec, _sweep_cell_main,
        [(method, cells_params[i], iterations, checkpoint_root) for i in todo],
        pool_size, done,
    )
    return points  # type: ignore[return-value]


def _check_axis(name: str, values: Sequence[Any]) -> None:
    """Refuse an empty grid axis or one that lists a value twice (its
    cells would run twice under one key)."""
    if len(values) == 0:
        raise ValueError(f"grid axis {name!r} needs at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"grid axis {name!r} lists {value!r} more than once")


def _marker_path(root: str, params: Dict[str, Any]) -> str:
    return os.path.join(root, f"{_cell_key(params)}.done.pkl")


def _load_marker(root: Optional[str], params: Dict[str, Any]) -> Optional[SweepPoint]:
    """The point a previous run left for this cell, or None: no root, no
    marker, or a marker that will not load (recompute the cell)."""
    if root is None:
        return None
    try:
        with open(_marker_path(root, params), "rb") as fh:
            point = pickle.load(fh)
    except Exception:
        return None
    if not isinstance(point, SweepPoint) or point.params != params:
        return None
    return replace(point, resumed=True)


def _write_marker(root: Optional[str], point: SweepPoint) -> None:
    if root is None:
        return
    path = _marker_path(root, point.params)
    os.makedirs(root, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(point, fh)
    os.replace(tmp, path)  # atomic: a killed sweep never leaves a torn marker


def best_point(
    points: Sequence[SweepPoint], target: Optional[float] = None
) -> SweepPoint:
    """Pick the winner: fastest to ``target``, or highest final accuracy.

    Points that never reach the target are ranked after all that do.
    """
    if not points:
        raise ValueError("no sweep points")
    if target is None:
        return max(points, key=lambda p: p.final_accuracy)

    def key(p: SweepPoint) -> Tuple[int, float]:
        t = p.time_to(target)
        return (0, t) if t is not None else (1, -p.final_accuracy)

    return min(points, key=key)
