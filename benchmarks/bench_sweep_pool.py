"""Sweep amortization: persistent worker pool vs per-cell cold spawn.

The workload the paper's introduction motivates — "researchers often need
to tune many hyperparameters" — run the way the harness actually runs it:
a 12-cell (lr x rho) grid of P=4 Sync EASGD3 cells, each one a real
message-passing run over forked processes and shm slot rings.

Two disciplines, identical numerics:

- **cold** — the pre-pool baseline: every cell forks 4 fresh workers,
  builds its slot rings and collective arenas from nothing, runs, and
  tears everything down. 12 cells pay 12 spin-ups.
- **pooled** — one :class:`repro.pool.WorkerPool` of 4 workers forked
  once (the model + dataset riding fork inheritance via
  ``payload=``/:data:`~repro.pool.POOL_PAYLOAD`), with a
  :class:`repro.pool.SweepScheduler` dispatching the cells back-to-back;
  slot rings and arena rows are sized once and recycled between cells.

Hard assertions: every cell's weights (all ranks' locals + the center)
are **bit-identical** between the two disciplines — the pool recycles
fabric, never numerics — and, in full mode, the pooled sweep finishes
the grid at least 3x faster end-to-end (pool construction included).
The cells are deliberately short (2 iterations): the pool targets the
tuning regime where spin-up, not compute, dominates each cell.

Results land in ``BENCH_sweeps.json`` at the repo root and
``benchmarks/artifacts/sweeps.json``.  ``--quick`` shrinks the grid to 4
cells and skips the archive + speedup assertion (spin-up ratios on a
loaded CI box are too noisy to gate on) — the digest identity check
still runs.

Run standalone with ``python benchmarks/bench_sweep_pool.py [--quick]``
or under pytest with ``pytest benchmarks/bench_sweep_pool.py
--benchmark-only -s``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
import sys
import time

import numpy as np

from repro.algorithms.mpi_easgd import rank_program
from repro.data import make_mnist_like
from repro.nn.models import build_mlp
from repro.optim.easgd import EASGDHyper
from repro.pool import POOL_PAYLOAD, SweepCell, SweepScheduler, WorkerPool

try:
    import pytest

    pytestmark = pytest.mark.slow
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None

RANKS = 4
ITERATIONS = 2
BATCH = 8
SEED = 0
N_TRAIN = 256
LRS = (0.01, 0.02, 0.03, 0.05)
RHOS = (1.5, 2.0, 3.0)

ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sweeps.json"
ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def _cell_main(ctx, payload, lr: float, rho: float):
    """One grid cell: the Sync EASGD3 rank program at (lr, rho)."""
    net, train = payload
    return rank_program(
        ctx, net, train, ITERATIONS, BATCH, EASGDHyper(lr=lr, rho=rho),
        SEED, False, 3,
    )


def _digest(results) -> str:
    """One hash over every rank's final weights + the center."""
    h = hashlib.sha256()
    for outcome in results:
        h.update(np.ascontiguousarray(outcome.local).tobytes())
    h.update(np.ascontiguousarray(results[0].center).tobytes())
    return h.hexdigest()


def _cells(quick: bool):
    lrs = LRS[:2] if quick else LRS
    rhos = RHOS[:2] if quick else RHOS
    return [
        SweepCell(
            key=f"lr={lr},rho={rho}",
            fn=_cell_main,
            args=(POOL_PAYLOAD, lr, rho),
            ranks=RANKS,
        )
        for lr in lrs
        for rho in rhos
    ]


def run_experiment(quick: bool = False) -> dict:
    train, _ = make_mnist_like(
        n_train=N_TRAIN, n_test=64, seed=SEED, difficulty=1.0
    )
    net = build_mlp(seed=SEED)
    payload = (net, train)
    cells = _cells(quick)

    # Cold baseline: the scheduler's no-pool mode — one freshly forked
    # 4-rank communicator per cell, sequentially.
    t0 = time.monotonic()
    cold = SweepScheduler(backend="processes", payload=payload).run(cells)
    t_cold = time.monotonic() - t0

    # Pooled: fork 4 workers once (payload rides the fork), then dispatch
    # every cell to them. Pool construction is inside the clock — the
    # amortization claim includes the one-time spin-up it buys out.
    t0 = time.monotonic()
    with WorkerPool(RANKS, backend="processes", payload=payload) as pool:
        pooled = SweepScheduler(pool).run(cells)
    t_pool = time.monotonic() - t0

    rows = []
    for cell, c, p in zip(cells, cold, pooled):
        rows.append({
            "key": cell.key,
            "ranks": cell.ranks,
            "digest_cold": _digest(c.results),
            "digest_pooled": _digest(p.results),
            "cold_wall_s": c.wall_time,
            "cold_spinup_s": c.spinup_time,
            "pooled_wall_s": p.wall_time,
            "pooled_spinup_s": p.spinup_time,
        })
    return {
        "quick": quick,
        "cells": rows,
        "cold_total_s": t_cold,
        "pooled_total_s": t_pool,
    }


def check_and_archive(sections: dict) -> float:
    quick = sections["quick"]
    rows = sections["cells"]
    t_cold = sections["cold_total_s"]
    t_pool = sections["pooled_total_s"]
    speedup = t_cold / t_pool

    print(f"\n=== Sweep pool: {len(rows)} cells of P={RANKS} Sync EASGD3 "
          f"({ITERATIONS} iters each), {'quick' if quick else 'full'} ===")
    for r in rows:
        match = "ok" if r["digest_cold"] == r["digest_pooled"] else "MISMATCH"
        print(f"  {r['key']:<18} cold {r['cold_wall_s'] * 1e3:>6.1f} ms "
              f"(spinup {r['cold_spinup_s'] * 1e3:>5.1f})   "
              f"pooled {r['pooled_wall_s'] * 1e3:>6.1f} ms "
              f"(spinup {r['pooled_spinup_s'] * 1e3:>5.1f})   digest {match}")
    print(f"  total: cold {t_cold:.2f} s, pooled {t_pool:.2f} s "
          f"-> {speedup:.2f}x")

    for r in rows:
        assert r["digest_cold"] == r["digest_pooled"], (
            f"pooled run of {r['key']} diverged from cold spawn"
        )
    if not quick:
        assert speedup >= 3.0, (
            f"pool bought only {speedup:.2f}x on the {len(rows)}-cell grid "
            "(need >= 3x)"
        )
        payload = json.dumps(
            {"benchmark": "sweep-pool", "method": "sync-easgd3", "P": RANKS,
             "iterations_per_cell": ITERATIONS, "batch_size": BATCH,
             "cold_total_s": t_cold, "pooled_total_s": t_pool,
             "speedup": speedup, "cells": rows},
            indent=2,
        )
        ROOT_ARTIFACT.write_text(payload)
        ARTIFACT_DIR.mkdir(exist_ok=True)
        (ARTIFACT_DIR / "sweeps.json").write_text(payload)
        print(f"  grid archived to {ROOT_ARTIFACT} and "
              f"{ARTIFACT_DIR / 'sweeps.json'}")
    return speedup


def bench_sweep_pool(benchmark):
    """12-cell P=4 grid: pooled vs cold spawn, bit-identical weights."""
    from conftest import run_once

    sections = run_once(benchmark, run_experiment)
    check_and_archive(sections)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    check_and_archive(run_experiment(quick=quick))
    sys.exit(0)
