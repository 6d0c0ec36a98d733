"""Transport and collective shoot-out on the packed allreduce.

The process backend can move a packed AlexNet-scale buffer (Section 6.1's
61 M parameters, ~244 MB of float32) across rank boundaries two ways:
``transport="queue"`` pickles the whole buffer through an OS pipe for
every edge, ``transport="shm"`` never moves it: every rank's contribution
lives in a row of a :class:`~repro.comm.shm_transport.CollectiveArena`,
the folds happen in place, and only tokens cross the message fabric —
and it can schedule the reduction two ways: ``collective="tree"``
(binomial reduce + bcast) or ``collective="ring"`` (sharded
reduce-scatter + allgather). Threads fold in heap rows the same way.

This benchmark times the same packed-allreduce rank program — the
communication inner loop of Sync SGD / Sync EASGD with Section 5.2's
single packed buffer — across that matrix and archives everything twice:
``BENCH_transport.json`` at the repo root (the machine-readable
scorecard) and under ``benchmarks/artifacts/`` (the CI-uploaded copy).
Pre-existing cells with foreign methods (e.g. the archived
``sync-easgd3-loop`` throughput that ``bench_engine_overhead.py`` guards
against) are carried over untouched.

Headline cells (244 MB, P=4): threads baseline, processes/queue/tree,
processes/shm/tree, processes/shm/ring. Satellite matrix (24 MB,
P in {2, 4, 8}): tree and ring, both on processes/shm. (The chunked-tree
and float16-wire cells this matrix used to carry were deleted with the
options they measured; their last archived rows are quoted in
docs/performance.md.)

Assertions: final weights bit-identical across every cell of a
given size (schedules and transports may never touch numerics — verified
via sha256 of the weight bytes, so the forked ranks ship back 64-byte
digests instead of 244 MB arrays); processes/shm/tree at least 2x the
steps/s of the pickled queue; processes/shm/ring at least matching the
threads baseline (the tentpole claim: the arena ring eliminates enough
copies to beat by-reference threads even on one core); and the ring
cell's step-time spread p95/p50 under 2.

Noisy-host methodology: shared single-core containers suffer CPU-steal
spikes that can stretch one iteration 5x, drowning the transport signal
in scheduler noise. Three untimed warmup iterations absorb the one-time
costs (segment creation, first-touch page faults, feeder spin-up, CoW
faults after fork). Each rank then times every iteration individually; a
step's wall is the *max across ranks* (the slowest rank defines the step,
as in any synchronous method). The headline throughput is ``1 / min(step
walls)`` — the min is the only statistic noise cannot inflate — and the
archive also carries the trimmed mean (drop one high, one low) and the
p50/p95 quantiles so the spread is visible, not just the point estimate.

Run standalone with ``python benchmarks/bench_transport.py`` or under
pytest with ``pytest benchmarks/bench_transport.py --benchmark-only -s``.
"""

import hashlib
import json
from pathlib import Path
import sys
import time

import numpy as np

from repro.comm.backend import make_communicator
from repro.nn.spec import ALEXNET

try:
    import pytest

    pytestmark = pytest.mark.slow
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None

RANKS = 4
ITERATIONS = 8
WARMUP = 3
LR = 0.05
#: The packed message Sync SGD moves: every gradient plus the piggybacked
#: scalar loss, at the full AlexNet parameter count the paper quotes.
PACKED_ELEMS = ALEXNET.num_params + 1

#: The satellite matrix runs a 24 MB buffer so the P=8 cells stay cheap.
MATRIX_ELEMS = 6_000_000 + 1
MATRIX_ITERATIONS = 5
MATRIX_WARMUP = 2

ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_transport.json"
ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def _packed_allreduce_program(ctx, elems: int, iterations: int, warmup: int,
                              lr: float):
    """The communication inner loop of the packed synchronous trainers.

    Deterministic synthetic 'gradients' (one in-place broadcast add, no
    RNG over 61 M elements) keep the program transport-dominated; the
    allreduce + update numerics are the real ones, so final weights are a
    meaningful bit-identity witness. The packed buffer comes from
    ``ctx.collective_buffer`` — off the queue transport that is the
    rank's arena contribution row, so gradients are born in the fabric — and
    ``view=True`` lets the arena hand back its result row without a
    copy. Each rank times every iteration individually; the caller folds
    them into per-step walls (max across ranks). Returns a digest, not
    the 244 MB array.
    """
    weights = np.zeros(elems - 1, dtype=np.float32)
    buf = ctx.collective_buffer(elems)
    scratch = np.empty(elems - 1, dtype=np.float32)
    walls = []
    for t in range(iterations + warmup):
        t0 = time.perf_counter()
        # Pseudo-gradient = weights + rank/step constant: one fused pass,
        # couples consecutive steps so association order is observable.
        np.add(
            weights,
            np.float32((ctx.rank + 1) * 1e-6 * ((t % 7) + 1)),
            out=buf[:-1],
        )
        buf[-1] = np.float32(ctx.rank + t)  # stand-in for the batch loss
        total = ctx.allreduce(buf, view=True)
        np.multiply(total[:-1], np.float32(lr / ctx.size), out=scratch)
        np.subtract(weights, scratch, out=weights)
        if t >= warmup:
            walls.append(time.perf_counter() - t0)
    return (
        hashlib.sha256(weights.tobytes()).hexdigest(),
        [float(v) for v in weights[:4]],
        walls,
    )


def _step_stats(step_walls: list) -> dict:
    """Noise-aware summaries of the per-step walls."""
    walls = np.asarray(step_walls, dtype=np.float64)
    trimmed = np.sort(walls)[1:-1] if walls.size >= 4 else walls
    p50 = float(np.percentile(walls, 50))
    p95 = float(np.percentile(walls, 95))
    best = float(walls.min())
    return {
        "step_seconds": [float(w) for w in walls],
        "mean_step_seconds": float(walls.mean()),
        "trimmed_mean_step_seconds": float(trimmed.mean()),
        "p50_step_seconds": p50,
        "p95_step_seconds": p95,
        "spread_p95_p50": p95 / p50 if p50 > 0 else float("inf"),
        "min_step_seconds": best,
        "steps_per_second": 1.0 / best,
    }


def _run_cell(backend: str, transport, ranks: int, *, collective: str = "tree",
              elems: int = PACKED_ELEMS, iterations: int = ITERATIONS,
              warmup: int = WARMUP) -> dict:
    comm = make_communicator(
        ranks, backend=backend, timeout=600.0, transport=transport,
        collective=collective,
    )
    try:
        results = comm.run(
            _packed_allreduce_program, elems, iterations, warmup, LR
        )
    finally:
        comm.close()
    digests = {digest for digest, _, _ in results}
    assert len(digests) == 1, f"ranks diverged within one run: {digests}"
    # A synchronous step completes when its slowest rank does.
    step_walls = [
        max(walls[t] for _, _, walls in results) for t in range(iterations)
    ]
    stats = getattr(comm, "transport_stats", {}) or {}
    bytes_copied = int(stats.get("bytes_copied_in", 0)) + int(
        stats.get("bytes_copied_out", 0)
    )
    cell = {
        "method": "packed-allreduce",
        "P": ranks,
        "backend": backend,
        "transport": transport,
        "collective": collective,
        "iterations": iterations,
        "warmup_iterations": warmup,
        "buffer_bytes": elems * 4,
        "bytes_copied": bytes_copied,  # includes the warmup iterations
        "bytes_on_wire": int(stats.get("bytes_on_wire", 0)),
        "bytes_inplace": int(stats.get("bytes_inplace", 0)),
        "digest": next(iter(digests)),
        "head": results[0][1],
    }
    cell.update(_step_stats(step_walls))
    return cell


def _label(c: dict) -> str:
    return f"{c['backend']}/{c['transport'] or '-'}/{c['collective']}"


def run_experiment() -> dict:
    headline = [
        _run_cell("threads", None, RANKS),  # by-reference baseline
        _run_cell("processes", "queue", RANKS),
        _run_cell("processes", "shm", RANKS, collective="tree"),
        _run_cell("processes", "shm", RANKS, collective="ring"),
    ]
    matrix = [
        _run_cell("processes", "shm", p, collective=coll,
                  elems=MATRIX_ELEMS, iterations=MATRIX_ITERATIONS,
                  warmup=MATRIX_WARMUP)
        for p in (2, 4, 8)
        for coll in ("tree", "ring")
    ]
    return {"headline": headline, "matrix": matrix}


def check_and_archive(sections: dict) -> float:
    headline = sections["headline"]
    matrix = sections["matrix"]
    by_key = {
        (c["backend"], c["transport"], c["collective"]): c for c in headline
    }

    print("\n=== Transport/collective shoot-out: packed allreduce, "
          f"{PACKED_ELEMS * 4 / 1e6:.0f} MB buffer, P={RANKS}, "
          f"{ITERATIONS} steps ===")
    for c in headline + matrix:
        print(f"  P={c['P']} {_label(c):<34} "
              f"{c['steps_per_second']:>8.3f} steps/s   "
              f"min {c['min_step_seconds']:.3f}s "
              f"p50 {c['p50_step_seconds']:.3f}s "
              f"p95 {c['p95_step_seconds']:.3f}s "
              f"spread {c['spread_p95_p50']:.2f}x")

    # Bit-identity across every headline cell: neither the
    # transport nor the schedule may change the bits.
    digests = {c["digest"] for c in headline}
    assert len(digests) == 1, f"headline cells diverged: {digests}"

    threads = by_key[("threads", None, "tree")]
    queue = by_key[("processes", "queue", "tree")]
    shm_tree = by_key[("processes", "shm", "tree")]
    shm_ring = by_key[("processes", "shm", "ring")]

    speedup = shm_tree["steps_per_second"] / queue["steps_per_second"]
    print(f"  shm-tree vs queue-tree speedup: {speedup:.2f}x")
    assert speedup >= 2.0, (
        f"shm transport only {speedup:.2f}x over pickled queue "
        "(needs >= 2x for the zero-copy claim)"
    )
    # shm-tree folded the tensor bytes where they lay: no memcpy, and
    # nothing but tokens on the wire.
    assert shm_tree["bytes_inplace"] > 0 and shm_tree["bytes_copied"] == 0
    assert queue["bytes_inplace"] == 0 and queue["bytes_copied"] == 0
    assert shm_tree["bytes_on_wire"] < shm_tree["bytes_inplace"] // 1000

    # The tentpole: the arena ring beats by-reference threads at P=4 on
    # the 244 MB buffer (its bulk bytes never cross the message fabric).
    ring_vs_threads = (
        shm_ring["steps_per_second"] / threads["steps_per_second"]
    )
    print(f"  shm-ring vs threads baseline: {ring_vs_threads:.2f}x")
    assert ring_vs_threads >= 1.0, (
        f"processes+shm+ring at {shm_ring['steps_per_second']:.3f} steps/s "
        f"lost to threads at {threads['steps_per_second']:.3f} steps/s"
    )
    assert shm_ring["spread_p95_p50"] < 2.0, (
        f"ring step-time spread {shm_ring['spread_p95_p50']:.2f}x >= 2 — "
        "the measurement is too noisy to trust"
    )

    # Satellite matrix: within each P every schedule lands on the
    # same digest (the collectives are interchangeable bit for bit).
    for p in sorted({c["P"] for c in matrix}):
        p_digests = {c["digest"] for c in matrix if c["P"] == p}
        assert len(p_digests) == 1, f"P={p} matrix cells diverged: {p_digests}"

    cells = headline + matrix
    foreign = []
    if ROOT_ARTIFACT.exists():  # carry archived foreign methods forward
        previous = json.loads(ROOT_ARTIFACT.read_text())
        foreign = [c for c in previous.get("cells", [])
                   if c.get("method") != "packed-allreduce"]
    payload = json.dumps(
        {"benchmark": "transport", "ranks": RANKS, "cells": cells + foreign},
        indent=2,
    )
    ROOT_ARTIFACT.write_text(payload)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / "transport.json").write_text(payload)
    print(f"  matrix archived to {ROOT_ARTIFACT} and "
          f"{ARTIFACT_DIR / 'transport.json'}")
    return speedup


def bench_transport(benchmark):
    """Queue vs shm and tree vs ring on the packed AlexNet-scale buffer."""
    from conftest import run_once
    from repro.comm.mp_runtime import fork_available

    if not fork_available():
        pytest.skip("process backend requires the fork start method")
    sections = run_once(benchmark, run_experiment)
    check_and_archive(sections)


if __name__ == "__main__":
    sys.exit(0 if check_and_archive(run_experiment()) >= 2.0 else 1)
