"""Persistent worker pool + sweep scheduler: reuse without drift.

The pool's whole contract is "wall-clock only": long-lived forked workers
and recycled shm fabric (slot rings, collective-arena rows) must produce
**bit-identical** weights to a cold per-cell spawn, cell after cell. The
tests here pin that contract for both rank substrates and both dispatch
styles, plus the scheduler conveniences built on top (timing split,
smallest-first packing over rank blocks, done-marker resume).

Tier 2 (``slow``): most cases fork real worker processes.
"""

from __future__ import annotations

import hashlib
import os
import signal

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.mpi_async_easgd import run_mpi_async_easgd
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.comm.mp_runtime import fork_available, RemoteRankError
from repro.data import make_mnist_like
from repro.harness.experiment import ExperimentSpec, run_methods
from repro.harness.sweeps import grid_sweep
from repro.nn.models import build_mlp
from repro.pool import POOL_PAYLOAD, SweepCell, SweepScheduler, WorkerPool

pytestmark = pytest.mark.pool

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

RANKS = 4
ITERS = 3
BATCH = 16


@pytest.fixture(scope="module")
def inputs():
    train, test = make_mnist_like(n_train=256, n_test=64, seed=0, difficulty=1.0)
    return build_mlp(seed=0), train, test


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _sync_digests(result) -> list:
    return [_digest(result.center)] + [_digest(w) for w in result.worker_weights]


# ---------------------------------------------------------------------------
# Bit-identity: pooled dispatch vs cold spawn, both algorithms, both backends
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.mp
@needs_fork
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_sync_easgd_pooled_matches_cold(inputs, backend):
    net, train, _ = inputs
    cold = run_mpi_sync_easgd(
        net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
        backend=backend,
    )
    with WorkerPool(RANKS, backend=backend) as pool:
        pooled = run_mpi_sync_easgd(
            net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
            backend=backend, pool=pool,
        )
        again = run_mpi_sync_easgd(
            net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
            backend=backend, pool=pool,
        )
    assert _sync_digests(cold) == _sync_digests(pooled)
    # The second pooled cell reuses the first's fabric — still identical.
    assert _sync_digests(cold) == _sync_digests(again)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_async_easgd_pooled_matches_cold(inputs, backend):
    net, train, _ = inputs
    cold = run_mpi_async_easgd(
        net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
        backend=backend,
    )
    with WorkerPool(RANKS, backend=backend) as pool:
        pooled = run_mpi_async_easgd(
            net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
            backend=backend, pool=pool,
        )
    assert _digest(cold.center) == _digest(pooled.center)
    assert [_digest(w) for w in cold.worker_weights] == \
        [_digest(w) for w in pooled.worker_weights]


# ---------------------------------------------------------------------------
# Fabric reuse: consecutive cells share one set of shm segments
# ---------------------------------------------------------------------------

def _ring_cell(ctx, x):
    # 16 KB payload: comfortably past the shm transport's min-bytes
    # threshold, so the messages really ride the slot rings.
    v = ctx.allreduce(np.full(4096, float(ctx.rank + x), dtype=np.float32))
    return float(v[0])


def _shm_listing():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available to inspect")
    return sorted(n for n in os.listdir("/dev/shm") if "repro-" in n)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
@pytest.mark.parametrize("collective", ["tree", "ring"])
def test_consecutive_cells_reuse_one_arena(collective):
    """Regression: cell 2 must attach cell 1's rings/arena, not grow new ones."""
    with WorkerPool(RANKS, backend="processes") as pool:
        r1 = pool.run(RANKS, _ring_cell, 1.0, collective=collective)
        segs1 = _shm_listing()
        r2 = pool.run(RANKS, _ring_cell, 1.0, collective=collective)
        segs2 = _shm_listing()
    assert r1 == r2
    assert segs1, "expected live shm segments while the pool is up"
    assert segs1 == segs2, f"cell 2 grew new segments: {set(segs2) - set(segs1)}"
    after = _shm_listing()
    assert not [s for s in after if s in segs1], "pool close leaked segments"


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_reset_rebuilds_clean_fabric():
    with WorkerPool(RANKS, backend="processes") as pool:
        r1 = pool.run(RANKS, _ring_cell, 1.0)
        pool.reset()
        r2 = pool.run(RANKS, _ring_cell, 1.0)
    assert r1 == r2


def _boom_cell(ctx, x):
    if ctx.rank == 1:
        raise RuntimeError("boom")
    return x


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_failed_cell_then_reset_recovers():
    with WorkerPool(RANKS, backend="processes") as pool:
        # One failing rank re-raises its own error (aggregate unwraps
        # singletons, same as Communicator.run).
        with pytest.raises(RuntimeError, match="boom"):
            pool.run(RANKS, _boom_cell, 1.0)
        pool.reset()
        assert pool.run(RANKS, _ring_cell, 1.0) == pool.run(RANKS, _ring_cell, 1.0)


def _stranding_cell(ctx):
    """Rank 1 raises without receiving what the others sent it: a token, a
    slot-ring descriptor and a spilled pickle stay in its inbox."""
    if ctx.rank == 1:
        raise RuntimeError("boom")
    ctx.send(ctx.rank, dest=1, tag=1)
    ctx.send(np.ones(1 << 14, dtype=np.float32), dest=1, tag=2)
    ctx.send(list(range(5000)), dest=1, tag=3)
    return ctx.rank


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_reset_empties_every_inbox_ring(inputs):
    net, train, _ = inputs
    cold = run_mpi_sync_easgd(net, train, ranks=RANKS, iterations=ITERS,
                              batch_size=BATCH, backend="processes")
    with WorkerPool(RANKS, backend="processes") as pool:
        with pytest.raises(RuntimeError, match="boom"):
            pool.run(RANKS, _stranding_cell)
        assert not pool._inboxes[1].empty()
        pool.reset()
        assert all(inbox.empty() for inbox in pool._inboxes)
        pooled = run_mpi_sync_easgd(net, train, ranks=RANKS, iterations=ITERS,
                                    batch_size=BATCH, backend="processes", pool=pool)
    assert _sync_digests(cold) == _sync_digests(pooled)


def _sum_cell(ctx, big):
    return float(big.sum())


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_dispatch_to_dead_worker_fails_the_cell_not_the_caller():
    """A work item bigger than a pipe buffer, sent to a worker that died
    while idle, must come back as that rank's failure — not block submit."""
    with WorkerPool(2, backend="processes", timeout=5.0) as pool:
        os.kill(pool._procs[1].pid, signal.SIGKILL)
        big = np.ones(1 << 20, dtype=np.float32)  # 4 MB pickled per rank
        with pytest.raises(RemoteRankError, match="rank 1 process died"):
            pool.run(2, _sum_cell, big)


# ---------------------------------------------------------------------------
# Scheduler: packing, timing split, done-marker resume
# ---------------------------------------------------------------------------

def _pid_cell(ctx, k):
    return (os.getpid(), ctx.rank, k)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_scheduler_packs_sub_blocks():
    """1- and 2-rank cells share a 4-worker pool on disjoint rank blocks."""
    cells = [SweepCell(key=f"c{k}", fn=_pid_cell, args=(k,), ranks=1 + k % 2)
             for k in range(6)]
    with WorkerPool(RANKS, backend="processes") as pool:
        outcomes = SweepScheduler(pool).run(cells)
    assert [o.key for o in outcomes] == [c.key for c in cells]
    for cell, o in zip(cells, outcomes):
        assert len(o.results) == cell.ranks
        assert o.pooled and o.wall_time > 0 and o.spinup_time >= 0
        assert [r[2] for r in o.results] == [int(cell.key[1:])] * cell.ranks


def _double(ctx, k):
    return k * 2


def test_done_markers_resume(tmp_path):
    cells = [SweepCell(key=f"cell-{k}", fn=_double, args=(k,)) for k in range(3)]
    first = SweepScheduler(backend="threads", checkpoint_root=str(tmp_path)).run(cells)
    assert [o.resumed for o in first] == [False] * 3
    second = SweepScheduler(backend="threads", checkpoint_root=str(tmp_path)).run(cells)
    assert [o.resumed for o in second] == [True] * 3
    assert [o.result for o in second] == [0, 2, 4]
    # A torn marker is ignored, not fatal: the cell just recomputes.
    marker = next(tmp_path.glob("cell-1.done.pkl"))
    marker.write_bytes(b"\x80garbage")
    third = SweepScheduler(backend="threads", checkpoint_root=str(tmp_path)).run(cells)
    assert [o.resumed for o in third] == [True, False, True]
    assert [o.result for o in third] == [0, 2, 4]


def test_duplicate_cell_keys_rejected():
    cells = [SweepCell(key="same", fn=_double, args=(1,)),
             SweepCell(key="same", fn=_double, args=(2,))]
    with pytest.raises(ValueError, match="unique"):
        SweepScheduler(backend="threads").run(cells)


# ---------------------------------------------------------------------------
# Harness integration: grid_sweep and run_methods over the pool
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_grid_sweep_pooled_matches_inline(inputs):
    net, train, test = inputs
    spec = ExperimentSpec(
        train_set=train, test_set=test, model_builder=lambda: build_mlp(seed=0),
        config=TrainerConfig(batch_size=BATCH, seed=0),
    ).normalize()
    grid = {"lr": [0.01, 0.03], "rho": [1.5, 3.0]}
    inline = grid_sweep(spec, "sync-easgd3", grid, iterations=ITERS)
    pooled = grid_sweep(spec, "sync-easgd3", grid, iterations=ITERS, pool_size=2)
    assert len(inline) == len(pooled) == 4
    for a, b in zip(inline, pooled):
        assert a.params == b.params
        assert a.final_accuracy == b.final_accuracy
        assert a.result.sim_time == b.result.sim_time
        assert b.wall_time > 0 and b.spinup_time >= 0


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_run_methods_pooled_matches_cold(inputs):
    net, train, test = inputs
    spec = ExperimentSpec(
        train_set=train, test_set=test, model_builder=lambda: build_mlp(seed=0),
        config=TrainerConfig(batch_size=BATCH, seed=0),
    ).normalize()
    methods = ["sync-easgd3", "async-easgd"]
    cold = run_methods(spec, methods, iterations=ITERS)
    with WorkerPool(2, backend="processes", payload=spec) as pool:
        pooled = run_methods(spec, methods, iterations=ITERS, pool=pool)
    for m in methods:
        assert cold[m].final_accuracy == pooled[m].final_accuracy
        assert cold[m].sim_time == pooled[m].sim_time


def _payload_cell(ctx, payload, scale):
    net, _train = payload
    return float(net.get_params()[0]) * scale


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_payload_rides_fork_not_pipe(inputs):
    """POOL_PAYLOAD args resolve to the fork-inherited payload worker-side."""
    net, train, _ = inputs
    with WorkerPool(1, backend="processes", payload=(net, train)) as pool:
        got = pool.run(1, _payload_cell, POOL_PAYLOAD, 2.0)
    assert got == [float(net.get_params()[0]) * 2.0]


def test_pool_rejects_oversized_cells():
    with WorkerPool(2, backend="threads") as pool:
        with pytest.raises(ValueError, match="ranks"):
            pool.run(3, _double, 1)


@needs_fork
def test_pool_rejects_unpicklable_work():
    with WorkerPool(1, backend="processes") as pool:
        with pytest.raises(ValueError, match="pickl"):
            pool.submit(1, lambda ctx: None)


# ---------------------------------------------------------------------------
# One launch site
# ---------------------------------------------------------------------------
def test_rank_processes_are_launched_in_one_place():
    """docs/architecture.md calls ``pool/`` the one place rank processes
    are launched. Under ``src/repro``, ``multiprocessing``'s
    ``get_context``, ``Process``, ``Queue`` and ``Pipe`` are called (or
    imported by name) in ``pool/worker_pool.py`` only; the inbox
    doorbell — ``get_context("fork").Semaphore(0)`` in
    ``comm/shm_transport.py`` — is the one named exception."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    launchers = {"get_context", "Process", "Queue", "Pipe"}
    found: dict = {}
    for path in sorted(root.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        std_queue = {  # `queue.Queue()` is the thread fabric's, not a launch
            alias.asname or alias.name
            for node in nodes if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "queue"
        }
        doorbells = {
            id(node.func.value) for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Semaphore"
        }
        for node in nodes:
            names: set = set()
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "multiprocessing":
                    names = {alias.name for alias in node.names} & launchers
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in launchers:
                    if not (isinstance(func.value, ast.Name) and func.value.id in std_queue):
                        names = {"doorbell" if id(node) in doorbells else func.attr}
            if names:
                found.setdefault(path.relative_to(root).as_posix(), set()).update(names)
    assert found == {
        "pool/worker_pool.py": launchers,
        "comm/shm_transport.py": {"doorbell"},
    }
