"""Persistent worker pool + the sweeps on it: reuse without drift.

The pool's whole contract is "wall-clock only": long-lived forked workers
and recycled shm fabric (slot rings, collective-arena rows) must produce
**bit-identical** weights to a cold per-cell spawn, cell after cell. The
tests here pin that contract for the rank programs and for both dispatch
styles, plus what sweeps build on top (concurrent cells on disjoint rank
blocks, inline ≡ pooled sweeps, done-marker resume).

Tier 2 (``slow``): most cases fork real worker processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
from pathlib import Path
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.mpi_async_easgd import run_mpi_async_easgd
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.algorithms.ps_runner import PS_RUNNER_METHODS, run_mpi_gossip, run_mpi_ps
from repro.comm.mp_runtime import fork_available, RemoteRankError
from repro.comm.runtime import MultiRankError
from repro.comm.shm_lifecycle import registered_segments, ShmCapacityError
from repro.data import make_mnist_like
from repro.engine.ps import PS_FAMILIES
from repro.harness.experiment import ExperimentSpec, run_methods
from repro.harness import sweeps
from repro.harness.sweeps import grid_sweep
from repro.nn.models import build_mlp
import repro.pool
from repro.pool import POOL_PAYLOAD, WorkerPool

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


@pytest.fixture(scope="module")
def sweep_spec():
    """A spec of its own: ``normalize`` standardizes the datasets in place."""
    train, test = make_mnist_like(n_train=256, n_test=64, seed=0, difficulty=1.0)
    return ExperimentSpec(
        train_set=train, test_set=test, model_builder=lambda: build_mlp(seed=0),
        config=TrainerConfig(batch_size=BATCH, seed=0),
    ).normalize()


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _sync_digests(result) -> list:
    return [_digest(result.center)] + [_digest(w) for w in result.worker_weights]


# ---------------------------------------------------------------------------
# Bit-identity: pooled dispatch vs cold spawn, both algorithms
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.mp
@needs_fork
@pytest.mark.parametrize("backend", ["processes"])
def test_sync_easgd_pooled_matches_cold(inputs, backend):
    net, train, _ = inputs
    cold = run_mpi_sync_easgd(
        net, train, ranks=RANKS, iterations=ITERS, batch_size=BATCH,
        backend=backend,
    )
    with WorkerPool(RANKS) as pool:
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
@pytest.mark.parametrize("method", sorted(PS_RUNNER_METHODS))
def test_ps_row_pooled_matches_cold_and_threads(inputs, method):
    """Every PS rank-twin row: pooled cells, whose shared center is an
    arena the pool keeps (the second cell finds the first's center in
    it), give a cold fork's bits and the threads' bits, and neither a
    cold run nor a closed pool leaves a segment behind. A lock-free row's
    workers race, so its runs are held to a finite center only."""
    net, train, _ = inputs
    before = set(_shm_listing())

    def run(**launch):
        result = run_mpi_ps(method, net, train, ranks=RANKS, iterations=ITERS,
                            batch_size=BATCH, **launch)
        if PS_FAMILIES[method].lock_free:
            assert np.isfinite(result.center).all()
            return None
        return _sync_digests(result), result.mean_losses, result.extras

    cold = run(backend="processes")
    assert set(_shm_listing()) <= before, "a cold run leaked segments"
    with WorkerPool(RANKS) as pool:
        assert run(backend="processes", pool=pool) == cold
        assert run(backend="processes", pool=pool) == cold  # reused arena
    assert set(_shm_listing()) <= before, "pool close leaked segments"
    assert run(backend="threads") == cold


#: The five public rank programs a sweep launches (the spine's
#: ``mlp-ranks-sweep`` set): name -> (launcher, ranks).
SWEEP_PROGRAMS = {
    "sync-easgd": (run_mpi_sync_easgd, 2),
    "sync-sgd-ring": (lambda *a, **k: run_mpi_sync_sgd(*a, collective="ring", **k), 2),
    "async-easgd": (run_mpi_async_easgd, 3),
    "downpour": (lambda *a, **k: run_mpi_ps("downpour", *a, **k), 3),
    "gossip": (run_mpi_gossip, 2),
}


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
@pytest.mark.parametrize("program", sorted(SWEEP_PROGRAMS))
def test_sweep_program_pooled_matches_cold_and_threads(inputs, program):
    """One pool of three serves 2- and 3-rank cells whose template and
    dataset arrive as read-only views of a per-cell stage: same weights as
    a cold fork (inherited state) and as threads (shared state)."""
    net, train, _ = inputs
    run, ranks = SWEEP_PROGRAMS[program]

    def weights(**launch):
        return _sync_digests(run(net, train, ranks, ITERS, batch_size=BATCH, **launch))

    cold = weights(backend="processes")
    with WorkerPool(3) as pool:
        assert weights(backend="processes", pool=pool) == cold
        assert weights(backend="processes", pool=pool) == cold  # reused fabric
    assert weights(backend="threads") == cold


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_dataset_mutated_between_pooled_launches_is_seen(inputs):
    """The stage is per cell, not cached: no launch can read a stale copy."""
    net, train, _ = inputs
    train = dataclasses.replace(train, images=train.images.copy())
    kw = dict(ranks=2, iterations=ITERS, batch_size=BATCH, backend="processes")
    with WorkerPool(2) as pool:
        first = run_mpi_sync_sgd(net, train, pool=pool, **kw)
        train.images *= np.float32(0.5)
        second = run_mpi_sync_sgd(net, train, pool=pool, **kw)
    assert _digest(first.weights) != _digest(second.weights)
    assert _digest(second.weights) == _digest(run_mpi_sync_sgd(net, train, **kw).weights)


# ---------------------------------------------------------------------------
# Staging: a launch ships a handle; the bulk is a read-only, per-cell segment
# ---------------------------------------------------------------------------

def _stages_in_shm():
    return [n for n in _shm_listing() if "-stage-" in n]


def _stage_probe_cell(ctx, *_bulk):
    return _stages_in_shm()


def _scribbling_cell(ctx, big):
    big[0] = 1.0  # a pooled argument is shared, read-only state


@pytest.mark.mp
@needs_fork
def test_bulk_is_staged_once_per_cell_and_unlinked_with_it():
    big = np.ones(1 << 16, dtype=np.float32)
    with WorkerPool(2) as pool:
        # Nothing of at least DEFAULT_MIN_BYTES: no segment, nothing counted.
        job = pool.submit(2, _stage_probe_cell, np.ones(8))
        assert job.result() == [[], []] and job.stage is None
        assert job.transport_stats["stage_bytes_copied"] == 0
        job = pool.submit(2, _stage_probe_cell, big, big[:100])
        seen = job.result()
        assert seen[0] == seen[1] and len(seen[0]) == 1  # one segment, both ranks
        assert job.transport_stats["stage_bytes_copied"] == big.nbytes  # not x ranks
        assert _stages_in_shm() == []  # gone with the cell, not with the pool
    assert registered_segments() == []


@pytest.mark.mp
@needs_fork
def test_write_into_staged_argument_fails_by_rank_name():
    big = np.zeros(1 << 16, dtype=np.float32)
    with WorkerPool(2) as pool:
        with pytest.raises(MultiRankError, match="read-only") as ei:
            pool.run(2, _scribbling_cell, big)
        assert set(ei.value.failures) == {0, 1}
        assert _stages_in_shm() == []  # a failed cell's stage goes too
        assert pool.run(2, _sum_cell, big) == [0.0, 0.0]
    assert big[0] == 0.0


@pytest.mark.mp
@needs_fork
def test_stage_that_does_not_fit_fails_the_cell_not_the_pool(nearly_full_dev_shm):
    big = np.ones(1 << 16, dtype=np.float32)
    with WorkerPool(2) as pool:
        with nearly_full_dev_shm():
            with pytest.raises(ShmCapacityError, match="'stage'") as ei:
                pool.run(2, _sum_cell, big)
        assert ei.value.needed == big.nbytes and ei.value.free < big.nbytes
        assert pool.run(2, _sum_cell, big) == [float(big.sum())] * 2
    assert registered_segments() == []


# ---------------------------------------------------------------------------
# A cell owns its cores: pin + spin are decided per cell, at dispatch
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _usable_cores(limit):
    """Run the body on at most ``limit`` cores (really: forked workers
    inherit the mask); yields the cores in use."""
    before = os.sched_getaffinity(0)
    cores = sorted(before)[:limit]
    os.sched_setaffinity(0, cores)
    try:
        yield cores
    finally:
        os.sched_setaffinity(0, before)


def _placement_cell(ctx, hold=0.0):
    import time

    time.sleep(hold)
    return sorted(os.sched_getaffinity(0)), ctx._inboxes[ctx.rank].spin


@pytest.mark.mp
@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_pin_and_spin_are_decided_per_cell():
    with _usable_cores(2) as cores, WorkerPool(3) as pool:
        full = (cores, False)
        two, three, after = (pool.run(n, _placement_cell) for n in (2, 3, 1))
        jobs = [pool.submit(1, _placement_cell, 0.2) for _ in range(3)]
        concurrent = [job.result()[0] for job in jobs]
        pinned = pool.submit(2, _placement_cell)
        pinned.wait()
    if len(cores) < 2:
        # One usable core: no cell of several ranks can own cores, every
        # wait is on the doorbell (a lone 1-rank cell trivially fits).
        assert two == [full] * 2 and three == [full] * 3
        assert pinned.transport_stats["cell_pinned"] == 0
        assert sum(spin for _, spin in concurrent) == 1
        return
    # Two ranks fit two cores: a core each, spinning — on a pool of three.
    assert sorted(two) == [([cores[0]], True), ([cores[1]], True)]
    assert pinned.transport_stats["cell_pinned"] == 2
    # Three do not: nobody is pinned, everybody blocks on the doorbell — and
    # the workers the pinned cell ran on have the full mask back.
    assert three == [full] * 3
    # One rank alone fits again.
    assert after[0][1] and len(after[0][0]) == 1
    # Three 1-rank cells at once: the first two leases fit and get distinct
    # cores; the third does not and is left unpinned.
    owners = [mask[0] for mask, spin in concurrent if spin]
    assert len(owners) == len(set(owners)) == 2
    assert concurrent.count(full) == 1


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
    with WorkerPool(RANKS) as pool:
        r1 = pool.run(RANKS, _ring_cell, 1.0, collective=collective)
        segs1 = _shm_listing()
        r2 = pool.run(RANKS, _ring_cell, 1.0, collective=collective)
        segs2 = _shm_listing()
    assert r1 == r2
    assert segs1, "expected live shm segments while the pool is up"
    assert segs1 == segs2, f"cell 2 grew new segments: {set(segs2) - set(segs1)}"
    after = _shm_listing()
    assert not [s for s in after if s in segs1], "pool close leaked segments"


def _boom_cell(ctx, x):
    if ctx.rank == 1:
        raise RuntimeError("boom")
    return x


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_failed_cell_then_a_correct_one():
    with WorkerPool(RANKS) as pool:
        # One failing rank re-raises its own error (aggregate unwraps
        # singletons, same as Communicator.run).
        with pytest.raises(RuntimeError, match="boom"):
            pool.run(RANKS, _boom_cell, 1.0)
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
def test_a_stranded_cell_leaks_nothing_into_a_pooled_run(inputs):
    net, train, _ = inputs
    cold = run_mpi_sync_easgd(net, train, ranks=RANKS, iterations=ITERS,
                              batch_size=BATCH, backend="processes")
    with WorkerPool(RANKS) as pool:
        with pytest.raises(RuntimeError, match="boom"):
            pool.run(RANKS, _stranding_cell)
        assert not pool._inboxes[1].empty()
        # No barrier between the cells: rank 1's first receive of the next
        # one decodes the stale records (freeing their slots) and drops them.
        pooled = run_mpi_sync_easgd(net, train, ranks=RANKS, iterations=ITERS,
                                    batch_size=BATCH, backend="processes", pool=pool)
        assert all(inbox.empty() for inbox in pool._inboxes)
    assert _sync_digests(cold) == _sync_digests(pooled)


def _sum_cell(ctx, big, _in_band=None):
    return float(big.sum())


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_dispatch_to_dead_worker_fails_the_cell_not_the_caller():
    """A worker that died while idle is seen when it exits, so a cell whose
    in-band pickle is bigger than a pipe buffer (and whose bulk would be
    staged) is refused at its lease — nothing staged, nothing sent — instead
    of blocking submit; a dispatch racing such a death drops the broken
    pipe instead of blocking on it."""
    with WorkerPool(2, timeout=5.0) as pool:
        os.kill(pool._procs[1].pid, signal.SIGKILL)
        with pool._cond:
            assert pool._cond.wait_for(lambda: pool._broken is not None, timeout=5.0)
        big = np.ones(1 << 20, dtype=np.float32)  # 4 MB, would be staged
        in_band = list(range(100_000))
        with pytest.raises(RuntimeError, match=r"worker\(s\) \[1\] died"):
            pool.run(2, _sum_cell, big, in_band)
        assert _stages_in_shm() == []
        pool._dispatch(1, ("job",), pickle.dumps(in_band))  # returns: pipe is broken


def _exits_mid_cell(ctx):
    if ctx.rank == 1:
        os._exit(7)
    return ctx.recv(source=1, tag=1)  # waits on a rank that is gone


def _python_threads(ctx):
    return threading.active_count()


@pytest.mark.mp
@needs_fork
def test_worker_death_mid_cell_fails_its_cell_through_its_sentinel():
    """Workers report on their own pipes (no queue, so no feeder thread in
    any worker) and the collector blocks on those pipes plus the workers'
    sentinels: a rank that dies fails its cell when it exits, not at the
    next poll and not after its peer's 60 s receive timeout."""
    with WorkerPool(2, timeout=60.0) as pool:
        assert pool.run(2, _python_threads) == pool.run(2, _python_threads) == [1, 1]
        t0 = time.monotonic()
        with pytest.raises(RemoteRankError) as ei:
            pool.run(2, _exits_mid_cell)
        failed_after = time.monotonic() - t0
    assert "rank 1 process died without reporting (exitcode 7)" in str(ei.value.failures[1])
    assert "abandoned" in str(ei.value.failures[0])
    assert failed_after < 10.0
    pool_src = "".join(f.read_text() for f in Path(repro.pool.__file__).parent.glob("*.py"))
    assert "timeout=0.2" not in pool_src


# ---------------------------------------------------------------------------
# Concurrent cells, and the sweeps over the pool: inline ≡ pooled, resume
# ---------------------------------------------------------------------------

def _pid_cell(ctx, k, hold):
    time.sleep(hold)
    return (os.getpid(), ctx.rank, k)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_scheduler_packs_sub_blocks():
    """1- and 2-rank cells submitted at once share a 4-worker pool on
    disjoint rank blocks; the next cell reuses the same workers."""
    with WorkerPool(RANKS) as pool:
        jobs = [pool.submit(n, _pid_cell, k, 0.3) for k, n in enumerate((2, 1, 1))]
        blocks = [set(range(job.base, job.base + job.nranks)) for job in jobs]
        results = [job.result() for job in jobs]
        later = pool.run(2, _pid_cell, 3, 0.0)
    assert max(job.t_submit for job in jobs) < min(job.t_done for job in jobs)  # all at once
    assert set.union(*blocks) == set(range(RANKS)) and sum(map(len, blocks)) == RANKS
    pids = {pid for res in results for pid, _, _ in res}
    assert len(pids) == RANKS
    for k, res in enumerate(results):
        assert [(rank, kk) for _, rank, kk in res] == [(r, k) for r in range(len(res))]
    assert {pid for pid, _, _ in later} <= pids


def _points(points):
    return [(p.params, p.final_accuracy, p.result.sim_time, p.result.records) for p in points]


def test_done_markers_resume(sweep_spec, tmp_path):
    grid, root = {"lr": [0.01, 0.03, 0.05]}, str(tmp_path)
    first = grid_sweep(sweep_spec, "sync-easgd3", grid, ITERS, checkpoint_root=root)
    assert [p.resumed for p in first] == [False] * 3
    second = grid_sweep(sweep_spec, "sync-easgd3", grid, ITERS, checkpoint_root=root)
    assert [p.resumed for p in second] == [True] * 3
    assert _points(second) == _points(first)
    assert [p.wall_time for p in second] == [p.wall_time for p in first]
    # A torn marker is ignored, not fatal: that cell alone recomputes.
    (tmp_path / "lr=0.03.done.pkl").write_bytes(b"\x80garbage")
    third = grid_sweep(sweep_spec, "sync-easgd3", grid, ITERS, checkpoint_root=root)
    assert [p.resumed for p in third] == [True, False, True]
    assert _points(third) == _points(first)
    assert not list(tmp_path.glob("*.tmp.*"))


def test_duplicate_cell_keys_rejected(sweep_spec, monkeypatch):
    """A grid value listed twice is refused by name before any cell runs,
    inline and pooled alike (inline used to run that cell twice)."""
    def no_cell(*_):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweeps, "_sweep_cell_main", no_cell)
    for pool_size in (None, 2):
        with pytest.raises(ValueError, match=r"'lr' lists 0\.01 more than once"):
            grid_sweep(sweep_spec, "sync-easgd3", {"lr": [0.01, 0.03, 0.01]}, ITERS,
                       pool_size=pool_size)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_grid_sweep_pooled_matches_inline(sweep_spec, tmp_path):
    grid = {"lr": [0.01, 0.03], "rho": [1.5, 3.0]}
    inline = grid_sweep(sweep_spec, "sync-easgd3", grid, iterations=ITERS)
    pooled = grid_sweep(sweep_spec, "sync-easgd3", grid, iterations=ITERS, pool_size=2,
                        checkpoint_root=str(tmp_path))
    assert len(inline) == len(pooled) == 4
    assert _points(pooled) == _points(inline)
    assert all(p.wall_time > 0 and p.spinup_time >= 0 for p in pooled)
    # The pooled path writes done-markers too; a re-run loads every cell.
    again = grid_sweep(sweep_spec, "sync-easgd3", grid, iterations=ITERS, pool_size=2,
                       checkpoint_root=str(tmp_path))
    assert [p.resumed for p in again] == [True] * 4
    assert _points(again) == _points(inline)


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_run_methods_pooled_matches_cold(sweep_spec):
    methods = ["sync-easgd3", "async-easgd"]
    cold = run_methods(sweep_spec, methods, iterations=ITERS)
    pooled = run_methods(sweep_spec, methods, iterations=ITERS, pool_size=2)
    for m in methods:
        assert cold[m].final_accuracy == pooled[m].final_accuracy
        assert cold[m].sim_time == pooled[m].sim_time
        assert cold[m].records == pooled[m].records


def _payload_cell(ctx, payload, scale):
    net, _train = payload
    return float(net.get_params()[0]) * scale


@pytest.mark.slow
@pytest.mark.mp
@needs_fork
def test_payload_rides_fork_not_pipe(inputs):
    """POOL_PAYLOAD args resolve to the fork-inherited payload worker-side."""
    net, train, _ = inputs
    with WorkerPool(1, payload=(net, train)) as pool:
        got = pool.run(1, _payload_cell, POOL_PAYLOAD, 2.0)
    assert got == [float(net.get_params()[0]) * 2.0]


@needs_fork
def test_pool_rejects_oversized_cells():
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError, match="ranks"):
            pool.run(3, _pid_cell, 1, 0.0)
        assert pool.jobs_run == 0


def test_a_threads_pool_is_refused():
    # Thread ranks need no pool: make_communicator(backend="threads") spawns
    # them per run, and a sweep without pool_size runs inline.
    with pytest.raises(TypeError, match="backend"):
        WorkerPool(2, backend="threads")


@needs_fork
def test_pool_rejects_unpicklable_work():
    with WorkerPool(1) as pool:
        with pytest.raises(ValueError, match="pickl"):
            pool.submit(1, lambda ctx: None)


# ---------------------------------------------------------------------------
# One launch site
# ---------------------------------------------------------------------------
def test_rank_processes_are_launched_in_one_place():
    """docs/architecture.md calls ``pool/`` the one place rank processes
    are launched. Under ``src/repro``, ``multiprocessing``'s
    ``get_context``, ``Process`` and ``Pipe`` are called (or imported by
    name) in ``pool/worker_pool.py`` only, and its ``Queue`` nowhere:
    shared memory carries rank traffic, pipes carry dispatch and results.
    The inbox doorbell — ``get_context("fork").Semaphore(0)`` in
    ``comm/shm_transport.py`` — is the one named exception."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    launchers = {"get_context", "Process", "Queue", "Pipe"}
    found: dict = {}
    for path in sorted(root.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        std_queue = {  # a `queue` module queue is a thread queue, not a launch
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
        "pool/worker_pool.py": launchers - {"Queue"},
        "comm/shm_transport.py": {"doorbell"},
    }
