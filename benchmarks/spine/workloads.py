"""The four workloads: frozen cell schedules over the repo's public entry points.

A *workload* is a fixed list of *cells*; running every cell once is a
*pass*.  A cell calls one or more top-level entry points (``run_method``,
``run_mpi_*``, ``<communicator>.run``) — each such call is an *op* — and
reports its own timed wall, CPU and step count, so its housekeeping
(temp-dir removal, digesting results) stays outside the timed section.

The step counts below are frozen: they were sized on the baseline host
(2 vCPU, BLAS pinned to 1 thread) so that every cell of a workload takes
roughly the same wall and a pass takes 3-4.5 s.  Changing them changes
what ``steps_per_s`` means; that is a new baseline, not a tuning knob.

Everything the program under test receives is generated from the seed
(datasets, initial weights, the config's own ``seed`` field); it never
sees the workload's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import hashlib
import os
from pathlib import Path
import resource
import shutil
import struct
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.algorithms.mpi_async_easgd import run_mpi_async_easgd
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.algorithms.ps_runner import run_mpi_gossip, run_mpi_ps
from repro.comm.backend import make_communicator
from repro.data import make_mnist_like
from repro.harness import ExperimentSpec, run_method
from repro.nn import build_lenet, build_mlp, SoftmaxCrossEntropy
from repro.pool import WorkerPool

__all__ = ["Op", "Cell", "Workload", "WORKLOADS", "FROZEN_STEPS", "best_wall", "failing_cell"]

#: A training op has learned when its final train loss is at most this
#: share of the untrained model's loss on the same data.
LEARN_RATIO = 0.7

# -- frozen step counts ---------------------------------------------------------
#: lenet-sim-sync: (method, simulated workers, steps).  ~1 s per cell.
LENET_CELLS = (
    ("sync-easgd3", 4, 14),
    ("async-easgd", 4, 50),
    ("downpour", 4, 16),
    ("sync-sgd", 1, 50),  # the plain single-worker baseline
)
#: mlp-sim-zoo: families at or above ~1000 steps/s at baseline get the
#: larger count, so every cell is ~0.1 s.
ZOO_FAST = frozenset({
    "original-easgd", "original-easgd*", "async-sgd", "async-msgd",
    "hogwild-sgd", "async-easgd", "async-measgd", "hogwild-easgd",
    "bounded-async-easgd",
})
ZOO_STEPS_FAST, ZOO_STEPS_SLOW = 180, 60
ZOO_TAX_METHODS = ("sync-easgd3", "async-easgd")
ZOO_CHECKPOINT_EVERY = 10
#: allreduce-ranks: (size, elems, backend, transport, collective, steps).
BULK_ELEMS, SMALL_ELEMS = 6_000_001, 16_385
ALLREDUCE_CELLS = (
    ("bulk", BULK_ELEMS, "processes", "shm", "tree", 8),
    ("bulk", BULK_ELEMS, "processes", "shm", "ring", 14),
    ("bulk", BULK_ELEMS, "threads", None, "tree", 8),
    ("small", SMALL_ELEMS, "processes", "shm", "tree", 300),
    ("small", SMALL_ELEMS, "processes", "shm", "ring", 800),
    ("small", SMALL_ELEMS, "threads", None, "tree", 1200),
)
ALLREDUCE_WARMUP = 3
#: mlp-ranks-sweep: steps per launch; one launch of each program per
#: discipline per pass.
SWEEP_STEPS = 60
SWEEP_POOL_SIZE = 3

FROZEN_STEPS: Dict[str, Any] = {
    "lenet-sim-sync": {m: n for m, _, n in LENET_CELLS},
    "mlp-sim-zoo": {"fast": ZOO_STEPS_FAST, "slow": ZOO_STEPS_SLOW,
                    "fast_families": sorted(ZOO_FAST)},
    "allreduce-ranks": {f"{s}/{b}/{c}": n for s, _, b, _, c, n in ALLREDUCE_CELLS},
    "mlp-ranks-sweep": {"steps_per_launch": SWEEP_STEPS, "launches_per_pass": 15},
}


# -- results ---------------------------------------------------------------------
@dataclass
class Op:
    """One call into a top-level entry point, and what it produced."""

    name: str
    steps: int
    error: Optional[str] = None  # set when the call raised or a check failed
    training: bool = True
    loss_first: Optional[float] = None
    loss_final: Optional[float] = None
    accuracy: Optional[float] = None
    digest: Optional[str] = None  # of the final weights (or the trajectory)
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Cell:
    name: str
    ops: List[Op]
    wall: float  # the timed section
    cpu: float  # user+sys CPU of the process tree over the timed section
    window: Tuple[float, float]  # perf_counter bounds of the timed section
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return sum(op.steps for op in self.ops)


def _tree_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped children only
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Timed:
    """Wall, process-tree CPU and clock window of a ``with`` block."""

    def __enter__(self) -> "_Timed":
        self.cpu0 = _tree_cpu()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.t1 = time.perf_counter()
        self.wall = self.t1 - self.t0
        self.cpu = _tree_cpu() - self.cpu0
        self.window = (self.t0, self.t1)


def _attempt(op: Op, call: Callable[[], None]) -> Op:
    """Run one op; a raise is recorded on the op, never propagated."""
    try:
        call()
    except Exception:
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return op


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _steps(frozen: int, scale: float) -> int:
    return max(2, int(round(frozen * scale)))


# -- workloads -------------------------------------------------------------------
def best_wall(passes: List[List[Cell]], cell: str) -> float:
    """A cell's least-disturbed wall: its minimum over the passes."""
    return min(c.wall for p in passes for c in p if c.name == cell)


class Workload:
    """Set-up, the cell schedule, and the cross-op checks of one workload."""

    name = ""
    #: The op whose per-step losses give ``algorithms.steps_to_loss_target``.
    headline: Optional[str] = None

    def __init__(self, seed: int, scale: float, scratch: Path, check_learning: bool) -> None:
        self.seed = seed
        self.scale = scale  # 1.0 = the frozen counts; smoke runs shrink them
        self.scratch = scratch
        self.check_learning = check_learning
        self.generate_s = 0.0  # data.generate_s

    def setup(self) -> None:
        """Generate the inputs from the seed."""

    def cells(self, scale: float) -> List[Tuple[str, Callable[[], Cell]]]:
        raise NotImplementedError

    def warmup(self) -> None:
        """One short untimed run of every cell kind."""
        for _name, run in self.cells(0.0):
            run()

    def run_pass(self) -> List[Cell]:
        return [run() for _name, run in self.cells(self.scale)]

    def check_pass(self, cells: List[Cell]) -> None:
        """Judge every op of a pass; failures are set on the ops.

        Subclasses add the within-run equivalences across ops.
        """
        for cell in cells:
            for op in cell.ops:
                self._judge_training(op)

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer numbers measured directly, outside the passes."""
        return {}

    def result_metrics(self, passes: List[List[Cell]]) -> Dict[str, float]:
        """Per-layer numbers read from the reference passes' results, not spans."""
        ops = [op for c in passes[0] for op in c.ops if op.error is None]
        losses = [op.loss_final for op in ops if op.loss_final is not None]
        accs = [op.accuracy for op in ops if op.accuracy is not None]
        out = {"data.generate_s": self.generate_s}
        if losses:
            out["algorithms.loss_final"] = float(np.mean(losses))
        if accs:
            out["algorithms.accuracy_final"] = float(np.mean(accs))
        sim = [op for op in ops if "sim_s" in op.extras]
        if sim:  # exact for a seed: the simulated clock ignores the wall clock
            out["cluster.sim_s_per_step"] = (
                sum(op.extras["sim_s"] for op in sim) / sum(op.steps for op in sim))
            out["cluster.sim_comm_ratio"] = (
                sum(op.extras["sim_comm_s"] for op in sim)
                / sum(op.extras["sim_total_s"] for op in sim))
        return out

    # -- shared pieces -----------------------------------------------------------
    def _mnist(self, builder) -> None:
        t0 = time.perf_counter()
        self.train, self.test = make_mnist_like(seed=self.seed)
        self.builder = functools.partial(builder, seed=self.seed + 1)
        ExperimentSpec(self.train, self.test, self.builder).normalize()  # in place
        self.generate_s = time.perf_counter() - t0
        # The untrained model's loss: what "failed to learn" is judged against.
        images, labels = self.train.images[:512], self.train.labels[:512]
        self.loss0 = float(SoftmaxCrossEntropy().forward(
            self.builder().forward(images), labels))

    def _spec(self, num_gpus: int, **config) -> ExperimentSpec:
        return ExperimentSpec(
            self.train, self.test, self.builder, num_gpus=num_gpus,
            config=TrainerConfig(seed=self.seed, **config), normalized=True,
        )

    def _sim_cell(self, name: str, spec: ExperimentSpec, method: str, steps: int,
                  cleanup: Optional[Path] = None) -> Cell:
        op = Op(name, steps)

        def call() -> None:
            result = run_method(spec, method, iterations=steps)
            last = result.records[-1]
            op.loss_final, op.accuracy = float(last.train_loss), float(result.final_accuracy)
            op.loss_first = self.loss0
            flat = [v for r in result.records
                    for v in (r.sim_time, r.train_loss, r.test_accuracy)]
            op.digest = hashlib.sha256(struct.pack(f"{len(flat)}d", *flat)).hexdigest()[:16]
            op.extras = {
                "sim_s": result.sim_time,
                "sim_comm_s": result.breakdown.comm_seconds,
                "sim_total_s": result.breakdown.total,
                "evals": len(result.records),
                "trace_events": len(result.trace.events) if result.trace else 0,
                "ckpt_writes": result.extras.get("checkpoint_writes", 0),
                "ckpt_bytes": result.extras.get("checkpoint_bytes", 0),
            }
            if result.iterations != steps:
                raise RuntimeError(f"{method}: ran {result.iterations} of {steps} steps")

        with _Timed() as t:
            _attempt(op, call)
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)
        return Cell(name, [op], t.wall, t.cpu, t.window)

    def _judge_training(self, op: Op) -> None:
        if op.error is not None or not op.training:
            return
        values = [op.loss_first, op.loss_final, op.accuracy]
        if not all(np.isfinite(v) for v in values if v is not None):
            op.error = f"non-finite result: loss {op.loss_final}, accuracy {op.accuracy}"
        elif (self.check_learning and op.loss_final is not None
              and op.loss_final > LEARN_RATIO * op.loss_first):
            op.error = (f"failed to learn: final loss {op.loss_final:.4g} > "
                        f"{LEARN_RATIO} x initial {op.loss_first:.4g}")


class LenetSimSync(Workload):
    name = "lenet-sim-sync"
    headline = "sync-easgd3"

    def setup(self) -> None:
        self._mnist(build_lenet)
        hyper = dict(batch_size=32, lr=0.03, rho=2.0)  # default eval cadence
        self.specs = {p: self._spec(p, **hyper) for p in (4, 1)}

    def cells(self, scale):
        return [
            (method, functools.partial(self._sim_cell, method, self.specs[p], method,
                                       _steps(n, scale)))
            for method, p, n in LENET_CELLS
        ]


class MlpSimZoo(Workload):
    name = "mlp-sim-zoo"
    headline = "sync-easgd3"

    def setup(self) -> None:
        self._mnist(build_mlp)
        # lr: async-msgd diverges on this MLP at the default 0.05 (mu=0.9 on
        # top of four stale workers); 0.02 lets all 21 families learn on
        # every seed tried, so "failed to learn" stays a real signal.
        hyper = dict(batch_size=16, lr=0.02, eval_every=10**9)  # evaluate at the end only
        self.plain = self._spec(4, **hyper)
        self.traced = self._spec(4, trace=True, **hyper)
        self.hyper = hyper
        self._ckpt_serial = 0

    def _ckpt_cell(self, name: str, method: str, steps: int) -> Cell:
        self._ckpt_serial += 1
        ckpt_dir = self.scratch / f"ckpt-{os.getpid()}-{self._ckpt_serial}"
        spec = self._spec(4, checkpoint_every=ZOO_CHECKPOINT_EVERY,
                          checkpoint_dir=str(ckpt_dir), **self.hyper)
        return self._sim_cell(name, spec, method, steps, cleanup=ckpt_dir)

    def cells(self, scale):
        def count(method: str) -> int:
            return _steps(ZOO_STEPS_FAST if method in ZOO_FAST else ZOO_STEPS_SLOW, scale)

        out = [
            (m, functools.partial(self._sim_cell, m, self.plain, m, count(m)))
            for m in ALGORITHMS
        ]
        for m in ZOO_TAX_METHODS:
            out.append((f"{m}+trace", functools.partial(
                self._sim_cell, f"{m}+trace", self.traced, m, count(m))))
        for m in ZOO_TAX_METHODS:
            out.append((f"{m}+ckpt", functools.partial(
                self._ckpt_cell, f"{m}+ckpt", m, count(m))))
        return out

    def check_pass(self, cells):
        super().check_pass(cells)
        by_name = {c.name: c.ops[0] for c in cells}
        # Tracing and checkpointing may cost time, never change the run.
        for m in ZOO_TAX_METHODS:
            for tax in ("trace", "ckpt"):
                op, twin = by_name[f"{m}+{tax}"], by_name[m]
                if op.error is None and twin.error is None and op.digest != twin.digest:
                    op.error = f"{tax} changed the trajectory of {m}"


    def result_metrics(self, passes):
        out = super().result_metrics(passes)
        first = {c.name: c.ops[0] for c in passes[0]}

        def tax(suffix: str) -> float:  # step time with the feature / without
            return float(np.mean([
                (best_wall(passes, m + suffix) / first[m + suffix].steps)
                / (best_wall(passes, m) / first[m].steps) for m in ZOO_TAX_METHODS]))

        traced = [first[f"{m}+trace"] for m in ZOO_TAX_METHODS]
        ckpt = [first[f"{m}+ckpt"] for m in ZOO_TAX_METHODS]
        writes = sum(op.extras.get("ckpt_writes", 0) for op in ckpt)
        stall = sum(best_wall(passes, f"{m}+ckpt") - best_wall(passes, m)
                    for m in ZOO_TAX_METHODS)
        out.update({
            "trace.tax_ratio": tax("+trace"),
            "trace.events_per_step": (sum(op.extras.get("trace_events", 0) for op in traced)
                                      / sum(op.steps for op in traced)),
            "durability.tax_ratio": tax("+ckpt"),
        })
        if writes:
            out["durability.stall_ms_per_ckpt"] = 1e3 * stall / writes
            out["durability.bytes_per_ckpt"] = (
                sum(op.extras["ckpt_bytes"] for op in ckpt) / writes)
        return out


def _allreduce_program(ctx, init: np.ndarray, iterations: int, warmup: int, lr: float):
    """The packed-allreduce inner loop of the synchronous trainers, alone.

    Pseudo-gradient add straight into the collective buffer, allreduce,
    SGD update — the rank program ``bench_transport.py`` uses, with seeded
    initial weights.  Each rank times every step; the caller folds them
    into per-step walls (max across ranks).
    """
    elems = init.size + 1
    weights = init.copy()
    buf = ctx.collective_buffer(elems)
    scratch = np.empty(elems - 1, dtype=np.float32)
    walls: List[float] = []
    cpu0 = t_begin = 0.0
    warm_digest = ""
    for t in range(iterations + warmup):
        if t == warmup:
            # Every cell of a buffer size runs the same warm-up steps, so
            # this digest must agree across schedules and backends.
            warm_digest = _digest(weights)
            cpu0, t_begin = time.process_time(), time.perf_counter()
        t0 = time.perf_counter()
        np.add(weights, np.float32((ctx.rank + 1) * 1e-6 * ((t % 7) + 1)), out=buf[:-1])
        buf[-1] = np.float32(ctx.rank + t)  # stand-in for the batch loss
        total = ctx.allreduce(buf, view=True)
        np.multiply(total[:-1], np.float32(lr / ctx.size), out=scratch)
        np.subtract(weights, scratch, out=weights)
        if t >= warmup:
            walls.append(time.perf_counter() - t0)
    return {
        "digest": _digest(weights),
        "warm_digest": warm_digest,
        "finite": bool(np.isfinite(weights).all()),
        "walls": walls,
        "cpu": time.process_time() - cpu0,
        "pid": os.getpid(),
        "window": (t_begin, time.perf_counter()),
    }


class AllreduceRanks(Workload):
    name = "allreduce-ranks"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.init = {
            elems: (0.01 * rng.standard_normal(elems - 1)).astype(np.float32)
            for elems in (BULK_ELEMS, SMALL_ELEMS)
        }

    def _cell(self, size, elems, backend, transport, collective, steps) -> Cell:
        name = f"{size}/{backend}/{collective}"
        op = Op(name, steps, training=False)
        cell = Cell(name, [op], 0.0, 0.0, (0.0, 0.0), {"size": size, "nbytes": 4 * elems})

        def call() -> None:
            comm = make_communicator(2, backend=backend, timeout=120.0,
                                     transport=transport, collective=collective)
            try:
                ranks = comm.run(_allreduce_program, self.init[elems], steps,
                                 ALLREDUCE_WARMUP, 0.05)
            finally:
                comm.close()
            # A synchronous step ends when its slowest rank does.
            cell.extras["step_walls"] = walls = [
                max(r["walls"][t] for r in ranks) for t in range(steps)]
            cell.wall = sum(walls)
            per_pid: Dict[int, float] = {}
            for r in ranks:  # thread ranks share one process clock
                per_pid[r["pid"]] = max(per_pid.get(r["pid"], 0.0), r["cpu"])
            cell.cpu = sum(per_pid.values())
            cell.window = (min(r["window"][0] for r in ranks),
                           max(r["window"][1] for r in ranks))
            stats = getattr(comm, "transport_stats", None) or {}
            all_steps = steps + ALLREDUCE_WARMUP
            op.extras = {
                "bytes_copied": (stats.get("bytes_copied_in", 0)
                                 + stats.get("bytes_copied_out", 0)) / all_steps,
                "bytes_inplace": stats.get("bytes_inplace", 0) / all_steps,
                "bytes_on_wire": stats.get("bytes_on_wire", 0) / all_steps,
            }
            op.digest = ranks[0]["digest"]
            op.extras["warm_digest"] = ranks[0]["warm_digest"]
            if len({r["digest"] for r in ranks}) != 1:
                raise RuntimeError("ranks disagree on the final weights")
            if not all(r["finite"] for r in ranks):
                raise RuntimeError("non-finite weights")

        _attempt(op, call)
        return cell

    def cells(self, scale):
        return [
            (f"{c[0]}/{c[2]}/{c[4]}", functools.partial(self._cell, *c[:5], _steps(c[5], scale)))
            for c in ALLREDUCE_CELLS
        ]

    def check_pass(self, cells):
        super().check_pass(cells)
        # Every schedule and backend runs the same arithmetic: one
        # after-warm-up digest per buffer size (step counts differ later).
        by_size: Dict[str, List[Op]] = {}
        for cell in cells:
            by_size.setdefault(cell.extras["size"], []).append(cell.ops[0])
        for ops in by_size.values():
            if len({op.extras["warm_digest"] for op in ops if op.error is None}) > 1:
                for op in ops:
                    op.error = op.error or "tree/ring/backend digests differ"


    def result_metrics(self, passes):
        out = super().result_metrics(passes)
        cells = [c for p in passes for c in p if "step_walls" in c.extras]
        p50 = {size: [float(np.median(c.extras["step_walls"])) for c in cells
                      if c.extras["size"] == size] for size in ("bulk", "small")}
        spreads = []
        for name in {c.name for c in cells}:
            walls = [w for c in cells if c.name == name for w in c.extras["step_walls"]]
            spreads.append(float(np.percentile(walls, 95) / np.percentile(walls, 50)))
        moved = [c.ops[0].extras for c in passes[0]
                 if c.name.startswith("bulk/processes") and c.ops[0].error is None]
        if p50["bulk"] and p50["small"]:
            out.update({
                "comm.bulk_gb_per_s": 4 * BULK_ELEMS / float(np.median(p50["bulk"])) / 1e9,
                "comm.small_step_us_p50": 1e6 * float(np.median(p50["small"])),
                "comm.step_spread_p95_p50": max(spreads),  # the worst cell
            })
        if moved:
            out.update({f"comm.transport_{key}_per_step": float(np.mean([m[key] for m in moved]))
                        for key in ("bytes_copied", "bytes_inplace", "bytes_on_wire")})
        return out


def _noop_program(ctx) -> int:
    return ctx.rank


class MlpRanksSweep(Workload):
    name = "mlp-ranks-sweep"
    headline = "sync-sgd-ring/threads"

    def setup(self) -> None:
        self._mnist(build_mlp)
        self.net = self.builder()
        kw = dict(batch_size=16, seed=self.seed)
        net, train = self.net, self.train
        #: name -> (call(steps, **launch_kwargs), result -> (weights, losses))
        self.programs = {
            "sync-easgd": (
                lambda n, **k: run_mpi_sync_easgd(net, train, 2, n, **kw, **k),
                lambda r: ([r.center, *r.worker_weights], None)),
            "sync-sgd-ring": (
                lambda n, **k: run_mpi_sync_sgd(net, train, 2, n, collective="ring", **kw, **k),
                lambda r: ([r.weights], r.mean_losses)),
            "async-easgd": (
                lambda n, **k: run_mpi_async_easgd(net, train, 3, n, **kw, **k),
                lambda r: ([r.center, *r.worker_weights], r.mean_losses)),
            "downpour": (
                lambda n, **k: run_mpi_ps("downpour", net, train, 3, n, **kw, **k),
                lambda r: ([r.center, *r.worker_weights], r.mean_losses)),
            "gossip": (
                lambda n, **k: run_mpi_gossip(net, train, 2, n, **kw, **k),
                lambda r: ([r.center, *r.worker_weights], r.mean_losses)),
        }

    def _launch(self, discipline: str, program: str, steps: int, **launch) -> Op:
        op = Op(f"{program}/{discipline}", steps)
        call, unpack = self.programs[program]

        def run() -> None:
            weights, losses = unpack(call(steps, **launch))
            op.digest = _digest(*weights)
            if not all(np.isfinite(w).all() for w in weights):
                raise RuntimeError("non-finite weights")
            if losses:
                op.loss_first, op.loss_final = float(losses[0]), float(losses[-1])
                op.extras["losses"] = [float(v) for v in losses]

        return _attempt(op, run)

    def _discipline(self, discipline: str, steps: int) -> Cell:
        with _Timed() as t:
            if discipline == "threads":
                ops = [self._launch(discipline, p, steps, backend="threads")
                       for p in self.programs]
            elif discipline == "cold":  # a fresh fork per launch
                ops = [self._launch(discipline, p, steps, backend="processes",
                                    transport="shm") for p in self.programs]
            else:  # pooled: the pool's own spin-up and close are paid here
                pool = WorkerPool(SWEEP_POOL_SIZE)
                try:
                    ops = [self._launch(discipline, p, steps, backend="processes",
                                        transport="shm", pool=pool)
                           for p in self.programs]
                finally:
                    pool.close()
        return Cell(discipline, ops, t.wall, t.cpu, t.window)

    def cells(self, scale):
        steps = _steps(SWEEP_STEPS, scale)
        return [(d, functools.partial(self._discipline, d, steps))
                for d in ("cold", "pooled", "threads")]

    def check_pass(self, cells):
        super().check_pass(cells)
        by_program: Dict[str, List[Op]] = {}
        for cell in cells:
            for op in cell.ops:
                by_program.setdefault(op.name.split("/")[0], []).append(op)
        for ops in by_program.values():
            if len({op.digest for op in ops if op.error is None}) > 1:
                for op in ops:
                    op.error = op.error or "cold/pooled/threads weight digests differ"

    def result_metrics(self, passes):
        out = super().result_metrics(passes)
        out["pool.cold_over_pooled"] = best_wall(passes, "cold") / best_wall(passes, "pooled")
        return out

    def layer_extras(self) -> Dict[str, float]:
        def median_ms(fn: Callable[[], None], repeats: int) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return 1e3 * float(np.median(times))

        def launch() -> None:
            comm = make_communicator(2, backend="processes", transport="shm")
            try:
                comm.run(_noop_program)
            finally:
                comm.close()

        pools: List[WorkerPool] = []
        try:
            spinup = median_ms(lambda: pools.append(WorkerPool(SWEEP_POOL_SIZE)), 3)
            dispatch = median_ms(lambda: pools[0].run(2, _noop_program), 9)
        finally:
            for pool in pools:
                pool.close()
        return {
            "comm.launch_ms": median_ms(launch, 5),
            "pool.spinup_ms": spinup,
            "pool.dispatch_ms_per_cell": dispatch,
        }


def _raising_program(ctx) -> None:
    total = ctx.allreduce(np.ones(SMALL_ELEMS, dtype=np.float32))
    if ctx.rank == 1:
        raise RuntimeError(f"injected failure after allreduce ({total[0]:.0f} ranks)")


def failing_cell() -> Cell:
    """A cell whose one op raises inside a forked shm rank (``--inject-failure``).

    It exists so the tests can show a failed op is counted, fails the run,
    and leaves no ``/dev/shm`` segment behind.
    """
    op = Op("injected-failure", 1, training=False)

    def call() -> None:
        comm = make_communicator(2, backend="processes", transport="shm")
        try:
            comm.run(_raising_program)
        finally:
            comm.close()

    with _Timed() as t:
        _attempt(op, call)
    return Cell("injected-failure", [op], t.wall, t.cpu, t.window)


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (LenetSimSync, MlpSimZoo, AllreduceRanks, MlpRanksSweep)
}
