"""Span probes: the benchmark's own tracing, installed from outside ``src/``.

A probe replaces one *public* attribute of the program (a module-level
function, or a method on a public class and on the subclasses that
override it) with a wrapper that records a span around the call: layer,
name, start, end, the span that was open when it started, and the
process/thread it ran in.  Nothing under ``src/`` knows the probes exist;
``uninstall`` puts every original object back.

Spans live in an in-memory list.  A forked rank starts with an empty list
(``os.register_at_fork``) and writes what it recorded to a per-pid file
when its rank program returns (the ``run_rank_program`` probe); the
parent merges those files with :meth:`Recorder.drain`.

Span names double as metric stems: ``attribution.py`` turns the self
time of the spans called ``nn.conv_fwd`` into ``nn.conv_fwd_ms_per_step``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
from pathlib import Path
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Target", "TARGETS", "Recorder", "Probes", "resolve", "import_targets"]


class Span(NamedTuple):
    pid: int
    tid: int
    sid: int
    parent: int  # sid of the enclosing span in the same thread, -1 for a root
    layer: str
    name: str
    t0: float  # time.perf_counter(): CLOCK_MONOTONIC, shared by forked ranks
    t1: float
    n: float  # work counted at this boundary (bytes, FLOPs), 0 when none
    cpu: float  # thread CPU seconds inside the span, -1 when not sampled


class Target(NamedTuple):
    """One public attribute to wrap.

    ``path`` is ``"module:attr"`` for a module-level function (every
    ``repro.*`` module that imported the function by name is patched too,
    since ``from m import f`` binds a second public name to it) or
    ``"module:Class.attr"`` for a method (``Class.*``: every public method
    the class defines).  ``subclasses`` also wraps the overrides found
    through ``Class.__subclasses__()``.
    """

    path: str
    name: str
    subclasses: bool = False
    #: ``count(recorder, args, kwargs, result)``: work done by the call.
    count: Optional[Callable[["Recorder", tuple, dict, Any], float]] = None
    cpu: bool = False  # sample thread CPU: wall - cpu is time blocked on a peer

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _payload_bytes(payload: Any) -> int:
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_bytes(p) for p in payload)
    return 0


def _send_bytes(_rec, args, kwargs, _result) -> float:
    return _payload_bytes(kwargs["payload"] if "payload" in kwargs else args[1])


def _array_bytes(_rec, args, kwargs, _result) -> float:
    return _payload_bytes(kwargs["array"] if "array" in kwargs else args[1])


def _gradient_flops(rec, args, _kwargs, result) -> float:
    # The batch loss rides along for ``algorithms.steps_to_loss_target``.
    rec.losses.append((time.perf_counter(), float(result)))
    # The repo's own cost model: backward = 2x forward (Layer.flops_per_sample).
    net, images = args[0], args[1]
    return 3.0 * net.flops_per_sample() * len(images)


def _evaluate_flops(_rec, args, _kwargs, _result) -> float:
    net, images = args[0], args[1]
    return float(net.flops_per_sample() * len(images))


_NN = "repro.nn"
_CTX = "repro.comm.runtime:RankContextBase"

#: Every probe, grouped by the repo module (= layer) it belongs to.
TARGETS: Tuple[Target, ...] = (
    # -- data ---------------------------------------------------------------
    Target("repro.data.loader:BatchSampler.next_batch", "data.batch"),
    Target("repro.data.loader:BatchSampler.next_batch_into", "data.batch"),
    Target("repro.algorithms.base:BaseTrainer.make_sampler", "data.sampler"),
    # -- nn -----------------------------------------------------------------
    Target(f"{_NN}.layers:Conv2D.forward", "nn.conv_fwd"),
    Target(f"{_NN}.layers:Conv2D.backward", "nn.conv_bwd"),
    Target(f"{_NN}.layers:im2col", "nn.im2col"),
    Target(f"{_NN}.layers:col2im", "nn.col2im"),
    Target(f"{_NN}.layers:MaxPool2D.forward", "nn.pool_fwd"),
    Target(f"{_NN}.layers:MaxPool2D.backward", "nn.pool_bwd"),
    Target(f"{_NN}.layers:AvgPool2D.forward", "nn.pool_fwd"),
    Target(f"{_NN}.layers:AvgPool2D.backward", "nn.pool_bwd"),
    Target(f"{_NN}.activations:ReLU.forward", "nn.act_fwd"),
    Target(f"{_NN}.activations:ReLU.backward", "nn.act_bwd"),
    Target(f"{_NN}.activations:Tanh.forward", "nn.act_fwd"),
    Target(f"{_NN}.activations:Tanh.backward", "nn.act_bwd"),
    Target(f"{_NN}.activations:Sigmoid.forward", "nn.act_fwd"),
    Target(f"{_NN}.activations:Sigmoid.backward", "nn.act_bwd"),
    Target(f"{_NN}.layers:Dense.forward", "nn.dense_fwd"),
    Target(f"{_NN}.layers:Dense.backward", "nn.dense_bwd"),
    Target(f"{_NN}.losses:SoftmaxCrossEntropy.forward", "nn.loss"),
    Target(f"{_NN}.losses:SoftmaxCrossEntropy.backward", "nn.loss"),
    Target(f"{_NN}.network:Network.set_params", "nn.param_copy"),
    Target(f"{_NN}.network:Network.get_params", "nn.param_copy"),
    Target("repro.comm.arena:BufferArena.fill", "nn.param_copy"),
    Target(f"{_NN}.network:Network.gradient", "nn.gradient", count=_gradient_flops),
    Target(f"{_NN}.network:Network.forward", "nn.forward"),
    Target(f"{_NN}.network:Network.backward", "nn.backward"),
    Target(f"{_NN}.network:Network.zero_grads", "nn.zero_grads"),
    Target(f"{_NN}.network:Network.clone", "nn.clone"),
    Target(f"{_NN}.network:Network.evaluate", "nn.eval", count=_evaluate_flops),
    # -- optim --------------------------------------------------------------
    Target("repro.optim.easgd:elastic_worker_update", "optim.update"),
    Target("repro.optim.easgd:elastic_center_update", "optim.update"),
    Target("repro.optim.easgd:elastic_center_update_single", "optim.update"),
    Target("repro.optim.easgd:elastic_momentum_worker_update", "optim.update"),
    Target("repro.optim.sgd:SGDRule.apply", "optim.update"),
    Target("repro.optim.sgd:MomentumRule.apply", "optim.update"),
    Target("repro.engine.strategy:UpdateRule.apply", "optim.update", subclasses=True),
    # -- engine -------------------------------------------------------------
    Target("repro.engine.pipeline:StepPipeline.run", "engine.run"),
    Target("repro.engine.pipeline:StepPipeline.eval_view", "engine.run"),
    Target("repro.engine.policy:EvalPolicy.snapshot", "engine.snapshot"),
    Target("repro.algorithms.base:BaseTrainer.evaluate_params", "engine.evaluate"),
    Target("repro.engine.compute:gather_gradients", "engine.run"),
    Target("repro.engine.compute:jittered_fwdbwd", "engine.run"),
    Target("repro.engine.faults:SyncFaultTracker.prologue", "engine.run"),
    Target("repro.engine.ps:CenterStore.push", "engine.ps", subclasses=True),
    Target("repro.engine.ps:CenterStore.pull", "engine.ps", subclasses=True),
    Target("repro.engine.ps:CenterStore.bind", "engine.ps", subclasses=True),
    Target("repro.engine.ps:ElasticCenterStore.exchange", "engine.ps"),
    Target("repro.engine.ps:ElasticCenterStore.fold_sum", "engine.ps"),
    Target("repro.engine.ps:GossipStore.mix", "engine.ps"),
    Target("repro.engine.ps:GossipStore.consensus_into", "engine.ps"),
    Target("repro.engine.ps:WorkerRule.apply", "engine.ps", subclasses=True),
    Target("repro.engine.ps:WorkerRule.local_step", "engine.ps", subclasses=True),
    Target("repro.engine.ps:StalenessBound.admit", "engine.ps"),
    # -- algorithms ---------------------------------------------------------
    Target("repro.engine.strategy:StepStrategy.begin", "algorithms.step", subclasses=True),
    Target("repro.engine.strategy:ClockStepStrategy.step", "algorithms.step", subclasses=True),
    Target("repro.engine.strategy:EventStepStrategy.advance", "algorithms.step", subclasses=True),
    Target("repro.engine.strategy:CommStrategy.charge", "algorithms.step", subclasses=True),
    Target("repro.engine.strategy:CommStrategy.emit", "algorithms.step", subclasses=True),
    Target("repro.algorithms.base:BaseTrainer.train", "algorithms.train"),
    Target("repro.algorithms.mpi_easgd:run_mpi_sync_easgd", "algorithms.run_mpi"),
    Target("repro.algorithms.mpi_sgd:run_mpi_sync_sgd", "algorithms.run_mpi"),
    Target("repro.algorithms.mpi_async_easgd:run_mpi_async_easgd", "algorithms.run_mpi"),
    Target("repro.algorithms.ps_runner:run_mpi_ps", "algorithms.run_mpi"),
    Target("repro.algorithms.ps_runner:run_mpi_gossip", "algorithms.run_mpi"),
    # -- cluster ------------------------------------------------------------
    Target("repro.cluster.platform:GpuPlatform.*", "cluster.cost"),
    Target("repro.cluster.platform:KnlPlatform.*", "cluster.cost"),
    Target("repro.cluster.multinode:GpuClusterPlatform.*", "cluster.cost"),
    Target("repro.cluster.cost:CostModel.fwdbwd_flops", "cluster.cost"),
    Target("repro.cluster.cost:CostModel.batch_bytes", "cluster.cost"),
    Target("repro.cluster.simclock:EventQueue.push", "cluster.cost"),
    Target("repro.cluster.simclock:EventQueue.pop", "cluster.cost"),
    # -- comm: in-process reductions the simulated trainers call --------------
    Target("repro.comm.collectives:tree_reduce", "comm.reduce"),
    Target("repro.comm.collectives:tree_reduce_into", "comm.reduce"),
    Target("repro.comm.collectives:ring_allreduce", "comm.reduce"),
    # -- comm: the rank runtimes ----------------------------------------------
    Target(f"{_CTX}.allreduce", "comm.allreduce", subclasses=True, count=_array_bytes),
    Target(f"{_CTX}.reduce", "comm.collective", subclasses=True, count=_array_bytes),
    Target(f"{_CTX}.bcast", "comm.collective", subclasses=True, count=_send_bytes),
    Target(f"{_CTX}.barrier", "comm.collective", subclasses=True),
    Target(f"{_CTX}.collective_buffer", "comm.collective", subclasses=True),
    Target(f"{_CTX}.send", "comm.send", subclasses=True, count=_send_bytes),
    Target(f"{_CTX}.recv", "comm.recv", subclasses=True, cpu=True),
    Target("repro.comm.backend:make_communicator", "comm.launch"),
    Target("repro.comm.mp_runtime:MultiprocessCommunicator.run", "comm.run", cpu=True),
    Target("repro.comm.runtime:InProcessCommunicator.run", "comm.run", cpu=True),
    Target("repro.comm.mp_runtime:MultiprocessCommunicator.close", "comm.launch"),
    Target("repro.comm.runtime:InProcessCommunicator.close", "comm.launch"),
    Target("repro.comm.mp_runtime:run_rank_program", "comm.rank_program"),
    # -- pool ---------------------------------------------------------------
    Target("repro.pool.worker_pool:WorkerPool.submit", "pool.dispatch"),
    Target("repro.pool.worker_pool:WorkerPool.close", "pool.close"),
    Target("repro.pool.worker_pool:PoolJob.wait", "pool.wait", cpu=True),
    # -- trace --------------------------------------------------------------
    Target("repro.trace.events:Trace.add", "trace.emit"),
    Target("repro.trace.events:Trace.send", "trace.emit"),
    Target("repro.trace.events:Trace.recv", "trace.emit"),
    Target("repro.trace.events:Trace.span", "trace.emit"),
    Target("repro.trace.events:Trace.fault", "trace.emit"),
    Target("repro.trace.schedule:emit_tree_phase", "trace.emit"),
    # -- durability ---------------------------------------------------------
    Target("repro.durability.checkpoint:CheckpointManager.due", "durability.ckpt"),
    Target("repro.durability.checkpoint:CheckpointManager.save_async", "durability.ckpt"),
    Target("repro.durability.checkpoint:CheckpointManager.save", "durability.write"),
    Target("repro.durability.checkpoint:CheckpointManager.drain", "durability.ckpt"),
    # -- harness ------------------------------------------------------------
    Target("repro.harness.experiment:run_method", "harness.run_method"),
    Target("repro.harness.experiment:build_trainer", "harness.build_trainer"),
)


_RAISED = object()  # stands for "the wrapped call did not return"


class Recorder:
    """The in-memory span list plus the per-thread stack of open spans."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.enabled = False
        self.spans: List[Span] = []
        self.ids = itertools.count()
        self.local = threading.local()
        #: (time, batch loss) per ``Network.gradient`` call in this process,
        #: for ``algorithms.steps_to_loss_target``.
        self.losses: List[Tuple[float, float]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits a copy of the parent's spans; they are the
        # parent's to report.  Only the forking thread survives a fork.
        self.pid = os.getpid()
        self.spans.clear()
        self.losses.clear()
        self.local.stack = []

    def stack(self) -> List[int]:
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            return self.local.stack

    def wrap(self, fn: Callable, target: Target) -> Callable:
        layer, name, count, cpu = target.layer, target.name, target.count, target.cpu
        spans, ids = self.spans, self.ids
        perf_counter, thread_time, get_ident = (
            time.perf_counter, time.thread_time, threading.get_ident)
        flush = name == "comm.rank_program"

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self.stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            n = 0.0
            result = _RAISED
            c0 = thread_time() if cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                c = thread_time() - c0 if cpu else -1.0
                stack.pop()
                if count is not None and result is not _RAISED:
                    n = count(self, args, kwargs, result)
                spans.append(Span(self.pid, get_ident(), sid, parent, layer, name,
                                  t0, t1, n, c))
                if flush:
                    self.flush_child()

        probe.__spine_original__ = fn
        return probe

    # -- forked ranks -----------------------------------------------------------
    def flush_child(self) -> None:
        """In a forked rank: append this process's spans to its own file."""
        if self.pid == self.owner_pid or not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"rank-{self.owner_pid}-{self.pid}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")
        self.spans.clear()

    def drain(self) -> List[Span]:
        """In the parent: take every span recorded so far, ranks' included."""
        out = self.spans[:]
        self.spans.clear()
        for path in sorted(self.out_dir.glob(f"rank-{self.owner_pid}-*.jsonl")):
            with open(path) as fh:
                out.extend(Span(*json.loads(line)) for line in fh)
            path.unlink()
        return out


def _subclasses(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def resolve(target: Target) -> List[Tuple[Any, str]]:
    """The ``(owner, attribute)`` places where ``target`` is bound.

    Raises ImportError/AttributeError when the target no longer exists.
    Import every target's module *before* resolving any function target
    (:func:`import_targets`): a module imported later would bind a name
    this scan never saw.
    """
    mod_name, _, qual = target.path.partition(":")
    module = importlib.import_module(mod_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name)
        if attr == "*":
            return [(cls, name) for name, value in vars(cls).items()
                    if isinstance(value, types.FunctionType) and not name.startswith("_")]
        classes = [cls] + (_subclasses(cls) if target.subclasses else [])
        owners = [(c, attr) for c in classes if attr in c.__dict__]
        if not owners:
            raise AttributeError(target.path)
        return owners
    fn = getattr(module, qual)
    # ``from m import f`` gave other repro modules their own public name
    # for the same function; calls through those names must be seen too.
    return [
        (mod, name)
        for mod_key, mod in list(sys.modules.items())
        if mod is not None and (mod_key == "repro" or mod_key.startswith("repro."))
        for name, value in list(vars(mod).items())
        if value is fn and not name.startswith("_")
    ]


def import_targets(targets: Tuple[Target, ...]) -> None:
    for target in targets:
        try:
            importlib.import_module(target.path.partition(":")[0])
        except ImportError:
            pass  # reported as missing when the target is resolved


class Probes:
    """Install a set of :class:`Target` wrappers, and take them out again."""

    def __init__(self, recorder: Recorder, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        self.patched: List[Tuple[Any, str, Any]] = []  # (owner, attr, original)
        self.missing: List[str] = []  # target paths that no longer resolve
        self.missing_names: set = set()  # their span names: metrics become null

    def install(self) -> "Probes":
        import_targets(self.targets)
        wrapped: Dict[int, Callable] = {}  # one wrapper per original function
        for target in self.targets:
            try:
                owners = resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                self.missing_names.add(target.name)
                continue
            for owner, attr in owners:
                original = owner.__dict__[attr]
                if hasattr(original, "__spine_original__"):
                    continue  # reached twice (e.g. via two base classes)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.recorder.wrap(original, target)
                setattr(owner, attr, wrapped[id(original)])
                self.patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
