"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the registered training methods (names only; the top-level
    ``--list-algorithms`` flag prints the full table with family,
    sync style, and paper section).
``run``
    Train one method on a synthetic dataset and print the summary
    (optionally archive the trajectory as JSON).
``table``
    Print a reproduction of paper Table 1, 2, or 4.
``knl``
    Run the KNL chip-partition experiment (Section 6.2 / Figure 12) on the
    serial simulator or on real forked processes over shared memory.
``serve``
    Train one method while a serving front-end answers inference traffic
    from the freshest published center weights (see ``docs/serving.md``).
``sweep``
    Run one method over a hyperparameter grid, inline or multiplexed
    over a persistent worker pool (``--pool``/``--pool-size``) so fork
    and shm spin-up is paid once per worker instead of once per cell.
"""

from __future__ import annotations

import argparse
from functools import partial
import math
import sys
from typing import List, Optional, Tuple

from repro.algorithms import (
    ALGORITHM_INFO,
    ALGORITHMS,
    TrainerConfig,
    UnsupportedOptionError,
)
from repro.cluster import CostModel
from repro.comm.backend import BACKENDS
from repro.comm.collectives import COLLECTIVES
from repro.data import make_cifar_like, make_mnist_like
from repro.durability.errors import CheckpointError
from repro.faults import FaultError, FaultPlan
from repro.harness.breakdown import breakdown_row, render_table3
from repro.harness.experiment import ExperimentSpec, run_method
from repro.harness.results import results_to_json
from repro.harness.sweeps import _check_axis, best_point, grid_sweep
from repro.harness.tables import render_table1, render_table2, render_table4
from repro.nn.models import (
    build_alexnet_mini,
    build_googlenet_mini,
    build_lenet,
    build_mlp,
    build_resnet_mini,
    build_vgg_mini,
)
from repro.nn.network import Network
from repro.nn.spec import ALEXNET, LENET
from repro.util.tables import TextTable

_DATASETS = {"mnist": make_mnist_like, "cifar": make_cifar_like}
_MODELS = {
    "mlp": build_mlp,
    "lenet": build_lenet,
    "alexnet": build_alexnet_mini,
    "vgg": build_vgg_mini,
    "googlenet": build_googlenet_mini,
    "resnet": build_resnet_mini,
}


class _Exit(Exception):
    """A command's refusal or failure: :func:`main` prints the message to
    stderr and returns ``code`` (2 bad input, 3 the run failed, 4 a trace
    invariant violated)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _ListAlgorithmsAction(argparse.Action):
    """``--list-algorithms``: print the registry as an aligned table (name,
    family, class, staleness, ...) and exit.

    A top-level flag (not a subcommand) so it works without naming one —
    the subparser itself is ``required``.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        table = TextTable(("method", "family", "class", "mode", "staleness", "paper"))
        for name, info in sorted(ALGORITHM_INFO.items()):
            table.add_row((name, info.family, info.family_class, info.sync,
                           info.staleness, info.section))
        print(table.render())
        parser.exit(0)


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume flags shared by the ``run`` and ``knl`` commands."""
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for crash-safe checkpoints; required "
                             "by --checkpoint-every and --resume")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="N",
                        help="write a checkpoint every N steps (0 disables)")
    parser.add_argument("--checkpoint-keep", type=int, default=3, metavar="K",
                        help="retain the K newest checkpoint versions")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the newest valid checkpoint in "
                             "--checkpoint-dir (bit-identical continuation)")


def _add_experiment_args(
    parser: argparse.ArgumentParser, *, method: Optional[str], model: str,
    iterations: int, train_samples: int, difficulty: float,
) -> None:
    """The experiment flags ``run``, ``serve`` and ``sweep`` share; the
    keywords are the defaults the three differ in (``method=None`` makes
    ``--method`` required)."""
    parser.add_argument("--method", required=method is None, default=method,
                        choices=sorted(ALGORITHMS))
    parser.add_argument("--dataset", default="mnist", choices=sorted(_DATASETS))
    parser.add_argument("--model", default=model, choices=sorted(_MODELS))
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=iterations)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=0.03)
    parser.add_argument("--rho", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-samples", type=int, default=train_samples)
    parser.add_argument("--difficulty", type=float, default=difficulty)


def _datasets(args: argparse.Namespace, dataset: str):
    """The (train, test) pair of ``dataset`` the sample flags describe."""
    return _DATASETS[dataset](
        n_train=args.train_samples,
        n_test=max(args.train_samples // 4, 256),
        seed=args.seed,
        difficulty=args.difficulty,
    )


def _build_model(args: argparse.Namespace) -> Network:
    """A fresh network of the ``--model`` the flags name, shaped for ``--dataset``."""
    shape = {}
    if args.dataset == "cifar" and args.model in ("mlp", "lenet"):
        shape["input_shape"] = (3, 32, 32)
    return _MODELS[args.model](seed=args.seed, **shape)


def _build_spec(args: argparse.Namespace, cost_model: Optional[CostModel] = None,
                **config_fields) -> ExperimentSpec:
    """The normalized :class:`ExperimentSpec` those flags describe;
    ``config_fields`` are the command's own :class:`TrainerConfig` fields
    (validated first: a bad one raises ``ValueError`` before any data is
    generated)."""
    config = TrainerConfig(batch_size=args.batch_size, lr=args.lr, rho=args.rho,
                           seed=args.seed, **config_fields)
    train, test = _datasets(args, args.dataset)
    return ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=partial(_build_model, args),
        num_gpus=args.gpus,
        config=config,
        cost_model=cost_model,
    ).normalize()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling Deep Learning on GPU and KNL clusters' (SC'17)",
    )
    parser.add_argument(
        "--list-algorithms", action=_ListAlgorithmsAction,
        help="print the algorithm registry (name, family, sync style, "
             "paper section) and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered training methods")

    run = sub.add_parser("run", help="train one method on a synthetic dataset")
    _add_experiment_args(run, method=None, model="lenet", iterations=200,
                         train_samples=4096, difficulty=1.5)
    run.add_argument("--target", type=float, default=None,
                     help="train to this test accuracy instead of a fixed length")
    run.add_argument("--collective", default=None, choices=COLLECTIVES,
                     help="sync-sgd's allreduce schedule: 'tree' (binomial, "
                          "log-P latency; the default) or 'ring' (sharded "
                          "reduce-scatter + allgather, constant per-rank "
                          "bandwidth); the results are bit-identical")
    run.add_argument("--paper-scale-cost", action="store_true",
                     help="charge the clock for the full-scale model (LeNet/AlexNet spec)")
    run.add_argument("--tau", type=int, default=None, metavar="T",
                     help="staleness bound for bounded-async-easgd: reject or "
                          "clip contributions staler than T master versions "
                          "(default: 2*(P-1))")
    run.add_argument("--staleness-policy", default=None,
                     choices=("reject", "clip"),
                     help="what bounded-async-easgd does past --tau: 'reject' "
                          "(discard + resync, the hard guarantee) or 'clip' "
                          "(apply damped by tau/staleness)")
    run.add_argument("--local-steps", type=int, default=None, metavar="N",
                     help="local batches per master exchange for the "
                          "multi-step zoo families (downpour, adag, eamsgd; "
                          "default 4)")
    run.add_argument("--faults", metavar="SPEC", default=None,
                     help="fault plan, e.g. 'crash:1@0.5>2.0;straggler:2x3.0;drop:0.05' "
                          "(clauses: crash:W@T[>R] straggler:WxF[@T] stall:W@T+D "
                          "drop:P delay:P@S seed:N)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="write the trajectory to a JSON file")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record a communication trace and write it here "
                          "(.jsonl -> archive format; anything else -> "
                          "Chrome/Perfetto JSON), then verify its structural "
                          "invariants")
    _add_durability_args(run)

    table = sub.add_parser("table", help="print a paper-table reproduction")
    table.add_argument("id", choices=["1", "2", "4"])

    knl = sub.add_parser("knl", help="run the KNL chip-partition experiment")
    knl.add_argument("--parts", type=int, default=4,
                     help="number of chip groups P (batch must divide evenly)")
    knl.add_argument("--iterations", type=int, default=100)
    knl.add_argument("--batch-size", type=int, default=64)
    knl.add_argument("--lr", type=float, default=0.03)
    knl.add_argument("--seed", type=int, default=0)
    knl.add_argument("--train-samples", type=int, default=2048)
    knl.add_argument("--difficulty", type=float, default=1.2)
    knl.add_argument("--backend", default="threads", choices=BACKENDS,
                     help="'threads' runs the serial simulator; 'processes' "
                          "forks one worker per group over shared memory "
                          "(same weights either way)")
    knl.add_argument("--json", metavar="PATH", default=None,
                     help="write the trajectory to a JSON file")
    _add_durability_args(knl)

    serve = sub.add_parser(
        "serve",
        help="train while serving inference from live center weights",
    )
    _add_experiment_args(serve, method="sync-easgd3", model="mlp", iterations=100,
                         train_samples=1024, difficulty=1.2)
    serve.add_argument("--requests", type=int, default=200,
                       help="total inference requests to issue")
    serve.add_argument("--loop", default="open", choices=("open", "closed"),
                       help="open: arrivals fire on schedule regardless of "
                            "completions; closed: --clients users in a "
                            "submit/wait/think cycle")
    serve.add_argument("--arrival", default="poisson", choices=("poisson", "onoff"),
                       help="open-loop arrival process (onoff = bursty)")
    serve.add_argument("--rate", type=float, default=500.0,
                       help="open-loop arrival rate, requests/s (onoff: the "
                            "in-burst rate)")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop concurrent clients")
    serve.add_argument("--think", type=float, default=0.001,
                       help="closed-loop mean think time, seconds")
    serve.add_argument("--batch-cap", type=int, default=8,
                       help="micro-batcher admission cap")
    serve.add_argument("--max-wait", type=float, default=0.002,
                       help="oldest-request drain deadline, seconds")
    serve.add_argument("--max-staleness-steps", type=int, default=None,
                       help="force a weight refresh when the served snapshot "
                            "lags training by more than this many steps")
    serve.add_argument("--refresh-policy", default="fresh", choices=("fresh", "lazy"),
                       help="fresh: reload whenever a newer snapshot exists; "
                            "lazy: serve cached weights until the staleness "
                            "bound forces a refresh")
    serve.add_argument("--publish-every", type=int, default=1,
                       help="training steps between snapshot publishes")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write the serving trace here and verify its "
                            "invariants (.jsonl -> archive; else Chrome JSON)")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="write serve stats + trajectory to a JSON file")

    sweep = sub.add_parser(
        "sweep",
        help="run one method over a hyperparameter grid (optionally pooled)",
    )
    _add_experiment_args(sweep, method=None, model="mlp", iterations=100,
                         train_samples=1024, difficulty=1.2)
    sweep.add_argument("--grid", required=True, metavar="SPEC",
                       help="grid axes over TrainerConfig fields, e.g. "
                            "'lr=0.01,0.03;rho=1.5,3.0'")
    sweep.add_argument("--pool", action="store_true",
                       help="multiplex the cells over a persistent worker "
                            "pool instead of running them inline — same "
                            "numerics, amortized spin-up")
    sweep.add_argument("--pool-size", type=int, default=None, metavar="P",
                       help="worker count for --pool (default: one per cell, "
                            "capped by the CPU count); implies --pool")
    sweep.add_argument("--checkpoint-root", metavar="DIR", default=None,
                       help="make the sweep preemptible: finished cells "
                            "leave done-markers here and running cells "
                            "checkpoint under DIR/cells/<key>, so a killed "
                            "sweep resumes instead of recomputing")
    sweep.add_argument("--target", type=float, default=None,
                       help="rank the grid by time-to-this-accuracy instead "
                            "of final accuracy")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the sweep points to a JSON file")
    return parser


def _with_checkpoints(args: argparse.Namespace, build):
    """``build(**fields)`` with the checkpoint :class:`TrainerConfig` fields
    of ``_add_durability_args``' flags, which are checked first."""
    if args.resume and args.checkpoint_dir is None:
        raise _Exit(2, "--resume requires --checkpoint-dir")
    try:
        return build(checkpoint_every=args.checkpoint_every,
                     checkpoint_dir=args.checkpoint_dir,
                     checkpoint_keep=args.checkpoint_keep)
    except ValueError as exc:
        raise _Exit(2, f"invalid checkpoint options: {exc}")


def _write_trace(trace, path: str) -> None:
    """``.jsonl`` -> the archive format; anything else -> Chrome/Perfetto JSON."""
    from repro.trace import to_chrome, to_jsonl

    (to_jsonl if path.endswith(".jsonl") else to_chrome)(trace, path)


def _write_json(payload: dict, path: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _check_bounds(*bounds: Tuple[str, float, float]) -> None:
    """Refuse the first ``(flag, value, bound)`` whose value is below its
    bound: exit 2 naming the flag, before anything runs."""
    for flag, value, bound in bounds:
        if value < bound:
            raise _Exit(2, f"{flag} must be >= {bound}")


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(ALGORITHMS):
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _check_bounds(("--iterations", args.iterations, 1), ("--gpus", args.gpus, 1))
    cost = None
    if args.paper_scale_cost:
        cost = CostModel.from_spec(LENET if args.dataset == "mnist" else ALEXNET)
    spec = _with_checkpoints(args, partial(_build_spec, args, cost_model=cost,
                                           trace=args.trace is not None))
    trainer_kwargs = {name: getattr(args, name)
                      for name in ("tau", "staleness_policy", "local_steps", "collective")
                      if getattr(args, name) is not None}
    if args.faults:
        try:
            trainer_kwargs["faults"] = FaultPlan.from_spec(args.faults, seed=args.seed)
        except ValueError as exc:
            raise _Exit(2, f"invalid --faults spec: {exc}")
    if args.target is None:
        length = {"iterations": args.iterations, "resume": args.resume}
    elif args.resume:
        raise _Exit(2, "--resume is only supported with fixed-length runs (drop --target)")
    else:
        length = {"target_accuracy": args.target, "max_iterations": args.iterations}

    try:
        result = run_method(spec, args.method, **length, **trainer_kwargs)
    except CheckpointError as exc:
        raise _Exit(3, f"resume failed: {exc}")
    except UnsupportedOptionError as exc:
        flag = "--" + exc.option.replace("_", "-")
        raise _Exit(2, f"method {exc.method!r} does not support {flag}")
    except ValueError as exc:
        if args.faults:  # e.g. the plan targets a worker the platform lacks
            raise _Exit(2, f"invalid --faults spec: {exc}")
        raise
    except FaultError as exc:
        raise _Exit(3, f"run failed under the fault plan: {exc}")

    print(f"method          : {result.method}")
    print(f"iterations      : {result.iterations}")
    print(f"simulated time  : {result.sim_time:.3f} s")
    print(f"final accuracy  : {result.final_accuracy:.3f}")
    if result.reached_target is not None:
        print(f"reached target  : {result.reached_target}")
    print(f"comm ratio      : {result.breakdown.comm_ratio * 100:.0f}%")
    if result.fault_log is not None:
        print(f"fault events    : {result.fault_log.summary()}")
        print(f"degraded rounds : {result.breakdown.degraded_rounds}")
    print()
    print(render_table3([breakdown_row(result)]))
    if args.json:
        results_to_json([result], args.json)
        print(f"\ntrajectory written to {args.json}")
    if args.trace:
        if result.trace is None:
            raise _Exit(2, f"method {args.method!r} does not record traces")
        from repro.trace import InvariantViolation, check_all, summarize

        _write_trace(result.trace, args.trace)
        digest = summarize(result.trace)
        print(f"\ntrace written to {args.trace} "
              f"({int(digest['events'])} events, {int(digest['messages'])} messages, "
              f"overlap {digest['overlap_fraction'] * 100:.0f}%)")
        try:
            ran = check_all(result.trace)
        except InvariantViolation as exc:
            raise _Exit(4, f"trace invariant VIOLATED: {exc}")
        print(f"trace invariants OK: {', '.join(ran)}")
    return 0


def _cmd_knl(args: argparse.Namespace) -> int:
    from repro.knl.partition import ChipPartitionTrainer

    _check_bounds(("--parts", args.parts, 1), ("--iterations", args.iterations, 1))
    if args.batch_size % args.parts != 0:
        raise _Exit(2, f"--batch-size {args.batch_size} must divide evenly into "
                       f"--parts {args.parts} groups")
    config = _with_checkpoints(args, partial(TrainerConfig, batch_size=args.batch_size,
                                             lr=args.lr, seed=args.seed))
    train, test = _datasets(args, "mnist")
    net = build_lenet(seed=args.seed)
    net.forward(train.images[:1])  # materialize params before forking replicas
    trainer = ChipPartitionTrainer(
        network=net,
        train_set=train,
        test_set=test,
        config=config,
        parts=args.parts,
        backend=args.backend,
    )
    try:
        result = trainer.train(args.iterations, resume=args.resume)
    except CheckpointError as exc:
        raise _Exit(3, f"resume failed: {exc}")

    print(f"method          : {result.method}")
    print(f"backend         : {result.backend or 'serial (simulated)'}")
    print(f"parts           : {trainer.parts} "
          f"({trainer.plan.cores_per_group:.1f} cores/group)")
    print(f"working set     : {trainer.plan.total_bytes / 1e6:.0f} MB in "
          f"{trainer.plan.memory_name}")
    print(f"iterations      : {result.iterations}")
    print(f"simulated time  : {result.sim_time:.3f} s")
    print(f"final accuracy  : {result.final_accuracy:.3f}")
    if args.json:
        results_to_json([result], args.json)
        print(f"\ntrajectory written to {args.json}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.id == "1":
        print(render_table1())
    elif args.id == "2":
        print(render_table2())
    else:
        from repro.nn.spec import GOOGLENET, VGG19
        from repro.scaling import weak_scaling_sweep
        from repro.scaling.baselines import our_implementation

        sweeps = {s.name: weak_scaling_sweep(our_implementation(s)) for s in (GOOGLENET, VGG19)}
        print(render_table4(sweeps, {"GoogleNet": "300 Iters Time", "VGG-19": "80 Iters Time"}))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Validate the serving knobs before the training thread starts: a
    # late ValueError would leave a half-finished run behind the error.
    _check_bounds(
        ("--iterations", args.iterations, 1),
        ("--gpus", args.gpus, 1),
        ("--requests", args.requests, 1),
        ("--clients", args.clients, 1),
        ("--batch-cap", args.batch_cap, 1),
        ("--publish-every", args.publish_every, 1),
        ("--max-wait", args.max_wait, 0),
        ("--think", args.think, 0),
        ("--max-staleness-steps", args.max_staleness_steps or 0, 0),  # unset: no bound
    )
    if args.rate <= 0:
        raise _Exit(2, "--rate must be positive")

    from repro.serving import (
        ClosedLoopLoadGen,
        ModelSnapshotter,
        OpenLoopLoadGen,
        ServingFrontend,
        onoff_arrivals,
        poisson_arrivals,
        serve_while_training,
    )
    from repro.trace import InvariantViolation, check_all
    from repro.trace.events import Trace

    # The serving tier's own weights copy, built (and a batch-norm model
    # refused) before any data is generated.
    replica = _build_model(args)
    trace = Trace(meta={"pattern": "serving", "method": args.method, **{
        k: getattr(args, k)
        for k in ("batch_cap", "max_staleness_steps", "publish_every", "loop", "arrival")}})
    snapshotter = ModelSnapshotter(
        replica.num_params, publish_every=args.publish_every, trace=trace,
    )
    try:
        frontend = ServingFrontend.for_network(
            replica, snapshotter.reader(),
            batch_cap=args.batch_cap, max_wait=args.max_wait,
            max_staleness_steps=args.max_staleness_steps,
            refresh_policy=args.refresh_policy, trace=trace,
        )
    except ValueError as exc:
        raise _Exit(2, str(exc))
    spec = _build_spec(args)
    if args.loop == "closed":
        load = ClosedLoopLoadGen(args.clients, args.requests, think_mean=args.think,
                                 seed=args.seed)
    elif args.arrival == "poisson":
        load = OpenLoopLoadGen(poisson_arrivals(args.requests, args.rate, seed=args.seed))
    else:
        burst = max(2.0 / args.rate, 0.01)
        load = OpenLoopLoadGen(onoff_arrivals(args.requests, args.rate, on_mean=burst,
                                              off_mean=burst, seed=args.seed))
    images = spec.test_set.images
    try:
        result, _ = serve_while_training(
            lambda snap: run_method(spec, args.method, iterations=args.iterations,
                                    snapshotter=snap),
            snapshotter, frontend,
            lambda fe: load.run(fe, lambda i: images[i % len(images)]),
        )
    except Exception as exc:
        raise _Exit(3, f"training failed: {type(exc).__name__}: {exc}")

    stats = frontend.stats()
    print(f"method          : {result.method}")
    print(f"iterations      : {result.iterations}")
    print(f"final accuracy  : {result.final_accuracy:.3f}")
    print(f"publishes       : {snapshotter.publishes}")
    print(f"served          : {stats.served} requests in {stats.batches} batches")
    print(f"p50 latency     : {stats.p50_latency * 1e3:.2f} ms")
    print(f"p99 latency     : {stats.p99_latency * 1e3:.2f} ms")
    print(f"throughput      : {stats.throughput:.0f} req/s")
    print(f"mean batch      : {stats.mean_batch:.2f} (cap {args.batch_cap})")
    print(f"weight refreshes: {stats.refreshes}")
    print(f"staleness       : max {stats.max_staleness} steps, "
          f"mean {stats.mean_staleness:.2f}")
    try:
        ran = check_all(trace)
    except InvariantViolation as exc:
        raise _Exit(3, f"invariant violated: {exc}")
    print(f"invariants      : {', '.join(ran)} ok")
    if args.trace:
        _write_trace(trace, args.trace)
        print(f"trace written to {args.trace} ({len(trace)} events)")
    if args.json:
        _write_json({
            "method": result.method,
            "iterations": result.iterations,
            "final_accuracy": result.final_accuracy,
            "publishes": snapshotter.publishes,
            "serve": stats.to_dict(),
            "knobs": {k: getattr(args, k) for k in (
                "loop", "arrival", "batch_cap", "max_wait", "max_staleness_steps",
                "refresh_policy", "publish_every")},
        }, args.json)
        print(f"stats written to {args.json}")
    snapshotter.close()
    return 0


def _parse_grid(spec_text: str, config: TrainerConfig):
    """Parse ``'lr=0.01,0.03;rho=1.5,3.0'`` into a grid dict.

    Values are coerced to the type of the named :class:`TrainerConfig`
    field (``batch_size=16,32`` stays int, ``lr=...`` becomes float).
    """
    grid: dict = {}
    for axis in spec_text.split(";"):
        axis = axis.strip()
        if not axis:
            continue
        name, eq, values = axis.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"grid axis {axis!r} needs name=v1,v2,...")
        if not hasattr(config, name):
            raise ValueError(f"unknown TrainerConfig field {name!r}")
        current = getattr(config, name)
        cast = int if isinstance(current, int) and not isinstance(current, bool) else float
        try:
            grid[name] = [cast(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ValueError(f"grid axis {name!r}: could not parse {values!r}")
        _check_axis(name, grid[name])
    if not grid:
        raise ValueError("empty grid")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    _check_bounds(("--iterations", args.iterations, 1), ("--gpus", args.gpus, 1),
                  ("--pool-size", 1 if args.pool_size is None else args.pool_size, 1))
    spec = _build_spec(args)
    try:
        grid = _parse_grid(args.grid, spec.config)
    except ValueError as exc:
        raise _Exit(2, f"invalid --grid spec: {exc}")

    n_cells = math.prod(len(values) for values in grid.values())
    pooled = args.pool or args.pool_size is not None
    pool_size = None
    if pooled:
        pool_size = args.pool_size or min(n_cells, os.cpu_count() or 4, 8)
    points = grid_sweep(
        spec, args.method, grid, args.iterations,
        pool_size=pool_size, checkpoint_root=args.checkpoint_root,
    )

    axes = sorted(grid)
    table = TextTable(axes + ["accuracy", "wall s", "spinup s"])
    for p in points:
        table.add_row([f"{p.params[k]:g}" for k in axes]
                      + [f"{p.final_accuracy:.3f}", f"{p.wall_time:.2f}",
                         f"{p.spinup_time:.2f}"])
    print(table.render())
    total_wall = sum(p.wall_time for p in points)
    total_spin = sum(p.spinup_time for p in points)
    mode = f"pooled over {pool_size} workers" if pooled else "inline"
    resumed = sum(p.resumed for p in points)
    if resumed:
        mode += f", {resumed} loaded from done-markers"
    print(f"\n{n_cells} cells ({mode}): {total_wall:.2f} s wall, "
          f"{total_spin:.2f} s spin-up")
    best = best_point(points, target=args.target)
    label = ", ".join(f"{k}={best.params[k]:g}" for k in axes)
    if args.target is not None:
        t = best.time_to(args.target)
        reach = f"reaches {args.target:.3f} in {t:.3f} s" if t is not None \
            else f"never reaches {args.target:.3f}"
        print(f"best: {label} ({reach})")
    else:
        print(f"best: {label} (accuracy {best.final_accuracy:.3f})")
    if args.json:
        _write_json({
            "method": args.method, "iterations": args.iterations,
            "grid": {k: list(v) for k, v in grid.items()},
            "pooled": pooled, "pool_size": pool_size,
            "points": [
                {
                    "params": p.params, "final_accuracy": p.final_accuracy,
                    "wall_time": p.wall_time, "spinup_time": p.spinup_time,
                }
                for p in points
            ],
        }, args.json)
        print(f"sweep written to {args.json}")
    return 0


_COMMANDS = {"list": _cmd_list, "run": _cmd_run, "table": _cmd_table,
             "knl": _cmd_knl, "serve": _cmd_serve, "sweep": _cmd_sweep}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    # Post-mortem sweep: unlink shm debris from earlier runs that died by
    # signal (their atexit cleanup never fired; their pids are embedded in
    # the segment names, so live runs are never touched).
    from repro.comm.shm_lifecycle import reap_stale_segments

    reap_stale_segments()
    try:
        return _COMMANDS[args.command](args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:  # e.g. `repro list | head` — not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
