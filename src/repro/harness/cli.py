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
    Run one method over a hyperparameter grid, optionally multiplexed
    over a persistent worker pool (``--pool``/``--pool-size``) so fork
    and shm spin-up is paid once per worker instead of once per cell.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algorithms import (
    ALGORITHM_INFO,
    ALGORITHMS,
    TrainerConfig,
    UnsupportedOptionError,
)
from repro.cluster import CostModel
from repro.comm.backend import BACKENDS, COLLECTIVES
from repro.data import make_cifar_like, make_mnist_like
from repro.durability.errors import CheckpointError
from repro.faults import FaultError, FaultPlan
from repro.harness.breakdown import breakdown_row, render_table3
from repro.harness.experiment import ExperimentSpec, run_method
from repro.harness.results import results_to_json
from repro.harness.tables import render_table1, render_table2, render_table4
from repro.nn.models import (
    build_alexnet_mini,
    build_googlenet_mini,
    build_lenet,
    build_mlp,
    build_resnet_mini,
    build_vgg_mini,
)
from repro.nn.spec import ALEXNET, LENET

_DATASETS = {"mnist": make_mnist_like, "cifar": make_cifar_like}
_MODELS = {
    "mlp": build_mlp,
    "lenet": build_lenet,
    "alexnet": build_alexnet_mini,
    "vgg": build_vgg_mini,
    "googlenet": build_googlenet_mini,
    "resnet": build_resnet_mini,
}


def _render_algorithm_table() -> str:
    """The registry as an aligned table: name, family, class, staleness, etc."""
    header = ("method", "family", "class", "mode", "staleness", "paper")
    rows = [
        (name, info.family, info.family_class, info.sync, info.staleness,
         info.section)
        for name, info in sorted(ALGORITHM_INFO.items())
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


class _ListAlgorithmsAction(argparse.Action):
    """``--list-algorithms``: print the registry table and exit.

    A top-level flag (not a subcommand) so it works without naming one —
    the subparser itself is ``required``.
    """

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(_render_algorithm_table())
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


def _build_spec(args: argparse.Namespace, cost_model: Optional[CostModel] = None,
                **config_fields) -> ExperimentSpec:
    """The normalized :class:`ExperimentSpec` those flags describe;
    ``config_fields`` are the command's own :class:`TrainerConfig` fields
    (validated first: a bad one raises ``ValueError`` before any data is
    generated)."""
    config = TrainerConfig(batch_size=args.batch_size, lr=args.lr, rho=args.rho,
                           seed=args.seed, **config_fields)
    train, test = _DATASETS[args.dataset](
        n_train=args.train_samples,
        n_test=max(args.train_samples // 4, 256),
        seed=args.seed,
        difficulty=args.difficulty,
    )
    shape = {}
    if args.dataset == "cifar" and args.model in ("mlp", "lenet"):
        shape["input_shape"] = (3, 32, 32)
    builder = _MODELS[args.model]
    return ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: builder(seed=args.seed, **shape),
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
    run.add_argument("--collective", default="tree", choices=COLLECTIVES,
                     help="allreduce schedule: 'tree' (binomial, log-P "
                          "latency) or 'ring' (sharded reduce-scatter + "
                          "allgather, constant per-rank bandwidth); the "
                          "results are bit-identical")
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
    sweep.add_argument("--backend", default="processes", choices=BACKENDS,
                       help="pool worker substrate (only used with --pool)")
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


def _cmd_list() -> int:
    for name in sorted(ALGORITHMS):
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cost = None
    if args.paper_scale_cost:
        cost = CostModel.from_spec(LENET if args.dataset == "mnist" else ALEXNET)
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        spec = _build_spec(
            args, cost_model=cost,
            trace=args.trace is not None, collective=args.collective,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_keep=args.checkpoint_keep,
        )
    except ValueError as exc:
        print(f"invalid checkpoint options: {exc}", file=sys.stderr)
        return 2

    trainer_kwargs = {}
    if args.faults:
        try:
            trainer_kwargs["faults"] = FaultPlan.from_spec(args.faults, seed=args.seed)
        except ValueError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2
    if args.tau is not None:
        trainer_kwargs["tau"] = args.tau
    if args.staleness_policy is not None:
        trainer_kwargs["staleness_policy"] = args.staleness_policy
    if args.local_steps is not None:
        trainer_kwargs["local_steps"] = args.local_steps

    try:
        if args.target is not None:
            if args.resume:
                print("--resume is only supported with fixed-length runs "
                      "(drop --target)", file=sys.stderr)
                return 2
            result = run_method(spec, args.method, target_accuracy=args.target,
                                max_iterations=args.iterations, **trainer_kwargs)
        else:
            result = run_method(spec, args.method, iterations=args.iterations,
                                resume=args.resume, **trainer_kwargs)
    except CheckpointError as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return 3
    except UnsupportedOptionError as exc:
        flag = "--" + exc.option.replace("_", "-")
        print(f"method {exc.method!r} does not support {flag}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if args.faults:  # e.g. the plan targets a worker the platform lacks
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2
        raise
    except FaultError as exc:
        print(f"run failed under the fault plan: {exc}", file=sys.stderr)
        return 3

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
            print(f"method {args.method!r} does not record traces", file=sys.stderr)
            return 2
        from repro.trace import InvariantViolation, check_all, summarize, to_chrome, to_jsonl

        if args.trace.endswith(".jsonl"):
            to_jsonl(result.trace, args.trace)
        else:
            to_chrome(result.trace, args.trace)
        digest = summarize(result.trace)
        print(f"\ntrace written to {args.trace} "
              f"({int(digest['events'])} events, {int(digest['messages'])} messages, "
              f"overlap {digest['overlap_fraction'] * 100:.0f}%)")
        try:
            ran = check_all(result.trace)
        except InvariantViolation as exc:
            print(f"trace invariant VIOLATED: {exc}", file=sys.stderr)
            return 4
        print(f"trace invariants OK: {', '.join(ran)}")
    return 0


def _cmd_knl(args: argparse.Namespace) -> int:
    from repro.knl.partition import ChipPartitionTrainer

    train, test = make_mnist_like(
        n_train=args.train_samples,
        n_test=max(args.train_samples // 4, 256),
        seed=args.seed,
        difficulty=args.difficulty,
    )
    if args.batch_size % args.parts != 0:
        print(f"--batch-size {args.batch_size} must divide evenly into "
              f"--parts {args.parts} groups", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    net = build_lenet(seed=args.seed)
    net.forward(train.images[:1])  # materialize params before forking replicas
    try:
        config = TrainerConfig(
            batch_size=args.batch_size, lr=args.lr, seed=args.seed,
            backend=args.backend,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_keep=args.checkpoint_keep,
        )
    except ValueError as exc:
        print(f"invalid checkpoint options: {exc}", file=sys.stderr)
        return 2
    trainer = ChipPartitionTrainer(
        network=net,
        train_set=train,
        test_set=test,
        config=config,
        parts=args.parts,
    )
    try:
        result = trainer.train(args.iterations, resume=args.resume)
    except CheckpointError as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return 3

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
    for knob, value, bound in (
        ("--iterations", args.iterations, 1),
        ("--requests", args.requests, 1),
        ("--clients", args.clients, 1),
        ("--batch-cap", args.batch_cap, 1),
        ("--publish-every", args.publish_every, 1),
        ("--max-wait", args.max_wait, 0),
        ("--think", args.think, 0),
    ):
        if value < bound:
            print(f"{knob} must be >= {bound}", file=sys.stderr)
            return 2
    if args.rate <= 0:
        print("--rate must be positive", file=sys.stderr)
        return 2
    if args.max_staleness_steps is not None and args.max_staleness_steps < 0:
        print("--max-staleness-steps must be >= 0", file=sys.stderr)
        return 2

    import threading
    import time

    from repro.serving import (
        ClosedLoopLoadGen,
        ModelSnapshotter,
        OpenLoopLoadGen,
        ServingFrontend,
        onoff_arrivals,
        poisson_arrivals,
    )
    from repro.trace.events import Trace

    spec = _build_spec(args)
    test = spec.test_set

    replica = spec.model_builder()  # the serving tier's own weights copy
    trace = Trace(meta={
        "pattern": "serving", "method": args.method,
        "batch_cap": args.batch_cap,
        "max_staleness_steps": args.max_staleness_steps,
        "publish_every": args.publish_every,
        "loop": args.loop, "arrival": args.arrival,
    })
    snapshotter = ModelSnapshotter(
        replica.num_params, publish_every=args.publish_every, trace=trace,
    )

    outcome: dict = {}

    def train_main() -> None:
        try:
            outcome["result"] = run_method(
                spec, args.method, iterations=args.iterations,
                snapshotter=snapshotter,
            )
        except BaseException as exc:  # ferried to the foreground
            outcome["error"] = exc

    trainer_thread = threading.Thread(target=train_main, name="training")
    trainer_thread.start()
    # Serve only from published weights: wait for the first snapshot.
    while snapshotter.buffer.version == 0:
        if not trainer_thread.is_alive():
            break
        time.sleep(0.001)
    if "error" in outcome:
        trainer_thread.join()
        print(f"training failed before serving began: {outcome['error']}",
              file=sys.stderr)
        return 3

    frontend = ServingFrontend.for_network(
        replica, snapshotter.reader(),
        batch_cap=args.batch_cap, max_wait=args.max_wait,
        max_staleness_steps=args.max_staleness_steps,
        refresh_policy=args.refresh_policy, trace=trace,
    ).start()
    make_request = lambda i: test.images[i % len(test.images)]  # noqa: E731
    try:
        if args.loop == "open":
            if args.arrival == "poisson":
                arrivals = poisson_arrivals(args.requests, args.rate, seed=args.seed)
            else:
                burst = max(2.0 / args.rate, 0.01)
                arrivals = onoff_arrivals(args.requests, args.rate,
                                          on_mean=burst, off_mean=burst,
                                          seed=args.seed)
            OpenLoopLoadGen(arrivals).run(frontend, make_request)
        else:
            per_client = max(args.requests // args.clients, 1)
            ClosedLoopLoadGen(args.clients, per_client, think_mean=args.think,
                              seed=args.seed).run(frontend, make_request)
    finally:
        frontend.stop()
        trainer_thread.join()
    if "error" in outcome:
        print(f"training failed while serving: {outcome['error']}", file=sys.stderr)
        return 3

    result = outcome["result"]
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

    from repro.trace import InvariantViolation, check_all, to_chrome, to_jsonl

    try:
        ran = check_all(trace)
        print(f"invariants      : {', '.join(ran)} ok")
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        if args.trace.endswith(".jsonl"):
            to_jsonl(trace, args.trace)
        else:
            to_chrome(trace, args.trace)
        print(f"trace written to {args.trace} ({len(trace)} events)")
    if args.json:
        import json

        payload = {
            "method": result.method,
            "iterations": result.iterations,
            "final_accuracy": result.final_accuracy,
            "publishes": snapshotter.publishes,
            "serve": stats.to_dict(),
            "knobs": {
                "loop": args.loop, "arrival": args.arrival,
                "batch_cap": args.batch_cap, "max_wait": args.max_wait,
                "max_staleness_steps": args.max_staleness_steps,
                "refresh_policy": args.refresh_policy,
                "publish_every": args.publish_every,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
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
        if not grid[name]:
            raise ValueError(f"grid axis {name!r} has no values")
    if not grid:
        raise ValueError("empty grid")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.harness.sweeps import best_point, grid_sweep

    spec = _build_spec(args)
    try:
        grid = _parse_grid(args.grid, spec.config)
    except ValueError as exc:
        print(f"invalid --grid spec: {exc}", file=sys.stderr)
        return 2

    n_cells = 1
    for values in grid.values():
        n_cells *= len(values)
    pooled = args.pool or args.pool_size is not None
    pool_size = None
    if pooled:
        pool_size = args.pool_size or min(n_cells, os.cpu_count() or 4, 8)
        if pool_size < 1:
            print("--pool-size must be >= 1", file=sys.stderr)
            return 2
    points = grid_sweep(
        spec, args.method, grid, args.iterations,
        pool_size=pool_size, backend=args.backend,
        checkpoint_root=args.checkpoint_root,
    )

    axes = sorted(grid)
    header = tuple(axes) + ("accuracy", "wall s", "spinup s")
    rows = [
        tuple(f"{p.params[k]:g}" for k in axes)
        + (f"{p.final_accuracy:.3f}", f"{p.wall_time:.2f}", f"{p.spinup_time:.2f}")
        for p in points
    ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    total_wall = sum(p.wall_time for p in points)
    total_spin = sum(p.spinup_time for p in points)
    mode = f"pooled over {pool_size} workers" if pooled else "inline"
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
        import json

        payload = {
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
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"sweep written to {args.json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    # Post-mortem sweep: unlink shm debris from earlier runs that died by
    # signal (their atexit cleanup never fired; their pids are embedded in
    # the segment names, so live runs are never touched).
    from repro.comm.shm_lifecycle import reap_stale_segments

    reap_stale_segments()
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "knl":
            return _cmd_knl(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except BrokenPipeError:  # e.g. `repro list | head` — not an error
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
