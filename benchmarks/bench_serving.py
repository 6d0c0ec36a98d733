"""Serving-tier latency/throughput grid: train and serve at the same time.

Each cell of the grid runs the full production story end to end: a
training thread drives ``run_method`` with a :class:`ModelSnapshotter`
attached (publishing the packed center weights through the seqlocked
double buffer after every step), while a :class:`ServingFrontend` answers
inference traffic from the freshest published snapshot on a dedicated
replica.  The grid is **loop discipline x batch cap**:

- **open loop** — a Poisson arrival schedule fires on the wall clock
  regardless of completions, at a rate chosen to exceed the server's
  capacity.  The measured throughput is therefore the *saturation*
  throughput, and the batch-cap axis shows how much micro-batching
  amortization buys at saturation (one weight settle + one packed
  forward per batch instead of per request).
- **closed loop** — 8 synchronous clients in a submit/wait/think cycle;
  offered load self-limits at ``clients / (latency + think)``, which is
  what "many concurrent users" actually looks like.

A seventh ablation cell runs the staleness-bounded regime
(``refresh_policy="lazy"``, ``max_staleness_steps=5``) to archive the
refresh-saving/staleness tradeoff next to the fresh-policy grid.

Every cell's trace is audited by :func:`repro.trace.check.check_all`
(batches never overlap, sizes never exceed the cap, publishes are
monotone, served staleness respects the bound).  Hard assertions: every
request is answered, caps are respected, and — the micro-batching claim —
open-loop saturation throughput at cap 16 beats cap 1.

Latency numbers on a shared host include GIL contention with the live
training thread; that is deliberate (serving never pauses training), so
the archive records the training iteration count and publish count next
to every latency figure.

Results land in ``BENCH_serving.json`` at the repo root and
``benchmarks/artifacts/serving.json``.  ``--quick`` shrinks the request
counts and skips the archive + throughput-ordering assertion (too few
samples to order reliably) — that mode exists purely as the CI smoke
that keeps this script from rotting.

Run standalone with ``python benchmarks/bench_serving.py [--quick]`` or
under pytest with ``pytest benchmarks/bench_serving.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

from repro.algorithms import TrainerConfig
from repro.data import make_mnist_like
from repro.harness.experiment import ExperimentSpec, run_method
from repro.nn.models import build_mlp
from repro.serving import (
    ClosedLoopLoadGen,
    ModelSnapshotter,
    OpenLoopLoadGen,
    ServingFrontend,
    poisson_arrivals,
    serve_while_training,
)
from repro.trace import check_all
from repro.trace.events import Trace

try:
    import pytest

    pytestmark = pytest.mark.slow
except ImportError:  # pragma: no cover - standalone invocation
    pytest = None

METHOD = "sync-easgd3"
GPUS = 4
BATCH_CAPS = (1, 4, 16)
CLIENTS = 8
#: Open-loop arrival rate, req/s — an order of magnitude above what an
#: MLP forward pass sharing the GIL with live training can sustain, so
#: the open-loop cells flood the queue and measure saturation (server
#: capacity), not the generator.
OPEN_RATE = 20000.0
MAX_WAIT = 0.002

ROOT_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"


def _make_spec(seed: int = 0) -> ExperimentSpec:
    train, test = make_mnist_like(
        n_train=1024, n_test=256, seed=seed, difficulty=1.2
    )
    return ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_mlp(seed=seed),
        num_gpus=GPUS,
        config=TrainerConfig(batch_size=32, lr=0.03, rho=2.0, seed=seed),
    ).normalize()


def _serve_cell(
    spec: ExperimentSpec,
    *,
    loop: str,
    batch_cap: int,
    requests: int,
    iterations: int,
    refresh_policy: str = "fresh",
    max_staleness_steps=None,
    seed: int = 0,
) -> dict:
    """One grid cell: train in a thread, serve a full load-gen run."""
    replica = spec.model_builder()
    trace = Trace(meta={
        "pattern": "serving", "method": METHOD, "batch_cap": batch_cap,
        "max_staleness_steps": max_staleness_steps, "publish_every": 1,
        "loop": loop, "arrival": "poisson",
    })
    snapshotter = ModelSnapshotter(replica.num_params, trace=trace)
    frontend = ServingFrontend.for_network(
        replica, snapshotter.reader(), batch_cap=batch_cap, max_wait=MAX_WAIT,
        max_staleness_steps=max_staleness_steps,
        refresh_policy=refresh_policy, trace=trace,
    )
    if loop == "open":
        load = OpenLoopLoadGen(poisson_arrivals(requests, OPEN_RATE, seed=seed))
    else:
        load = ClosedLoopLoadGen(CLIENTS, requests, think_mean=0.0005, seed=seed)
    test_images = spec.test_set.images
    result, _ = serve_while_training(
        lambda snap: run_method(spec, METHOD, iterations=iterations, snapshotter=snap),
        snapshotter, frontend,
        lambda fe: load.run(fe, lambda i: test_images[i % len(test_images)]),
    )
    snapshotter.close()

    check_all(trace)  # no overlap, cap, monotone publish, staleness bound
    stats = frontend.stats()
    assert stats.max_batch <= batch_cap, (
        f"batch of {stats.max_batch} exceeded cap {batch_cap}"
    )
    assert stats.p50_latency <= stats.p99_latency
    assert stats.served == requests, (
        f"{loop} loop answered {stats.served}/{requests} requests"
    )
    cell = {
        "loop": loop,
        "batch_cap": batch_cap,
        "refresh_policy": refresh_policy,
        "max_staleness_steps": max_staleness_steps,
        "requests": requests,
        "arrival": "poisson",
        "open_rate_rps": OPEN_RATE if loop == "open" else None,
        "clients": CLIENTS if loop == "closed" else None,
        "method": METHOD,
        "train_iterations": result.iterations,
        "publishes": snapshotter.publishes,
        "final_accuracy": float(result.final_accuracy),
    }
    cell.update(stats.to_dict())
    return cell


def run_experiment(quick: bool = False) -> dict:
    requests = 64 if quick else 320
    iterations = 40 if quick else 200
    spec = _make_spec()
    grid = [
        _serve_cell(spec, loop=loop, batch_cap=cap,
                    requests=requests, iterations=iterations)
        for loop in ("closed", "open")
        for cap in BATCH_CAPS
    ]
    ablation = [
        _serve_cell(spec, loop="open", batch_cap=8, requests=requests,
                    iterations=iterations, refresh_policy="lazy",
                    max_staleness_steps=5),
    ]
    return {"grid": grid, "ablation": ablation, "quick": quick}


def check_and_archive(sections: dict) -> float:
    grid = sections["grid"]
    ablation = sections["ablation"]
    quick = sections["quick"]

    print("\n=== Serving tier: live training + inference, "
          f"{METHOD} P={GPUS}, {'quick' if quick else 'full'} grid ===")
    for c in grid + ablation:
        tag = f"{c['loop']}/cap{c['batch_cap']}"
        if c["refresh_policy"] != "fresh":
            tag += f"/{c['refresh_policy']}(<= {c['max_staleness_steps']})"
        print(f"  {tag:<24} p50 {c['p50_latency_ms']:>7.2f} ms  "
              f"p99 {c['p99_latency_ms']:>7.2f} ms  "
              f"{c['throughput_rps']:>7.0f} req/s  "
              f"batch {c['mean_batch']:.2f}/{c['max_batch']}  "
              f"stale {c['mean_staleness']:.1f}/{c['max_staleness']}  "
              f"refreshes {c['refreshes']}")

    # The micro-batching claim: under open-loop saturation a bigger cap
    # amortizes the settle + forward overhead into real throughput.
    open_by_cap = {c["batch_cap"]: c for c in grid if c["loop"] == "open"}
    gain = (open_by_cap[max(BATCH_CAPS)]["throughput_rps"]
            / open_by_cap[min(BATCH_CAPS)]["throughput_rps"])
    print(f"  open-loop saturation gain, cap {max(BATCH_CAPS)} vs "
          f"{min(BATCH_CAPS)}: {gain:.2f}x")
    if not quick:
        assert gain > 1.0, (
            f"micro-batching bought nothing at saturation ({gain:.2f}x)"
        )
        # Bigger caps batch more under saturation pressure.
        caps = sorted(open_by_cap)
        mean_batches = [open_by_cap[c]["mean_batch"] for c in caps]
        assert mean_batches == sorted(mean_batches), (
            f"mean batch not monotone in cap: {dict(zip(caps, mean_batches))}"
        )
    lazy = ablation[0]
    assert lazy["max_staleness"] <= lazy["max_staleness_steps"] + 1, (
        "lazy policy served past its staleness bound"
    )

    if not quick:
        payload = json.dumps(
            {"benchmark": "serving", "method": METHOD, "P": GPUS,
             "open_rate_rps": OPEN_RATE, "max_wait_seconds": MAX_WAIT,
             "grid": grid, "ablation": ablation},
            indent=2,
        )
        ROOT_ARTIFACT.write_text(payload)
        ARTIFACT_DIR.mkdir(exist_ok=True)
        (ARTIFACT_DIR / "serving.json").write_text(payload)
        print(f"  grid archived to {ROOT_ARTIFACT} and "
              f"{ARTIFACT_DIR / 'serving.json'}")
    return gain


def bench_serving(benchmark):
    """Closed/open loop x batch-cap serving grid with live training."""
    from conftest import run_once

    sections = run_once(benchmark, run_experiment)
    check_and_archive(sections)


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    check_and_archive(run_experiment(quick=quick))
    sys.exit(0)
