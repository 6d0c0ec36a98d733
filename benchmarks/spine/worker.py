"""One workload in one fresh interpreter: set-up, passes, checks, metrics.

``run.py`` launches this file with the BLAS/OpenMP thread variables already
set to 1 and ``SPINE_T0`` holding the wall-clock time just before the
launch, so ``setup_s`` covers interpreter start, imports, input
generation and the warm-up of every cell kind.

Two phases share the process.  *Reference* passes run the workload as a
user would, and are the only source of end-to-end numbers.  *Traced*
passes repeat it with ``probes.py`` installed and give the per-layer
numbers; the ratio of the two phases' step times is the tracing overhead.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

_T_ENTER = time.perf_counter()
import numpy as np  # noqa: E402  (timed: this import is part of set-up)
import scipy  # noqa: E402

from workloads import Cell, failing_cell, FROZEN_STEPS, WORKLOADS  # noqa: E402  (imports repro)

_IMPORT_S = time.perf_counter() - _T_ENTER

from attribution import span_metrics, Totals  # noqa: E402
from probes import Probes, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
    return max(own, kid) / 1024.0  # Linux reports KiB


def _summary(value: float, samples: List[float]) -> Dict[str, Any]:
    """A metric's reported value beside the spread of its per-pass samples."""
    q1, median, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                      else (samples[0],) * 3)
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def end_to_end(ref: "Phase", peak_rss: float) -> Dict[str, Dict[str, Any]]:
    """The reference passes folded into the end-to-end tier.

    The host this runs on drifts by 10-30% over minutes and stalls for
    whole passes, and interference only ever adds time.  So the reported
    value is assembled cell by cell from each cell's least-disturbed pass
    (minimum wall, minimum CPU); the per-pass median and quartiles are kept
    beside it, so a bimodal program still shows.
    """
    steps = ref.steps() / len(ref.passes)
    by_cell = list(zip(*ref.passes))  # one tuple per cell: that cell in every pass
    best_wall = sum(min(c.wall for c in runs) for runs in by_cell)
    best_cpu = sum(min(c.cpu for c in runs) for runs in by_cell)
    return {
        "steps_per_s": _summary(steps / best_wall, [
            sum(c.steps for c in p) / sum(c.wall for c in p) for p in ref.passes]),
        "cpu_ms_per_step": _summary(1e3 * best_cpu / steps, [
            1e3 * sum(c.cpu for c in p) / sum(c.steps for c in p) for p in ref.passes]),
        "peak_rss_mb": _summary(peak_rss, [peak_rss]),
    }


class Phase:
    """Passes of one kind (reference or traced) and their bookkeeping."""

    def __init__(self) -> None:
        self.passes: List[List[Cell]] = []
        self.elapsed = 0.0

    def wall(self) -> float:
        return sum(c.wall for p in self.passes for c in p)

    def steps(self) -> int:
        return sum(c.steps for p in self.passes for c in p)

    def ops(self):
        return [op for p in self.passes for c in p for op in c.ops]

    def cell(self, k: int, name: str) -> Optional[Cell]:
        return next((c for c in self.passes[k] if c.name == name), None)


def run_phase(workload, seconds: float, min_passes: int, inject: bool,
              before=None, after=None) -> Phase:
    """Repeat the pass until ``seconds`` are used (at least ``min_passes``)."""
    phase = Phase()
    last = 0.0
    while len(phase.passes) < min_passes or (
            seconds > 0 and phase.elapsed + 0.5 * last <= seconds):
        t0 = time.perf_counter()
        if before:
            before()
        cells = workload.run_pass()
        if inject:
            cells.append(failing_cell())
        if after:
            after(cells)
        workload.check_pass(cells)
        phase.passes.append(cells)
        last = time.perf_counter() - t0
        phase.elapsed += last
    return phase


def check_repeatable(reference: Phase, other: Phase, what: str) -> None:
    """The same seed must give the same result in every pass and phase."""
    first = {op.name: op for c in reference.passes[0] for op in c.ops}
    for k, cells in enumerate(other.passes):
        for op in (op for c in cells for op in c.ops):
            base = first[op.name]
            if op is base or op.error or base.error:
                continue
            if op.digest != base.digest or op.loss_final != base.loss_final:
                op.error = (f"{what} pass {k}: result differs from the first reference "
                            f"pass (loss {op.loss_final!r} vs {base.loss_final!r})")


def steps_to_loss_target(name: Optional[str], ref: Phase, recorder: Recorder,
                         traced: Phase) -> float:
    """Steps until the headline op's loss first halves (exact for a seed).

    The per-step losses come from the op's own result where the entry
    point returns them, else from the ``Network.gradient`` probe over the
    headline cell of the first traced pass.
    """
    op = next((op for c in ref.passes[0] for op in c.ops if op.name == name), None)
    if op is None or op.error is not None:
        return 0.0
    losses = op.extras.get("losses", [])
    cell = traced.cell(0, name)
    if not losses and cell is not None:
        calls = [v for t, v in recorder.losses if cell.window[0] <= t <= cell.window[1]]
        per_step = len(calls) // cell.steps  # one gradient per simulated worker
        losses = [float(np.mean(calls[i:i + per_step]))
                  for i in range(0, per_step * cell.steps, per_step)]
    if not losses:
        return 0.0
    return float(next((t + 1 for t, v in enumerate(losses) if v <= 0.5 * losses[0]),
                      len(losses)))


def workspace_mb(workload) -> float:
    """RSS growth across the first forward/backward of a fresh network."""
    if not hasattr(workload, "builder"):
        return 0.0
    net = workload.builder()
    batch = slice(0, 32)
    before = _rss_mb()
    net.gradient(workload.train.images[batch], workload.train.labels[batch])
    return max(0.0, _rss_mb() - before)


def write_spans(path: Path, spans_with_op) -> None:
    with open(path, "w") as fh:
        for span, op in spans_with_op:
            fh.write(json.dumps({**span._asdict(), "op": op}) + "\n")


def host_fingerprint() -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        # No threadpoolctl here: the effective count is the one the three
        # variables force, all set before NumPy was imported.
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_phase(workload, ref: Phase, seconds: float, min_passes: int, inject: bool,
                 scratch: Path, spans_path: Path) -> Dict[str, Any]:
    """Repeat the workload under the probes; returns the per-layer part of the row."""
    recorder = Recorder(scratch)
    probes = Probes(recorder).install()
    totals = Totals()
    spans_path.unlink(missing_ok=True)

    def start() -> None:
        recorder.enabled = True

    def stop(cells: List[Cell]) -> None:
        recorder.enabled = False
        kept = totals.add_pass(recorder.drain(), [c.window for c in cells])
        if not spans_path.exists():  # the first traced pass is archived
            write_spans(spans_path, kept)

    try:
        traced = run_phase(workload, seconds, min_passes, inject, before=start, after=stop)
    finally:
        recorder.enabled = False
        probes.uninstall()
    check_repeatable(ref, traced, "traced")
    measured: Dict[str, Optional[float]] = {
        "harness.import_s": _IMPORT_S,
        "nn.workspace_mb": workspace_mb(workload),
        **workload.layer_extras(),
        **workload.result_metrics(ref.passes),
        **span_metrics(totals, traced.steps(), traced.wall(), probes.missing_names),
        "algorithms.steps_to_loss_target": steps_to_loss_target(
            workload.headline, ref, recorder, traced),
        "bench.span_overhead_ratio": (traced.wall() / traced.steps())
        / (ref.wall() / ref.steps()),
    }
    names = [m["name"] for m in json.loads(
        (HERE.parents[1] / "BENCHMARK.json").read_text())["per_layer"]]
    unknown = set(measured) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        "phase": traced,
        # A layer this workload does not exercise reads 0.
        "per_layer": {name: measured.get(name, 0.0) for name in names},
        "probes_missing": probes.missing, "traced_passes": len(traced.passes),
        "spans": totals.spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--ref-seconds", type=float, default=0.0)
    ap.add_argument("--ref-min-passes", type=int, default=3)
    ap.add_argument("--traced-seconds", type=float, default=0.0)
    ap.add_argument("--traced-min-passes", type=int, default=0)
    ap.add_argument("--no-learning-check", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = HERE / "out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_segments()
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.scale, scratch, check_learning=not args.no_learning_check)
        workload.setup()
        workload.warmup()
        setup_s = time.time() - float(os.environ["SPINE_T0"])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ref = run_phase(workload, args.ref_seconds, args.ref_min_passes, args.inject_failure)
        check_repeatable(ref, ref, "reference")
        row: Dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "frozen_steps": FROZEN_STEPS[args.workload],
            "setup_s": setup_s, "passes": len(ref.passes),
            "host": host_fingerprint(),
            "end_to_end": end_to_end(ref, _peak_rss_mb()),
            "cells": [
                {"cell": runs[0].name, "steps": runs[0].steps,
                 "wall_s": min(c.wall for c in runs),
                 "steps_per_s": runs[0].steps / min(c.wall for c in runs),
                 "walls": [c.wall for c in runs]}
                for runs in zip(*ref.passes)
            ],
            "per_layer": None, "probes_missing": [], "traced_passes": 0,
        }
        phases = [ref]
        if args.traced_min_passes > 0 or args.traced_seconds > 0:
            layers = traced_phase(workload, ref, args.traced_seconds, args.traced_min_passes,
                                  args.inject_failure, scratch,
                                  out_dir / f"{args.workload}.spans.jsonl")
            phases.append(layers.pop("phase"))
            row.update(layers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    leaked = sorted(_shm_segments() - shm_before)
    if row["per_layer"] is not None:
        row["per_layer"]["comm.shm_segments_leaked"] = float(len(leaked))
    ops = [op for phase in phases for op in phase.ops()]
    failures = [f"{op.name}: {op.error}" for op in ops if op.error]
    failures += [f"leaked /dev/shm segment {name}" for name in leaked]
    row.update(ops_attempted=len(ops), ops_failed=len(failures), failures=failures[:20])
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
