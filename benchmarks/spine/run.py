#!/usr/bin/env python3
"""The repo's benchmark: four wall-clock workloads, two tiers of metrics.

    python3 benchmarks/spine/run.py                     # all four workloads, both tiers
    python3 benchmarks/spine/run.py --smoke             # the same shape in < 30 s
    python3 benchmarks/spine/run.py --workload lenet-sim-sync --seed 3 --seconds 20 --trace 0
    python3 benchmarks/spine/run.py --workload mlp-sim-zoo --traced

Every workload runs in its own fresh interpreter (``worker.py``) with the
BLAS/OpenMP thread budget pinned to 1 before NumPy is imported.  Metric
names, units and regression bounds are read from ``BENCHMARK.json`` at the
repo root; this file adds nothing to them.  With ``--workload`` the last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without it, all four workloads run in both tiers and one
line (fingerprint + every metric) is appended to ``trajectory.jsonl``.

Exit status: 0 when every check passed, 1 when an op failed, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Share of ``--seconds`` a traced run spends on its untraced reference passes.
TRACED_REFERENCE_SHARE = 0.35
SMOKE_SCALE = 0.1
WORKER_TIMEOUT_S = 170


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker(workload: str, seed: int, *flags: str) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh interpreter; return its JSON row."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})  # before NumPy loads; children inherit
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["SPINE_T0"] = repr(time.time())
    # Its own session, so that a worker that hangs is stopped with its ranks.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, tiers: str, *, smoke: bool,
            inject_failure: bool) -> Dict[str, Any]:
    """One workload: ``tiers`` is "e2e", "layers" or "both"."""
    flags: List[str] = []
    if smoke:
        flags += ["--scale", str(SMOKE_SCALE), "--no-learning-check",
                  "--ref-min-passes", "1", "--traced-min-passes", "1"]
    elif tiers == "e2e":
        flags += ["--ref-seconds", str(seconds)]
    elif tiers == "layers":
        flags += ["--ref-seconds", str(TRACED_REFERENCE_SHARE * seconds),
                  "--ref-min-passes", "1",
                  "--traced-seconds", str((1 - TRACED_REFERENCE_SHARE) * seconds),
                  "--traced-min-passes", "2"]
    else:
        flags += ["--ref-seconds", str(seconds), "--traced-seconds", str(0.6 * seconds),
                  "--traced-min-passes", "2"]
    if inject_failure:
        flags.append("--inject-failure")
    extra_setups = 0 if smoke or tiers == "layers" else SETUP_SAMPLES - 1
    setups = [worker(workload, seed, "--setup-only", *flags)["setup_s"]
              for _ in range(extra_setups)]
    row = worker(workload, seed, *flags)
    setups.append(row["setup_s"])
    q1, median, q3 = (statistics.quantiles(setups, n=4) if len(setups) > 1
                      else (setups[0],) * 3)
    row["end_to_end"]["setup_s"] = {"value": median, "median": median, "q1": q1, "q3": q3,
                                    "n": len(setups), "samples": setups}
    row["ops_failed_share"] = row["ops_failed"] / row["ops_attempted"]
    return row


def git_state() -> Dict[str, Any]:
    def git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def print_row(row: Dict[str, Any], contract: Dict[str, Any]) -> None:
    print(f"\n== {row['workload']}  seed {row['seed']}  "
          f"{row['passes']} passes + {row['traced_passes']} traced ==")
    for spec in contract["end_to_end"]:
        m = row["end_to_end"][spec["name"]]
        print(f"  {spec['name']:<44} {m['value']:>14.6g} {spec['unit']:<8} "
              f"per-pass median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
              f"n={m['n']}  bound {spec['bound']}")
    print(f"  {'ops_failed_share':<44} {row['ops_failed_share']:>14.6g} {'ratio':<8} "
          f"{row['ops_failed']} of {row['ops_attempted']} ops")
    for failure in row["failures"]:
        print(f"    FAILED {failure}")
    for cell in row["cells"]:
        print(f"    cell {cell['cell']:<28} {cell['steps']:>6} steps  "
              f"{cell['wall_s']:>9.4f} s  {cell['steps_per_s']:>11.2f} steps/s")
    if row["per_layer"] is not None:
        for spec in contract["per_layer"]:
            value = row["per_layer"][spec["name"]]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {spec['name']:<44} {shown:>14} {spec['unit']}")
        if row["probes_missing"]:
            print(f"  probes_missing: {', '.join(row['probes_missing'])}")


def contract_line(row: Dict[str, Any], contract: Dict[str, Any], trace: bool) -> str:
    """The one-object result line the driver reads."""
    if trace:
        # A metric whose probe is missing is null in the full output; this
        # line carries numbers only, so it reads 0 here (and the missing
        # probes are named on stderr).
        metrics = {s["name"]: {"value": row["per_layer"][s["name"]] or 0.0, "unit": s["unit"]}
                   for s in contract["per_layer"]}
    else:
        metrics = {s["name"]: {"value": row["end_to_end"][s["name"]]["value"], "unit": s["unit"]}
                   for s in contract["end_to_end"]}
    return json.dumps({"correct": row["ops_failed"] == 0, "attempted": row["ops_attempted"],
                       "failed": row["ops_failed"], "metrics": metrics})


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names,
                    help="run one workload and end with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"],
                    help="measuring time per workload run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced run (per-layer metrics)")
    ap.add_argument("--traced", action="store_const", const=1, dest="trace",
                    help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny step counts, one pass per tier: checks the plumbing, not the speed")
    ap.add_argument("--out", type=Path, help="also write the full result as JSON to this file")
    ap.add_argument("--inject-failure", action="store_true",
                    help="add a cell whose op raises inside a forked rank (for the tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"spine: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    if args.workload:
        tiers = "both" if args.smoke else ("layers" if args.trace else "e2e")
        selected = [args.workload]
    else:
        tiers, selected = "both", names
    rows = {}
    for name in selected:
        rows[name] = measure(name, args.seed, args.seconds, tiers, smoke=args.smoke,
                             inject_failure=args.inject_failure)
        print_row(rows[name], contract)

    result = {
        "fingerprint": {
            **next(iter(rows.values()))["host"],
            "git": git_state(),
            "load_1min_start": load_start, "load_1min_end": os.getloadavg()[0],
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "passes": {n: r["passes"] for n, r in rows.items()},
            "frozen_steps": {n: r["frozen_steps"] for n, r in rows.items()},
        },
        "workloads": {n: {k: v for k, v in r.items() if k not in ("host", "frozen_steps")}
                      for n, r in rows.items()},
    }
    print("\nfingerprint: " + json.dumps(result["fingerprint"]))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    if not args.workload and not args.smoke:  # a full run: one more point of the trajectory
        with open(HERE / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(result) + "\n")

    failed = sum(r["ops_failed"] for r in rows.values())
    if args.workload:
        row = rows[args.workload]
        if row["probes_missing"]:
            print(f"spine: probes missing: {row['probes_missing']}", file=sys.stderr)
        print(contract_line(row, contract, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"spine: {exc}", file=sys.stderr)
        sys.exit(2)
