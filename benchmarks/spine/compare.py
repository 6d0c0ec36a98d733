#!/usr/bin/env python3
"""Compare two full runs of the spine benchmark, metric by metric.

    python3 benchmarks/spine/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``run.py --out`` (or single lines of ``trajectory.jsonl``).
For every workload and every end-to-end metric it prints both medians
with their quartiles, the ratio B/A, the regression bound from
``BENCHMARK.json`` and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread is wider than the bound and the two
                interquartile ranges overlap: the runs cannot tell
``improved``    B is better by more than A's own spread, ranges apart
``unchanged``   none of the above

One pair of runs can show a regression; a *gain* needs the ten alternating
pairs the choosing-metrics guide asks for.  Exit status 1 when anything
regressed or an op failed in B.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]  # > 0: B is worse
    spread_a = (a["q3"] - a["q1"]) / a["value"]
    spread_b = (b["q3"] - b["q1"]) / b["value"]
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if max(spread_a, spread_b) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if a.get("n", 2) > 1 and -worse_by > spread_a and not overlap:
        return "improved"  # a single sample (peak_rss_mb) has no spread to beat
    return "unchanged"


def load(path: str) -> Dict[str, Any]:
    return json.loads(Path(path).read_text().strip().splitlines()[-1]
                      if path.endswith(".jsonl") else Path(path).read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_run, b_run = load(argv[0]), load(argv[1])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, run in (("A", a_run), ("B", b_run)):
        f = run["fingerprint"]
        print(f"{label}: {argv[0] if label == 'A' else argv[1]}  git {f['git']['sha']}"
              f"{' (dirty)' if f['git']['dirty'] else ''}  seed {f['seed']}  "
              f"load {f['load_1min_start']:.2f}->{f['load_1min_end']:.2f}  nproc {f['nproc']}")
    bad = False
    for w in contract["workloads"]:
        name = w["name"]
        if name not in a_run["workloads"] or name not in b_run["workloads"]:
            continue
        wa, wb = a_run["workloads"][name], b_run["workloads"][name]
        print(f"\n{name}")
        for spec in contract["end_to_end"]:
            a, b = wa["end_to_end"][spec["name"]], wb["end_to_end"][spec["name"]]
            v = verdict(a, b, spec["better"], spec["bound"])
            bad |= v == "regressed"
            print(f"  {spec['name']:<16} {spec['unit']:<8} "
                  f"A {a['value']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']}   "
                  f"B {b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}   "
                  f"B/A {b['value'] / a['value']:.4f} (base {a['value']:.6g})   "
                  f"bound {spec['bound']}  {spec['better']} is better  -> {v}")
        failed = wb["ops_failed"]
        bad |= failed > 0
        print(f"  {'ops_failed_share':<16} {'ratio':<8} A {wa['ops_failed_share']:.6g} "
              f"({wa['ops_failed']} of {wa['ops_attempted']})   B {wb['ops_failed_share']:.6g} "
              f"({failed} of {wb['ops_attempted']})   -> {'regressed' if failed else 'unchanged'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
