"""Tests for the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/spine

Not part of tier-1 (``testpaths = ["tests"]``): the smoke runs below fork
real ranks and take ~20 s together.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys
import time

import pytest

from attribution import self_times, span_metrics, Totals
from compare import verdict
from probes import import_targets, Probes, Recorder, resolve, Span, Target, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_spine(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine") / "smoke.json"
    lines_before = (HERE / "trajectory.jsonl").read_text().count("\n")
    t0 = time.monotonic()
    proc = run_spine("--smoke", "--out", str(out))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert (HERE / "trajectory.jsonl").read_text().count("\n") == lines_before, \
        "a smoke run is not a point of the trajectory"
    return json.loads(out.read_text()), elapsed


def test_smoke_has_exactly_the_contract_names(smoke):
    result, elapsed = smoke
    assert elapsed < 30.0
    assert list(result["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert spec["unit"]
    for name, row in result["workloads"].items():
        assert set(row["end_to_end"]) == {m["name"] for m in CONTRACT["end_to_end"]}, name
        assert set(row["per_layer"]) == {m["name"] for m in CONTRACT["per_layer"]}, name
        assert all(v is not None for v in row["per_layer"].values()), name
        assert row["ops_failed"] == 0 and row["ops_attempted"] > 0, row["failures"]
        assert row["probes_missing"] == []
    fingerprint = result["fingerprint"]
    assert set(fingerprint["blas_threads"].values()) == {"1"}
    for key in ("nproc", "blas", "numpy", "scipy", "python", "git", "load_1min_start",
                "load_1min_end", "seed", "passes", "frozen_steps"):
        assert key in fingerprint


def test_smoke_workloads_separate_the_layers(smoke):
    layers = {name: row["per_layer"] for name, row in smoke[0]["workloads"].items()}
    assert layers["lenet-sim-sync"]["nn.share"] > layers["mlp-sim-zoo"]["nn.share"]
    comm_only = layers["allreduce-ranks"]
    assert comm_only["nn.share"] == 0 and comm_only["data.batches_per_step"] == 0
    assert comm_only["comm.allreduce_ms_per_step"] > 0
    assert layers["mlp-ranks-sweep"]["comm.launch_ms"] > 0
    assert layers["mlp-sim-zoo"]["trace.events_per_step"] > 0
    assert layers["mlp-sim-zoo"]["durability.bytes_per_ckpt"] > 0


def test_driver_line_and_failed_op_accounting():
    shm_before = set(os.listdir("/dev/shm"))
    proc = run_spine("--smoke", "--workload", "mlp-sim-zoo", "--inject-failure", "--trace", "1")
    assert proc.returncode == 1, "a failed op must fail the run"
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert line["failed"] == 2  # the injected op, once per tier
    assert 0 < line["failed"] / line["attempted"] < 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
    assert "injected failure" in proc.stdout
    # The op died inside a forked shm rank; nothing may be left behind.
    assert set(os.listdir("/dev/shm")) == shm_before


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    spine = tmp_path / "benchmarks" / "spine"
    spine.mkdir()
    for path in HERE.glob("*.py"):
        (spine / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "lenet-sim-sync"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def _originals():
    import_targets(TARGETS)
    return {(owner, attr): owner.__dict__[attr]
            for target in TARGETS for owner, attr in resolve(target)}


def test_install_uninstall_restores_every_attribute(tmp_path):
    import numpy as np

    from repro.data import make_mnist_like
    from repro.nn import build_mlp

    before = _originals()
    recorder = Recorder(tmp_path)
    probes = Probes(recorder).install()
    assert probes.missing == []
    assert len(probes.patched) == len(before)
    assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())

    train, _ = make_mnist_like(n_train=64, n_test=16, seed=0)
    recorder.enabled = True
    build_mlp().gradient(train.images[:8], train.labels[:8])
    recorder.enabled = False
    spans = recorder.drain()
    by_name = {s.name: s for s in spans}
    assert by_name["nn.forward"].parent == by_name["nn.gradient"].sid
    assert by_name["nn.gradient"].n > 0  # FLOPs counted at the boundary
    assert sum(self_times(spans)) == pytest.approx(
        by_name["nn.gradient"].t1 - by_name["nn.gradient"].t0)

    probes.uninstall()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    build_mlp().gradient(np.zeros((2, 1, 28, 28), np.float32), np.zeros(2, np.int64))
    assert recorder.drain() == []


def test_self_time_on_a_three_level_nest():
    def span(sid, parent, t0, t1, pid=1):
        return Span(pid, 7, sid, parent, "nn", f"s{sid}", t0, t1, 0.0, -1.0)

    spans = [
        span(0, -1, 0.0, 10.0),
        span(1, 0, 1.0, 5.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 6.0, 8.0),
        span(1, -1, 0.0, 4.0, pid=2),  # same sid in another process: unrelated
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0, 4.0]
    totals = Totals()
    kept = totals.add_pass(spans + [span(9, -1, 50.0, 51.0)], [(0.0, 10.0)])
    assert len(kept) == 5  # the span outside every timed window is dropped
    assert totals.layer_self_s["nn"] == 14.0
    assert totals.covered_s == 10.0  # the best-covered lane spans the whole window


def test_missing_probe_is_listed_and_its_metric_is_null(tmp_path):
    gone = Target("repro.nn.layers:col2im_was_renamed", "nn.col2im")
    probes = Probes(Recorder(tmp_path), TARGETS + (gone,)).install()
    try:
        assert probes.missing == [gone.path]
        metrics = span_metrics(Totals(), steps=1, wall=1.0,
                               missing_names=probes.missing_names)
        assert metrics["nn.col2im_ms_per_step"] is None
        assert all(v is not None for k, v in metrics.items() if k != "nn.col2im_ms_per_step")
    finally:
        probes.uninstall()


@pytest.mark.parametrize("a, b, better, expected", [
    ((100, 99, 101), (85, 84, 86), "higher", "regressed"),
    ((100, 99, 101), (95, 94, 96), "higher", "unchanged"),
    ((100, 99, 101), (120, 119, 121), "higher", "improved"),
    ((100, 80, 120), (88, 70, 110), "higher", "unresolved"),
    ((10, 9.9, 10.1), (12, 11.9, 12.1), "lower", "regressed"),
])
def test_compare_verdicts(a, b, better, expected):
    def stat(v):
        return {"value": v[0], "q1": v[1], "q3": v[2]}

    assert verdict(stat(a), stat(b), better, 0.10) == expected
