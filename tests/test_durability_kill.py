"""Kill-and-resume integration: SIGKILL a training process mid-run, resume
from its checkpoints via the CLI, and require the trajectory to be
bit-identical to an uninterrupted run.

This is the durability contract end to end: the atomic version store must
survive a kill at an arbitrary instant (including mid-write), and the
resumed run must replay to exactly the numbers the straight run produced —
the only sanctioned difference is the wall-clock ``checkpoint_*`` extras.

Tier 2 (``slow``): each case forks full CLI subprocesses.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.comm.shm_lifecycle import stale_segments
from repro.durability.checkpoint import list_versions

pytestmark = [pytest.mark.durability, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parent.parent
ITERATIONS = 80
CHECKPOINT_EVERY = 5
POLL_TIMEOUT = 120.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def _run_cli(argv: list, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"CLI failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _kill_after_first_checkpoint(argv: list, checkpoint_dir: Path) -> None:
    """Launch the CLI, SIGKILL its whole process tree once a checkpoint
    version has landed, and assert it really died to the signal."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + POLL_TIMEOUT
        while time.monotonic() < deadline:
            if list_versions(checkpoint_dir):
                break
            if proc.poll() is not None:
                raise AssertionError(
                    f"run exited (rc={proc.returncode}) before writing "
                    "any checkpoint"
                )
            time.sleep(0.02)
        else:
            raise AssertionError("no checkpoint appeared before the deadline")
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # belt and braces on the failure paths
            proc.kill()
            proc.wait(timeout=30)
    assert rc == -signal.SIGKILL, f"expected death by SIGKILL, got rc={rc}"


def _strip_checkpoint_extras(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_checkpoint_extras(v)
            for k, v in obj.items() if not k.startswith("checkpoint_")
        }
    if isinstance(obj, list):
        return [_strip_checkpoint_extras(v) for v in obj]
    return obj


def _trajectory(path: Path):
    return _strip_checkpoint_extras(json.loads(path.read_text()))


def _newest_manifest(checkpoint_dir: Path) -> dict:
    versions = list_versions(checkpoint_dir)
    assert versions, f"no checkpoint versions under {checkpoint_dir}"
    return json.loads((versions[-1][1] / "manifest.json").read_text())


# `run` has no --backend: its trainers are simulated, one substrate is all
# there is (the parameter only keeps this case's id stable). The trainer
# on real processes is the chip-partition case below.
@pytest.mark.parametrize("backend", ["threads"])
def test_kill_and_resume_is_bit_identical(tmp_path, backend):
    common = [
        "run", "--method", "sync-easgd3", "--gpus", "4",
        "--iterations", str(ITERATIONS), "--batch-size", "16",
        "--train-samples", "1024", "--seed", "0",
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]
    straight_json = tmp_path / "straight.json"
    killed_json = tmp_path / "killed.json"
    straight_dir = tmp_path / "ck-straight"
    killed_dir = tmp_path / "ck-killed"

    _run_cli([*common, "--checkpoint-dir", str(straight_dir),
              "--json", str(straight_json)])

    _kill_after_first_checkpoint(
        [*common, "--checkpoint-dir", str(killed_dir)], killed_dir
    )
    assert list_versions(killed_dir), "kill must leave at least one version"
    _run_cli([*common, "--checkpoint-dir", str(killed_dir), "--resume",
              "--json", str(killed_json)])

    # Zero-leak contract: whatever /dev/shm debris the SIGKILL left behind
    # (pid-stamped `repro-*` segments), the resume run must have reaped —
    # and its own segments are gone with its clean exit.
    assert stale_segments() == [], "killed run leaked shm segments past resume"

    assert _trajectory(killed_json) == _trajectory(straight_json)

    # The final checkpoints agree array for array: same step, same digests.
    straight_manifest = _newest_manifest(straight_dir)
    killed_manifest = _newest_manifest(killed_dir)
    assert killed_manifest["step"] == straight_manifest["step"] == ITERATIONS
    assert killed_manifest["arrays"] == straight_manifest["arrays"]
    assert killed_manifest["state_digest"] == straight_manifest["state_digest"]


@pytest.mark.mp
def test_kill_and_resume_chip_partition_processes(tmp_path):
    """Same contract for the trainer whose groups are real rank processes
    (the checkpoint writer lives in rank 0, a child of the killed CLI)."""
    from repro.comm.mp_runtime import fork_available

    if not fork_available():
        pytest.skip("needs the fork start method")
    common = [
        "knl", "--parts", "4", "--iterations", str(ITERATIONS),
        "--batch-size", "64", "--seed", "0", "--backend", "processes",
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]
    straight_json = tmp_path / "straight.json"
    killed_json = tmp_path / "killed.json"
    straight_dir = tmp_path / "ck-straight"
    killed_dir = tmp_path / "ck-killed"

    _run_cli([*common, "--checkpoint-dir", str(straight_dir),
              "--json", str(straight_json)])
    _kill_after_first_checkpoint(
        [*common, "--checkpoint-dir", str(killed_dir)], killed_dir
    )
    _run_cli([*common, "--checkpoint-dir", str(killed_dir), "--resume",
              "--json", str(killed_json)])

    assert stale_segments() == [], "killed run leaked shm segments past resume"
    assert _trajectory(killed_json) == _trajectory(straight_json)
    assert (_newest_manifest(killed_dir)["arrays"]
            == _newest_manifest(straight_dir)["arrays"])


#: A persistent pool with live shm fabric (slot rings + a collective
#: arena), killed mid-cell. The 16 KB allreduce forces the messages onto
#: real shm rings; the second cell's 64 KB argument is staged, and its
#: rank 0 writes the sentinel from inside the cell, so the kill lands
#: while the stage segment exists.
_POOL_HOLD_SCRIPT = """
import sys, time
import numpy as np
from repro.pool import WorkerPool

def cell(ctx, x):
    v = ctx.allreduce(np.full(4096, float(ctx.rank + x), dtype=np.float32))
    return float(v[0])

def hold(ctx, big, sentinel):
    if ctx.rank == 0:
        open(sentinel, "w").write("up")
    time.sleep(600)

pool = WorkerPool(4, backend="processes")
pool.run(4, cell, 1.0)
pool.run(4, hold, np.ones(1 << 14, dtype=np.float32), sys.argv[1])
"""


@pytest.mark.mp
@pytest.mark.pool
def test_sigkilled_pool_leaves_zero_stale_segments(tmp_path):
    """A SIGKILLed pool strands its shm fabric; the next pool reaps it."""
    from repro.comm.mp_runtime import fork_available
    from repro.pool import WorkerPool

    if not fork_available():
        pytest.skip("needs the fork start method")
    sentinel = tmp_path / "pool-up"
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_HOLD_SCRIPT, str(sentinel)],
        cwd=REPO_ROOT, env=_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + POLL_TIMEOUT
        while time.monotonic() < deadline:
            if sentinel.exists():
                break
            if proc.poll() is not None:
                raise AssertionError(
                    f"pool holder exited early (rc={proc.returncode})"
                )
            time.sleep(0.02)
        else:
            raise AssertionError("pool never came up before the deadline")
        # Kill the whole tree — pool parent and its forked workers — so
        # no atexit hook anywhere gets to clean up.
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert rc == -signal.SIGKILL, f"expected death by SIGKILL, got rc={rc}"

    # The kill must actually strand segments (else this test checks nothing),
    # and a fresh pool's startup reap must sweep every one of them.
    debris = stale_segments()
    assert debris, "SIGKILL left no shm debris to reap"
    assert any("-stage-" in name for name in debris), "the kill missed the cell"
    with WorkerPool(1, backend="processes"):
        pass
    assert stale_segments() == [], "pool startup failed to reap killed debris"
