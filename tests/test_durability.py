"""Durable runs: crash-safe checkpoint/resume with bit-identical restart.

The acceptance bar for :mod:`repro.durability`:

- the version store is atomic (a complete version or nothing), versioned,
  and pruned to a retention bound;
- corrupt versions — the debris a SIGKILL mid-write leaves — are skipped
  with a structured warning, falling back to the previous valid version;
- a *valid* checkpoint for a different architecture raises
  :class:`CheckpointMismatchError` instead of loading silently;
- resume is bit-identical: running N steps straight equals running k
  steps, constructing a fresh trainer, and resuming to N — same records,
  same trace bytes, same breakdown, same extras (minus the wall-clock
  ``checkpoint_*`` counters, which legitimately differ).

The kill-and-resume subprocess test lives in ``test_durability_kill.py``
(tier 2); everything here runs in-process in the tier-1 gate.
"""

from __future__ import annotations

import logging
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import TrainerConfig, make_trainer
from repro.cluster import CostModel, GpuPlatform
from repro.cluster.simclock import EventQueue
from repro.data.loader import BatchSampler
from repro.durability import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    NoCheckpointError,
    list_versions,
    load_latest_valid,
    read_version,
    write_version,
)
from repro.nn.models import build_lenet, build_mlp
from repro.nn.serialize import load_checkpoint, save_checkpoint
from repro.nn.spec import LENET
from repro.trace import to_jsonl
from repro.util.rng import RngStream

pytestmark = pytest.mark.durability

# Straight run length, resume point, and eval/checkpoint cadence for the
# bit-identity tests: k sits strictly inside (0, N) and both runs share
# snapshot/checkpoint steps so the traces can match byte for byte.
N, K, EVERY = 24, 12, 6


# ---------------------------------------------------------------------------
# the atomic version store
# ---------------------------------------------------------------------------
class TestVersionStore:
    def test_write_read_round_trip(self, tmp_path):
        arrays = {
            "center": np.arange(12, dtype=np.float64).reshape(3, 4),
            "worker-0": np.array([1, 2, 3], dtype=np.int32),
        }
        meta = {"step": 5, "records": [(1, 0.5, 2.0, 0.1)], "nested": {"a": None}}
        path, nbytes = write_version(tmp_path, 5, arrays, meta, fingerprint="fp")

        assert path.name == "ckpt-00000005"
        assert nbytes > 0
        data = read_version(path)
        assert data.step == 5
        assert data.fingerprint == "fp"
        assert data.meta == meta
        assert set(data.arrays) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(data.arrays[name], arrays[name])
            assert data.arrays[name].dtype == arrays[name].dtype

    def test_versions_sorted_and_tmp_invisible(self, tmp_path):
        for step in (20, 5, 12):
            write_version(tmp_path, step, {"w": np.zeros(2)}, {})
        (tmp_path / "tmp-ckpt-00000099-1234").mkdir()  # staged debris
        (tmp_path / "unrelated").mkdir()
        assert [s for s, _ in list_versions(tmp_path)] == [5, 12, 20]

    def test_same_step_rewrite_replaces(self, tmp_path):
        write_version(tmp_path, 3, {"w": np.zeros(4)}, {"gen": 1})
        write_version(tmp_path, 3, {"w": np.ones(4)}, {"gen": 2})
        data = read_version(tmp_path / "ckpt-00000003")
        assert data.meta == {"gen": 2}
        np.testing.assert_array_equal(data.arrays["w"], np.ones(4))

    def test_retention_prunes_to_keep_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=1, keep=2)
        for step in range(1, 6):
            manager.save(step, {"w": np.full(3, float(step))}, {"step": step})
        assert [s for s, _ in list_versions(tmp_path)] == [4, 5]
        assert manager.stats["writes"] == 5.0
        assert manager.stats["bytes"] > 0.0

    def test_manager_validates_policy(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=-1)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


# ---------------------------------------------------------------------------
# corruption: skip, warn, fall back
# ---------------------------------------------------------------------------
def _flip_byte(path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(blob)


def _truncate(path, keep: int = 10) -> None:
    path.write_bytes(path.read_bytes()[:keep])


class TestCorruptionFallback:
    def _store(self, tmp_path, steps=(1, 2)):
        for step in steps:
            write_version(
                tmp_path, step, {"w": np.full(8, float(step))}, {"step": step},
                fingerprint="fp",
            )

    def test_bit_flip_newest_falls_back(self, tmp_path, caplog):
        self._store(tmp_path)
        _flip_byte(tmp_path / "ckpt-00000002" / "arrays.npz")
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            data = load_latest_valid(tmp_path, fingerprint="fp")
        assert data.step == 1
        np.testing.assert_array_equal(data.arrays["w"], np.full(8, 1.0))
        # The warning is structured: machine-readable path/step/reason.
        [record] = caplog.records
        assert record.checkpoint_step == 2
        assert record.checkpoint_path.endswith("ckpt-00000002")
        assert record.reason

    def test_truncated_files_fall_back(self, tmp_path, caplog):
        self._store(tmp_path, steps=(1, 2, 3))
        _truncate(tmp_path / "ckpt-00000003" / "state.pkl")
        _truncate(tmp_path / "ckpt-00000002" / "arrays.npz")
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            data = load_latest_valid(tmp_path, fingerprint="fp")
        assert data.step == 1
        assert len(caplog.records) == 2

    def test_missing_manifest_falls_back(self, tmp_path):
        self._store(tmp_path)
        (tmp_path / "ckpt-00000002" / "manifest.json").unlink()
        assert load_latest_valid(tmp_path).step == 1

    def test_all_corrupt_raises_no_checkpoint(self, tmp_path):
        self._store(tmp_path)
        for version in ("ckpt-00000001", "ckpt-00000002"):
            _flip_byte(tmp_path / version / "state.pkl")
        with pytest.raises(NoCheckpointError):
            load_latest_valid(tmp_path)

    def test_empty_directory_raises_no_checkpoint(self, tmp_path):
        with pytest.raises(NoCheckpointError):
            load_latest_valid(tmp_path)

    def test_valid_but_foreign_fingerprint_never_falls_back(self, tmp_path):
        # An older version with the *right* fingerprint exists, but the
        # newest valid one belongs to another architecture: that is a
        # caller error, not corruption, so it raises instead of skipping.
        write_version(tmp_path, 1, {"w": np.zeros(2)}, {}, fingerprint="ours")
        write_version(tmp_path, 2, {"w": np.zeros(2)}, {}, fingerprint="theirs")
        with pytest.raises(CheckpointMismatchError):
            load_latest_valid(tmp_path, fingerprint="ours")

    def test_read_version_rejects_future_format(self, tmp_path):
        write_version(tmp_path, 1, {"w": np.zeros(2)}, {})
        manifest = tmp_path / "ckpt-00000001" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"format_version":1', '"format_version":99'))
        with pytest.raises(CheckpointCorruptionError):
            read_version(tmp_path / "ckpt-00000001")


# ---------------------------------------------------------------------------
# serialize.py: architecture mismatch is a typed, early failure
# ---------------------------------------------------------------------------
class TestWeightCheckpointMismatch:
    def test_round_trip_same_structure(self, tmp_path, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=1)
        net.forward(train.images[:1])
        path = tmp_path / "weights.npz"
        save_checkpoint(net, path, iteration=7)

        other = build_mlp(seed=2)
        other.forward(train.images[:1])
        assert load_checkpoint(other, path) == 7
        np.testing.assert_array_equal(other.params, net.params)

    def test_architecture_mismatch_raises_typed_error(self, tmp_path, mnist_tiny):
        train, _ = mnist_tiny
        mlp = build_mlp(seed=0)
        mlp.forward(train.images[:1])
        path = tmp_path / "weights.npz"
        save_checkpoint(mlp, path)

        lenet = build_lenet(seed=0)
        lenet.forward(train.images[:1])
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(lenet, path)
        # Old call sites catch ValueError; the typed error must still be one.
        with pytest.raises(ValueError):
            load_checkpoint(lenet, path)

    def test_unreadable_file_raises_corruption(self, tmp_path, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=0)
        net.forward(train.images[:1])
        path = tmp_path / "weights.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(net, path)

    def test_missing_entry_raises_corruption(self, tmp_path, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=0)
        net.forward(train.images[:1])
        path = tmp_path / "weights.npz"
        np.savez(path, params=net.params)  # no fingerprint/iteration
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(net, path)


# ---------------------------------------------------------------------------
# RNG / sampler / event-queue state round-trips
# ---------------------------------------------------------------------------
class TestRngStreamState:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        burn=st.integers(min_value=0, max_value=64),
        draws=st.integers(min_value=1, max_value=32),
    )
    def test_round_trip_resumes_identical_tail(self, seed, burn, draws):
        stream = RngStream(seed, "unit", 3)
        stream.generator.random(burn)
        snapshot = pickle.loads(pickle.dumps(stream.getstate(), protocol=4))
        expected = stream.generator.random(draws)

        fresh = RngStream(seed, "unit", 3)
        fresh.setstate(snapshot)
        np.testing.assert_array_equal(fresh.generator.random(draws), expected)

    def test_setstate_rejects_foreign_identity(self):
        state = RngStream(0, "worker", 1).getstate()
        with pytest.raises(ValueError):
            RngStream(0, "worker", 2).setstate(state)
        with pytest.raises(ValueError):
            RngStream(1, "worker", 1).setstate(state)

    def test_sampler_cursor_round_trip(self, mnist_tiny):
        train, _ = mnist_tiny
        sampler = BatchSampler(train, batch_size=8, seed=0, name="w0")
        for _ in range(3):
            sampler.next_batch()
        snapshot = pickle.loads(pickle.dumps(sampler.get_state(), protocol=4))
        expected = [sampler.next_batch() for _ in range(2)]

        fresh = BatchSampler(train, batch_size=8, seed=0, name="w0")
        fresh.set_state(snapshot)
        assert fresh.batches_drawn == 3
        for (xi, yi), (xe, ye) in zip(
            [fresh.next_batch() for _ in range(2)], expected
        ):
            np.testing.assert_array_equal(xi, xe)
            np.testing.assert_array_equal(yi, ye)

    def test_event_queue_round_trip_preserves_fifo_ties(self):
        queue = EventQueue()
        for time, payload in [(2.0, "a"), (1.0, "b"), (2.0, "c"), (0.5, "d")]:
            queue.push(time, payload)
        queue.pop()  # consume "d"
        snapshot = pickle.loads(pickle.dumps(queue.getstate(), protocol=4))

        clone = EventQueue()
        clone.setstate(snapshot)
        drained = []
        while clone.peek() is not None:
            drained.append(clone.pop().payload)
        assert drained == ["b", "a", "c"]  # ties stay insertion-ordered
        # The counter position survives: new pushes keep strictly newer seqs.
        clone.setstate(snapshot)
        tie = clone.push(2.0, "late")
        assert tie.seq >= 4


# ---------------------------------------------------------------------------
# bit-identical resume through the pipeline
# ---------------------------------------------------------------------------
def _build_trainer(method, mnist_tiny, checkpoint_dir, backend):
    train, test = mnist_tiny
    config = TrainerConfig(
        batch_size=16, lr=0.05, rho=2.0, seed=0,
        eval_every=EVERY, eval_samples=64, trace=True, backend=backend,
        checkpoint_every=EVERY, checkpoint_dir=str(checkpoint_dir),
        checkpoint_keep=3,
    )
    return make_trainer(
        method, build_mlp(seed=0), train, test,
        GpuPlatform(num_gpus=4, seed=0), config, CostModel.from_spec(LENET),
    )


def run_signature(result) -> dict:
    """Everything a resumed run must reproduce bit for bit.

    The ``checkpoint_*`` extras carry wall-clock write cost and so are the
    one sanctioned difference between a straight and a resumed run.
    """
    return {
        "records": [
            (r.iteration, r.sim_time, r.train_loss, r.test_accuracy)
            for r in result.records
        ],
        "sim_time": result.sim_time,
        "iterations": result.iterations,
        "final_accuracy": result.final_accuracy,
        "extras": {
            k: v for k, v in result.extras.items()
            if not k.startswith("checkpoint_")
        },
        "breakdown_parts": dict(result.breakdown.parts),
        "degraded_rounds": result.breakdown.degraded_rounds,
        "trace": to_jsonl(result.trace) if result.trace is not None else None,
    }


class TestBitIdenticalResume:
    # The registry trainers are simulated and never read
    # ``TrainerConfig.backend``; the trainer that does run on real
    # processes is pinned by ``TestChipPartitionResume`` below.
    @pytest.mark.parametrize("backend", ["threads"])
    @pytest.mark.parametrize(
        "method", ["sync-easgd3", "async-easgd", "hogwild-easgd"]
    )
    def test_resume_equals_straight_run(self, tmp_path, mnist_tiny, method, backend):
        straight = _build_trainer(
            method, mnist_tiny, tmp_path / "straight", backend
        ).train(N)

        _build_trainer(method, mnist_tiny, tmp_path / "resumed", backend).train(K)
        resumed = _build_trainer(
            method, mnist_tiny, tmp_path / "resumed", backend
        ).train(N, resume=True)

        assert run_signature(resumed) == run_signature(straight)
        # The resumed run kept checkpointing past the resume point.
        assert resumed.extras["checkpoint_writes"] == (N - K) / EVERY

    def test_resume_with_stochastic_layers(self, tmp_path, mnist_tiny):
        # LeNet carries dropout RNG streams — hidden state outside the
        # packed weights that the checkpoint must also round-trip.
        train, test = mnist_tiny
        def build(directory):
            config = TrainerConfig(
                batch_size=16, lr=0.05, rho=2.0, seed=0,
                eval_every=EVERY, eval_samples=64,
                checkpoint_every=EVERY, checkpoint_dir=str(directory),
            )
            return make_trainer(
                "sync-easgd3", build_lenet(seed=0), train, test,
                GpuPlatform(num_gpus=2, seed=0), config,
                CostModel.from_spec(LENET),
            )

        straight = build(tmp_path / "straight").train(N)
        build(tmp_path / "resumed").train(K)
        resumed = build(tmp_path / "resumed").train(N, resume=True)
        assert run_signature(resumed) == run_signature(straight)

    def test_resume_against_foreign_architecture_raises(self, tmp_path, mnist_tiny):
        _build_trainer("sync-easgd3", mnist_tiny, tmp_path, "threads").train(K)

        train, test = mnist_tiny
        config = TrainerConfig(
            batch_size=16, lr=0.05, rho=2.0, seed=0, eval_every=EVERY,
            eval_samples=64, checkpoint_every=EVERY, checkpoint_dir=str(tmp_path),
        )
        other = make_trainer(
            "sync-easgd3", build_lenet(seed=0), train, test,
            GpuPlatform(num_gpus=4, seed=0), config, CostModel.from_spec(LENET),
        )
        with pytest.raises(CheckpointMismatchError):
            other.train(N, resume=True)

    def test_resume_without_configuration_raises(self, mnist_tiny):
        train, test = mnist_tiny
        config = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0,
                               eval_every=EVERY, eval_samples=64)
        trainer = make_trainer(
            "sync-easgd3", build_mlp(seed=0), train, test,
            GpuPlatform(num_gpus=2, seed=0), config, CostModel.from_spec(LENET),
        )
        with pytest.raises(CheckpointError):
            trainer.train(N, resume=True)

    def test_resume_from_empty_directory_raises(self, tmp_path, mnist_tiny):
        trainer = _build_trainer("sync-easgd3", mnist_tiny, tmp_path, "threads")
        with pytest.raises(NoCheckpointError):
            trainer.train(N, resume=True)


class TestChipPartitionResume:
    """The KNL chip-partition trainer runs its groups as real rank
    processes under ``--backend processes``: rank 0 restores, and must
    re-publish the weights to the replicas the other ranks hold."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_resume_equals_straight_run(self, tmp_path, mnist_tiny, backend):
        from repro.comm.mp_runtime import fork_available
        from repro.knl.partition import ChipPartitionTrainer

        if backend == "processes" and not fork_available():
            pytest.skip("needs the fork start method")
        train, test = mnist_tiny

        def build(directory):
            net = build_lenet(seed=0)
            net.forward(train.images[:1])
            return ChipPartitionTrainer(
                network=net,
                train_set=train,
                test_set=test,
                config=TrainerConfig(
                    batch_size=16, lr=0.05, seed=0, eval_every=EVERY,
                    eval_samples=64, backend=backend,
                    checkpoint_every=EVERY, checkpoint_dir=str(directory),
                ),
                parts=4,
            )

        straight = build(tmp_path / "straight").train(N)
        build(tmp_path / "resumed").train(K)
        resumed = build(tmp_path / "resumed").train(N, resume=True)
        assert run_signature(resumed) == run_signature(straight)


class TestConfigValidation:
    def test_cadence_requires_directory(self):
        with pytest.raises(ValueError):
            TrainerConfig(checkpoint_every=5)

    def test_cadence_must_be_non_negative(self, tmp_path):
        with pytest.raises(ValueError):
            TrainerConfig(checkpoint_every=-1, checkpoint_dir=str(tmp_path))

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            TrainerConfig(checkpoint_keep=0, checkpoint_dir=str(tmp_path))

    def test_target_mode_rejects_resume(self, tmp_path, mnist_tiny):
        from repro.harness import ExperimentSpec, run_method

        train, test = mnist_tiny
        spec = ExperimentSpec(
            train_set=train,
            test_set=test,
            model_builder=lambda: build_mlp(seed=0),
            num_gpus=2,
            config=TrainerConfig(
                batch_size=16, lr=0.05, rho=2.0, eval_every=EVERY,
                eval_samples=64, checkpoint_every=EVERY,
                checkpoint_dir=str(tmp_path),
            ),
            cost_model=CostModel.from_spec(LENET),
        ).normalize()
        with pytest.raises(ValueError, match="fixed-length"):
            run_method(spec, "sync-easgd3", target_accuracy=0.9, resume=True)
