"""Serving-tier correctness: seqlock snapshots, shm lifecycle, adaptive
micro-batching, staleness bounds, serving trace invariants, and the
bit-identity contract (training trajectories are unchanged by an attached
serving tier, in one process and across processes alike).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.comm import shm_lifecycle as lifecycle
from repro.comm.mp_runtime import fork_available
from repro.comm.shm_transport import SeqlockBuffer, TornReadError
from repro.data import make_mnist_like
from repro.harness.cli import _DATASETS, main
from repro.harness.experiment import ExperimentSpec, run_method
from repro.knl import ChipPartitionTrainer
from repro.nn.models import (
    build_alexnet_mini,
    build_lenet,
    build_mlp,
    build_resnet_mini,
    build_vgg_mini,
)
from repro.serving import (
    ClosedLoopLoadGen,
    ModelSnapshotter,
    OpenLoopLoadGen,
    ServingFrontend,
    onoff_arrivals,
    poisson_arrivals,
    serve_while_training,
)
from repro.trace.check import (
    InvariantViolation,
    check_all,
    check_serving_batch_cap,
    check_serving_no_overlap,
    check_serving_publish_monotone,
    check_serving_staleness_bound,
)
from repro.trace.events import MASTER, Trace, TraceEvent

pytestmark = pytest.mark.serving


# ---------------------------------------------------------------------------
# Seqlock buffer: torn-free reads under concurrent publishing
# ---------------------------------------------------------------------------


class TestSeqlockBuffer:
    def test_publish_read_roundtrip_local(self):
        buf = SeqlockBuffer.create(16)
        vec = np.arange(16, dtype=np.float32)
        assert buf.version == 0
        version = buf.publish(vec, step=5)
        assert version == 1
        out, step, ver = buf.read()
        assert np.array_equal(out, vec) and step == 5 and ver == 1
        # The copy is isolated from later publishes.
        buf.publish(vec * 2, step=6)
        assert np.array_equal(out, vec)
        buf.close()

    def test_shared_roundtrip_and_attach_validation(self):
        buf = SeqlockBuffer.create(8, shared=True)
        try:
            assert buf.name is not None and buf.name in lifecycle.registered_segments()
            buf.publish(np.full(8, 3.0, dtype=np.float32), step=1)
            other = SeqlockBuffer.attach(buf.name, 8)
            out, step, _ = other.read()
            assert np.all(out == 3.0) and step == 1
            other.close()
            with pytest.raises(ValueError, match="elems"):
                SeqlockBuffer.attach(buf.name, 9)
        finally:
            name = buf.name
            buf.close(unlink=True)
        assert name not in lifecycle.registered_segments()
        assert name not in lifecycle.list_live_segments()

    def test_wrong_size_publish_rejected(self):
        buf = SeqlockBuffer.create(4)
        with pytest.raises(ValueError, match="elems"):
            buf.publish(np.zeros(5, dtype=np.float32), step=1)
        buf.close()

    def test_torn_read_error_when_writer_wedged(self):
        buf = SeqlockBuffer.create(4)
        buf.publish(np.zeros(4, dtype=np.float32), step=1)
        buf._header[SeqlockBuffer._W_SEQ] += 1  # simulate a wedged mid-flip writer
        with pytest.raises(TornReadError):
            buf.read(timeout=0.05)
        buf.close()

    def test_no_torn_reads_under_thread_hammer(self):
        """A writer republishing flat-out never lets a reader observe a
        mixed-version vector: every read must be elementwise-uniform and
        tagged with its own value as the step."""
        elems = 4096  # large enough that a torn memcpy would be caught
        buf = SeqlockBuffer.create(elems)
        stop = threading.Event()
        torn = []

        def writer():
            i = 0
            vec = np.empty(elems, dtype=np.float32)
            while not stop.is_set():
                i += 1
                vec.fill(float(i))
                buf.publish(vec, step=i)

        def reader():
            out = np.empty(elems, dtype=np.float32)
            while not stop.is_set():
                try:
                    params, step, _ = buf.read(out=out, timeout=5.0)
                except TornReadError:
                    continue  # the writer can outpace one copy; never torn
                lo, hi = params.min(), params.max()
                if lo != hi or lo != float(step):
                    torn.append((float(lo), float(hi), step))
                    return

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        w.start()
        for r in readers:
            r.start()
        time.sleep(0.8)
        stop.set()
        w.join()
        for r in readers:
            r.join()
        assert torn == [], f"observed mixed-version vectors: {torn[:3]}"
        assert buf.version > 100  # the hammer actually hammered
        buf.close()

    @pytest.mark.mp
    def test_no_torn_reads_across_processes(self):
        """Same contract with the writer in a forked process over shm."""
        if not fork_available():
            pytest.skip("needs the fork start method")
        elems = 2048
        buf = SeqlockBuffer.create(elems, shared=True)
        pid = os.fork()
        if pid == 0:  # child: publish flat-out, then exit
            try:
                child = SeqlockBuffer.attach(buf.name, elems)
                vec = np.empty(elems, dtype=np.float32)
                for i in range(1, 2001):
                    vec.fill(float(i))
                    child.publish(vec, step=i)
                child.close()
                os._exit(0)
            except BaseException:
                os._exit(1)
        try:
            out = np.empty(elems, dtype=np.float32)
            deadline = time.monotonic() + 30.0
            reads = 0
            while time.monotonic() < deadline:
                try:
                    params, step, _ = buf.read(out=out, timeout=5.0)
                except TornReadError:
                    continue
                if step:
                    lo, hi = params.min(), params.max()
                    assert lo == hi == float(step), (
                        f"torn read: [{lo}, {hi}] at step {step}"
                    )
                    reads += 1
                if step >= 2000:
                    break
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert reads > 0
        finally:
            buf.close(unlink=True)


# ---------------------------------------------------------------------------
# Shm lifecycle: naming, registry, reaper
# ---------------------------------------------------------------------------


class TestShmLifecycle:
    def test_segment_name_embeds_owner_pid(self):
        name = lifecycle.segment_name("ring")
        assert name.startswith("repro-")
        # The embedded pid must be alive (it is this process or an
        # adopted, still-running ancestor).
        pid = int(name.split("-")[1])
        os.kill(pid, 0)  # raises if dead

    def test_register_unregister_cleanup(self):
        name = lifecycle.segment_name("flat", suffix="lifecycletest")
        lifecycle.register_segment(name)
        assert name in lifecycle.registered_segments()
        lifecycle.unregister_segment(name)
        assert name not in lifecycle.registered_segments()
        # cleanup of a registered-but-never-created name is a no-op
        lifecycle.register_segment(name)
        assert lifecycle.cleanup_registered() == []
        assert name not in lifecycle.registered_segments()

    def test_reaper_unlinks_dead_owner_only(self):
        from multiprocessing import shared_memory

        dead = "repro-999999-ring-reaptest"
        live = lifecycle.segment_name("ring", suffix="reaptest")
        segs = [
            shared_memory.SharedMemory(create=True, size=64, name=dead),
            shared_memory.SharedMemory(create=True, size=64, name=live),
        ]
        for s in segs:
            s.close()
        try:
            assert dead in lifecycle.stale_segments()
            assert live not in lifecycle.stale_segments()
            reaped = lifecycle.reap_stale_segments()
            assert dead in reaped and live not in reaped
            assert dead not in lifecycle.list_live_segments()
            assert live in lifecycle.list_live_segments()
        finally:
            lifecycle.unlink_segment(live)
            lifecycle.unlink_segment(dead)


# ---------------------------------------------------------------------------
# Snapshotter and reader
# ---------------------------------------------------------------------------


class TestSnapshotter:
    def test_publish_thinning_and_heartbeat(self):
        snap = ModelSnapshotter(4, publish_every=3)
        reader = snap.reader()
        for t in range(1, 8):
            snap.on_step(np.full(4, float(t), dtype=np.float32), step=t)
        assert snap.publishes == 2  # steps 3 and 6
        assert snap.buffer.step == 6
        assert snap.buffer.train_step == 7
        params, step, _ = reader.refresh()
        assert step == 6 and np.all(params == 6.0)
        assert reader.staleness() == 1  # heartbeat at 7, snapshot at 6
        snap.close()

    def test_reader_refresh_only_on_new_version(self):
        snap = ModelSnapshotter(4)
        reader = snap.reader()
        assert reader.staleness() == -1
        with pytest.raises(RuntimeError, match="no snapshot"):
            reader.refresh()
        snap.on_step(np.zeros(4, dtype=np.float32), step=1)
        reader.refresh()
        assert reader.refreshes == 1
        reader.refresh()  # same version: no new copy
        assert reader.refreshes == 1
        snap.on_step(np.ones(4, dtype=np.float32), step=2)
        assert reader.has_new()
        params, step, _ = reader.refresh()
        assert reader.refreshes == 2 and step == 2 and np.all(params == 1.0)
        snap.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


class TestLoadGen:
    def test_poisson_schedule_is_seeded_and_sorted(self):
        a = poisson_arrivals(500, rate=100.0, seed=11)
        b = poisson_arrivals(500, rate=100.0, seed=11)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0) and a.shape == (500,)
        # Mean interarrival within 20% of 1/rate over 500 samples.
        assert abs(np.diff(a).mean() - 0.01) < 0.002

    def test_onoff_schedule_is_bursty(self):
        arr = onoff_arrivals(500, rate_on=1000.0, on_mean=0.05, off_mean=0.2, seed=4)
        assert np.all(np.diff(arr) >= 0) and arr.shape == (500,)
        gaps = np.diff(arr)
        # Burstiness: the biggest gap (an OFF period) dwarfs the median
        # in-burst interarrival by an order of magnitude.
        assert gaps.max() > 10 * np.median(gaps)

    def test_open_loop_latency_runs_from_the_due_instant(self):
        # Every arrival is due at offset 0 and each request takes 5 ms to
        # make, so request i is submitted at least 5(i+1) ms late: its
        # latency must carry that lateness.
        snap = ModelSnapshotter(4)
        snap.on_step(np.ones(4, dtype=np.float32), step=1)
        fe = _make_frontend(snap, batch_cap=4, max_wait=0.0).start()
        made = []

        def make_request(i):
            time.sleep(0.005)
            made.append(time.monotonic())
            return np.ones(4, dtype=np.float32)

        try:
            done = OpenLoopLoadGen(np.zeros(6)).run(fe, make_request)
        finally:
            fe.stop()
            snap.close()
        due = made[0] - 0.005  # an upper bound on the one due instant
        for req, submitted in zip(done, made):
            assert req.latency >= submitted - due

    @pytest.mark.parametrize("requests,clients", [(15, 2), (1, 4), (16, 2), (7, 7)])
    def test_closed_loop_issues_each_request_index_once(self, requests, clients):
        snap = ModelSnapshotter(4)
        snap.on_step(np.ones(4, dtype=np.float32), step=1)
        fe = _make_frontend(snap, batch_cap=4, max_wait=0.0).start()
        issued = []
        try:
            done = ClosedLoopLoadGen(clients, requests).run(
                fe, lambda i: issued.append(i) or np.ones(4, dtype=np.float32))
        finally:
            fe.stop()
            snap.close()
        assert len(done) == requests
        assert sorted(issued) == list(range(requests))


# ---------------------------------------------------------------------------
# Front-end: staleness bound enforcement and refresh policies
# ---------------------------------------------------------------------------


def _make_frontend(snap, **kwargs):
    state = {"w": None}

    def load(params):
        state["w"] = params.copy()

    def predict(x):
        return x @ state["w"]

    return ServingFrontend(predict, load, snap.reader(), **kwargs)


class TestFrontendStaleness:
    def _drive(self, policy, bound):
        trace = Trace(meta={"pattern": "serving", "batch_cap": 4,
                            "max_staleness_steps": bound})
        snap = ModelSnapshotter(4, trace=trace)
        fe = _make_frontend(snap, batch_cap=4, max_wait=0.0,
                            max_staleness_steps=bound, refresh_policy=policy,
                            trace=trace)
        x = np.ones(4, dtype=np.float32)
        for t in range(1, 31):
            snap.on_step(np.full(4, float(t), dtype=np.float32), step=t)
            req = fe.submit(x)
            fe.serve_batch([fe._queue.popleft()])
            assert req.done
        snap.close()
        return fe, trace

    def test_lazy_policy_enforces_staleness_bound(self):
        bound = 5
        fe, trace = self._drive("lazy", bound)
        staleness = [r.staleness for r in fe._finished]
        assert max(staleness) <= bound
        assert max(staleness) > 0  # the bound actually did the driving
        # Lazy refresh saves uploads: far fewer refreshes than batches.
        assert fe.reader.refreshes < len(fe._finished) / 2
        check_serving_staleness_bound(trace)

    def test_fresh_policy_serves_zero_staleness(self):
        fe, trace = self._drive("fresh", None)
        assert all(r.staleness == 0 for r in fe._finished)
        assert fe.reader.refreshes == len(fe._finished)

    def test_served_result_uses_refreshed_weights(self):
        snap = ModelSnapshotter(4)
        fe = _make_frontend(snap, batch_cap=2, max_wait=0.0)
        snap.on_step(np.full(4, 2.0, dtype=np.float32), step=1)
        req = fe.submit(np.ones(4, dtype=np.float32))
        fe.serve_batch([fe._queue.popleft()])
        assert req.result == pytest.approx(8.0)
        assert req.step == 1
        snap.on_step(np.full(4, 3.0, dtype=np.float32), step=2)
        req2 = fe.submit(np.ones(4, dtype=np.float32))
        fe.serve_batch([fe._queue.popleft()])
        assert req2.result == pytest.approx(12.0)
        assert req2.step == 2
        snap.close()

    def test_threaded_frontend_drains_on_stop(self):
        snap = ModelSnapshotter(4)
        snap.on_step(np.ones(4, dtype=np.float32), step=1)
        fe = _make_frontend(snap, batch_cap=4, max_wait=0.001).start()
        reqs = [fe.submit(np.ones(4, dtype=np.float32)) for _ in range(20)]
        fe.stop()
        assert all(r.done for r in reqs)
        with pytest.raises(RuntimeError, match="stopped"):
            fe.submit(np.ones(4, dtype=np.float32))
        stats = fe.stats()
        assert stats.served == 20 and stats.max_batch <= 4
        snap.close()


# ---------------------------------------------------------------------------
# Serving trace invariants
# ---------------------------------------------------------------------------


def _service(t0, t1, *, seq=0, size=1, step=1, stale=0.0):
    return TraceEvent("service", MASTER, t0, t1, op="serving/batch",
                      seq=seq, round=size, iteration=step, value=stale)


class TestServingInvariants:
    def test_check_all_dispatches_serving_checks(self):
        trace = Trace(meta={"pattern": "serving", "batch_cap": 4,
                            "max_staleness_steps": 2})
        trace.add(_service(0.0, 0.1, size=3))
        ran = check_all(trace)
        assert "serving-no-overlap" in ran
        assert "serving-batch-cap" in ran
        assert "serving-staleness-bound" in ran
        assert "serving-publish-monotone" in ran

    def test_overlapping_batches_rejected(self):
        trace = Trace(meta={"pattern": "serving"})
        trace.add(_service(0.0, 0.2, seq=0))
        trace.add(_service(0.1, 0.3, seq=1))
        with pytest.raises(InvariantViolation, match="overlap"):
            check_serving_no_overlap(trace)

    def test_batch_cap_violation_rejected(self):
        trace = Trace(meta={"pattern": "serving", "batch_cap": 4})
        trace.add(_service(0.0, 0.1, size=5))
        with pytest.raises(InvariantViolation, match="batch_cap"):
            check_serving_batch_cap(trace)

    def test_staleness_bound_violation_rejected(self):
        trace = Trace(meta={"pattern": "serving", "max_staleness_steps": 2})
        trace.add(_service(0.0, 0.1, stale=3.0))
        with pytest.raises(InvariantViolation, match="staleness"):
            check_serving_staleness_bound(trace)

    def test_publish_thinning_widens_the_allowance(self):
        trace = Trace(meta={"pattern": "serving", "max_staleness_steps": 2,
                            "publish_every": 3})
        trace.add(_service(0.0, 0.1, stale=4.0))  # 2 + (3-1) = 4 is legal
        check_serving_staleness_bound(trace)
        trace.add(_service(0.2, 0.3, stale=5.0))
        with pytest.raises(InvariantViolation):
            check_serving_staleness_bound(trace)

    def test_publish_versions_must_advance(self):
        trace = Trace(meta={"pattern": "serving"})
        trace.add(TraceEvent("mark", MASTER, 0.0, 0.0, op="serving/publish",
                             iteration=5, value=1.0))
        trace.add(TraceEvent("mark", MASTER, 0.1, 0.1, op="serving/publish",
                             iteration=3, value=2.0))
        with pytest.raises(InvariantViolation, match="older"):
            check_serving_publish_monotone(trace)


class TestBatchNormRefused:
    """The snapshot carries packed parameters only: a replica of a
    batch-norm model would answer with its untrained running statistics."""

    @pytest.mark.parametrize("builder, layers", [
        (build_vgg_mini, ["1:bn1_1", "4:bn1_2", "8:bn2_1", "11:bn2_2"]),
        (build_resnet_mini, ["1:bn0", "3:res1/b1:bn1", "4:res2/s1:bnp"]),  # nested
    ], ids=["vgg-mini", "resnet-mini"])
    def test_refused_naming_the_layers(self, builder, layers):
        net = builder(seed=0)
        snap = ModelSnapshotter(net.num_params)
        with pytest.raises(ValueError, match="batch-norm running statistics") as ei:
            ServingFrontend.for_network(net, snap.reader())
        snap.close()
        for key in layers:
            assert key in str(ei.value)

    @pytest.mark.parametrize("builder", [build_mlp, build_lenet, build_alexnet_mini])
    def test_models_without_running_statistics_are_served(self, builder):
        net = builder(seed=0)
        snap = ModelSnapshotter(net.num_params)
        fe = ServingFrontend.for_network(net, snap.reader(), batch_cap=1, max_wait=0.0)
        snap.on_step(net.get_params(), step=1)
        req = fe.submit(np.zeros(net.input_shape, dtype=np.float32))
        fe.serve_batch([fe._queue.popleft()])
        assert req.done and req.step == 1
        snap.close()

    def test_serve_exits_2_before_training(self, capsys, monkeypatch):
        def no_training(*_, **__):
            raise AssertionError("training started for a model it cannot serve")

        monkeypatch.setattr("repro.harness.cli.run_method", no_training)
        assert main(["serve", "--model", "vgg", "--train-samples", "256"]) == 2
        err = capsys.readouterr().err
        assert "cannot serve vgg-mini" in err and "1:bn1_1" in err

    def test_serve_refuses_before_generating_data(self, capsys, monkeypatch):
        def no_data(*_, **__):
            raise AssertionError("dataset generated for a model it cannot serve")

        monkeypatch.setitem(_DATASETS, "mnist", no_data)
        assert main(["serve", "--model", "vgg"]) == 2
        assert "batch-norm running statistics" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Bit-identity: an attached serving tier never perturbs training
# ---------------------------------------------------------------------------


def _spec():
    train, test = make_mnist_like(n_train=256, n_test=128, seed=31, difficulty=0.8)
    return ExperimentSpec(
        train_set=train, test_set=test,
        model_builder=lambda: build_mlp(seed=3), num_gpus=4,
        config=TrainerConfig(batch_size=16, seed=0),
    ).normalize()


def _trajectory(result):
    return [(r.iteration, r.sim_time, r.train_loss, r.test_accuracy)
            for r in result.records]


def _chip_trainer():
    """A 2-group ChipPartitionTrainer whose groups run as forked ranks."""
    spec = _spec()
    return ChipPartitionTrainer(build_mlp(seed=3), spec.train_set, spec.test_set,
                                spec.config, parts=2, backend="processes")


def _train_with_live_serving(train, shared=False):
    """Run ``train(snapshotter)`` with a front-end actively serving
    micro-batched traffic (closed loop) from that snapshotter for the
    whole run."""
    spec = _spec()
    replica = build_mlp(seed=99)  # the serving tier's own weight copy
    snap = ModelSnapshotter(replica.num_params, shared=shared)
    fe = ServingFrontend.for_network(replica, snap.reader(), batch_cap=4, max_wait=0.001)
    gen = ClosedLoopLoadGen(clients=2, requests=20, think_mean=0.0005, seed=1)
    x = spec.test_set.images
    try:
        result, done = serve_while_training(
            train, snap, fe, lambda fe: gen.run(fe, lambda i: x[i % len(x)]))
    finally:
        snap.close(unlink=shared)
    return result, len(done)


class TestBitIdentity:
    def test_threads_backend_trajectory_unchanged(self):
        spec = _spec()
        baseline = run_method(spec, "sync-easgd3", iterations=8)
        result, served = _train_with_live_serving(
            lambda snap: run_method(spec, "sync-easgd3", iterations=8, snapshotter=snap))
        assert served > 0
        assert _trajectory(result) == _trajectory(baseline)

    @pytest.mark.mp
    def test_processes_backend_trajectory_unchanged(self):
        """Training and serving in different processes: a forked group of
        ChipPartitionTrainer publishes into shared memory while the
        parent's front-end serves from it."""
        if not fork_available():
            pytest.skip("needs the fork start method")
        detached = _chip_trainer().train(6)
        result, served = _train_with_live_serving(
            lambda snap: _chip_trainer().train(6, snapshotter=snap), shared=True)
        assert served > 0
        assert result.backend == detached.backend == "processes"
        assert result.records == detached.records

    def test_eval_path_and_the_snapshot_hold_the_same_bits(self):
        """With a snapshotter attached, the eval path reads the live
        vector, and the seqlock copy published for that step holds
        exactly its bits."""
        from repro.engine.pipeline import StepPipeline

        spec = _spec()
        snap = ModelSnapshotter(build_mlp(seed=3).num_params)
        from repro.algorithms.registry import make_trainer

        trainer = make_trainer("sync-easgd3", spec.model_builder(),
                               spec.train_set, spec.test_set,
                               spec.make_platform(), spec.config, None)
        pipeline = StepPipeline(trainer, trainer.make_step(), snapshotter=snap)
        result = pipeline.run(4)
        assert result.records
        view = pipeline.eval_view()
        assert view is pipeline.strategy.eval_params()
        params, step, _ = snap.buffer.read()
        assert step == 4
        assert params.tobytes() == np.asarray(view, dtype=np.float32).tobytes()
        snap.close()


# ---------------------------------------------------------------------------
# End-to-end: open-loop load against a live training run (threads)
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_open_loop_serving_with_trace_invariants(self):
        spec = _spec()
        replica = build_mlp(seed=7)
        trace = Trace(meta={"pattern": "serving", "batch_cap": 4,
                            "max_staleness_steps": None, "publish_every": 1})
        snap = ModelSnapshotter(replica.num_params, trace=trace)
        fe = ServingFrontend.for_network(replica, snap.reader(), batch_cap=4,
                                         max_wait=0.001, trace=trace)
        arrivals = poisson_arrivals(30, rate=2000.0, seed=2)
        _, reqs = serve_while_training(
            lambda snap: run_method(spec, "sync-easgd3", iterations=8, snapshotter=snap),
            snap, fe,
            lambda fe: OpenLoopLoadGen(arrivals).run(
                fe, lambda i: spec.test_set.images[i % len(spec.test_set.images)]),
        )
        assert all(r.done and r.result is not None for r in reqs)
        assert all(r.step >= 1 for r in reqs)
        ran = check_all(trace)
        assert "serving-no-overlap" in ran and "serving-batch-cap" in ran
        stats = fe.stats()
        assert stats.served == 30 and stats.p99_latency >= stats.p50_latency
        snap.close()


# ---------------------------------------------------------------------------
# The session: failures in training surface, and nothing is left running
# ---------------------------------------------------------------------------


class _RecordingFrontend:
    """Stands in for a front-end that must never be started."""

    def __init__(self):
        self.calls = []

    def start(self):
        self.calls.append("start")
        return self

    def stop(self):
        self.calls.append("stop")


class TestSession:
    def test_failure_before_the_first_publish_never_starts_the_frontend(self):
        threads = threading.active_count()
        snap = ModelSnapshotter(4)
        fe = _RecordingFrontend()

        def train(_snap):
            raise ValueError("diverged at step 0")

        with pytest.raises(ValueError, match="diverged at step 0"):
            serve_while_training(train, snap, fe, lambda fe: [])
        assert fe.calls == []
        assert threading.active_count() == threads
        snap.close()

    def test_training_that_never_publishes_is_an_error(self):
        snap = ModelSnapshotter(4)
        fe = _RecordingFrontend()
        with pytest.raises(RuntimeError, match="before its first snapshot publish"):
            serve_while_training(lambda snap: "done", snap, fe, lambda fe: [])
        assert fe.calls == []
        snap.close()

    def test_failure_mid_serve_stops_the_frontend_and_is_raised(self):
        threads = threading.active_count()
        snap = ModelSnapshotter(4)
        fe = _make_frontend(snap, batch_cap=4, max_wait=0.0)
        served, raised = threading.Event(), threading.Event()

        def train(snap):
            snap.on_step(np.ones(4, dtype=np.float32), step=1)
            assert served.wait(timeout=30)
            try:
                raise ValueError("diverged at step 2")
            finally:
                raised.set()

        def load(fe):
            first = fe.submit(np.ones(4, dtype=np.float32))
            assert first.wait(timeout=30)
            served.set()
            assert raised.wait(timeout=30)
            # Training has failed; the front-end still serves its last
            # snapshot until the load ends.
            second = fe.submit(np.ones(4, dtype=np.float32))
            assert second.wait(timeout=30)
            return [first, second]

        with pytest.raises(ValueError, match="diverged at step 2"):
            serve_while_training(train, snap, fe, load)
        with pytest.raises(RuntimeError, match="stopped"):
            fe.submit(np.ones(4, dtype=np.float32))
        assert fe.stats().served == 2
        assert threading.active_count() == threads
        snap.close()
