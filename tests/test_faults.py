"""The fault-injection and recovery subsystem (``repro.faults``).

Covers the ISSUE-1 acceptance scenarios: crash-before-first-update,
crash-of-all-workers, straggler-only runs, sync-tree rebuild after a
mid-run crash, rejoin-from-center, seeded determinism of fault runs, and
the in-process runtime's retrying fabric + ``DeadlockError``.
"""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.comm.collectives import tree_reduce
from repro.comm.runtime import DeadlockError, InProcessCommunicator
from repro.faults import AllWorkersCrashedError, FaultError, FaultLog, FaultPlan, FaultRecord
from repro.harness.analysis import fault_rate_curve
from repro.harness.results import result_to_dict, results_from_json, results_to_json
from repro.nn.models import build_mlp
from repro.nn.spec import LENET

pytestmark = pytest.mark.faults

ASYNC_EASGD = ALGORITHMS["async-easgd"]


def _trainer(cls, data, faults=None, seed=0, **kwargs):
    train, test = data
    cfg = TrainerConfig(
        batch_size=16, lr=0.05, rho=2.0, seed=seed, eval_every=10, eval_samples=128
    )
    return cls(
        build_mlp(seed=1),
        train,
        test,
        GpuPlatform(num_gpus=4, seed=0),
        cfg,
        CostModel.from_spec(LENET),
        faults=faults,
        **kwargs,
    )


@pytest.fixture(scope="module")
def async_baseline(mnist_tiny):
    """A healthy Async EASGD run — the yardstick for degradation checks."""
    return _trainer(ASYNC_EASGD, mnist_tiny).train(150)


@pytest.fixture(scope="module")
def sync_baseline(mnist_tiny):
    return _trainer(SyncEASGDTrainer, mnist_tiny).train(60)


class TestFaultPlanBuilders:
    def test_chaining_and_queries(self):
        plan = (
            FaultPlan(seed=3)
            .crash(1, at=0.5, rejoin_at=2.0)
            .straggler(2, factor=3.0)
            .stall(0, at=1.0, duration=0.5, factor=10.0)
            .drop_rate(0.05)
        )
        assert plan.crash_time(1) == 0.5
        assert plan.rejoin_time(1) == 2.0
        assert plan.crash_time(0) is None
        assert not plan.is_dead(1, 0.5)  # alive up to and at the instant
        assert plan.is_dead(1, 0.6)
        assert not plan.is_dead(1, 2.0)  # rejoined
        assert plan.slowdown(2, 0.0) == 3.0
        assert plan.slowdown(0, 1.2) == 10.0
        assert plan.slowdown(0, 2.0) == 1.0  # stall window over
        assert not plan.empty

    def test_builder_validation(self):
        with pytest.raises(ValueError, match="positive"):
            FaultPlan().crash(0, at=0.0)
        with pytest.raises(ValueError, match="positive"):
            FaultPlan().crash(0, at=-1.0)
        with pytest.raises(ValueError, match="rejoin_at"):
            FaultPlan().crash(0, at=1.0, rejoin_at=0.5)
        with pytest.raises(ValueError, match="already has a crash"):
            FaultPlan().crash(0, at=1.0).crash(0, at=2.0)
        with pytest.raises(ValueError, match="factor"):
            FaultPlan().straggler(0, factor=0.5)
        with pytest.raises(ValueError, match="duration"):
            FaultPlan().stall(0, at=1.0, duration=0.0)
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan().drop_rate(1.0)
        with pytest.raises(ValueError, match="worker index"):
            FaultPlan().crash(-1, at=1.0)

    def test_validate_names_offending_event(self):
        plan = FaultPlan().crash(7, at=1.0)
        with pytest.raises(ValueError, match="worker 7"):
            plan.validate(4)
        plan.validate(8)  # in range: fine

    def test_drop_decisions_are_seeded_and_order_free(self):
        a, b = FaultPlan(seed=11).drop_rate(0.5), FaultPlan(seed=11).drop_rate(0.5)
        keys = [(s, d, t, q) for s in range(3) for d in range(3) for t in (0, 1) for q in range(20)]
        decisions_a = [a.should_drop(*k) for k in keys]
        # query b in reverse order: decisions must not depend on call order
        decisions_b = [b.should_drop(*k) for k in reversed(keys)][::-1]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)
        other = FaultPlan(seed=12).drop_rate(0.5)
        assert [other.should_drop(*k) for k in keys] != decisions_a

    def test_equality_and_fingerprint(self):
        mk = lambda: FaultPlan(seed=5).crash(1, at=0.5).drop_rate(0.1)  # noqa: E731
        assert mk() == mk()
        assert mk().fingerprint() == mk().fingerprint()
        assert mk() != FaultPlan(seed=6).crash(1, at=0.5).drop_rate(0.1)

    def test_from_spec(self):
        plan = FaultPlan.from_spec("crash:1@0.5>2.0; straggler:2x3.0@1.0; drop:0.05; seed:9")
        assert plan.seed == 9
        assert plan.crash_time(1) == 0.5 and plan.rejoin_time(1) == 2.0
        assert plan.slowdown(2, 0.5) == 1.0 and plan.slowdown(2, 1.5) == 3.0
        assert plan.to_dict()["drop_p"] == 0.05
        stall = FaultPlan.from_spec("stall:0@1.0+0.25")
        assert stall.slowdown(0, 1.1) > 1.0
        delay = FaultPlan.from_spec("delay:1.0@0.5")
        assert delay.delay_seconds(0, 1, 0, 0) == 0.5

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.from_spec("crash:1")
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.from_spec("explode:3@1.0")
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.from_spec("drop:nope")


class TestFaultLog:
    def test_record_count_and_equality(self):
        a, b = FaultLog(), FaultLog()
        for log in (a, b):
            log.record(1.0, "crash", "worker 1", "fail-stop")
            log.record(2.0, "drop", "worker 0 -> master")
        assert a == b and len(a) == 2
        assert a.count("crash") == 1 and a.count() == 2
        assert a.kinds()["drop"] == 1
        assert "crash=1" in a.summary()
        b.record(3.0, "evict", "worker 1")
        assert a != b

    def test_to_dicts(self):
        log = FaultLog()
        log.record(1.5, "rejoin", "worker 2", "re-pulled elastic center")
        (d,) = log.to_dicts()
        assert d == {"time": 1.5, "kind": "rejoin", "subject": "worker 2",
                     "detail": "re-pulled elastic center"}
        assert list(log) == [FaultRecord(1.5, "rejoin", "worker 2", "re-pulled elastic center")]


class TestLegacyFailuresDict:
    """The checks of the old ``failures={worker: time}`` shorthand, which
    ``FaultPlan.crash`` and the trainer's ``validate`` make on their own."""

    def test_zero_time_rejected_with_key(self):
        with pytest.raises(ValueError, match=r"crash\(worker=1\): time must be positive, got 0\.0"):
            FaultPlan(seed=0).crash(1, 0.0)

    def test_negative_time_rejected_with_key(self):
        with pytest.raises(ValueError, match=r"crash\(worker=2\)"):
            FaultPlan(seed=0).crash(2, -0.5)

    def test_out_of_range_worker_rejected_with_key(self, mnist_tiny):
        # worker index == num_workers (4) must not be accepted silently
        with pytest.raises(ValueError, match="targets worker 4"):
            _trainer(ASYNC_EASGD, mnist_tiny, faults=FaultPlan(seed=0).crash(4, 1.0))

    def test_legacy_dict_becomes_fault_plan(self, mnist_tiny):
        trainer = _trainer(ASYNC_EASGD, mnist_tiny, faults=FaultPlan(seed=0).crash(1, 0.5))
        assert trainer.faults.crash_time(1) == 0.5
        with pytest.raises(TypeError, match="failures"):
            _trainer(ASYNC_EASGD, mnist_tiny, failures={1: 0.5})


class TestAsyncFaults:
    def test_crash_before_first_update(self, mnist_tiny, async_baseline):
        plan = FaultPlan(seed=1).crash(0, at=async_baseline.sim_time * 1e-6)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(150)
        assert res.fault_log.count("crash") == 1
        assert res.final_accuracy > 0.7  # survivors carry the run

    def test_all_workers_crash_raises_gracefully(self, mnist_tiny):
        plan = FaultPlan(seed=1)
        for j in range(4):
            plan.crash(j, at=1e-9)
        with pytest.raises(AllWorkersCrashedError, match="all 4 workers"):
            _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(100)
        assert issubclass(AllWorkersCrashedError, FaultError)

    def test_midrun_crash_degrades_gracefully(self, mnist_tiny, async_baseline):
        """Acceptance: a mid-run crash completes without hanging and lands
        within 5 accuracy points of the healthy run."""
        plan = FaultPlan(seed=2).crash(2, at=async_baseline.sim_time / 3)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(150)
        assert res.iterations == 150  # no silent worker-loss truncation
        assert async_baseline.final_accuracy - res.final_accuracy <= 0.05
        assert res.fault_log.count("crash") == 1
        assert res.extras["degraded_iterations"] > 0
        assert res.breakdown.degraded_rounds > 0

    def test_straggler_only_matches_no_fault_accuracy(self, mnist_tiny, async_baseline):
        # Factor must beat the overlap: in elastic mode the send does not
        # wait for the pass, so mild stragglers are absorbed entirely by
        # the master's service queue (sim_time stays identical). 10x is
        # slow enough that compute dominates the worker's cycle.
        plan = FaultPlan(seed=3).straggler(1, factor=10.0)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(150)
        # Stragglers perturb only the schedule, not the update math: the
        # run converges to the same neighborhood, just later.
        assert abs(res.final_accuracy - async_baseline.final_accuracy) <= 0.05
        assert res.sim_time > async_baseline.sim_time

    def test_crashed_worker_rejoins_from_center(self, mnist_tiny, async_baseline):
        t_total = async_baseline.sim_time
        plan = FaultPlan(seed=4).crash(1, at=t_total / 4, rejoin_at=t_total / 2)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(150)
        assert res.fault_log.count("rejoin") == 1
        assert res.extras["workers_rejoined"] == 1.0
        assert res.final_accuracy > 0.7

    def test_heartbeat_eviction(self, mnist_tiny, async_baseline):
        plan = FaultPlan(seed=5).crash(3, at=async_baseline.sim_time / 4)
        res = _trainer(
            ASYNC_EASGD, mnist_tiny, faults=plan,
            heartbeat_timeout=async_baseline.sim_time / 20,
        ).train(150)
        assert res.fault_log.count("evict") == 1
        assert res.extras["workers_evicted"] == 1.0

    def test_message_drops_are_retried(self, mnist_tiny):
        plan = FaultPlan(seed=6).drop_rate(0.2)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(150)
        assert res.iterations == 150  # every interaction eventually lands
        assert res.fault_log.count("drop") >= 1
        assert res.extras["messages_dropped"] >= 1.0

    def test_fault_run_is_bit_reproducible(self, mnist_tiny):
        """Acceptance: same plan + seed -> identical histories and logs."""

        def run():
            plan = FaultPlan(seed=9).crash(1, at=0.05).drop_rate(0.1).straggler(0, 2.0)
            return _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(120)

        a, b = run(), run()
        assert a.records == b.records
        assert a.fault_log == b.fault_log
        assert a.extras == b.extras
        assert a.sim_time == b.sim_time

    def test_async_sgd_supports_faults_too(self, mnist_tiny):
        plan = FaultPlan(seed=7).crash(0, at=1e-6)
        res = _trainer(ALGORITHMS["async-sgd"], mnist_tiny, faults=plan).train(100)
        assert res.fault_log.count("crash") == 1
        assert res.iterations == 100

    def test_plan_validated_against_worker_count(self, mnist_tiny):
        with pytest.raises(ValueError, match="worker 11"):
            _trainer(ASYNC_EASGD, mnist_tiny, faults=FaultPlan().crash(11, at=1.0))


class TestSyncFaults:
    def test_midrun_crash_rebuilds_tree(self, mnist_tiny, sync_baseline):
        """Acceptance: Sync EASGD completes (no deadlock), rebuilds the
        reduction tree over survivors, and degrades within 5 points."""
        plan = FaultPlan(seed=1).crash(1, at=sync_baseline.sim_time / 3)
        res = _trainer(SyncEASGDTrainer, mnist_tiny, faults=plan).train(60)
        assert res.iterations == 60
        assert res.fault_log.count("tree-rebuild") == 1
        assert res.extras["degraded_rounds"] > 0
        assert res.breakdown.degraded_rounds > 0
        assert sync_baseline.final_accuracy - res.final_accuracy <= 0.05

    def test_all_crash_raises_not_hangs(self, mnist_tiny, sync_baseline):
        plan = FaultPlan(seed=2)
        for j in range(4):
            plan.crash(j, at=sync_baseline.sim_time / 10)
        with pytest.raises(AllWorkersCrashedError, match="all 4 workers"):
            _trainer(SyncEASGDTrainer, mnist_tiny, faults=plan).train(60)

    def test_straggler_only_is_numerically_identical(self, mnist_tiny, sync_baseline):
        """A straggler changes only the clock in the synchronous schedule:
        the weight trajectory (and hence accuracy) is bit-identical."""
        plan = FaultPlan(seed=3).straggler(2, factor=5.0)
        res = _trainer(SyncEASGDTrainer, mnist_tiny, faults=plan).train(60)
        assert res.final_accuracy == sync_baseline.final_accuracy
        assert [r.test_accuracy for r in res.records] == [
            r.test_accuracy for r in sync_baseline.records
        ]
        assert res.sim_time > sync_baseline.sim_time

    def test_degraded_rounds_are_cheaper_per_iteration(self, mnist_tiny, sync_baseline):
        """Fewer live ranks -> shallower tree + fewer gradient streams, so
        the crashed run must not cost *more* wall-clock than the full one."""
        plan = FaultPlan(seed=4).crash(0, at=sync_baseline.sim_time / 4)
        res = _trainer(SyncEASGDTrainer, mnist_tiny, faults=plan).train(60)
        assert res.sim_time < sync_baseline.sim_time

    def test_rejoin_restores_from_center(self, mnist_tiny, sync_baseline):
        t_total = sync_baseline.sim_time
        plan = FaultPlan(seed=5).crash(2, at=t_total / 4, rejoin_at=t_total / 2)
        res = _trainer(SyncEASGDTrainer, mnist_tiny, faults=plan).train(60)
        assert res.fault_log.count("rejoin") == 1
        assert res.fault_log.count("tree-rebuild") == 2  # shrink, then regrow
        assert abs(res.final_accuracy - sync_baseline.final_accuracy) <= 0.05

    def test_empty_plan_is_bitwise_no_op(self, mnist_tiny, sync_baseline):
        res = _trainer(SyncEASGDTrainer, mnist_tiny, faults=FaultPlan(seed=0)).train(60)
        assert res.records == sync_baseline.records
        assert res.sim_time == sync_baseline.sim_time

    def test_sync_sgd_crash_path(self, mnist_tiny):
        base = _trainer(SyncSGDTrainer, mnist_tiny).train(60)
        plan = FaultPlan(seed=6).crash(3, at=base.sim_time / 3)
        res = _trainer(SyncSGDTrainer, mnist_tiny, faults=plan).train(60)
        assert res.iterations == 60
        assert res.fault_log.count("tree-rebuild") == 1
        assert base.final_accuracy - res.final_accuracy <= 0.05

    def test_original_easgd_skips_dead_worker(self, mnist_tiny):
        base = _trainer(OriginalEASGDTrainer, mnist_tiny).train(80)
        plan = FaultPlan(seed=7).crash(1, at=base.sim_time / 3)
        res = _trainer(OriginalEASGDTrainer, mnist_tiny, faults=plan).train(80)
        assert res.iterations == 80
        assert res.fault_log.count("crash") == 1
        assert res.extras["degraded_rounds"] > 0
        assert base.final_accuracy - res.final_accuracy <= 0.05

    def test_original_easgd_all_crash_raises(self, mnist_tiny):
        plan = FaultPlan(seed=8)
        for j in range(4):
            plan.crash(j, at=1e-9)
        with pytest.raises(AllWorkersCrashedError):
            _trainer(OriginalEASGDTrainer, mnist_tiny, faults=plan).train(50)


class TestRuntimeFaults:
    def test_deadlock_error_carries_context(self):
        def prog(ctx):
            return ctx.recv(source=(ctx.rank + 1) % ctx.size, tag=17)

        with pytest.raises(DeadlockError) as exc_info:
            InProcessCommunicator(2, timeout=0.2).run(prog)
        err = exc_info.value
        assert isinstance(err, TimeoutError)  # backward compatible
        assert err.source == (err.rank + 1) % 2
        assert err.tag == 17
        assert "deadlock" in str(err)

    def test_timeout_is_per_communicator(self):
        import time as _time

        def prog(ctx):
            return ctx.recv(source=(ctx.rank + 1) % ctx.size)

        start = _time.monotonic()
        with pytest.raises(DeadlockError):
            InProcessCommunicator(2, timeout=0.15).run(prog)
        assert _time.monotonic() - start < 5.0  # nowhere near the 60s default

    def test_five_percent_drop_completes_collectives(self):
        """Acceptance: bcast + allreduce under a 5% drop plan completes via
        sender retransmission + receiver backoff, bit-identical result."""
        plan = FaultPlan(seed=42).drop_rate(0.05)
        comm = InProcessCommunicator(4, timeout=10.0, faults=plan)
        vecs = [np.full(8, float(r)) for r in range(4)]

        def prog(ctx):
            word = ctx.bcast("payload" if ctx.rank == 0 else None, root=0)
            total = ctx.allreduce(vecs[ctx.rank])
            return word, total

        results = comm.run(prog)
        expected = tree_reduce(vecs)
        for word, total in results:
            assert word == "payload"
            np.testing.assert_array_equal(total, expected)

    def test_heavy_drop_logs_retransmissions(self):
        plan = FaultPlan(seed=1).drop_rate(0.35)
        comm = InProcessCommunicator(4, timeout=10.0, faults=plan)
        vecs = [np.ones(4) * r for r in range(4)]
        results = comm.run(lambda ctx: ctx.allreduce(vecs[ctx.rank]))
        expected = tree_reduce(vecs)
        for r in results:
            np.testing.assert_array_equal(r, expected)
        assert comm.fault_log.count("drop") >= 1
        assert comm.fault_log.count("retransmit") >= 1

    def test_lost_forever_message_raises_deadlock_with_context(self):
        plan = FaultPlan(seed=0).lose_message(0, 1, 5)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send("x", dest=1, tag=5)
                return None
            return ctx.recv(source=0, tag=5)

        comm = InProcessCommunicator(2, timeout=0.3, faults=plan)
        with pytest.raises(DeadlockError) as exc_info:
            comm.run(prog)
        assert (exc_info.value.rank, exc_info.value.source, exc_info.value.tag) == (1, 0, 5)
        assert comm.fault_log.count("lost") == 1

    def test_fault_free_fabric_unchanged(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.send({"x": 42}, dest=1)
                return None
            return ctx.recv(source=0)

        comm = InProcessCommunicator(2)
        assert comm.run(prog)[1] == {"x": 42}
        assert len(comm.fault_log) == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            InProcessCommunicator(2, timeout=0.0)
        with pytest.raises(ValueError):
            InProcessCommunicator(2, collective="rnig")


class TestAnalysisAndSerialization:
    def test_fault_rate_curve(self, mnist_tiny):
        runs = {
            p: _trainer(ASYNC_EASGD, mnist_tiny, faults=FaultPlan(seed=1).drop_rate(p)).train(60)
            for p in (0.0, 0.1)
        }
        rates, accs = fault_rate_curve(runs)
        assert list(rates) == [0.0, 0.1]
        assert accs.shape == (2,)
        with pytest.raises(ValueError):
            fault_rate_curve({})

    def test_result_serializes_fault_log(self, mnist_tiny, tmp_path):
        plan = FaultPlan(seed=2).crash(1, at=0.05)
        res = _trainer(ASYNC_EASGD, mnist_tiny, faults=plan).train(60)
        d = result_to_dict(res)
        assert d["fault_log"] and d["fault_log"][0]["kind"] == "crash"
        assert "degraded_rounds" in d
        path = tmp_path / "runs.json"
        results_to_json([res], path)
        (loaded,) = results_from_json(path)
        assert loaded["fault_log"] == d["fault_log"]

    def test_healthy_result_omits_fault_log(self, mnist_tiny):
        res = _trainer(ASYNC_EASGD, mnist_tiny).train(30)
        assert "fault_log" not in result_to_dict(res)
