"""The multiprocess rank backend: forked ranks, shm segments, error ferry.

Everything here forks real OS processes, so the whole module rides in the
slow tier (the fast gate runs ``-m "not slow"``); the bit-identity and
algorithm-level cross-checks live in ``test_backend_equivalence.py``.
"""

import contextlib
import errno
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.comm.backend import make_communicator
from repro.comm.collectives import tree_reduce
from repro.comm.mp_runtime import (
    fork_available,
    MultiprocessCommunicator,
    RemoteRankError,
)
from repro.comm.runtime import DeadlockError, InProcessCommunicator, MultiRankError
from repro.comm.shm_lifecycle import (
    list_live_segments,
    registered_segments,
    segment_name,
    ShmCapacityError,
)
from repro.comm.shm_transport import (
    CollectiveArena,
    PickleStage,
    SeqlockBuffer,
    ShmInbox,
    split_pickle,
)
from repro.pool import WorkerPool

pytestmark = [
    pytest.mark.mp,
    pytest.mark.slow,
    pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
]


def _sum_ranks(ctx):
    vec = np.full(8, float(ctx.rank + 1), dtype=np.float32)
    return ctx.allreduce(vec)


class TestMpPointToPoint:
    def test_send_recv_across_processes(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.send({"payload": np.arange(3)}, dest=1, tag=7)
                return None
            got = ctx.recv(source=0, tag=7)
            return got["payload"].tolist()

        comm = MultiprocessCommunicator(2, timeout=20.0)
        try:
            assert comm.run(prog) == [None, [0, 1, 2]]
        finally:
            comm.close()

    def test_tag_selectivity_across_processes(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.send("b", dest=1, tag=2)
                ctx.send("a", dest=1, tag=1)
                return None
            # Request the later-sent tag first: matching is by tag, not
            # arrival order, even through a single OS pipe.
            return ctx.recv(source=0, tag=1) + ctx.recv(source=0, tag=2)

        comm = MultiprocessCommunicator(2, timeout=20.0)
        try:
            assert comm.run(prog)[1] == "ab"
        finally:
            comm.close()

    def test_deadlock_detected_across_processes(self):
        def prog(ctx):
            ctx.recv(source=(ctx.rank + 1) % ctx.size, tag=0)

        comm = MultiprocessCommunicator(2, timeout=0.5)
        try:
            with pytest.raises(TimeoutError, match="deadlock"):
                comm.run(prog)
        finally:
            comm.close()

    def test_deadlock_error_fields_survive_pickling(self):
        def prog(ctx):
            if ctx.rank == 1:
                ctx.recv(source=0, tag=9)
            return ctx.rank

        comm = MultiprocessCommunicator(2, timeout=0.4)
        try:
            with pytest.raises(DeadlockError) as ei:
                comm.run(prog)
        finally:
            comm.close()
        assert (ei.value.rank, ei.value.source, ei.value.tag) == (1, 0, 9)


class TestMpCollectives:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_reduce_matches_tree_reduce_bitwise(self, size):
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=64).astype(np.float32) for _ in range(size)]

        def prog(ctx):
            return ctx.reduce(vectors[ctx.rank], root=0)

        comm = MultiprocessCommunicator(size, timeout=30.0)
        try:
            results = comm.run(prog)
        finally:
            comm.close()
        np.testing.assert_array_equal(results[0], tree_reduce(vectors))
        assert all(r is None for r in results[1:])

    def test_allreduce_bitwise_equal_to_thread_backend(self):
        thread_comm = InProcessCommunicator(4, timeout=30.0)
        proc_comm = MultiprocessCommunicator(4, timeout=30.0)
        try:
            from_threads = thread_comm.run(_sum_ranks)
            from_procs = proc_comm.run(_sum_ranks)
        finally:
            proc_comm.close()
        for a, b in zip(from_threads, from_procs):
            np.testing.assert_array_equal(a, b)

    def test_bcast_and_barrier_across_processes(self):
        def prog(ctx):
            word = "ready" if ctx.rank == 2 else None
            word = ctx.bcast(word, root=2)
            ctx.barrier()
            return word

        comm = MultiprocessCommunicator(3, timeout=30.0)
        try:
            assert comm.run(prog) == ["ready"] * 3
        finally:
            comm.close()


class TestMpFailures:
    def test_two_distinct_failures_both_named(self):
        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("zero broke")
            if ctx.rank == 1:
                raise ValueError("one broke")
            return ctx.rank

        comm = MultiprocessCommunicator(3, timeout=20.0)
        try:
            with pytest.raises(MultiRankError) as ei:
                comm.run(prog)
        finally:
            comm.close()
        msg = str(ei.value)
        assert set(ei.value.failures) == {0, 1}
        assert "rank 0" in msg and "zero broke" in msg
        assert "rank 1" in msg and "one broke" in msg

    def test_unpicklable_failure_becomes_remote_rank_error(self):
        def prog(ctx):
            if ctx.rank == 1:
                # Exception whose constructor args can't round-trip pickle.
                err = RuntimeError("has a lambda")
                err.ctx = lambda: None
                raise err
            return ctx.rank

        comm = MultiprocessCommunicator(2, timeout=20.0)
        try:
            with pytest.raises(RemoteRankError, match="rank 1"):
                comm.run(prog)
        finally:
            comm.close()


# ---------------------------------------------------------------------------
# The one launch path: a cold run is a private pool of one call, a pooled
# run borrows a long-lived one. Same failures, same cleanup, either way.
# ---------------------------------------------------------------------------

RING_ELEMS = 1 << 14  # 64 KiB of float32: folds in the cell's arena


@contextlib.contextmanager
def _launched(launch, transport, size, timeout):
    """A processes communicator launched cold or over a pool it closes;
    ``transport`` is the compatibility argument, passed as the spine does."""
    pool = WorkerPool(size, timeout=timeout) if launch == "pooled" else None
    comm = make_communicator(
        size, backend="processes", timeout=timeout, transport=transport, pool=pool
    )
    try:
        yield comm
    finally:
        comm.close()
        if pool is not None:
            pool.close()


def _exits_mid_program(ctx):
    if ctx.rank == 1:
        # Map an arena no peer maps first: the dying rank then owns a shm
        # segment whose name it never gets to report.
        ctx.shared_row(7, RING_ELEMS)[:] = 1.0
        ctx.send("bye", dest=0, tag=3)
        os._exit(3)
    ctx.recv(source=1, tag=3)
    return ctx.rank


def _exits_inside_an_allreduce(ctx):
    if ctx.rank == 1:
        # Rank 1 is a leaf of the tree: it hands its buffer upstream (on
        # shm: stages its arena row and sends the ready token), then waits
        # for the total (the done token) — and dies instead.
        ctx._poll = lambda *args: os._exit(3)
    ctx.allreduce(np.ones(RING_ELEMS, dtype=np.float32))
    ctx.allreduce(np.ones(RING_ELEMS, dtype=np.float32))  # survivors wait on a dead rank
    return ctx.rank


def _two_distinct_failures(ctx):
    ctx.allreduce(np.ones(RING_ELEMS, dtype=np.float32))
    if ctx.rank == 0:
        raise RuntimeError("zero broke")
    if ctx.rank == 1:
        raise ValueError("one broke")
    return ctx.rank


def _slow_but_healthy(ctx):
    for _ in range(10):
        time.sleep(0.2)
        ctx.barrier()
    return ctx.rank


def _one_raises_one_sleeps(ctx):
    ctx.allreduce(np.ones(RING_ELEMS, dtype=np.float32))
    if ctx.rank == 1:
        raise ValueError("one broke")
    time.sleep(2.4)  # past timeout + grace, and never inside a recv
    return ctx.rank


@pytest.fixture
def short_grace(monkeypatch):
    """Rank timeout 1.0 s + collection grace 0.5 s: hung after 1.5 s."""
    monkeypatch.setattr("repro.pool.worker_pool._COLLECT_GRACE", 0.5)
    return 1.0


@pytest.fixture
def no_segment_left_behind():
    """Nothing this process's tree created may outlive the case."""
    stamp = segment_name("x").rsplit("x", 1)[0]  # "repro-<owner pid>-"
    before = set(list_live_segments()) | set(registered_segments())
    yield
    left = set(list_live_segments()) | set(registered_segments())
    assert not sorted(n for n in left - before if n.startswith(stamp))


@pytest.mark.usefixtures("no_segment_left_behind")
@pytest.mark.parametrize("transport", ["shm"])
class TestLaunchPath:
    @pytest.mark.parametrize("launch", ["cold", "pooled"])
    def test_rank_that_exits_is_named_not_waited_for(self, launch, transport):
        timeout = 3.0
        t0 = time.monotonic()
        with _launched(launch, transport, 3, timeout) as comm:
            with pytest.raises(RemoteRankError) as ei:
                comm.run(_exits_mid_program)
            raised_after = time.monotonic() - t0
        failures = getattr(ei.value, "failures", {ei.value.rank: ei.value})
        assert isinstance(failures[1], RemoteRankError)
        assert "rank 1" in str(failures[1]) and "exitcode 3" in str(failures[1])
        assert raised_after < timeout + 30.0  # the collect deadline; no hang

    @pytest.mark.parametrize("launch", ["cold", "pooled"])
    def test_rank_that_exits_mid_allreduce_is_named(self, launch, transport):
        # On shm the arena and the inbox rings are live when rank 1 dies;
        # the class fixture checks that none of them outlives the case.
        timeout = 3.0
        t0 = time.monotonic()
        with _launched(launch, transport, 3, timeout) as comm:
            with pytest.raises(RemoteRankError) as ei:
                comm.run(_exits_inside_an_allreduce)
            raised_after = time.monotonic() - t0
        failures = getattr(ei.value, "failures", {ei.value.rank: ei.value})
        assert "rank 1" in str(failures[1]) and "exitcode 3" in str(failures[1])
        assert raised_after < timeout + 30.0

    @pytest.mark.parametrize("launch", ["cold", "pooled"])
    def test_two_distinct_failures_both_named(self, launch, transport):
        with _launched(launch, transport, 3, 20.0) as comm:
            with pytest.raises(MultiRankError) as ei:
                comm.run(_two_distinct_failures)
        assert set(ei.value.failures) == {0, 1}
        assert isinstance(ei.value.failures[0], RuntimeError)
        assert isinstance(ei.value.failures[1], ValueError)
        msg = str(ei.value)
        assert "rank 0" in msg and "zero broke" in msg
        assert "rank 1" in msg and "one broke" in msg

    @pytest.mark.parametrize("launch", ["cold", "pooled"])
    def test_healthy_cell_has_no_wall_budget(self, launch, transport, short_grace):
        # The rank timeout bounds one recv, not the program: 2 s of
        # progressing barriers is not a hang, exactly as on threads.
        with _launched(launch, transport, 2, short_grace) as comm:
            assert comm.run(_slow_but_healthy) == [0, 1]

    @pytest.mark.parametrize("launch", ["cold", "pooled"])
    def test_grace_runs_from_the_first_failure(self, launch, transport, short_grace):
        with _launched(launch, transport, 2, short_grace) as comm:
            with pytest.raises(MultiRankError) as ei:
                comm.run(_one_raises_one_sleeps)
        # Rank 0 was failed while still asleep, not waited out.
        assert set(ei.value.failures) == {0, 1}
        assert "rank 0 hung past the collection deadline" in str(ei.value.failures[0])
        assert isinstance(ei.value.failures[1], ValueError)

    def test_cold_runs_closures_over_unpicklable_state(self, transport):
        # Cold only: a pool forked earlier cannot inherit a later closure.
        lock = threading.Lock()  # unpicklable: must ride fork inheritance

        def outer(scale):
            def prog(ctx):
                with lock:
                    total = ctx.allreduce(np.full(RING_ELEMS, scale, dtype=np.float32))
                return float(total[0])
            return prog

        with _launched("cold", transport, 2, 20.0) as comm:
            assert comm.run(outer(1.5)) == [3.0, 3.0]


class TestMpTraceAndFaults:
    def test_trace_merged_and_conserved(self):
        from repro.trace import Trace
        from repro.trace.check import check_message_conservation

        trace = Trace()
        comm = MultiprocessCommunicator(4, timeout=30.0, trace=trace)
        try:
            comm.run(_sum_ranks)
        finally:
            comm.close()
        assert trace.meta["backend"] == "processes"
        sends, recvs = trace.sends(), trace.recvs()
        assert len(sends) == len(recvs) > 0
        assert {e.rank for e in sends} <= {0, 1, 2, 3}
        times = [(e.t0, e.t1) for e in trace.events]
        assert times == sorted(times)  # parent merged rank streams in order
        check_message_conservation(trace)

    def test_fault_plan_records_merge_from_children(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=0).lose_message(0, 1, 5)
        comm = MultiprocessCommunicator(2, timeout=0.5, faults=plan)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send("gone", dest=1, tag=5)
                return "sent"
            with pytest.raises(DeadlockError):
                ctx.recv(source=0, tag=5)
            return "timed-out"

        try:
            assert comm.run(prog) == ["sent", "timed-out"]
        finally:
            comm.close()
        assert comm.fault_log.count("lost") == 1


def _stage_of(values):
    return PickleStage("unit", split_pickle(values, min_bytes=0)[1])


#: Every creator of a ``repro-*`` segment, by the kind it names.
SEGMENT_CREATORS = {
    "inbox": lambda: ShmInbox.create(2),
    "coll": lambda: CollectiveArena.create_or_attach(segment_name("coll"), 2, 1 << 14),
    "snap": lambda: SeqlockBuffer.create(1 << 14, shared=True),
    "stage": lambda: _stage_of(np.ones(1 << 14, dtype=np.float32)),
}


class TestCreateSegment:
    @pytest.mark.parametrize("kind", sorted(SEGMENT_CREATORS))
    def test_full_dev_shm_is_a_typed_error_not_a_sigbus(self, kind, nearly_full_dev_shm):
        before = set(list_live_segments()) | set(registered_segments())
        with nearly_full_dev_shm():
            with pytest.raises(ShmCapacityError, match=repr(kind)) as ei:
                SEGMENT_CREATORS[kind]()
        assert ei.value.kind == kind
        assert ei.value.needed > ei.value.free == os.statvfs("/dev/shm").f_frsize
        assert isinstance(ei.value, OSError) and ei.value.errno == errno.ENOSPC
        assert set(list_live_segments()) | set(registered_segments()) == before

    def test_error_survives_the_trip_back_from_a_rank(self):
        err = pickle.loads(pickle.dumps(ShmCapacityError("coll", 10, 5)))
        assert (err.kind, err.needed, err.free) == ("coll", 10, 5)
        assert "10 bytes needed, 5 free" in str(err)


class TestBackendSelection:
    def test_make_communicator_dispatch(self):
        from repro.comm.backend import make_communicator

        threads = make_communicator(2, backend="threads")
        procs = make_communicator(2, backend="processes")
        try:
            assert threads.backend == "threads"
            assert procs.backend == "processes"
            assert isinstance(procs, MultiprocessCommunicator)
        finally:
            procs.close()

    def test_unknown_backend_rejected(self):
        from repro.comm.backend import make_communicator, validate_backend

        with pytest.raises(ValueError, match="backend"):
            validate_backend("mpi")
        with pytest.raises(ValueError, match="backend"):
            make_communicator(2, backend="mpi")

    def test_chip_partition_trainer_validates_backend(self, mnist_tiny):
        from repro.algorithms import TrainerConfig
        from repro.knl.partition import ChipPartitionTrainer
        from repro.nn.models import build_mlp

        train, test = mnist_tiny
        config = TrainerConfig(batch_size=16)

        def build(backend):
            return ChipPartitionTrainer(build_mlp(seed=0), train, test, config,
                                        parts=2, backend=backend)

        assert build("processes").backend == "processes"
        with pytest.raises(ValueError, match="backend"):
            build("greenlets")
