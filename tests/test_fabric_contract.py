"""One rank context over both fabrics, and one place a cell's options are checked.

``RankContextBase`` is the only rank context: a fabric is its three
constructor arguments (inboxes, codec, arena provider), so the
selective-receive loop exists once. The first half of this module runs
that loop's contract over every fabric — ``threads`` (``queue.Queue``
inboxes) and ``processes/shm`` (``ShmInbox`` + ``ShmTransport`` codec,
launched with the ``transport="shm"`` compatibility argument): a wedged
receive names its edge, a message landing inside the budget wins, a fault
plan logs every empty poll, and a message for a channel nobody asked
about yet is stashed and handed out later in per-sender order.

The second half pins the option handling that rides on the same
constructor: ``CellOptions`` refuses the same values with the same words
whether they arrive through either communicator or through
``WorkerPool.submit``, and a pool or communicator argument that cannot be
honoured raises where it is given — a host whose stores are not known to
stay in order (x86-TSO) included: the shm fabric refuses to start there.
"""

import multiprocessing
import platform
import queue
import time

import numpy as np
import pytest

from repro.comm import MpRankContext, RankContext, RankContextBase, UnsupportedMemoryModelError
from repro.comm.backend import make_communicator
from repro.comm.mp_runtime import fork_available, MultiprocessCommunicator
from repro.comm.runtime import CellOptions, DeadlockError, InProcessCommunicator
from repro.comm.shm_lifecycle import list_live_segments, registered_segments
from repro.comm.shm_transport import SeqlockBuffer
from repro.faults import FaultLog, FaultPlan
from repro.pool import WorkerPool

_forks = [
    pytest.mark.mp,
    pytest.mark.slow,
    pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
]

FABRICS = [
    pytest.param(("threads", None), id="threads"),
    pytest.param(("processes", "shm"), id="processes/shm", marks=_forks),
]


def _run(fabric, size, program, *args, **knobs):
    """``program`` on ``size`` ranks of ``fabric``; returns (results, comm)."""
    backend, transport = fabric
    comm = make_communicator(size, backend=backend, transport=transport, **knobs)
    try:
        return comm.run(program, *args), comm
    finally:
        comm.close()


# ---------------------------------------------------------------------------
# The receive loop, once, over every fabric
# ---------------------------------------------------------------------------

def _wedged_recv(ctx):
    if ctx.rank == 0:
        return None
    try:
        ctx.recv(source=0, tag=7)  # nobody ever sends this
    except DeadlockError as err:
        return (err.rank, err.source, err.tag, err.timeout, isinstance(err, TimeoutError), str(err))
    return "received"


def _late_delivery(ctx, lag):
    if ctx.rank == 0:
        time.sleep(lag)  # arrive mid-wait, after several empty polls
        ctx.send("late", dest=1, tag=3)
        return None
    return ctx.recv(source=0, tag=3)


def _one_message(ctx):
    if ctx.rank == 0:
        ctx.send("slow", dest=1, tag=9)
        return None
    return ctx.recv(source=0, tag=9)


#: 32 KiB of float32: above DEFAULT_MIN_BYTES, so it rides a slot ring on shm.
_BULK = 8192


def _interleaved_channels(ctx):
    """Rank 0 sends three bulk messages on tag 1, then one on tag 2; rank 2
    sends two on tag 1. Rank 1 asks for the *last* one first, so everything
    else crosses its inbox before it and must wait in the stash."""
    if ctx.rank == 0:
        for i in range(3):
            ctx.send(np.full(_BULK, float(i), dtype=np.float32), dest=1, tag=1)
        ctx.send("marker", dest=1, tag=2)
        return None
    if ctx.rank == 2:
        for i in (10, 11):
            ctx.send((i, np.full(_BULK, float(i), dtype=np.float32)), dest=1, tag=1)
        ctx.recv(source=1, tag=5)  # hold the rank until its messages were read
        return None
    got = [ctx.recv(source=0, tag=2)]
    got += [float(ctx.recv(source=0, tag=1)[0]) for _ in range(3)]
    got += [ctx.recv(source=2, tag=1)[0] for _ in range(2)]
    ctx.send("done", dest=2, tag=5)
    return got


@pytest.mark.parametrize("fabric", FABRICS)
class TestReceiveLoop:
    def test_deadlock_error_carries_edge_identity(self, fabric):
        results, _ = _run(fabric, 2, _wedged_recv, timeout=0.2)
        rank, source, tag, timeout, is_timeout, text = results[1]
        assert (rank, source, tag) == (1, 0, 7)
        assert timeout == pytest.approx(0.2) and is_timeout
        assert "rank 1" in text and "tag=7" in text

    def test_delivery_inside_the_budget_beats_the_deadline(self, fabric):
        results, comm = _run(fabric, 2, _late_delivery, 0.15, timeout=1.0)
        assert results[1] == "late"
        # No fault plan: empty polls are nobody's business.
        assert comm.fault_log.count() == 0

    def test_every_empty_poll_is_logged_under_a_fault_plan(self, fabric):
        plan = FaultPlan(seed=0).delay(1.0, 0.4)  # every message 0.4 s late
        results, comm = _run(fabric, 2, _one_message, timeout=5.0, faults=plan)
        assert results[1] == "slow"
        assert comm.fault_log.count("delay") == 1
        retries = [r for r in comm.fault_log.records if r.kind == "recv-retry"]
        # 50 ms, then 100 ms slices: at least two came back empty.
        assert len(retries) >= 2
        assert {r.subject for r in retries} == {"rank 1 <- 0 tag 9"}
        assert [r.detail for r in retries] == [f"poll {i + 1}" for i in range(len(retries))]

    def test_foreign_channels_are_stashed_in_per_sender_order(self, fabric):
        # On shm the tag-1 ring holds two slots: the third bulk send
        # completes only because a stashed message gave its slot back.
        results, _ = _run(fabric, 3, _interleaved_channels, timeout=20.0)
        assert results[1] == ["marker", 0.0, 1.0, 2.0, 10, 11]


class _DeadlineInbox:
    """An inbox whose timed ``get`` never sees the message that its final
    ``get_nowait`` finds: the delivery that lands exactly at the deadline."""

    def __init__(self, record):
        self.record = record
        self.timed_gets = 0

    def get(self, timeout):
        self.timed_gets += 1
        time.sleep(timeout)
        raise queue.Empty

    def get_nowait(self):
        if self.record is None:
            raise queue.Empty
        record, self.record = self.record, None
        return record


def test_a_message_landing_at_the_deadline_wins():
    inbox = _DeadlineInbox((0, 4, "photo finish"))
    ctx = RankContextBase(
        1, [None, inbox], CellOptions(timeout=0.12),
        fault_log=FaultLog(), trace=None, start=time.monotonic(),
    )
    assert ctx.recv(source=0, tag=4) == "photo finish"
    assert inbox.timed_gets >= 2  # the whole budget was spent first
    with pytest.raises(DeadlockError):  # and an empty final drain still raises
        ctx.recv(source=0, tag=4)


def test_there_is_one_rank_context():
    assert RankContext is MpRankContext is RankContextBase


# ---------------------------------------------------------------------------
# A cell's options are validated in one place
# ---------------------------------------------------------------------------

def _echo_collective(ctx):
    return ctx.collective, float(ctx.allreduce(np.ones(4, dtype=np.float32))[0])


BAD_OPTIONS = [
    ({"collective": "rnig"}, "rnig"),
    ({"timeout": 0.0}, "timeout must be positive"),
    ({"max_retries": -1}, "max_retries must be non-negative"),
    ({"retry_backoff": 0.0}, "retry_backoff must be positive"),
]


@pytest.mark.parametrize("bad, words", BAD_OPTIONS, ids=[next(iter(b)) for b, _ in BAD_OPTIONS])
def test_bad_cell_options_are_refused_alike_everywhere(bad, words):
    with pytest.raises(ValueError, match=words) as record:
        CellOptions(**bad)
    for build in (InProcessCommunicator, MultiprocessCommunicator):
        with pytest.raises(ValueError) as err:
            build(2, **bad)
        assert str(err.value) == str(record.value)
    with WorkerPool(2, backend="threads") as pool:
        with pytest.raises(ValueError) as err:
            pool.submit(2, _echo_collective, **bad)
        assert str(err.value) == str(record.value)


@pytest.mark.pool
@pytest.mark.mp
@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_pool_refuses_bad_cell_options_before_leasing_a_worker():
    # On the parent commit the unknown collective silently ran the tree:
    # [('rnig', 2.0), ('rnig', 2.0)].
    with WorkerPool(2) as pool:
        for bad, words in BAD_OPTIONS:
            with pytest.raises(ValueError, match=words):
                pool.submit(2, _echo_collective, **bad)
        assert pool.jobs_run == 0 and all(pool._free)
        assert pool.run(2, _echo_collective, collective="ring") == [("ring", 2.0)] * 2


@pytest.mark.pool
@pytest.mark.parametrize("slots", [0, -1])
def test_pool_refuses_nonpositive_shm_slots_at_construction(slots):
    # On the parent commit this constructed, then killed every leased worker
    # at the first dispatch (the ShmTransport constructor raised inside the
    # worker loop) and left the pool broken.
    children = multiprocessing.active_children()
    segments = list_live_segments()
    with pytest.raises(ValueError, match="shm_slots must be positive"):
        WorkerPool(2, shm_slots=slots)
    assert multiprocessing.active_children() == children  # nothing was forked
    assert list_live_segments() == segments and registered_segments() == []


@pytest.mark.pool
def test_a_pool_of_the_other_backend_is_refused_not_dropped(mnist_tiny):
    from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
    from repro.nn.models import build_mlp

    train, _ = mnist_tiny
    with WorkerPool(2, backend="threads") as threads_pool:
        with pytest.raises(ValueError, match="'processes'.*'threads'"):
            make_communicator(2, backend="processes", pool=threads_pool)
        # The pool's own backend is fine: thread ranks are spawned per run.
        assert make_communicator(2, backend="threads", pool=threads_pool).backend == "threads"
    if not fork_available():
        return
    with WorkerPool(2) as pool:
        # On the parent commit both of these silently ran unpooled.
        with pytest.raises(ValueError, match="'threads'.*'processes'"):
            make_communicator(2, backend="threads", pool=pool)
        with pytest.raises(ValueError, match="'threads'.*'processes'"):
            run_mpi_sync_sgd(build_mlp(seed=0), train, ranks=2, iterations=1, pool=pool)
        assert pool.jobs_run == 0


def test_a_knob_the_backend_lacks_is_refused_not_dropped():
    with pytest.raises(TypeError, match="shm_slots"):
        make_communicator(2, backend="threads", shm_slots=4)
    assert make_communicator(2, backend="threads", transport=None, pool=None).backend == "threads"


def test_a_host_that_is_not_tso_is_refused_before_any_fork_or_segment(monkeypatch):
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    children = multiprocessing.active_children()
    segments = list_live_segments()
    for start in (
        lambda: WorkerPool(2),
        lambda: MultiprocessCommunicator(2).run(_echo_collective),
        lambda: SeqlockBuffer.create(64, shared=True),
    ):
        with pytest.raises(UnsupportedMemoryModelError) as err:
            start()
        words = str(err.value)
        assert "'aarch64'" in words and "x86-TSO" in words and "backend='threads'" in words
    assert multiprocessing.active_children() == children  # nothing was forked
    assert list_live_segments() == segments and registered_segments() == []
    # The way out works on the same host: one process, no rings.
    with WorkerPool(2, backend="threads") as pool:
        assert pool.run(2, _echo_collective) == [("tree", 2.0)] * 2
    SeqlockBuffer.create(64).close()
