"""One rank context over both fabrics, and one place a cell's options are checked.

``RankContextBase`` is the only rank context: a fabric is its three
constructor arguments (inboxes, codec, arena provider), so the
selective-receive loop exists once. The first half of this module runs
that loop's contract over every fabric — ``threads`` (``queue.SimpleQueue``
inboxes) and ``processes/shm`` (``ShmInbox`` + ``ShmTransport`` codec,
launched with the ``transport="shm"`` compatibility argument): a wedged
receive names its edge, a message landing inside the budget wins, a fault
plan logs every empty poll, and a message for a channel nobody asked
about yet is stashed and handed out later in per-sender order. Then the
arena under a fault plan, over the same fabrics: a float32 allreduce
folds in the arena and its tokens are ordinary messages, so the plan
drops, delays and loses them exactly as it would the message tree's.
And a message lives as long as its cell: what a failed cell strands on a
reused fabric (a threads communicator, an attached pool) is dropped by the
next cell's receives, never read as its own.

The second half pins the option handling that rides on the same
constructor: ``CellOptions`` refuses the same values with the same words
whether they arrive through either communicator or through
``WorkerPool.submit``, and a pool or communicator argument that cannot be
honoured raises where it is given — a host whose stores are not known to
stay in order (x86-TSO) included: the shm fabric refuses to start there.
"""

import multiprocessing
import pickle
import platform
import queue
import time

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.comm import RankContextBase, UnsupportedMemoryModelError
from repro.comm.backend import make_communicator
from repro.comm.collectives import tree_reduce
from repro.comm.mp_runtime import fork_available, MultiprocessCommunicator
from repro.comm.runtime import (
    _HeapArena,
    CellAborted,
    CellOptions,
    COLLECTIVE_TAG_STRIDE,
    collective_wire_tags,
    DeadlockError,
    InProcessCommunicator,
    MultiRankError,
)
from repro.comm.shm_lifecycle import list_live_segments, registered_segments
from repro.comm.shm_transport import SeqlockBuffer
from repro.faults import FaultLog, FaultPlan
from repro.harness import ExperimentSpec, grid_sweep
from repro.nn.models import build_mlp
from repro.pool import WorkerPool
from repro.trace import Trace
from repro.trace.check import check_message_conservation

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


#: An array that fits one inbox record on shm.
_BULK = 64


def _interleaved_channels(ctx):
    """Rank 0 sends three array messages on tag 1, then one on tag 2; rank 2
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
        fault_log=FaultLog(), trace=None, start=time.monotonic(), cell=0,
    )
    assert ctx.recv(source=0, tag=4) == "photo finish"
    assert inbox.timed_gets >= 2  # the whole budget was spent first
    with pytest.raises(DeadlockError):  # and an empty final drain still raises
        ctx.recv(source=0, tag=4)


# ---------------------------------------------------------------------------
# A cell's messages die with the cell
# ---------------------------------------------------------------------------

def _leaky_cell(ctx):
    """Rank 1 sends rank 0 a string, an array and a list, then enters an
    allreduce (its ready token goes out); rank 0 raises before receiving
    any of it, so all four strand in its inbox and rank 1's wait ends at
    rank 0's abort record."""
    if ctx.rank == 0:
        raise RuntimeError("boom")
    ctx.send("stale-from-cell1", dest=0, tag=1)
    ctx.send(np.zeros(64, dtype=np.float32), dest=0, tag=2)
    ctx.send(list(range(-50, 0)), dest=0, tag=3)
    ctx.allreduce(np.zeros(2, dtype=np.float32))


def _clean_cell(ctx):
    if ctx.rank == 1:
        ctx.send("fresh", dest=0, tag=1)
        ctx.send(np.ones(64, dtype=np.float32), dest=0, tag=2)
        ctx.send(list(range(50)), dest=0, tag=3)
        got = None
    else:
        got = (ctx.recv(1, tag=1), float(ctx.recv(1, tag=2).sum()), sum(ctx.recv(1, tag=3)))
    total = ctx.allreduce(np.full(2, ctx.rank + 1.0, dtype=np.float32))
    return got, total.tolist()


@pytest.fixture(params=FABRICS)
def reused_fabric(request):
    """A communicator whose fabric outlives a ``run``, and that fabric's
    inboxes: the threads communicator's own, or an attached pool's."""
    backend, _ = request.param
    if backend == "threads":
        comm = InProcessCommunicator(2, timeout=1.0)
        yield comm, comm._inboxes
        return
    with WorkerPool(2) as pool:
        yield MultiprocessCommunicator(2, timeout=1.0, pool=pool), pool._inboxes


def test_a_failed_cell_leaks_nothing_into_the_next(reused_fabric):
    comm, inboxes = reused_fabric
    with pytest.raises(RuntimeError, match="boom") as err:
        comm.run(_leaky_cell)
    assert not isinstance(err.value, MultiRankError)  # rank 1 was only aborted
    assert not inboxes[0].empty()
    assert comm.run(_clean_cell) == [
        (("fresh", 64.0, 1225), [3.0, 3.0]),
        (None, [3.0, 3.0]),
    ]
    assert all(inbox.empty() for inbox in inboxes)  # the stale records were dropped


def _raise_amid_waits(ctx, raising):
    """The ``raising`` ranks raise at once; the others wait on a receive
    nobody sends (rank 1) or in an allreduce the raisers never join."""
    if ctx.rank in raising:
        raise ValueError(f"boom {ctx.rank}")
    if ctx.rank == 1:
        ctx.recv(source=0, tag=5)
    ctx.allreduce(np.ones(4, dtype=np.float32))


@pytest.mark.parametrize("raising", [(0,), (0, 2)])
@pytest.mark.parametrize("fabric", FABRICS)
def test_a_raising_rank_aborts_its_cell(fabric, raising):
    """Every peer's wait ends at the raiser's abort record, not at the
    timeout, and only the ranks that raised are failures: a lone one
    travels as itself."""
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="boom") as err:
        _run(fabric, 4, _raise_amid_waits, raising, timeout=30.0)
    assert time.monotonic() - t0 < 5.0
    if len(raising) == 1:
        assert type(err.value) is ValueError
    else:
        assert set(err.value.failures) == set(raising)
        assert {type(e) for e in err.value.failures.values()} == {ValueError}


def test_aggregate_keeps_aborted_ranks_only_without_a_real_failure():
    real = ValueError("boom")
    assert MultiRankError.aggregate([(0, CellAborted(0, 1)), (1, real)]) is real
    alone = MultiRankError.aggregate([(0, CellAborted(0, 2)), (1, CellAborted(1, 2))])
    assert isinstance(alone, CellAborted) and set(alone.failures) == {0, 1}
    copy = pickle.loads(pickle.dumps(CellAborted(3, 1)))
    assert (copy.rank, copy.peer) == (3, 1) and "rank 1 raised" in str(copy)


def _refused_tags(ctx):
    refused = []
    for call in (
        lambda: ctx.send("x", dest=ctx.rank, tag=1 << 32),
        lambda: ctx.recv(ctx.rank, tag=-1),
        # The arena's tokens run on wire tags above the user tag.
        lambda: ctx.allreduce(np.ones(2, dtype=np.float32), tag=(1 << 32) - 1),
    ):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*32\)") as err:
            call()
        refused.append(int(str(err.value).split()[1]))
    return refused


def test_a_tag_the_envelope_cannot_carry_is_refused_by_name():
    # The envelope's upper 32 bits are the cell's.
    results = InProcessCommunicator(2, timeout=1.0).run(_refused_tags)
    assert results == [[1 << 32, -1, (1 << 32) - 1 + COLLECTIVE_TAG_STRIDE]] * 2


def test_heap_arena_rows_are_cache_line_aligned():
    for elems in (1, 5, 1001):
        arena = _HeapArena(3, elems)
        rows = [*arena.rows, arena.result]
        assert all(row.shape == (elems,) and row.flags.c_contiguous for row in rows)
        assert all(row.ctypes.data % 64 == 0 for row in rows)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(rows) for b in rows[i + 1:])


# ---------------------------------------------------------------------------
# The arena under a fault plan: tokens are messages like any other
# ---------------------------------------------------------------------------

#: 64 KiB of float32.
_PLAN_ELEMS = 1 << 14


def _plan(seed=3):
    """Drops and delays, no loss: every token gets through eventually."""
    return FaultPlan(seed=seed).drop_rate(0.3).delay(0.3, 0.002)


def _contribution(rank, dtype=np.float32, elems=_PLAN_ELEMS):
    # Magnitudes six decades apart: any association drift flips bits.
    rng = np.random.default_rng(rank)
    values = rng.standard_normal(elems) * rng.choice([1e-3, 1.0, 1e3], size=elems)
    return values.astype(dtype)


def _buffer_allreduce(ctx):
    """Compute into the collective buffer, allreduce, read the view."""
    buf = ctx.collective_buffer(_PLAN_ELEMS)
    buf[:] = _contribution(ctx.rank)
    total = ctx.allreduce(buf, view=True)
    return total.tobytes(), total.flags.writeable


def _allreduce_of(ctx, dtype):
    # 128 elements: a float64 tree edge is one inbox record.
    return ctx.allreduce(_contribution(ctx.rank, dtype, 128), view=True).flags.writeable


def _exchange_pairs(ctx):
    """Swap with the neighbour twice; the second swap hands back one's own."""
    theirs = ctx.exchange(_contribution(ctx.rank), ctx.rank ^ 1, tag=9)
    mine = ctx.exchange(theirs, ctx.rank ^ 1, tag=9)
    return theirs.tobytes() + mine.tobytes()


def _records(fault_log):
    """The plan's decisions, without times and the receivers' empty polls."""
    return sorted(
        (r.kind, r.subject, r.detail) for r in fault_log.records if r.kind != "recv-retry"
    )


@pytest.mark.parametrize("fabric", FABRICS)
class TestArenaUnderAFaultPlan:
    @pytest.mark.parametrize("collective", ["tree", "ring"])
    @pytest.mark.parametrize("size", [3, 4])
    def test_the_arena_folds_under_drops_and_delays(self, fabric, collective, size):
        trace = Trace()
        results, comm = _run(fabric, size, _buffer_allreduce, timeout=20.0, faults=_plan(),
                             collective=collective, trace=trace)
        want = tree_reduce([_contribution(r) for r in range(size)]).tobytes()
        # tree_reduce's bits, read through the arena's read-only window.
        assert results == [(want, False)] * size
        if fabric[0] == "processes":
            assert comm.transport_stats["arena_tokens"] > 0
        assert comm.fault_log.count("drop") > 0 and comm.fault_log.count("retransmit") > 0
        assert comm.fault_log.count("lost") == 0
        check_message_conservation(trace)
        ops = {e.op for e in trace.sends()}
        assert ops == ({"ring-reduce-scatter", "ring-allgather"} if collective == "ring"
                       else {"tree-reduce", "tree-bcast"})

    def test_an_exchange_swaps_under_drops_and_delays(self, fabric):
        trace = Trace()
        results, comm = _run(fabric, 4, _exchange_pairs, timeout=20.0, faults=_plan(),
                             trace=trace)
        # Ranks 0-1 and 2-3 swap twice: each ends with its own array back.
        assert results == [_contribution(r ^ 1).tobytes() + _contribution(r).tobytes()
                           for r in range(4)]
        assert comm.fault_log.count("drop") > 0 and comm.fault_log.count("lost") == 0
        check_message_conservation(trace)
        sends = trace.sends()
        assert {e.op for e in sends} == {"exchange"}
        # A ready token stands for the array, a done token for nothing.
        assert sorted({e.nbytes for e in sends}) == [0, 4 * _PLAN_ELEMS]
        assert len(sends) == 4 * 2 * 2

    def test_the_plan_decides_alike_on_the_arena_and_the_message_tree(self, fabric):
        # float32 folds in the arena, float64 reduces on the message tree:
        # the same edges, tags and sequence numbers, so the same decisions.
        logs = {}
        for dtype, on_arena in ((np.float32, True), (np.float64, False)):
            results, comm = _run(fabric, 4, _allreduce_of, dtype, timeout=20.0, faults=_plan())
            assert results == [not on_arena] * 4  # only the arena hands out its window
            logs[dtype] = _records(comm.fault_log)
        assert logs[np.float32] == logs[np.float64]
        assert {kind for kind, _, _ in logs[np.float32]} >= {"drop", "retransmit", "delay"}

    def test_a_lost_token_names_its_edge(self, fabric):
        # Rank 1's reduce-scatter token to rank 0 never arrives: rank 0
        # waits for it, and the others wait for rank 0's allgather token.
        rs_tag, _ = collective_wire_tags("allreduce", collective="ring")
        plan = FaultPlan(seed=0).lose_message(1, 0, rs_tag)
        comm = make_communicator(3, backend=fabric[0], transport=fabric[1], timeout=0.5,
                                 faults=plan, collective="ring")
        try:
            with pytest.raises(DeadlockError) as err:
                comm.run(_buffer_allreduce)
        finally:
            comm.close()
        assert (err.value.rank, err.value.source, err.value.tag) == (0, 1, rs_tag)
        assert comm.fault_log.count("lost") == 1


# ---------------------------------------------------------------------------
# A cell's options are validated in one place
# ---------------------------------------------------------------------------

def _echo_collective(ctx):
    return ctx.collective, float(ctx.allreduce(np.ones(4, dtype=np.float32))[0])


BAD_OPTIONS = [
    ({"collective": "rnig"}, ValueError, "rnig"),
    ({"timeout": 0.0}, ValueError, "timeout must be positive"),
    # Retransmission is comm.runtime's MAX_RETRIES / RETRY_BACKOFF, not a
    # per-cell knob: asking for one is refused by name, never dropped.
    ({"max_retries": -1}, TypeError, "max_retries"),
    ({"retry_backoff": 0.0}, TypeError, "retry_backoff"),
]


@pytest.mark.parametrize("bad, error, words", BAD_OPTIONS,
                         ids=[next(iter(b)) for b, _, _ in BAD_OPTIONS])
def test_bad_cell_options_are_refused_alike_everywhere(bad, error, words):
    # WorkerPool.submit: test_pool_refuses_bad_cell_options_before_leasing_a_worker.
    with pytest.raises(error, match=words) as record:
        CellOptions(**bad)
    for build in (InProcessCommunicator, MultiprocessCommunicator):
        with pytest.raises(error, match=words) as err:
            build(2, **bad)
        if error is ValueError:  # checked in one place, so worded alike
            assert str(err.value) == str(record.value)


@pytest.mark.pool
@pytest.mark.mp
@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_pool_refuses_bad_cell_options_before_leasing_a_worker():
    # On the parent commit the unknown collective silently ran the tree:
    # [('rnig', 2.0), ('rnig', 2.0)].
    with WorkerPool(2) as pool:
        for bad, error, words in BAD_OPTIONS:
            with pytest.raises(error, match=words):
                pool.submit(2, _echo_collective, **bad)
        assert pool.jobs_run == 0 and all(pool._free)
        assert pool.run(2, _echo_collective, collective="ring") == [("ring", 2.0)] * 2


@pytest.mark.pool
@pytest.mark.parametrize("slots", [0, -1])
def test_pool_refuses_nonpositive_shm_slots_at_construction(slots):
    # A bad ring depth once constructed, then killed every leased worker at
    # the first dispatch. There is no ring depth to set any more: asking
    # for one is refused by name before anything forks or maps a segment.
    children = multiprocessing.active_children()
    segments = list_live_segments()
    for build in (WorkerPool, MultiprocessCommunicator):
        with pytest.raises(TypeError, match="shm_slots"):
            build(2, shm_slots=slots)
    assert multiprocessing.active_children() == children  # nothing was forked
    assert list_live_segments() == segments and registered_segments() == []


@pytest.mark.pool
def test_a_pool_of_the_other_backend_is_refused_not_dropped(mnist_tiny):
    from repro.algorithms.mpi_sgd import run_mpi_sync_sgd

    if not fork_available():
        return
    train, _ = mnist_tiny
    with WorkerPool(2) as pool:
        # Both of these once ran unpooled without a word.
        with pytest.raises(ValueError, match="'threads'.*'processes'"):
            make_communicator(2, backend="threads", pool=pool)
        with pytest.raises(ValueError, match="'threads'.*'processes'"):
            run_mpi_sync_sgd(build_mlp(seed=0), train, ranks=2, iterations=1, pool=pool)
        assert pool.jobs_run == 0


def test_a_knob_the_backend_lacks_is_refused_not_dropped():
    with pytest.raises(TypeError, match="shm_slots"):
        make_communicator(2, backend="threads", shm_slots=4)
    assert make_communicator(2, backend="threads", transport=None, pool=None).backend == "threads"


def test_a_host_that_is_not_tso_is_refused_before_any_fork_or_segment(monkeypatch, mnist_tiny):
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
        assert "'aarch64'" in words and "x86-TSO" in words
        assert "backend='threads'" in words and "without pool_size" in words
    assert multiprocessing.active_children() == children  # nothing was forked
    assert list_live_segments() == segments and registered_segments() == []
    # The ways out work on the same host: one process, no rings.
    assert make_communicator(2, backend="threads").run(_echo_collective) == [("tree", 2.0)] * 2
    train, test = mnist_tiny
    spec = ExperimentSpec(train_set=train, test_set=test, model_builder=lambda: build_mlp(seed=0),
                          config=TrainerConfig(batch_size=16), normalized=True)
    (point,) = grid_sweep(spec, "sync-easgd3", {"lr": [0.05]}, 2)
    assert point.result.iterations == 2
    SeqlockBuffer.create(64).close()
