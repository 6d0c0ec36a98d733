"""The shared-memory inbox: records, wrap, refusal, backpressure, both waits.

``ShmInbox`` replaced ``multiprocessing.Queue`` on the shm message path, so
it owes the rank runtime everything the queue gave it: intact records of
any size in per-sender order, a bounded wait that ends in ``queue.Empty``
(and never loses a delivery racing the deadline), and a bounded ``put``
that ends in a typed backpressure error. Two things are new and pinned
here too: a message is exactly one record, so a payload whose pickle
exceeds ``INLINE_LIMIT`` is refused by name and its cell aborted, cold and
pooled (and a non-float32 allreduce that cannot fit one is refused on
every rank before it sends); and a receive first spins on the shared heads, then blocks on a
doorbell.

Every case runs twice — spin budget forced to 0 (each wait goes straight
to the doorbell) and at its constant — so both wait paths are covered
whatever the host's core count.
"""

import multiprocessing
import pickle
import queue
import threading
import time

from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.comm import (
    CellAborted,
    CollectiveTooLargeError,
    make_communicator,
    MultiprocessCommunicator,
    RecordTooLargeError,
    RingBackpressureError,
    shm_transport,
)
from repro.comm.mp_runtime import fork_available
from repro.comm.shm_lifecycle import list_live_segments
from repro.comm.shm_transport import (
    _wait_until,
    INBOX_RING_BYTES,
    INLINE_LIMIT,
    ShmInbox,
    ShmTransport,
)
from repro.pool import WorkerPool

pytestmark = [
    pytest.mark.mp,
    pytest.mark.transport,
    pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
]

#: The largest body one record can carry (a 16-byte header precedes it).
MAX_BODY = INBOX_RING_BYTES - 16


@pytest.fixture(autouse=True, params=[0.0, None], ids=["doorbell", "spin"])
def wait_path(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(shm_transport, "_SPIN_SECONDS", request.param)


@pytest.fixture
def inbox():
    box = ShmInbox.create(3, timeout=0.2, spin=True)
    yield box
    box.close(unlink=True)


def _body(i: int, n: int) -> bytes:
    return np.random.default_rng(i).bytes(n)


class TestRecords:
    @given(
        offset=st.integers(0, MAX_BODY),
        sizes=st.lists(st.integers(0, 3 * INLINE_LIMIT), min_size=1, max_size=40),
        burst=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_records_of_any_size_wrap_intact(self, inbox, offset, sizes, burst):
        # Park the ring position anywhere, so records (and their bodies)
        # straddle the wrap point in every alignment.
        inbox.put((1, 0, bytes(offset)))
        assert inbox.get(1.0) == (1, 0, bytes(offset))
        sent = [(1, 100 + i, _body(i, n)) for i, n in enumerate(sizes)]
        got = []
        for k in range(0, len(sent), burst):
            for record in sent[k : k + burst]:
                inbox.put(record)
            got += [inbox.get(1.0) for _ in sent[k : k + burst]]
        assert got == sent
        assert inbox.empty()

    def test_largest_record_fits_and_one_more_byte_is_refused(self, inbox):
        inbox.put((0, 1, bytes(MAX_BODY)))
        assert len(inbox.get(1.0)[2]) == MAX_BODY
        with pytest.raises(ValueError, match="cannot fit"):
            inbox.put((0, 1, bytes(MAX_BODY + 1)))

    def test_sources_are_served_round_robin(self, inbox):
        for i in range(4):
            inbox.put((0, i, b"a"))
        inbox.put((2, 9, b"b"))
        order = [inbox.get_nowait()[0] for _ in range(5)]
        assert order.index(2) == 1  # a flooding source cannot starve another
        with pytest.raises(queue.Empty):
            inbox.get_nowait()


def _writer(box: ShmInbox, src: int, count: int) -> None:
    for i in range(count):
        box.put((src, 7, pickle.dumps((src, i))))


class TestConcurrentWriters:
    def test_three_writers_keep_per_sender_order(self):
        count = 2000
        box = ShmInbox.create(3, timeout=20.0, spin=True)
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer, args=(box, s, count)) for s in range(3)]
        try:
            for p in procs:
                p.start()
            seen = {0: [], 1: [], 2: []}
            for _ in range(3 * count):
                src, tag, body = box.get(20.0)
                assert tag == 7
                origin, i = pickle.loads(body)
                assert origin == src
                seen[src].append(i)
            for p in procs:
                p.join(timeout=20.0)
            assert [p.exitcode for p in procs] == [0, 0, 0]
        finally:
            for p in procs:
                if p.is_alive():
                    p.kill()
            box.close(unlink=True)
        assert all(seq == list(range(count)) for seq in seen.values())


class TestWaits:
    def test_get_raises_empty_after_the_timeout(self, inbox):
        t0 = time.monotonic()
        with pytest.raises(queue.Empty):
            inbox.get(0.05)
        assert 0.05 <= time.monotonic() - t0 < 1.0

    def test_a_record_landing_at_the_deadline_still_wins(self, inbox):
        record = (2, 5, b"at the wire")

        def late_doze(seconds: float) -> None:
            time.sleep(seconds)  # the whole budget...
            inbox.put(record)  # ...and the delivery races its expiry

        inbox._doze = late_doze
        assert inbox.get(0.02) == record

    def test_a_sleeping_receiver_is_woken_by_the_doorbell(self):
        box = ShmInbox.create(1, timeout=5.0, spin=True)
        ctx = multiprocessing.get_context("fork")

        def late_writer() -> None:
            time.sleep(0.05)  # far past the spin budget: the owner is asleep
            box.put((0, 3, b"ring ring"))

        proc = ctx.Process(target=late_writer)
        try:
            proc.start()
            assert box.get(5.0) == (0, 3, b"ring ring")
            assert box.stats["doorbell_waits"] == 1
            proc.join(timeout=5.0)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.kill()
            box.close(unlink=True)

    def test_full_ring_blocks_then_raises_full(self, inbox):
        body = bytes(INBOX_RING_BYTES // 2 - 16)  # two of these, headers included, fill a ring
        inbox.put((0, 1, body))
        inbox.put((0, 1, body))  # source 0's ring is now full...
        inbox.put((1, 1, body))  # ...which is nobody else's problem
        t0 = time.monotonic()
        with pytest.raises(queue.Full):
            inbox.put((0, 1, body))
        assert time.monotonic() - t0 >= inbox.timeout
        inbox.get_nowait()
        inbox.put((0, 1, body))  # consumption makes room again

    def test_a_blocked_put_wakes_soon_after_the_consume(self, inbox):
        """Regression: the old backoff doubled its sleeps to 50 ms, so a
        sender blocked for 40 ms woke ~23 ms after room was freed."""
        body = bytes(INBOX_RING_BYTES // 2 - 16)
        inbox.put((0, 1, body))
        lags = []
        for _ in range(5):  # best of five: host noise must not fail this
            inbox.put((0, 1, body))  # the ring is full again
            freed = []

            def consume():
                time.sleep(0.04)
                freed.append(time.monotonic())
                inbox.get_nowait()

            receiver = threading.Thread(target=consume)
            receiver.start()
            inbox.put((0, 1, body), timeout=5.0)  # blocks until the consume
            lags.append(time.monotonic() - freed[0])
            receiver.join(timeout=5.0)
            inbox.get_nowait()
        assert min(lags) < 0.010, lags

    def test_wait_until_returns_none_at_the_deadline(self):
        calls = []
        t0 = time.monotonic()
        assert _wait_until(lambda: calls.append(1), 0.03, spin=True) is None
        assert time.monotonic() - t0 >= 0.03
        assert len(calls) >= 2  # polled, not slept through


# ---------------------------------------------------------------------------
# Through a real communicator: refusal and backpressure, end to end.
# ---------------------------------------------------------------------------

def _send_program(ctx, n):
    """Rank 1 sends ``list(range(n))`` to rank 0, then every rank joins an
    allreduce. Past the record limit (n = 1000) rank 1 raises, with rank 0
    waiting for its record and ranks 2-3 in the allreduce."""
    if ctx.rank == 1:
        ctx.send(list(range(n)), dest=0, tag=4)
    elif ctx.rank == 0:
        ctx.recv(source=1, tag=4)
    ctx.allreduce(np.ones(4, dtype=np.float32))


def _names_the_send(err):
    assert (err.rank, err.dest, err.tag) == (1, 0, 4) and err.nbytes > INLINE_LIMIT
    assert f"rank 1: send(dest=0, tag=4) of a {err.nbytes}-byte record" in str(err)


def _allreduce_program(ctx, buf):
    return float(ctx.allreduce(buf).sum())


def _flood_program(ctx, count):
    if ctx.rank == 0:
        for i in range(count):
            ctx.send(i, dest=1, tag=2)
        return "sent"
    return "never received"


class TestEndToEnd:
    def test_an_oversized_record_is_refused_by_name_and_aborts_its_cell(self):
        segments = list_live_segments()
        # Cold: the sender's error arrives alone, so every peer ended in
        # CellAborted (anything else would be aggregated beside it).
        t0 = time.monotonic()
        with pytest.raises(RecordTooLargeError) as cold:
            MultiprocessCommunicator(4, timeout=30.0).run(_send_program, 1000)
        assert time.monotonic() - t0 < 5.0  # the peers did not wait out 30 s
        _names_the_send(cold.value)
        # Pooled: every rank's outcome, and the cell's own wall time.
        with WorkerPool(4, timeout=30.0) as pool:
            job = pool.submit(4, _send_program, 1000)
            job.wait(timeout=30.0)
            failures = dict(job.failures)
            assert job.t_done - job.t_submit < 1.0
            assert pool.run(4, _send_program, 10) == [None] * 4  # the pool lives on
        _names_the_send(failures.pop(1))
        assert sorted(failures) == [0, 2, 3]
        assert all(type(e) is CellAborted and e.peer == 1 for e in failures.values())
        assert list_live_segments() == segments

    def test_a_large_non_float32_allreduce_is_refused_before_any_send(self):
        """Only float32 folds in the arena; a float64 buffer longer than one
        record is refused by every rank itself (no peer waits to be
        aborted), cold and pooled, while threads reduce it."""
        big = np.full(4096, 1.0)
        assert big.nbytes > INLINE_LIMIT

        def names_the_buffer(err):
            assert (err.op, err.dtype, err.nbytes) == ("allreduce", "float64", big.nbytes)
            assert "only float32 folds in the cell's arena" in str(err)

        with pytest.raises(CollectiveTooLargeError) as cold:
            MultiprocessCommunicator(2, timeout=30.0).run(_allreduce_program, big)
        names_the_buffer(cold.value)
        with WorkerPool(2, timeout=30.0) as pool:
            job = pool.submit(2, _allreduce_program, big)
            job.wait(timeout=30.0)
            assert job.t_done - job.t_submit < 1.0
            assert pool.run(2, _allreduce_program, big[:8]) == [16.0] * 2  # fits a record
        assert sorted(rank for rank, _ in job.failures) == [0, 1]
        for _, err in job.failures:
            assert type(err) is CollectiveTooLargeError
            names_the_buffer(err)
        threads = make_communicator(2).run(_allreduce_program, big)
        assert threads == [2.0 * big.size] * 2

    def test_small_payload_is_pickled_once_and_rides_in_band(self):
        tp = ShmTransport()
        small = np.arange(8, dtype=np.float32)
        body = tp.pack(0, 1, 0, ("loss", 0.5, small))
        assert len(body) <= INLINE_LIMIT
        tag, loss, arr = pickle.loads(body)
        np.testing.assert_array_equal(arr, small)
        assert tp.stats["inbox_messages"] == 1

    def test_flooded_inbox_raises_ring_backpressure(self):
        # 32 bytes a record: the 64 KiB ring holds 2048 unreceived ints.
        comm = MultiprocessCommunicator(2, timeout=0.5)
        try:
            with pytest.raises(RingBackpressureError) as exc_info:
                comm.run(_flood_program, INBOX_RING_BYTES // 32 + 1)
        finally:
            comm.close()
        err = exc_info.value
        assert (err.rank, err.source, err.tag) == (0, 1, 2)
        assert err.capacity == INBOX_RING_BYTES and err.timeout == 0.5
