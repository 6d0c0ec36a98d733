"""The shared-memory inbox: records, wrap, spill, backpressure, both waits.

``ShmInbox`` replaced ``multiprocessing.Queue`` on the shm message path, so
it owes the rank runtime everything the queue gave it: intact records of
any size in per-sender order, a bounded wait that ends in ``queue.Empty``
(and never loses a delivery racing the deadline), and a bounded ``put``
that ends in a typed backpressure error. Two things are new and pinned
here too: an in-band pickle too long for the control ring rides a slot
ring (the spill path), and a receive first spins on the shared heads, then
blocks on a doorbell.

Every case runs twice — spin budget forced to 0 (each wait goes straight
to the doorbell) and at its constant — so both wait paths are covered
whatever the host's core count.
"""

import multiprocessing
import pickle
import queue
import time

from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.comm import MultiprocessCommunicator, RingBackpressureError, shm_transport
from repro.comm.mp_runtime import fork_available
from repro.comm.shm_transport import (
    _wait_until,
    INBOX_RING_BYTES,
    INLINE_LIMIT,
    ShmInbox,
    ShmSlotRef,
    ShmTransport,
)

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

    def test_wait_until_returns_none_at_the_deadline(self):
        calls = []
        t0 = time.monotonic()
        assert _wait_until(lambda: calls.append(1), 0.03, spin=True) is None
        assert time.monotonic() - t0 >= 0.03
        assert len(calls) >= 2  # polled, not slept through


# ---------------------------------------------------------------------------
# Through a real communicator: the spill path and backpressure, end to end.
# ---------------------------------------------------------------------------

def _big_in_band_payloads():
    """Payloads whose in-band pickle dwarfs the inbox ring: no array bodies
    to stage, or arrays protocol 5 cannot ship out of band."""
    grid = np.arange(512 * 512, dtype=np.float32).reshape(512, 512)
    return [
        {"table": list(range(60_000)), "note": "x" * 1000},
        grid[::2, ::2],  # non-contiguous: pickles in band, 256 KiB
    ]


def _spill_program(ctx):
    payloads = _big_in_band_payloads()
    if ctx.rank == 0:
        for payload in payloads:
            ctx.send(payload, dest=1, tag=4)
        return True
    table, view = (ctx.recv(source=0, tag=4) for _ in payloads)
    return table == payloads[0] and np.array_equal(view, payloads[1])


def _flood_program(ctx, count):
    if ctx.rank == 0:
        for i in range(count):
            ctx.send(i, dest=1, tag=2)
        return "sent"
    return "never received"


class TestEndToEnd:
    def test_oversized_in_band_pickle_takes_the_spill_path(self):
        comm = MultiprocessCommunicator(2, timeout=20.0)
        try:
            assert comm.run(_spill_program) == [True, True]
        finally:
            comm.close()
        stats = comm.transport_stats
        assert stats["inbox_spills"] == 2
        assert stats["inbox_messages"] == 2
        assert stats["bytes_copied_in"] == stats["bytes_copied_out"] > 2 * INBOX_RING_BYTES

    def test_spilled_stream_shares_the_slot_with_array_bodies(self):
        # Big arrays *and* a long in-band stream: one slot carries both,
        # so a one-slot ring cannot deadlock on its own second half.
        tp = ShmTransport(rank=0, size=2, slots=1)
        try:
            arr = np.arange(8192, dtype=np.float32)
            payload = (arr, list(range(5000)))
            ref = pickle.loads(tp.pack(1, 0, payload))
            assert isinstance(ref, ShmSlotRef) and ref.meta == b""
            assert len(ref.buffers) == 2
            got = tp.decode(ref)
            np.testing.assert_array_equal(got[0], arr)
            assert got[1] == payload[1]
            assert tp.stats["inbox_spills"] == 1 and tp.stats["ring_allocs"] == 1
        finally:
            tp.close(unlink=True)

    def test_small_payload_is_pickled_once_and_rides_in_band(self):
        tp = ShmTransport(rank=0, size=2)
        try:
            small = np.arange(8, dtype=np.float32)
            body = tp.pack(1, 0, ("loss", 0.5, small))
            assert len(body) <= INLINE_LIMIT
            tag, loss, arr = pickle.loads(body)
            np.testing.assert_array_equal(arr, small)
            assert tp.stats["inband_messages"] == 1 and tp.stats["ring_allocs"] == 0
        finally:
            tp.close(unlink=True)

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
