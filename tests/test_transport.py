"""The zero-copy shm transport and the hot-loop arena machinery.

Three layers of coverage:

1. Fast units (tier-1): the ``transport=`` compatibility argument (only
   ``None`` and ``"shm"`` pass), slot-ring protocol (wraparound,
   backpressure), transport pack/decode with its in-band fallbacks, the
   buffer arena, the ``out=`` forms of im2col/col2im and
   ``next_batch_into``, and the ``_payload_nbytes`` fix for tuple/list
   payloads.
2. Process-backed integration (mp): backpressure through a real
   communicator — a sender blocked on a full ring recovers when the
   receiver drains, and raises a :class:`DeadlockError` subclass when it
   never does — and the spine's exact call shapes.
3. Equivalence (mp + slow): async EASGD over shm lands on the thread
   backend's bits at P = 4.
"""

import hashlib
import multiprocessing
import pickle
import threading
import time

import numpy as np
import pytest

from repro.algorithms import run_mpi_async_easgd, run_mpi_sync_easgd, run_mpi_sync_sgd
from repro.algorithms.ps_runner import run_mpi_gossip, run_mpi_ps
from repro.comm import (
    BufferArena,
    DeadlockError,
    make_communicator,
    MultiprocessCommunicator,
    RingBackpressureError,
    ShmSlotRef,
    ShmTransport,
    SlotRing,
)
from repro.comm.mp_runtime import fork_available
from repro.comm.runtime import _payload_nbytes
from repro.comm.shm_transport import PickleStage, split_pickle
from repro.data.loader import BatchSampler
from repro.data.synthetic import make_mnist_like
from repro.nn.tensor_ops import col2im, im2col

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs the fork start method")


#: The five public rank entry points as the spine calls them: name ->
#: (launcher, ranks).
RUN_MPI = {
    "sync-easgd": (run_mpi_sync_easgd, 2),
    "sync-sgd-ring": (lambda *a, **k: run_mpi_sync_sgd(*a, collective="ring", **k), 2),
    "async-easgd": (run_mpi_async_easgd, 3),
    "downpour": (lambda *a, **k: run_mpi_ps("downpour", *a, **k), 3),
    "gossip": (run_mpi_gossip, 2),
}


class TestValidateTransport:
    """``transport=`` survives only as a compatibility argument: the
    spine's ``None`` and ``"shm"`` pass, anything else is refused with the
    removal named, before a rank starts."""

    def test_accepts_known(self):
        for transport in (None, "shm"):
            threads = make_communicator(2, backend="threads", transport=transport)
            assert threads.backend == "threads"
            procs = make_communicator(2, backend="processes", transport=transport)
            assert isinstance(procs, MultiprocessCommunicator)  # nothing forked yet
            procs.close()

    def test_rejects_unknown(self, tiny_problem):
        net, train = tiny_problem
        children = multiprocessing.active_children()
        for transport in ("queue", "rdma"):
            for backend in ("threads", "processes"):
                with pytest.raises(ValueError, match="queue transport was removed"):
                    make_communicator(2, backend=backend, transport=transport)
            for name, (run, ranks) in RUN_MPI.items():
                with pytest.raises(ValueError, match="queue transport was removed"):
                    run(net, train, ranks, 2, batch_size=16, backend="processes",
                        transport=transport)
        assert multiprocessing.active_children() == children

    @needs_fork
    @pytest.mark.mp
    def test_spine_call_shapes_run(self, tiny_problem):
        """``backend="processes", transport="shm"`` (and threads without a
        transport) still runs every entry point, on the same bits."""
        net, train = tiny_problem

        def digest(result):
            arrays = [result.center, *result.worker_weights]
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

        for name, (run, ranks) in RUN_MPI.items():
            shm = run(net, train, ranks, 2, batch_size=16, backend="processes",
                      transport="shm")
            threads = run(net, train, ranks, 2, batch_size=16, backend="threads")
            assert digest(shm) == digest(threads), name


class TestBufferArena:
    def test_hit_returns_same_buffer(self):
        arena = BufferArena()
        a = arena.get("g", (8, 4))
        b = arena.get("g", (8, 4))
        assert a is b
        assert arena.hits == 1 and arena.misses == 1

    def test_shape_or_dtype_change_reallocates(self):
        arena = BufferArena()
        a = arena.get("g", (8,))
        b = arena.get("g", (9,))
        c = arena.get("g", (9,), np.float64)
        assert a is not b and b is not c
        assert arena.misses == 3

    def test_fill_copies_values(self):
        arena = BufferArena()
        src = np.arange(6, dtype=np.float32)
        out = arena.fill("grad", src)
        assert out is not src
        np.testing.assert_array_equal(out, src)
        src[0] = 99.0
        assert out[0] == 0.0  # private copy, not a view
        assert arena.fill("grad", src) is out  # steady state reuses

    def test_nbytes_and_len(self):
        arena = BufferArena()
        arena.get("a", (16,), np.float32)
        arena.get("b", (4,), np.int64)
        assert len(arena) == 2
        assert arena.nbytes == 16 * 4 + 4 * 8


class TestPayloadNbytes:
    def test_array(self):
        assert _payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_tuple_and_list_recurse(self):
        arr = np.zeros(10, dtype=np.float32)
        # The (loss, weights) piggyback shape that used to report 0 bytes.
        assert _payload_nbytes((np.float32(0.5), arr)) == 4 + 40
        assert _payload_nbytes([arr, arr]) == 80
        assert _payload_nbytes((1, (arr,))) == 40

    def test_bytes_like(self):
        assert _payload_nbytes(b"abcd") == 4
        assert _payload_nbytes(memoryview(b"abcdef")) == 6

    def test_opaque_is_zero(self):
        assert _payload_nbytes(object()) == 0


class TestSlotRing:
    def test_wraparound(self):
        ring = SlotRing(rank=0, dest=1, tag=0, slot_nbytes=100, capacity=2)
        try:
            assert ring.slot_nbytes == 128  # rounded to a cache line
            payload = np.arange(100, dtype=np.uint8)
            offsets = []
            for i in range(9):
                off = ring.acquire(timeout=1.0)
                ring.write(off, payload)
                offsets.append(off)
                ring._tail[0] += 1  # consume immediately (receiver stand-in)
            assert ring.head == 9
            assert ring.in_flight == 0
            # Two slots alternate: offsets cycle with period == capacity.
            assert offsets[0] == offsets[2] and offsets[1] == offsets[3]
            assert offsets[0] != offsets[1]
        finally:
            ring.close(unlink=True)

    def test_backpressure_raises_deadlock_subclass(self):
        ring = SlotRing(rank=3, dest=1, tag=7, slot_nbytes=64, capacity=2)
        try:
            ring.acquire(timeout=0.1)
            ring.acquire(timeout=0.1)
            t0 = time.monotonic()
            with pytest.raises(RingBackpressureError) as exc_info:
                ring.acquire(timeout=0.1)
            assert time.monotonic() - t0 >= 0.1
            err = exc_info.value
            assert isinstance(err, DeadlockError)
            assert err.rank == 3 and err.capacity == 2
            # Consumption unblocks the next acquire.
            ring._tail[0] += 1
            ring.acquire(timeout=0.1)
        finally:
            ring.close(unlink=True)


    def test_blocked_acquire_wakes_soon_after_the_consume(self):
        """Regression: the old backoff doubled its sleeps to 50 ms, so a
        sender blocked for 40 ms woke ~23 ms after the slot was freed."""
        ring = SlotRing(rank=0, dest=1, tag=0, slot_nbytes=64, capacity=1)
        try:
            lags = []
            for _ in range(5):  # best of five: host noise must not fail this
                ring.acquire(timeout=1.0)  # the ring is full again
                freed = []

                def consume():
                    time.sleep(0.04)
                    freed.append(time.monotonic())
                    ring._tail[0] += 1

                receiver = threading.Thread(target=consume)
                receiver.start()
                ring.acquire(timeout=5.0)  # blocks until the consume
                lags.append(time.monotonic() - freed[0])
                receiver.join(timeout=5.0)
                ring._tail[0] += 1
            assert min(lags) < 0.010, lags
        finally:
            ring.close(unlink=True)


class TestShmTransport:
    @staticmethod
    def _staged(transport, payload, dest=1, tag=0):
        """The descriptor of ``payload``'s inbox record."""
        ref = pickle.loads(transport.pack(dest, tag, payload))
        assert isinstance(ref, ShmSlotRef)
        return ref

    def _roundtrip(self, transport, payload, dest=1, tag=0):
        return transport.decode(self._staged(transport, payload, dest, tag))

    def test_large_array_roundtrip(self):
        tp = ShmTransport(rank=0, size=2, min_bytes=1024)
        try:
            arr = np.random.default_rng(0).standard_normal(8192).astype(np.float32)
            out = self._roundtrip(tp, arr)
            np.testing.assert_array_equal(out, arr)
            assert out.flags.writeable  # private copy, never ring memory
            out[0] = -1.0  # must not corrupt anything
            assert tp.stats["shm_messages"] == 1
            assert tp.stats["bytes_copied_in"] == arr.nbytes
            assert tp.stats["bytes_copied_out"] == arr.nbytes
            assert 0 < tp.stats["bytes_on_wire"] < arr.nbytes
        finally:
            tp.close(unlink=True)

    def test_nested_trace_style_tuple(self):
        tp = ShmTransport(rank=0, size=2, min_bytes=1024)
        try:
            arr = np.arange(16384, dtype=np.float32)
            seq_wrapped = (7, (np.float32(0.5), arr))  # (seq, (loss, weights))
            out = self._roundtrip(tp, seq_wrapped)
            assert out[0] == 7
            assert out[1][0] == np.float32(0.5)
            np.testing.assert_array_equal(out[1][1], arr)
        finally:
            tp.close(unlink=True)

    def test_small_and_arrayfree_payloads_fall_back(self):
        tp = ShmTransport(rank=0, size=2, min_bytes=1 << 14)
        try:
            assert pickle.loads(tp.pack(1, 0, "token")) == "token"
            small = pickle.loads(tp.pack(1, 0, np.zeros(4, dtype=np.float32)))
            np.testing.assert_array_equal(small, np.zeros(4, dtype=np.float32))
            assert tp.stats["inband_messages"] == 2
            assert tp.stats["shm_messages"] == tp.stats["ring_allocs"] == 0
            # Non-contiguous arrays pickle in band -> no out-of-band array
            # body; the 64 KiB stream itself then spills through the slot.
            big = np.arange(256 * 256, dtype=np.float32).reshape(256, 256)
            ref = self._staged(tp, big[::2, ::2])
            assert ref.meta == b"" and len(ref.buffers) == 1
            assert tp.stats["inbox_spills"] == 1 and tp.stats["inband_messages"] == 2
            np.testing.assert_array_equal(tp.decode(ref), big[::2, ::2])
        finally:
            tp.close(unlink=True)

    def test_ring_growth_keeps_old_generation_decodable(self):
        tp = ShmTransport(rank=0, size=2, min_bytes=1024)
        try:
            small = np.arange(8192, dtype=np.float32)
            big = np.arange(32768, dtype=np.float32)
            ref_small = self._staged(tp, small)
            ref_big = self._staged(tp, big)  # outgrows the ring: new generation
            assert tp.stats["ring_allocs"] == 2
            assert ref_small.segment != ref_big.segment
            np.testing.assert_array_equal(tp.decode(ref_big), big)
            np.testing.assert_array_equal(tp.decode(ref_small), small)
        finally:
            tp.close(unlink=True)

    def test_per_channel_rings(self):
        tp = ShmTransport(rank=0, size=4, min_bytes=1024)
        try:
            arr = np.arange(8192, dtype=np.float32)
            refs = [self._staged(tp, arr, d, t) for d, t in ((1, 0), (2, 0), (1, 5))]
            assert len({r.segment for r in refs}) == 3  # one ring per (dest, tag)
            assert tp.stats["ring_allocs"] == 3
        finally:
            tp.close(unlink=True)


class TestPickleStage:
    def test_readers_view_the_bulk_in_place_and_cannot_write_it(self):
        payload = ("fn", (np.arange(5000, dtype=np.float32),  # 20000 B: odd cache lines
                          np.arange(4096, dtype=np.float64), np.ones(3)))
        meta, bulk = split_pickle(payload)
        assert len(bulk) == 2 and len(meta) < 1024  # the 24-byte array stays in band
        stage = PickleStage("unit", bulk)
        try:
            assert stage.ref.nbytes == 20000 + 4096 * 8 and stage.ref.meta == b""
            assert all(off % 64 == 0 for off, _ in stage.ref.buffers)
            name, (a, b, c) = PickleStage.load(meta, stage.ref)
        finally:
            stage.unlink()
        # The mapping outlives the unlink, for as long as the arrays do.
        np.testing.assert_array_equal(a, payload[1][0])
        np.testing.assert_array_equal(b, payload[1][1])
        assert name == "fn" and not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        assert c.flags.writeable  # in band: an ordinary private array

    def test_nothing_staged_is_a_plain_pickle(self):
        meta, bulk = split_pickle(("fn", (1, 2)))
        assert bulk == [] and PickleStage.load(meta, None) == ("fn", (1, 2))


class TestTensorOpsOut:
    def _setup(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        return x, 3, 3, 2, 1  # x, field_h, field_w, stride, pad

    def test_im2col_out_bitwise(self):
        x, fh, fw, stride, pad = self._setup()
        ref = im2col(x, fh, fw, stride, pad)
        out = np.empty_like(ref)
        got = im2col(x, fh, fw, stride, pad, out=out)
        assert got is out
        np.testing.assert_array_equal(got, ref)

    def test_im2col_out_validation(self):
        x, fh, fw, stride, pad = self._setup()
        ref = im2col(x, fh, fw, stride, pad)
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            im2col(x, fh, fw, stride, pad, out=np.empty((1, 1), dtype=x.dtype))
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            im2col(x, fh, fw, stride, pad, out=ref.astype(np.float64))

    def test_col2im_out_bitwise_and_zeroed(self):
        x, fh, fw, stride, pad = self._setup()
        cols = im2col(x, fh, fw, stride, pad)
        ref = col2im(cols, x.shape, fh, fw, stride, pad)
        n, c, h, w = x.shape
        scratch = np.full((c, h + 2 * pad, w + 2 * pad, n), 7.0, dtype=cols.dtype)
        got = col2im(cols, x.shape, fh, fw, stride, pad, out=scratch)
        np.testing.assert_array_equal(got, ref)  # stale scratch contents zeroed
        # Second use with the same workspace is still exact.
        got2 = col2im(cols * 2, x.shape, fh, fw, stride, pad, out=scratch).copy()
        np.testing.assert_array_equal(got2, ref * 2)

    def test_col2im_out_validation(self):
        x, fh, fw, stride, pad = self._setup()
        cols = im2col(x, fh, fw, stride, pad)
        with pytest.raises(ValueError, match="out must be C-contiguous"):
            col2im(cols, x.shape, fh, fw, stride, pad, out=np.empty_like(x))


class TestNextBatchInto:
    def test_matches_next_batch_bitwise(self):
        train, _ = make_mnist_like(n_train=64, n_test=16, seed=5)
        a = BatchSampler(train, 8, seed=1, name="x")
        b = BatchSampler(train, 8, seed=1, name="x")
        img_buf = np.empty((8,) + train.images.shape[1:], dtype=train.images.dtype)
        lbl_buf = np.empty((8,) + train.labels.shape[1:], dtype=train.labels.dtype)
        for _ in range(4):  # stays in sync across draws
            ia, la = a.next_batch()
            ib, lb = b.next_batch_into(img_buf, lbl_buf)
            np.testing.assert_array_equal(ia, ib)
            np.testing.assert_array_equal(la, lb)
        assert a.batches_drawn == b.batches_drawn == 4


# ---------------------------------------------------------------------------
# Process-backed integration: backpressure through a real communicator.
# ---------------------------------------------------------------------------

ARRAY_ELEMS = 16384  # 64 KiB float32 >> the transport's DEFAULT_MIN_BYTES


def _slow_consumer(ctx, n_messages):
    if ctx.rank == 0:
        for i in range(n_messages):
            ctx.send(np.full(ARRAY_ELEMS, float(i), dtype=np.float32), dest=1, tag=0)
        return "sent"
    time.sleep(0.3)  # let the sender fill the ring and block on slot reuse
    sums = [float(ctx.recv(source=0, tag=0).sum()) for _ in range(n_messages)]
    return sums


def _absent_consumer(ctx, n_messages):
    if ctx.rank == 0:
        for i in range(n_messages):
            ctx.send(np.full(ARRAY_ELEMS, float(i), dtype=np.float32), dest=1, tag=0)
        return "sent"
    return "never received"


@needs_fork
@pytest.mark.mp
class TestRingBackpressureEndToEnd:
    def test_blocked_sender_recovers_when_receiver_drains(self):
        comm = MultiprocessCommunicator(2, shm_slots=1, timeout=20.0)
        try:
            results = comm.run(_slow_consumer, 4)
        finally:
            comm.close()
        assert results[0] == "sent"
        assert results[1] == [0.0, ARRAY_ELEMS * 1.0, ARRAY_ELEMS * 2.0, ARRAY_ELEMS * 3.0]

    def test_never_draining_receiver_raises_deadlock(self):
        # Only the sender fails, so the error arrives unwrapped — and it
        # must survive the pickle trip back from the forked rank intact.
        comm = MultiprocessCommunicator(2, shm_slots=1, timeout=1.0)
        try:
            with pytest.raises(DeadlockError) as exc_info:
                comm.run(_absent_consumer, 3)
        finally:
            comm.close()
        err = exc_info.value
        assert isinstance(err, RingBackpressureError)
        assert err.rank == 0 and err.capacity == 1


def _echo_stats(ctx):
    if ctx.rank == 0:
        payload = np.arange(ARRAY_ELEMS, dtype=np.float32)
        ctx.send(payload, dest=1, tag=0)
        return float(ctx.recv(source=1, tag=1).sum())
    got = ctx.recv(source=0, tag=0)
    ctx.send(got * 2.0, dest=1 - ctx.rank, tag=1)
    return "echoed"


def _allreduce_only(ctx, steps):
    buf = ctx.collective_buffer(ARRAY_ELEMS)
    for t in range(steps):
        buf[:] = ctx.rank + t
        total = ctx.allreduce(buf, view=True)
        assert total[0] == sum(range(ctx.size)) + ctx.size * t


def _allreduce_private(ctx):
    total = ctx.allreduce(np.ones(ARRAY_ELEMS, dtype=np.float32))
    assert total[0] == ctx.size and total.flags.writeable


@needs_fork
@pytest.mark.mp
class TestTransportStats:
    def test_counters_reported_to_parent(self):
        comm = MultiprocessCommunicator(2, timeout=30.0)
        try:
            comm.run(_echo_stats)
        finally:
            comm.close()
        stats = comm.transport_stats
        assert stats["shm_messages"] == 2
        assert stats["bytes_copied_in"] == 2 * ARRAY_ELEMS * 4
        assert stats["bytes_copied_out"] == 2 * ARRAY_ELEMS * 4
        assert stats["ring_allocs"] == 2

    @pytest.mark.parametrize("collective", ["tree", "ring"])
    def test_arena_traffic_is_counted(self, collective):
        ranks, steps = 4, 5
        comm = MultiprocessCommunicator(ranks, timeout=30.0,
                                        collective=collective)
        try:
            comm.run(_allreduce_only, steps)
        finally:
            comm.close()
        stats = comm.transport_stats
        # Born in the row, read through the view: nothing is copied...
        assert stats["bytes_copied_in"] == stats["bytes_copied_out"] == 0
        # ...and every peer row is read where it lies: (P-1) buffers a step.
        assert stats["bytes_inplace"] == (ranks - 1) * ARRAY_ELEMS * 4 * steps
        per_step = 2 * (ranks - 1) * (ranks if collective == "ring" else 1)
        assert stats["arena_tokens"] == stats["inbox_messages"] == per_step * steps
        # Only tokens cross the fabric: nothing staged, no in-band bytes.
        assert stats["shm_messages"] == stats["inbox_spills"] == 0
        assert stats["bytes_on_wire"] == 0

    def test_private_input_and_result_copies_are_counted(self):
        comm = MultiprocessCommunicator(2, timeout=30.0)
        try:
            comm.run(_allreduce_private)
        finally:
            comm.close()
        stats = comm.transport_stats
        assert stats["bytes_copied_in"] == stats["bytes_copied_out"] == 2 * ARRAY_ELEMS * 4


# ---------------------------------------------------------------------------
# Transport equivalence: shm bytes, the thread backend's bits (mp + slow).
# ---------------------------------------------------------------------------

RANKS = 4
ITERATIONS = 5


@pytest.fixture(scope="module")
def tiny_problem():
    from repro.data.normalize import standardize, standardize_like
    from repro.nn.models import build_mlp

    train, test = make_mnist_like(n_train=512, n_test=256, seed=11, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    net = build_mlp(seed=7)
    net.forward(train.images[:1])  # materialize params before cloning
    return net, train


@needs_fork
@pytest.mark.mp
@pytest.mark.slow
class TestTransportEquivalence:
    def test_async_easgd_matches_threads(self, tiny_problem):
        net, train = tiny_problem
        threaded = run_mpi_async_easgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend="threads",
        )
        forked = run_mpi_async_easgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend="processes", transport="shm",
        )
        np.testing.assert_array_equal(threaded.center, forked.center)
