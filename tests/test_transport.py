"""The shm transport and the hot-loop arena machinery.

Three layers of coverage:

1. Fast units (tier-1): the ``transport=`` compatibility argument (only
   ``None`` and ``"shm"`` pass), the record codec (one pickle, refused by
   name past ``INLINE_LIMIT``), the dispatch stage, the buffer arena,
   ``next_batch_into``, and the ``_payload_nbytes`` fix for tuple/list
   payloads.
2. Process-backed integration (mp): backpressure through a real
   communicator — a sender blocked on a full inbox ring recovers when the
   receiver drains, and raises a :class:`DeadlockError` subclass when it
   never does — the counters of arena traffic, and the spine's exact
   call shapes.
3. Equivalence (mp + slow): async EASGD over shm lands on the thread
   backend's bits at P = 4.
"""

import hashlib
import json
import multiprocessing
import os
from pathlib import Path
import pickle
import subprocess
import sys
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
    RecordTooLargeError,
    RingBackpressureError,
)
from repro.comm.mp_runtime import fork_available
from repro.comm.runtime import _payload_nbytes
from repro.comm.shm_transport import (
    INBOX_RING_BYTES,
    INLINE_LIMIT,
    PickleStage,
    ShmTransport,
    split_pickle,
)
from repro.data.loader import BatchSampler
from repro.data.synthetic import make_mnist_like

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


class TestShmTransport:
    def test_large_array_is_refused_by_name(self):
        tp = ShmTransport()
        arr = np.zeros(8192, dtype=np.float32)
        with pytest.raises(RecordTooLargeError) as err:
            tp.pack(3, 1, 7, arr)
        e = err.value
        assert (e.rank, e.dest, e.tag) == (3, 1, 7) and e.nbytes > arr.nbytes
        assert f"rank 3: send(dest=1, tag=7) of a {e.nbytes}-byte record" in str(e)
        assert isinstance(e, ValueError) and not isinstance(e, DeadlockError)
        copy = pickle.loads(pickle.dumps(e))  # it travels back from a forked rank
        assert (copy.rank, copy.dest, copy.tag, copy.nbytes) == (3, 1, 7, e.nbytes)
        assert tp.stats["inbox_messages"] == 0

    def test_nested_trace_style_tuple(self):
        tp = ShmTransport()
        arr = np.arange(64, dtype=np.float32)
        seq_wrapped = (7, (np.float32(0.5), arr))  # (seq, (loss, weights))
        out = tp.unpack(tp.pack(0, 1, 0, seq_wrapped))
        assert out[0] == 7
        assert out[1][0] == np.float32(0.5)
        np.testing.assert_array_equal(out[1][1], arr)
        assert out[1][1].flags.writeable  # a private array, like any unpickle

    def test_small_and_arrayfree_payloads_fall_back(self):
        tp = ShmTransport()
        assert tp.unpack(tp.pack(0, 1, 0, "token")) == "token"
        small = tp.unpack(tp.pack(0, 1, 0, np.zeros(4, dtype=np.float32)))
        np.testing.assert_array_equal(small, np.zeros(4, dtype=np.float32))
        assert tp.stats["inbox_messages"] == 2
        # The record is the payload's one pickle, whatever its layout: a
        # non-contiguous view that pickles past the limit is refused too.
        big = np.arange(256 * 256, dtype=np.float32).reshape(256, 256)
        with pytest.raises(RecordTooLargeError):
            tp.pack(0, 1, 0, big[::2, ::2])
        assert len(tp.pack(0, 1, 0, bytes(INLINE_LIMIT - 64))) <= INLINE_LIMIT
        assert tp.stats["inbox_messages"] == 3


class TestPickleStage:
    def test_readers_view_the_bulk_in_place_and_cannot_write_it(self):
        payload = ("fn", (np.arange(5000, dtype=np.float32),  # 20000 B: odd cache lines
                          np.arange(4096, dtype=np.float64), np.ones(3)))
        meta, bulk = split_pickle(payload)
        assert len(bulk) == 2 and len(meta) < 1024  # the 24-byte array stays in band
        stage = PickleStage("unit", bulk)
        try:
            assert stage.ref.nbytes == 20000 + 4096 * 8
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

    def test_short_writes_still_stage_every_byte(self, monkeypatch):
        # A write may take fewer bytes than asked; the stage loops on them.
        rng = np.random.default_rng(0)
        arrays = [rng.integers(0, 256, size, dtype=np.uint8) for size in (16411, 20037, 70001)]
        real = os.pwrite
        calls = []

        def short_pwrite(fd, data, offset):
            calls.append(offset)
            return real(fd, memoryview(data)[: 4096], offset)

        monkeypatch.setattr(os, "pwrite", short_pwrite)
        meta, bulk = split_pickle(tuple(arrays))
        stage = PickleStage("short", bulk)
        monkeypatch.undo()
        try:
            views = PickleStage.load(meta, stage.ref)
        finally:
            stage.unlink()
        assert len(calls) == sum(-(-a.nbytes // 4096) for a in arrays)
        for view, array in zip(views, arrays):
            assert view.tobytes() == array.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_staging_leaves_the_writers_resident_set_alone(self):
        # The writer never maps a page of its stage: staging 32 MiB must not
        # add 32 MiB of shared pages to its resident set.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", _STAGE_32_MIB], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        grown_kib = json.loads(out.stdout)
        assert grown_kib < 4 << 10, f"staging 32 MiB grew ru_maxrss by {grown_kib} KiB"


_STAGE_32_MIB = """
import json, resource
import numpy as np
from repro.comm.shm_transport import PickleStage, split_pickle

meta, bulk = split_pickle(np.ones(32 << 20, dtype=np.uint8))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
stage = PickleStage("rss", bulk)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
stage.unlink()
print(json.dumps(grown))
"""


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

ARRAY_ELEMS = 16384  # 64 KiB float32

#: Small records that overfill one inbox ring (32 ring bytes apiece).
FLOOD = INBOX_RING_BYTES // 32 + 50


def _slow_consumer(ctx, n_messages):
    if ctx.rank == 0:
        for i in range(n_messages):
            ctx.send(i, dest=1, tag=0)
        return "sent"
    time.sleep(0.3)  # let the sender fill the ring and block on it
    return [ctx.recv(source=0, tag=0) for _ in range(n_messages)]


def _absent_consumer(ctx, n_messages):
    if ctx.rank == 0:
        for i in range(n_messages):
            ctx.send(i, dest=1, tag=0)
        return "sent"
    return "never received"


@needs_fork
@pytest.mark.mp
class TestRingBackpressureEndToEnd:
    # The sender runs a full inbox ring ahead of its receiver and blocks
    # on the next record.
    def test_blocked_sender_recovers_when_receiver_drains(self):
        comm = MultiprocessCommunicator(2, timeout=20.0)
        try:
            results = comm.run(_slow_consumer, FLOOD)
        finally:
            comm.close()
        assert results == ["sent", list(range(FLOOD))]

    def test_never_draining_receiver_raises_deadlock(self):
        # Only the sender fails, so the error arrives unwrapped — and it
        # must survive the pickle trip back from the forked rank intact.
        comm = MultiprocessCommunicator(2, timeout=1.0)
        try:
            with pytest.raises(DeadlockError) as exc_info:
                comm.run(_absent_consumer, FLOOD)
        finally:
            comm.close()
        err = exc_info.value
        assert isinstance(err, RingBackpressureError)
        assert err.rank == 0 and err.capacity == INBOX_RING_BYTES


def _echo_stats(ctx):
    theirs = ctx.exchange(np.full(ARRAY_ELEMS, ctx.rank + 1.0, dtype=np.float32),
                          1 - ctx.rank, tag=0)
    return float(theirs.sum())


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
            assert comm.run(_echo_stats) == [2.0 * ARRAY_ELEMS, 1.0 * ARRAY_ELEMS]
        finally:
            comm.close()
        stats = comm.transport_stats
        # Each rank copies its array into its row and the peer's out of it...
        assert stats["bytes_copied_in"] == 2 * ARRAY_ELEMS * 4
        assert stats["bytes_copied_out"] == 2 * ARRAY_ELEMS * 4
        # ...and sends a ready and a done token: the only records.
        assert stats["arena_tokens"] == stats["inbox_messages"] == 4
        assert stats["bytes_on_wire"] == 0

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
        # Only tokens cross the fabric: no bulk byte on the message path.
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
