"""Threads-vs-processes equivalence: same ranks, same bits, same trace shape.

The acceptance bar for the multiprocess backend: running the identical
rank program on forked processes instead of threads must change *nothing*
observable about the algorithm — final weights bit-identical at P = 4 for
sync-easgd and sync-sgd, and the communication traces the
process backend records must satisfy the same structural invariants
(message conservation, tree message/round bounds) the thread backend's
golden traces do.

Dropout-free models only: stochastic layers thread one RNG stream through
the serial path but per-replica streams through rank programs, so bitwise
claims are scoped to deterministic networks (see ``mpi_sgd`` docstring).

The collective matrix extends the same bar across schedules: every
backend x collective cell (threads/processes-over-shm, tree/ring) must
land on ONE weight digest at P = 2 and P = 4 — the ring's shard-wise
folds reproduce the tree's association bit for bit, on either substrate.
Process cells pass ``transport="shm"``, the compatibility argument the
public entry points still accept.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.comm.backend import make_communicator
from repro.comm.collectives import tree_reduce
from repro.comm.mp_runtime import fork_available
from repro.nn.models import build_mlp
from repro.trace import Trace
from repro.trace.check import check_all

pytestmark = [
    pytest.mark.mp,
    pytest.mark.slow,
    pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
]

RANKS = 4
ITERATIONS = 6


def _template(mnist_tiny):
    train, _ = mnist_tiny
    net = build_mlp(seed=7)
    net.forward(train.images[:1])  # materialize params before cloning
    return net, train


class TestEasgdEquivalence:
    @pytest.mark.parametrize("transport", ["shm"])
    def test_bit_identical_final_weights(self, mnist_tiny, transport):
        net, train = _template(mnist_tiny)
        runs = {
            backend: run_mpi_sync_easgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, transport=transport,
            )
            for backend in ("threads", "processes")
        }
        np.testing.assert_array_equal(
            runs["threads"].center, runs["processes"].center
        )
        for wt, wp in zip(runs["threads"].worker_weights,
                          runs["processes"].worker_weights):
            np.testing.assert_array_equal(wt, wp)

    def test_center_history_matches_step_for_step(self, mnist_tiny):
        net, train = _template(mnist_tiny)
        histories = {
            backend: run_mpi_sync_easgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, record_history=True,
            ).center_history
            for backend in ("threads", "processes")
        }
        assert len(histories["threads"]) == ITERATIONS
        for ht, hp in zip(histories["threads"], histories["processes"]):
            np.testing.assert_array_equal(ht, hp)


class TestSyncSgdEquivalence:
    @pytest.mark.parametrize("transport", ["shm"])
    def test_bit_identical_weights_and_losses(self, mnist_tiny, transport):
        net, train = _template(mnist_tiny)
        runs = {
            backend: run_mpi_sync_sgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                lr=0.05, seed=0, backend=backend, transport=transport,
            )
            for backend in ("threads", "processes")
        }
        np.testing.assert_array_equal(
            runs["threads"].weights, runs["processes"].weights
        )
        assert runs["threads"].mean_losses == runs["processes"].mean_losses

    def test_matches_simulated_trainer_bitwise(self, mnist_tiny, fast_config):
        """Transitivity anchor: the process backend equals the simulator."""
        from repro.algorithms.sync_sgd import SyncSGDTrainer
        from repro.cluster import GpuPlatform

        net, train = _template(mnist_tiny)
        _, test = mnist_tiny
        mpi = run_mpi_sync_sgd(
            net, train, ranks=RANKS, iterations=ITERATIONS,
            batch_size=fast_config.batch_size, lr=fast_config.lr,
            seed=fast_config.seed, backend="processes",
        )
        sim = SyncSGDTrainer(
            net.clone(), train, test, GpuPlatform(RANKS), fast_config
        )
        sim.train(ITERATIONS)
        np.testing.assert_array_equal(mpi.weights, sim.net.get_params())


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


#: Direct-allreduce buffer sizes (float32 elements; P-1 is added per run):
#: below the ring's one-element-per-rank floor (P-1, the arena tree) and
#: at it, both sides of 16 KiB (where the transport stops pickling a
#: message in band; the arena takes every size), plus the MLP's packed
#: buffer.
ALLREDUCE_SIZES = (1, 4095, 4096, 4097, 50_891)


def _contribution(rank: int, n: int) -> np.ndarray:
    # Magnitudes six decades apart: any association drift flips bits.
    rng = np.random.default_rng(1000 * n + rank)
    return (rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3], size=n)).astype(np.float32)


def _allreduce_sizes_program(ctx, sizes):
    """allreduce every size, private copy and shared view; also report
    whether the caller's own (non-arena) array came back bit-unchanged."""
    out = {}
    for n in sizes:
        for view in (False, True):
            mine = _contribution(ctx.rank, n)
            total = ctx.allreduce(mine, view=view)
            assert view or total.flags.writeable  # the default is a private array
            out[(n, view)] = (_digest(total), _digest(mine) == _digest(_contribution(ctx.rank, n)))
    return out


def _odd_inputs(rank: int):
    """Buffers off the common path: other dtypes (small, and past 16 KiB),
    which the message tree reduces in their own dtype, a float32 view
    that is not contiguous, which the arena stages by copy, and an empty
    float32 buffer, which has nothing to fold and takes no arena."""
    return {
        "float64-small": np.full(8, 1.0 + 1e-12 * (rank + 1), dtype=np.float64),
        "float64-big": np.full(4096, 1.0 + 1e-12 * (rank + 1), dtype=np.float64),
        "int64": np.arange(8, dtype=np.int64) * (rank + 1),
        "float32-strided": _contribution(rank, 2 * 5000)[::2],
        "float32-empty": np.zeros(0, dtype=np.float32),
    }


def _odd_inputs_program(ctx):
    return {
        name: (lambda total: (str(total.dtype), _digest(total)))(ctx.allreduce(x, view=True))
        for name, x in _odd_inputs(ctx.rank).items()
    }


def _reuse_stress_program(ctx, rounds, elems):
    """Back-to-back view=True allreduces on one tag, each rank checking
    every element of round t before it writes round t+1's contribution:
    a row overwritten while a peer still folds it, or a result rewritten
    while a peer still reads it, shows up as a wrong element."""
    buf = ctx.collective_buffer(elems)
    lane = np.arange(elems, dtype=np.float32) % 5
    ranks_sum = ctx.size * (ctx.size + 1) // 2
    for t in range(rounds):
        np.add(lane, np.float32((ctx.rank + 1) * (t + 1)), out=buf)
        total = ctx.allreduce(buf, view=True)
        expected = ctx.size * lane + np.float32(ranks_sum * (t + 1))
        if not np.array_equal(total, expected):
            return f"rank {ctx.rank} round {t}: {int((total != expected).sum())} wrong elements"
    return "ok"


def _comm_cell(ranks, backend, transport, collective, **kw):
    return make_communicator(ranks, backend=backend, transport=transport,
                             collective=collective, timeout=60.0, **kw)


class TestCollectiveMatrix:
    """backend x collective -> one digest."""

    #: Every cell of the equivalence matrix: one fabric per backend (thread
    #: payloads pass by reference, process bytes move through shm).
    CELLS = [
        ("threads", None, "tree"),
        ("threads", None, "ring"),
        ("processes", "shm", "tree"),
        ("processes", "shm", "ring"),
    ]

    # 3, 5 and 8: non-power-of-two trees, and more ranks than this class
    # of host has cores, so no rank is pinned and every receive that has
    # to wait takes the doorbell path.
    @pytest.mark.parametrize("ranks", [2, 4, 3, 5, 8])
    def test_one_digest_across_matrix(self, mnist_tiny, ranks):
        net, train = _template(mnist_tiny)
        digests = {}
        for backend, transport, collective in self.CELLS:
            res = run_mpi_sync_sgd(
                net, train, ranks=ranks, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, transport=transport,
                collective=collective,
            )
            digests[(backend, transport, collective)] = _digest(res.weights)
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("ranks", [2, 4, 5])
    def test_direct_allreduce_one_digest_per_size(self, ranks):
        """Arena tree or ring, private copy or shared view: one sum, and it
        is ``tree_reduce``'s; the caller's own array is never folded into."""
        sizes = tuple(sorted({ranks - 1, *ALLREDUCE_SIZES}))
        runs = {}
        for cell in self.CELLS:
            comm = _comm_cell(ranks, *cell)
            try:
                runs[cell] = comm.run(_allreduce_sizes_program, sizes)
            finally:
                comm.close()
        for n in sizes:
            want = _digest(tree_reduce([_contribution(r, n) for r in range(ranks)]))
            for cell, per_rank in runs.items():
                for view in (False, True):
                    for rank, out in enumerate(per_rank):
                        digest, input_unchanged = out[(n, view)]
                        assert digest == want, (cell, n, view, rank)
                        assert input_unchanged, (cell, n, view, rank)

    def test_non_float32_and_strided_buffers_keep_dtype_and_bits(self):
        """Regression: processes/shm/ring cast a float64 buffer into its
        float32 arena rows. Only float32 takes an arena (a strided view is
        copied into its row); other dtypes travel as messages — one dtype,
        one digest, in every cell."""
        ranks = 2
        want = {
            name: (str(total.dtype), _digest(total))
            for name in _odd_inputs(0)
            for total in [tree_reduce([_odd_inputs(r)[name] for r in range(ranks)])]
        }
        assert want["float64-small"][0] == "float64" and want["int64"][0] == "int64"
        for cell in self.CELLS:
            comm = _comm_cell(ranks, *cell)
            try:
                per_rank = comm.run(_odd_inputs_program)
            finally:
                comm.close()
            for got in per_rank:
                assert got == want, cell

    @pytest.mark.parametrize("collective", ["tree", "ring"])
    @pytest.mark.parametrize("backend,transport", [("threads", None), ("processes", "shm")])
    def test_arena_reuse_is_safe_back_to_back(self, backend, transport, collective):
        """P = 4 on fewer cores, 300 rounds of a 64 KiB buffer, one tag."""
        comm = _comm_cell(4, backend, transport, collective)
        try:
            assert comm.run(_reuse_stress_program, 300, 1 << 14) == ["ok"] * 4
        finally:
            comm.close()

    @pytest.mark.parametrize("backend,transport", [("threads", None), ("processes", "shm")])
    def test_tree_trace_invariants(self, mnist_tiny, backend, transport):
        """The arena tree moves tokens, but its trace must still show the
        logical tree: one packed full-buffer message per edge per round."""
        net, train = _template(mnist_tiny)
        trace = Trace()
        run_mpi_sync_sgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend=backend, transport=transport,
            collective="tree", trace=trace,
        )
        ran = check_all(trace)
        assert "message-conservation" in ran
        assert "tree-message-bound" in ran
        assert "tree-round-bound" in ran
        assert "packed-single-message" in ran
        reduce_sends = [e for e in trace.sends() if e.op == "tree-reduce"]
        assert len(reduce_sends) == (RANKS - 1) * ITERATIONS
        assert {e.nbytes for e in reduce_sends} == {4 * (net.get_params().size + 1)}
        if transport == "shm":  # it really was the arena: tokens, no slot copies
            marks = {e.op: e.value for e in trace.by_kind("mark") if e.rank == 0}
            assert marks["transport/arena_tokens"] > 0
            assert marks["transport/bytes_copied_in"] == 0

    def test_tree_schedule_is_transport_invariant(self, mnist_tiny):
        """Same send/recv counts and byte totals whether the tree's buffers
        fold in heap rows shared by threads or never leave the shm arena."""
        net, train = _template(mnist_tiny)
        counts = {}
        for backend, transport in [("threads", None), ("processes", "shm")]:
            trace = Trace()
            run_mpi_sync_sgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, transport=transport,
                collective="tree", trace=trace,
            )
            tree_sends = [e for e in trace.sends() if e.op.startswith("tree-")]
            tree_recvs = [e for e in trace.recvs() if e.op.startswith("tree-")]
            counts[(backend, transport)] = (
                len(tree_sends),
                len(tree_recvs),
                sum(e.nbytes for e in tree_sends),
            )
        assert len(set(counts.values())) == 1, counts

    @pytest.mark.parametrize("transport", ["shm"])
    def test_ring_trace_invariants(self, mnist_tiny, transport):
        """The shm arena ring emits traces that satisfy the ring
        structural bounds."""
        net, train = _template(mnist_tiny)
        trace = Trace()
        run_mpi_sync_sgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend="processes", transport=transport,
            collective="ring", trace=trace,
        )
        ran = check_all(trace)
        assert "message-conservation" in ran
        assert "ring-message-bound" in ran
        assert "ring-round-bound" in ran
        assert "ring-bytes-per-rank" in ran
        assert any(e.op == "ring-reduce-scatter" for e in trace.sends())

    def test_ring_schedule_is_transport_invariant(self, mnist_tiny):
        """The shm arena moves its bulk bytes out-of-band, but its trace
        must still record the exact message structure of the generic ring:
        same send/recv counts, same byte totals, on either backend."""
        net, train = _template(mnist_tiny)
        counts = {}
        for backend, transport in [("threads", None), ("processes", "shm")]:
            trace = Trace()
            run_mpi_sync_sgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, transport=transport,
                collective="ring", trace=trace,
            )
            ring_sends = [e for e in trace.sends() if e.op.startswith("ring-")]
            ring_recvs = [e for e in trace.recvs() if e.op.startswith("ring-")]
            counts[(backend, transport)] = (
                len(ring_sends),
                len(ring_recvs),
                sum(e.nbytes for e in ring_sends),
            )
        assert len(set(counts.values())) == 1, counts


class TestProcessTraceInvariants:
    """The process backend's merged traces pass the structural checks."""

    def test_easgd_trace_invariants(self, mnist_tiny):
        net, train = _template(mnist_tiny)
        trace = Trace()
        run_mpi_sync_easgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend="processes", trace=trace,
        )
        ran = check_all(trace)
        assert "message-conservation" in ran
        assert trace.meta["backend"] == "processes"
        assert trace.meta["ranks"] == RANKS

    def test_sgd_trace_invariants(self, mnist_tiny):
        net, train = _template(mnist_tiny)
        trace = Trace()
        run_mpi_sync_sgd(
            net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
            seed=0, backend="processes", trace=trace,
        )
        ran = check_all(trace)
        assert "message-conservation" in ran

    def test_backends_move_identical_message_counts(self, mnist_tiny):
        """Golden structural equality: both backends emit the same number
        of sends/recvs with the same byte totals — the schedule itself is
        substrate-invariant, not just its numerical outcome."""
        net, train = _template(mnist_tiny)
        counts = {}
        for backend in ("threads", "processes"):
            trace = Trace()
            run_mpi_sync_sgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, trace=trace,
            )
            counts[backend] = (
                len(trace.sends()),
                len(trace.recvs()),
                sum(e.nbytes for e in trace.sends()),
            )
        assert counts["threads"] == counts["processes"]
