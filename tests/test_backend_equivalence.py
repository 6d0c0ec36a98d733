"""Threads-vs-processes equivalence: same ranks, same bits, same trace shape.

The acceptance bar for the multiprocess backend: running the identical
rank program on forked processes instead of threads must change *nothing*
observable about the algorithm — final weights bit-identical at P = 4 for
sync-easgd1, sync-easgd3, and sync-sgd, and the communication traces the
process backend records must satisfy the same structural invariants
(message conservation, tree message/round bounds) the thread backend's
golden traces do.

Dropout-free models only: stochastic layers thread one RNG stream through
the serial path but per-replica streams through rank programs, so bitwise
claims are scoped to deterministic networks (see ``mpi_sgd`` docstring).

The collective matrix extends the same bar across schedules: every
backend x transport x collective cell (threads/processes, queue/shm,
tree/ring) must land on ONE weight digest at P = 2 and P = 4 — the ring's
shard-wise folds reproduce the tree's association bit for bit, on either
substrate, over either byte path.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
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
    @pytest.mark.parametrize("variant", [1, 3])
    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_bit_identical_final_weights(self, mnist_tiny, variant, transport):
        net, train = _template(mnist_tiny)
        runs = {
            backend: run_mpi_sync_easgd(
                net, train, ranks=RANKS, iterations=ITERATIONS, batch_size=16,
                seed=0, backend=backend, variant=variant, transport=transport,
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
    @pytest.mark.parametrize("transport", ["queue", "shm"])
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


class TestCollectiveMatrix:
    """backend x transport x collective -> one digest."""

    #: Every cell of the equivalence matrix. Threads ignore the transport
    #: knob (payloads pass by reference), so one thread cell per collective.
    CELLS = [
        ("threads", None, "tree"),
        ("threads", None, "ring"),
        ("processes", "queue", "tree"),
        ("processes", "queue", "ring"),
        ("processes", "shm", "tree"),
        ("processes", "shm", "ring"),
    ]

    @pytest.mark.parametrize("ranks", [2, 4])
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

    @pytest.mark.parametrize("transport", ["queue", "shm"])
    def test_ring_trace_invariants(self, mnist_tiny, transport):
        """Both ring data planes (generic messages, shm arena) emit traces
        that satisfy the ring structural bounds."""
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
        same send/recv counts, same byte totals, per transport and backend."""
        net, train = _template(mnist_tiny)
        counts = {}
        for backend, transport in [
            ("threads", None), ("processes", "queue"), ("processes", "shm"),
        ]:
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
