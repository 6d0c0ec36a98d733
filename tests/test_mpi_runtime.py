"""The in-process MPI-style runtime and the message-passing EASGD port."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.comm.collectives import tree_reduce
from repro.comm.runtime import InProcessCommunicator
from repro.engine import StepPipeline
from repro.nn.models import build_mlp
from repro.nn.spec import LENET
from repro.trace import Trace
from repro.trace.check import check_all


class TestPointToPoint:
    def test_send_recv(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.send({"x": 42}, dest=1)
                return None
            return ctx.recv(source=0)

        results = InProcessCommunicator(2).run(prog)
        assert results[1] == {"x": 42}

    def test_tag_selectivity(self):
        """A recv on tag B must not consume a message sent with tag A."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send("a", dest=1, tag=1)
                ctx.send("b", dest=1, tag=2)
                return None
            b = ctx.recv(source=0, tag=2)
            a = ctx.recv(source=0, tag=1)
            return (a, b)

        results = InProcessCommunicator(2).run(prog)
        assert results[1] == ("a", "b")

    def test_fifo_per_channel(self):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    ctx.send(i, dest=1)
                return None
            return [ctx.recv(source=0) for _ in range(5)]

        assert InProcessCommunicator(2).run(prog)[1] == [0, 1, 2, 3, 4]

    def test_deadlock_detected(self):
        def prog(ctx):
            return ctx.recv(source=(ctx.rank + 1) % ctx.size)  # everyone waits

        with pytest.raises(TimeoutError, match="deadlock"):
            InProcessCommunicator(2, timeout=0.2).run(prog)

    def test_rank_exception_propagates(self):
        def prog(ctx):
            if ctx.rank == 1:
                raise RuntimeError("rank 1 exploded")
            return ctx.rank

        with pytest.raises(RuntimeError, match="exploded"):
            InProcessCommunicator(2, timeout=1.0).run(prog)

    def test_invalid_dest(self):
        def prog(ctx):
            ctx.send(1, dest=99)

        with pytest.raises(ValueError):
            InProcessCommunicator(2).run(prog)


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_bcast_reaches_all(self, size):
        def prog(ctx):
            payload = "hello" if ctx.rank == 0 else None
            return ctx.bcast(payload, root=0)

        assert InProcessCommunicator(size).run(prog) == ["hello"] * size

    def test_bcast_nonzero_root(self):
        def prog(ctx):
            payload = ctx.rank if ctx.rank == 2 else None
            return ctx.bcast(payload, root=2)

        assert InProcessCommunicator(4).run(prog) == [2, 2, 2, 2]

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_reduce_matches_tree_reduce_bitwise(self, size):
        """The MPI reduce must reproduce the simulator's association order."""
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=64).astype(np.float32) for _ in range(size)]

        def prog(ctx):
            return ctx.reduce(vectors[ctx.rank], root=0)

        results = InProcessCommunicator(size).run(prog)
        np.testing.assert_array_equal(results[0], tree_reduce(vectors))
        assert all(r is None for r in results[1:])

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_allreduce_all_ranks_equal(self, size):
        rng = np.random.default_rng(1)
        vectors = [rng.normal(size=16).astype(np.float64) for _ in range(size)]

        def prog(ctx):
            return ctx.allreduce(vectors[ctx.rank])

        results = InProcessCommunicator(size).run(prog)
        expected = tree_reduce(vectors)
        for r in results:
            np.testing.assert_array_equal(r, expected)

    def test_barrier_orders_phases(self):
        """No rank observes phase-2 data before every rank finished phase 1."""
        import threading

        phase1_done = []
        lock = threading.Lock()

        def prog(ctx):
            with lock:
                phase1_done.append(ctx.rank)
            ctx.barrier()
            with lock:
                return len(phase1_done)

        results = InProcessCommunicator(4).run(prog)
        assert all(count == 4 for count in results)

    @settings(max_examples=10, deadline=None)
    @given(size=st.integers(1, 9), seed=st.integers(0, 20))
    def test_reduce_property(self, size, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.normal(size=8) for _ in range(size)]

        def prog(ctx):
            return ctx.reduce(vectors[ctx.rank], root=0)

        results = InProcessCommunicator(size).run(prog)
        np.testing.assert_allclose(results[0], np.sum(vectors, axis=0), rtol=1e-9)


class TestMpiEasgd:
    def test_converges(self, mnist_tiny):
        train, test = mnist_tiny
        net = build_mlp(seed=4)
        out = run_mpi_sync_easgd(net, train, ranks=4, iterations=40, batch_size=16,
                                 lr=0.05, rho=2.0, seed=0)
        eval_net = build_mlp(seed=4)
        eval_net.set_params(out.center)
        assert eval_net.evaluate(test.images, test.labels) > 0.7

    def test_bitwise_matches_simulated_trainer(self, mnist_tiny):
        """The real message-passing run and the simulated Sync EASGD trainer
        follow the exact same weight trajectory — the strongest possible
        cross-validation between the two implementations."""
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0, eval_every=10)
        sim = SyncEASGDTrainer(
            build_mlp(seed=4), train, test,
            GpuPlatform(num_gpus=4, seed=0), cfg, CostModel.from_spec(LENET), variant=3,
        )
        iterations = 12
        pipeline = StepPipeline(sim, sim.make_step())
        pipeline.run(iterations)
        state = pipeline.strategy.state

        mpi = run_mpi_sync_easgd(
            build_mlp(seed=4), train, ranks=4, iterations=iterations,
            batch_size=16, lr=0.05, rho=2.0, seed=0, record_history=True,
        )
        assert mpi.center.tobytes() == state["center"].tobytes()
        assert mpi.center_history[-1].tobytes() == state["center"].tobytes()
        assert [w.tobytes() for w in mpi.worker_weights] == \
            [state[f"worker-{j}"].tobytes() for j in range(4)]

    def test_variant_is_gone(self, mnist_tiny):
        """Sync EASGD1-3 share one set of update equations, so one schedule
        serves all three and ``variant=`` is an ordinary unknown keyword."""
        train, _ = mnist_tiny
        with pytest.raises(TypeError, match="variant"):
            run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=3, iterations=6,
                               batch_size=16, variant=3)
        out = run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=3, iterations=6,
                                 batch_size=16, record_history=True)
        assert len(out.mean_losses) == 6  # the batch loss rides the allreduce

    def test_traced_run_passes_the_tree_invariants(self, mnist_tiny):
        train, _ = mnist_tiny
        trace = Trace()
        run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=4, iterations=4,
                           batch_size=16, trace=trace)
        # No "variant" key: it would dispatch the simulator's overlap
        # invariants, which need compute spans the runtime doesn't emit.
        assert trace.meta["method"] == "MPI Sync EASGD" and "variant" not in trace.meta
        assert check_all(trace) == ["message-conservation", "tree-message-bound",
                                    "tree-round-bound", "packed-single-message"]

    def test_all_ranks_return_weights(self, mnist_tiny):
        train, _ = mnist_tiny
        out = run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=3, iterations=5,
                                 batch_size=16)
        assert len(out.worker_weights) == 3

    def test_unstable_hyper_rejected(self, mnist_tiny):
        train, _ = mnist_tiny
        with pytest.raises(ValueError, match="unstable"):
            run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=8, iterations=2,
                               lr=0.25, rho=2.0)

    def test_invalid_iterations(self, mnist_tiny):
        train, _ = mnist_tiny
        with pytest.raises(ValueError):
            run_mpi_sync_easgd(build_mlp(seed=4), train, ranks=2, iterations=0)


class TestDeadlockIdentity:
    """A wedged recv must say *which* edge wedged, never bare queue.Empty.

    Regression tests for the _Mailbox.get timeout fix: the error carries
    (rank, source, tag, timeout) so a deadlock in a 100-rank run is
    debuggable from the message alone.
    """

    def test_deadlock_error_carries_edge_identity(self):
        from repro.comm.runtime import DeadlockError

        comm = InProcessCommunicator(2, timeout=0.2)

        def program(ctx):
            if ctx.rank == 1:
                with pytest.raises(DeadlockError) as ei:
                    ctx.recv(source=0, tag=7)  # nobody ever sends this
                err = ei.value
                assert (err.rank, err.source, err.tag) == (1, 0, 7)
                assert err.timeout == pytest.approx(0.2)
                assert isinstance(err, TimeoutError)
                assert "rank 1" in str(err) and "tag=7" in str(err)
            return ctx.rank

        assert comm.run(program) == [0, 1]

    def test_recv_racing_barrier_under_delay_plan(self):
        """The ISSUE scenario: a recv on a lost channel races other ranks'
        barrier traffic under a delay plan. The old code path surfaced a
        bare queue.Empty from the mailbox; now the receiver gets a
        DeadlockError naming the wedged (rank, source, tag) edge."""
        import queue
        import time as _time

        from repro.comm.runtime import DeadlockError
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3).delay(0.5, 0.01).lose_message(0, 1, 7)
        comm = InProcessCommunicator(3, timeout=0.3, faults=plan)
        caught = {}

        def program(ctx):
            if ctx.rank == 0:
                ctx.send("wedged", dest=1, tag=7)  # plan loses this forever
            ctx.barrier()
            if ctx.rank == 1:
                try:
                    ctx.recv(source=0, tag=7)
                except queue.Empty as exc:  # the old failure mode
                    caught["error"] = exc
                except DeadlockError as exc:
                    caught["error"] = exc
            else:
                # Overlap rank 1's full recv-timeout with "work" so the
                # closing barrier tests error delivery, not a race between
                # rank 1's deadline and the other ranks' barrier patience.
                _time.sleep(0.4)
            ctx.barrier()

        comm.run(program)
        err = caught["error"]
        assert isinstance(err, DeadlockError), f"bare {type(err).__name__} leaked"
        assert (err.rank, err.source, err.tag) == (1, 0, 7)

    def test_late_delivery_beats_the_deadline(self):
        """A message that lands inside the timeout window is received, even
        when delivery races the receiver's final drain at the deadline."""
        import time

        comm = InProcessCommunicator(2, timeout=1.0)

        def program(ctx):
            if ctx.rank == 0:
                time.sleep(0.15)  # arrive mid-wait
                ctx.send("late", dest=1, tag=3)
                return None
            return ctx.recv(source=0, tag=3)

        assert comm.run(program)[1] == "late"

    def test_lost_message_fault_appears_in_trace(self):
        """Runtime-level tracing: the lost channel is visible in the trace
        with a loss fault event, so conservation still checks out."""
        from repro.comm.runtime import DeadlockError
        from repro.faults import FaultPlan
        from repro.trace import Trace
        from repro.trace.check import check_message_conservation

        trace = Trace()
        plan = FaultPlan(seed=0).lose_message(0, 1, 5)
        comm = InProcessCommunicator(2, timeout=0.3, faults=plan, trace=trace)

        def program(ctx):
            if ctx.rank == 0:
                ctx.send("gone", dest=1, tag=5)
            else:
                with pytest.raises(DeadlockError):
                    ctx.recv(source=0, tag=5)

        comm.run(program)
        faults = trace.by_kind("fault")
        assert [e.op for e in faults] == ["lost"]
        assert (faults[0].rank, faults[0].peer, faults[0].tag) == (0, 1, 5)
        assert not trace.sends()
        check_message_conservation(trace)


class TestCollectiveTagSpace:
    """Regression tests for the collective tag-space partition.

    The pre-partition scheme ran allreduce's bcast phase on ``tag + 1``,
    which for the default tags meant 103 + 1 = 104 — the barrier's own
    default tag — so an allreduce racing a barrier could cross-match
    messages between the two collectives.
    """

    def test_wire_tag_sets_pairwise_disjoint(self):
        from repro.comm.runtime import collective_wire_tags

        ops = ("bcast", "reduce", "allreduce", "barrier")
        wire = {op: set(collective_wire_tags(op)) for op in ops}
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                assert not (wire[a] & wire[b]), f"{a} and {b} share wire tags"

    def test_wire_tags_disjoint_for_any_tags_in_block(self):
        from repro.comm.runtime import COLLECTIVE_TAG_STRIDE, collective_wire_tags

        # Any user tags within one stride block keep the four ops separated.
        for ta in (0, 7, COLLECTIVE_TAG_STRIDE - 1):
            for tb in (0, 7, COLLECTIVE_TAG_STRIDE - 1):
                ar = set(collective_wire_tags("allreduce", ta))
                br = set(collective_wire_tags("barrier", tb))
                pt = {ta, tb}  # raw point-to-point traffic on the same tags
                assert not (ar & br)
                assert not (ar & pt) and not (br & pt)

    def test_allreduce_interleaved_with_barrier(self):
        """Default-tag allreduce hard against a default-tag barrier at P=4.

        Under the pre-partition tag scheme the allreduce's bcast messages
        (tag 104) were indistinguishable from the barrier's reduce
        messages (also 104): a fast rank entering the barrier could
        consume another rank's allreduce result, corrupting values or
        deadlocking. Five back-to-back rounds make the race window wide.
        """
        rounds = 5

        def prog(ctx):
            out = []
            for r in range(rounds):
                vec = np.full(8, float(ctx.rank + 1) * (r + 1), dtype=np.float32)
                total = ctx.allreduce(vec)  # default tag 103
                ctx.barrier()  # default tag 104
                out.append(total.copy())
            return out

        results = InProcessCommunicator(4, timeout=10.0).run(prog)
        for r in range(rounds):
            expected = np.full(8, 10.0 * (r + 1), dtype=np.float32)  # 1+2+3+4
            for rank_out in results:
                np.testing.assert_array_equal(rank_out[r], expected)


class TestMultiRankFailures:
    """`run` must surface every failed rank, not just the first one."""

    def test_two_distinct_failures_both_named(self):
        from repro.comm.runtime import MultiRankError

        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("zero broke")
            if ctx.rank == 2:
                raise ValueError("two broke")
            return ctx.rank

        with pytest.raises(MultiRankError) as ei:
            InProcessCommunicator(3, timeout=2.0).run(prog)
        err = ei.value
        assert set(err.failures) == {0, 2}
        assert isinstance(err.failures[0], RuntimeError)
        assert isinstance(err.failures[2], ValueError)
        msg = str(err)
        assert "2 ranks failed" in msg
        assert "rank 0" in msg and "RuntimeError" in msg and "zero broke" in msg
        assert "rank 2" in msg and "ValueError" in msg and "two broke" in msg

    def test_homogeneous_failures_keep_common_type(self):
        """All ranks raising ValueError -> the aggregate is catchable as one."""
        def prog(ctx):
            raise ValueError(f"rank {ctx.rank} bad input")

        with pytest.raises(ValueError) as ei:
            InProcessCommunicator(2, timeout=2.0).run(prog)
        assert set(ei.value.failures) == {0, 1}

    def test_single_failure_raised_unwrapped(self):
        sentinel = KeyError("only rank 1")

        def prog(ctx):
            if ctx.rank == 1:
                raise sentinel
            return ctx.rank

        with pytest.raises(KeyError) as ei:
            InProcessCommunicator(2, timeout=2.0).run(prog)
        assert ei.value is sentinel
