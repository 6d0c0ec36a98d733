"""KNL substrate: chip model, partitioning plans, the Figure 12 trainer,
and the Algorithm 4 cluster trainer."""

import os
import time

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel, KnlPlatform
from repro.data import make_cifar_like, standardize, standardize_like
from repro.knl import (
    ChipPartitionTrainer,
    ClusterMode,
    KNL_7250_CHIP,
    KnlChip,
    KnlSyncEASGDTrainer,
    McdramMode,
    plan_partition,
)
from repro.knl.partition import CIFAR_COPY_BYTES
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, Network, ReLU
from repro.nn.models import build_mlp
from repro.nn.spec import ALEXNET


@pytest.fixture(scope="module")
def cifar_tiny():
    train, test = make_cifar_like(n_train=256, n_test=128, seed=21, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    return train, test


class TestChip:
    def test_paper_constants(self):
        chip = KNL_7250_CHIP
        assert chip.cores == 68
        assert chip.mcdram_bytes == 16 * 1024**3
        assert chip.mcdram_bandwidth == pytest.approx(475e9)
        assert chip.ddr4_bandwidth == pytest.approx(90e9)
        assert chip.hardware_threads == 272

    def test_cluster_modes_numa_domains(self):
        assert ClusterMode.ALL_TO_ALL.numa_domains == 1
        assert ClusterMode.QUADRANT.numa_domains == 1
        assert ClusterMode.SNC4.numa_domains == 4
        assert ClusterMode.SNC2.numa_domains == 2

    def test_mcdram_modes_exist(self):
        assert {m.value for m in McdramMode} == {"cache", "flat", "hybrid"}

    def test_parallel_efficiency_decreases_with_group_size(self):
        chip = KNL_7250_CHIP
        assert chip.parallel_efficiency(4) > chip.parallel_efficiency(68)

    def test_group_flops_throughput_rises_with_parts(self):
        """Total chip throughput (parts * per-group rate) improves as
        synchronization domains shrink — the Section 6.2 effect."""
        chip = KNL_7250_CHIP
        t1 = 1 * chip.group_flops(1)
        t16 = 16 * chip.group_flops(16)
        assert t16 > t1

    def test_working_set_bandwidth_gate(self):
        chip = KNL_7250_CHIP
        assert chip.working_set_bandwidth(1024**3) == chip.mcdram_bandwidth
        assert chip.working_set_bandwidth(20 * 1024**3) == chip.ddr4_bandwidth

    def test_validation(self):
        with pytest.raises(ValueError):
            KnlChip(cores=0)
        with pytest.raises(ValueError):
            KNL_7250_CHIP.parallel_efficiency(0)


class TestPartitionPlan:
    def test_paper_capacity_limit(self):
        """AlexNet + one CIFAR copy: 16 copies fit MCDRAM, 32 do not."""
        p16 = plan_partition(16, ALEXNET.nbytes, CIFAR_COPY_BYTES)
        p32 = plan_partition(32, ALEXNET.nbytes, CIFAR_COPY_BYTES)
        assert p16.in_mcdram and p16.memory_name == "MCDRAM"
        assert not p32.in_mcdram and p32.memory_name == "DDR4"

    def test_cores_split_evenly(self):
        plan = plan_partition(4, ALEXNET.nbytes, CIFAR_COPY_BYTES)
        assert plan.cores_per_group == pytest.approx(17.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_partition(0, 100, 100)
        with pytest.raises(ValueError):
            plan_partition(100, ALEXNET.nbytes, CIFAR_COPY_BYTES)  # > cores
        with pytest.raises(ValueError):
            plan_partition(4, 0, 100)

    def test_exceeding_ddr4_rejected(self):
        with pytest.raises(ValueError, match="DDR4"):
            plan_partition(64, 8 * 1024**3, 16 * CIFAR_COPY_BYTES)

    @settings(max_examples=20, deadline=None)
    @given(parts=st.integers(1, 64))
    def test_bandwidth_matches_gate(self, parts):
        plan = plan_partition(parts, ALEXNET.nbytes, CIFAR_COPY_BYTES)
        expected = (
            KNL_7250_CHIP.mcdram_bandwidth if plan.in_mcdram else KNL_7250_CHIP.ddr4_bandwidth
        )
        assert plan.bandwidth == expected


class TestChipPartitionTrainer:
    def _trainer(self, cifar_tiny, parts, batch=16):
        train, test = cifar_tiny
        cfg = TrainerConfig(batch_size=batch, lr=0.05, eval_every=10, eval_samples=128)
        return ChipPartitionTrainer(
            build_mlp(input_shape=(3, 32, 32), seed=4),
            train,
            test,
            cfg,
            parts=parts,
            cost_model=CostModel.from_spec(ALEXNET),
            data_bytes=CIFAR_COPY_BYTES,
        )

    def test_numerics_identical_across_partitionings(self, cifar_tiny):
        """Splitting the batch across groups must not change the math.

        Mean-of-group-means equals the full-batch mean exactly in real
        arithmetic; in float32 the GEMM summation order differs, so compare
        trajectories within a tight tolerance instead of bitwise.
        """
        accs = {}
        for parts in (1, 4):
            res = self._trainer(cifar_tiny, parts).train(20)
            accs[parts] = np.array([r.test_accuracy for r in res.records])
        np.testing.assert_allclose(accs[1], accs[4], atol=0.05)

    def test_partitioning_speeds_up_the_clock(self, cifar_tiny):
        t1 = self._trainer(cifar_tiny, 1).train(5).sim_time
        t16 = self._trainer(cifar_tiny, 16).train(5).sim_time
        assert t16 < t1

    def test_speedup_monotone_to_16(self, cifar_tiny):
        times = [self._trainer(cifar_tiny, p)._iter_time() for p in (1, 4, 8, 16)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_ddr4_spill_hurts(self, cifar_tiny):
        t16 = self._trainer(cifar_tiny, 16, batch=32)._iter_time()
        t32 = self._trainer(cifar_tiny, 32, batch=32)._iter_time()
        assert t32 > t16  # past the MCDRAM capacity the gain reverses

    def test_batch_must_divide(self, cifar_tiny):
        with pytest.raises(ValueError, match="divide"):
            self._trainer(cifar_tiny, 3, batch=16)

    def test_learns(self, cifar_tiny):
        res = self._trainer(cifar_tiny, 4).train(60)
        assert res.final_accuracy > 0.5


class TestKnlClusterTrainer:
    def _trainer(self, mnist_tiny, nodes, batch=64):
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=batch, lr=0.05, rho=2.0, eval_every=10, eval_samples=128)
        from repro.nn.spec import LENET

        return KnlSyncEASGDTrainer(
            build_mlp(seed=5),
            train,
            test,
            KnlPlatform(num_nodes=nodes, seed=0),
            cfg,
            CostModel.from_spec(LENET),
        )

    def test_learns(self, mnist_tiny):
        assert self._trainer(mnist_tiny, 4).train(60).final_accuracy > 0.6

    def test_more_nodes_reach_high_target_sooner(self, mnist_tiny):
        """Figure 13's benefit: at ambitious accuracy targets, more nodes
        (each with a full dataset copy) get there in less simulated time —
        the extra replicas buy convergence that outweighs the fabric cost."""
        r1 = self._trainer(mnist_tiny, 1).train(60)
        r2 = self._trainer(mnist_tiny, 2).train(60)
        t1 = r1.time_to_accuracy(0.9)
        t2 = r2.time_to_accuracy(0.9)
        assert t1 is not None and t2 is not None
        assert t2 < t1

    def test_iteration_time_positive(self, mnist_tiny):
        assert self._trainer(mnist_tiny, 8).iteration_time() > 0

    def test_single_node_has_no_fabric_traffic(self, mnist_tiny):
        res = self._trainer(mnist_tiny, 1).train(5)
        assert res.breakdown.parts["gpu-gpu para"] == 0.0


class TestClusterModeModel:
    def test_coherence_ordering(self):
        assert (
            ClusterMode.SNC4.coherence_overhead
            < ClusterMode.SNC2.coherence_overhead
            < ClusterMode.QUADRANT.coherence_overhead
            < ClusterMode.HEMISPHERE.coherence_overhead
            < ClusterMode.ALL_TO_ALL.coherence_overhead
        )

    def test_snc4_improves_parallel_efficiency(self):
        a2a = KnlChip(cluster_mode=ClusterMode.ALL_TO_ALL)
        snc4 = KnlChip(cluster_mode=ClusterMode.SNC4)
        assert snc4.parallel_efficiency(17) > a2a.parallel_efficiency(17)

    def test_mode_does_not_change_capacity(self):
        a2a = KnlChip(cluster_mode=ClusterMode.ALL_TO_ALL)
        assert a2a.mcdram_bytes == KNL_7250_CHIP.mcdram_bytes


@pytest.mark.mp
@pytest.mark.slow
class TestChipPartitionProcesses:
    """backend='processes': the groups as the ranks of one communicator
    cell must be an exact substitute for the serial divide-and-conquer
    loop. A segment unlinked while a view still exports its buffer is an
    error (warnings are errors suite-wide), not an unraisable warning."""

    def _trainer(self, cifar_tiny, backend, parts=4, batch=16, net=None):
        from repro.comm.mp_runtime import fork_available

        if backend == "processes" and not fork_available():
            pytest.skip("needs the fork start method")
        train, test = cifar_tiny
        cfg = TrainerConfig(
            batch_size=batch, lr=0.05, eval_every=5, eval_samples=128,
            backend=backend,
        )
        return ChipPartitionTrainer(
            net or build_mlp(input_shape=(3, 32, 32), seed=4),
            train,
            test,
            cfg,
            parts=parts,
            cost_model=CostModel.from_spec(ALEXNET),
            data_bytes=CIFAR_COPY_BYTES,
        )

    def test_bit_identical_to_serial(self, cifar_tiny):
        serial = self._trainer(cifar_tiny, "threads").train(10)
        procs = self._trainer(cifar_tiny, "processes").train(10)

        assert serial.backend is None  # simulated path: substrate-free
        assert procs.backend == "processes"
        # Same trajectory, record for record, and the same simulated clock.
        assert len(serial.records) == len(procs.records)
        for rs, rp in zip(serial.records, procs.records):
            assert rs.iteration == rp.iteration
            assert rs.train_loss == rp.train_loss
            assert rs.test_accuracy == rp.test_accuracy
        assert serial.sim_time == procs.sim_time
        assert serial.final_accuracy == procs.final_accuracy

    def test_final_weights_bitwise_equal(self, cifar_tiny):
        a = self._trainer(cifar_tiny, "threads")
        b = self._trainer(cifar_tiny, "processes")
        a.train(8)
        b.train(8)
        np.testing.assert_array_equal(a.net.get_params(), b.net.get_params())

    #: Two gradient sizes: the conv net packs ~4.5 KB (small enough to
    #: pickle in band as a message), the MLP ~790 KB.
    _NETS = {
        "tiny-conv": lambda: Network(
            [Conv2D(2, 5), ReLU(), MaxPool2D(4), Flatten(), Dense(10)],
            (3, 32, 32), seed=4, name="tiny-conv"),
        "mlp": lambda: build_mlp(input_shape=(3, 32, 32), seed=4),
    }

    @pytest.mark.parametrize("parts", [2, 4])
    @pytest.mark.parametrize("path", ["arena-tree", "message-tree"])
    def test_both_allreduce_paths_match_serial(self, cifar_tiny, monkeypatch, path, parts):
        """Both models' float32 gradients fold in the arena at any size.
        The message tree — what a lone rank or another dtype takes — is
        driven here by a fabric that offers no arena. Either path, either
        model: the serial trajectory bit for bit."""
        from repro.comm.runtime import RankContextBase
        from repro.comm.shm_transport import DEFAULT_MIN_BYTES
        from repro.knl import partition

        if path == "message-tree":
            monkeypatch.setattr(RankContextBase, "_collective_arena",
                                lambda self, tag, elems: None)
        comms, build_comm = [], partition.make_communicator

        def recording(*args, **kwargs):
            comms.append(build_comm(*args, **kwargs))
            return comms[-1]

        monkeypatch.setattr(partition, "make_communicator", recording)
        # One arena allreduce a round: 2(P-1) tokens on the tree.
        tokens = 10 * 2 * (parts - 1) if path == "arena-tree" else 0
        for model, build in self._NETS.items():
            assert (4 * build().num_params < DEFAULT_MIN_BYTES) == (model == "tiny-conv")
            a = self._trainer(cifar_tiny, "threads", parts=parts, net=build())
            b = self._trainer(cifar_tiny, "processes", parts=parts, net=build())
            serial, procs = a.train(10), b.train(10)
            assert comms[-1].transport_stats["arena_tokens"] == tokens, model
            assert procs.records == serial.records, model
            assert procs.sim_time == serial.sim_time, model
            assert procs.final_accuracy == serial.final_accuracy, model
            np.testing.assert_array_equal(a.net.get_params(), b.net.get_params())

    def test_early_stop_releases_the_groups(self, cifar_tiny):
        # Rank 0 leaves the loop at the first record that meets the target;
        # the other ranks must be told, not left to sit out a recv timeout.
        from repro.comm.runtime import _DEFAULT_TIMEOUT

        serial = self._trainer(cifar_tiny, "threads").train_to_accuracy(0.5, 60)
        t0 = time.monotonic()
        procs = self._trainer(cifar_tiny, "processes").train_to_accuracy(0.5, 60)
        assert time.monotonic() - t0 < _DEFAULT_TIMEOUT / 3
        assert serial.reached_target and serial.iterations < 60
        assert procs.reached_target
        assert procs.records == serial.records
        assert procs.iterations == serial.iterations

    def test_snapshotter_must_be_shared_memory(self, cifar_tiny):
        from repro.algorithms import UnsupportedOptionError
        from repro.serving import ModelSnapshotter

        tr = self._trainer(cifar_tiny, "processes")
        heap = ModelSnapshotter(tr.net.num_params)
        with pytest.raises(UnsupportedOptionError, match="heap-backed snapshotter"):
            tr.train(4, snapshotter=heap)
        assert heap.buffer.version == 0  # refused, not published into a copy

        shm = ModelSnapshotter(tr.net.num_params, shared=True)
        try:
            tr.train(4, snapshotter=shm)
            params, step, _ = shm.buffer.read()
            assert step == 4
            np.testing.assert_array_equal(params, tr.net.get_params())
        finally:
            shm.close(unlink=True)

    def test_group_that_dies_hard_is_named_at_once(self, cifar_tiny, monkeypatch):
        from repro.comm.mp_runtime import RemoteRankError
        from repro.comm.shm_lifecycle import registered_segments
        from repro.knl import partition

        group_round, rounds = partition._group_round, []

        def dies_in_group_2(ctx, *args):  # inherited by the fork
            rounds.append(ctx.rank)
            if ctx.rank == 2 and len(rounds) == 3:
                os._exit(3)
            return group_round(ctx, *args)

        monkeypatch.setattr(partition, "_group_round", dies_in_group_2)
        t0 = time.monotonic()
        with pytest.raises(RemoteRankError) as ei:
            self._trainer(cifar_tiny, "processes").train(20)
        assert time.monotonic() - t0 < 10.0
        died = ei.value.failures[2]
        assert "rank 2" in str(died) and "exitcode 3" in str(died)
        assert registered_segments() == []
        mine = f"repro-{os.getpid()}-"
        assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] == []
