"""Cluster simulation: devices, event queue, cost models, platforms."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.cluster.cost import BWD_FLOPS_FACTOR, CostModel
from repro.cluster.devices import ComputeJitter, DeviceModel, K80_HALF, KNL_7250, M40, XEON_E5_HOST
from repro.cluster.multinode import GpuClusterPlatform
from repro.cluster.platform import GpuPlatform, KnlPlatform
from repro.cluster.simclock import EventQueue
from repro.comm.alphabeta import LinkModel
from repro.comm.collectives import flat_sequential_cost
from repro.durability.state import platform_jitter_state, restore_platform_jitter_state
from repro.nn.models import build_lenet
from repro.nn.spec import LENET


class TestDeviceModel:
    def test_compute_time(self):
        dev = DeviceModel("d", peak_flops=1e12, mem_bandwidth=1e9, efficiency=0.5)
        assert dev.compute_time(1e9) == pytest.approx(2e-3)

    def test_update_time_includes_overhead(self):
        dev = DeviceModel("d", peak_flops=1e12, mem_bandwidth=1e9, kernel_overhead=1e-4)
        assert dev.update_time(1e6) == pytest.approx(1e-4 + 1e-3)

    def test_zero_flops(self):
        assert K80_HALF.compute_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceModel("d", peak_flops=0, mem_bandwidth=1)
        with pytest.raises(ValueError):
            DeviceModel("d", peak_flops=1, mem_bandwidth=1, efficiency=1.5)

    def test_catalog_sanity(self):
        # KNL peak matches the paper's "6 Tflops" (Section 1).
        assert KNL_7250.peak_flops == pytest.approx(6e12)
        # M40 is the faster GPU.
        assert M40.peak_flops > K80_HALF.peak_flops
        assert XEON_E5_HOST.peak_flops < K80_HALF.peak_flops


class TestJitter:
    def test_sigma_zero_is_exact(self):
        j = ComputeJitter(seed=0, worker=1, sigma=0.0)
        assert all(j.sample() == 1.0 for _ in range(5))

    def test_mean_near_one(self):
        j = ComputeJitter(seed=0, worker=2, sigma=0.1)
        samples = [j.sample() for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.02)

    def test_deterministic_per_worker(self):
        a = [ComputeJitter(0, "w", 0.1).sample() for _ in range(3)]
        b = [ComputeJitter(0, "w", 0.1).sample() for _ in range(3)]
        assert a == b

    def test_workers_differ(self):
        assert ComputeJitter(0, 1, 0.1).sample() != ComputeJitter(0, 2, 0.1).sample()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ComputeJitter(0, 0, -0.1)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_on_ties(self):
        q = EventQueue()
        for name in "abcd":
            q.push(1.0, name)
        assert [q.pop().payload for _ in range(4)] == list("abcd")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_and_len(self):
        q = EventQueue()
        assert len(q) == 0 and not q
        q.push(1.0, "x")
        assert len(q) == 1 and q
        assert q.pop().payload == "x" and not q

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0)

    @settings(max_examples=20, deadline=None)
    @given(times=st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_pop_order_sorted_property(self, times):
        q = EventQueue()
        for t in times:
            q.push(t)
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)


class TestCostModel:
    def test_from_spec(self):
        cost = CostModel.from_spec(LENET)
        assert cost.weight_bytes == LENET.nbytes
        assert len(cost.layer_bytes) == 8  # 4 layers x (W, b)
        assert cost.sample_bytes == 28 * 28 * 4

    def test_from_network(self):
        net = build_lenet(seed=0)
        cost = CostModel.from_network(net)
        assert cost.weight_bytes == net.nbytes
        assert sum(cost.layer_bytes) == net.nbytes
        assert cost.flops_fwd_per_sample == net.flops_per_sample()

    def test_fwdbwd_flops_factor(self):
        cost = CostModel.from_spec(LENET)
        assert cost.fwdbwd_flops(10) == pytest.approx(
            (1 + BWD_FLOPS_FACTOR) * 10 * LENET.flops_per_sample
        )

    def test_batch_bytes(self):
        cost = CostModel.from_spec(LENET)
        assert cost.batch_bytes(64) == 64 * 28 * 28 * 4

    def test_layer_bytes_must_sum(self):
        with pytest.raises(ValueError):
            CostModel("x", weight_bytes=100, layer_bytes=(40,), flops_fwd_per_sample=1, sample_bytes=4)

    def test_invalid_batch(self):
        cost = CostModel.from_spec(LENET)
        with pytest.raises(ValueError):
            cost.fwdbwd_flops(0)


class TestGpuPlatform:
    def test_construction_defaults(self):
        plat = GpuPlatform(num_gpus=4)
        assert plat.topology.num_gpus == 4

    def test_mismatched_topology_rejected(self):
        from repro.comm.topology import GpuNodeTopology

        with pytest.raises(ValueError):
            GpuPlatform(num_gpus=4, topology=GpuNodeTopology(2))

    def test_fwdbwd_unjittered_is_deterministic(self):
        plat = GpuPlatform(num_gpus=2, jitter_sigma=0.0)
        cost = CostModel.from_spec(LENET)
        t1 = plat.fwdbwd_time(cost, 64, worker=0)
        t2 = plat.fwdbwd_time(cost, 64, worker=0)
        assert t1 == t2 > 0

    def test_packed_cheaper_than_unpacked(self):
        plat = GpuPlatform(num_gpus=4)
        cost = CostModel.from_spec(LENET)
        assert plat.param_time(cost, "cpu-gpu para", packed=True) < plat.param_time(
            cost, "cpu-gpu para", packed=False
        )

    def test_tree_cheaper_than_flat(self):
        plat = GpuPlatform(num_gpus=8)
        cost = CostModel.from_spec(LENET)
        link = plat.topology.link_for("gpu-gpu para")
        per_msg = LinkModel("msg", alpha=plat.param_plan(cost).cost(link), beta=0.0)
        assert plat.tree_time(cost, "gpu-gpu para") < flat_sequential_cost(per_msg, 0, 8)

    def test_gpu_update_faster_than_cpu_update(self):
        plat = GpuPlatform(num_gpus=4)
        cost = CostModel.from_spec(LENET)
        assert plat.gpu_update_time(cost) < plat.cpu_update_time(cost)


class TestKnlPlatform:
    def test_tree_times_grow_with_nodes(self):
        cost = CostModel.from_spec(LENET)
        t2 = KnlPlatform(num_nodes=2).tree_time(cost)
        t16 = KnlPlatform(num_nodes=16).tree_time(cost)
        assert t16 > t2

    def test_single_node_no_comm(self):
        cost = CostModel.from_spec(LENET)
        assert KnlPlatform(num_nodes=1).tree_time(cost) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KnlPlatform(num_nodes=0)


@pytest.mark.parametrize("make, label", [
    (lambda: GpuPlatform(num_gpus=3, seed=7), "gpu"),
    (lambda: KnlPlatform(num_nodes=3, seed=7), "knl"),
    (lambda: GpuClusterPlatform(num_nodes=3, gpus_per_node=1, seed=7), "cluster-gpu"),
], ids=["gpu", "knl", "cluster-gpu"])
class TestSimulatedWorkers:
    """The one jitter core, on each platform that shares it."""

    def test_jitter_for_draws_the_platforms_stream(self, make, label):
        plat = make()
        for w in range(3):
            ref = ComputeJitter(plat.seed, (label, w), plat.jitter_sigma)
            assert [plat.jitter_for(w).sample() for _ in range(4)] == [
                ref.sample() for _ in range(4)]
        assert plat.jitter_for(1) is plat.jitter_for(1)

    def test_jitter_state_resumes_at_the_next_draw(self, make, label):
        cost = CostModel.from_spec(LENET)
        plat, straight = make(), make()
        for _ in range(3):
            for w in range(3):
                plat.fwdbwd_time(cost, 32, worker=w)
                straight.fwdbwd_time(cost, 32, worker=w)
        resumed, fresh = make(), make()
        restore_platform_jitter_state(resumed, platform_jitter_state(plat))
        for w in range(3):
            want = straight.fwdbwd_time(cost, 32, worker=w)
            assert resumed.fwdbwd_time(cost, 32, worker=w) == want
            assert fresh.fwdbwd_time(cost, 32, worker=w) != want
