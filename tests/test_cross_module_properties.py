"""Cross-module invariants, property-tested over random configurations.

These pin down relationships that must hold for *any* cost model, platform
shape, or message plan — not just the calibrated defaults — because the
paper's argument is structural (schedules and layouts), not numeric.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.comm.alphabeta import LinkModel
from repro.comm.collectives import (
    allreduce_cost,
    flat_sequential_cost,
    ring_allreduce_cost,
    tree_cost,
    tree_rounds,
)
from repro.comm.packing import packed_plan, per_layer_plan
from repro.comm.pipelining import optimal_chunks, pipelined_hops_cost


def random_cost_model(draw) -> CostModel:
    n_layers = draw(st.integers(1, 12))
    layer_bytes = tuple(draw(st.integers(4, 10**6)) for _ in range(n_layers))
    return CostModel(
        name="random",
        weight_bytes=sum(layer_bytes),
        layer_bytes=layer_bytes,
        flops_fwd_per_sample=float(draw(st.integers(10**3, 10**9))),
        sample_bytes=draw(st.integers(4, 10**5)),
    )


cost_models = st.builds(lambda seed: None, st.integers())  # placeholder


@st.composite
def cost_model_strategy(draw):
    return random_cost_model(draw)


@st.composite
def link_strategy(draw):
    return LinkModel(
        "rand",
        alpha=draw(st.floats(1e-7, 1e-3)),
        beta=draw(st.floats(1e-11, 1e-8)),
    )


class TestPlatformOrderings:
    @settings(max_examples=25, deadline=None)
    @given(cost=cost_model_strategy(), gpus=st.integers(2, 16))
    def test_packed_never_slower_any_cost_model(self, cost, gpus):
        plat = GpuPlatform(num_gpus=gpus, jitter_sigma=0.0)
        assert plat.param_time(cost, "cpu-gpu para", packed=True) <= plat.param_time(
            cost, "cpu-gpu para", packed=False
        )

    @settings(max_examples=25, deadline=None)
    @given(cost=cost_model_strategy(), gpus=st.integers(2, 16))
    def test_tree_never_slower_than_flat_any_cost_model(self, cost, gpus):
        plat = GpuPlatform(num_gpus=gpus, jitter_sigma=0.0)
        link = plat.topology.link_for("gpu-gpu para")
        per_msg = LinkModel("msg", alpha=plat.param_plan(cost).cost(link), beta=0.0)
        assert plat.tree_time(cost, "gpu-gpu para") <= flat_sequential_cost(
            per_msg, 0, gpus
        )

    @settings(max_examples=25, deadline=None)
    @given(cost=cost_model_strategy(), batch=st.integers(1, 512))
    def test_compute_scales_linearly_in_batch(self, cost, batch):
        plat = GpuPlatform(num_gpus=2, jitter_sigma=0.0)
        t1 = plat.fwdbwd_time(cost, batch, worker=0, jittered=False)
        t2 = plat.fwdbwd_time(cost, 2 * batch, worker=0, jittered=False)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)


class TestCollectiveCostLaws:
    @settings(max_examples=40, deadline=None)
    @given(link=link_strategy(), n=st.integers(1, 10**9), p=st.integers(2, 512))
    def test_allreduce_decomposition(self, link, n, p):
        assert allreduce_cost(link, n, p) == pytest.approx(
            2 * tree_cost(link, n, p), rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(link=link_strategy(), n=st.integers(1, 10**9), p=st.integers(2, 512))
    def test_tree_flat_ratio_bounded_by_depth(self, link, n, p):
        """flat/tree is exactly P / ceil(log2 P) under alpha-beta."""
        ratio = flat_sequential_cost(link, n, p) / tree_cost(link, n, p)
        assert ratio == pytest.approx(p / tree_rounds(p), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(link=link_strategy(), p=st.integers(2, 128))
    def test_ring_vs_tree_crossover_location(self, link, p):
        """Ring wins strictly above the analytic crossover buffer size and
        loses strictly below it (with margin for the discrete formulas)."""
        # ring = 2(p-1)(a + n b / p); tree allreduce = 2 log2ceil(p) (a + n b)
        # Solve equality for n to find the crossover.
        rounds = tree_rounds(p)
        denom = (p - 1) / p - rounds
        if denom >= 0:  # ring never catches up in this regime
            return
        n_star = (p - 1 - rounds) * link.alpha / (-denom * link.beta)
        if n_star <= 10:
            return
        big = int(n_star * 10)
        small = max(int(n_star / 10), 1)
        assert ring_allreduce_cost(link, big, p) < allreduce_cost(link, big, p)
        assert ring_allreduce_cost(link, small, p) > allreduce_cost(link, small, p)

    @settings(max_examples=40, deadline=None)
    @given(
        link=link_strategy(),
        n=st.integers(100, 10**9),
        depth=st.integers(2, 10),
    )
    def test_pipelining_never_hurts_at_optimum(self, link, n, depth):
        plain = pipelined_hops_cost(link, n, depth, 1)
        best = pipelined_hops_cost(link, n, depth, optimal_chunks(link, n, depth))
        assert best <= plain * (1 + 1e-12)


class TestPlanAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10**7), min_size=1, max_size=30),
        link=link_strategy(),
    )
    def test_plan_cost_difference_is_alpha_only(self, sizes, link):
        """Packing changes ONLY the latency term, never the byte term."""
        packed = packed_plan(sizes)
        unpacked = per_layer_plan(sizes)
        assert packed.total_bytes == unpacked.total_bytes
        gap = unpacked.cost(link) - packed.cost(link)
        assert gap == pytest.approx((len(sizes) - 1) * link.alpha, rel=1e-9, abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
    def test_cost_model_consistency(self, sizes):
        cost = CostModel(
            name="x",
            weight_bytes=sum(sizes),
            layer_bytes=tuple(sizes),
            flops_fwd_per_sample=1e6,
            sample_bytes=256,
        )
        assert cost.batch_bytes(10) == 2560
        assert cost.fwdbwd_flops(10) == pytest.approx(3e7)
