"""Communication substrate: alpha-beta, packing, collectives, topology."""


from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.comm.alphabeta import (
    INTEL_10GBE,
    INTEL_QDR_40G,
    LinkModel,
    MELLANOX_FDR_56G,
    TABLE2_NETWORKS,
)
from repro.comm.collectives import (
    allreduce_cost,
    flat_sequential_cost,
    tree_cost,
    tree_reduce,
    tree_rounds,
)
from repro.comm.packing import MessagePlan, packed_plan, per_layer_plan
from repro.comm.topology import GpuNodeTopology, KnlClusterTopology
from repro.trace.schedule import tree_edge_rounds


class TestAlphaBeta:
    def test_table2_constants_match_paper(self):
        assert MELLANOX_FDR_56G.alpha == pytest.approx(0.7e-6)
        assert MELLANOX_FDR_56G.beta == pytest.approx(0.2e-9)
        assert INTEL_QDR_40G.alpha == pytest.approx(1.2e-6)
        assert INTEL_10GBE.beta == pytest.approx(0.9e-9)
        assert len(TABLE2_NETWORKS) == 3

    def test_cost_formula(self):
        link = LinkModel("t", alpha=1e-6, beta=1e-9)
        assert link.cost(1000) == pytest.approx(1e-6 + 1e-6)

    def test_cost_many_accumulates_alpha(self):
        link = LinkModel("t", alpha=1e-6, beta=0.0)
        assert link.cost_many([10, 10, 10]) == pytest.approx(3e-6)

    def test_zero_bytes_costs_alpha(self):
        assert MELLANOX_FDR_56G.cost(0) == MELLANOX_FDR_56G.alpha

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            MELLANOX_FDR_56G.cost(-1)

    def test_bandwidth(self):
        link = LinkModel("t", alpha=0, beta=1e-9)
        assert link.bandwidth == pytest.approx(1e9)

    def test_alpha_dominates_small_messages(self):
        """Table 2's point: beta << alpha, so small messages are latency-bound."""
        for link in TABLE2_NETWORKS:
            assert link.cost(100) < 2 * link.alpha

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(0, 10**9), n2=st.integers(0, 10**9))
    def test_cost_monotone_in_bytes(self, n1, n2):
        link = INTEL_QDR_40G
        if n1 <= n2:
            assert link.cost(n1) <= link.cost(n2)


class TestPacking:
    def test_packed_is_single_message(self):
        plan = packed_plan([100, 200, 300])
        assert plan.num_messages == 1
        assert plan.total_bytes == 600

    def test_per_layer_preserves_sizes(self):
        plan = per_layer_plan([100, 200])
        assert plan.sizes == (100, 200)

    def test_packed_never_slower(self):
        link = LinkModel("t", alpha=1e-5, beta=1e-9)
        sizes = [1000, 2000, 50]
        assert packed_plan(sizes).cost(link) <= per_layer_plan(sizes).cost(link)

    def test_packed_saves_exactly_alpha_terms(self):
        link = LinkModel("t", alpha=1e-5, beta=1e-9)
        sizes = [1000] * 8
        gap = per_layer_plan(sizes).cost(link) - packed_plan(sizes).cost(link)
        assert gap == pytest.approx(7 * link.alpha)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            MessagePlan("x", ())

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 10**7), min_size=1, max_size=20),
        alpha=st.floats(1e-7, 1e-3),
    )
    def test_packing_gain_property(self, sizes, alpha):
        """packed == per-layer minus (L-1) alphas, for any link and sizes."""
        link = LinkModel("t", alpha=alpha, beta=2e-10)
        gap = per_layer_plan(sizes).cost(link) - packed_plan(sizes).cost(link)
        assert gap == pytest.approx((len(sizes) - 1) * alpha, rel=1e-9, abs=1e-12)


class TestTreeReduce:
    def test_matches_numpy_sum(self):
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=50).astype(np.float32) for _ in range(7)]
        np.testing.assert_allclose(tree_reduce(vecs), np.sum(vecs, axis=0), rtol=1e-5)

    def test_single_vector(self):
        v = np.arange(4, dtype=np.float32)
        np.testing.assert_array_equal(tree_reduce([v]), v)

    def test_does_not_mutate_inputs(self):
        vecs = [np.ones(3, dtype=np.float32) for _ in range(4)]
        tree_reduce(vecs)
        for v in vecs:
            np.testing.assert_array_equal(v, 1.0)

    def test_deterministic_association(self):
        rng = np.random.default_rng(1)
        vecs = [rng.normal(size=100).astype(np.float32) for _ in range(5)]
        a = tree_reduce(vecs)
        b = tree_reduce([v.copy() for v in vecs])
        np.testing.assert_array_equal(a, b)  # bitwise identical

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([])

    @settings(max_examples=25, deadline=None)
    @given(p=st.integers(1, 33), seed=st.integers(0, 50))
    def test_sum_property_any_count(self, p, seed):
        rng = np.random.default_rng(seed)
        vecs = [rng.normal(size=8).astype(np.float64) for _ in range(p)]
        np.testing.assert_allclose(tree_reduce(vecs), np.sum(vecs, axis=0), rtol=1e-9)


class TestTreeBcast:
    def test_order_reaches_everyone(self):
        for p in (1, 2, 3, 7, 8, 16):
            edges = [e for r in tree_edge_rounds(p) for e in r]
            have = {0}
            for src, dst in edges:
                assert src in have, "source must already hold the value"
                have.add(dst)
            assert have == set(range(p))

    def test_edge_count(self):
        assert sum(len(r) for r in tree_edge_rounds(8)) == 7  # P-1 edges total

    def test_round_depth_is_log(self):
        # edges can be grouped into ceil(log2 P) doubling rounds
        assert tree_rounds(8) == 3
        assert tree_rounds(5) == 3
        assert tree_rounds(1) == 0


class TestCostFunctions:
    link = LinkModel("t", alpha=1e-6, beta=1e-9)

    def test_tree_vs_flat_scaling(self):
        """The paper's Theta(log P) vs Theta(P) claim."""
        n = 10**6
        for p in (4, 8, 64):
            assert tree_cost(self.link, n, p) < flat_sequential_cost(self.link, n, p)

    def test_tree_cost_formula(self):
        assert tree_cost(self.link, 1000, 8) == pytest.approx(3 * self.link.cost(1000))

    def test_flat_cost_formula(self):
        assert flat_sequential_cost(self.link, 1000, 8) == pytest.approx(8 * self.link.cost(1000))

    def test_allreduce_is_reduce_plus_bcast(self):
        assert allreduce_cost(self.link, 500, 16) == pytest.approx(
            tree_cost(self.link, 500, 16) + tree_cost(self.link, 500, 16)
        )

    def test_p_one_is_free(self):
        assert tree_cost(self.link, 10**6, 1) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(2, 512), n=st.integers(1, 10**8))
    def test_tree_beats_flat_property(self, p, n):
        assert tree_cost(self.link, n, p) <= flat_sequential_cost(self.link, n, p)

    @settings(max_examples=30, deadline=None)
    @given(p1=st.integers(1, 256), p2=st.integers(1, 256))
    def test_tree_cost_monotone_in_p(self, p1, p2):
        if p1 <= p2:
            assert tree_cost(self.link, 1000, p1) <= tree_cost(self.link, 1000, p2)


class TestTopology:
    def test_gpu_node_traffic_classes(self):
        topo = GpuNodeTopology(4)
        assert topo.link_for("cpu-gpu data") is topo.cpu_gpu
        assert topo.link_for("cpu-gpu para") is topo.cpu_gpu
        assert topo.link_for("gpu-gpu para") is topo.gpu_gpu

    def test_gpu_node_unknown_traffic(self):
        with pytest.raises(KeyError):
            GpuNodeTopology(4).link_for("smoke signals")

    def test_knl_cluster(self):
        topo = KnlClusterTopology(8)
        assert topo.link_for("node-node para") is topo.network

    def test_validation(self):
        with pytest.raises(ValueError):
            GpuNodeTopology(0)
        with pytest.raises(ValueError):
            KnlClusterTopology(-1)
