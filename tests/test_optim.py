"""Update rules: SGD, momentum, the EASGD equations, quantization."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.engine.ps import ElasticCenterStore, ElasticWorkerRule
from repro.engine.strategy import SyncElasticUpdate
from repro.optim import (
    EASGDHyper,
    elastic_center_update,
    elastic_center_update_single,
    elastic_momentum_worker_update,
    elastic_worker_update,
    MomentumRule,
    quantize_gradient,
    SGDRule,
)


def _vec(seed=0, n=16):
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


class TestSGD:
    def test_step(self):
        p, g = np.ones(4, dtype=np.float32), np.full(4, 2.0, dtype=np.float32)
        SGDRule(lr=0.1).apply(p, g)
        np.testing.assert_allclose(p, 0.8)

    def test_in_place(self):
        p = np.ones(4, dtype=np.float32)
        ref = p
        SGDRule(lr=0.1).apply(p, np.ones(4, dtype=np.float32))
        assert ref is p

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGDRule(lr=0.0)


class TestMomentum:
    def test_mu_zero_equals_sgd(self):
        p1, p2 = _vec(1).copy(), _vec(1).copy()
        g = _vec(2)
        sgd, mom = SGDRule(lr=0.1), MomentumRule(lr=0.1, mu=0.0)
        for _ in range(5):
            sgd.apply(p1, g)
            mom.apply(p2, g)
        np.testing.assert_allclose(p1, p2, rtol=1e-6)

    def test_velocity_accumulates(self):
        p = np.zeros(2, dtype=np.float32)
        g = np.ones(2, dtype=np.float32)
        mom = MomentumRule(lr=1.0, mu=0.5)
        mom.apply(p, g)  # v=-1, p=-1
        mom.apply(p, g)  # v=-1.5, p=-2.5
        np.testing.assert_allclose(p, -2.5)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            MomentumRule(lr=0.1, mu=1.0)


class TestEASGDHyper:
    def test_alpha(self):
        assert EASGDHyper(lr=0.05, rho=2.0).alpha == pytest.approx(0.1)

    def test_stability_check(self):
        with pytest.raises(ValueError):
            EASGDHyper(lr=1.0, rho=2.0)  # alpha = 2 > 1

    def test_rho_zero_allowed(self):
        assert EASGDHyper(lr=0.1, rho=0.0).alpha == 0.0


class TestElasticUpdates:
    def test_worker_update_hand_computed(self):
        # W=2, grad=1, center=0, lr=0.1, rho=2 -> alpha=0.2
        # W' = 2 - 0.1*1 - 0.2*(2-0) = 2 - 0.1 - 0.4 = 1.5
        w = np.array([2.0], dtype=np.float32)
        elastic_worker_update(
            w, np.array([1.0], dtype=np.float32), np.zeros(1, dtype=np.float32),
            EASGDHyper(lr=0.1, rho=2.0),
        )
        assert w[0] == pytest.approx(1.5)

    def test_center_update_hand_computed(self):
        # center=0, workers [1, 3], alpha=0.1: center += 0.1*((1+3) - 2*0) = 0.4
        c = np.zeros(1, dtype=np.float32)
        elastic_center_update(
            c,
            [np.array([1.0], dtype=np.float32), np.array([3.0], dtype=np.float32)],
            EASGDHyper(lr=0.05, rho=2.0),
        )
        assert c[0] == pytest.approx(0.4)

    def test_center_single_matches_full_for_one_worker(self):
        c1, c2 = _vec(3).copy(), _vec(3).copy()
        w = _vec(4)
        h = EASGDHyper(lr=0.05, rho=2.0)
        elastic_center_update(c1, [w], h)
        elastic_center_update_single(c2, w, h)
        np.testing.assert_allclose(c1, c2, rtol=1e-6)

    def test_zero_gradient_pure_elastic_contraction(self):
        """With no gradient, worker moves toward center by factor (1-alpha)."""
        w = np.array([10.0], dtype=np.float32)
        c = np.zeros(1, dtype=np.float32)
        h = EASGDHyper(lr=0.05, rho=2.0)
        elastic_worker_update(w, np.zeros(1, dtype=np.float32), c, h)
        assert w[0] == pytest.approx(10.0 * (1 - h.alpha))

    def test_momentum_worker_mu_zero_matches_plain(self):
        h = EASGDHyper(lr=0.05, rho=2.0, mu=0.0)
        w1, w2 = _vec(5).copy(), _vec(5).copy()
        v = np.zeros_like(w1)
        g, c = _vec(6), _vec(7)
        elastic_worker_update(w1, g, c, h)
        elastic_momentum_worker_update(w2, v, g, c, h)
        np.testing.assert_allclose(w1, w2, rtol=1e-5, atol=1e-6)

    def test_center_update_requires_workers(self):
        with pytest.raises(ValueError):
            elastic_center_update(np.zeros(2), [], EASGDHyper(lr=0.1, rho=1.0))

    def test_center_update_rejects_unstable_alpha(self):
        # 8 workers at alpha=0.5 -> (P+1)*alpha = 4.5 >= 2: guaranteed divergence.
        h = EASGDHyper(lr=0.25, rho=2.0)
        workers = [np.ones(2, dtype=np.float32)] * 8
        with pytest.raises(ValueError, match="unstable"):
            elastic_center_update(np.zeros(2, dtype=np.float32), workers, h)

    @settings(max_examples=30, deadline=None)
    @given(
        lr=st.floats(0.001, 0.4), rho=st.floats(0.1, 2.0), seed=st.integers(0, 100)
    )
    def test_consensus_property(self, lr, rho, seed):
        """With zero gradients, workers and center converge to consensus.

        Monotone contraction needs P*alpha <= 1 (4 workers here); the
        library additionally rejects (P+1)*alpha >= 2 outright — covered by
        test_center_update_rejects_unstable_alpha and TestStabilityRegion.
        """
        if not 0 < 4 * lr * rho <= 1:
            return
        h = EASGDHyper(lr=lr, rho=rho)
        rng = np.random.default_rng(seed)
        workers = [rng.normal(size=8).astype(np.float32) for _ in range(4)]
        center = rng.normal(size=8).astype(np.float32)
        zero = np.zeros(8, dtype=np.float32)
        spread0 = max(float(np.abs(w - center).max()) for w in workers)
        for _ in range(200):
            snapshot = [w.copy() for w in workers]
            for w in workers:
                elastic_worker_update(w, zero, center, h)
            elastic_center_update(center, snapshot, h)
        spread = max(float(np.abs(w - center).max()) for w in workers)
        # Never expands; contracts decisively once alpha is non-trivial.
        assert spread <= spread0 + 1e-5
        if h.alpha >= 0.01:
            assert spread < spread0 * 0.5 + 1e-5


# ---------------------------------------------------------------------------
# The eta*rho stability region on a quadratic (Zhang et al.'s analysis)
# ---------------------------------------------------------------------------

#: f(w) = CURVATURE * w**2 / 2 at eta*h = 1e-3: the flat directions that set
#: the elastic bound, where only the worker-center coupling can diverge.
CURVATURE, LR, STEPS = 1.0, 1e-3, 3000


def _unchecked(alpha):
    """The two fields the rules read, unvalidated: a point outside the
    admitted region still runs."""
    return SimpleNamespace(lr=LR, alpha=alpha)


def _start(j):
    """Worker j starts 0.1 * (j + 1) away from the center at 1.0."""
    return np.array([1.0 + 0.1 * (j + 1)])


def _sync_peak(workers, alpha):
    """Largest |w| over a run of the synchronous rule (Eq 1 + Eq 2)."""
    rule = SyncElasticUpdate(_unchecked(alpha))
    state = rule.init_state(np.array([1.0]), workers)
    replicas = rule.replicas(state)
    for j, w in enumerate(replicas):
        w[...] = _start(j)
    everyone = list(range(workers))
    peak = 0.0
    for t in range(STEPS):
        grads = [CURVATURE * w for w in replicas]
        rule.apply(state, grads, [0.0] * workers, everyone, everyone, t)
        peak = max(peak, float(np.abs([state["center"], *replicas]).max()))
        if peak > 1e6:
            break
    return peak


def _async_peak(workers, alpha):
    """Largest |w| over an asynchronous run: workers served round-robin,
    each exchange replying the pre-fold center (ElasticCenterStore) to the
    worker's Eq 1 (ElasticWorkerRule)."""
    hyper = _unchecked(alpha)
    store = ElasticCenterStore(hyper).bind(np.array([1.0]))
    rule = ElasticWorkerRule()
    states = [rule.init_state(_start(j)) for j in range(workers)]
    peak = 0.0
    for t in range(STEPS):
        state = states[t % workers]
        grad = CURVATURE * state["w"]
        rule.apply(state, grad, store.serve(rule.payload(state, grad)), hyper)
        peak = max(peak, float(np.abs([store.weights, *(s["w"] for s in states)]).max()))
        if peak > 1e6:
            break
    return peak


class TestStabilityRegion:
    """What ``EASGDHyper`` and ``validate_sync`` admit never diverges on a
    quadratic, and a point 2% past the edge does: the bounds are exact."""

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_sync_region_holds_and_its_edge_is_sharp(self, workers):
        edge = 2.0 / (workers + 1)
        for alpha in (0.25 * edge, 0.5 * edge, 0.9 * edge, 0.98 * edge):
            EASGDHyper(lr=LR, rho=alpha / LR).validate_sync(workers)
            assert _sync_peak(workers, alpha) <= 1.0 + 0.1 * workers
        outside = 1.02 * edge
        with pytest.raises(ValueError, match="unstable|elastic step"):
            EASGDHyper(lr=LR, rho=outside / LR).validate_sync(workers)
        assert _sync_peak(workers, outside) > 1e6

    def test_p_alpha_below_two_is_not_enough(self):
        # P*alpha = 1.8 < 2 satisfies the center's own recurrence, but the
        # center and the workers' mean together oscillate with |lambda| 1.25.
        with pytest.raises(ValueError, match=r"\(P\+1\)\*alpha = 2\.250"):
            EASGDHyper(lr=0.05, rho=9.0).validate_sync(4)
        assert _sync_peak(4, 0.45) > 1e6

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_async_region_holds_and_its_edge_is_sharp(self, workers):
        for alpha in (0.25, 0.5, 0.9, 0.98):
            EASGDHyper(lr=LR, rho=alpha / LR)
            assert _async_peak(workers, alpha) <= 1.0 + 0.1 * workers
        with pytest.raises(ValueError, match="elastic step"):
            EASGDHyper(lr=LR, rho=1.02 / LR)
        assert _async_peak(workers, 1.02) > 1e6


class TestQuantize:
    def test_roundtrip_error_bounded(self):
        g = _vec(8, n=1000)
        q, scale = quantize_gradient(g, bits=8)
        assert np.abs(q - g).max() <= scale / 2 + 1e-7

    def test_one_bit_has_three_levels(self):
        g = _vec(9, n=1000)
        q, _ = quantize_gradient(g, bits=1)
        assert len(np.unique(q)) <= 3

    def test_zero_gradient(self):
        q, scale = quantize_gradient(np.zeros(10, dtype=np.float32), bits=4)
        np.testing.assert_array_equal(q, 0.0)

    def test_stochastic_unbiased(self):
        g = np.full(20000, 0.3_3, dtype=np.float32)
        rng = np.random.default_rng(0)
        q, _ = quantize_gradient(g, bits=2, rng=rng)
        assert q.mean() == pytest.approx(0.33, abs=0.01)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_gradient(np.ones(4), bits=0)
