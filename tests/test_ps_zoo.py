"""The parameter-server zoo: staleness bounds, backends, pairing, resume.

Covers the families the PS protocol layer added on top of the engine's
CenterStore/WorkerRule seam:

- a hypothesis property test that ``bounded-async-easgd`` with the reject
  policy never *applies* an update staler than tau, asserted on the derived
  ``staleness_stats`` trace metric and cross-checked against the
  :class:`repro.engine.ps.StalenessBound` counters;
- backend-equivalence tests (threads vs processes, P=4) for every new
  family via the rank-program runners;
- checkpoint/resume bit-identity for each simulated zoo family;
- schedule properties of the tournament :func:`gossip_pairs`;
- what the family table (:data:`repro.engine.ps.PS_FAMILIES`) makes cheap,
  parametrized over its rows: one crash + straggler + drop plan replayed
  bit-identically by all ten asynchronous families, and the elastic
  force's conservation of ``sum_i x_i + x~`` for every elastic pairing.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import TrainerConfig, make_trainer
from repro.algorithms.ps_runner import (
    PS_RUNNER_METHODS,
    run_mpi_async_easgd,
    run_mpi_gossip,
    run_mpi_ps,
)
from repro.cluster import CostModel, GpuPlatform
from repro.comm.mp_runtime import fork_available
from repro.comm.topology import gossip_pairs
from repro.engine.ps import ElasticCenterStore, PS_FAMILIES
from repro.faults import FaultPlan
from repro.nn.models import build_mlp
from repro.nn.spec import LENET
from repro.optim.easgd import EASGDHyper
from repro.trace import check_all, to_jsonl, Trace
from repro.trace.metrics import staleness_stats

pytestmark = pytest.mark.algorithms

RANKS = 4

ZOO_METHODS = ("downpour", "adag", "eamsgd", "gossip-sgd", "bounded-async-easgd")


def _run(method, mnist_tiny, iterations=8, faults=None, **trainer_kwargs):
    train, test = mnist_tiny
    cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0,
                        eval_every=100, eval_samples=64, trace=True)
    trainer = make_trainer(
        method, build_mlp(seed=0), train, test,
        GpuPlatform(num_gpus=RANKS, seed=0), cfg, CostModel.from_spec(LENET),
        faults=faults, **trainer_kwargs,
    )
    return trainer.train(iterations)


# ---------------------------------------------------------------------------
# staleness bound: the property the family exists to guarantee
# ---------------------------------------------------------------------------
class TestStalenessBound:
    @settings(max_examples=10, deadline=None)
    @given(
        tau=st.integers(min_value=0, max_value=6),
        straggler=st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0, max_value=RANKS - 1),
                      st.floats(min_value=1.5, max_value=8.0)),
        ),
    )
    def test_reject_never_applies_staler_than_tau(self, mnist_tiny, tau, straggler):
        """Applied-update staleness stays under tau for any tau and any
        straggler skew; rejected contributions surface as counters and
        faults, never as update spans."""
        faults = None
        if straggler is not None:
            worker, factor = straggler
            faults = FaultPlan(seed=1).straggler(worker, factor)
        res = _run("bounded-async-easgd", mnist_tiny, iterations=12,
                   faults=faults, tau=tau, staleness_policy="reject")

        stats = staleness_stats(res.trace)
        assert stats["max"] <= tau
        # The derived metric and the bound's own counters must agree.
        assert res.extras["staleness_tau"] == tau
        assert res.extras["staleness_max_applied"] <= tau
        assert res.extras["staleness_max_applied"] == stats["max"]
        checked = res.extras["staleness_checked"]
        rejected = res.extras["staleness_rejected"]
        assert checked == stats["count"] + rejected
        # Every rejection leaves a stale-reject fault event in the trace.
        stale_faults = [e for e in res.trace.by_kind("fault")
                        if e.op == "stale-reject"]
        assert len(stale_faults) == rejected
        # The trace invariant suite enforces the same bound independently.
        assert "update-staleness-bound" in check_all(res.trace)

    def test_clip_scales_instead_of_rejecting(self, mnist_tiny):
        res = _run("bounded-async-easgd", mnist_tiny, iterations=12,
                   faults=FaultPlan(seed=2).straggler(1, 6.0),
                   tau=0, staleness_policy="clip")
        assert res.extras["staleness_rejected"] == 0
        # tau=0 under a straggler guarantees some update arrived stale.
        assert res.extras["staleness_clipped"] > 0
        assert res.extras["staleness_max_seen"] > 0

    def test_tau_zero_reject_matches_zero_staleness(self, mnist_tiny):
        """tau=0 is the degenerate BSP-like case: every applied update was
        computed against the current center."""
        res = _run("bounded-async-easgd", mnist_tiny, iterations=12,
                   tau=0, staleness_policy="reject")
        assert staleness_stats(res.trace)["max"] == 0

    def test_default_tau_scales_with_workers(self, mnist_tiny):
        res = _run("bounded-async-easgd", mnist_tiny, iterations=8)
        assert res.extras["staleness_tau"] == 2 * (RANKS - 1)


# ---------------------------------------------------------------------------
# the family table: every row under one fault plan, every elastic pairing
# ---------------------------------------------------------------------------
class TestFamilyTable:
    @pytest.mark.parametrize("method", sorted(PS_FAMILIES))
    def test_fault_plan_replays_bit_identically(self, method, mnist_tiny):
        """Crash-and-rejoin + straggler + 5% message drop: the run replays
        bit for bit and its trace still conserves every message."""
        def run():
            plan = (FaultPlan(seed=3).crash(1, 0.004, rejoin_at=0.012)
                    .straggler(2, 3.0).drop_rate(0.05))
            return _run(method, mnist_tiny, iterations=40, faults=plan)

        a, b = run(), run()
        assert to_jsonl(a.trace) == to_jsonl(b.trace)
        assert a.fault_log == b.fault_log
        assert a.extras == b.extras
        assert (a.sim_time, a.final_accuracy) == (b.sim_time, b.final_accuracy)
        # The plan actually bit: a crash, its rejoin, and dropped messages.
        assert a.fault_log.count("crash") == a.fault_log.count("rejoin") == 1
        assert a.extras["messages_dropped"] > 0
        assert "message-conservation" in check_all(a.trace)

    ELASTIC_ROWS = sorted(
        key for key, row in PS_FAMILIES.items()
        if isinstance(row.store(EASGDHyper(lr=0.05, rho=2.0), 1), ElasticCenterStore)
    )

    @pytest.mark.parametrize("method", ELASTIC_ROWS)
    def test_elastic_force_conserves_total_mass(self, method):
        """The elastic force is symmetric (Eqs 1-2): with zero gradients
        ``sum_i x_i + x~`` is conserved, to float32 rounding, whether the
        center folds one worker at a time (``serve``/``apply``) or all at
        once (``fold_sum``)."""
        row = PS_FAMILIES[method]
        hyper = EASGDHyper(lr=0.05, rho=2.0)
        rng = np.random.default_rng(11)
        n, workers, rounds = 257, 4, 25
        rule = row.rule()
        store = row.store(hyper, workers).bind(
            rng.standard_normal(n).astype(np.float32))
        states = [rule.init_state(rng.standard_normal(n).astype(np.float32))
                  for _ in range(workers)]
        zero = np.zeros(n, dtype=np.float32)

        def mass():
            return store.weights.astype(np.float64) + sum(
                st["w"].astype(np.float64) for st in states)

        # One rounding of an O(1) value per fold, 2 folds per exchange.
        atol = 2 * workers * rounds * 4 * np.finfo(np.float32).eps
        before = mass()
        for _ in range(rounds):  # asynchronous: one worker at a time
            for j in rng.permutation(workers):
                reply = store.serve(rule.payload(states[j], zero))
                rule.apply(states[j], zero, reply, hyper)
        np.testing.assert_allclose(mass(), before, rtol=0, atol=atol)
        for _ in range(rounds):  # synchronous: Eq 1 everywhere, then Eq 2
            sum_w = sum(st["w"] for st in states)
            for st in states:
                rule.apply(st, zero, store.weights, hyper)
            store.fold_sum(sum_w, workers)
        np.testing.assert_allclose(mass(), before, rtol=0, atol=2 * atol)

    def test_runner_refuses_a_knob_the_row_cannot_honour(self, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=7)
        with pytest.raises(ValueError, match="'bounded-async-easgd'.*local_steps"):
            run_mpi_ps("bounded-async-easgd", net, train, ranks=3, iterations=2,
                       local_steps=8)
        with pytest.raises(ValueError, match="'downpour'.*tau"):
            run_mpi_ps("downpour", net, train, ranks=3, iterations=2, tau=3)

    def test_runner_default_tau_scales_with_workers(self, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=7)
        net.forward(train.images[:1])
        res = run_mpi_ps("bounded-async-easgd", net, train, ranks=RANKS,
                         iterations=2, batch_size=16)
        assert res.extras["staleness_tau"] == 2 * (RANKS - 2)


# ---------------------------------------------------------------------------
# trace shape of the new families
# ---------------------------------------------------------------------------
class TestZooTraces:
    @pytest.mark.parametrize("method", sorted(ZOO_METHODS))
    def test_invariants_pass(self, method, mnist_tiny):
        res = _run(method, mnist_tiny)
        ran = check_all(res.trace)
        assert "message-conservation" in ran
        if method == "gossip-sgd":
            assert "gossip-pairing" in ran

    @pytest.mark.parametrize("method", ["downpour", "adag"])
    def test_ps_apply_spans_carry_staleness(self, method, mnist_tiny):
        res = _run(method, mnist_tiny)
        stats = staleness_stats(res.trace)
        assert stats["count"] > 0
        assert stats["mean"] >= 0.0

    def test_downpour_local_steps_flag(self, mnist_tiny):
        fast = _run("downpour", mnist_tiny, local_steps=1)
        slow = _run("downpour", mnist_tiny, local_steps=8)
        # More local batches per exchange means more simulated compute.
        assert slow.sim_time > fast.sim_time
        assert slow.trace.meta["local_steps"] == 8
        # ...so at its default segment a Downpour step costs more simulated
        # time than a step of the Async EASGD baseline.
        assert _run("downpour", mnist_tiny).sim_time > _run("async-easgd", mnist_tiny).sim_time


# ---------------------------------------------------------------------------
# checkpoint/resume bit-identity for the new families
# ---------------------------------------------------------------------------
class TestZooResume:
    EVERY, K, N = 2, 4, 8

    def _build(self, method, mnist_tiny, directory):
        train, test = mnist_tiny
        cfg = TrainerConfig(
            batch_size=16, lr=0.05, rho=2.0, seed=0,
            eval_every=self.EVERY, eval_samples=64, trace=True,
            checkpoint_every=self.EVERY, checkpoint_dir=str(directory),
        )
        return make_trainer(
            method, build_mlp(seed=0), train, test,
            GpuPlatform(num_gpus=RANKS, seed=0), cfg,
            CostModel.from_spec(LENET),
        )

    @pytest.mark.parametrize("method", sorted(ZOO_METHODS))
    def test_resume_equals_straight_run(self, tmp_path, mnist_tiny, method):
        from repro.trace import to_jsonl

        straight = self._build(method, mnist_tiny, tmp_path / "a").train(self.N)
        self._build(method, mnist_tiny, tmp_path / "b").train(self.K)
        resumed = self._build(method, mnist_tiny, tmp_path / "b").train(
            self.N, resume=True)

        assert to_jsonl(resumed.trace) == to_jsonl(straight.trace)
        assert resumed.sim_time == straight.sim_time
        assert resumed.final_accuracy == straight.final_accuracy


# ---------------------------------------------------------------------------
# backend equivalence: threads vs processes at P=4, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.mp
@pytest.mark.slow
@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestBackendEquivalence:
    ITERATIONS = 4

    def _template(self, mnist_tiny):
        train, _ = mnist_tiny
        net = build_mlp(seed=7)
        net.forward(train.images[:1])  # materialize params before cloning
        return net, train

    @pytest.mark.parametrize("method", sorted(PS_RUNNER_METHODS))
    def test_centered_family_matches_across_backends(self, method, mnist_tiny):
        net, train = self._template(mnist_tiny)
        runs = {
            backend: run_mpi_ps(method, net, train, ranks=RANKS,
                                iterations=self.ITERATIONS, batch_size=16,
                                seed=3, backend=backend)
            for backend in ("threads", "processes")
        }
        t, p = runs["threads"], runs["processes"]
        assert np.array_equal(t.center, p.center)
        assert len(t.worker_weights) == RANKS - 1
        for wt, wp in zip(t.worker_weights, p.worker_weights):
            assert np.array_equal(wt, wp)
        assert t.mean_losses == p.mean_losses
        assert t.extras == p.extras

    def test_gossip_matches_across_backends(self, mnist_tiny):
        net, train = self._template(mnist_tiny)
        runs = {
            backend: run_mpi_gossip(net, train, ranks=RANKS,
                                    iterations=self.ITERATIONS, batch_size=16,
                                    seed=3, backend=backend)
            for backend in ("threads", "processes")
        }
        t, p = runs["threads"], runs["processes"]
        assert np.array_equal(t.center, p.center)
        for wt, wp in zip(t.worker_weights, p.worker_weights):
            assert np.array_equal(wt, wp)
        assert t.mean_losses == p.mean_losses

    def test_bounded_runner_rejects_under_tight_tau(self, mnist_tiny):
        net, train = self._template(mnist_tiny)
        res = run_mpi_ps("bounded-async-easgd", net, train, ranks=RANKS,
                         iterations=self.ITERATIONS, batch_size=16,
                         seed=3, tau=1, backend="threads")
        assert res.extras["staleness_rejected"] > 0
        assert res.extras["staleness_max_applied"] <= 1


# ---------------------------------------------------------------------------
# the rank twin's bits, pinned: one sha256 per run
# ---------------------------------------------------------------------------
#: case id -> (method, ranks, extra run_mpi_ps keywords); every case runs 4
#: iterations at batch 16, seed 3, on threads.
PINNED_RUNS = {
    **{method: (method, 3, {}) for method in PS_RUNNER_METHODS},
    "bounded-async-easgd-tau1": ("bounded-async-easgd", 4, {"tau": 1}),
    "async-easgd-history": ("async-easgd", 3, {"record_history": True}),
    "downpour-one-worker": ("downpour", 2, {}),
    "async-easgd-three-workers": ("async-easgd", 4, {}),
}

#: sha256 of each case's center, workers, mean losses, extras and history.
PINNED_SHA256 = {
    "adag": "3db1866671c30dd2385b073f4644bfa72f55353052d81c05f6c9aacdd638f0c5",
    "async-easgd": "f6f3413507586959f1b23a619a33040e33c560c0b6b592c15405cd99c540c832",
    "async-easgd-history": "98ab83926b8d6e0bb6712ad364356bd7e2eb318ed4512ce80873d1c0fc3fbf6f",
    "async-easgd-three-workers": "d48bca9f65f01138db435316adae3f756f3472a57a31186a08cbea5b8fabf7fd",
    "async-measgd": "d7ea2a0a96dfc9839530165b898ec53ea0ab85c86ecf328f5c862647e8ab188c",
    "bounded-async-easgd": "d1b6fb7e8545ef6b4d631930716f8ff842f19880c7eea4ffef1db1cd46ed6c08",
    "bounded-async-easgd-tau1": "f4168398ad35648f435d9c0bec2266a9407b0d50c5530f75050afc3a0899cb81",
    "downpour": "0760d7930d3397ce520eae2e82bf2953625314b250de366109abed61f216c9c3",
    "downpour-one-worker": "571ee3898438dfcd01fc391eb446b9b6f28ee2b64be1ff6a4955aaafe3bfe287",
    "eamsgd": "dc487db2e0fa1e9a3112313a31c5b5f8c6b00fb549316c8ffca4eb61c502285b",
}


def _run_digest(result) -> str:
    h = hashlib.sha256()
    for arr in (result.center, *result.worker_weights, *result.center_history):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.asarray(result.mean_losses, dtype=np.float64).tobytes())
    h.update(repr(sorted(result.extras.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_rank_twin_bits_are_pinned(case, mnist_tiny):
    """Center, every worker, the per-round mean loss, the extras and the
    center history of the PS rank twin, byte for byte, for every
    ``PS_RUNNER_METHODS`` row plus a rejecting bound, a recorded history,
    one worker and three. The service order is a round-robin over
    workers 1..W, whatever carries it, so these bits are the schedule's.

    Like ``test_lenet_gradient_bits_are_pinned``, the constants depend on
    the BLAS build (a different GEMM blocking moves the last bits): a
    change to the runner must keep them; a new NumPy/BLAS may re-record
    them.
    """
    method, ranks, kwargs = PINNED_RUNS[case]
    train, _ = mnist_tiny
    net = build_mlp(seed=7)
    net.forward(train.images[:1])  # materialize params before cloning
    kwargs = dict(kwargs)
    if kwargs.pop("record_history", False):
        result = run_mpi_async_easgd(net, train, ranks=ranks, iterations=4,
                                     batch_size=16, seed=3, record_history=True,
                                     backend="threads")
        assert len(result.center_history) == 4
    else:
        result = run_mpi_ps(method, net, train, ranks=ranks, iterations=4,
                            batch_size=16, seed=3, backend="threads", **kwargs)
    assert len(result.worker_weights) == ranks - 1
    if case == "bounded-async-easgd-tau1":
        assert result.extras["staleness_rejected"] > 0
    assert _run_digest(result) == PINNED_SHA256[case]


@pytest.mark.parametrize("backend", [
    "threads",
    pytest.param("processes", marks=[
        pytest.mark.mp,
        pytest.mark.skipif(not fork_available(), reason="needs the fork start method"),
    ]),
])
@pytest.mark.parametrize("method", ["async-easgd", "bounded-async-easgd"])
def test_traced_rank_twin_serves_round_robin_on_tokens(method, backend, mnist_tiny):
    """A traced run keeps the trace honest: every invariant of the ``ps``
    pattern holds (FCFS service, message conservation), each worker is
    served once per iteration in round-robin order with no two services
    overlapping, and no message carries the center's bytes — only turn
    tokens cross the fabric."""
    train, _ = mnist_tiny
    net = build_mlp(seed=7)
    net.forward(train.images[:1])
    trace, iterations, workers = Trace(), 3, RANKS - 1
    run_mpi_ps(method, net, train, ranks=RANKS, iterations=iterations,
               batch_size=16, seed=3, backend=backend, trace=trace)
    ran = check_all(trace)
    assert {"message-conservation", "fcfs-service"} <= set(ran)
    served = sorted(trace.by_kind("service"), key=lambda e: e.t0)
    assert [(e.iteration, e.rank) for e in served] == [
        (t, r) for t in range(1, iterations + 1) for r in range(workers)]
    assert all(e.op == "ps-serve" and e.nbytes == net.params.nbytes for e in served)
    for prev, cur in zip(served, served[1:]):
        assert prev.t1 <= cur.t0
    messages = trace.by_kind("send", "recv")
    assert len(trace.sends()) == workers * iterations - 1
    assert messages and all(e.nbytes == 0 for e in messages)


# ---------------------------------------------------------------------------
# gossip pairing schedule
# ---------------------------------------------------------------------------
class TestGossipPairs:
    @settings(max_examples=50, deadline=None)
    @given(p=st.integers(min_value=1, max_value=12),
           t=st.integers(min_value=0, max_value=40))
    def test_valid_matching(self, p, t):
        pairs = gossip_pairs(t, p)
        seen = [r for pair in pairs for r in pair]
        assert len(seen) == len(set(seen))  # nobody talks twice per round
        assert all(0 <= a < b < p for a, b in pairs)
        if p % 2 == 0 and p > 1:
            assert len(pairs) == p // 2  # perfect matching, no idle rank
        else:
            assert len(pairs) == p // 2  # one bye per round

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    def test_full_period_covers_every_pair_once(self, p):
        period = p - 1 if p % 2 == 0 else p
        covered = [pair for t in range(period) for pair in gossip_pairs(t, p)]
        assert len(covered) == len(set(covered))
        assert set(covered) == {
            (a, b) for a in range(p) for b in range(a + 1, p)
        }

    def test_schedule_is_periodic(self):
        period = RANKS - 1
        for t in range(period):
            assert gossip_pairs(t, RANKS) == gossip_pairs(t + period, RANKS)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gossip_pairs(0, 0)
        with pytest.raises(ValueError):
            gossip_pairs(-1, 4)
        assert gossip_pairs(0, 1) == []
