"""repro.trace: event model, metrics, exporters, and invariant checks.

Unit-level coverage of the tracing subsystem itself; the algorithm-level
guarantees (Theta(P) vs Theta(log P), conservation under faults, golden
replays) live in ``test_trace_properties.py`` and ``test_trace_golden.py``.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.nn.models import build_mlp
from repro.comm.topology import gossip_pairs
from repro.nn.spec import LENET
from repro.trace import check as check_module
from repro.trace import from_jsonl, MASTER, to_chrome, to_jsonl, Trace, TraceEvent
from repro.trace.check import (
    check_all,
    check_fcfs_service,
    check_flat_exchange_shape,
    check_gossip_pairing,
    check_message_conservation,
    check_no_overlap,
    check_overlap,
    check_packed_single_message,
    check_ring_bytes_per_rank,
    check_ring_message_bound,
    check_ring_round_bound,
    check_serving_batch_cap,
    check_serving_no_overlap,
    check_serving_publish_monotone,
    check_serving_staleness_bound,
    check_tree_message_bound,
    check_tree_round_bound,
    check_update_staleness_bound,
    InvariantViolation,
)
from repro.trace.export import chrome_events
from repro.trace.metrics import (
    bytes_by_rank,
    comm_compute_ratio,
    comm_seconds,
    compute_seconds,
    critical_path_seconds,
    message_counts,
    overlap_fraction,
    round_count,
    staleness_stats,
    summarize,
)
from repro.trace.schedule import emit_p2p, emit_tree_phase, tree_edge_rounds

pytestmark = pytest.mark.trace


def _trace_for(method, mnist_tiny, iterations=10, **kw):
    """Run a tiny traced 4-rank experiment and return its trace."""
    train, test = mnist_tiny
    cfg = TrainerConfig(batch_size=16, seed=0, eval_every=5, eval_samples=64, trace=True)
    plat = GpuPlatform(num_gpus=4, seed=0)
    cost = CostModel.from_spec(LENET)
    cls = {
        "original": OriginalEASGDTrainer,
        "sync": SyncEASGDTrainer,
        "sgd": SyncSGDTrainer,
        "async": ALGORITHMS["async-easgd"],
        "hogwild": ALGORITHMS["hogwild-sgd"],
    }[method]
    result = cls(build_mlp(seed=0), train, test, plat, cfg, cost, **kw).train(iterations)
    assert result.trace is not None
    return result


class TestEventModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            TraceEvent("teleport", 0, 0.0, 1.0)

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            TraceEvent("compute", 0, 2.0, 1.0)

    def test_channel_identity_shared_by_send_and_recv(self):
        s = TraceEvent("send", 0, 0.0, 1.0, peer=3, tag=7, seq=2)
        r = TraceEvent("recv", 3, 1.0, 1.0, peer=0, tag=7, seq=2)
        assert s.channel() == r.channel() == (0, 3, 7, 2)

    def test_channel_only_for_p2p(self):
        with pytest.raises(ValueError):
            TraceEvent("compute", 0, 0.0, 1.0).channel()

    def test_dict_round_trip(self):
        e = TraceEvent("send", 1, 0.5, 0.75, op="x", peer=2, tag=3, nbytes=9, seq=4,
                       round=1, iteration=6, value=2.5)
        assert TraceEvent.from_dict(e.to_dict()) == e

    def test_trace_queries(self):
        tr = Trace(meta={"ranks": 2})
        tr.send(0, 1, 0.0, 1.0, op="a", seq=0)
        tr.recv(1, 0, 1.0, 1.0, op="a", seq=0)
        tr.span("compute", 1, 1.0, 2.0, iteration=3)
        assert len(tr) == 3
        assert [e.kind for e in tr.by_kind("send", "recv")] == ["send", "recv"]
        assert len(tr.sends("a")) == 1 and not tr.sends("b")
        assert tr.iterations() == [3]
        assert tr.ranks() == [0, 1]


class TestSchedule:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 9])
    def test_tree_edges_cover_every_rank_once(self, p):
        rounds = tree_edge_rounds(p)
        dests = [d for edges in rounds for _, d in edges]
        assert sorted(dests) == list(range(1, p))  # each non-root reached once
        assert len(rounds) == (0 if p == 1 else int(np.ceil(np.log2(p))))

    def test_reduce_reverses_bcast(self):
        bc, red = Trace(meta={"ranks": 4}), Trace(meta={"ranks": 4})
        emit_tree_phase(bc, "tree-bcast", [0, 1, 2, 3], 0.0, 1.0, nbytes=8, tag=1)
        emit_tree_phase(red, "tree-reduce", [0, 1, 2, 3], 0.0, 1.0, nbytes=8, tag=2,
                        reduce=True)
        bc_edges = {(e.rank, e.peer) for e in bc.sends()}
        red_edges = {(e.peer, e.rank) for e in red.sends()}
        assert bc_edges == red_edges  # same tree, arrows flipped

    def test_per_layer_mode_multiplies_messages(self):
        tr = Trace(meta={"ranks": 4})
        emit_tree_phase(tr, "tree-bcast", [0, 1, 2, 3], 0.0, 1.0, nbytes=12,
                        messages_per_edge=3, tag=1)
        assert len(tr.sends()) == 3 * 3  # 3 edges x 3 blobs
        assert all(e.nbytes == 4 for e in tr.sends())

    def test_p2p_seq_spacing_keeps_channels_distinct(self):
        tr = Trace(meta={"ranks": 2})
        emit_p2p(tr, 0, 1, 0.0, 1.0, op="x", nbytes=6, messages=3, seq=0)
        emit_p2p(tr, 0, 1, 1.0, 2.0, op="x", nbytes=6, messages=3, seq=1)
        assert len({e.channel() for e in tr.sends()}) == 6


class TestMetrics:
    def _toy(self):
        tr = Trace(meta={"ranks": 2})
        tr.span("compute", 0, 0.0, 4.0, iteration=1)
        tr.send(0, 1, 1.0, 3.0, tag=1, nbytes=100, seq=0, op="m", iteration=1)
        tr.recv(1, 0, 3.0, 3.0, tag=1, nbytes=100, seq=0, op="m", iteration=1)
        tr.span("compute", 1, 3.0, 5.0, iteration=1)
        return tr

    def test_counts_and_bytes(self):
        tr = self._toy()
        assert message_counts(tr) == {0: 1}
        assert bytes_by_rank(tr) == {0: 100}

    def test_union_semantics(self):
        tr = self._toy()
        assert comm_seconds(tr) == pytest.approx(2.0)
        assert compute_seconds(tr) == pytest.approx(5.0)  # [0,4] u [3,5]
        assert comm_compute_ratio(tr) == pytest.approx(2.0 / 7.0)

    def test_overlap_fraction_counts_hidden_comm_once(self):
        tr = Trace(meta={"ranks": 1})
        tr.send(0, 0, 0.0, 2.0, seq=0)
        tr.recv(0, 0, 2.0, 2.0, seq=0)
        # two compute spans both covering the send must not double-count
        tr.span("compute", 0, 0.0, 1.5)
        tr.span("staging", 0, 1.0, 2.0)
        assert overlap_fraction(tr) == pytest.approx(1.0)

    def test_critical_path_spans_message_edges(self):
        tr = self._toy()
        # compute(4) -> send tail(2, overlapping from 1) -> recv(0) -> compute(2)
        assert critical_path_seconds(tr) == pytest.approx(4.0 + 2.0 + 0.0 + 2.0)

    def test_round_count(self):
        tr = Trace(meta={"ranks": 8})
        emit_tree_phase(tr, "tree-bcast", list(range(8)), 0.0, 1.0, nbytes=8,
                        tag=1, iteration=1)
        assert round_count(tr, "tree-bcast") == 3

    def test_staleness_stats(self):
        tr = Trace(meta={"ranks": 2})
        tr.span("update", 0, 0.0, 1.0, op="elastic-update", value=2.0)
        tr.span("update", 1, 1.0, 2.0, op="elastic-update", value=4.0)
        stats = staleness_stats(tr)
        assert stats == {"mean": 3.0, "max": 4.0, "count": 2.0}
        assert staleness_stats(Trace())["count"] == 0.0

    def test_summarize_keys(self):
        digest = summarize(self._toy())
        assert set(digest) >= {"events", "messages", "bytes", "comm_seconds",
                               "compute_seconds", "comm_compute_ratio",
                               "overlap_fraction", "critical_path_seconds", "faults"}


class TestExport:
    def test_jsonl_round_trip(self):
        tr = self._sample()
        back = from_jsonl(to_jsonl(tr))
        assert back.meta == tr.meta
        assert back.events == tr.events

    def test_jsonl_is_byte_stable(self):
        assert to_jsonl(self._sample()) == to_jsonl(self._sample())

    def test_jsonl_file_io(self, tmp_path):
        path = tmp_path / "t.jsonl"
        to_jsonl(self._sample(), path)
        assert from_jsonl(path).events == self._sample().events

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown record type"):
            from_jsonl('{"type": "mystery"}')
        with pytest.raises(ValueError, match="empty trace"):
            from_jsonl("")
        doc = to_jsonl(self._sample())
        with pytest.raises(ValueError, match="duplicate meta"):
            from_jsonl(doc + doc)

    def test_chrome_structure(self):
        doc = json.loads(to_chrome(self._sample()))
        events = doc["traceEvents"]
        names = {e.get("ph") for e in events}
        assert {"M", "X", "s", "f"} <= names  # threads, slices, flow arrows
        # master maps to tid 0, rank j to j+1; ts are microseconds
        slices = [e for e in events if e.get("ph") == "X"]
        assert any(e["tid"] == 0 for e in slices)
        assert all(e["ts"] >= 0 and e["dur"] > 0 for e in slices)
        assert doc["otherData"]["ranks"] == 2

    def test_chrome_fault_is_instant(self):
        tr = self._sample()
        tr.fault(1, 0.5, "drop", peer=0, seq=9)
        instants = [e for e in chrome_events(tr) if e.get("ph") == "i"]
        assert len(instants) == 1 and instants[0]["name"] == "drop"

    def _sample(self):
        tr = Trace(meta={"ranks": 2, "method": "toy"})
        tr.span("compute", MASTER, 0.0, 1.0, iteration=1)
        tr.send(0, 1, 1.0, 2.0, tag=5, nbytes=64, seq=0, op="m", iteration=1)
        tr.recv(1, 0, 2.0, 2.0, tag=5, nbytes=64, seq=0, op="m", iteration=1)
        return tr


class TestChecks:
    def test_conservation_passes_and_fails(self):
        tr = Trace(meta={"ranks": 2})
        tr.send(0, 1, 0.0, 1.0, tag=1, seq=0)
        tr.recv(1, 0, 1.0, 1.0, tag=1, seq=0)
        check_message_conservation(tr)
        tr.send(0, 1, 2.0, 3.0, tag=1, seq=1)  # never received
        with pytest.raises(InvariantViolation, match="no matching recv"):
            check_message_conservation(tr)
        tr.fault(0, 3.0, "drop", peer=1, tag=1, seq=1)  # loss accounted
        check_message_conservation(tr)

    def test_ghost_recv_always_fails(self):
        tr = Trace(meta={"ranks": 2})
        tr.recv(1, 0, 1.0, 1.0, tag=1, seq=0)
        with pytest.raises(InvariantViolation, match="never sent"):
            check_message_conservation(tr)

    def test_retransmission_conserves(self):
        tr = Trace(meta={"ranks": 2})
        tr.send(0, 1, 0.0, 1.0, tag=1, seq=0)
        tr.send(0, 1, 1.0, 2.0, tag=1, seq=0)  # retransmit, same channel
        tr.recv(1, 0, 2.0, 2.0, tag=1, seq=0)
        check_message_conservation(tr)

    def test_tree_bounds(self):
        tr = Trace(meta={"ranks": 4})
        emit_tree_phase(tr, "tree-bcast", [0, 1, 2, 3], 0.0, 1.0, nbytes=8,
                        tag=1, iteration=1)
        check_tree_message_bound(tr)
        check_tree_round_bound(tr)
        # a flat Theta(P) schedule mislabelled as a tree trips the round bound
        flat = Trace(meta={"ranks": 4})
        for j in range(1, 4):
            flat.send(0, j, float(j), j + 1.0, tag=1, seq=0, op="tree-bcast",
                      round=j - 1, iteration=1)
        check_tree_message_bound(flat)  # 3 edges <= 8: fine
        with pytest.raises(InvariantViolation, match="rounds"):
            check_tree_round_bound(flat)

    def test_packed_single_message(self):
        tr = Trace(meta={"ranks": 4, "packed": True})
        emit_tree_phase(tr, "tree-bcast", [0, 1, 2, 3], 0.0, 1.0, nbytes=8, tag=1,
                        iteration=1)
        check_packed_single_message(tr)
        per_layer = Trace(meta={"ranks": 4, "packed": True})
        emit_tree_phase(per_layer, "tree-bcast", [0, 1, 2, 3], 0.0, 1.0, nbytes=8,
                        tag=1, iteration=1, messages_per_edge=4)
        with pytest.raises(InvariantViolation, match="packed"):
            check_packed_single_message(per_layer)

    def test_overlap_checks(self):
        tr = Trace(meta={"ranks": 1})
        tr.send(0, 0, 0.0, 1.0, seq=0)
        tr.recv(0, 0, 1.0, 1.0, seq=0)
        tr.span("compute", 0, 2.0, 3.0)
        check_no_overlap(tr)
        with pytest.raises(InvariantViolation, match="not hidden"):
            check_overlap(tr)
        tr.span("compute", 0, 0.0, 1.0)
        check_overlap(tr)
        with pytest.raises(InvariantViolation, match="serial"):
            check_no_overlap(tr)

    def test_fcfs_service(self):
        ok = Trace(meta={"ranks": 2})
        ok.span("service", MASTER, 1.0, 2.0, op="ps-serve", value=0.5)
        ok.span("service", MASTER, 2.0, 3.0, op="ps-serve", value=1.5)
        check_fcfs_service(ok)
        bad = Trace(meta={"ranks": 2})
        bad.span("service", MASTER, 1.0, 2.0, op="ps-serve", value=1.5)
        bad.span("service", MASTER, 2.0, 3.0, op="ps-serve", value=0.5)
        with pytest.raises(InvariantViolation, match="not FCFS"):
            check_fcfs_service(bad)
        overlapping = Trace(meta={"ranks": 2})
        overlapping.span("service", MASTER, 1.0, 3.0, op="ps-serve", value=0.5)
        overlapping.span("service", MASTER, 2.0, 4.0, op="ps-serve", value=1.0)
        with pytest.raises(InvariantViolation, match="overlap"):
            check_fcfs_service(overlapping)

    def test_check_all_dispatch(self):
        tr = Trace(meta={"ranks": 4, "pattern": "tree", "variant": 3, "packed": True})
        emit_tree_phase(tr, "tree-reduce", [0, 1, 2, 3], 0.0, 1.0, nbytes=8, tag=2,
                        iteration=1, reduce=True)
        tr.span("compute", 0, 0.0, 1.0, iteration=1)
        ran = check_all(tr)
        assert "comm-compute-overlap" in ran and "message-conservation" in ran
        assert "fcfs-service" not in ran

    def test_check_all_requires_ranks(self):
        with pytest.raises(InvariantViolation, match="ranks"):
            check_all(Trace(meta={"pattern": "tree"}))


class TestTrainerIntegration:
    """Every trainer family produces a valid, checkable trace at P=4."""

    @pytest.mark.parametrize("method,kw", [
        ("original", {}),
        ("sync", {"variant": 1}),
        ("sync", {"variant": 3}),
        ("sgd", {}),
        ("async", {}),
    ])
    def test_trace_passes_own_invariants(self, mnist_tiny, method, kw):
        result = _trace_for(method, mnist_tiny, **kw)
        ran = check_all(result.trace)
        assert "message-conservation" in ran

    def test_trace_off_means_none(self, mnist_tiny):
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, seed=0, eval_every=5, eval_samples=64)
        res = SyncEASGDTrainer(
            build_mlp(seed=0), train, test, GpuPlatform(num_gpus=4, seed=0), cfg,
            CostModel.from_spec(LENET), variant=3,
        ).train(10)
        assert res.trace is None
        # Tracing observes the run; it never moves it.
        traced = _trace_for("sync", mnist_tiny, variant=3)
        assert len(traced.trace) > 0
        assert len(res.records) > 1 and res.records == traced.records

    def test_easgd3_overlaps_and_serial_variants_do_not(self, mnist_tiny):
        v3 = _trace_for("sync", mnist_tiny, variant=3).trace
        v1 = _trace_for("sync", mnist_tiny, variant=1).trace
        assert overlap_fraction(v3) > 0.5
        assert overlap_fraction(v1) == pytest.approx(0.0, abs=1e-9)

    def test_original_easgd_is_master_bound(self, mnist_tiny):
        """Every round-robin message has the master as one endpoint."""
        tr = _trace_for("original", mnist_tiny).trace
        for e in tr.sends("round-robin"):
            assert MASTER in (e.rank, e.peer)

    def test_async_fcfs_vs_hogwild(self, mnist_tiny):
        fcfs = _trace_for("async", mnist_tiny).trace
        assert "fcfs-service" in check_all(fcfs)
        hog = _trace_for("hogwild", mnist_tiny).trace
        assert "fcfs-service" not in check_all(hog)

    def test_elastic_updates_carry_staleness(self, mnist_tiny):
        tr = _trace_for("async", mnist_tiny).trace
        assert staleness_stats(tr)["count"] > 0

    def test_results_schema_gains_trace_summary(self, mnist_tiny):
        from repro.harness.results import result_to_dict

        traced = _trace_for("sync", mnist_tiny, variant=3)
        doc = result_to_dict(traced)
        assert doc["trace_summary"]["messages"] > 0
        train, test = mnist_tiny
        cfg = TrainerConfig(batch_size=16, seed=0, eval_every=5, eval_samples=64)
        plain = SyncEASGDTrainer(
            build_mlp(seed=0), train, test, GpuPlatform(num_gpus=4, seed=0), cfg,
            CostModel.from_spec(LENET), variant=3,
        ).train(5)
        assert "trace_summary" not in result_to_dict(plain)

    def test_analysis_helpers(self, mnist_tiny):
        from repro.trace.metrics import comm_compute_ratio, summarize

        orig = _trace_for("original", mnist_tiny)
        sync3 = _trace_for("sync", mnist_tiny, variant=3)
        # the paper's headline: the baseline is communication-bound, the
        # codesigned variant is not
        assert comm_compute_ratio(orig.trace) > comm_compute_ratio(sync3.trace)
        assert summarize(orig.trace)["messages"] > 0

    def test_chrome_export_of_each_method(self, mnist_tiny, tmp_path):
        """Acceptance: a 4-rank run of each family yields a loadable trace."""
        for method, kw in [("original", {}), ("sync", {"variant": 3}),
                           ("sgd", {}), ("async", {})]:
            res = _trace_for(method, mnist_tiny, iterations=5, **kw)
            path = tmp_path / f"{method}.json"
            doc = json.loads(to_chrome(res.trace, path))
            assert doc["traceEvents"]
            assert path.stat().st_size > 0


class TestCliTrace:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "run.jsonl"
        rc = main(["run", "--method", "sync-easgd3", "--iterations", "10",
                   "--train-samples", "256", "--trace", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "trace invariants OK" in printed
        replay = from_jsonl(out)
        assert check_all(replay)

    def test_chrome_extension_selects_format(self, tmp_path, capsys):
        from repro.harness.cli import main

        out = tmp_path / "run.json"
        assert main(["run", "--method", "original-easgd", "--iterations", "6",
                     "--train-samples", "256", "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]


# ---------------------------------------------------------------------------
# One forged trace per ``raise InvariantViolation`` site in trace/check.py
# ---------------------------------------------------------------------------


def _forge(meta, *events):
    trace = Trace(meta=meta)
    for event in events:
        trace.add(event)
    return trace


def _send(rank, peer, op="", round=-1, iteration=0, seq=-1, nbytes=0, t=0.0):
    return TraceEvent("send", rank, t, t + 1.0, op=op, peer=peer, round=round,
                      iteration=iteration, seq=seq, nbytes=nbytes)


def _batch(t0, t1, size=1, stale=0.0):
    return TraceEvent("service", MASTER, t0, t1, op="serving/batch", round=size,
                      value=stale)


def _publish(version, step):
    return TraceEvent("mark", MASTER, 0.0, 0.0, op="serving/publish",
                      value=float(version), iteration=step)


_ONE_EDGE = [_send(0, 1, "tree-reduce", round=0) for _ in range(3)]
_UNSCHEDULED = next((a, b) for a in range(4) for b in range(a + 1, 4)
                    if (a, b) not in gossip_pairs(0, 4))

#: (check, forged trace, message it must raise), keyed by the site it hits.
FORGED = {
    "ranks-missing": (check_tree_message_bound, _forge({}), "lacks a 'ranks'"),
    "ghost-recv": (check_message_conservation,
                   _forge({}, TraceEvent("recv", 1, 0.0, 0.0, peer=0, seq=0)),
                   r"1 received channel\(s\) were never sent"),
    "unmatched-send": (check_message_conservation, _forge({}, _send(0, 1, seq=0)),
                       r"send \(0 -> 1, tag=0, seq=0\) has no matching recv"),
    "tree-edges": (check_tree_message_bound,
                   _forge({"ranks": 2}, *[_send(0, j, "tree-reduce", round=0)
                                          for j in (1, 2, 3)]),
                   r"tree-reduce used 3 edges > bound P\*ceil\(log2 P\) = 2"),
    "tree-messages": (check_tree_message_bound, _forge({"ranks": 2}, *_ONE_EDGE),
                      r"tree-reduce sent 3 messages > 2 \* 1 for P=2"),
    "tree-rounds": (check_tree_round_bound,
                    _forge({"ranks": 2}, _send(0, 1, "tree-bcast", round=0),
                           _send(0, 1, "tree-bcast", round=1)),
                    r"tree-bcast used 2 rounds > ceil\(log2 2\) = 1"),
    "ring-messages": (check_ring_message_bound,
                      _forge({"ranks": 2}, *[_send(0, 1, "ring-allgather", round=0)
                                             for _ in range(3)]),
                      r"ring-allgather sent 3 messages > bound P\*\(P-1\) = 2"),
    "ring-edge-reuse": (check_ring_message_bound,
                        _forge({"ranks": 3}, _send(0, 1, "ring-allgather", round=0),
                               _send(0, 1, "ring-allgather", round=1)),
                        r"ring-allgather reused an edge \(2 messages over 1 edges\)"),
    "ring-rounds": (check_ring_round_bound,
                    _forge({"ranks": 2}, _send(0, 1, "ring-reduce-scatter", round=0),
                           _send(1, 0, "ring-reduce-scatter", round=1)),
                    r"ring-reduce-scatter used 2 rounds > P-1 = 1"),
    "ring-bytes": (check_ring_bytes_per_rank,
                   _forge({"ranks": 2}, _send(0, 1, "ring-allgather", nbytes=1000)),
                   "rank 0 shipped 1000 ring bytes > per-rank cap 518 for n=500"),
    "flat-none": (check_flat_exchange_shape, _forge({}), "no round-robin sends"),
    "flat-ranks": (check_flat_exchange_shape,
                   _forge({}, _send(MASTER, 0, "round-robin"),
                          _send(MASTER, 1, "round-robin")),
                   r"round-robin touched ranks \[-1, 0, 1\]"),
    "flat-count": (check_flat_exchange_shape, _forge({}, _send(MASTER, 0, "round-robin")),
                   "1 round-robin messages; expected 2 transfers x 1"),
    "packed": (check_packed_single_message, _forge({}, *_ONE_EDGE),
               "carried 3 messages; packed mode sends exactly one buffer"),
    "overlap": (check_overlap,
                _forge({}, _send(0, 1), TraceEvent("compute", 0, 1.0, 2.0)),
                "overlap fraction 0.0000 <= 0.0"),
    "no-overlap": (check_no_overlap,
                   _forge({}, _send(0, 1), TraceEvent("compute", 0, 0.0, 1.0)),
                   "overlap fraction 1.0000 > 1e-09 in a serial schedule"),
    "fcfs-order": (check_fcfs_service,
                   _forge({}, TraceEvent("service", MASTER, 0.0, 1.0, value=1.0),
                          TraceEvent("service", MASTER, 1.0, 2.0, value=0.5)),
                   r"\(arrival 0\.5\) overtook .* — not FCFS"),
    "fcfs-spans": (check_fcfs_service,
                   _forge({}, TraceEvent("service", MASTER, 0.0, 2.0, value=0.0),
                          TraceEvent("service", MASTER, 1.0, 3.0, value=1.0)),
                   r"service spans overlap under a locked master: \[0,2\] vs \[1,3\]"),
    "tau-missing": (check_update_staleness_bound, _forge({}),
                    "lacks a 'staleness_bound'"),
    "tau": (check_update_staleness_bound,
            _forge({"staleness_bound": 2},
                   TraceEvent("update", 1, 0.0, 1.0, op="elastic-update", value=3.0)),
            "rank 1 applied staleness 3 > bound tau=2"),
    "gossip-duplicate": (check_gossip_pairing,
                         _forge({"ranks": 4}, _send(0, 1, "gossip-exchange"),
                                _send(0, 1, "gossip-exchange")),
                         "duplicate gossip edge 0->1"),
    "gossip-unscheduled": (check_gossip_pairing,
                           _forge({"ranks": 4}, _send(*_UNSCHEDULED, "gossip-exchange")),
                           "gossip edge {}->{} is not in the round's schedule".format(
                               *_UNSCHEDULED)),
    "gossip-one-way": (check_gossip_pairing,
                       _forge({"ranks": 4}, _send(*gossip_pairs(0, 4)[0], "gossip-exchange")),
                       "has no reverse direction"),
    "serving-overlap": (check_serving_no_overlap,
                        _forge({}, _batch(0.0, 2.0), _batch(1.0, 3.0)),
                        "serving batches overlap under a single server"),
    "cap-missing": (check_serving_batch_cap, _forge({}), "lacks a 'batch_cap'"),
    "cap": (check_serving_batch_cap, _forge({"batch_cap": 4}, _batch(0.0, 1.0, size=5)),
            "packed 5 requests > batch_cap 4"),
    "cap-empty": (check_serving_batch_cap, _forge({"batch_cap": 4}, _batch(0.0, 1.0, size=0)),
                  "records size 0 < 1"),
    "bound-missing": (check_serving_staleness_bound, _forge({}),
                      "lacks a 'max_staleness_steps'"),
    "bound": (check_serving_staleness_bound,
              _forge({"max_staleness_steps": 2, "publish_every": 2},
                     _batch(0.0, 1.0, stale=4.0)),
              r"served staleness 4 > bound 2 \(\+1 publish thinning\)"),
    "publish-version": (check_serving_publish_monotone,
                        _forge({}, _publish(1, 1), _publish(1, 2)),
                        "two publishes share version 1"),
    "publish-step": (check_serving_publish_monotone,
                     _forge({}, _publish(1, 5), _publish(2, 3)),
                     r"publish version 2 \(step 3\) is older than version 1 \(step 5\)"),
}


def _raise_sites():
    """Line of every ``raise InvariantViolation(...)`` in trace/check.py."""
    tree = ast.parse(Path(check_module.__file__).read_text())
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and getattr(node.exc.func, "id", None) == "InvariantViolation")


def _violation_site(check, trace, sites):
    """The raise site (one of ``sites``) ``check(trace)`` fails at."""
    with pytest.raises(InvariantViolation) as ei:
        check(trace)
    tb = ei.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return max(line for line in sites if line <= tb.tb_lineno)


@pytest.mark.parametrize("case", sorted(FORGED))
def test_forged_trace_violates_its_invariant(case):
    check, trace, message = FORGED[case]
    with pytest.raises(InvariantViolation, match=message):
        check(trace)


def test_every_raise_site_has_one_forged_trace():
    sites = _raise_sites()
    hit = sorted(_violation_site(check, trace, sites) for check, trace, _ in FORGED.values())
    assert hit == sites
