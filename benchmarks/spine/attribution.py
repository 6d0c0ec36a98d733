"""Spans -> per-layer metrics.

A span's *self* time is its duration minus the time covered by its child
spans (the spans opened inside it on the same thread); a layer's time is
the self time of its spans, so nested layers never count a second twice.
Spans are kept only when they start inside the timed window of an op —
warm-up, launch outside a timed section and the benchmark's own
housekeeping fall away — and are tallied pass by pass, so a traced run
never holds more than one pass of spans in memory.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from probes import Span

__all__ = ["Totals", "self_times", "span_metrics", "SELF_MS_PER_STEP"]

#: ``<metric>`` = self time of the spans with these names, in ms per step.
SELF_MS_PER_STEP: Dict[str, Tuple[str, ...]] = {
    "data.batch_ms_per_step": ("data.batch",),
    "nn.conv_fwd_ms_per_step": ("nn.conv_fwd",),
    "nn.conv_bwd_ms_per_step": ("nn.conv_bwd",),
    "nn.im2col_ms_per_step": ("nn.im2col",),
    "nn.col2im_ms_per_step": ("nn.col2im",),
    "nn.pool_fwd_ms_per_step": ("nn.pool_fwd",),
    "nn.pool_bwd_ms_per_step": ("nn.pool_bwd",),
    "nn.act_fwd_ms_per_step": ("nn.act_fwd",),
    "nn.act_bwd_ms_per_step": ("nn.act_bwd",),
    "nn.dense_fwd_ms_per_step": ("nn.dense_fwd",),
    "nn.dense_bwd_ms_per_step": ("nn.dense_bwd",),
    "nn.loss_ms_per_step": ("nn.loss",),
    "nn.param_copy_ms_per_step": ("nn.param_copy",),
    "optim.update_ms_per_step": ("optim.update",),
    "engine.self_ms_per_step": ("engine.run", "engine.snapshot", "engine.evaluate"),
    "engine.ps_ms_per_step": ("engine.ps",),
    "algorithms.self_ms_per_step": ("algorithms.step", "algorithms.train",
                                    "algorithms.run_mpi"),
    "cluster.cost_ms_per_step": ("cluster.cost",),
    "comm.reduce_ms_per_step": ("comm.reduce",),
}

#: Calls a rank program makes into the comm layer (as opposed to the
#: send/recv a collective makes on its own behalf).
_CTX_CALLS = frozenset({"comm.allreduce", "comm.collective", "comm.send", "comm.recv"})


def _parents(spans: Sequence[Span]) -> List[Optional[int]]:
    """Index of each span's enclosing span in ``spans`` (None for a root)."""
    index = {(s.pid, s.sid): i for i, s in enumerate(spans)}
    return [index.get((s.pid, s.parent)) if s.parent >= 0 else None for s in spans]


def self_times(spans: Sequence[Span],
               parents: Optional[List[Optional[int]]] = None) -> List[float]:
    """Self time of each span: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s, parent in zip(spans, _parents(spans) if parents is None else parents):
        if parent is not None:
            child[parent] += s.t1 - s.t0
    return [max(0.0, (s.t1 - s.t0) - c) for s, c in zip(spans, child)]


def _slowest_lane(per_lane: Dict[Tuple[int, Tuple[int, int]], float]) -> float:
    """Sum over ops of the largest per-lane value: a step waits for its slowest rank."""
    best: Dict[int, float] = {}
    for (op, _lane), seconds in per_lane.items():
        best[op] = max(best.get(op, 0.0), seconds)
    return sum(best.values())


class Totals:
    """Running sums over the traced passes of one workload."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()  # span name -> self seconds
        self.incl_s: Counter = Counter()  # span name -> inclusive seconds
        self.calls: Counter = Counter()  # span name -> spans
        self.work: Counter = Counter()  # span name -> sum of Span.n
        self.cpu_s: Counter = Counter()  # span name -> thread CPU (sampled spans)
        self.layer_self_s: Counter = Counter()  # layer -> self seconds
        self.allreduce_max_s = 0.0  # per op: the slowest rank's allreduce time
        self.ctx_calls = 0  # rank-program-level calls into the comm layer
        self.ctx_bytes = 0.0  # ...and the bytes they handed over
        self.covered_s = 0.0  # per op: root-span coverage of its best lane
        self.spans = 0
        self.passes = 0

    def add_pass(self, spans: Iterable[Span],
                 windows: Sequence[Tuple[float, float]]) -> List[Tuple[Span, int]]:
        """Tally one pass; returns the kept spans, each with its op index."""
        order = sorted(range(len(windows)), key=lambda i: windows[i][0])
        starts = [windows[i][0] for i in order]
        kept: List[Span] = []
        ops: List[int] = []
        for s in spans:
            k = bisect_right(starts, s.t0) - 1
            if k >= 0 and s.t0 <= windows[order[k]][1]:
                kept.append(s)
                ops.append(order[k])
        parents = _parents(kept)
        own = self_times(kept, parents)
        allreduce: Counter = Counter()  # (op, lane) -> seconds
        covered: Counter = Counter()
        for s, op, self_s, parent in zip(kept, ops, own, parents):
            dur = s.t1 - s.t0
            self.self_s[s.name] += self_s
            self.incl_s[s.name] += dur
            self.calls[s.name] += 1
            self.work[s.name] += s.n
            self.layer_self_s[s.layer] += self_s
            if s.cpu >= 0.0:
                self.cpu_s[s.name] += s.cpu
            lane = (s.pid, s.tid)
            if parent is None:
                covered[(op, lane)] += min(s.t1, windows[op][1]) - s.t0
            if s.name == "comm.allreduce":
                allreduce[(op, lane)] += dur
            if s.name in _CTX_CALLS and (parent is None
                                         or kept[parent].name not in _CTX_CALLS):
                self.ctx_calls += 1
                self.ctx_bytes += s.n
        self.allreduce_max_s += _slowest_lane(allreduce)
        self.covered_s += _slowest_lane(covered)
        self.spans += len(kept)
        self.passes += 1
        return list(zip(kept, ops))


def span_metrics(totals: Totals, steps: int, wall: float,
                 missing_names: Set[str]) -> Dict[str, Optional[float]]:
    """The per-layer metrics that come from spans.

    ``steps`` and ``wall`` are the traced passes' own totals.  A metric fed
    by a probe that could not be installed is ``None``, not a low number.
    """
    t = totals

    def gated(names: Tuple[str, ...], value: float) -> Optional[float]:
        return None if missing_names.intersection(names) else value

    out: Dict[str, Optional[float]] = {
        metric: gated(names, 1e3 * sum(t.self_s[n] for n in names) / steps)
        for metric, names in SELF_MS_PER_STEP.items()
    }
    nn_busy = t.layer_self_s["nn"]
    flops = t.work["nn.gradient"] + t.work["nn.eval"]
    recv_blocked = t.incl_s["comm.recv"] - t.cpu_s["comm.recv"]
    out.update({
        "data.batches_per_step": gated(("data.batch",), t.calls["data.batch"] / steps),
        "nn.share": nn_busy / wall,
        "nn.eval_ms_per_step": gated(("nn.eval",), 1e3 * t.incl_s["nn.eval"] / steps),
        "nn.flops_per_step": gated(("nn.gradient", "nn.eval"), flops / steps),
        "nn.gflop_per_s": gated(("nn.gradient", "nn.eval"),
                                flops / nn_busy / 1e9 if nn_busy > 0 else 0.0),
        "optim.share": t.layer_self_s["optim"] / wall,
        "engine.share": t.layer_self_s["engine"] / wall,
        "engine.eval_snapshots": gated(("engine.snapshot",),
                                       t.calls["engine.snapshot"] / max(1, t.passes)),
        "comm.allreduce_ms_per_step": gated(("comm.allreduce",),
                                            1e3 * t.allreduce_max_s / steps),
        "comm.p2p_ms_per_step": gated(
            ("comm.send", "comm.recv"),
            1e3 * (t.incl_s["comm.send"] + t.cpu_s["comm.recv"]) / steps),
        "comm.wait_ms_per_step": gated(("comm.recv",), 1e3 * max(0.0, recv_blocked) / steps),
        "comm.calls_per_step": t.ctx_calls / steps,
        "comm.msgs_per_step": gated(("comm.send",), t.calls["comm.send"] / steps),
        "comm.payload_bytes_per_step": t.ctx_bytes / steps,
        "harness.build_trainer_ms": gated(
            ("harness.build_trainer",),
            1e3 * t.incl_s["harness.build_trainer"] / max(1, t.calls["harness.build_trainer"])),
        "bench.unattributed_share": max(0.0, 1.0 - t.covered_s / wall),
    })
    return out
