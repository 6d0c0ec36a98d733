"""Derived metrics over a :class:`repro.trace.Trace`.

These are the quantities the paper's structural claims quote: per-rank
message counts and byte volumes (Theta(P) round-robin vs Theta(log P)
tree rounds), the comm/compute ratio (the 87% -> 14% figure, now
measured from the trace instead of trusted from an accumulator), the
overlap fraction (Sync EASGD3's hidden communication), the critical
path through the happens-before graph, and staleness statistics for
elastic updates (the quantity asynchronous convergence analyses bound).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.trace.events import Trace

__all__ = [
    "message_counts",
    "bytes_by_rank",
    "round_count",
    "comm_seconds",
    "compute_seconds",
    "comm_compute_ratio",
    "overlap_fraction",
    "critical_path_seconds",
    "staleness_stats",
    "transport_stats",
    "summarize",
]

#: Kinds whose spans count as communication time.
COMM_KINDS = ("send", "recv", "collective")
#: Kinds whose spans count as computation time.
COMPUTE_KINDS = ("compute", "staging", "update", "service")


def message_counts(trace: Trace, op: Optional[str] = None) -> Dict[int, int]:
    """Number of point-to-point sends per source rank."""
    counts: Dict[int, int] = {}
    for e in trace.sends(op):
        counts[e.rank] = counts.get(e.rank, 0) + 1
    return counts


def bytes_by_rank(trace: Trace, op: Optional[str] = None) -> Dict[int, int]:
    """Bytes sent per source rank."""
    out: Dict[int, int] = {}
    for e in trace.sends(op):
        out[e.rank] = out.get(e.rank, 0) + e.nbytes
    return out


def round_count(trace: Trace, op: str, iteration: Optional[int] = None) -> int:
    """Distinct collective rounds the sends of ``op`` used.

    A round is one level of the binomial tree — all its messages move
    concurrently, so the number of *rounds* (not messages) is what the
    Theta(log P) latency claim counts.
    """
    rounds = {
        (e.iteration, e.round)
        for e in trace.sends(op)
        if e.round >= 0 and (iteration is None or e.iteration == iteration)
    }
    return len(rounds)


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for a, b in intervals[1:]:
        c, d = merged[-1]
        if a > d:
            merged.append((a, b))
        else:
            merged[-1] = (c, max(b, d))
    return merged


def _merged_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    return sum(b - a for a, b in _merge(intervals))


def _intervals(trace: Trace, kinds: Sequence[str]) -> List[Tuple[float, float]]:
    return [(e.t0, e.t1) for e in trace.events if e.kind in kinds and e.t1 > e.t0]


def comm_seconds(trace: Trace) -> float:
    """Union length of all communication spans (overlaps counted once)."""
    return _merged_length(_intervals(trace, COMM_KINDS))


def compute_seconds(trace: Trace) -> float:
    """Union length of all computation spans (overlaps counted once)."""
    return _merged_length(_intervals(trace, COMPUTE_KINDS))


def comm_compute_ratio(trace: Trace) -> float:
    """comm / (comm + compute), both measured as span unions."""
    comm = comm_seconds(trace)
    comp = compute_seconds(trace)
    return comm / (comm + comp) if comm + comp > 0 else 0.0


def overlap_fraction(trace: Trace) -> float:
    """Fraction of communication time hidden under compute/staging.

    Sync EASGD3's design point: its GPU-GPU parameter traffic runs
    concurrently with data staging + forward/backward, so this fraction
    is strictly positive for it and ~0 for the serial variants.
    """
    comm = _merge(_intervals(trace, COMM_KINDS))
    comp = _merge(_intervals(trace, ("compute", "staging")))
    total_comm = sum(b - a for a, b in comm)
    if total_comm == 0.0:
        return 0.0
    hidden = 0.0
    for a, b in comm:
        for c, d in comp:
            if c >= b:
                break
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                hidden += hi - lo
    return hidden / total_comm


def critical_path_seconds(trace: Trace) -> float:
    """Longest chain of span durations through the happens-before graph.

    Edges: program order on each rank (events sorted by start time) and
    message order (each send precedes its matching recv). The result is
    the serial latency a perfectly parallel machine could not beat —
    overlap shows up as critical path < sum of all durations.
    """
    evs = [e for e in trace.events if e.kind in COMM_KINDS + COMPUTE_KINDS]
    order = sorted(range(len(evs)), key=lambda i: (evs[i].t0, evs[i].t1))
    finish: List[float] = [0.0] * len(evs)  # chain length ending at event i
    last_on_rank: Dict[int, float] = {}
    send_chain: Dict[Tuple[int, int, int, int], float] = {}
    best = 0.0
    for i in order:
        e = evs[i]
        start = last_on_rank.get(e.rank, 0.0)
        if e.kind == "recv":
            start = max(start, send_chain.get(e.channel(), 0.0))
        finish[i] = start + e.duration
        last_on_rank[e.rank] = finish[i]
        if e.kind == "send":
            send_chain[e.channel()] = finish[i]
        best = max(best, finish[i])
    return best


#: Update-span ops whose ``value`` carries the applied staleness.
STALENESS_OPS = ("elastic-update", "ps-apply")


def staleness_stats(trace: Trace) -> Dict[str, float]:
    """Mean/max staleness carried by applied parameter-server updates.

    Covers the elastic families' ``elastic-update`` spans and the
    non-elastic zoo's ``ps-apply`` spans (DOWNPOUR/ADAG); rejected
    contributions never emit an update span, so these statistics are over
    *applied* updates — the quantity a :class:`repro.engine.ps
    .StalenessBound` with the reject policy guarantees stays under tau.
    """
    vals = [e.value for e in trace.by_kind("update") if e.op in STALENESS_OPS]
    if not vals:
        return {"mean": 0.0, "max": 0.0, "count": 0.0}
    return {"mean": sum(vals) / len(vals), "max": max(vals), "count": float(len(vals))}


def transport_stats(trace: Trace) -> Dict[str, float]:
    """Aggregate the transport counters the process backend marks.

    The shm transport emits one ``mark`` event per rank per counter with
    ``op="transport/<counter>"`` (inbox records, arena tokens, bytes
    memcpy'd in/out of arena rows, bytes folded in place). This sums them
    across ranks and stamps whether the run moved its bytes through
    shared memory (``meta["transport"]``:
    1 = shm, the process backend; 0 = threads or the simulated clock).
    Untraced or thread-backend runs yield all-zero counters.
    """
    totals: Dict[str, float] = {}
    prefix = "transport/"
    for e in trace.by_kind("mark"):
        if e.op.startswith(prefix):
            key = e.op[len(prefix):]
            totals[key] = totals.get(key, 0.0) + e.value
    totals["shm"] = 1.0 if trace.meta.get("transport") == "shm" else 0.0
    return totals


def summarize(trace: Trace) -> Dict[str, float]:
    """The flat numeric digest the results schema archives."""
    sends = trace.sends()
    digest = {
        "events": float(len(trace)),
        "messages": float(len(sends)),
        "bytes": float(sum(e.nbytes for e in sends)),
        "comm_seconds": comm_seconds(trace),
        "compute_seconds": compute_seconds(trace),
        "comm_compute_ratio": comm_compute_ratio(trace),
        "overlap_fraction": overlap_fraction(trace),
        "critical_path_seconds": critical_path_seconds(trace),
        "faults": float(len(trace.by_kind("fault"))),
    }
    for key, val in transport_stats(trace).items():
        digest[f"transport_{key}"] = val
    return digest
