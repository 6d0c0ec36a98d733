"""Emit the per-message structure of simulated collective phases.

The simulated trainers charge a closed-form time for a whole tree
reduce/broadcast; for the trace we expand that phase back into the
individual point-to-point messages of the binomial-tree schedule (the
same recursive-halving edge order as :func:`repro.comm.collectives
.tree_reduce`), each stamped with its round index and an even share of
the phase's simulated span. The message *structure* is therefore exact
— P-1 messages in ceil(log2 P) rounds — while the per-hop times are
the uniform model the cost functions already assume.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.trace.events import MASTER, Trace

__all__ = ["tree_edge_rounds", "emit_tree_phase", "emit_ring_allreduce", "emit_p2p"]


def tree_edge_rounds(p: int) -> List[List[Tuple[int, int]]]:
    """Binomial-tree broadcast edges grouped by round.

    Round k has every relative rank ``i < 2**k`` forward to ``i + 2**k``
    — the grouping behind :func:`repro.comm.collectives.tree_bcast_order`,
    kept per-round here because the trace records round indices.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    rounds: List[List[Tuple[int, int]]] = []
    have = 1
    while have < p:
        rounds.append([(src, src + have) for src in range(min(have, p - have))])
        have *= 2
    return rounds


def emit_tree_phase(
    trace: Trace,
    op: str,
    ranks: Sequence[int],
    t0: float,
    t1: float,
    *,
    nbytes: int,
    messages_per_edge: int = 1,
    tag: int = 0,
    iteration: int = -1,
    reduce: bool = False,
) -> None:
    """Record one tree collective: a phase span plus its p2p messages.

    ``ranks`` lists the participating worker ids in tree order (position
    0 is the root — after a fault-driven rebuild this is the survivor
    list). A broadcast walks the edge rounds root-down; ``reduce=True``
    walks them leaves-up with the edges flipped. ``messages_per_edge``
    models packed (1) vs per-layer (L) buffers; ``nbytes`` is the total
    per edge, split evenly across its messages.
    """
    p = len(ranks)
    rounds = tree_edge_rounds(p)
    trace.span("collective", MASTER, t0, t1, op=op, nbytes=nbytes * max(p - 1, 0),
               iteration=iteration)
    if not rounds:
        return
    per_round = (t1 - t0) / len(rounds)
    schedule = rounds
    if reduce:
        schedule = [[(dst, src) for src, dst in edges] for edges in reversed(rounds)]
    per_msg_bytes = nbytes // messages_per_edge if messages_per_edge else 0
    for r, edges in enumerate(schedule):
        r0 = t0 + r * per_round
        r1 = r0 + per_round
        for src_rel, dst_rel in edges:
            src, dst = ranks[src_rel], ranks[dst_rel]
            for m in range(messages_per_edge):
                seq = r * messages_per_edge + m
                trace.send(src, dst, r0, r1, tag=tag, nbytes=per_msg_bytes,
                           seq=seq, op=op, round=r, iteration=iteration)
                trace.recv(dst, src, r0, r1, tag=tag, nbytes=per_msg_bytes,
                           seq=seq, op=op, round=r, iteration=iteration)


def emit_ring_allreduce(
    trace: Trace,
    ranks: Sequence[int],
    t0: float,
    t1: float,
    *,
    nbytes: int,
    tag: int = 0,
    iteration: int = -1,
) -> None:
    """Record one sharded ring allreduce: reduce-scatter then allgather.

    Mirrors the logical schedule of the runtime's ring,
    :meth:`repro.comm.runtime.RankContextBase._arena_ring`, without
    importing it (trace/ must stay import-free of comm/): the buffer
    splits into P nearly-equal
    shards at byte bounds ``(nbytes * s) // P``; in reduce-scatter round
    k every rank sends its version of shard ``(i + k) % P`` to that
    shard's owner, and in allgather round k every owner forwards its
    reduced shard to rank ``(i + k) % P``. Both phases move P(P-1)
    messages in P-1 rounds each — 2(P-1) equal-time rounds overall —
    and every rank ships Theta(nbytes / P) per round, the constant
    per-rank bandwidth that lets the ring win at large P. Allgather
    seq numbers continue after the reduce-scatter's so every
    (src, dst, tag, seq) channel stays unique within the collective.
    """
    p = len(ranks)
    trace.span("collective", MASTER, t0, t1, op="ring-allreduce",
               nbytes=2 * nbytes * max(p - 1, 0), iteration=iteration)
    if p <= 1:
        return
    bounds = [(nbytes * s) // p for s in range(p + 1)]
    shard = [bounds[s + 1] - bounds[s] for s in range(p)]
    per_round = (t1 - t0) / (2 * (p - 1))
    for phase, op in enumerate(("ring-reduce-scatter", "ring-allgather")):
        for k in range(1, p):
            r0 = t0 + (phase * (p - 1) + k - 1) * per_round
            r1 = r0 + per_round
            for i in range(p):
                j = (i + k) % p
                src, dst = ranks[i], ranks[j]
                nb = shard[j] if op == "ring-reduce-scatter" else shard[i]
                seq = phase * (p - 1) + k - 1
                trace.send(src, dst, r0, r1, tag=tag, nbytes=nb,
                           seq=seq, op=op, round=k - 1, iteration=iteration)
                trace.recv(dst, src, r0, r1, tag=tag, nbytes=nb,
                           seq=seq, op=op, round=k - 1, iteration=iteration)


def emit_p2p(
    trace: Trace,
    src: int,
    dst: int,
    t0: float,
    t1: float,
    *,
    op: str,
    nbytes: int,
    messages: int = 1,
    tag: int = 0,
    seq: int = 0,
    iteration: int = -1,
) -> None:
    """Record one logical transfer as ``messages`` send/recv pairs.

    The round-robin and parameter-server patterns move whole models in
    one hop; ``messages > 1`` is the unpacked per-layer scheme (each
    blob its own message, same span, consecutive seq numbers).
    """
    per_msg_bytes = nbytes // messages if messages else 0
    for m in range(messages):
        trace.send(src, dst, t0, t1, tag=tag, nbytes=per_msg_bytes,
                   seq=seq * messages + m, op=op, iteration=iteration)
        trace.recv(dst, src, t0, t1, tag=tag, nbytes=per_msg_bytes,
                   seq=seq * messages + m, op=op, iteration=iteration)
