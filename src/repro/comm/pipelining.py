"""Pipelined (chunked) multi-hop transfers — the NCCL-style optimization.

A tree broadcast of one n-byte message costs ``depth * (alpha + n*beta)``
because every hop waits for the whole buffer. Splitting the buffer into C
chunks pipelines the hops: the last chunk arrives after
``(depth + C - 1)`` chunk-times, so

    T(C) = (depth + C - 1) * (alpha + (n/C) * beta)

which for large n approaches ``n*beta`` (wire speed) instead of
``depth * n * beta``. The optimum balances added latency against hidden
bandwidth: C* = sqrt((depth - 1) * n * beta / alpha).

This is the mechanism behind NCCL's pipelined rings/trees the paper's
GPU implementation links against; the ablation benchmark quantifies it.
"""

from __future__ import annotations

import math

from repro.comm.alphabeta import LinkModel

__all__ = [
    "pipelined_hops_cost",
    "optimal_chunks",
    "pipelined_tree_bcast_cost",
]


def pipelined_hops_cost(link: LinkModel, nbytes: int, depth: int, chunks: int) -> float:
    """Time for an n-byte message to traverse ``depth`` hops in C chunks."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    if chunks <= 0:
        raise ValueError("chunks must be positive")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return (depth + chunks - 1) * link.cost(nbytes / chunks)


def optimal_chunks(link: LinkModel, nbytes: int, depth: int) -> int:
    """The chunk count minimizing :func:`pipelined_hops_cost` (>= 1)."""
    if depth <= 1 or nbytes <= 0 or link.alpha == 0:
        return 1 if depth <= 1 else max(int(math.sqrt(nbytes)), 1)
    c = math.sqrt((depth - 1) * nbytes * link.beta / link.alpha)
    best = max(int(round(c)), 1)
    # The cost is unimodal in C; settle discrete neighbours exactly.
    candidates = {max(best - 1, 1), best, best + 1}
    return min(candidates, key=lambda k: pipelined_hops_cost(link, nbytes, depth, k))


def pipelined_tree_bcast_cost(link: LinkModel, nbytes: int, p: int) -> float:
    """Binomial-tree broadcast with optimally pipelined chunks."""
    from repro.comm.collectives import tree_rounds

    depth = tree_rounds(p)
    if depth == 0:
        return 0.0
    chunks = optimal_chunks(link, nbytes, depth)
    return pipelined_hops_cost(link, nbytes, depth, chunks)
