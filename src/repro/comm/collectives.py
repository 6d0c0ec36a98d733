"""Tree collectives: real numerics plus alpha-beta cost functions.

The paper's Sync EASGD replaces the round-robin's P sequential interactions
with a binomial-tree reduction/broadcast: Theta(log P) rounds instead of
Theta(P). Two faces are provided:

- **Numerics**: :func:`tree_reduce` actually sums NumPy vectors pairwise in
  a *fixed* binomial-tree order, so Sync EASGD's result is bit-deterministic
  (the paper's reproducibility claim) regardless of worker count parity.
- **Cost**: closed-form alpha-beta times for tree reduce/bcast, the flat
  sequential (round-robin / parameter-server) exchange, and allreduce.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.comm.alphabeta import LinkModel

__all__ = [
    "COLLECTIVES",
    "validate_collective",
    "tree_rounds",
    "tree_reduce",
    "tree_reduce_into",
    "tree_cost",
    "flat_sequential_cost",
    "allreduce_cost",
    "shard_bounds",
    "ring_allreduce",
    "ring_allreduce_cost",
]

#: The recognised allreduce schedules for the rank runtimes.
#: ``tree``: binomial reduce-to-root + broadcast — Theta(log P) rounds,
#: every round moves the full buffer. ``ring``: reduce-scatter + allgather
#: — 2(P-1) rounds of n/P-byte shards, Theta(1) bytes per rank in n.
COLLECTIVES = ("tree", "ring")


def validate_collective(collective: str) -> str:
    """Return ``collective`` or raise a ValueError naming the valid choices."""
    if collective not in COLLECTIVES:
        raise ValueError(
            f"unknown collective {collective!r}; expected one of {COLLECTIVES}"
        )
    return collective


def tree_rounds(p: int) -> int:
    """Number of rounds of a binomial tree over ``p`` ranks: ceil(log2 p)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


def tree_reduce(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Binomial-tree sum of equal-shape vectors, deterministic association.

    Round k folds rank ``i + 2**k`` into rank ``i`` for every i that is a
    multiple of ``2**(k+1)`` — the textbook recursive halving schedule. The
    association order is a pure function of ``len(vectors)``, which is what
    makes Sync EASGD runs bit-reproducible. The sum lands in a fresh array
    (:func:`tree_reduce_into`); the inputs are only read.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    return tree_reduce_into(vectors, np.empty_like(vectors[0]))


def tree_reduce_into(vectors: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """:func:`tree_reduce`'s stride-doubling sum, accumulated into ``out``.

    The inputs are only *read* (they may live in shared memory or belong to
    other ranks); all intermediate sums land in ``out`` or private scratch,
    so ``out`` must not overlap any input. With one vector the result is a
    plain copy.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    shape = vectors[0].shape
    for v in vectors:
        if v.shape != shape:
            raise ValueError("all vectors must have the same shape")
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    p = len(vectors)
    if p == 1:
        np.copyto(out, vectors[0])
        return out
    # Slot 0's accumulator is ``out`` itself (seeded by the first fold),
    # other slots get private scratch the first time they accumulate.
    # Read-only inputs are never written.
    acc: List[np.ndarray | None] = list(vectors)
    fresh = [True] * p  # acc[i] still aliases the caller's input
    stride = 1
    while stride < p:
        for i in range(0, p - stride, 2 * stride):
            a, b = acc[i], acc[i + stride]
            if fresh[i]:
                target = out if i == 0 else np.empty_like(out)
                np.add(a, b, out=target)  # type: ignore[arg-type]
                acc[i], fresh[i] = target, False
            else:
                np.add(a, b, out=a)  # type: ignore[arg-type]
            acc[i + stride] = None
        stride *= 2
    assert acc[0] is out
    return out


def tree_cost(link: LinkModel, nbytes: int, p: int) -> float:
    """One binomial-tree phase, reduce or broadcast (the two cost the same
    under alpha-beta): ceil(log2 P) full-message hops, logP * (alpha + n*beta)."""
    return tree_rounds(p) * link.cost(nbytes)


def flat_sequential_cost(link: LinkModel, nbytes: int, p: int) -> float:
    """P sequential full-message exchanges at the root: P * (alpha + n*beta).

    This is the round-robin / one-at-a-time parameter-server pattern the
    paper starts from — the Theta(P) term Sync EASGD eliminates.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    return p * link.cost(nbytes)


def allreduce_cost(link: LinkModel, nbytes: int, p: int) -> float:
    """Tree reduce followed by tree broadcast: 2 * logP * (alpha + n*beta)."""
    return 2 * tree_cost(link, nbytes, p)


def shard_bounds(n: int, p: int) -> List[int]:
    """The P+1 split points of an n-element buffer into P near-equal shards.

    Shard ``s`` is ``[bounds[s], bounds[s+1])`` with ``(n*i)//p`` bounds, so
    shard sizes differ by at most one element and ragged cases degrade
    gracefully: ``n < p`` simply yields some empty shards (those owners move
    zero bytes), never an error. Every party to a ring collective — both
    rank runtimes, the serial reference, and the trace emitter — derives its
    shard layout from this one function.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    return [(n * i) // p for i in range(p + 1)]


def ring_allreduce(vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Ring allreduce numerics: every rank ends with the (identical) sum.

    The serial reference for the runtimes' sharded schedule: the buffer is
    split into P owner shards (:func:`shard_bounds`), the reduce-scatter
    phase gives owner ``s`` every rank's version of shard ``s``, and the
    owner folds them with the *binomial-tree association over rank order*
    (:func:`tree_reduce` restricted to the shard). Because tree reduction
    is elementwise in the rank dimension, the assembled result is bitwise
    identical to ``tree_reduce(vectors)`` — ring and tree are
    interchangeable without perturbing a single ULP, which is what lets
    the backends switch collectives per buffer size. Returns a list of P
    result vectors (all equal; separate arrays, as separate ranks would
    hold after the allgather).
    """
    if not vectors:
        raise ValueError("need at least one vector")
    shape = vectors[0].shape
    for v in vectors:
        if v.shape != shape:
            raise ValueError("all vectors must have the same shape")
    p = len(vectors)
    if p == 1:
        return [np.array(vectors[0], copy=True)]

    flats = [np.asarray(v).reshape(-1) for v in vectors]
    n = flats[0].size
    bounds = shard_bounds(n, p)
    total = np.empty(n, dtype=np.result_type(*[f.dtype for f in flats]))
    for s in range(p):
        lo, hi = bounds[s], bounds[s + 1]
        if hi > lo:
            tree_reduce_into([f[lo:hi] for f in flats], total[lo:hi])
    return [total.reshape(shape).copy() for _ in range(p)]


def ring_allreduce_cost(link: LinkModel, nbytes: int, p: int) -> float:
    """Bandwidth-optimal ring allreduce: 2(P-1) steps of n/P-byte messages.

    Total bytes moved per rank ~ 2n(P-1)/P (asymptotically 2n, independent
    of P) at the price of 2(P-1) latency terms — the classic tree-vs-ring
    trade: rings win for large n, trees for small n / large P.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 1:
        return 0.0
    return 2 * (p - 1) * link.cost(nbytes / p)

