"""Property tests for the sharded ring allreduce and its tree anchor.

Hypothesis drives the shapes the hand-written tests never quite reach:
ragged buffers (len % P != 0), buffers smaller than the group (len < P,
where some shards are empty), single-element groups, and adversarial
float values. The claims under test are the tentpole's correctness
contract:

* ``ring_allreduce`` is *bitwise* equal to ``tree_reduce`` for every P
  and every length — the ring is a reorganisation of the same
  stride-doubling association, not a numerically different reduction.
* ``tree_reduce_into`` equals ``tree_reduce`` while writing into a
  caller-owned output and leaving the inputs untouched.
* ``shard_bounds`` tiles the buffer exactly: monotone, gap-free,
  max shard size ceil(n / P).
* The threaded communicator's ring and tree allreduce paths both land
  on the tree digest on every rank (the runtime wiring preserves the
  association).
* ``emit_ring_allreduce`` conserves bytes at Theta(1) per-rank bandwidth
  and passes its own structural checks for arbitrary P and nbytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import (
    ring_allreduce,
    shard_bounds,
    tree_reduce,
    tree_reduce_into,
)
from repro.comm.runtime import InProcessCommunicator
from repro.trace import Trace
from repro.trace.check import (
    check_message_conservation,
    check_ring_bytes_per_rank,
    check_ring_message_bound,
    check_ring_round_bound,
)
from repro.trace.schedule import emit_ring_allreduce


def _vectors(p: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    # Wide magnitude spread makes float addition order-sensitive, so any
    # association drift between schedules shows up as a bit difference.
    scale = rng.choice([1e-6, 1.0, 1e6], size=(p, n))
    return [
        (rng.normal(size=n) * scale[i]).astype(np.float32).reshape(n)
        for i in range(p)
    ]


class TestShardBounds:
    @given(n=st.integers(0, 10_000), p=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_tiles_exactly(self, n, p):
        b = shard_bounds(n, p)
        assert len(b) == p + 1
        assert b[0] == 0 and b[-1] == n
        assert all(b[i] <= b[i + 1] for i in range(p))
        widths = [b[i + 1] - b[i] for i in range(p)]
        assert sum(widths) == n
        assert max(widths) <= -(-n // p) if n else True

    @given(n=st.integers(1, 100), p=st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_small_buffers_leave_empty_shards(self, n, p):
        widths = [
            hi - lo for lo, hi in zip(shard_bounds(n, p), shard_bounds(n, p)[1:])
        ]
        assert sum(1 for w in widths if w) == min(n, p)


class TestRingEqualsTree:
    @given(
        p=st.integers(1, 12),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_any_shape(self, p, n, seed):
        vectors = _vectors(p, n, seed)
        expected = tree_reduce(vectors)
        results = ring_allreduce(vectors)
        assert len(results) == p
        for out in results:
            np.testing.assert_array_equal(out, expected)

    @given(p=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_buffer_smaller_than_group(self, p, seed):
        # n < P: some ranks own empty shards and must still converge.
        n = max(p // 2, 1)
        vectors = _vectors(p, n, seed)
        for out in ring_allreduce(vectors):
            np.testing.assert_array_equal(out, tree_reduce(vectors))

    @given(p=st.integers(1, 8), n=st.integers(1, 64), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_inputs_never_mutated(self, p, n, seed):
        vectors = _vectors(p, n, seed)
        originals = [v.copy() for v in vectors]
        ring_allreduce(vectors)
        for v, o in zip(vectors, originals):
            np.testing.assert_array_equal(v, o)


class TestTreeReduceInto:
    @given(p=st.integers(1, 12), n=st.integers(1, 128), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_matches_tree_reduce(self, p, n, seed):
        vectors = _vectors(p, n, seed)
        out = np.empty(n, dtype=np.float32)
        tree_reduce_into(vectors, out)
        np.testing.assert_array_equal(out, tree_reduce(vectors))
        for v, o in zip(vectors, _vectors(p, n, seed)):
            np.testing.assert_array_equal(v, o)


class TestThreadedCommAllreduce:
    @given(
        p=st.integers(2, 4),
        n=st.integers(1, 64),
        collective=st.sampled_from(["tree", "ring"]),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_paths_share_one_digest(self, p, n, collective, seed):
        vectors = _vectors(p, n, seed)
        expected = tree_reduce(vectors)
        comm = InProcessCommunicator(p, collective=collective, timeout=30.0)
        results = comm.run(lambda ctx: ctx.allreduce(vectors[ctx.rank].copy()))
        for out in results:
            np.testing.assert_array_equal(out, expected)


class TestRingEmitterConservation:
    @given(
        p=st.integers(1, 16),
        nbytes=st.integers(0, 1 << 20),
        iteration=st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_theta_bytes_and_structure(self, p, nbytes, iteration):
        trace = Trace()
        trace.meta["ranks"] = p
        emit_ring_allreduce(
            trace, list(range(p)), 0.0, 1.0, nbytes=nbytes,
            tag=102, iteration=iteration,
        )
        check_message_conservation(trace)
        check_ring_message_bound(trace, p)
        check_ring_round_bound(trace, p)
        check_ring_bytes_per_rank(trace, p)
        sends = trace.sends()
        if p == 1:
            assert not sends
            return
        # Exact global conservation: both phases together move 2(P-1)*n.
        assert sum(e.nbytes for e in sends) == 2 * (p - 1) * nbytes
        assert len(sends) == 2 * p * (p - 1)
        # Theta(1) bandwidth per rank: nobody ships more than ~2n bytes.
        per_rank = {}
        for e in sends:
            per_rank[e.rank] = per_rank.get(e.rank, 0) + e.nbytes
        for sent in per_rank.values():
            assert sent <= 2 * (p - 1) * (-(-nbytes // p))

    def test_channels_unique_within_collective(self):
        trace = Trace()
        trace.meta["ranks"] = 4
        emit_ring_allreduce(trace, [0, 1, 2, 3], 0.0, 1.0, nbytes=4096, tag=7)
        channels = [e.channel() for e in trace.sends()]
        assert len(channels) == len(set(channels))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_ring_rejects_mismatched_shapes(p):
    vectors = [np.zeros(4, dtype=np.float32) for _ in range(p)]
    if p > 1:
        vectors[-1] = np.zeros(5, dtype=np.float32)
        with pytest.raises(ValueError):
            ring_allreduce(vectors)
    else:
        assert len(ring_allreduce(vectors)) == 1
