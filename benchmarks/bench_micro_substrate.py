"""Micro-benchmarks of the substrate hot paths.

These time the *simulator itself* (wall clock), not simulated seconds:
the NumPy conv engine, the deterministic tree reduction, the batch
sampler, the event queue, and real-thread Hogwild EASGD. Useful for
keeping the reproduction fast enough to iterate on.
"""

import numpy as np

from repro.algorithms.ps_runner import run_mpi_ps
from repro.cluster.simclock import EventQueue
from repro.comm.collectives import tree_reduce
from repro.data import BatchSampler, make_mnist_like
from repro.nn.models import build_lenet, build_mlp


def bench_lenet_forward_backward(benchmark):
    """One LeNet fwd+bwd pass on a batch of 64 (the inner loop of every
    experiment)."""
    net = build_lenet(seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, 64)
    benchmark(net.gradient, x, y)


def bench_lenet_inference(benchmark):
    """Inference-mode forward over 256 images (the evaluation path)."""
    net = build_lenet(seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(256, 1, 28, 28)).astype(np.float32)
    y = rng.integers(0, 10, 256)
    benchmark(net.evaluate, x, y)


def bench_tree_reduce_1mb(benchmark):
    """Deterministic binomial-tree sum of eight 1 MB float32 vectors."""
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=262_144).astype(np.float32) for _ in range(8)]
    result = benchmark(tree_reduce, vecs)
    np.testing.assert_allclose(result, np.sum(vecs, axis=0), rtol=1e-4, atol=1e-3)


def bench_batch_sampler(benchmark):
    """Drawing 100 random batches of 64."""
    train, _ = make_mnist_like(n_train=2048, n_test=64, seed=3)
    sampler = BatchSampler(train, 64, seed=0)

    def draw():
        for _ in range(100):
            sampler.next_batch()

    benchmark(draw)


def bench_event_queue_throughput(benchmark):
    """Push/pop 10k timestamped events (the async DES backbone)."""
    rng = np.random.default_rng(4)
    times = rng.random(10_000)

    def churn():
        q = EventQueue()
        for t in times:
            q.push(float(t), None)
        while q:
            q.pop()

    benchmark(churn)


def bench_hogwild_threads(benchmark):
    """Real 4-thread lock-free EASGD on shared memory (wall time)."""
    train, _ = make_mnist_like(n_train=512, n_test=64, seed=5, difficulty=0.8)
    net = build_mlp(seed=0)

    def run():
        return run_mpi_ps("hogwild-easgd", net, train, ranks=5, iterations=10,
                          batch_size=16)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    assert len(result.mean_losses) == 10
