"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these isolate each ingredient of the codesign so its
individual contribution is measurable:

- tree vs flat (round-robin-style) collectives: the Theta(log P) vs
  Theta(P) term of Section 5.1;
- compute/communication overlap (Sync EASGD3 vs 2): the step the paper
  credits with its final 1.1x;
- elastic compute/exchange overlap in the async family;
- low-precision gradients (Section 3.4's reserved future work) on top of
  Sync SGD: message bytes vs trajectory quality.
"""


from conftest import run_once

from repro.algorithms.registry import make_trainer
from repro.comm.alphabeta import CRAY_ARIES
from repro.comm.collectives import flat_sequential_cost, tree_reduce_cost
from repro.harness import run_method
from repro.nn.spec import GOOGLENET


def bench_ablation_tree_vs_flat(benchmark):
    """Theta(log P) vs Theta(P): crossing 1024 ranks, the tree wins ~100x."""

    def sweep():
        out = {}
        for p in (2, 8, 64, 1024):
            out[p] = (
                tree_reduce_cost(CRAY_ARIES, GOOGLENET.nbytes, p),
                flat_sequential_cost(CRAY_ARIES, GOOGLENET.nbytes, p),
            )
        return out

    costs = benchmark(sweep)
    print("\n=== Ablation: tree vs flat reduction (GoogleNet weights, Aries) ===")
    for p, (tree, flat) in costs.items():
        print(f"  P={p:5d}: tree={tree * 1e3:9.2f} ms  flat={flat * 1e3:10.2f} ms  "
              f"({flat / tree:6.1f}x)")
        assert tree <= flat
    assert costs[1024][1] / costs[1024][0] > 50  # ~P/logP


def bench_ablation_sync3_overlap(benchmark, mnist_spec):
    """Sync EASGD3's overlap vs Sync EASGD2 (no overlap): the paper's 1.1x."""

    def experiment():
        return {
            "no-overlap (EASGD2)": run_method(mnist_spec, "sync-easgd2", iterations=100),
            "overlap (EASGD3)": run_method(mnist_spec, "sync-easgd3", iterations=100),
        }

    runs = run_once(benchmark, experiment)
    t2 = runs["no-overlap (EASGD2)"].sim_time
    t3 = runs["overlap (EASGD3)"].sim_time
    print("\n=== Ablation: Sync EASGD3 overlap ===\n"
          f"  EASGD2 {t2:.3f}s -> EASGD3 {t3:.3f}s  ({t2 / t3:.2f}x; paper: 1.1x)")
    assert 1.0 < t2 / t3 < 1.6


def bench_ablation_elastic_overlap(benchmark, mnist_spec):
    """The async EASGD worker overlaps its pass with the exchange; an SGD
    worker cannot. Same interactions, different clocks."""

    def experiment():
        return {
            "async-sgd": run_method(mnist_spec, "async-sgd", iterations=200),
            "async-easgd": run_method(mnist_spec, "async-easgd", iterations=200),
        }

    runs = run_once(benchmark, experiment)
    t_sgd = runs["async-sgd"].sim_time
    t_easgd = runs["async-easgd"].sim_time
    print("\n=== Ablation: elastic compute/exchange overlap ===\n"
          f"  async-sgd {t_sgd:.3f}s vs async-easgd {t_easgd:.3f}s "
          f"({t_sgd / t_easgd:.2f}x)")
    assert t_easgd < t_sgd


def bench_ablation_gradient_quantization(benchmark, mnist_spec):
    """Section 3.4 extension: 4-bit gradients shrink the wire volume 8x;
    the stochastic quantizer keeps the trajectory close on this task."""

    def experiment():
        full = run_method(mnist_spec, "sync-sgd", iterations=150)
        q4 = run_method(mnist_spec, "sync-sgd", iterations=150, quantize_bits=4)
        return full, q4

    full, q4 = run_once(benchmark, experiment)
    print("\n=== Ablation: low-precision gradient communication ===")
    print(f"  full precision: sim time={full.sim_time:.3f}s  final acc={full.final_accuracy:.3f}")
    print(f"  4-bit         : sim time={q4.sim_time:.3f}s  final acc={q4.final_accuracy:.3f}")
    assert q4.sim_time < full.sim_time  # fewer bytes on the wire
    assert q4.final_accuracy > 0.8  # and it still trains


def bench_ablation_pipelined_transfers(benchmark):
    """NCCL-style chunk pipelining of multi-hop broadcasts: wire-speed
    instead of depth x bytes for big buffers."""
    from repro.comm.alphabeta import PCIE_SWITCH_P2P
    from repro.comm.collectives import tree_bcast_cost
    from repro.comm.pipelining import optimal_chunks, pipelined_tree_bcast_cost
    from repro.nn.spec import ALEXNET, LENET

    def costs():
        out = {}
        for spec in (LENET, ALEXNET):
            plain = tree_bcast_cost(PCIE_SWITCH_P2P, spec.nbytes, 8)
            piped = pipelined_tree_bcast_cost(PCIE_SWITCH_P2P, spec.nbytes, 8)
            out[spec.name] = (plain, piped, optimal_chunks(PCIE_SWITCH_P2P, spec.nbytes, 3))
        return out

    results = benchmark(costs)
    print("\n=== Ablation: pipelined tree broadcast (8 GPUs over the switch) ===")
    for name, (plain, piped, chunks) in results.items():
        print(f"  {name:8s}: plain={plain * 1e3:7.2f} ms  pipelined={piped * 1e3:7.2f} ms "
              f"({plain / piped:.2f}x, C*={chunks})")
        assert piped <= plain
    # Big buffers gain a lot; tiny ones gain little.
    assert results["AlexNet"][0] / results["AlexNet"][1] > 1.5


def bench_ablation_knl_cluster_modes(benchmark, cifar_spec):
    """Section 2.1's cluster modes: SNC-4 beats quadrant beats all-to-all
    for the partitioned workload (NUMA-aware pinning pays)."""
    from repro.algorithms import TrainerConfig
    from repro.cluster import CostModel
    from repro.knl import ChipPartitionTrainer, ClusterMode, KnlChip
    from repro.knl.partition import CIFAR_COPY_BYTES
    from repro.nn.models import build_alexnet_mini
    from repro.nn.spec import ALEXNET

    cfg = TrainerConfig(batch_size=32, lr=0.04, rho=2.0, eval_every=25)

    def iter_times():
        out = {}
        for mode in (ClusterMode.ALL_TO_ALL, ClusterMode.QUADRANT, ClusterMode.SNC4):
            trainer = ChipPartitionTrainer(
                build_alexnet_mini(seed=9),
                cifar_spec.train_set,
                cifar_spec.test_set,
                cfg,
                parts=4,
                chip=KnlChip(cluster_mode=mode),
                cost_model=CostModel.from_spec(ALEXNET),
                data_bytes=CIFAR_COPY_BYTES,
            )
            out[mode.value] = trainer._iter_time()
        return out

    times = benchmark(iter_times)
    print("\n=== Ablation: KNL cluster modes (4-part partitioned AlexNet) ===")
    for mode, t in times.items():
        print(f"  {mode:6s}: {t * 1e3:7.1f} ms/round")
    assert times["snc-4"] < times["quad"] < times["a2a"]


def bench_ablation_fault_tolerance(benchmark, mnist_spec):
    """The cloud motivation: async EASGD keeps training through a
    fail-stop worker loss; the survivors' throughput carries the run."""
    from repro.algorithms import AsyncEASGDTrainer

    def experiment():
        healthy = make_trainer(
            "async-easgd",
            mnist_spec.model_builder(),
            mnist_spec.train_set,
            mnist_spec.test_set,
            mnist_spec.make_platform(),
            mnist_spec.config,
            mnist_spec.cost_model,
        ).train(300)
        degraded_trainer = AsyncEASGDTrainer(
            mnist_spec.model_builder(),
            mnist_spec.train_set,
            mnist_spec.test_set,
            mnist_spec.make_platform(),
            mnist_spec.config,
            mnist_spec.cost_model,
            failures={3: 0.02},  # one of four workers dies almost immediately
        )
        degraded = degraded_trainer.train(300)
        return healthy, degraded

    healthy, degraded = run_once(benchmark, experiment)
    print("\n=== Ablation: fail-stop worker loss (Async EASGD, 4 workers) ===")
    print(f"  healthy : acc={healthy.final_accuracy:.3f} sim time={healthy.sim_time:.3f}s")
    print(f"  1 dead  : acc={degraded.final_accuracy:.3f} sim time={degraded.sim_time:.3f}s "
          f"(dropped {degraded.extras['failed_worker_events_dropped']:.0f} events)")
    assert degraded.final_accuracy > 0.85  # still converges
    # Fewer workers -> same interaction count takes longer wall-clock.
    assert degraded.sim_time >= healthy.sim_time * 0.95
