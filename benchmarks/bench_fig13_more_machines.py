"""Figure 13 — the benefits of using more machines and more data.

Weak scaling with Algorithm 4 (KNL Sync EASGD): every node holds a full
copy of the CIFAR-like dataset, per-node batch fixed at 64 (Section 7.1's
protocol), node counts 1/2/4/8. The dataset is deliberately *hard*
(high noise): the weak-scaling benefit exists exactly in the
noise-dominated regime where extra replicas buy convergence that outweighs
the extra fabric traffic. Two readings, both asserted:

- horizontal line: a fixed accuracy target is reached in less simulated
  time with more machines;
- vertical line: at a fixed simulated time, more machines mean lower
  error (higher accuracy).
"""

from conftest import run_once

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel, KnlPlatform
from repro.data import make_cifar_like, standardize, standardize_like
from repro.harness.analysis import accuracy_at_time
from repro.knl import KnlSyncEASGDTrainer
from repro.nn.models import build_alexnet_mini
from repro.nn.spec import ALEXNET

NODE_COUNTS = (1, 2, 4, 8)
ITERATIONS = 160
TARGET = 0.95


def bench_fig13_more_machines(benchmark):
    """Regenerate the Figure 13 series."""

    train, test = make_cifar_like(n_train=4096, n_test=1024, seed=103, difficulty=3.2)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    cfg = TrainerConfig(
        batch_size=64, lr=0.04, rho=2.0, seed=0, eval_every=20, eval_samples=256
    )

    def experiment():
        out = {}
        for k in NODE_COUNTS:
            trainer = KnlSyncEASGDTrainer(
                build_alexnet_mini(seed=9),
                train,
                test,
                KnlPlatform(num_nodes=k, seed=0),
                cfg,
                CostModel.from_spec(ALEXNET),
            )
            out[k] = trainer.train(ITERATIONS)
        return out

    runs = run_once(benchmark, experiment)

    # Vertical-line reading: accuracy at the earliest common finish time.
    t_cut = min(res.sim_time for res in runs.values())

    print("\n=== Figure 13: benefits of more machines and more data ===")
    for k, res in runs.items():
        t = res.time_to_accuracy(TARGET)
        print(
            f"  {k} node(s): time-to-{TARGET}="
            f"{'%8.2fs' % t if t is not None else '   (not reached)'}  "
            f"acc@{t_cut:.1f}s={accuracy_at_time(res, t_cut):.3f}  final={res.final_accuracy:.3f}"
        )

    # Horizontal line: 8 nodes reach the hard target no later than 1 node.
    t1 = runs[1].time_to_accuracy(TARGET)
    t8 = runs[8].time_to_accuracy(TARGET)
    assert t8 is not None
    if t1 is not None:
        assert t8 <= t1
    # Vertical line: at the common cut, 8 nodes are at least as accurate.
    assert accuracy_at_time(runs[8], t_cut) >= accuracy_at_time(runs[1], t_cut)
