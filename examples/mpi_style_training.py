#!/usr/bin/env python
"""Message-passing Sync EASGD with real threads (the artifact's mpi_easgd).

Runs Algorithm 4 over the in-process MPI-style runtime: one thread per
rank, genuine send/recv through inboxes, binomial-tree reduce/broadcast
built on point-to-point messages. The same binomial association order as
the simulator means the trajectory matches the simulated Sync EASGD
trainer bit for bit — this script verifies that live.

Run:  python examples/mpi_style_training.py
"""

import numpy as np

from repro.algorithms import TrainerConfig
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.data import make_mnist_like, standardize, standardize_like
from repro.nn import build_lenet
from repro.nn.spec import LENET

RANKS = 4
ITERATIONS = 60


def main() -> None:
    train, test = make_mnist_like(n_train=2048, n_test=512, seed=17, difficulty=1.2)
    mean, std = standardize(train)
    standardize_like(test, mean, std)

    # --- real message passing across threads ------------------------------
    print(f"running Sync EASGD over {RANKS} message-passing ranks...")
    mpi = run_mpi_sync_easgd(
        build_lenet(seed=3),
        train,
        ranks=RANKS,
        iterations=ITERATIONS,
        batch_size=32,
        lr=0.05,
        rho=2.0,
        seed=0,
    )
    eval_net = build_lenet(seed=3)
    eval_net.set_params(mpi.center)
    acc_mpi = eval_net.evaluate(test.images, test.labels)
    print(f"message-passing center accuracy: {acc_mpi:.3f}")

    # --- the simulated trainer, same ingredients ---------------------------
    cfg = TrainerConfig(batch_size=32, lr=0.05, rho=2.0, seed=0, eval_every=ITERATIONS)
    sim = SyncEASGDTrainer(
        build_lenet(seed=3),
        train,
        test,
        GpuPlatform(num_gpus=RANKS, seed=0),
        cfg,
        CostModel.from_spec(LENET),
        variant=3,
    )
    res = sim.train(ITERATIONS)
    print(f"simulated trainer accuracy     : {res.final_accuracy:.3f} "
          f"(simulated time {res.sim_time:.2f}s)")

    match = acc_mpi == res.final_accuracy
    print(f"\ntrajectories bitwise identical: {match}")
    assert match, "the MPI port diverged from the simulated trainer"
    print("The simulator's tree association order is exactly what the "
          "message-passing schedule computes — one algorithm, two substrates.")


if __name__ == "__main__":
    main()
