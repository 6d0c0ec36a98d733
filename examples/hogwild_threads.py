#!/usr/bin/env python
"""Real lock-free Hogwild EASGD on shared memory (Section 5.1 / 3.2).

Unlike the simulated trainers, this example runs genuine Python threads
racing on one shared center (NumPy kernels release the GIL), each running
the same registry row the simulator reads, through the one asynchronous
rank program (``run_mpi_ps``; its ``ranks`` counts the center's slot). It
compares three rows at equal update counts:

- ``async-easgd``: the master's lock, EASGD rule (the classic parameter
  server; the workers take turns at the center);
- ``hogwild-easgd``: lock-free master, EASGD rule (the paper's Hogwild EASGD);
- ``hogwild-sgd``: lock-free master, SGD rule (classic Hogwild).

The point the paper proves for the convex case: removing the lock does not
break convergence, and it removes the master's serialization.

Run:  python examples/hogwild_threads.py
"""

from time import perf_counter

from repro.algorithms.ps_runner import run_mpi_ps
from repro.data import make_mnist_like, standardize, standardize_like
from repro.nn import build_mlp
from repro.util.tables import TextTable

WORKERS = 4
STEPS = 60


def main() -> None:
    train, test = make_mnist_like(n_train=2048, n_test=512, seed=8, difficulty=1.2)
    mean, std = standardize(train)
    standardize_like(test, mean, std)

    table = TextTable(["method", "updates", "wall time", "test accuracy"])
    for method in ("async-easgd", "hogwild-easgd", "hogwild-sgd"):
        net = build_mlp(seed=11)
        start = perf_counter()
        result = run_mpi_ps(
            method,
            net,
            train,
            ranks=WORKERS + 1,
            iterations=STEPS,
            batch_size=32,
            lr=0.03 if method == "hogwild-sgd" else 0.05,
            rho=2.0,
            seed=0,
        )
        wall = perf_counter() - start
        net.set_params(result.center)
        acc = net.evaluate(test.images, test.labels)
        updates = WORKERS * STEPS
        table.add_row([method, updates, f"{wall:.2f}s", f"{acc:.3f}"])
        print(f"ran {method}: {updates} updates in {wall:.2f}s wall, accuracy {acc:.3f}")

    print("\nsummary:")
    print(table.render())
    print("\nAll three converge — the lock is a throughput tax, not a "
          "correctness requirement (the paper's Hogwild EASGD claim).")


if __name__ == "__main__":
    main()
