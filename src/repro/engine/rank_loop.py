"""Step sequencing for rank programs.

The message-passing runners (``run_mpi_*``) and the Hogwild runner do
not run one loop per *run* — they run one loop per *rank*. The step
sequencing those loops share (1-based iteration numbering, stamping the
rank context's ``trace_iteration`` so runtime-emitted events carry the
loop index, input validation) lives here so the rank programs keep no
private loop machinery of their own.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["rank_steps"]


def rank_steps(ctx, iterations: int) -> Iterator[int]:
    """Iterate a rank program's steps ``1..iterations``.

    Stamps ``ctx.trace_iteration`` before yielding each step so every
    message the runtime moves during the step is attributed to it.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    for t in range(1, iterations + 1):
        ctx.trace_iteration = t
        yield t
