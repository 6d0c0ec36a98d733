"""Backend selection for the rank runtimes.

One knob — ``backend="threads" | "processes"`` — chooses the execution
substrate for every rank-program consumer (the message-passing trainers,
the KNL chip-partition trainer, ``knl --backend``). Both
communicators expose the same surface and, because their rank contexts
share :class:`repro.comm.runtime.RankContextBase`, the same collective
association order: switching backends changes wall-clock behaviour, never
numerics. Each backend has exactly one fabric: thread ranks pass payloads
by reference through ``queue.SimpleQueue`` inboxes, process ranks move bytes
through shared memory (:mod:`repro.comm.shm_transport`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.comm.mp_runtime import fork_available, MultiprocessCommunicator
from repro.comm.runtime import InProcessCommunicator

__all__ = [
    "BACKENDS",
    "validate_backend",
    "make_communicator",
]

#: The recognised execution backends, in default-preference order.
BACKENDS = ("threads", "processes")


def validate_backend(backend: str) -> str:
    """Return ``backend`` or raise a ValueError naming the valid choices."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def make_communicator(
    size: int, backend: str = "threads", transport: Optional[str] = None, **kwargs: Any
):
    """Build the communicator for ``backend`` with uniform kwargs.

    ``kwargs`` are the common knobs (``timeout``, ``faults``, ``trace``,
    ``collective``). ``collective`` picks the allreduce schedule
    ("tree"/"ring"), honoured identically by either backend; a knob the
    backend lacks is refused by its constructor.

    ``transport`` is a compatibility argument and selects nothing: the
    queue transport was removed, so ``None`` and ``"shm"`` (the one
    process fabric) are accepted and anything else raises a ValueError.
    The five ``run_mpi_*`` entry points forward theirs here.

    ``pool`` (a :class:`repro.pool.WorkerPool`) attaches the process
    backend to persistent pre-forked workers: ``run`` then dispatches to
    that pool instead of a private one built and closed per call —
    amortized spin-up, identical numerics. A pool's workers are processes,
    so ``backend="threads"`` with a pool raises rather than silently
    running unpooled.
    """
    validate_backend(backend)
    if transport not in (None, "shm"):
        raise ValueError(
            f"transport={transport!r}: the queue transport was removed and shared "
            "memory is the only process fabric; pass transport=None (or 'shm')"
        )
    pool = kwargs.pop("pool", None)
    if pool is not None and backend != "processes":
        raise ValueError(
            f"backend={backend!r} cannot run on a WorkerPool, whose ranks are "
            "'processes'; pass backend='processes' or leave the pool out"
        )
    if backend == "processes":
        if not fork_available():  # pragma: no cover - POSIX always has fork
            raise RuntimeError(
                "backend='processes' requires the fork start method; "
                "this platform only offers "
                f"{__import__('multiprocessing').get_all_start_methods()}"
            )
        return MultiprocessCommunicator(size, pool=pool, **kwargs)
    return InProcessCommunicator(size, **kwargs)
