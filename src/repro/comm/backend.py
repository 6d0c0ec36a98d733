"""Backend selection for the rank runtimes.

One knob — ``backend="threads" | "processes"`` — chooses the execution
substrate for every rank-program consumer (the message-passing trainers,
the KNL chip-partition trainer, the Hogwild runner, the CLI). Both
communicators expose the same surface and, because their rank contexts
share :class:`repro.comm.runtime.RankContextBase`, the same collective
association order: switching backends changes wall-clock behaviour, never
numerics.
"""

from __future__ import annotations

from typing import Any

from repro.comm.collectives import COLLECTIVES, validate_collective
from repro.comm.mp_runtime import fork_available, MultiprocessCommunicator
from repro.comm.runtime import InProcessCommunicator
from repro.comm.shm_transport import TRANSPORTS, validate_transport

__all__ = [
    "BACKENDS",
    "TRANSPORTS",
    "COLLECTIVES",
    "validate_backend",
    "validate_transport",
    "validate_collective",
    "make_communicator",
]

#: The recognised execution backends, in default-preference order.
BACKENDS = ("threads", "processes")


def validate_backend(backend: str) -> str:
    """Return ``backend`` or raise a ValueError naming the valid choices."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def make_communicator(size: int, backend: str = "threads", **kwargs: Any):
    """Build the communicator for ``backend`` with uniform kwargs.

    ``kwargs`` are the common knobs (``timeout``, ``faults``,
    ``max_retries``, ``retry_backoff``, ``trace``, ``transport``,
    ``collective``) plus the process-backend ring depth ``shm_slots``.
    ``transport`` selects how the process backend moves message bytes —
    ``"shm"`` (zero-copy slot rings, the default) or ``"queue"`` (pickle
    through pipes); the thread backend accepts the knob for interface
    parity but always passes payloads by reference. ``collective`` picks
    the allreduce schedule ("tree"/"ring"), honoured identically by
    either backend. ``None`` for ``transport`` or ``pool`` means the
    backend's own default; a knob the backend lacks is refused by its
    constructor.

    ``pool`` (a :class:`repro.pool.WorkerPool`) attaches the process
    backend to persistent pre-forked workers: ``run`` then dispatches to
    that pool instead of a private one built and closed per call —
    amortized spin-up, identical numerics. A pool of the other backend
    raises rather than silently running unpooled; a ``threads`` pool holds
    no workers, so thread ranks are spawned per ``run`` with or without it.
    """
    validate_backend(backend)
    if kwargs.get("transport", "") is None:
        kwargs.pop("transport")  # None = the backend's own default
    pool = kwargs.pop("pool", None)
    if pool is not None and pool.backend != backend:
        raise ValueError(
            f"backend={backend!r} cannot run on a backend={pool.backend!r} pool; "
            "pass the pool's backend or leave the pool out"
        )
    if backend == "processes":
        if not fork_available():  # pragma: no cover - POSIX always has fork
            raise RuntimeError(
                "backend='processes' requires the fork start method; "
                "this platform only offers "
                f"{__import__('multiprocessing').get_all_start_methods()}"
            )
        return MultiprocessCommunicator(size, pool=pool, **kwargs)
    return InProcessCommunicator(size, **kwargs)  # a threads pool: no workers to attach
