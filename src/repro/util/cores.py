"""The cores of this process, leased to the rank cells that run in it.

A cell of ``n`` ranks owns ``n`` cores when there are cores to own: if
the ranks of every running cell, its own included, fit the usable cores
(the caller's ``os.sched_getaffinity``), it is granted ``n`` cores no
running cell holds; otherwise none, and its ranks share the full mask.
Exclusive cores exist only then, and pinning two ranks to one core would
serialize them outright. A :class:`repro.pool.WorkerPool` cell and an
:class:`repro.comm.runtime.InProcessCommunicator` run both lease from
the one :data:`LEDGER`, so two running cells never pin to one core.
"""

from __future__ import annotations

import os
import threading
from typing import List, Set

__all__ = ["CoreLedger", "LEDGER"]


class CoreLedger:
    """Which usable cores the running cells of this process own."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ranks = 0  # ranks of the running cells, pinned or not
        self._held: Set[int] = set()  # cores a running cell owns

    def lease(self, nranks: int) -> List[int]:
        """Start a cell of ``nranks``: the cores it owns, one per rank in
        core order, or ``[]`` (the full mask). Every lease is released."""
        pinnable = hasattr(os, "sched_setaffinity")
        usable = sorted(os.sched_getaffinity(0)) if pinnable else []
        with self._lock:
            self._ranks += nranks
            if self._ranks > len(usable):
                return []
            # At least nranks are free: the held cores belong to the other
            # running cells' ranks, which number len(usable) - nranks at most.
            cores = [core for core in usable if core not in self._held][:nranks]
            self._held.update(cores)
            return cores

    def release(self, nranks: int, cores: List[int]) -> None:
        """End a cell :meth:`lease` gave ``cores``."""
        with self._lock:
            self._ranks -= nranks
            self._held.difference_update(cores)


#: The ledger of this process. A forked child is a process of its own:
#: its ledger starts empty, whatever cells its parent was running.
LEDGER = CoreLedger()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=LEDGER.__init__)
