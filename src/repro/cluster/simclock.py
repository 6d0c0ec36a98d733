"""Simulated time: a deterministic event queue.

The asynchronous trainers are discrete-event simulations: each "worker
finished its pass" is an event; the master's service discipline (FCFS with a
lock, or lock-free) decides how arrivals turn into weight updates. Ties are
broken by an insertion sequence number so identical timestamps never make
the run order depend on heap internals — determinism is load-bearing for
the reproducibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import heapq
from typing import Any, List

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True, order=True)
class Event:
    """A timestamped event; payload excluded from ordering."""

    time: float
    seq: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of events with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._next = 0

    def push(self, time: float, payload: Any = None) -> Event:
        """Schedule a payload at an absolute simulated time."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time, self._next, payload)
        self._next += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (FIFO among ties)."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def getstate(self) -> dict:
        """Snapshot pending events and the tie-break counter position.

        The heap is stored as plain ``(time, seq, payload)`` tuples in
        heap order; payloads must themselves be picklable (every trainer
        payload is a tuple of ints/floats/strings).
        """
        return {
            "next": self._next,
            "heap": [(e.time, e.seq, e.payload) for e in self._heap],
        }

    def setstate(self, state: dict) -> None:
        """Restore a snapshot; subsequent pushes continue the sequence."""
        self._next = int(state["next"])
        self._heap = [Event(t, s, p) for (t, s, p) in state["heap"]]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
