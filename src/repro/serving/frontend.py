"""The serving front-end: queue, adaptive batcher, staleness enforcement.

One server thread owns the model replica.  Clients :meth:`submit`
requests from any thread; the server coalesces whatever has queued into
one packed forward pass under an adaptive admission rule (grow toward
``batch_cap`` while the queue is dense, start no later than the oldest
request's ``max_wait`` deadline).  Before each batch it settles which
weights to serve:

- ``refresh_policy="fresh"`` — reload whenever a newer snapshot exists;
  staleness is then bounded by the snapshotter's publish cadence.
- ``refresh_policy="lazy"`` — serve the cached snapshot until its
  staleness (training steps behind the trainer heartbeat) exceeds
  ``max_staleness_steps``, then force a refresh.  This is the
  staleness-bounded regime: weight uploads cost a memcpy + ``set_params``
  per refresh, and the bound caps how much consistency that saving may
  burn.

Every batch emits a ``service`` trace event (``op="serving/batch"``,
``value`` = staleness served, ``round`` = batch size, ``iteration`` =
snapshot step) so the invariants in :mod:`repro.trace.check` can audit
the run: single-server batches never overlap, sizes never exceed the
cap, and served staleness never exceeds the bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
import threading
import time
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

from repro.serving.snapshot import SnapshotReader
from repro.trace.events import MASTER, Trace, TraceEvent

__all__ = ["ServedRequest", "ServeStats", "ServingFrontend"]


class ServedRequest:
    """One in-flight inference request (a minimal future)."""

    __slots__ = ("x", "arrival", "result", "step", "staleness", "finish", "_done")

    def __init__(self, x: np.ndarray, arrival: float) -> None:
        self.x = x
        self.arrival = arrival
        self.result: Optional[np.ndarray] = None
        self.step = -1  # snapshot step the response was computed from
        self.staleness = -1
        self.finish = float("nan")
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class ServeStats:
    """Aggregate serving metrics (latencies in seconds)."""

    served: int = 0
    batches: int = 0
    refreshes: int = 0
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    mean_batch: float = 0.0
    max_batch: int = 0
    throughput: float = 0.0
    max_staleness: int = 0
    mean_staleness: float = 0.0
    latencies: List[float] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "served": self.served,
            "batches": self.batches,
            "refreshes": self.refreshes,
            "p50_latency_ms": self.p50_latency * 1e3,
            "p99_latency_ms": self.p99_latency * 1e3,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
            "throughput_rps": self.throughput,
            "max_staleness": self.max_staleness,
            "mean_staleness": self.mean_staleness,
        }


class ServingFrontend:
    """Adaptive micro-batching server over one snapshot reader.

    ``predict`` maps a packed ``(B, d)`` input batch to outputs;
    ``load_params`` installs a packed weight vector into the replica the
    predictions run on (for a :class:`repro.nn.network.Network` clone,
    ``net.set_params``).  Use :meth:`for_network` for that common case.
    The replica must belong to the serving tier alone — never the live
    training network.
    """

    def __init__(
        self,
        predict: Callable[[np.ndarray], np.ndarray],
        load_params: Callable[[np.ndarray], None],
        reader: SnapshotReader,
        batch_cap: int = 8,
        max_wait: float = 0.002,
        max_staleness_steps: Optional[int] = None,
        refresh_policy: str = "fresh",
        trace: Optional[Trace] = None,
    ) -> None:
        if batch_cap < 1:
            raise ValueError("batch_cap must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if refresh_policy not in ("fresh", "lazy"):
            raise ValueError(f"unknown refresh_policy {refresh_policy!r}")
        if max_staleness_steps is not None and max_staleness_steps < 0:
            raise ValueError("max_staleness_steps must be >= 0")
        self.predict = predict
        self.load_params = load_params
        self.reader = reader
        self.batch_cap = batch_cap
        self.max_wait = max_wait
        self.max_staleness_steps = max_staleness_steps
        self.refresh_policy = refresh_policy
        self.trace = trace
        self._queue: Deque[ServedRequest] = deque()
        self._cond = threading.Condition()
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        self._t0 = time.monotonic()
        self._loaded_version = -1
        self._batch_sizes: List[int] = []
        self._staleness: List[int] = []
        self._finished: List[ServedRequest] = []

    @classmethod
    def for_network(cls, net: Any, reader: SnapshotReader, **kwargs: Any) -> "ServingFrontend":
        """A front-end serving from a dedicated :class:`Network` replica."""
        return cls(
            predict=lambda x: net.forward(x, training=False),
            load_params=net.set_params,
            reader=reader,
            **kwargs,
        )

    # -- weight freshness --------------------------------------------------
    def _settle_weights(self) -> int:
        """Apply the refresh policy; returns the staleness being served."""
        reader = self.reader
        stale = reader.staleness()
        must = reader.params is None or stale < 0
        if not must:
            if self.refresh_policy == "fresh":
                must = reader.has_new()
            elif self.max_staleness_steps is not None:
                must = stale > self.max_staleness_steps
        if must:
            reader.refresh()
        if reader.loaded_version != self._loaded_version:
            self.load_params(reader.params)
            self._loaded_version = reader.loaded_version
        return reader.staleness()

    # -- synchronous core (also used directly by tests) --------------------
    def serve_batch(self, requests: List[ServedRequest]) -> None:
        """Settle weights, run one packed forward pass, finish requests."""
        t0 = time.monotonic() - self._t0
        stale = self._settle_weights()
        step = self.reader.loaded_step
        x = np.stack([r.x for r in requests])
        y = self.predict(x)
        t1 = time.monotonic() - self._t0
        for k, req in enumerate(requests):
            req.result = np.asarray(y[k])
            req.step = step
            req.staleness = stale
            req.finish = t1
            req._done.set()
        self._batch_sizes.append(len(requests))
        self._staleness.append(stale)
        self._finished.extend(requests)
        if self.trace is not None:
            # seq = batch index, round = batch size, iteration = snapshot
            # step served, value = staleness in training steps.
            self.trace.add(TraceEvent(
                "service", MASTER, t0, t1, op="serving/batch",
                nbytes=int(x.nbytes), seq=len(self._batch_sizes) - 1,
                round=len(requests), iteration=step, value=float(stale),
            ))

    # -- threaded operation ------------------------------------------------
    def submit(self, x: np.ndarray, due: Optional[float] = None) -> ServedRequest:
        """Enqueue one request; returns its future immediately. Its
        arrival is ``due`` (a ``time.monotonic()`` instant: when an open
        loop scheduled it, so its latency includes the generator's own
        lateness), else now."""
        arrival = time.monotonic() if due is None else due
        req = ServedRequest(np.asarray(x), arrival - self._t0)
        with self._cond:
            if self._stop:
                raise RuntimeError("frontend is stopped")
            self._queue.append(req)
            self._cond.notify_all()
        return req

    def start(self) -> "ServingFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(target=self._serve_loop, name="serving-frontend")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, then stop the server thread."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue:
                    return  # stopped and drained
                # Adaptive admission: grow toward the cap while requests
                # keep arriving, but start no later than the oldest
                # request's drain deadline.
                deadline = self._queue[0].arrival + self.max_wait
                while len(self._queue) < self.batch_cap and not self._stop:
                    wait = deadline - (time.monotonic() - self._t0)
                    if wait <= 0 or not self._cond.wait(wait):
                        break
                take = min(self.batch_cap, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
            self.serve_batch(batch)

    # -- reporting ---------------------------------------------------------
    def stats(self) -> ServeStats:
        """Aggregate metrics over everything served so far."""
        reqs = self._finished
        if not reqs:
            return ServeStats(refreshes=self.reader.refreshes)
        lat = np.array([r.latency for r in reqs], dtype=np.float64)
        first = min(r.arrival for r in reqs)
        last = max(r.finish for r in reqs)
        span = max(last - first, 1e-12)
        sizes = self._batch_sizes
        return ServeStats(
            served=len(reqs),
            batches=len(sizes),
            refreshes=self.reader.refreshes,
            p50_latency=float(np.percentile(lat, 50)),
            p99_latency=float(np.percentile(lat, 99)),
            mean_batch=float(np.mean(sizes)),
            max_batch=int(max(sizes)),
            throughput=len(reqs) / span,
            max_staleness=int(max(self._staleness)),
            mean_staleness=float(np.mean(self._staleness)),
            latencies=[float(v) for v in lat],
        )
