"""Load generation: arrival processes and closed/open-loop drivers.

Two arrival processes cover the traffic shapes the serving tier must
survive:

- **Poisson** — memoryless steady-state traffic at a target rate; the
  baseline every queueing result is stated against.
- **On/off bursty** — a Markov-modulated Poisson process alternating
  exponentially-distributed ON bursts (arrivals at ``rate_on``) with
  silent OFF gaps.  Bursts are what actually stress adaptive batching:
  the batcher must grow to the cap inside a burst and drain small
  batches at the latency deadline between bursts.

Two driver disciplines replay them against a live front-end:

- **Open loop** (:class:`OpenLoopLoadGen`) — arrivals fire on schedule
  regardless of completions, so queue depth is unbounded; this is the
  discipline that finds the saturation throughput.
- **Closed loop** (:class:`ClosedLoopLoadGen`) — N clients each wait for
  their response, think, and submit again, so offered load self-limits
  at ``clients / (latency + think)``; this is what "many concurrent
  users" actually looks like.

All randomness is seeded NumPy ``default_rng`` — a schedule is a pure
function of its parameters, so plans built on it are reproducible.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List

import numpy as np

__all__ = [
    "poisson_arrivals",
    "onoff_arrivals",
    "OpenLoopLoadGen",
    "ClosedLoopLoadGen",
]


def poisson_arrivals(n: int, rate: float, seed: int = 0) -> np.ndarray:
    """``n`` arrival times of a Poisson process at ``rate`` req/s."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def onoff_arrivals(
    n: int,
    rate_on: float,
    on_mean: float,
    off_mean: float,
    seed: int = 0,
) -> np.ndarray:
    """``n`` arrivals from an exponential ON/OFF burst process.

    ON periods (mean length ``on_mean`` seconds) carry Poisson arrivals
    at ``rate_on``; OFF periods (mean ``off_mean``) carry none.  The
    long-run average rate is ``rate_on * on_mean / (on_mean + off_mean)``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if rate_on <= 0 or on_mean <= 0 or off_mean <= 0:
        raise ValueError("rate_on, on_mean and off_mean must be positive")
    rng = np.random.default_rng(seed)
    out: List[float] = []
    t = 0.0
    while len(out) < n:
        on_end = t + rng.exponential(on_mean)
        while len(out) < n:
            t += rng.exponential(1.0 / rate_on)
            if t > on_end:
                break
            out.append(t)
        t = on_end + rng.exponential(off_mean)
    return np.asarray(out[:n])


class OpenLoopLoadGen:
    """Replays an arrival schedule into a front-end on the wall clock.

    Arrivals are scheduled, not gated on completions — the generator
    never slows down because the server is behind, which is exactly the
    property that exposes saturation.
    """

    def __init__(self, arrivals: np.ndarray) -> None:
        self.arrivals = np.array(arrivals, dtype=np.float64)

    def run(self, frontend: Any, make_request: Callable[[int], np.ndarray]) -> List[Any]:
        """Submit every request at its scheduled offset; wait for all.

        A request arrives when it was due, not when the generator got to
        it: a late submit (a slow ``make_request``, a descheduled thread)
        counts toward its latency instead of hiding from the tail.
        """
        start = time.monotonic()
        pending = []
        for i, at in enumerate(self.arrivals):
            due = start + float(at)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            pending.append(frontend.submit(make_request(i), due=due))
        for p in pending:
            p.wait()
        return pending


class ClosedLoopLoadGen:
    """``clients`` synchronous users in a submit → wait → think loop.

    The clients issue ``requests`` requests between them, each request
    index ``0..requests-1`` once: every client takes ``requests //
    clients`` consecutive indices and the first ``requests % clients``
    clients one more.  Think times are exponential with mean
    ``think_mean`` (0 disables thinking, giving the classic
    latency-limited closed loop).
    """

    def __init__(
        self,
        clients: int,
        requests: int,
        think_mean: float = 0.0,
        seed: int = 0,
    ) -> None:
        if clients < 1 or requests < 1:
            raise ValueError("clients and requests must be >= 1")
        if think_mean < 0:
            raise ValueError("think_mean must be >= 0")
        self.clients = clients
        self.requests = requests
        self.think_mean = think_mean
        self.seed = seed

    def run(self, frontend: Any, make_request: Callable[[int], np.ndarray]) -> List[Any]:
        """Run all clients to completion; returns every finished request."""
        done: List[Any] = []
        done_lock = threading.Lock()
        errors: List[BaseException] = []
        share, extra = divmod(self.requests, self.clients)

        def client(cid: int) -> None:
            rng = np.random.default_rng(self.seed + cid)
            first = cid * share + min(cid, extra)
            try:
                for i in range(first, first + share + (cid < extra)):
                    req = frontend.submit(make_request(i))
                    req.wait()
                    with done_lock:
                        done.append(req)
                    if self.think_mean > 0:
                        time.sleep(float(rng.exponential(self.think_mean)))
            except BaseException as exc:  # pragma: no cover - ferried to caller
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(self.clients)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise errors[0]
        return done
