"""Deterministic fault schedules for trainers and the in-process runtime.

A :class:`FaultPlan` is a declarative, seeded description of every
perturbation a run should suffer:

- **crash** — a worker/rank fail-stops at a simulated instant and
  (optionally) *rejoins* later by re-pulling the elastic center;
- **straggler** — a worker's compute is permanently slowed by a factor
  from some onset time on;
- **stall** — a transient slowdown window (e.g. a GC pause or a noisy
  neighbour) with a finite duration;
- **message drop / delay** — each message independently lost or late with
  a given probability;
- **lost message** — one (source, dest, tag) channel that never delivers,
  for forcing the deadlock-detection path.

Every probabilistic decision is a *pure function* of the plan seed and the
message identity (source, dest, tag, sequence number, attempt), computed
via :func:`repro.util.rng.derive_seed`. Decisions therefore do not depend
on call order or thread interleaving — two runs with the same plan make
identical drop/delay choices, which is what makes fault runs
bit-reproducible and lets the real-thread runtime share the same plan as
the discrete-event trainers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.util.rng import derive_seed

__all__ = ["FaultEvent", "FaultPlan"]

_TWO64 = float(2**64)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled perturbation of one worker/rank."""

    kind: str  # "crash" | "straggler" | "stall"
    worker: int
    time: float  # onset (simulated seconds)
    factor: float = 1.0  # slowdown multiplier (straggler/stall)
    duration: float = 0.0  # stall window length
    rejoin_at: Optional[float] = None  # crash only: when the worker returns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "time": self.time,
            "factor": self.factor,
            "duration": self.duration,
            "rejoin_at": self.rejoin_at,
        }


class FaultPlan:
    """A seeded, deterministic schedule of faults. Builders chain::

        plan = (FaultPlan(seed=7)
                .crash(1, at=0.5, rejoin_at=1.5)
                .straggler(2, factor=3.0)
                .drop_rate(0.05))
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._events: List[FaultEvent] = []
        self._drop_p = 0.0
        self._delay_p = 0.0
        self._delay_seconds = 0.0
        self._lost: set[Tuple[Any, Any, Any]] = set()

    # -- builders ------------------------------------------------------------
    def crash(self, worker: int, at: float, rejoin_at: Optional[float] = None) -> "FaultPlan":
        """Fail-stop ``worker`` at simulated time ``at``; optionally rejoin."""
        self._check_worker(worker)
        if at <= 0:
            raise ValueError(f"crash(worker={worker}): time must be positive, got {at!r}")
        if self.crash_time(worker) is not None:
            raise ValueError(f"crash(worker={worker}): worker already has a crash scheduled")
        if rejoin_at is not None and rejoin_at <= at:
            raise ValueError(
                f"crash(worker={worker}): rejoin_at ({rejoin_at!r}) must be after the crash ({at!r})"
            )
        self._events.append(FaultEvent("crash", worker, float(at), rejoin_at=rejoin_at))
        return self

    def straggler(self, worker: int, factor: float, at: float = 0.0) -> "FaultPlan":
        """Permanently slow ``worker``'s compute by ``factor`` from ``at`` on."""
        self._check_worker(worker)
        if factor < 1.0:
            raise ValueError(f"straggler(worker={worker}): factor must be >= 1, got {factor!r}")
        if at < 0:
            raise ValueError(f"straggler(worker={worker}): onset must be non-negative, got {at!r}")
        self._events.append(FaultEvent("straggler", worker, float(at), factor=float(factor)))
        return self

    def stall(self, worker: int, at: float, duration: float, factor: float = 20.0) -> "FaultPlan":
        """Transiently slow ``worker`` by ``factor`` during [at, at+duration)."""
        self._check_worker(worker)
        if at < 0:
            raise ValueError(f"stall(worker={worker}): onset must be non-negative, got {at!r}")
        if duration <= 0:
            raise ValueError(f"stall(worker={worker}): duration must be positive, got {duration!r}")
        if factor < 1.0:
            raise ValueError(f"stall(worker={worker}): factor must be >= 1, got {factor!r}")
        self._events.append(
            FaultEvent("stall", worker, float(at), factor=float(factor), duration=float(duration))
        )
        return self

    def drop_rate(self, p: float) -> "FaultPlan":
        """Drop each message delivery attempt independently with probability ``p``."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"drop_rate: p must be in [0, 1), got {p!r}")
        self._drop_p = float(p)
        return self

    def delay(self, p: float, seconds: float) -> "FaultPlan":
        """Delay each message independently with probability ``p`` by ``seconds``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"delay: p must be in [0, 1], got {p!r}")
        if seconds < 0:
            raise ValueError(f"delay: seconds must be non-negative, got {seconds!r}")
        self._delay_p = float(p)
        self._delay_seconds = float(seconds)
        return self

    def lose_message(self, source: Any, dest: Any, tag: Any) -> "FaultPlan":
        """Mark the (source, dest, tag) channel as lost-forever: nothing on it
        is ever delivered, no matter how many times it is retransmitted."""
        self._lost.add((source, dest, tag))
        return self

    @staticmethod
    def _check_worker(worker: int) -> None:
        if not isinstance(worker, (int,)) or isinstance(worker, bool) or worker < 0:
            raise ValueError(f"worker index must be a non-negative int, got {worker!r}")

    # -- queries used by trainers and the runtime --------------------------------
    def crash_time(self, worker: int) -> Optional[float]:
        for ev in self._events:
            if ev.kind == "crash" and ev.worker == worker:
                return ev.time
        return None

    def rejoin_time(self, worker: int) -> Optional[float]:
        for ev in self._events:
            if ev.kind == "crash" and ev.worker == worker:
                return ev.rejoin_at
        return None

    def is_dead(self, worker: int, at: float) -> bool:
        """Is ``worker`` crashed (and not yet rejoined) at instant ``at``?"""
        crash = self.crash_time(worker)
        if crash is None or at <= crash:
            return False
        rejoin = self.rejoin_time(worker)
        return rejoin is None or at < rejoin

    def slowdown(self, worker: int, at: float) -> float:
        """Multiplicative compute-slowdown factor for ``worker`` at ``at``."""
        factor = 1.0
        for ev in self._events:
            if ev.worker != worker:
                continue
            if ev.kind == "straggler" and at >= ev.time:
                factor *= ev.factor
            elif ev.kind == "stall" and ev.time <= at < ev.time + ev.duration:
                factor *= ev.factor
        return factor

    def _unit(self, *names: Any) -> float:
        """Uniform [0,1) draw that is a pure function of (seed, names)."""
        return derive_seed(self.seed, *names) / _TWO64

    def should_drop(self, source: Any, dest: Any, tag: Any, seq: int, attempt: int = 0) -> bool:
        """Deterministic per-attempt drop decision for one message."""
        if self._drop_p <= 0.0:
            return False
        return self._unit("drop", source, dest, tag, seq, attempt) < self._drop_p

    def delay_seconds(self, source: Any, dest: Any, tag: Any, seq: int) -> float:
        """Deterministic per-message extra latency (0.0 for most messages)."""
        if self._delay_p <= 0.0 or self._delay_seconds <= 0.0:
            return 0.0
        if self._unit("delay", source, dest, tag, seq) < self._delay_p:
            return self._delay_seconds
        return 0.0

    def is_lost(self, source: Any, dest: Any, tag: Any) -> bool:
        return (source, dest, tag) in self._lost

    # -- introspection -----------------------------------------------------------
    def events(self) -> Tuple[FaultEvent, ...]:
        return tuple(self._events)

    @property
    def has_message_faults(self) -> bool:
        return self._drop_p > 0 or self._delay_p > 0 or bool(self._lost)

    @property
    def empty(self) -> bool:
        return not self._events and not self.has_message_faults

    def validate(self, num_workers: int) -> "FaultPlan":
        """Check every event's worker index against the actual worker count.

        Raises :class:`ValueError` naming the offending event, so a typo'd
        rank surfaces at construction time rather than as a silent no-op.
        """
        for ev in self._events:
            if not 0 <= ev.worker < num_workers:
                raise ValueError(
                    f"fault plan {ev.kind} event targets worker {ev.worker}, "
                    f"but only workers [0, {num_workers}) exist"
                )
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [ev.to_dict() for ev in self._events],
            "drop_p": self._drop_p,
            "delay_p": self._delay_p,
            "delay_seconds": self._delay_seconds,
            "lost": sorted(map(repr, self._lost)),
        }

    def fingerprint(self) -> str:
        """Stable textual identity — equal fingerprints mean identical plans."""
        return repr(self.to_dict())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self._events)
        return f"FaultPlan(seed={self.seed}, events={n}, drop_p={self._drop_p})"

    # -- parsing (the CLI's --faults option) --------------------------------------
    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact textual fault spec.

        Clauses are separated by ``;`` or ``,``::

            crash:W@T         worker W fail-stops at simulated time T
            crash:W@T>R       ... and rejoins at time R
            straggler:WxF     worker W slowed by factor F (from t=0)
            straggler:WxF@T   ... from time T on
            stall:W@T+D       worker W stalled during [T, T+D)
            drop:P            drop each message with probability P
            delay:P@S         delay each message with probability P by S seconds
            seed:N            override the plan seed

        Example: ``crash:1@0.5>2.0;straggler:2x3.0;drop:0.05``
        """
        plan = cls(seed=seed)
        for raw in spec.replace(";", ",").split(","):
            clause = raw.strip()
            if not clause:
                continue
            try:
                kind, _, body = clause.partition(":")
                kind = kind.strip().lower()
                if not body:
                    raise ValueError("missing parameters")
                if kind == "crash":
                    worker_s, _, when_s = body.partition("@")
                    when_s, _, rejoin_s = when_s.partition(">")
                    plan.crash(
                        int(worker_s),
                        float(when_s),
                        rejoin_at=float(rejoin_s) if rejoin_s else None,
                    )
                elif kind == "straggler":
                    worker_s, _, rest = body.partition("x")
                    factor_s, _, at_s = rest.partition("@")
                    plan.straggler(int(worker_s), float(factor_s), at=float(at_s) if at_s else 0.0)
                elif kind == "stall":
                    worker_s, _, rest = body.partition("@")
                    at_s, _, dur_s = rest.partition("+")
                    plan.stall(int(worker_s), float(at_s), float(dur_s))
                elif kind == "drop":
                    plan.drop_rate(float(body))
                elif kind == "delay":
                    p_s, _, s_s = body.partition("@")
                    plan.delay(float(p_s), float(s_s))
                elif kind == "seed":
                    plan.seed = int(body)
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except ValueError as exc:
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
        return plan
