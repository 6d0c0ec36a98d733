"""The parameter-server protocol layer: stores, rules, staleness, families.

A center/worker scheme is one protocol with two free halves, and this
module states each half once so the simulated trainer and the rank
program can both consume a family as data:

- a :class:`CenterStore` is the server half: it owns the center vector
  (and any server-side state such as the master velocity) and answers one
  exchange with :meth:`~CenterStore.serve` — fold the contribution, reply.
  Concrete stores: :class:`ElasticCenterStore` (Eq 2; replies the
  *pre-fold* center), :class:`SgdServerStore` (apply gradients, optional
  momentum), :class:`DeltaServerStore` (DOWNPOUR's raw weight deltas),
  :class:`AdagServerStore` (accumulated gradients over the worker count),
  and :class:`GossipStore` (the "no center" decentralized store).
- a :class:`WorkerRule` is the worker half behind one stateful
  interface: ``init_state`` allocates the worker's arrays (replica,
  velocity, anchor, accumulator — whatever the rule needs, by name),
  ``local_step`` folds one local batch between exchanges, ``payload`` is
  what the worker pushes, ``apply`` folds the reply, ``resync`` restores
  from the center (rejoin / staleness reject).
- a :class:`StalenessBound` is the admission policy: updates staler than
  ``tau`` master versions are rejected (worker resynced) or clipped
  (applied scaled by ``tau/staleness``), every decision counted.
- a :class:`PsFamily` is one row of :data:`PS_FAMILIES`: the store and
  rule factories plus the handful of flags the event simulation and the
  rank program read. A new family is a new row — and a new rule or store
  only if its mathematics is new.

At ``scale == 1.0`` every store and rule evaluates the exact expression
of :mod:`repro.optim.easgd`, which is what keeps the golden traces and
the backend digests byte-stable across refactors of the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim.easgd import (
    EASGDHyper,
    elastic_center_update_single,
    elastic_momentum_worker_update,
    elastic_worker_update,
)

__all__ = [
    "CenterStore",
    "ElasticCenterStore",
    "SgdServerStore",
    "DeltaServerStore",
    "AdagServerStore",
    "GossipStore",
    "WorkerRule",
    "ElasticWorkerRule",
    "ElasticMomentumWorkerRule",
    "ElasticPullWorkerRule",
    "FreshPullWorkerRule",
    "LocalSgdWorkerRule",
    "AccumGradWorkerRule",
    "StalenessBound",
    "PsFamily",
    "PS_FAMILIES",
    "UnsupportedOptionError",
]


# ---------------------------------------------------------------------------
# Center stores (the server side of the protocol)
# ---------------------------------------------------------------------------


class CenterStore:
    """Server-side state and fold discipline of one update family.

    A store owns the center vector it was bound to (:meth:`bind` adopts
    the array, it does not copy) plus whatever else the server keeps, and
    handles one worker exchange per :meth:`serve`. ``kind`` labels the
    family class the registry metadata and docs report: ``"centered"`` (a
    real server holds shared state) or ``"decentralized"`` (no server;
    peers exchange directly).
    """

    kind = "centered"

    def __init__(self) -> None:
        self.weights: Optional[np.ndarray] = None

    def bind(self, weights: np.ndarray) -> "CenterStore":
        """Adopt ``weights`` as the center; returns self for chaining."""
        self.weights = weights
        return self

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        """Fold one worker contribution into the center, in place.

        ``scale`` damps the fold for clipped-staleness admission; 1.0 is
        the exact unscaled family update.
        """
        raise NotImplementedError

    def pull(self) -> np.ndarray:
        """A detached copy of the center."""
        return self.weights.copy()

    def serve(self, payload: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """One exchange's server half: fold, then reply the fresh center.

        The reply is the *live* center, so an in-process caller folds it
        into the worker without a copy; a server handing it to another
        rank sends :meth:`pull` instead.
        """
        self.push(payload, scale)
        return self.weights

    def arrays(self) -> Dict[str, np.ndarray]:
        """The store's checkpointable arrays, by name."""
        return {"master": self.weights}


class ElasticCenterStore(CenterStore):
    """Eq 2's elastic center: ``Wbar += alpha * (W_j - Wbar)`` per push.

    The asynchronous exchange (:meth:`exchange`, which is this store's
    :meth:`serve`) replies the *pre-fold* center and then folds — the
    order Algorithm 1 line 14 and the async master both use;
    :meth:`fold_sum` is the synchronous all-workers-at-once Eq 2 over a
    tree-reduced sum.
    """

    def __init__(self, hyper: EASGDHyper) -> None:
        super().__init__()
        self.hyper = hyper

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        if scale == 1.0:
            elastic_center_update_single(self.weights, payload, self.hyper)
        else:
            self.weights += scale * self.hyper.alpha * (payload - self.weights)

    def exchange(self, worker_w: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Reply Wbar_t (a fresh copy the worker may keep), then fold."""
        wbar_t = self.weights.copy()
        self.push(worker_w, scale)
        return wbar_t

    def serve(self, payload: np.ndarray, scale: float = 1.0) -> np.ndarray:
        return self.exchange(payload, scale)

    def fold_sum(self, sum_w: np.ndarray, count: int) -> None:
        """Synchronous Eq 2 over ``count`` live workers' tree-reduced sum."""
        self.weights += self.hyper.alpha * (sum_w - count * self.weights)


class SgdServerStore(CenterStore):
    """Dean-style master: apply each pushed gradient, optional momentum."""

    def __init__(self, lr: float, mu: float = 0.0) -> None:
        super().__init__()
        self.lr = lr
        self.mu = mu
        self.velocity: Optional[np.ndarray] = None

    def bind(self, weights: np.ndarray) -> "SgdServerStore":
        self.weights = weights
        self.velocity = np.zeros_like(weights) if self.mu else None
        return self

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        step = self.lr if scale == 1.0 else scale * self.lr
        if self.velocity is not None:
            self.velocity *= self.mu
            self.velocity -= step * payload
            self.weights += self.velocity
        else:
            self.weights -= step * payload

    def arrays(self) -> Dict[str, np.ndarray]:
        if self.velocity is None:
            return {"master": self.weights}
        return {"master": self.weights, "master-v": self.velocity}


class DeltaServerStore(CenterStore):
    """DOWNPOUR's server: accumulate raw local-SGD weight deltas."""

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        if scale == 1.0:
            self.weights += payload
        else:
            self.weights += scale * payload


class AdagServerStore(CenterStore):
    """ADAG's server: apply accumulated gradients normalized by P."""

    def __init__(self, lr: float, num_workers: int) -> None:
        super().__init__()
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.lr = lr
        self.num_workers = num_workers

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        step = self.lr if scale == 1.0 else scale * self.lr
        self.weights -= step * payload / self.num_workers


class GossipStore(CenterStore):
    """The decentralized "no center" store: peers average pairwise.

    Binds to the full replica list instead of a single vector. The
    consensus mean (maintained in a caller-provided buffer) stands in for
    the center wherever one is expected — evaluation, serving snapshots,
    rejoin restores.
    """

    kind = "decentralized"

    def __init__(self) -> None:
        super().__init__()
        self.replicas: List[np.ndarray] = []

    def bind_replicas(self, replicas: Sequence[np.ndarray]) -> "GossipStore":
        self.replicas = list(replicas)
        return self

    @staticmethod
    def average(mine: np.ndarray, peer: np.ndarray) -> np.ndarray:
        """The pairwise average both peers adopt (same bits on either side)."""
        return 0.5 * (mine + peer)

    def mix(self, a: int, b: int) -> None:
        """One gossip exchange: both peers adopt the pairwise average."""
        avg = self.average(self.replicas[a], self.replicas[b])
        self.replicas[a][...] = avg
        self.replicas[b][...] = avg

    def consensus_into(self, out: np.ndarray, live: Sequence[int]) -> np.ndarray:
        """The live replicas' mean, written into ``out`` in place."""
        out[...] = self.replicas[live[0]]
        for j in live[1:]:
            out += self.replicas[j]
        out /= len(live)
        return out

    def push(self, payload: np.ndarray, scale: float = 1.0) -> None:
        raise TypeError("GossipStore has no center to push to; use mix()")


# ---------------------------------------------------------------------------
# Worker rules (the worker side of the protocol)
# ---------------------------------------------------------------------------


class WorkerRule:
    """What a worker keeps, pushes, and does with the reply.

    The rule is stateless mathematics over a per-worker *state*: a dict
    of named arrays from :meth:`init_state` — ``"w"`` is the local
    replica, plus one zero-initialised array per name in ``zeros`` (a
    velocity, an accumulator). Callers hold one state per worker and look
    no further inside than ``state["w"]``; checkpoints save every array
    under its name. ``pushes`` names the payload for docs/metadata.
    """

    pushes = "local weights"
    zeros: Tuple[str, ...] = ()

    def init_state(self, w0: np.ndarray) -> Dict[str, np.ndarray]:
        """A fresh worker starting from ``w0`` (copied)."""
        return {"w": w0.copy(), **{k: np.zeros_like(w0) for k in self.zeros}}

    def local_step(self, state, grad: np.ndarray, hyper: EASGDHyper) -> None:
        """Fold one local batch gradient between exchanges (the multi-batch
        rules only; a per-step rule takes its gradient in :meth:`apply`)."""
        raise NotImplementedError(f"{type(self).__name__} takes one gradient per exchange")

    def payload(self, state, grad: np.ndarray) -> np.ndarray:
        """What the worker pushes (valid until the reply is applied)."""
        return state["w"]

    def apply(self, state, grad: np.ndarray, reply: np.ndarray,
              hyper: EASGDHyper, scale: float = 1.0) -> None:
        """Fold the server's reply (and, per-step rules, ``grad``) in place."""
        raise NotImplementedError

    def resync(self, state, center: np.ndarray) -> None:
        """Restore the worker from the center, discarding local progress."""
        state["w"][...] = center
        for k in self.zeros:
            state[k][...] = 0.0


class ElasticWorkerRule(WorkerRule):
    """Eq 1: ``W -= lr*g + alpha*(W - Wbar_t)`` against the replied center."""

    def apply(self, state, grad, reply, hyper, scale=1.0):
        w = state["w"]
        if scale == 1.0:
            elastic_worker_update(w, grad, reply, hyper)
        else:
            w -= scale * (hyper.lr * grad + hyper.alpha * (w - reply))


class ElasticMomentumWorkerRule(WorkerRule):
    """Eqs 5-6: momentum velocity + elastic term against the replied center."""

    zeros = ("v",)

    def apply(self, state, grad, reply, hyper, scale=1.0):
        if scale != 1.0:
            raise NotImplementedError("Eqs 5-6 have no clipped form")
        elastic_momentum_worker_update(state["w"], state["v"], grad, reply, hyper)


class ElasticPullWorkerRule(WorkerRule):
    """EAMSGD: momentum SGD between exchanges, a purely elastic exchange.

    The gradient work happens locally (Eqs 5-6's local half), so at the
    exchange the worker just relaxes toward the replied center:
    ``W -= alpha * (W - Wbar_t)``.
    """

    zeros = ("v",)

    def local_step(self, state, grad, hyper):
        v = state["v"]
        v *= hyper.mu
        v -= hyper.lr * grad
        state["w"] += v

    def apply(self, state, grad, reply, hyper, scale=1.0):
        w = state["w"]
        w -= (hyper.alpha if scale == 1.0 else scale * hyper.alpha) * (w - reply)


class FreshPullWorkerRule(WorkerRule):
    """Async SGD: push the gradient, adopt the master's fresh weights."""

    pushes = "gradient"

    def payload(self, state, grad):
        return grad

    def apply(self, state, grad, reply, hyper, scale=1.0):
        state["w"][...] = reply


class LocalSgdWorkerRule(WorkerRule):
    """DOWNPOUR's worker: plain SGD steps between pushes; push W - anchor.

    The anchor is the center snapshot the worker last pulled; the pushed
    delta is measured against it, so concurrent pushes compose additively.
    """

    pushes = "weight delta"

    def init_state(self, w0):
        return {"w": w0.copy(), "anchor": w0.copy()}

    def local_step(self, state, grad, hyper):
        state["w"] -= hyper.lr * grad

    def payload(self, state, grad):
        return state["w"] - state["anchor"]

    def apply(self, state, grad, reply, hyper, scale=1.0):
        self.resync(state, reply)  # pull fresh, re-anchor

    def resync(self, state, center):
        state["w"][...] = center
        state["anchor"][...] = center


class AccumGradWorkerRule(WorkerRule):
    """ADAG's worker: accumulate gradients while stepping locally."""

    pushes = "accumulated gradient"
    zeros = ("acc",)

    def local_step(self, state, grad, hyper):
        state["acc"] += grad
        state["w"] -= hyper.lr * grad

    def payload(self, state, grad):
        return state["acc"]

    def apply(self, state, grad, reply, hyper, scale=1.0):
        self.resync(state, reply)  # pull fresh, restart the accumulator


# ---------------------------------------------------------------------------
# Staleness admission
# ---------------------------------------------------------------------------


@dataclass
class StalenessBound:
    """First-class staleness admission: bound applied updates by ``tau``.

    Staleness is the number of master versions that landed between a
    worker's last sync and the application of its contribution — the
    quantity asynchronous convergence analyses (elastic consistency,
    bounded-delay SGD) assume is bounded. ``admit`` returns the verdict
    and the damping scale to apply:

    - ``policy="reject"``: staler-than-tau contributions are discarded
      and the worker resyncs from the center (scale 0.0);
    - ``policy="clip"``: they are applied damped by ``tau / staleness``.

    Every decision is counted; :meth:`extras` surfaces the counters so
    violations are observable in ``RunResult.extras`` next to the trace's
    derived staleness statistics.
    """

    tau: int
    policy: str = "reject"
    checked: int = 0
    rejected: int = 0
    clipped: int = 0
    max_seen: int = 0
    max_applied: int = 0

    _POLICIES = ("reject", "clip")

    def __post_init__(self) -> None:
        if self.tau < 0:
            raise ValueError("tau must be non-negative")
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )

    def admit(self, staleness: int) -> Tuple[str, float]:
        """Decide one update's fate: ("apply"|"clip"|"reject", scale)."""
        self.checked += 1
        self.max_seen = max(self.max_seen, staleness)
        if staleness <= self.tau:
            self.max_applied = max(self.max_applied, staleness)
            return "apply", 1.0
        if self.policy == "clip":
            self.clipped += 1
            self.max_applied = max(self.max_applied, staleness)
            return "clip", self.tau / staleness
        self.rejected += 1
        return "reject", 0.0

    _COUNTERS = ("checked", "rejected", "clipped", "max_seen", "max_applied")

    def state_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self._COUNTERS}

    def load_state_dict(self, state: Dict[str, int]) -> None:
        for k in self._COUNTERS:
            setattr(self, k, int(state[k]))

    def extras(self) -> Dict[str, float]:
        return {"staleness_tau": float(self.tau),
                **{f"staleness_{k}": float(getattr(self, k)) for k in self._COUNTERS}}


# ---------------------------------------------------------------------------
# Families as data
# ---------------------------------------------------------------------------


class UnsupportedOptionError(ValueError):
    """A method was handed an option it cannot honour."""

    def __init__(self, method: str, option: str) -> None:
        super().__init__(f"method {method!r} does not support {option}")
        self.method = method
        self.option = option


@dataclass(frozen=True)
class PsFamily:
    """One asynchronous parameter-server family, declared as data.

    The event simulation (:mod:`repro.algorithms.async_ps`) and the rank
    program (:mod:`repro.algorithms.ps_runner`) both read this row and
    nothing else about the family. Rows hold factories, so ranks look
    theirs up in :data:`PS_FAMILIES` by ``key`` instead of unpickling it.
    """

    key: str
    name: str  # display name, stamped on traces and results
    store: Callable[[EASGDHyper, int], CenterStore]  # (hyper, workers) -> unbound store
    rule: Callable[[], WorkerRule]
    lock_free: bool = False  # Hogwild service: no master queueing
    #: The worker sends before its pass finishes (it pushes weights, not
    #: the gradient) and folds the reply on the device afterwards.
    overlap: bool = False
    #: Default local batches per exchange, each through ``rule.local_step``;
    #: None = one gradient per exchange, folded in ``rule.apply``.
    multi_batch: Optional[int] = None
    bounded: bool = False  # admission through a StalenessBound
    #: Op of the per-exchange "update" span carrying the applied
    #: staleness; None suppresses the span (plain async SGD).
    update_op: Optional[str] = None

    @property
    def kind(self) -> str:
        """The store's family class ("centered" / "decentralized")."""
        return self.store(EASGDHyper(lr=0.05, rho=2.0), 1).kind

    @property
    def pattern(self) -> str:
        """One-line communication pattern (the docs/algorithms.md column)."""
        cadence = (f"every {self.multi_batch} local steps" if self.multi_batch
                   else "every step")
        return (f"worker↔server, {self.rule().pushes} push {cadence}, "
                f"{'lock-free' if self.lock_free else 'FCFS'} service")

    def options(
        self, workers: int, local_steps: Optional[int] = None,
        tau: Optional[int] = None, staleness_policy: Optional[str] = None,
    ) -> Tuple[int, Optional[StalenessBound]]:
        """Resolve the caller's knobs: ``(local_steps, bound-or-None)``.

        ``None`` means the row's value. An option this family cannot
        honour raises :class:`UnsupportedOptionError` instead of being
        accepted and ignored.
        """
        for option, value, honoured in (
            ("local_steps", local_steps, self.multi_batch is not None),
            ("tau", tau, self.bounded),
            ("staleness_policy", staleness_policy, self.bounded),
        ):
            if value is not None and not honoured:
                raise UnsupportedOptionError(self.key, option)
        if local_steps is None:
            local_steps = self.multi_batch or 1
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if not self.bounded:
            return local_steps, None
        if tau is None:
            # Twice the natural pipelining depth: P workers round-robining
            # an FCFS master see staleness ~P-1, so 2(P-1) only trips
            # under real stragglers.
            tau = 2 * max(workers - 1, 1)
        return local_steps, StalenessBound(int(tau), staleness_policy or "reject")

    def local_passes(self, rule: WorkerRule, state, net, sampler, loss,
                     hyper: EASGDHyper, local_steps: int) -> float:
        """A worker's passes between two exchanges; returns the last batch loss.

        The last gradient stays in ``net.grads`` for the exchange; a
        multi-batch family folds every one through ``rule.local_step``.
        """
        batch_loss = 0.0
        for _ in range(local_steps):
            images, labels = sampler.next_batch()
            net.set_params(state["w"])
            batch_loss = net.gradient(images, labels, loss)
            if self.multi_batch is not None:
                rule.local_step(state, net.grads, hyper)
        return batch_loss

    def trace_meta(self, local_steps: int, bound: Optional[StalenessBound]) -> Dict:
        """The family's trace metadata (what the invariant checks dispatch on)."""
        meta: Dict = {"lock_free": self.lock_free, "elastic": self.overlap}
        if self.multi_batch is not None:
            meta["local_steps"] = local_steps
        if bound is not None:
            meta.update(staleness_bound=bound.tau, staleness_policy=bound.policy)
        return meta


_sgd = lambda hyper, workers: SgdServerStore(hyper.lr)
_msgd = lambda hyper, workers: SgdServerStore(hyper.lr, hyper.mu)
_elastic = lambda hyper, workers: ElasticCenterStore(hyper)
_delta = lambda hyper, workers: DeltaServerStore()
_adag = lambda hyper, workers: AdagServerStore(hyper.lr, workers)

#: Every asynchronous registry method, one row each.
PS_FAMILIES: Dict[str, PsFamily] = {
    row.key: row
    for row in (
        PsFamily("async-sgd", "Async SGD", _sgd, FreshPullWorkerRule),
        PsFamily("async-msgd", "Async MSGD", _msgd, FreshPullWorkerRule),
        PsFamily("hogwild-sgd", "Hogwild SGD", _sgd, FreshPullWorkerRule,
                 lock_free=True),
        PsFamily("async-easgd", "Async EASGD", _elastic, ElasticWorkerRule,
                 overlap=True, update_op="elastic-update"),
        PsFamily("async-measgd", "Async MEASGD", _elastic, ElasticMomentumWorkerRule,
                 overlap=True, update_op="elastic-update"),
        PsFamily("hogwild-easgd", "Hogwild EASGD", _elastic, ElasticWorkerRule,
                 lock_free=True, overlap=True, update_op="elastic-update"),
        PsFamily("downpour", "DOWNPOUR SGD", _delta, LocalSgdWorkerRule,
                 multi_batch=4, update_op="ps-apply"),
        PsFamily("adag", "ADAG", _adag, AccumGradWorkerRule,
                 multi_batch=4, update_op="ps-apply"),
        PsFamily("eamsgd", "EAMSGD", _elastic, ElasticPullWorkerRule,
                 overlap=True, multi_batch=4, update_op="elastic-update"),
        PsFamily("bounded-async-easgd", "Bounded Async EASGD", _elastic,
                 ElasticWorkerRule, overlap=True, bounded=True,
                 update_op="elastic-update"),
    )
}
