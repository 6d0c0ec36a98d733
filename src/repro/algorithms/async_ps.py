"""Asynchronous parameter-server trainers (Sections 3.1, 3.2, 5.1).

Ten methods share one discrete-event simulation. Each is one row of
:data:`repro.engine.ps.PS_FAMILIES` — a
:class:`~repro.engine.ps.CenterStore` factory (the server-side fold), a
:class:`~repro.engine.ps.WorkerRule` factory (the worker side: its
arrays, local steps, payload, reply fold) and a few flags (master
service discipline, overlap, staleness bound). One trainer class and one
step strategy read the row, picked by its key: the registry entry of
every asynchronous method is ``partial(AsyncPSTrainer, family=key)``.

Timing structure (the paper's design point in Section 5.1): an SGD worker
must *wait* for the master's reply before it can compute (its gradient is
taken at the weights the master returns), so its cycle is strictly serial.
An EASGD worker computes on its own local weights, so its forward/backward
pass overlaps the master exchange; only the elastic update (Eq 1) needs the
returned Wbar. Lock-free (Hogwild) service removes the master's queueing
delay. Events are processed in arrival order with deterministic
tie-breaking, so runs are reproducible for a fixed seed.

The event loop is driven by :class:`repro.engine.StepPipeline` through
the family's :class:`~repro.engine.EventStepStrategy`: only *some* events
complete a logical step (a worker-master interaction); rejoins, messages
from dead workers, dropped/retransmitted messages, and staleness-rejected
contributions merely mutate the simulation.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.algorithms.base import BaseTrainer, TrainerConfig
from repro.cluster.cost import CostModel
from repro.cluster.platform import GpuPlatform
from repro.cluster.simclock import EventQueue
from repro.data.dataset import Dataset
from repro.engine.ps import PS_FAMILIES, PsFamily
from repro.engine.strategy import EventStepStrategy
from repro.faults import AllWorkersCrashedError, FaultLog, FaultPlan
from repro.nn.network import Network
from repro.optim.easgd import EASGDHyper
from repro.trace.events import MASTER

__all__ = ["AsyncPSTrainer"]

#: Retransmissions of one dropped request before its worker goes silent
#: (and the heartbeat policy evicts it).
SEND_RETRIES = 20


class _AsyncPSStep(EventStepStrategy):
    """The parameter-server discrete-event simulation, one event per advance.

    The step owns the simulation (queue, clocks, fault bookkeeping,
    staleness versions); the family's mathematics lives in the row's
    store (center + server state) and rule (one state per worker).
    """

    def __init__(self, trainer: "AsyncPSTrainer") -> None:
        self.trainer = trainer

    def begin(self, pipeline) -> None:
        tr = self.trainer
        row = self.row = tr.row
        g = self.g = tr.platform.num_gpus
        cfg = tr.config

        init = tr.net.get_params()
        self.store = row.store(tr.hyper, g).bind(init)
        self.rule = row.rule()
        self.states = [self.rule.init_state(init) for _ in range(g)]
        self.bound = tr.bound
        self.samplers = [tr.make_sampler(("worker", j)) for j in range(g)]

        #: Local batches per master exchange (1 for the per-step families;
        #: DOWNPOUR/ADAG/EAMSGD run several between pushes).
        self.batches = tr.local_steps
        self.stage_t = tr.platform.stage_batch_time(tr.cost, cfg.batch_size)
        # The asynchronous implementations send per blob.
        self.oneway_t = tr.platform.param_time(tr.cost, "cpu-gpu para", packed=False)
        self.service_t = tr.platform.cpu_update_time(tr.cost)
        self.local_upd_t = tr.platform.gpu_update_time(tr.cost) if row.overlap else 0.0

        self.nb = tr.cost.weight_bytes
        tr.make_trace(
            g,
            pattern="ps",
            packed=False,
            messages_per_exchange=1,
            **row.trace_meta(self.batches, self.bound),
        )
        #: Request channels sent but not yet consumed/accounted; whatever
        #: is still here when the run ends becomes a "lost" fault event so
        #: conservation holds for truncated runs.
        self.inflight: set = set()

        plan = tr.faults
        self.log = tr.fault_log = FaultLog()
        self.queue = EventQueue()
        self.send_seq = [0] * g  # per-worker message sequence numbers
        self.retry_backoff = 2.0 * max(self.oneway_t, 1e-9)
        # Heartbeat-timeout eviction policy: a worker the master has not
        # heard from for ~25 healthy cycles is declared dead. The policy
        # only *detects* — dead workers already contribute nothing — but it
        # is what turns a silent loss into a logged, observable eviction.
        fwdbwd_base = tr.platform.fwdbwd_time(
            tr.cost, cfg.batch_size, worker=0, jittered=False
        )
        self.heartbeat = 25.0 * (
            self.batches * (self.stage_t + fwdbwd_base)
            + 2.0 * self.oneway_t + self.service_t
        )

        self.master_free = 0.0
        self.waiting_total = 0.0
        self.dropped = 0
        self.msg_dropped = 0
        self.degraded_iters = 0
        self.rejoined = 0
        self.last_seen = [0.0] * g
        self.crash_logged: set = set()
        self.evicted: set = set()
        # Staleness instrumentation: how many master updates landed between
        # a worker's last sync and the application of its contribution —
        # the quantity asynchronous convergence analyses bound. The sums
        # cover *applied* updates; rejected/clipped admissions are counted
        # separately (stale_rejects/stale_clips and the bound's counters).
        self.master_version = 0
        self.worker_version = [0] * g
        self.staleness_sum = 0
        self.staleness_max = 0
        self.stale_rejects = 0
        self.stale_clips = 0
        self.completed = 0

        for j in range(g):
            self._launch_cycle(j, 0.0)
        # Crashed workers with a scheduled rejoin re-enter via rejoin events.
        if plan is not None:
            for j in range(g):
                rejoin_at = plan.rejoin_time(j)
                if rejoin_at is not None:
                    self.queue.push(rejoin_at, ("rejoin", j))

    def _launch_cycle(self, j: int, start: float) -> None:
        """Schedule worker j's next master-arrival event."""
        tr = self.trainer
        plan = tr.faults
        trace = tr.trace
        fwdbwd = tr.platform.fwdbwd_time(tr.cost, tr.config.batch_size, worker=j)
        if plan is not None:
            fwdbwd *= plan.slowdown(j, start)  # straggler/stall inflation
        # Multi-batch families stage and compute ``batches`` times per
        # cycle; n == 1 reproduces the per-step timing exactly.
        stage_total = self.stage_t * self.batches
        fwd_total = fwdbwd * self.batches
        compute_done = start + stage_total + fwd_total
        # Overlap (EASGD): the worker pushes weights, so the send does not
        # wait for the pass. Otherwise the gradient is what gets sent.
        send_t0 = start if self.row.overlap else compute_done
        arrival = send_t0 + self.oneway_t
        seq = self.send_seq[j]
        self.send_seq[j] += 1
        delayed = False
        if plan is not None:
            lag = plan.delay_seconds(j, "master", 0, seq)
            if lag > 0.0:
                self.log.record(arrival, "delay", f"worker {j} -> master",
                                f"+{lag:.4g}s seq={seq}")
                arrival += lag
                delayed = True
        if trace is not None:
            trace.span("staging", j, start, start + stage_total, op="cpu-gpu-data")
            trace.span("compute", j, start + stage_total, compute_done, op="fwd-bwd")
            trace.send(j, MASTER, send_t0, arrival, tag=0, nbytes=self.nb, seq=seq,
                       op="ps-request")
            self.inflight.add((j, seq))
            if delayed:
                trace.fault(j, arrival, "delay", peer=MASTER, seq=seq)
        self.queue.push(arrival, ("arrival", j, compute_done, fwd_total, seq, 0))

    # -- the event loop hooks --------------------------------------------------
    def pending(self) -> bool:
        return bool(self.queue)

    def _detect_failures(self, plan: FaultPlan, now: float) -> None:
        """Master-side failure detection: log crashes as they take effect
        and evict workers silent for longer than the heartbeat timeout."""
        trace = self.trainer.trace
        for k in range(self.g):
            if k in self.crash_logged or not plan.is_dead(k, now):
                continue
            self.crash_logged.add(k)
            self.log.record(plan.crash_time(k), "crash", f"worker {k}", "fail-stop")
            if trace is not None:
                trace.fault(k, plan.crash_time(k), "crash")
        for k in range(self.g):
            if k in self.evicted or not plan.is_dead(k, now):
                continue
            if now - self.last_seen[k] > self.heartbeat:
                self.evicted.add(k)
                self.log.record(
                    now, "evict", f"worker {k}",
                    f"no heartbeat for > {self.heartbeat:.4g}s",
                )
                if trace is not None:
                    trace.fault(k, now, "evict")

    def _rejoin(self, j: int, now: float) -> None:
        """Recovery: the worker restores by re-pulling the center (its
        checkpoint), resets its staleness bookkeeping, resumes cycling."""
        self.rule.resync(self.states[j], self.store.weights)
        self.worker_version[j] = self.master_version
        self.evicted.discard(j)
        self.last_seen[j] = now
        self.rejoined += 1
        self.log.record(now, "rejoin", f"worker {j}", "re-pulled elastic center")
        if self.trainer.trace is not None:
            self.trainer.trace.fault(j, now, "rejoin")
        self._launch_cycle(j, now)

    def _lost(self, pipeline, plan: FaultPlan, arrival: float, payload) -> bool:
        """Whether the fault plan keeps this request from the master."""
        _, j, compute_done, fwdbwd, seq, attempt = payload
        trace = self.trainer.trace
        if plan.is_dead(j, arrival):
            self.dropped += 1  # fail-stop: the message never arrives
            if trace is not None:
                trace.fault(j, arrival, "dead", peer=MASTER, seq=seq)
                self.inflight.discard((j, seq))
            return True
        if not plan.should_drop(j, "master", 0, seq, attempt):
            return False
        # Transient message loss: the worker retransmits with exponential
        # backoff; after SEND_RETRIES it goes silent (and will be evicted
        # by the heartbeat policy).
        self.msg_dropped += 1
        self.log.record(arrival, "drop", f"worker {j} -> master",
                        f"seq={seq} attempt={attempt}")
        if trace is not None:
            trace.fault(j, arrival, "drop", peer=MASTER, seq=seq)
        if attempt + 1 > SEND_RETRIES:
            self.log.record(
                arrival, "give-up", f"worker {j}",
                f"seq={seq}: still dropped after {attempt + 1} attempts",
            )
            if trace is not None:
                trace.fault(j, arrival, "give-up", peer=MASTER, seq=seq)
                self.inflight.discard((j, seq))
            return True
        backoff = self.retry_backoff * (2 ** min(attempt, 6))
        pipeline.breakdown.add("cpu-gpu para", self.oneway_t)  # the retransmission
        self.queue.push(
            arrival + backoff, ("arrival", j, compute_done, fwdbwd, seq, attempt + 1)
        )
        return True

    def advance(self, pipeline, t_next: int) -> bool:
        tr = self.trainer
        row = self.row
        plan = tr.faults
        trace = tr.trace
        breakdown = pipeline.breakdown

        # --- fault prologue ----------------------------------------------
        event = self.queue.pop()
        arrival = event.time
        if plan is not None:
            self._detect_failures(plan, arrival)
        if event.payload[0] == "rejoin":
            self._rejoin(event.payload[1], arrival)
            return False
        if plan is not None and self._lost(pipeline, plan, arrival, event.payload):
            return False
        _, j, compute_done, fwdbwd, seq, _attempt = event.payload
        self.last_seen[j] = arrival
        if plan is not None and any(plan.is_dead(k, arrival) for k in range(self.g)):
            self.degraded_iters += 1
            breakdown.mark_degraded()

        # --- queueing model: FCFS behind a lock, or lock-free ------------
        if row.lock_free:
            service_start = arrival
        else:
            service_start = max(arrival, self.master_free)
        service_done = service_start + self.service_t
        if not row.lock_free:
            self.master_free = service_done
        self.waiting_total += service_start - arrival
        reply_at = service_done + self.oneway_t
        update_at = max(reply_at, compute_done) if row.overlap else reply_at
        resume = update_at + self.local_upd_t

        # --- numerics: local pass(es), admission, one exchange -----------
        state = self.states[j]
        self.last_loss = row.local_passes(self.rule, state, tr.net, self.samplers[j],
                                          tr.loss, tr.hyper, self.batches)
        staleness = self.master_version - self.worker_version[j]
        verdict, scale = (self.bound.admit(staleness) if self.bound is not None
                          else ("apply", 1.0))
        applied = verdict != "reject"
        if applied:
            if verdict == "clip":
                self.stale_clips += 1
            self.staleness_sum += staleness
            self.staleness_max = max(self.staleness_max, staleness)
            grad = tr.net.grads
            reply = self.store.serve(self.rule.payload(state, grad), scale)
            self.rule.apply(state, grad, reply, tr.hyper, scale)
            self.master_version += 1
            self.completed = t_next
        else:
            # Staler than the bound: the contribution is discarded and the
            # worker resyncs from the center — the local progress is the
            # price of the hard staleness guarantee. The master still spent
            # a service slot inspecting the request, so the event charges
            # like a served one but completes no step.
            self.rule.resync(state, self.store.weights)
            self.stale_rejects += 1
        self.worker_version[j] = self.master_version
        pipeline.sim_time = max(pipeline.sim_time, service_done)

        # --- emit + charge (served and rejected requests alike) ----------
        if trace is not None:
            it = t_next if applied else -1
            self.inflight.discard((j, seq))
            trace.recv(MASTER, j, arrival, service_start, tag=0, nbytes=self.nb,
                       seq=seq, op="ps-request", iteration=it)
            trace.span("service", MASTER, service_start, service_done,
                       op="ps-serve" if applied else "ps-reject", iteration=it,
                       value=arrival)
            trace.send(MASTER, j, service_done, reply_at, tag=1, nbytes=self.nb,
                       seq=seq, op="ps-reply", iteration=it)
            trace.recv(j, MASTER, reply_at, reply_at, tag=1, nbytes=self.nb,
                       seq=seq, op="ps-reply", iteration=it)
            if not applied:
                trace.fault(j, service_done, "stale-reject", peer=MASTER, seq=seq)
            elif row.update_op is not None:
                trace.span("update", j, update_at, update_at + self.local_upd_t,
                           op=row.update_op, iteration=it, value=float(staleness))
        self._launch_cycle(j, resume)
        breakdown.add("cpu-gpu data", self.stage_t * self.batches)
        breakdown.add("cpu-gpu para", 2.0 * self.oneway_t)
        breakdown.add("for/backward", fwdbwd)
        breakdown.add("cpu update", self.service_t)
        if row.overlap:
            breakdown.add("gpu update", self.local_upd_t)
        return applied

    def on_drained(self, pipeline, t: int) -> None:
        if t == 0:
            # The queue drained before a single update was applied — every
            # worker crashed at (effectively) time zero. An empty run is a
            # setup error, not a data point.
            raise AllWorkersCrashedError(
                f"all {self.g} workers crashed before any master update was "
                f"applied (fault log: {self.log.summary()})"
            )

    def on_complete(self, pipeline, t: int) -> None:
        trace = self.trainer.trace
        if trace is not None:
            # Requests still in flight when the run ended never reached the
            # master; account for them so conservation checks stay true.
            for src, seq_lost in sorted(self.inflight):
                trace.fault(src, pipeline.sim_time, "lost", peer=MASTER, seq=seq_lost)

    def eval_params(self) -> np.ndarray:
        return self.store.weights

    def _arrays(self) -> Dict[str, np.ndarray]:
        """Every live array of the run: the store's, then each worker's."""
        arrays = dict(self.store.arrays())
        for j, state in enumerate(self.states):
            arrays.update({f"worker-{name}-{j}": arr for name, arr in state.items()})
        return arrays

    #: The simulation's bookkeeping, by how a checkpoint carries it. Sets
    #: serialize sorted: their iteration order is insertion history, which
    #: a resumed process must not inherit implicitly.
    _SCALARS = ("last_loss", "master_free", "waiting_total", "dropped", "msg_dropped",
                "degraded_iters", "rejoined", "master_version", "staleness_sum",
                "staleness_max", "stale_rejects", "stale_clips", "completed")
    _LISTS = ("send_seq", "last_seen", "worker_version")
    _SETS = ("inflight", "crash_logged", "evicted")

    def state_dict(self) -> Dict:
        meta = {k: getattr(self, k) for k in self._SCALARS}
        meta.update({k: list(getattr(self, k)) for k in self._LISTS})
        meta.update({k: sorted(getattr(self, k)) for k in self._SETS})
        meta["samplers"] = [s.get_state() for s in self.samplers]
        meta["queue"] = self.queue.getstate()
        meta["bound"] = self.bound.state_dict() if self.bound is not None else None
        return {"arrays": self._arrays(), "meta": meta}

    def load_state_dict(self, state: Dict) -> None:
        arrays, meta = state["arrays"], state["meta"]
        for name, arr in self._arrays().items():
            arr[...] = arrays[name]
        for k in self._SCALARS:
            setattr(self, k, meta[k])
        for k in self._LISTS:
            setattr(self, k, list(meta[k]))
        for k in self._SETS:
            setattr(self, k, set(meta[k]))
        for sampler, st in zip(self.samplers, meta["samplers"]):
            sampler.set_state(st)
        # The queue replaces everything begin() scheduled (initial cycles,
        # rejoin events): the saved stream already contains their successors.
        self.queue.setstate(meta["queue"])
        if self.bound is not None:
            self.bound.load_state_dict(meta["bound"])

    def extras(self) -> Dict[str, float]:
        t = self.completed
        extras = {
            "master_wait_seconds": self.waiting_total,
            "failed_worker_events_dropped": float(self.dropped),
            "mean_staleness": self.staleness_sum / t if t else 0.0,
            "max_staleness": float(self.staleness_max),
        }
        if self.bound is not None:
            extras.update(self.bound.extras())
        if self.trainer.faults is not None:
            extras.update(
                {
                    "messages_dropped": float(self.msg_dropped),
                    "workers_evicted": float(len(self.evicted)),
                    "workers_rejoined": float(self.rejoined),
                    "degraded_iterations": float(self.degraded_iters),
                }
            )
        return extras


class AsyncPSTrainer(BaseTrainer):
    """The asynchronous parameter-server trainer; ``family`` picks the row.

    The class itself is family-agnostic: everything that distinguishes
    Async SGD from DOWNPOUR from bounded EASGD is the
    :class:`~repro.engine.ps.PsFamily` row ``PS_FAMILIES[family]``.
    """

    def __init__(
        self,
        network: Network,
        train_set: Dataset,
        test_set: Dataset,
        platform: GpuPlatform,
        config: TrainerConfig,
        cost_model: Optional[CostModel] = None,
        faults: Optional[FaultPlan] = None,
        local_steps: Optional[int] = None,
        tau: Optional[int] = None,
        staleness_policy: Optional[str] = None,
        *,
        family: str,
    ) -> None:
        """``family`` is the row's key in :data:`~repro.engine.ps.PS_FAMILIES`
        (rows hold factories, so the key travels, as in the rank program).

        ``faults`` is the full fault schedule (crash/rejoin, straggler,
        stall, message drop/delay — see :class:`repro.faults.FaultPlan`).
        This is the fault model behind the paper's "high fault-tolerance
        requirement on cloud systems" motivation — asynchronous masters
        keep making progress with the surviving workers, evict a worker
        silent for ~25 healthy cycles, and let crashed workers rejoin by
        re-pulling the elastic center.

        ``local_steps`` (batches per exchange), ``tau`` and
        ``staleness_policy`` (the staleness bound) default to the row's
        values; a row that cannot honour one raises
        :class:`~repro.engine.ps.UnsupportedOptionError`."""
        if faults is not None:
            faults.validate(platform.num_gpus)
        super().__init__(network, train_set, test_set, config, cost_model, faults=faults)
        self.row: PsFamily = PS_FAMILIES[family]
        self.name = self.row.name
        self.platform = platform
        self.hyper = EASGDHyper(lr=config.lr, rho=config.rho, mu=config.mu)
        self.local_steps, self.bound = self.row.options(
            platform.num_gpus, local_steps, tau, staleness_policy
        )

    def make_step(self) -> _AsyncPSStep:
        #: The latest run's strategy: its ``store`` and per-worker
        #: ``states`` are the run's live arrays.
        self.step = _AsyncPSStep(self)
        return self.step
