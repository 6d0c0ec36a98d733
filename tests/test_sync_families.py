"""The net under the synchronous families: clock, resume, numerics.

Every clock-driven family — round-robin EASGD, tree EASGD 1/2/3, allreduce
SGD, the KNL and GPU-cluster trainers, gossip — is an update rule paired
with a communication model on one shared step. Four things pin that
pairing from outside:

- a **clock golden** (``tests/golden/sync_clock.json``): the simulated
  clock of every sync registry name at P=4 and P=3, the constructor
  variants that change only the clock (ring, 4-bit, unpacked, overlap
  off), and each fault-capable name under a crash -> rejoin + permanent
  crash + straggler plan, as ``float.hex`` — pure float arithmetic plus
  seeded jitter, portable like the trace goldens. The fault log's words
  ride along;
- **resume == straight run** for every registry name, again for the
  fault-capable sync names with a plan that straddles the resume point
  (restoring the tracker must re-cost the rebuilt collective), and for
  4-bit sync SGD (the quantization RNG is checkpoint state);
- a **numerics oracle**: a dozen-line reference loop over the public
  pieces reproduces the final elastic center bit for bit;
- **sim == ranks**: every rank twin (sync SGD on the tree and the ring,
  Sync EASGD, gossip) at P = 2, 3, 4 on threads, processes/shm,
  processes/queue and a worker pool ends on the simulated trainer's
  center and replicas byte for byte, and refuses a bad hyperparameter
  before any rank starts.

To bless a new clock golden after an intentional change::

    PYTHONPATH=src python tests/test_sync_families.py --regenerate
"""

from functools import lru_cache
import json
from pathlib import Path
import sys

import numpy as np
import pytest
from test_durability import run_signature

from repro.algorithms import ALGORITHM_INFO, ALGORITHMS, TrainerConfig, make_trainer
from repro.algorithms.mpi_easgd import run_mpi_sync_easgd
from repro.algorithms.mpi_sgd import run_mpi_sync_sgd
from repro.algorithms.multinode import ClusterSyncEASGDTrainer
from repro.algorithms.ps_runner import run_mpi_gossip
from repro.cluster import CostModel, GpuPlatform
from repro.cluster.multinode import GpuClusterPlatform
from repro.cluster.platform import KnlPlatform
from repro.comm.collectives import tree_reduce
from repro.comm.mp_runtime import fork_available
from repro.data import make_mnist_like, standardize, standardize_like
from repro.data.loader import BatchSampler
from repro.engine import StepPipeline
from repro.faults import FaultPlan
from repro.knl.trainer import KnlSyncEASGDTrainer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import build_mlp
from repro.nn.spec import LENET
from repro.optim.easgd import EASGDHyper, elastic_center_update, elastic_worker_update
from repro.pool import WorkerPool

pytestmark = pytest.mark.algorithms

GOLDEN = Path(__file__).parent / "golden" / "sync_clock.json"

SYNC_NAMES = sorted(n for n, info in ALGORITHM_INFO.items() if info.sync == "sync")
#: The sync names whose trainers take a fault plan (``sync-easgd`` is
#: ``sync-easgd3`` under its headline name).
FAULT_NAMES = [n for n in SYNC_NAMES
               if n not in ("knl-sync-easgd", "cluster-sync-easgd", "sync-easgd")]

CLOCK_STEPS = 6


@lru_cache(maxsize=None)
def _data():
    train, test = make_mnist_like(n_train=256, n_test=128, seed=5, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    return train, test


def _trainer(method, ranks=4, **kwargs):
    """``make_trainer`` on the tiny MLP; config fields ride in ``kwargs``."""
    config = {"eval_every": 1}
    for field in ("eval_every", "trace", "checkpoint_every", "checkpoint_dir"):
        if field in kwargs:
            config[field] = kwargs.pop(field)
    train, test = _data()
    cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0,
                        eval_samples=64, **config)
    return make_trainer(
        method, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=ranks, seed=0),
        cfg, CostModel.from_spec(LENET), **kwargs,
    )


def _straddling_plan(step_time, straggler=False):
    """Worker 2 dies for good early, worker 1 is away over the middle of
    a 16-step run; times are in units of the healthy run's step."""
    plan = (FaultPlan(seed=3)
            .crash(2, at=1.5 * step_time)
            .crash(1, at=3.5 * step_time, rejoin_at=10.5 * step_time))
    return plan.straggler(3, factor=2.0) if straggler else plan


# ---------------------------------------------------------------------------
# (i) the clock golden
# ---------------------------------------------------------------------------
def _clock_cases():
    cases = {}
    for name in SYNC_NAMES:
        for ranks in (4, 3):
            cases[f"{name} P={ranks}"] = (name, ranks, {})
    cases["sync-sgd ring"] = ("sync-sgd", 4, {"collective": "ring"})
    cases["sync-sgd 4-bit"] = ("sync-sgd", 4, {"quantize_bits": 4})
    cases["sync-easgd3 unpacked"] = ("sync-easgd3", 4, {"packed": False})
    cases["knl-sync-easgd overlap off"] = ("knl-sync-easgd", 4, {"overlap": False})
    cases["cluster-sync-easgd overlap off"] = ("cluster-sync-easgd", 4, {"overlap": False})
    cases["cluster-sync-easgd ring"] = ("cluster-sync-easgd", 4, {"allreduce": "ring"})
    for name in FAULT_NAMES:
        cases[f"{name} faulted"] = (name, 4, {"faults": True})
    return cases


CLOCK_CASES = _clock_cases()


def clock_entry(case):
    """One run's simulated clock, every float as ``float.hex``."""
    method, ranks, kwargs = CLOCK_CASES[case]
    kwargs = dict(kwargs)
    steps = CLOCK_STEPS
    if kwargs.pop("faults", False):
        steps = 16  # long enough for the crash, the rebuild and the rejoin
        healthy = _trainer(method, ranks).train(steps)
        kwargs["faults"] = _straddling_plan(healthy.sim_time / steps, straggler=True)
    trainer = _trainer(method, ranks, **kwargs)
    entry = {}
    if hasattr(trainer, "iteration_time"):
        # Asked of a trainer that never ran: KNL's draws one jitter sample
        # per node, so the answer depends on where the streams stand.
        entry["iteration_time"] = trainer.iteration_time().hex()
        trainer = _trainer(method, ranks, **kwargs)
    result = trainer.train(steps)
    entry["sim_time"] = result.sim_time.hex()
    entry["records"] = [r.sim_time.hex() for r in result.records]
    entry["parts"] = {part: v.hex() for part, v in result.breakdown.parts.items()}
    if result.fault_log is not None:
        entry["fault_log"] = [[r.time.hex(), r.kind, r.subject, r.detail]
                              for r in result.fault_log.records]
    return entry


@pytest.mark.parametrize("case", sorted(CLOCK_CASES))
def test_clock_matches_golden(case):
    assert GOLDEN.exists(), (
        f"missing {GOLDEN.name}; bless it with "
        "`PYTHONPATH=src python tests/test_sync_families.py --regenerate`"
    )
    golden = json.loads(GOLDEN.read_text())
    assert clock_entry(case) == golden[case], (
        f"the simulated clock of {case!r} moved. If the change is intentional, "
        "regenerate the golden and review the diff."
    )


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CLOCK_CASES)


@pytest.mark.parametrize("name", FAULT_NAMES)
def test_faulted_case_exercises_rebuild_and_rejoin(name):
    """The faulted golden entries are only a net if the plan bites."""
    kinds = [rec[1] for rec in json.loads(GOLDEN.read_text())[f"{name} faulted"]["fault_log"]]
    assert kinds.count("crash") == 2 and kinds.count("rejoin") == 1


# ---------------------------------------------------------------------------
# (ii) resume == straight run
# ---------------------------------------------------------------------------
N, K, EVERY = 16, 8, 4


def _resume_pair(tmp_path, method, **kwargs):
    def build(directory):
        return _trainer(method, eval_every=EVERY, trace=True, checkpoint_every=EVERY,
                        checkpoint_dir=str(tmp_path / directory), **kwargs)

    straight = build("straight").train(N)
    build("resumed").train(K)
    resumed = build("resumed").train(N, resume=True)
    return straight, resumed


@pytest.mark.parametrize("method", sorted(ALGORITHMS))
def test_resume_equals_straight_run(tmp_path, method):
    straight, resumed = _resume_pair(tmp_path, method)
    assert run_signature(resumed) == run_signature(straight)


@pytest.mark.faults
@pytest.mark.parametrize("method", FAULT_NAMES)
def test_resume_equals_straight_run_across_a_degraded_window(tmp_path, method):
    healthy = _trainer(method, eval_every=EVERY).train(N)
    plan = _straddling_plan(healthy.sim_time / N)
    straight, resumed = _resume_pair(tmp_path, method, faults=plan)

    # Both crashes took effect before the resume point and the rejoin
    # after it: the checkpoint at K holds a two-rank group.
    t_resume = straight.records[K // EVERY - 1].sim_time
    times = {(r.kind, r.subject): r.time for r in straight.fault_log.records}
    assert times["crash", "worker 1"] < t_resume and times["crash", "worker 2"] < t_resume
    assert t_resume < times["rejoin", "worker 1"] <= straight.sim_time

    assert run_signature(resumed) == run_signature(straight)
    assert resumed.fault_log.records == straight.fault_log.records


def test_resume_restores_the_quantization_stream(tmp_path):
    straight, resumed = _resume_pair(tmp_path, "sync-sgd", quantize_bits=4)
    assert run_signature(resumed) == run_signature(straight)


# ---------------------------------------------------------------------------
# (iii) the numerics oracle
# ---------------------------------------------------------------------------
ORACLE_RANKS, ORACLE_STEPS = 3, 6


def _reference_center(label):
    """Sync EASGD from the public pieces: Eq 1 on every worker against the
    pre-update center, then Eq 2 over the pre-update workers."""
    train, _ = _data()
    net, loss = build_mlp(seed=0), SoftmaxCrossEntropy()
    hyper = EASGDHyper(lr=0.05, rho=2.0)
    center = net.get_params()
    workers = [center.copy() for _ in range(ORACLE_RANKS)]
    samplers = [BatchSampler(train, 16, 0, name=(label, j)) for j in range(ORACLE_RANKS)]
    for _ in range(ORACLE_STEPS):
        grads = []
        for w, sampler in zip(workers, samplers):
            net.set_params(w)
            net.gradient(*sampler.next_batch(), loss)
            grads.append(net.grads.copy())
        before = [w.copy() for w in workers]
        for w, grad in zip(workers, grads):
            elastic_worker_update(w, grad, center, hyper)
        # At P=3 the trainers' binomial tree and Eq 2's flat sum associate
        # alike, (w0 + w1) + w2, so the library's Eq 2 is the oracle.
        np.testing.assert_array_equal(tree_reduce(before), before[0] + before[1] + before[2])
        elastic_center_update(center, before, hyper)
    return center


def _final_center(trainer):
    pipeline = StepPipeline(trainer, trainer.make_step())
    pipeline.run(ORACLE_STEPS)
    return pipeline.strategy.eval_params()


def _direct(cls, platform):
    train, test = _data()
    cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0, eval_every=ORACLE_STEPS,
                        eval_samples=64)
    return cls(build_mlp(seed=0), train, test, platform, cfg, CostModel.from_spec(LENET))


ORACLE_TRAINERS = {
    "sync-easgd1": ("worker", lambda: _trainer("sync-easgd1", ORACLE_RANKS)),
    "sync-easgd2": ("worker", lambda: _trainer("sync-easgd2", ORACLE_RANKS)),
    "sync-easgd3": ("worker", lambda: _trainer("sync-easgd3", ORACLE_RANKS)),
    "knl": ("node", lambda: _direct(
        KnlSyncEASGDTrainer, KnlPlatform(num_nodes=ORACLE_RANKS, seed=0))),
    "cluster": ("cluster-worker", lambda: _direct(
        ClusterSyncEASGDTrainer,
        GpuClusterPlatform(num_nodes=ORACLE_RANKS, gpus_per_node=1, seed=0))),
}


@pytest.mark.parametrize("family", sorted(ORACLE_TRAINERS))
def test_final_center_matches_reference_loop(family):
    label, build = ORACLE_TRAINERS[family]
    np.testing.assert_array_equal(_final_center(build()), _reference_center(label))


# ---------------------------------------------------------------------------
# (iv) sim == ranks: every rank twin lands on the simulator's bits
# ---------------------------------------------------------------------------
TWIN_STEPS = 6

#: family -> (registry name, trainer kwargs, rank twin with the same knobs).
RANK_TWINS = {
    "sync-sgd tree": ("sync-sgd", {},
                      lambda *a, **k: run_mpi_sync_sgd(*a, collective="tree", **k)),
    "sync-sgd ring": ("sync-sgd", {"collective": "ring"},
                      lambda *a, **k: run_mpi_sync_sgd(*a, collective="ring", **k)),
    "sync-easgd": ("sync-easgd", {}, run_mpi_sync_easgd),
    "gossip-sgd": ("gossip-sgd", {}, run_mpi_gossip),
}

#: substrate -> launch options; "pool" cells get the module's WorkerPool.
SUBSTRATES = {
    "threads": {"backend": "threads"},
    "processes/shm": {"backend": "processes", "transport": "shm"},
    "processes/queue": {"backend": "processes", "transport": "queue"},
    "pool": {"backend": "processes"},
}


def _bits(arrays):
    return [a.tobytes() for a in arrays]


@lru_cache(maxsize=None)
def _simulated_bits(family, ranks):
    """The simulated trainer's final center and every worker's replica (a
    rule without replicas computes every worker at the center)."""
    method, kwargs, _ = RANK_TWINS[family]
    trainer = _trainer(method, ranks, **kwargs)
    pipeline = StepPipeline(trainer, trainer.make_step())
    pipeline.run(TWIN_STEPS)
    step = pipeline.strategy
    center = step.eval_params()
    replicas = step.rule.replicas(step.state) or [center] * ranks
    return _bits([center]), _bits(replicas)


@pytest.fixture(scope="module")
def twin_pool():
    with WorkerPool(4) as pool:
        yield pool


@pytest.mark.mp
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("ranks", [2, 3, 4])
@pytest.mark.parametrize("family", sorted(RANK_TWINS))
def test_rank_twin_matches_simulated_trainer(request, family, ranks, substrate):
    launch = dict(SUBSTRATES[substrate])
    if launch["backend"] == "processes" and not fork_available():
        pytest.skip("needs the fork start method")
    if substrate == "pool":
        launch["pool"] = request.getfixturevalue("twin_pool")
    _, _, twin = RANK_TWINS[family]
    train, _ = _data()
    result = twin(build_mlp(seed=0), train, ranks, TWIN_STEPS, batch_size=16, lr=0.05,
                  seed=0, **launch)
    center, replicas = _simulated_bits(family, ranks)
    assert _bits([result.center]) == center
    assert _bits(result.worker_weights) == replicas


BAD_HYPERPARAMETERS = {
    "lr=0": {"lr": 0.0},
    "lr<0": {"lr": -0.05},
    "batch_size=0": {"batch_size": 0},
    "batch_size>dataset": {"batch_size": 10_000},
    "iterations=0": {"iterations": 0},
    "ranks=0": {"ranks": 0},
}


@pytest.mark.parametrize("bad", sorted(BAD_HYPERPARAMETERS))
@pytest.mark.parametrize("family", sorted(RANK_TWINS))
def test_rank_twin_refuses_bad_hyperparameters_before_any_rank_starts(
        monkeypatch, family, bad):
    def no_launch(*args, **kwargs):
        raise AssertionError("a rank launched")

    monkeypatch.setattr("repro.algorithms.launch.make_communicator", no_launch)
    _, _, twin = RANK_TWINS[family]
    run = {"ranks": 4, "iterations": 2, "batch_size": 16, "lr": 0.05,
           **BAD_HYPERPARAMETERS[bad]}
    with pytest.raises(ValueError):
        twin(build_mlp(seed=0), _data()[0], seed=0, backend="processes", **run)


def regenerate() -> None:
    doc = {case: clock_entry(case) for case in sorted(CLOCK_CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(doc)} cases)")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_sync_families.py --regenerate")
    regenerate()
