"""Golden-trace regression tests: canonical JSONL replays, byte-identical.

Each golden file under ``tests/golden/`` is the full event stream of a tiny
seeded 4-rank run of one method. The tests regenerate the run and compare
the serialized trace byte-for-byte, so *any* change to event ordering,
timing math, schedule shape, or serialization shows up as a diff — the
trace equivalent of a numerics bit-exactness test.

To bless new goldens after an intentional change::

    PYTHONPATH=src python tests/test_trace_golden.py --regenerate
"""

from pathlib import Path
import sys

import pytest

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.algorithms.original_easgd import OriginalEASGDTrainer
from repro.algorithms.ps_zoo import GossipSGDTrainer
from repro.algorithms.sync_easgd import SyncEASGDTrainer
from repro.algorithms.sync_sgd import SyncSGDTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.data import make_mnist_like, standardize, standardize_like
from repro.nn.models import build_mlp
from repro.nn.spec import LENET
from repro.trace import check_all, from_jsonl, to_jsonl

pytestmark = pytest.mark.trace

GOLDEN_DIR = Path(__file__).parent / "golden"

ITERATIONS = 8
RANKS = 4

#: method name -> (trainer factory, extra ctor kwargs)
METHODS = {
    "original-easgd": (OriginalEASGDTrainer, {}),
    "sync-easgd1": (SyncEASGDTrainer, {"variant": 1}),
    "sync-easgd3": (SyncEASGDTrainer, {"variant": 3}),
    "sync-sgd": (SyncSGDTrainer, {}),
    "sync-sgd-ring": (SyncSGDTrainer, {"collective": "ring"}),
    "async-easgd": (ALGORITHMS["async-easgd"], {}),
    # the parameter-server zoo (PS protocol layer families)
    "downpour": (ALGORITHMS["downpour"], {}),
    "adag": (ALGORITHMS["adag"], {}),
    "eamsgd": (ALGORITHMS["eamsgd"], {}),
    "gossip-sgd": (GossipSGDTrainer, {}),
    "bounded-async-easgd": (ALGORITHMS["bounded-async-easgd"], {}),
}


def golden_run(method: str):
    """The canonical tiny experiment; must stay deterministic end to end."""
    cls, kw = METHODS[method]
    train, test = make_mnist_like(n_train=256, n_test=128, seed=5, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    cfg = TrainerConfig(batch_size=16, lr=0.05, rho=2.0, seed=0,
                        eval_every=100, eval_samples=64, trace=True)
    trainer = cls(
        build_mlp(seed=0), train, test, GpuPlatform(num_gpus=RANKS, seed=0),
        cfg, CostModel.from_spec(LENET), **kw,
    )
    result = trainer.train(ITERATIONS)
    assert result.trace is not None
    return result.trace


@pytest.mark.parametrize("method", sorted(METHODS))
def test_golden_trace_is_bit_identical(method):
    path = GOLDEN_DIR / f"{method}.jsonl"
    assert path.exists(), (
        f"missing golden {path.name}; bless it with "
        "`PYTHONPATH=src python tests/test_trace_golden.py --regenerate`"
    )
    expected = path.read_text()
    actual = to_jsonl(golden_run(method))
    assert actual == expected, (
        f"{method} trace diverged from golden {path.name}. If the change is "
        "intentional, regenerate the goldens and review the diff."
    )


@pytest.mark.parametrize("method", sorted(METHODS))
def test_golden_file_replays_and_passes_invariants(method):
    """The archived stream itself parses and satisfies its own invariants."""
    path = GOLDEN_DIR / f"{method}.jsonl"
    assert path.exists()
    trace = from_jsonl(path)
    assert trace.meta["ranks"] == RANKS
    assert len(trace) > 0
    ran = check_all(trace)
    assert "message-conservation" in ran


def test_golden_run_is_deterministic():
    """Two in-process runs serialize identically (precondition for goldens)."""
    a = to_jsonl(golden_run("sync-easgd3"))
    b = to_jsonl(golden_run("sync-easgd3"))
    assert a == b


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for method in sorted(METHODS):
        path = GOLDEN_DIR / f"{method}.jsonl"
        doc = to_jsonl(golden_run(method), path)
        print(f"wrote {path} ({doc.count(chr(10)) + 1} lines)")


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_trace_golden.py --regenerate")
    regenerate()
