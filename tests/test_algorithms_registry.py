"""Registry: every advertised method constructs and runs."""

import argparse
import ast
from pathlib import Path

import pytest

from repro.algorithms import (
    ALGORITHM_INFO,
    ALGORITHMS,
    make_trainer,
    UnsupportedOptionError,
)
from repro.algorithms.async_ps import AsyncPSTrainer
from repro.algorithms.base import BaseTrainer
from repro.algorithms.ps_runner import PS_RUNNER_METHODS
from repro.algorithms.registry import _ACCEPTS
from repro.cluster import CostModel, GpuPlatform
from repro.engine.ps import PS_FAMILIES
from repro.faults import FaultPlan
from repro.harness.cli import _build_parser, main
from repro.nn.models import build_mlp
from repro.nn.spec import LENET


EXPECTED_METHODS = {
    "original-easgd",
    "original-easgd*",
    "async-sgd",
    "async-msgd",
    "hogwild-sgd",
    "sync-sgd",
    "sync-sgd-unpacked",
    "async-easgd",
    "async-measgd",
    "hogwild-easgd",
    "sync-easgd1",
    "sync-easgd2",
    "sync-easgd3",
    "sync-easgd",
    "knl-sync-easgd",
    "cluster-sync-easgd",
    "downpour",
    "adag",
    "eamsgd",
    "gossip-sgd",
    "bounded-async-easgd",
}

#: ``repro --list-algorithms``, byte for byte. The ten asynchronous rows'
#: class / mode / staleness columns are derived from ``PS_FAMILIES``.
LIST_ALGORITHMS = """\
method               family             class          mode   staleness                   paper
-------------------  -----------------  -------------  -----  --------------------------  --------------------------
adag                 parameter server   centered       async  unbounded                   accumulated-gradient ASGD
async-easgd          parameter server   centered       async  unbounded                   Sec 5.1, Eqs 1-2
async-measgd         parameter server   centered       async  unbounded                   Sec 5.1, Eqs 5-6
async-msgd           parameter server   centered       async  unbounded                   Sec 3.1, Eqs 3-4
async-sgd            parameter server   centered       async  unbounded                   Sec 3.1
bounded-async-easgd  parameter server   centered       async  bounded: tau (reject/clip)  bounded-delay EASGD
cluster-sync-easgd   GPU cluster        centered       sync   none (bulk-sync)            Sec 7, Table 4
downpour             parameter server   centered       async  unbounded                   Dean et al. 2012
eamsgd               parameter server   centered       async  unbounded                   Zhang et al. 2015, Eqs 5-6
gossip-sgd           gossip             decentralized  sync   none (pairwise)             Jin et al. 2016
hogwild-easgd        parameter server   centered       async  unbounded                   Sec 5.1
hogwild-sgd          parameter server   centered       async  unbounded                   Sec 3.2
knl-sync-easgd       KNL cluster        centered       sync   none (bulk-sync)            Sec 6.2, Alg 4
original-easgd       round-robin EASGD  centered       sync   none (bulk-sync)            Alg 1, Table 3
original-easgd*      round-robin EASGD  centered       sync   none (bulk-sync)            Alg 1, Table 3
sync-easgd           tree EASGD         centered       sync   none (bulk-sync)            Sec 6.1, Alg 3+overlap
sync-easgd1          tree EASGD         centered       sync   none (bulk-sync)            Sec 6.1, Alg 2
sync-easgd2          tree EASGD         centered       sync   none (bulk-sync)            Sec 6.1, Alg 3
sync-easgd3          tree EASGD         centered       sync   none (bulk-sync)            Sec 6.1, Alg 3+overlap
sync-sgd             allreduce SGD      centered       sync   none (bulk-sync)            Sec 5.2, Fig 10
sync-sgd-unpacked    allreduce SGD      centered       sync   none (bulk-sync)            Sec 5.2, Fig 10
"""

#: The arguments every entry takes positionally, in this order.
POSITIONAL = ("network", "train_set", "test_set", "platform", "config", "cost_model")

#: Keywords probed on every entry though at most one takes them: two moved
#: off ``TrainerConfig`` onto one trainer's constructor, two became constants.
RETIRED = {"backend", "collective", "heartbeat_timeout", "overlap"}

#: Every keyword some entry's constructor names beyond ``POSITIONAL``
#: (accepted, or bound by the entry's ``partial`` and so refused), plus
#: ``RETIRED``, each with a value the entries that accept it can build with.
KEYWORDS = {
    "allreduce": "ring",
    "backend": "processes",
    "collective": "tree",
    "faults": FaultPlan().crash(1, at=0.01),
    "family": "async-sgd",
    "heartbeat_timeout": 1.0,
    "local_steps": 2,
    "overlap": False,
    "overlapped": False,
    "packed": True,
    "quantize_bits": 8,
    "staleness_policy": "clip",
    "tau": 3,
    "variant": 2,
}

#: Keywords an entry's name fixes, each with a value that would make it
#: another method; refused by name, never honoured.
BOUND = [
    ("sync-easgd1", "variant", 3),
    ("sync-easgd2", "variant", 3),
    ("sync-easgd3", "variant", 1),
    ("sync-easgd", "variant", 1),
    ("original-easgd", "overlapped", False),
    ("original-easgd*", "overlapped", True),
    ("sync-sgd", "packed", False),
    ("sync-sgd-unpacked", "packed", True),
] + [(key, "family", "async-sgd" if key != "async-sgd" else "hogwild-sgd")
     for key in PS_FAMILIES]


class TestRegistry:
    def test_all_paper_methods_present(self):
        assert EXPECTED_METHODS == set(ALGORITHMS)

    def test_info_covers_every_entry(self):
        assert set(ALGORITHM_INFO) == set(ALGORITHMS)
        for name, info in ALGORITHM_INFO.items():
            assert info.sync in ("sync", "async"), name
            assert info.family, name
            assert info.section, name
            assert info.family_class in ("centered", "decentralized"), name
            assert info.staleness, name

    def test_family_class_metadata(self):
        assert ALGORITHM_INFO["gossip-sgd"].family_class == "decentralized"
        assert ALGORITHM_INFO["async-easgd"].family_class == "centered"
        assert "bounded" in ALGORITHM_INFO["bounded-async-easgd"].staleness
        assert ALGORITHM_INFO["sync-easgd"].staleness.startswith("none")

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            make_trainer("definitely-not-a-method")

    @pytest.mark.parametrize("name", ["knl-sync-easgd", "cluster-sync-easgd"])
    def test_fault_plan_refused_by_name(self, name, mnist_tiny, fast_config):
        # No re-costing story for a shrunken fabric tree / hierarchical
        # allreduce yet: a typed refusal, not an unexpected-keyword TypeError.
        train, test = mnist_tiny
        with pytest.raises(UnsupportedOptionError) as ei:
            make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET),
                faults=FaultPlan().crash(1, at=0.01),
            )
        assert (ei.value.method, ei.value.option) == (name, "faults")

    @pytest.mark.parametrize(
        "name", sorted(EXPECTED_METHODS - {"sync-sgd", "sync-sgd-unpacked"}))
    def test_ring_collective_refused_where_never_read(self, name, mnist_tiny, fast_config):
        # Only SyncSGDTrainer reads collective: anywhere else "ring" would
        # run the tree and report success.
        train, test = mnist_tiny
        with pytest.raises(UnsupportedOptionError) as ei:
            make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET), collective="ring",
            )
        assert (ei.value.method, ei.value.option) == (name, "collective")

    @pytest.mark.parametrize("name", sorted(EXPECTED_METHODS))
    def test_processes_backend_refused(self, name, mnist_tiny, fast_config):
        # Every registry entry is simulated: "processes" would run the
        # simulation anyway and leave result.backend None.
        train, test = mnist_tiny
        with pytest.raises(UnsupportedOptionError) as ei:
            make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET), backend="processes",
            )
        assert (ei.value.method, ei.value.option) == (name, "backend")

    def test_keyword_table_is_every_constructor_keyword(self):
        # Every keyword some entry accepts, plus every keyword an entry's
        # name binds (refused by name, so still a cell of the matrix).
        accepted = set().union(*_ACCEPTS.values())
        bound = {keyword for _, keyword, _ in BOUND}
        assert set(KEYWORDS) == accepted - set(POSITIONAL) | bound | RETIRED

    @pytest.mark.parametrize(
        "name, keyword, value", BOUND, ids=[f"{n}-{k}" for n, k, _ in BOUND])
    def test_bound_keyword_refused(self, name, keyword, value, mnist_tiny, fast_config):
        # A keyword the entry's name fixes would quietly turn the entry
        # into another method ("sync-easgd1" running Sync EASGD3).
        train, test = mnist_tiny
        with pytest.raises(UnsupportedOptionError) as ei:
            make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET), **{keyword: value},
            )
        assert (ei.value.method, ei.value.option) == (name, keyword)

    @pytest.mark.parametrize("name, keyword, value", [
        ("original-easgd", "packed", True),
        ("sync-easgd3", "packed", False),
        ("knl-sync-easgd", "overlap", False),
        ("cluster-sync-easgd", "overlap", False),
        ("async-easgd", "heartbeat_timeout", 1.0),
    ])
    def test_fixed_constants_refused(self, name, keyword, value, mnist_tiny, fast_config):
        # Original EASGD is per-blob, every Sync EASGD exchange one packed
        # buffer, Algorithm 4 always overlaps and the heartbeat scales with
        # the healthy cycle: none of them is a knob.
        train, test = mnist_tiny
        with pytest.raises(UnsupportedOptionError) as ei:
            make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET), **{keyword: value},
            )
        assert (ei.value.method, ei.value.option) == (name, keyword)

    def test_bound_keywords_are_the_partials(self):
        bound = {(name, keyword) for name, factory in ALGORITHMS.items()
                 for keyword in getattr(factory, "keywords", ())}
        assert bound == {(name, keyword) for name, keyword, _ in BOUND}

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    @pytest.mark.parametrize("name", sorted(EXPECTED_METHODS))
    def test_every_keyword_is_built_or_refused_by_name(
            self, name, keyword, mnist_tiny, fast_config):
        # Never a bare TypeError from inside a constructor: the method
        # either honours the keyword or names it in a typed refusal.
        train, test = mnist_tiny
        try:
            tr = make_trainer(
                name, build_mlp(seed=0), train, test, GpuPlatform(num_gpus=2, seed=0),
                fast_config, CostModel.from_spec(LENET), **{keyword: KEYWORDS[keyword]},
            )
        except UnsupportedOptionError as exc:
            assert (exc.method, exc.option) == (name, keyword)
        else:
            assert isinstance(tr, BaseTrainer)

    @pytest.mark.parametrize("name", sorted(EXPECTED_METHODS))
    def test_constructs_and_runs_one_iteration(self, name, mnist_tiny, fast_config):
        train, test = mnist_tiny
        tr = make_trainer(
            name,
            build_mlp(seed=0),
            train,
            test,
            GpuPlatform(num_gpus=2, seed=0),
            fast_config,
            CostModel.from_spec(LENET),
        )
        assert isinstance(tr, BaseTrainer)
        res = tr.train(4)
        assert res.iterations == 4
        assert res.sim_time > 0

    def test_list_algorithms_output_is_pinned(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--list-algorithms"])
        assert ei.value.code == 0
        assert capsys.readouterr().out == LIST_ALGORITHMS

    def test_async_entries_are_the_family_table(self):
        for key, row in PS_FAMILIES.items():
            factory = ALGORITHMS[key]
            assert (factory.func, factory.keywords) == (AsyncPSTrainer, {"family": key})
            info = ALGORITHM_INFO[key]
            assert (info.sync, info.family_class) == ("async", row.kind)
            assert info.staleness.startswith("bounded") == row.bounded

    def test_docs_async_rows_match_the_family_table(self):
        """docs/algorithms.md's pattern and staleness columns for the async
        rows are generated text: ``row.pattern`` and the registry staleness;
        the rank-twin cell names the runner whose tuple holds the row."""
        doc = Path(__file__).parent.parent / "docs" / "algorithms.md"
        tables, cells = {}, None
        for line in doc.read_text().splitlines():
            cols = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| method"):
                cells = tables.setdefault(tuple(cols), {})
            elif line.startswith("| `"):
                cells[cols[0].strip("`")] = cols
        families = tables[("method", "update scheme", "communication pattern",
                           "staleness bound", "reference")]
        twins = tables[("method", "rank twin")]
        runners = (("run_mpi_ps", "PS_RUNNER_METHODS", PS_RUNNER_METHODS),)
        for key, row in PS_FAMILIES.items():
            assert families[key][2] == row.pattern, key
            assert families[key][3] == ALGORITHM_INFO[key].staleness, key
            derived = "; ".join(f"`{runner}` (`{name}`)"
                                for runner, name, keys in runners if key in keys)
            if derived:
                assert twins[key][1] == derived, key
            else:  # no twin: the cell says why
                assert twins[key][1].startswith("— ("), key


#: The entry points a program hands trainer keywords to.
ENTRY_POINTS = {"run_method", "run_methods", "build_trainer", "make_trainer"}

ROOT = Path(__file__).parent.parent


def _program_files():
    """Every Python file of the program, less the registry's own table."""
    registry = ROOT / "src" / "repro" / "algorithms" / "registry.py"
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != registry:
                yield path


def _trainer_classes(trees):
    """Names of every ``BaseTrainer`` subclass defined in ``src/``."""
    classes, grew = {"BaseTrainer"}, True
    while grew:
        grew = False
        for tree in trees:
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and node.name not in classes
                        and any(getattr(b, "id", getattr(b, "attr", None)) in classes
                                for b in node.bases)):
                    classes.add(node.name)
                    grew = True
    return classes


def _keywords_passed_by_name():
    """Keywords some call in the program passes by name to a trainer entry
    point or a trainer class."""
    trees = {path: ast.parse(path.read_text()) for path in _program_files()}
    callees = ENTRY_POINTS | _trainer_classes(
        tree for path, tree in trees.items() if (ROOT / "src") in path.parents)
    passed = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in callees:
                passed |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return passed


def test_every_accepted_keyword_is_passed_by_the_program():
    """A keyword ``make_trainer`` accepts is one a program turns: the
    ``dest`` of a ``repro run`` flag, or passed by name to a trainer entry
    point somewhere in ``src/``, ``benchmarks/`` or ``examples/``. A knob
    only tests turn is a second way to configure; make it the constant
    every program already runs with."""
    subcommands = next(a for a in _build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    flags = {action.dest for action in subcommands.choices["run"]._actions}
    accepted = set().union(*_ACCEPTS.values()) - set(POSITIONAL)
    unturned = sorted(accepted - flags - _keywords_passed_by_name())
    assert unturned == [], f"keywords no program passes: {unturned}"
