"""Registry: every advertised method constructs and runs."""

from pathlib import Path

import pytest

from repro.algorithms import (
    ALGORITHM_INFO,
    ALGORITHMS,
    make_trainer,
    UnsupportedOptionError,
)
from repro.algorithms.base import BaseTrainer
from repro.cluster import CostModel, GpuPlatform
from repro.engine.ps import PS_FAMILIES
from repro.faults import FaultPlan
from repro.harness.cli import main
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
            assert ALGORITHMS[key].row is row
            info = ALGORITHM_INFO[key]
            assert (info.sync, info.family_class) == ("async", row.kind)
            assert info.staleness.startswith("bounded") == row.bounded

    def test_docs_async_rows_match_the_family_table(self):
        """docs/algorithms.md's pattern and staleness columns for the async
        rows are generated text: ``row.pattern`` and the registry staleness."""
        doc = Path(__file__).parent.parent / "docs" / "algorithms.md"
        cells = {}
        for line in doc.read_text().splitlines():
            if line.startswith("| `"):
                cols = [c.strip() for c in line.strip("|").split("|")]
                cells[cols[0].strip("`")] = cols
        for key, row in PS_FAMILIES.items():
            assert cells[key][2] == row.pattern, key
            assert cells[key][3] == ALGORITHM_INFO[key].staleness, key

