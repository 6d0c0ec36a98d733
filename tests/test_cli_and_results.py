"""CLI and JSON result archiving."""

import json
from pathlib import Path
import re
import shlex

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.harness.cli import _build_parser, main
from repro.harness.experiment import ExperimentSpec, run_method
from repro.harness.results import result_to_dict, results_from_json, results_to_json, SCHEMA_VERSION
from repro.nn.models import build_mlp
from repro.util.blas import blas_threads


@pytest.fixture(scope="module")
def quick_result(mnist_tiny_module):
    train, test = mnist_tiny_module
    spec = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_mlp(seed=1),
        num_gpus=2,
        config=TrainerConfig(batch_size=16, lr=0.03, rho=2.0, eval_every=10, eval_samples=128),
    )
    spec.normalized = True
    return run_method(spec, "sync-easgd3", iterations=20)


@pytest.fixture(scope="module")
def mnist_tiny_module():
    from repro.data import make_mnist_like, standardize, standardize_like

    train, test = make_mnist_like(n_train=256, n_test=128, seed=77, difficulty=0.8)
    mean, std = standardize(train)
    standardize_like(test, mean, std)
    return train, test


class TestResultsSerialization:
    def test_roundtrip(self, quick_result, tmp_path):
        path = tmp_path / "runs.json"
        results_to_json([quick_result], path)
        data = results_from_json(path)
        assert len(data) == 1
        entry = data[0]
        assert entry["method"] == "Sync EASGD3"
        assert entry["schema"] == SCHEMA_VERSION
        assert entry["final_accuracy"] == pytest.approx(quick_result.final_accuracy)
        assert len(entry["records"]) == len(quick_result.records)

    def test_dict_is_json_safe(self, quick_result):
        json.dumps(result_to_dict(quick_result))  # must not raise

    def test_extras_state_the_blas_budget_the_run_computed_under(self, quick_result):
        assert quick_result.extras["blas_threads"] == blas_threads()
        assert result_to_dict(quick_result)["extras"]["blas_threads"] == blas_threads()

    def test_from_document_string(self, quick_result):
        doc = results_to_json([quick_result])
        assert results_from_json(doc)[0]["iterations"] == quick_result.iterations

    def test_schema_mismatch_rejected(self):
        bad = json.dumps([{"schema": 999}])
        with pytest.raises(ValueError, match="schema"):
            results_from_json(bad)

    def test_non_list_rejected(self):
        with pytest.raises(ValueError):
            results_from_json(json.dumps({"schema": 1}))


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert set(out) == set(ALGORITHMS)

    def test_table_2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "Mellanox" in capsys.readouterr().out

    def test_table_1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "60,000" in capsys.readouterr().out

    def test_table_4(self, capsys):
        assert main(["table", "4"]) == 0
        assert "4352 cores" in capsys.readouterr().out

    def test_run_fixed_iterations(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            [
                "run",
                "--method", "sync-easgd3",
                "--iterations", "20",
                "--train-samples", "256",
                "--batch-size", "16",
                "--json", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sync EASGD3" in out and "comm ratio" in out
        assert path.exists()
        assert results_from_json(path)[0]["iterations"] == 20

    def test_run_to_target(self, capsys):
        code = main(
            [
                "run",
                "--method", "sync-easgd3",
                "--model", "mlp",
                "--iterations", "150",
                "--target", "0.5",
                "--train-samples", "256",
                "--batch-size", "16",
                "--difficulty", "0.8",
            ]
        )
        assert code == 0
        assert "reached target" in capsys.readouterr().out

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--method", "quantum-sgd"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["run", "--method", "sync-easgd", "--transport", "queue"],
        ["run", "--method", "sync-easgd", "--wire-dtype", "float16"],
        ["knl", "--transport", "queue"],
        ["sweep", "--method", "sync-easgd3", "--grid", "lr=0.05", "--backend", "threads"],
    ])
    def test_removed_comm_flags_exit_2(self, argv, capsys):
        # The first three used to parse, validate, and then change nothing;
        # `sweep --backend threads` chose a threads pool, which is gone (a
        # sweep without --pool runs inline, in this process).
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_backend_flag_exits_2(self, capsys):
        # No registry trainer takes a backend: `run --backend` parsed,
        # validated, and changed nothing (`knl` passes its own to
        # ChipPartitionTrainer and keeps it).
        with pytest.raises(SystemExit) as ei:
            main(["run", "--method", "sync-easgd", "--backend", "processes"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--backend" in err

    SWEEP = ["sweep", "--method", "sync-easgd3", "--iterations", "4",
             "--train-samples", "256", "--batch-size", "16"]

    def test_sweep_inline_prints_table_and_best_point(self, capsys):
        assert main(self.SWEEP + ["--grid", "lr=0.01,0.05"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^lr\s+accuracy\s+wall s\s+spinup s$", out, re.M)
        assert re.search(r"^0\.01\s+\d\.\d{3}", out, re.M)
        assert re.search(r"^0\.05\s+\d\.\d{3}", out, re.M)
        assert "2 cells (inline)" in out
        assert re.search(r"^best: lr=0\.0[15] \(accuracy \d\.\d{3}\)$", out, re.M)

    def test_sweep_duplicate_grid_value_exits_2(self, capsys):
        assert main(self.SWEEP + ["--grid", "lr=0.01,0.01"]) == 2
        err = capsys.readouterr().err
        assert "invalid --grid spec" in err and "'lr' lists 0.01 more than once" in err

    def test_sweep_rerun_loads_every_cell_from_its_marker(self, capsys, tmp_path, monkeypatch):
        argv = self.SWEEP + ["--grid", "lr=0.01,0.05;rho=2.0", "--checkpoint-root", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 cells (inline):" in first
        assert sorted(p.name for p in tmp_path.glob("*.done.pkl")) == [
            "lr=0.01,rho=2.0.done.pkl", "lr=0.05,rho=2.0.done.pkl"]

        def no_cell(*_):
            raise AssertionError("a finished cell ran again")

        monkeypatch.setattr("repro.harness.sweeps._sweep_cell_main", no_cell)
        assert main(argv) == 0
        again = capsys.readouterr().out
        assert "2 cells (inline, 2 loaded from done-markers):" in again
        table = lambda out: out.split("\n\n")[0]
        assert table(again) == table(first)  # the markers' wall and spin-up times too

    @pytest.mark.parametrize("method,flag,value", [
        ("async-easgd", "--local-steps", "4"),
        ("downpour", "--tau", "3"),
        ("sync-sgd", "--tau", "3"),
        ("knl-sync-easgd", "--faults", "crash:1@0.01"),
        ("cluster-sync-easgd", "--faults", "crash:1@0.01"),
        ("sync-easgd", "--collective", "ring"),  # only sync-sgd reads it
        ("async-easgd", "--collective", "ring"),
        ("sync-easgd", "--collective", "tree"),  # even sync-sgd's default
    ])
    def test_unsupported_ps_option_exits_2(self, method, flag, value, capsys):
        # A knob the method cannot honour is refused by name, not ignored.
        code = main(["run", "--method", method, flag, value,
                     "--iterations", "4", "--train-samples", "256"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"method {method!r} does not support {flag}" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--iterations", "0", "--iterations must be >= 1"),
        ("--requests", "0", "--requests must be >= 1"),
        ("--clients", "0", "--clients must be >= 1"),
        ("--batch-cap", "0", "--batch-cap must be >= 1"),
        ("--publish-every", "0", "--publish-every must be >= 1"),
        ("--max-wait", "-0.001", "--max-wait must be >= 0"),
        ("--think", "-0.001", "--think must be >= 0"),
        ("--rate", "0", "--rate must be positive"),
        ("--max-staleness-steps", "-1", "--max-staleness-steps must be >= 0"),
    ])
    def test_serve_bad_knob_exits_2_before_training(self, flag, value, message,
                                                     capsys, monkeypatch):
        def no_training(*_, **__):
            raise AssertionError("training started before the knobs were checked")

        monkeypatch.setattr("repro.harness.cli.run_method", no_training)
        assert main(["serve", "--model", "mlp", f"{flag}={value}"]) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("line,message", [
        ('sweep --method sync-easgd3 --grid "lr=0.01,0.03" --iterations 3 '
         "--train-samples 256 --pool-size 0", "--pool-size must be >= 1"),
        ("knl --parts 0", "--parts must be >= 1"),
        ("knl --parts -2", "--parts must be >= 1"),
        ("knl --iterations 0", "--iterations must be >= 1"),
        ("run --method sync-sgd --iterations 0", "--iterations must be >= 1"),
        ('sweep --method sync-sgd --grid "lr=0.01" --iterations 0',
         "--iterations must be >= 1"),
        ("serve --model mlp --gpus 0", "--gpus must be >= 1"),
    ])
    def test_a_bad_count_exits_2_by_name_on_every_command(self, line, message, capsys,
                                                          monkeypatch):
        def no_training(*_, **__):
            raise AssertionError("a run started before the counts were checked")

        monkeypatch.setattr("repro.harness.cli.run_method", no_training)
        monkeypatch.setattr("repro.harness.cli.grid_sweep", no_training)
        assert main(shlex.split(line)) == 2
        assert capsys.readouterr().err.strip() == message

    def test_serve_closed_loop_serves_every_request(self, capsys, tmp_path):
        # --requests is the total, whether or not --clients divides it.
        path = tmp_path / "serve.json"
        for requests, clients in ((16, 2), (15, 2), (1, 4)):
            code = main(["serve", "--model", "mlp", "--iterations", "5",
                         "--train-samples", "256", "--requests", str(requests),
                         "--loop", "closed", "--clients", str(clients),
                         "--json", str(path)])
            assert code == 0
            assert re.search(r"^invariants\s+: .+ ok$", capsys.readouterr().out, re.M)
            doc = json.loads(path.read_text())
            assert doc["serve"]["served"] == requests, (requests, clients)
            assert (doc["iterations"], doc["knobs"]["loop"]) == (5, "closed")

    @pytest.mark.parametrize("publishes", [0, 1])
    def test_serve_training_failure_exits_3_naming_it(self, publishes, capsys,
                                                      monkeypatch):
        # Before the first publish (the front-end never starts) or after.
        def failing(spec, method, iterations, snapshotter):
            for step in range(1, publishes + 1):
                snapshotter.publish(np.zeros(snapshotter.elems, np.float32), step)
            raise FloatingPointError("loss diverged")

        monkeypatch.setattr("repro.harness.cli.run_method", failing)
        assert main(["serve", "--model", "mlp", "--train-samples", "256",
                     "--requests", "4"]) == 3
        assert (capsys.readouterr().err.strip()
                == "training failed: FloatingPointError: loss diverged")


def test_docs_name_only_benchmarks_that_exist():
    """Every ``benchmarks/*.py`` and root ``BENCH_*.json`` that a doc, the
    CI workflow or the verify skill names is in the tree (CHANGES.md and
    ROADMAP.md are history and may name retired ones)."""
    root = Path(__file__).resolve().parent.parent
    sources = [
        root / "README.md", root / "EXPERIMENTS.md", root / "DESIGN.md",
        *sorted((root / "docs").glob("*.md")),
        root / ".github" / "workflows" / "ci.yml",
        root / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    missing = []
    for source in sources:
        text = source.read_text()
        named = set(re.findall(r"benchmarks/[\w/]+\.py", text))
        named |= {f"benchmarks/{n}" for n in re.findall(r"(?<![\w/])bench_\w+\.py", text)}
        named |= set(re.findall(r"(?<![\w/])BENCH_\w+\.json", text))
        missing += [
            f"{source.relative_to(root)}: {name}"
            for name in sorted(named) if not (root / name).exists()
        ]
    assert not missing, missing


#: "ROADMAP 1(b)", "ROADMAP's item 3", "ROADMAP #2", "item 4 of the ROADMAP"
#: — but not a value such as "ROADMAP's 1.15 gate".
_ROADMAP_ITEM_NUMBER = re.compile(
    r"ROADMAP(?:'s)?\s+(?:[Ii]tem\s+|#|§)?\d+(?![.\d])"
    r"|\b[Ii]tems?\s+\d+(?:\([a-z]\))?\s+(?:of|in)\s+(?:the\s+)?ROADMAP"
)


def test_docs_cite_roadmap_items_by_title():
    """Re-anchors renumber the ROADMAP's items, so ``docs/*.md`` and the
    README cite an item by its title, never by its number."""
    root = Path(__file__).resolve().parent.parent
    cited = [
        f"{source.relative_to(root)}: {m.group(0)!r}"
        for source in [root / "README.md", *sorted((root / "docs").glob("*.md"))]
        for m in _ROADMAP_ITEM_NUMBER.finditer(source.read_text())
    ]
    assert not cited, cited
    for text in ("ROADMAP 1(b)'s gate", "ROADMAP 5(b)", "ROADMAP's item 3",
                 "ROADMAP\n#2", "item 4 of the ROADMAP"):
        assert _ROADMAP_ITEM_NUMBER.search(text), text
    assert not _ROADMAP_ITEM_NUMBER.search("ROADMAP's 1.15 gate")


def _doc_command_lines():
    """Every ``python -m repro ...`` line inside a fenced code block of the
    README, EXPERIMENTS, DESIGN and ``docs/*.md``, backslash continuations
    joined, a leading ``$ `` or ``PYTHONPATH=src `` and a trailing
    ``# comment`` stripped."""
    root = Path(__file__).resolve().parent.parent
    sources = [root / "README.md", root / "EXPERIMENTS.md", root / "DESIGN.md",
               *sorted((root / "docs").glob("*.md"))]
    lines = []
    for source in sources:
        fenced = re.findall(r"^```[^\n]*\n(.*?)^```", source.read_text(), re.M | re.S)
        for block in fenced:
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                line = re.sub(r"^\s*(\$ )?(PYTHONPATH=src )?", "", line)
                if line.startswith("python -m repro "):
                    lines.append((source.name, line.split(" #")[0].strip()))
    return lines


def test_docs_quote_command_lines():
    assert len(_doc_command_lines()) >= 6  # the README's six, at least


@pytest.mark.parametrize("source,line", _doc_command_lines())
def test_docs_command_lines_parse(source, line):
    """A flag the docs quote still exists: each quoted line parses."""
    _build_parser().parse_args(shlex.split(line)[3:])
