"""CLI and JSON result archiving."""

import json
from pathlib import Path
import re

import pytest

from repro.algorithms import ALGORITHMS, TrainerConfig
from repro.harness.cli import main
from repro.harness.experiment import ExperimentSpec, run_method
from repro.harness.results import result_to_dict, results_from_json, results_to_json, SCHEMA_VERSION
from repro.nn.models import build_mlp


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
    ])
    def test_removed_comm_flags_exit_2(self, argv, capsys):
        # These used to parse, validate, and then change nothing.
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_backend_flag_exits_2(self, capsys):
        # No registry trainer reads TrainerConfig.backend: `run --backend`
        # parsed, validated, and changed nothing (`knl` and `sweep` honour
        # theirs and keep it).
        with pytest.raises(SystemExit) as ei:
            main(["run", "--method", "sync-easgd", "--backend", "processes"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "--backend" in err

    @pytest.mark.parametrize("method,flag,value", [
        ("async-easgd", "--local-steps", "4"),
        ("downpour", "--tau", "3"),
        ("sync-sgd", "--tau", "3"),
        ("knl-sync-easgd", "--faults", "crash:1@0.01"),
        ("cluster-sync-easgd", "--faults", "crash:1@0.01"),
    ])
    def test_unsupported_ps_option_exits_2(self, method, flag, value, capsys):
        # A knob the method cannot honour is refused by name, not ignored.
        code = main(["run", "--method", method, flag, value,
                     "--iterations", "4", "--train-samples", "256"])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and repr(method) in err


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
