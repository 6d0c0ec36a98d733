"""Harness: experiment specs, breakdown rows, table/figure builders."""

import numpy as np
import pytest

from repro.algorithms import TrainerConfig
from repro.cluster import CostModel
from repro.data import make_mnist_like
from repro.harness import (
    breakdown_row,
    ExperimentSpec,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    run_method,
    run_methods,
    Table3Row,
)
from repro.harness.breakdown import speedup_over
from repro.harness.figures import FIG6_PAIRS, FIG8_METHODS, log10_error_series
from repro.nn.models import build_mlp
from repro.nn.spec import LENET
from repro.scaling import weak_scaling_sweep
from repro.scaling.baselines import our_implementation


@pytest.fixture(scope="module")
def spec():
    train, test = make_mnist_like(n_train=512, n_test=256, seed=31, difficulty=0.8)
    s = ExperimentSpec(
        train_set=train,
        test_set=test,
        model_builder=lambda: build_mlp(seed=3),
        num_gpus=2,
        config=TrainerConfig(batch_size=16, lr=0.03, rho=2.0, eval_every=10, eval_samples=128),
        cost_model=CostModel.from_spec(LENET),
    )
    return s.normalize()


class TestExperimentSpec:
    def test_normalize_idempotent(self, spec):
        before = spec.train_set.images.copy()
        spec.normalize()
        np.testing.assert_array_equal(spec.train_set.images, before)

    def test_run_method_fixed_iterations(self, spec):
        res = run_method(spec, "sync-easgd3", iterations=10)
        assert res.iterations == 10

    def test_run_method_target_mode(self, spec):
        res = run_method(spec, "sync-easgd3", target_accuracy=0.5, max_iterations=80)
        assert res.reached_target in (True, False)

    def test_exactly_one_mode_required(self, spec):
        with pytest.raises(ValueError):
            run_method(spec, "sync-easgd3")
        with pytest.raises(ValueError):
            run_method(spec, "sync-easgd3", iterations=5, target_accuracy=0.5)

    def test_run_methods_keys(self, spec):
        out = run_methods(spec, ["async-sgd", "async-easgd"], iterations=8)
        assert set(out) == {"async-sgd", "async-easgd"}

    def test_platforms_are_fresh_per_run(self, spec):
        a = run_method(spec, "sync-easgd3", iterations=8)
        b = run_method(spec, "sync-easgd3", iterations=8)
        assert a.sim_time == b.sim_time  # jitter streams restarted


class TestBreakdownTable:
    def test_row_fields(self, spec):
        res = run_method(spec, "sync-easgd1", iterations=8)
        row = breakdown_row(res)
        assert row.method == "Sync EASGD1"
        assert 0 <= row.comm_ratio <= 1
        assert sum(row.fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_render_contains_all_methods(self, spec):
        rows = [
            breakdown_row(run_method(spec, m, iterations=5))
            for m in ("original-easgd", "sync-easgd3")
        ]
        text = render_table3(rows)
        assert "Original EASGD" in text and "Sync EASGD3" in text
        assert "comm ratio" in text

    def test_speedup_over(self):
        rows = [
            Table3Row("a", 0.9, 100, 10.0, {}, 0.5),
            Table3Row("b", 0.9, 100, 2.0, {}, 0.1),
        ]
        assert speedup_over(rows, "a", "b") == pytest.approx(5.0)
        with pytest.raises(KeyError):
            speedup_over(rows, "a", "missing")


class TestStaticTables:
    def test_table1_lists_paper_datasets(self):
        text = render_table1()
        assert "60,000" in text and "1,200,000" in text

    def test_table2_lists_three_networks(self):
        text = render_table2()
        assert "Mellanox" in text and "0.7" in text

    def test_table4_renders(self):
        sweeps = {"GoogleNet": weak_scaling_sweep(our_implementation_from("GoogleNet"))}
        text = render_table4(sweeps, {"GoogleNet": "300 Iters Time"})
        assert "68 cores" in text and "4352 cores" in text
        assert "Efficiency" in text

    def test_table4_mismatched_sweeps_rejected(self):
        g = weak_scaling_sweep(our_implementation_from("GoogleNet"))
        v = weak_scaling_sweep(our_implementation_from("VGG-19"), node_counts=(1, 2))
        with pytest.raises(ValueError):
            render_table4({"a": g, "b": v}, {"a": "x", "b": "y"})


def our_implementation_from(name):
    from repro.nn.spec import MODEL_SPECS

    return our_implementation(MODEL_SPECS[name])


class TestFigureBuilders:
    def test_fig6_pairs_are_ours_vs_existing(self):
        for ours, theirs in FIG6_PAIRS:
            assert "easgd" in ours
            assert ours != theirs

    def test_fig8_lineup_has_eight_methods(self):
        assert len(FIG8_METHODS) == 8

    def test_log10_error_series(self):
        series = {"m": (np.array([1.0, 2.0]), np.array([0.9, 0.999]))}
        out = log10_error_series(series, floor=1e-3)
        _, logerr = out["m"]
        assert logerr[0] == pytest.approx(-1.0)
        assert logerr[1] >= np.log10(1e-3)
