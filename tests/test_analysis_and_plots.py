"""Trajectory analytics, ASCII plots, staleness metrics, MCDRAM modes."""

import pytest

from repro.algorithms.base import RunResult, TimeBreakdown, TrainRecord
from repro.harness.analysis import accuracy_at_time
from repro.harness.plots import ascii_plot
from repro.knl.chip import KnlChip, McdramMode


def _run(times, accs, method="m"):
    records = [
        TrainRecord(i + 1, float(t), 1.0, float(a))
        for i, (t, a) in enumerate(zip(times, accs))
    ]
    return RunResult(
        method=method,
        records=records,
        breakdown=TimeBreakdown(),
        iterations=len(records),
        sim_time=float(times[-1]),
        final_accuracy=float(accs[-1]),
    )


class TestAnalysis:
    def test_accuracy_at_time(self):
        r = _run([1, 2, 3], [0.2, 0.5, 0.9])
        assert accuracy_at_time(r, 0.5) == 0.0
        assert accuracy_at_time(r, 2.5) == 0.5
        assert accuracy_at_time(r, 10) == 0.9


class TestAsciiPlot:
    def test_renders_markers_and_legend(self):
        chart = ascii_plot({"a": ([0, 1, 2], [0, 1, 2]), "b": ([0, 1, 2], [2, 1, 0])})
        assert "o = a" in chart and "x = b" in chart
        assert "o" in chart and "x" in chart

    def test_dimension_bounds(self):
        chart = ascii_plot({"a": ([0, 1], [0, 1])}, width=30, height=10)
        lines = chart.splitlines()
        assert len(lines) == 10 + 3  # grid + header + axis + footer

    def test_constant_series_ok(self):
        chart = ascii_plot({"flat": ([0, 1], [1.0, 1.0])})
        assert "flat" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"a": ([0], [0])}, width=4)


class TestMcdramModes:
    GiB = 1024**3

    def test_flat_cliff(self):
        chip = KnlChip(mcdram_mode=McdramMode.FLAT)
        assert chip.working_set_bandwidth(8 * self.GiB) == chip.mcdram_bandwidth
        assert chip.working_set_bandwidth(17 * self.GiB) == chip.ddr4_bandwidth

    def test_cache_degrades_gradually(self):
        chip = KnlChip(mcdram_mode=McdramMode.CACHE)
        bw24 = chip.working_set_bandwidth(24 * self.GiB)
        bw48 = chip.working_set_bandwidth(48 * self.GiB)
        assert chip.ddr4_bandwidth < bw48 < bw24 < chip.mcdram_bandwidth

    def test_cache_beats_flat_past_capacity(self):
        flat = KnlChip(mcdram_mode=McdramMode.FLAT)
        cache = KnlChip(mcdram_mode=McdramMode.CACHE)
        n = 20 * self.GiB
        assert cache.working_set_bandwidth(n) > flat.working_set_bandwidth(n)

    def test_hybrid_between(self):
        n = 24 * self.GiB
        flat = KnlChip(mcdram_mode=McdramMode.FLAT).working_set_bandwidth(n)
        cache = KnlChip(mcdram_mode=McdramMode.CACHE).working_set_bandwidth(n)
        hybrid = KnlChip(mcdram_mode=McdramMode.HYBRID).working_set_bandwidth(n)
        assert flat < hybrid < cache


class TestStalenessMetrics:
    def test_async_reports_staleness(self, mnist_tiny, fast_config):
        from repro.algorithms.async_ps import AsyncSGDTrainer
        from repro.cluster import CostModel, GpuPlatform
        from repro.nn.models import build_mlp
        from repro.nn.spec import LENET

        train, test = mnist_tiny
        tr = AsyncSGDTrainer(
            build_mlp(seed=1), train, test, GpuPlatform(num_gpus=4, seed=0),
            fast_config, CostModel.from_spec(LENET),
        )
        res = tr.train(80)
        # With 4 workers round-tripping, gradients are typically ~3 updates
        # stale (the other workers land in between).
        assert 0.5 < res.extras["mean_staleness"] < 4.5
        assert res.extras["max_staleness"] >= res.extras["mean_staleness"]

    def test_single_worker_has_no_staleness(self, mnist_tiny, fast_config):
        from repro.algorithms.async_ps import AsyncSGDTrainer
        from repro.cluster import CostModel, GpuPlatform
        from repro.nn.models import build_mlp
        from repro.nn.spec import LENET

        train, test = mnist_tiny
        tr = AsyncSGDTrainer(
            build_mlp(seed=1), train, test, GpuPlatform(num_gpus=1, seed=0),
            fast_config, CostModel.from_spec(LENET),
        )
        res = tr.train(30)
        assert res.extras["mean_staleness"] == 0.0
