"""Utilities: RNG streams, formatting, tables."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.util.format import format_bytes, format_percent, format_seconds
from repro.util.rng import derive_seed, spawn_rng
from repro.util.tables import TextTable


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_path_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_spawn_rng_independent_streams(self):
        a = spawn_rng(0, "x").random(100)
        b = spawn_rng(0, "y").random(100)
        assert not np.allclose(a, b)

    def test_stream_child(self):
        c1 = spawn_rng(5, "worker", 0)
        c2 = spawn_rng(5, "worker", 1)
        assert c1.random() != c2.random()

    def test_stream_reconstructible(self):
        a = spawn_rng(7, "w", 3).random(10)
        b = spawn_rng(7, "w", 3).random(10)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), name=st.text(max_size=10))
    def test_derive_seed_in_range(self, seed, name):
        s = derive_seed(seed, name)
        assert 0 <= s < 2**64


class TestFormat:
    def test_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(249 * 1024 * 1024) == "249.0 MB"

    def test_seconds_scales(self):
        assert "us" in format_seconds(5e-6)
        assert "ms" in format_seconds(0.005)
        assert format_seconds(41.0) == "41.0 s"
        assert "min" in format_seconds(1605)
        assert "h" in format_seconds(30000)

    def test_percent(self):
        assert format_percent(0.87) == "87%"
        assert format_percent(0.145) == "14%"


class TestTextTable:
    def test_render_aligned(self):
        t = TextTable(["a", "bb"])
        t.add_row([1, 2])
        t.add_row(["long", "x"])
        lines = t.render().splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines if l)) <= 2  # header/sep/rows align

    def test_wrong_arity_rejected(self):
        t = TextTable(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_str_is_render(self):
        t = TextTable(["x"])
        t.add_row([1])
        assert str(t) == t.render()
