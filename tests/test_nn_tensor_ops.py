"""im2col / col2im: shapes, values, adjointness.

Columns are channel-major and batch-innermost: ``(C*kh*kw, oh*ow*N)``,
row ``(c, i, j)``, column ``(oy, ox, n)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.nn.tensor_ops import col2im, conv_output_size, im2col


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24

    def test_stride(self):
        assert conv_output_size(32, 3, 2, 1) == 16

    def test_exact_fit(self):
        assert conv_output_size(4, 4, 1, 0) == 1

    def test_padding_grows_output(self):
        assert conv_output_size(8, 3, 1, 1) == 8

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self):
        x = np.arange(2 * 3 * 8 * 8, dtype=np.float32).reshape(2, 3, 8, 8)
        cols = im2col(x, 3, 3, 1, 0)
        assert cols.shape == (3 * 3 * 3, 6 * 6 * 2)

    def test_identity_window(self):
        # 1x1 window, stride 1: im2col is just a channel-first, batch-last reshape.
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        cols = im2col(x, 1, 1, 1, 0)
        expected = x.transpose(1, 2, 3, 0).reshape(3, -1)
        np.testing.assert_array_equal(cols, expected)

    def test_known_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, 2, 0)
        # one column per window, at (0,0), (0,2), (2,0), (2,2)
        np.testing.assert_array_equal(
            cols,
            np.array(
                [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]],
                dtype=np.float32,
            ).T,
        )

    def test_padding_zeroes_border(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        # center window covers the whole padded image; corners include zeros
        assert cols.shape == (9, 4)
        assert cols.sum() == pytest.approx(4 * 4)  # each original pixel in 4 windows

    def test_conv_as_gemm_matches_direct(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 0)
        # direct convolution
        direct = np.zeros((2, 3, 3, 3), dtype=np.float32)
        for n in range(2):
            for o in range(3):
                for i in range(3):
                    for j in range(3):
                        direct[n, o, i, j] = (x[n, :, i : i + 3, j : j + 3] * w[o]).sum()
        # im2col output columns are (oh, ow, n); reorder to (n, o, oh, ow)
        y3 = (w.reshape(3, -1) @ cols).reshape(3, 3, 3, 2)
        y3 = y3.transpose(3, 0, 1, 2)
        np.testing.assert_allclose(y3, direct, rtol=1e-5, atol=1e-5)


class TestCol2im:
    def test_roundtrip_counts_overlaps(self):
        # col2im(im2col(x)) multiplies each pixel by its window multiplicity.
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        cols = im2col(x, 2, 2, 1, 0)
        back = col2im(cols, x.shape, 2, 2, 1, 0)
        expected = np.array(
            [[1, 2, 2, 1], [2, 4, 4, 2], [2, 4, 4, 2], [1, 2, 2, 1]], dtype=np.float32
        )
        np.testing.assert_array_equal(back[0, 0], expected)

    def test_non_overlapping_roundtrip_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, 2, 0)
        back = col2im(cols, x.shape, 2, 2, 2, 0)
        np.testing.assert_allclose(back, x, rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        hw=st.integers(4, 8),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    def test_adjointness(self, n, c, hw, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — col2im is im2col's adjoint."""
        if hw + 2 * pad < k:
            return
        rng = np.random.default_rng(n * 100 + c * 10 + hw + k + stride + pad)
        x = rng.normal(size=(n, c, hw, hw)).astype(np.float64)
        cols_shape = im2col(x, k, k, stride, pad).shape
        y = rng.normal(size=cols_shape)
        lhs = float((im2col(x, k, k, stride, pad) * y).sum())
        rhs = float((x * col2im(y, x.shape, k, k, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)
