"""Tests for the multi-scale morphological derivative."""

import numpy as np
import pytest

from repro.dsp.mmd import mmd_multiscale, mmd_rows, mmd_transform
from repro.platform.opcount import OpCounter


class TestMMD:
    def test_zero_on_linear_ramp(self):
        """Straight segments have no morphological curvature."""
        x = np.linspace(0.0, 10.0, 100)
        out = mmd_transform(x, 4)
        np.testing.assert_allclose(out[8:-8], 0.0, atol=1e-10)

    def test_negative_at_convex_peak(self):
        x = np.exp(-0.5 * ((np.arange(100) - 50) / 4.0) ** 2)
        out = mmd_transform(x, 6)
        assert out[50] < 0

    def test_positive_at_concave_corner(self):
        """Onset of a positive wave: flat-then-rising (concave) corner."""
        x = np.concatenate([np.zeros(50), np.linspace(0.0, 5.0, 50)])
        out = mmd_transform(x, 5)
        assert out[49:52].max() > 0

    def test_constant_signal_gives_zero(self):
        out = mmd_transform(np.full(60, 2.5), 3)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_scale_widens_response(self):
        x = np.exp(-0.5 * ((np.arange(200) - 100) / 8.0) ** 2)
        narrow = mmd_transform(x, 3)
        wide = mmd_transform(x, 15)
        assert np.count_nonzero(np.abs(wide) > 0.01) > np.count_nonzero(
            np.abs(narrow) > 0.01
        )

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            mmd_transform(np.zeros(10), 0)

    def test_multiscale_stack(self, rng):
        x = rng.standard_normal(80)
        stack = mmd_multiscale(x, (2, 4, 8))
        assert stack.shape == (3, 80)
        np.testing.assert_allclose(stack[1], mmd_transform(x, 4))

    def test_op_counting(self):
        counter = OpCounter()
        mmd_transform(np.zeros(100), 4, counter)
        # dilation + erosion with 9-sample element: 2 x 100 x 8 compares.
        assert counter["cmp"] == 2 * 100 * 8
        assert counter["add"] == 100
        assert counter["sub"] == 100


class TestMMDRows:
    """``mmd_rows`` equals ``mmd_transform`` row by row, bit for bit,
    over any column window — including windows at either segment edge,
    where the row's own edge replication applies."""

    @pytest.mark.parametrize("scale", [1, 2, 6, 10, 14])
    def test_column_windows_match_transform(self, rng, scale):
        rows = np.round(rng.standard_normal((5, 64)) * 4) / 4  # ties common
        full = np.stack([mmd_transform(row, scale) for row in rows])
        np.testing.assert_array_equal(mmd_rows(rows, scale), full)
        for lo, hi in [(0, 1), (0, 64), (3, 20), (40, 64), (63, 64), (scale, 64 - scale)]:
            np.testing.assert_array_equal(mmd_rows(rows, scale, lo, hi), full[:, lo:hi])

    def test_short_rows_wider_than_the_element(self, rng):
        rows = rng.standard_normal((3, 5))
        full = np.stack([mmd_transform(row, 8) for row in rows])
        np.testing.assert_array_equal(mmd_rows(rows, 8, 1, 4), full[:, 1:4])
