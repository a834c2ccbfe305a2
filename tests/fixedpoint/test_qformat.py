"""Tests for fixed-point helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.qformat import (
    fits,
    float_to_q,
    ilog2,
    q_to_float,
    quantize,
    saturate,
)


class TestQuantize:
    def test_rounding(self):
        np.testing.assert_array_equal(
            quantize(np.array([0.4, 0.5, 1.26]), 10.0), [4, 5, 13]
        )

    def test_negative_values(self):
        np.testing.assert_array_equal(quantize(np.array([-1.04]), 100.0), [-104])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(2), 0.0)

    def test_dtype(self):
        assert quantize(np.array([1.0]), 2.0).dtype == np.int64


class TestSaturate:
    def test_signed_16(self):
        values = np.array([-40000, -32768, 0, 32767, 40000])
        np.testing.assert_array_equal(
            saturate(values, 16), [-32768, -32768, 0, 32767, 32767]
        )

    def test_unsigned_16(self):
        values = np.array([-5, 0, 65535, 70000])
        np.testing.assert_array_equal(
            saturate(values, 16, signed=False), [0, 0, 65535, 65535]
        )

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            saturate(np.zeros(1), 0)


class TestFits:
    def test_inside(self):
        assert fits(np.array([-32768, 32767]), 16)

    def test_outside(self):
        assert not fits(np.array([32768]), 16)

    def test_unsigned(self):
        assert fits(np.array([65535]), 16, signed=False)
        assert not fits(np.array([-1]), 16, signed=False)


class TestIlog2:
    def test_exact_powers(self):
        values = np.array([1, 2, 4, 1024, 2**31])
        np.testing.assert_array_equal(ilog2(values), [0, 1, 2, 10, 31])

    def test_between_powers(self):
        np.testing.assert_array_equal(ilog2(np.array([3, 5, 1023])), [1, 2, 9])

    def test_zero_maps_to_minus_one(self):
        assert ilog2(np.array([0]))[0] == -1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ilog2(np.array([-1]))


def _ilog2_by_halving(values: np.ndarray) -> np.ndarray:
    """The oracle: an exact binary search on the bit position, six
    masked halvings over int64 (the form ``ilog2`` had before it took
    its exponent from ``np.frexp``)."""
    values = np.asarray(values, dtype=np.int64)
    remaining = values.copy()
    out = np.zeros(values.shape, dtype=np.int64)
    for step in (32, 16, 8, 4, 2, 1):
        big = remaining >= (np.int64(1) << step)
        out[big] += step
        remaining[big] >>= step
    out[values == 0] = -1
    return out


class TestIlog2MatchesHalving:
    """The ``np.frexp`` exponent equals the exact bit search on every
    value where a float64 conversion can round: around each power of
    two, at the int64 top and over the full range."""

    def test_zero_powers_and_their_neighbours(self):
        powers = np.int64(1) << np.arange(63, dtype=np.int64)
        values = np.concatenate([[0, 2**63 - 1], powers, powers - 1, powers + 1])
        np.testing.assert_array_equal(ilog2(values), _ilog2_by_halving(values))
        assert ilog2(np.array([2**63 - 1]))[0] == 62

    @pytest.mark.parametrize("high", [2**33, 2**63 - 1])
    def test_random_values(self, high):
        values = np.random.default_rng(high % 1000).integers(
            0, high, size=100_000, dtype=np.int64, endpoint=True
        )
        np.testing.assert_array_equal(ilog2(values), _ilog2_by_halving(values))

    def test_shape_and_dtype_follow_the_input(self):
        assert ilog2(5).shape == () and int(ilog2(5)) == 2
        assert ilog2(np.zeros((2, 3), dtype=np.int64)).shape == (2, 3)
        assert ilog2(np.array([7])).dtype == np.int64
        assert ilog2(np.array([], dtype=np.int64)).shape == (0,)


class TestQConversions:
    def test_roundtrip(self):
        q = float_to_q(0.625, 16)
        assert q == 40960
        assert q_to_float(q, 16) == pytest.approx(0.625)

    def test_zero_frac_bits(self):
        assert float_to_q(3.6, 0) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            float_to_q(1.0, -1)
        with pytest.raises(ValueError):
            q_to_float(1, -1)


@settings(max_examples=100, deadline=None)
@given(v=st.integers(1, 2**63 - 1))
def test_ilog2_definition(v):
    """Property: 2^ilog2(v) <= v < 2^(ilog2(v) + 1)."""
    e = int(ilog2(np.array([v]))[0])
    assert (1 << e) <= v < (1 << (e + 1))


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-2.0, 2.0), frac=st.integers(0, 24))
def test_q_roundtrip_error_bounded(x, frac):
    """Property: Q encode/decode error is at most half an LSB."""
    q = float_to_q(x, frac)
    assert abs(q_to_float(q, frac) - x) <= 0.5 / (1 << frac) + 1e-15
