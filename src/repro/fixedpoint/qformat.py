"""Shared fixed-point helpers.

Small, dependency-free utilities used across the embedded path:
rounding float quantities to integer grids, saturating to a bit width,
and the integer base-2 logarithm that implements the "left-shift to the
maximum amount so that none of them overflow" normalization of the
fuzzification layer.

All functions are vectorized over numpy arrays and keep everything in
``int64`` so Python-side arithmetic can *model* 16/32-bit hardware
without accidentally wrapping; explicit saturation enforces the target
widths where the paper's implementation requires them.
"""

from __future__ import annotations

import numpy as np


def quantize(values: np.ndarray, scale: float) -> np.ndarray:
    """Round ``values * scale`` to the nearest integer (``int64``).

    The embedded pipeline quantizes millivolt quantities with the ADC
    gain (MIT-BIH: 200 adu/mV), so float-trained parameters and integer
    samples land on the same grid.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    scaled = np.asarray(values, dtype=float) * scale
    # Round and convert in one pass: rint writes its int64 output directly.
    return np.rint(scaled, out=np.empty(scaled.shape, dtype=np.int64), casting="unsafe")


def saturate(values: np.ndarray, bits: int, signed: bool = True) -> np.ndarray:
    """Clamp to the representable range of a ``bits``-wide register."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    values = np.asarray(values, dtype=np.int64)
    if signed:
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
    else:
        lo = 0
        hi = (1 << bits) - 1
    return np.clip(values, lo, hi)


def fits(values: np.ndarray, bits: int, signed: bool = True) -> bool:
    """True when every value is representable in ``bits`` bits."""
    values = np.asarray(values, dtype=np.int64)
    return bool(np.array_equal(values, saturate(values, bits, signed)))


def ilog2(values: np.ndarray) -> np.ndarray:
    """Floor of log2 for non-negative integers (0 maps to -1).

    ``ilog2(v)`` is the index of the most significant set bit — the
    quantity a WBSN CPU obtains with a count-leading-zeros instruction
    (or a short shift loop), used to compute the block-normalization
    shift of the fuzzification layer.

    numpy has no CLZ; the binary exponent of ``np.frexp`` stands in for
    it.  ``frexp`` writes ``v = m * 2**e`` with ``0.5 <= m < 1``, so
    ``e - 1`` is the answer whenever ``v`` converts to float64 exactly,
    i.e. below ``2**53``.  Above that, the conversion may round ``v``
    up to the next power of two, one too high: clamping the result
    ``r`` at 62 and subtracting 1 where ``1 << r > v`` corrects it,
    exactly.  ``0`` has exponent 0, hence -1 (numpy defines the shift
    by -1 as 0, so the check leaves it alone).
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("ilog2 is defined for non-negative integers")
    out = np.empty(values.shape, dtype=np.int64)
    np.subtract(np.frexp(values)[1], 1, out=out)
    np.minimum(out, 62, out=out)
    out -= (np.int64(1) << out) > values
    return out


def float_to_q(value: float, frac_bits: int) -> int:
    """Encode a float as a Qx.``frac_bits`` fixed-point integer."""
    if frac_bits < 0:
        raise ValueError("frac_bits must be >= 0")
    return int(round(value * (1 << frac_bits)))


def q_to_float(value: int, frac_bits: int) -> float:
    """Decode a Qx.``frac_bits`` fixed-point integer to float."""
    if frac_bits < 0:
        raise ValueError("frac_bits must be >= 0")
    return value / float(1 << frac_bits)
