"""Integer membership functions: the 4-segment linearization of Figure 4.

Given a trained Gaussian MF with center ``c`` and standard deviation
``sigma``, the embedded MF maps an integer coefficient ``x`` to the
range ``[0, 2^16 - 1]`` using ``S = 2.35 sigma`` (the Gaussian FWHM):

========================  ==============================================
region                    value
========================  ==============================================
``|c - x| >= 4S``         0
``2S <= |c - x| < 4S``    1 (the positive floor that keeps products
                          alive through the fuzzification stage)
``S <= |c - x| < 2S``     linear segment from the Gaussian's value at S
                          (~0.0632 -> 4142) down to 1 at 2S
``|c - x| < S``           linear segment from 65535 at 0 down to 4142
                          at S
========================  ==============================================

Divisions by ``S`` are folded into per-MF reciprocal multipliers
computed *once at conversion time* (Q0.16 fixed point), so the per-beat
evaluation needs only a subtraction, an absolute value, two compares, a
multiply and a shift — no runtime division, matching the paper's "can
therefore be efficiently implemented in WBSNs".

The triangular MF (the simpler comparison shape of Figure 4) is a
single segment from 65535 at 0 to 0 at 2S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.membership import GAUSSIAN_AT_S, S_FACTOR

#: Full-scale grade value (2^16 - 1).
GRADE_MAX = (1 << 16) - 1

#: Grade of the linearized MF at distance S (the true Gaussian there).
GRADE_AT_S = int(round(GAUSSIAN_AT_S * GRADE_MAX))

#: Fractional bits of the precomputed reciprocal slopes.
SLOPE_FRAC_BITS = 16


@dataclass(frozen=True)
class LinearizedMF:
    """Integer MF parameters for one (coefficient, class) pair.

    Attributes
    ----------
    center:
        Integer MF center (same grid as the projected coefficients).
    s:
        Integer breakpoint unit ``S = 2.35 sigma`` (>= 1).
    slope_inner_q16:
        Q0.16 slope of the ``r < S`` segment:
        ``(GRADE_MAX - GRADE_AT_S) / S``, premultiplied by ``2^16``.
    slope_outer_q16:
        Q0.16 slope of the ``S <= r < 2S`` segment:
        ``(GRADE_AT_S - 1) / S`` premultiplied.
    """

    center: int
    s: int
    slope_inner_q16: int
    slope_outer_q16: int

    @classmethod
    def from_float(cls, center: float, sigma: float, scale: float) -> "LinearizedMF":
        """Quantize a trained Gaussian MF.

        Parameters
        ----------
        center, sigma:
            Float MF parameters in the training units (e.g. mV after
            projection).
        scale:
            Multiplier mapping the training units onto the integer
            coefficient grid (the ADC gain for mV-trained pipelines).
        """
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if scale <= 0:
            raise ValueError("scale must be positive")
        s = max(1, int(round(S_FACTOR * sigma * scale)))
        slope_inner = ((GRADE_MAX - GRADE_AT_S) << SLOPE_FRAC_BITS) // s
        slope_outer = ((GRADE_AT_S - 1) << SLOPE_FRAC_BITS) // s
        return cls(
            center=int(round(center * scale)),
            s=s,
            slope_inner_q16=int(slope_inner),
            slope_outer_q16=int(slope_outer),
        )

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Grades of integer coefficients ``x`` (vectorized, ``int64``)."""
        return evaluate_linearized(
            np.asarray(x, dtype=np.int64),
            np.int64(self.center),
            np.int64(self.s),
            np.int64(self.slope_inner_q16),
            np.int64(self.slope_outer_q16),
        )


def evaluate_linearized(
    x: np.ndarray,
    center: np.ndarray,
    s: np.ndarray,
    slope_inner_q16: np.ndarray,
    slope_outer_q16: np.ndarray,
) -> np.ndarray:
    """Vectorized 4-segment MF; broadcasts like ``x - center``.

    All operands are integer arrays; the result is in
    ``[0, GRADE_MAX]``.  The distance is clamped at ``4S`` before the
    fixed-point multiply so every intermediate fits in 32 + 16 bits on
    the target, independent of how far an outlier coefficient lands.
    """
    four_s = 4 * s
    r = np.minimum(np.abs(x - center), four_s)
    # Every branch value is computed with the exact arithmetic the
    # segment-selected path used, then selected per element — no
    # boolean gather/scatter on the hot path.  The clamp above bounds
    # r * slope at 4S * slope < 2^35, so evaluating the inner product
    # outside its own segment cannot overflow int64.  Past 2S the
    # grade is the floor test itself: 1 below 4S, 0 from there on.
    inner = GRADE_MAX - ((r * slope_inner_q16) >> SLOPE_FRAC_BITS)
    middle = GRADE_AT_S - (((r - s) * slope_outer_q16) >> SLOPE_FRAC_BITS)
    grades = np.where(r < s, inner, np.where(r < 2 * s, middle, r < four_s))
    np.maximum(grades, 0, out=grades)
    return np.minimum(grades, GRADE_MAX, out=grades)


def evaluate_triangular(x: np.ndarray, center: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Integer triangular MF: 65535 at r = 0 down to 0 at r = 2S.

    The slope is folded the same way (the caller precomputes nothing
    here because the expression needs one multiply and one division by
    ``2S`` that we evaluate with a reciprocal in Q16 derived on the
    fly; tests check it matches the float shape to 1 LSB).
    """
    x = np.asarray(x, dtype=np.int64)
    center = np.asarray(center, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    if np.any(s < 1):
        raise ValueError("s must be >= 1")
    r = np.abs(x - center)
    slope_q16 = (GRADE_MAX << SLOPE_FRAC_BITS) // (2 * s)
    r_clamped = np.minimum(r, 2 * s)
    grades = GRADE_MAX - ((r_clamped * slope_q16) >> SLOPE_FRAC_BITS)
    grades = np.where(r >= 2 * s, 0, grades)
    return np.clip(grades, 0, GRADE_MAX)


def linearize_mf(
    centers: np.ndarray, sigmas: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize whole ``(k, L)`` MF parameter arrays at once.

    Returns
    -------
    (centers_int, s_int, slope_inner_q16, slope_outer_q16):
        Integer arrays of shape ``(k, L)`` ready for
        :func:`evaluate_linearized`.
    """
    centers = np.asarray(centers, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if centers.shape != sigmas.shape:
        raise ValueError("centers and sigmas must have equal shapes")
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    s_int = np.maximum(1, np.rint(S_FACTOR * sigmas * scale)).astype(np.int64)
    centers_int = np.rint(centers * scale).astype(np.int64)
    slope_inner = ((GRADE_MAX - GRADE_AT_S) << SLOPE_FRAC_BITS) // s_int
    slope_outer = ((GRADE_AT_S - 1) << SLOPE_FRAC_BITS) // s_int
    return centers_int, s_int, slope_inner, slope_outer
