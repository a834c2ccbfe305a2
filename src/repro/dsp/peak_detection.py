"""Wavelet-based R-peak detection.

Implements the detector the paper adopts from Rincon et al. (IEEE TITB
2011): the input lead is decomposed into four dyadic scales with the
quadratic-spline wavelet; QRS complexes produce pairs of opposite-sign
modulus maxima that persist across scales, and the R peak is "the
zero-crossing point on the first scale in-between couples of
maximum–minimum points across scales".

The implementation proceeds per analysis block:

1. compute :math:`W_{2^1}..W_{2^4}` (see :mod:`repro.dsp.wavelet`);
2. derive per-scale thresholds from the RMS of each scale;
3. locate modulus maxima above threshold on scale :math:`2^2` and keep
   those corroborated by a same-sign maximum nearby on scales
   :math:`2^1` and :math:`2^3` (the "across scales" requirement);
4. pair each positive maximum with the closest subsequent negative
   maximum within the maximum QRS slope separation;
5. report the zero crossing of scale :math:`2^1` between the pair;
6. enforce a physiological refractory period, and run a search-back
   with halved thresholds whenever the running RR estimate suggests a
   missed beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.wavelet import dyadic_wavelet


@dataclass(frozen=True)
class PeakDetectorConfig:
    """Tunables of the wavelet peak detector.

    Attributes
    ----------
    threshold_factor:
        Per-scale threshold as a multiple of the scale RMS.
    max_pair_separation:
        Maximum time (seconds) between the positive and negative
        modulus maxima of one QRS.
    refractory:
        Minimum time (seconds) between two detected peaks.
    searchback_factor:
        A search-back with halved thresholds runs when the gap since
        the last peak exceeds ``searchback_factor`` times the running
        median RR.
    corroboration_window:
        Window (seconds) within which a same-sign maximum must exist on
        the neighbouring scales.
    """

    threshold_factor: float = 2.2
    max_pair_separation: float = 0.12
    refractory: float = 0.25
    searchback_factor: float = 1.6
    corroboration_window: float = 0.06


def _modulus_maxima(w: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of local extrema of ``w`` with ``|w|`` above threshold."""
    magnitude = np.abs(w)
    above = magnitude >= threshold
    interior = np.zeros_like(above)
    interior[1:-1] = (
        above[1:-1]
        & (magnitude[1:-1] >= magnitude[:-2])
        & (magnitude[1:-1] >= magnitude[2:])
    )
    return np.flatnonzero(interior)


def detect_peaks(
    x: np.ndarray,
    fs: float,
    config: PeakDetectorConfig | None = None,
    counter=None,
) -> np.ndarray:
    """Detect R peaks on a filtered single lead.

    Parameters
    ----------
    x:
        Filtered lead (baseline removed).
    fs:
        Sampling frequency in Hz.
    config:
        Detector tunables.
    counter:
        Optional op-counter; wavelet filtering plus the per-sample
        threshold comparisons are recorded.

    Returns
    -------
    np.ndarray
        Strictly increasing R-peak sample indices (``int64``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("detect_peaks expects a single lead")
    if fs <= 0:
        raise ValueError("sampling frequency must be positive")
    config = config or PeakDetectorConfig()

    w = dyadic_wavelet(x, n_scales=4, counter=counter)
    if counter is not None:
        # Modulus-maxima scan: one abs + two comparisons per sample on
        # the detection scale, plus the threshold comparison.
        counter.add("abs", x.size)
        counter.add("cmp", 3 * x.size)

    rms = np.sqrt(np.mean(np.square(w), axis=1))
    thresholds = config.threshold_factor * rms
    return detect_peaks_from_wavelet(w, thresholds, fs, config)


def detect_peaks_from_wavelet(
    w: np.ndarray,
    thresholds: np.ndarray,
    fs: float,
    config: PeakDetectorConfig | None = None,
) -> np.ndarray:
    """Detection logic over precomputed aligned wavelet coefficients.

    The back half of :func:`detect_peaks`, split out so callers that
    already hold the transform — notably the incremental
    :class:`repro.dsp.streaming.StreamingPeakDetector`, which carries
    wavelet filter state across blocks — can run pairing, refractory
    enforcement and search-back without recomputing any filtering.

    Parameters
    ----------
    w:
        ``(n_scales >= 3, n)`` delay-compensated coefficients
        (:func:`repro.dsp.wavelet.dyadic_wavelet` layout).
    thresholds:
        Per-scale detection thresholds (already scaled by the
        configured threshold factor).
    fs:
        Sampling frequency in Hz.
    config:
        Detector tunables.

    Returns
    -------
    np.ndarray
        Strictly increasing R-peak sample indices (``int64``),
        relative to the start of ``w``.
    """
    config = config or PeakDetectorConfig()
    pairs = _find_pairs(w, thresholds, fs, config)
    peaks = _pairs_to_peaks(w[0], pairs)
    peaks = _enforce_refractory(peaks, w, fs, config)
    peaks = _searchback(peaks, w, thresholds, fs, config)
    peaks = _enforce_refractory(peaks, w, fs, config)
    return np.asarray(sorted(set(int(p) for p in peaks)), dtype=np.int64)


def _find_pairs(
    w: np.ndarray,
    thresholds: np.ndarray,
    fs: float,
    config: PeakDetectorConfig,
    relax: float = 1.0,
) -> list[tuple[int, int]]:
    """Opposite-sign modulus-maxima pairs corroborated across scales.

    A maximum on the detection scale is corroborated when scales 0 and
    2 each hold a same-sign suprathreshold sample within the
    corroboration window around it.  Prefix counts of the
    suprathreshold samples (one ``cumsum`` per scale) answer that for
    every maximum at once.
    """
    detection_scale = 1  # W_{2^2}
    values = w[detection_scale]
    maxima = _modulus_maxima(values, thresholds[detection_scale] * relax)
    if maxima.size == 0:
        return []
    corro = int(round(config.corroboration_window * fs))
    n = values.size
    lo = np.maximum(maxima - corro, 0)
    hi = np.minimum(maxima + corro + 1, n)
    side = (values[maxima] < 0).astype(np.intp)  # 0: >= threshold, 1: <= -threshold
    corroborated = np.ones(maxima.size, dtype=bool)
    for scale in (0, 2):
        threshold = thresholds[scale] * relax
        counts = np.zeros((2, n + 1), dtype=np.intp)
        np.cumsum([w[scale] >= threshold, w[scale] <= -threshold], axis=1, out=counts[:, 1:])
        corroborated &= counts[side, hi] > counts[side, lo]
    candidates = maxima[corroborated].tolist()
    signs = values[maxima[corroborated]].tolist()
    max_sep = int(round(config.max_pair_separation * fs))
    pairs: list[tuple[int, int]] = []
    used = -1
    for i, m in enumerate(candidates):
        if m <= used or signs[i] <= 0:
            continue
        for j in range(i + 1, len(candidates)):
            if candidates[j] - m > max_sep:
                break
            if signs[j] < 0:
                pairs.append((m, candidates[j]))
                used = candidates[j]
                break
    return pairs


def _pairs_to_peaks(w1: np.ndarray, pairs: list[tuple[int, int]]) -> list[int]:
    """Zero crossing of scale 1 inside each max–min pair.

    For a pair ``(start, stop)`` the crossing is the first sign change
    between samples ``i`` and ``i + 1`` in ``[start, stop]``, rounded
    to the nearer of the two by linear interpolation; failing that,
    the first exact zero in ``[start, stop]``; failing both, the pair
    yields no peak.  All pairs resolve in one pass of array ops.
    """
    if not pairs:
        return []
    start, stop = np.asarray(pairs, dtype=np.int64).T
    signs = np.sign(w1)
    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    zeros = np.flatnonzero(signs == 0)
    first = _first_at_or_after(changes, start)
    crossing = first < stop  # the change at i needs i + 1 <= stop
    i = np.where(crossing, first, 0)
    left, right = np.abs(w1[i]), np.abs(w1[i + 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(crossing, left / (left + right), 0.0)
    # rint rounds half to even, like the scalar round() it replaces.
    peaks = np.where(crossing, i + np.rint(frac).astype(np.int64), -1)
    zero = _first_at_or_after(zeros, start)
    use_zero = ~crossing & (zero <= stop)
    peaks[use_zero] = zero[use_zero]
    return peaks[(peaks >= 0) & (stop > start)].tolist()


def _first_at_or_after(positions: np.ndarray, start: np.ndarray) -> np.ndarray:
    """First element of sorted ``positions`` at or after each ``start``
    (a sentinel past every index where there is none)."""
    k = np.searchsorted(positions, start)
    padded = np.append(positions, np.iinfo(np.int64).max)
    return padded[k]


def _enforce_refractory(
    peaks: list[int], w: np.ndarray, fs: float, config: PeakDetectorConfig
) -> list[int]:
    """Drop peaks closer than the refractory period (keep the stronger)."""
    if not peaks:
        return []
    refractory = int(round(config.refractory * fs))
    strength = np.abs(w[1])
    kept: list[int] = []
    for peak in sorted(peaks):
        if kept and peak - kept[-1] < refractory:
            if strength[peak] > strength[kept[-1]]:
                kept[-1] = peak
        else:
            kept.append(peak)
    return kept


def _searchback(
    peaks: list[int],
    w: np.ndarray,
    thresholds: np.ndarray,
    fs: float,
    config: PeakDetectorConfig,
) -> list[int]:
    """Re-scan long RR gaps with halved thresholds."""
    if len(peaks) < 3:
        return peaks
    peaks = sorted(peaks)
    rr = np.diff(peaks)
    median_rr = float(np.median(rr))
    if median_rr <= 0:
        return peaks
    out = list(peaks)
    for left, right in zip(peaks[:-1], peaks[1:]):
        if right - left <= config.searchback_factor * median_rr:
            continue
        lo = left + int(round(config.refractory * fs))
        hi = right - int(round(config.refractory * fs))
        if hi <= lo:
            continue
        segment = w[:, lo:hi]
        pairs = _find_pairs(segment, thresholds, fs, config, relax=0.5)
        out.extend(lo + crossing for crossing in _pairs_to_peaks(segment[0], pairs))
    return sorted(set(out))
