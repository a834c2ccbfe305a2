"""Property tests: the array-op peak search against the scalar original.

``_find_pairs`` corroborates every modulus maximum with prefix counts
and ``_pairs_to_peaks`` resolves every zero crossing in one pass.  The
oracle below is the per-maximum / per-pair scalar formulation they
replaced (one ``np.any`` per maximum and scale, one sign scan per
pair); both must agree exactly — on relaxed search-back thresholds,
on maxima within the corroboration window of a window edge and on
coefficients with exact zeros.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsp.peak_detection import (
    PeakDetectorConfig,
    _enforce_refractory,
    _find_pairs,
    _modulus_maxima,
    _pairs_to_peaks,
    detect_peaks_from_wavelet,
)
from repro.dsp.wavelet import dyadic_wavelet
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------


def oracle_has_neighbour(w_scale, position, window, sign, threshold):
    lo = max(0, position - window)
    hi = min(w_scale.size, position + window + 1)
    segment = w_scale[lo:hi]
    if sign >= 0:
        return bool(np.any(segment >= threshold))
    return bool(np.any(segment <= -threshold))


def oracle_find_pairs(w, thresholds, fs, config, relax=1.0):
    detection_scale = 1
    maxima = _modulus_maxima(w[detection_scale], thresholds[detection_scale] * relax)
    if maxima.size == 0:
        return []
    corro = int(round(config.corroboration_window * fs))
    corroborated = [
        m
        for m in maxima
        if oracle_has_neighbour(
            w[0], m, corro, np.sign(w[detection_scale][m]), thresholds[0] * relax
        )
        and oracle_has_neighbour(
            w[2], m, corro, np.sign(w[detection_scale][m]), thresholds[2] * relax
        )
    ]
    max_sep = int(round(config.max_pair_separation * fs))
    pairs = []
    used = -1
    values = w[detection_scale]
    for i, m in enumerate(corroborated):
        if m <= used or values[m] <= 0:
            continue
        for n in corroborated[i + 1 :]:
            if n - m > max_sep:
                break
            if values[n] < 0:
                pairs.append((int(m), int(n)))
                used = n
                break
    return pairs


def oracle_zero_crossing(w, start, stop):
    if stop <= start:
        return None
    segment = w[start : stop + 1]
    signs = np.sign(segment)
    changes = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if changes.size == 0:
        zero = np.flatnonzero(signs == 0)
        if zero.size:
            return start + int(zero[0])
        return None
    i = int(changes[0])
    left, right = segment[i], segment[i + 1]
    frac = abs(left) / (abs(left) + abs(right))
    return start + i + int(round(frac))


def oracle_pairs_to_peaks(w1, pairs):
    peaks = []
    for start, stop in pairs:
        crossing = oracle_zero_crossing(w1, start, stop)
        if crossing is not None:
            peaks.append(crossing)
    return peaks


def oracle_searchback(peaks, w, thresholds, fs, config):
    if len(peaks) < 3:
        return peaks
    peaks = sorted(peaks)
    median_rr = float(np.median(np.diff(peaks)))
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
        pairs = oracle_find_pairs(segment, thresholds, fs, config, relax=0.5)
        for start, stop in pairs:
            crossing = oracle_zero_crossing(segment[0], start, stop)
            if crossing is not None:
                out.append(lo + crossing)
    return sorted(set(out))


def oracle_detect(w, thresholds, fs, config):
    pairs = oracle_find_pairs(w, thresholds, fs, config)
    peaks = oracle_pairs_to_peaks(w[0], pairs)
    peaks = _enforce_refractory(peaks, w, fs, config)
    peaks = oracle_searchback(peaks, w, thresholds, fs, config)
    peaks = _enforce_refractory(peaks, w, fs, config)
    return np.asarray(sorted(set(int(p) for p in peaks)), dtype=np.int64)


# ----------------------------------------------------------------------
# Strategies: coarse half-integer coefficients make exact zeros, ties
# and threshold-equal samples common.
# ----------------------------------------------------------------------

coarse = st.integers(-6, 6).map(lambda k: k * 0.5)


@st.composite
def wavelet_windows(draw):
    n = draw(st.integers(3, 160))
    w = draw(hnp.arrays(np.float64, (4, n), elements=coarse))
    thresholds = np.asarray(
        draw(st.lists(st.integers(0, 8).map(lambda k: k * 0.25), min_size=4, max_size=4))
    )
    fs = draw(st.sampled_from([50.0, 100.0, 250.0]))
    return w, thresholds, fs


CONFIG = PeakDetectorConfig()


class TestFindPairs:
    @settings(max_examples=200, deadline=None)
    @given(wavelet_windows(), st.sampled_from([1.0, 0.5]))
    def test_matches_scalar_oracle(self, window, relax):
        w, thresholds, fs = window
        assert _find_pairs(w, thresholds, fs, CONFIG, relax=relax) == oracle_find_pairs(
            w, thresholds, fs, CONFIG, relax=relax
        )

    def test_maxima_at_window_edges(self):
        """Maxima one sample from either edge, corroborated only by
        samples at the far ends of their clipped windows."""
        fs = 100.0  # corroboration window: 6 samples, max separation 12
        n = 12
        w = np.zeros((4, n))
        w[1, 1], w[1, 2] = 3.0, 1.0  # maximum at 1: window [0, 7]
        w[1, n - 3], w[1, n - 2] = -1.0, -3.0  # maximum at 10: window [4, 11]
        w[0, 0] = w[2, 7] = 2.0
        w[0, n - 1] = w[2, 4] = -2.0
        thresholds = np.ones(4)
        for relax in (1.0, 0.5):
            got = _find_pairs(w, thresholds, fs, CONFIG, relax=relax)
            assert got == oracle_find_pairs(w, thresholds, fs, CONFIG, relax=relax)
            assert got == [(1, n - 2)]
        # One sample outside the window: no corroboration, no pair.
        w[2, 7], w[2, 8] = 0.0, 2.0
        got = _find_pairs(w, thresholds, fs, CONFIG)
        assert got == oracle_find_pairs(w, thresholds, fs, CONFIG) == []


class TestPairsToPeaks:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(2, 80), elements=coarse),
        st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=12),
    )
    def test_matches_scalar_oracle(self, w1, raw_pairs):
        pairs = [(a, b) for a, b in raw_pairs if a < w1.size and b < w1.size]
        assert _pairs_to_peaks(w1, pairs) == oracle_pairs_to_peaks(w1, pairs)

    def test_exact_zero_and_no_crossing(self):
        w1 = np.array([1.0, 0.0, 2.0, 3.0, 1.0, -1.0, 4.0])
        pairs = [(0, 2), (2, 4), (3, 5), (0, 0)]
        assert _pairs_to_peaks(w1, pairs) == oracle_pairs_to_peaks(w1, pairs) == [1, 4]


class TestDetectPeaks:
    @settings(max_examples=100, deadline=None)
    @given(wavelet_windows())
    def test_whole_detector_matches_oracle(self, window):
        w, thresholds, fs = window
        np.testing.assert_array_equal(
            detect_peaks_from_wavelet(w, thresholds, fs, CONFIG),
            oracle_detect(w, thresholds, fs, CONFIG),
        )

    def test_synthetic_record_with_searchback(self):
        """A real ECG window whose thresholds force search-back runs."""
        record = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=5).synthesize(
            20.0, class_mix={"N": 0.7, "V": 0.3}
        )
        w = dyadic_wavelet(record.lead(0), n_scales=4)
        rms = np.sqrt(np.mean(np.square(w), axis=1))
        for factor in (1.0, 2.2, 4.0):
            thresholds = factor * rms
            got = detect_peaks_from_wavelet(w, thresholds, record.fs, CONFIG)
            np.testing.assert_array_equal(
                got, oracle_detect(w, thresholds, record.fs, CONFIG)
            )
            assert got.size > 0
