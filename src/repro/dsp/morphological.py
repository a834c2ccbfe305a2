"""Morphological operators and the filtering stages built from them.

The embedded filtering chain of Rincon et al. — reused by the paper as
the front end of sub-system (1) — relies on grayscale morphology with
flat (all-zero) structuring elements, because erosions and dilations
need only comparisons, no multiplications, and therefore run cheaply on
a WBSN microcontroller.

Baseline-wander removal follows the classic opening–closing scheme: an
opening with a structuring element longer than the QRS removes the
peaks, a subsequent closing with a longer element removes the valleys;
the result tracks the baseline drift, which is then subtracted from the
signal.  Noise suppression averages an opening and a closing with a
short element, smoothing measurement noise while preserving wave edges.

Every operator takes an optional ``counter`` (any object with an
``add(op, n)`` method) and records the comparison/addition counts a
straightforward embedded implementation would execute.  Counts assume
the naive sliding-window implementation (window length *m* costs *m - 1*
comparisons per output sample), matching the reference C code's
behaviour rather than an asymptotically optimal algorithm.

The Python implementation itself, however, is *not* naive: erosion and
dilation run the window-doubling kernel from :mod:`repro.dsp.kernels`
(``ceil(log2 m)`` vectorized passes), which is bit-exact with the
sliding window — min/max involve no rounding — while being
O(n·log m) instead of O(n·m).  The op counters deliberately keep
reporting the naive counts: they model the reference C firmware's
work, not this implementation's.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.kernels import sliding_extremum


def _count(counter, op: str, n: int) -> None:
    """Record ``n`` operations of kind ``op`` if a counter is attached."""
    if counter is not None and n > 0:
        counter.add(op, n)


def _check_structuring_element(length: int) -> None:
    if length < 1:
        raise ValueError("structuring element length must be >= 1")


def charge_extremum_ops(counter, n: int, length: int) -> None:
    """Charge the naive sliding-window cost of one erosion/dilation.

    The single point of truth for the reference C firmware's per-call
    counts (``length - 1`` comparisons per output sample, see module
    docs): used by :func:`erosion`/:func:`dilation` themselves and by
    the batched/streaming delineation paths, which charge the same
    per-beat work analytically instead of re-running the operators.
    """
    _count(counter, "cmp", n * (length - 1))
    _count(counter, "load", n * length)
    _count(counter, "store", n)


def structuring_element_length(window_s: float, fs: float) -> int:
    """Structuring-element length (samples) for a window in seconds.

    Rounded to the nearest odd length and floored at 3 samples — the
    single point of truth shared by the batch filtering stages, the
    streaming :class:`repro.dsp.streaming.BlockFilter` (whose
    bit-exactness with the batch path depends on using identical
    lengths) and the context/latency accounting.
    """
    if fs <= 0:
        raise ValueError("sampling frequency must be positive")
    return max(3, int(round(window_s * fs)) | 1)


def _pad_edges(x: np.ndarray, length: int) -> np.ndarray:
    """Edge-replicate padding so outputs keep the input length."""
    left = length // 2
    padded = np.empty(x.size + length - 1, dtype=x.dtype)
    padded[:left] = x[0]
    padded[left : left + x.size] = x
    padded[left + x.size :] = x[-1]
    return padded


def erosion(x: np.ndarray, length: int, counter=None) -> np.ndarray:
    """Grayscale erosion with a flat structuring element.

    Parameters
    ----------
    x:
        1-D signal.
    length:
        Structuring-element length in samples.
    counter:
        Optional op-counter.

    Returns
    -------
    np.ndarray
        Sliding minimum of ``x`` over windows of ``length`` samples,
        same length as ``x`` (edge-replicated at the borders).
    """
    _check_structuring_element(length)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("morphological operators expect 1-D signals")
    charge_extremum_ops(counter, x.size, length)
    if length == 1:
        return x.copy()
    return sliding_extremum(_pad_edges(x, length), length, maximum=False)


def dilation(x: np.ndarray, length: int, counter=None) -> np.ndarray:
    """Grayscale dilation (sliding maximum) with a flat element."""
    _check_structuring_element(length)
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("morphological operators expect 1-D signals")
    charge_extremum_ops(counter, x.size, length)
    if length == 1:
        return x.copy()
    return sliding_extremum(_pad_edges(x, length), length, maximum=True)


def opening(x: np.ndarray, length: int, counter=None) -> np.ndarray:
    """Morphological opening: erosion followed by dilation."""
    return dilation(erosion(x, length, counter), length, counter)


def closing(x: np.ndarray, length: int, counter=None) -> np.ndarray:
    """Morphological closing: dilation followed by erosion."""
    return erosion(dilation(x, length, counter), length, counter)


def estimate_baseline(
    x: np.ndarray,
    fs: float,
    qrs_window: float = 0.2,
    wave_window: float = 0.3,
    counter=None,
) -> np.ndarray:
    """Estimate baseline wander by an opening–closing cascade.

    Parameters
    ----------
    x:
        1-D ECG lead.
    fs:
        Sampling frequency in Hz.
    qrs_window:
        Opening element duration (seconds); must exceed the QRS width so
        the opening removes QRS peaks.
    wave_window:
        Closing element duration (seconds); must exceed the T-wave width
        so the closing removes the remaining wave lobes.
    """
    opening_length = structuring_element_length(qrs_window, fs)
    closing_length = structuring_element_length(wave_window, fs)
    return closing(opening(x, opening_length, counter), closing_length, counter)


def remove_baseline(
    x: np.ndarray,
    fs: float,
    qrs_window: float = 0.2,
    wave_window: float = 0.3,
    counter=None,
) -> np.ndarray:
    """Remove baseline wander: ``x - estimate_baseline(x)``."""
    baseline = estimate_baseline(x, fs, qrs_window, wave_window, counter)
    _count(counter, "sub", np.asarray(x).size)
    return np.asarray(x) - baseline


def suppress_noise(x: np.ndarray, fs: float, window: float = 0.014, counter=None) -> np.ndarray:
    """Suppress wideband noise by averaging an opening and a closing.

    A short structuring element (default 14 ms, ~5 samples at 360 Hz)
    smooths noise spikes while preserving the sharp QRS edges better
    than a linear low-pass of the same support.
    """
    length = structuring_element_length(window, fs)
    x = np.asarray(x)
    smoothed = opening(x, length, counter) + closing(x, length, counter)
    _count(counter, "add", x.size)
    _count(counter, "shift", x.size)  # divide-by-two as a right shift
    return smoothed / 2.0


def filter_lead(x: np.ndarray, fs: float, counter=None) -> np.ndarray:
    """Full single-lead filtering stage: baseline removal + denoising.

    This is the "Filtering" block of Figure 6, applied once per lead.
    """
    return suppress_noise(remove_baseline(x, fs, counter=counter), fs, counter=counter)
