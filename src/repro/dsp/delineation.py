"""Single-, multi-lead and batched delineation of P / QRS / T fiducials.

This is the "detailed analysis" of Figure 6: for every heartbeat it
produces the nine fiducial points the paper transmits for abnormal
beats — onset, peak and end of the P wave, the QRS complex and the
T wave.  Wave boundaries are located as extrema of the multi-scale
morphological derivative (:mod:`repro.dsp.mmd`) inside physiological
search windows around the R peak; wave peaks are amplitude extrema in
the same windows.

The multi-lead variant executes the delineation "over the combination
of the three filtered leads": each lead is delineated independently and
the per-fiducial median across leads is reported, which rejects
lead-local noise without inter-lead arithmetic.

Three execution forms share one fiducial-location core
(:func:`_locate_fiducials`), so they are bit-exact with each other:

* :func:`delineate_beat` / :func:`delineate_multilead` — the reference
  per-beat path, mirroring the embedded firmware's beat buffer;
* :func:`delineate_beats` — the batched path: the segments of all
  record-interior beats are gathered into one array, so each MMD scale
  is one 2-D pass over every beat and lead
  (:func:`~repro.dsp.mmd.mmd_rows`) instead of one
  :func:`~repro.dsp.mmd.mmd_transform` call per beat per lead, and the
  window scans run once for the whole batch;
* :class:`StreamingDelineator` — the bounded-memory form: a sliding
  buffer of filtered samples trimmed to the P/T search span, so the
  gated detailed-analysis stage no longer needs whole-record context;
  :meth:`StreamingDelineator.add_beats_rows` runs the batched pass
  over the beats of many streams at once.

Op counters always report the *per-beat* work of the reference
embedded implementation (the same counts :func:`delineate_multilead`
records), regardless of which execution form produced the values —
exactly like the O(n) morphology kernels keep reporting the naive
sliding-window counts.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

import numpy as np

from repro.dsp.mmd import charge_mmd_ops, mmd_rows, mmd_transform

#: Names of the nine fiducial points, in temporal order.
FIDUCIAL_NAMES = (
    "p_onset",
    "p_peak",
    "p_end",
    "qrs_onset",
    "r_peak",
    "qrs_end",
    "t_onset",
    "t_peak",
    "t_end",
)

#: One-sided margin (seconds) the beat segment extends past the search
#: windows, matching the embedded beat buffer.
SEGMENT_MARGIN_S = 0.05


@dataclass(frozen=True)
class DelineationConfig:
    """Search windows (seconds, relative to the R peak) and MMD scales."""

    p_search: tuple[float, float] = (-0.30, -0.08)
    qrs_onset_search: tuple[float, float] = (-0.14, -0.008)
    qrs_end_search: tuple[float, float] = (0.008, 0.16)
    t_search: tuple[float, float] = (0.14, 0.42)
    qrs_scale_s: float = 0.017
    p_scale_s: float = 0.028
    t_scale_s: float = 0.039

    def segment_offsets(self, fs: float) -> tuple[int, int]:
        """Segment bounds relative to the peak: ``[peak + lo, peak + hi)``.

        ``lo`` is negative; the segment covers every search window plus
        :data:`SEGMENT_MARGIN_S` on each side.
        """
        lo = int(round((self.p_search[0] - SEGMENT_MARGIN_S) * fs))
        hi = int(round((self.t_search[1] + SEGMENT_MARGIN_S) * fs)) + 1
        return lo, hi

    def mmd_scales(self, fs: float) -> tuple[int, int, int]:
        """QRS / P / T structuring-element half-widths in samples."""
        return (
            max(2, int(round(self.qrs_scale_s * fs))),
            max(2, int(round(self.p_scale_s * fs))),
            max(2, int(round(self.t_scale_s * fs))),
        )


@dataclass(frozen=True)
class BeatFiducials:
    """Fiducial sample indices of one beat (record coordinates).

    A fiducial can be ``-1`` when the corresponding wave was not found
    in its search window (e.g. the absent P wave of a PVC).
    """

    p_onset: int
    p_peak: int
    p_end: int
    qrs_onset: int
    r_peak: int
    qrs_end: int
    t_onset: int
    t_peak: int
    t_end: int

    def as_array(self) -> np.ndarray:
        """All nine indices as an ``int64`` array in temporal order."""
        return np.array([getattr(self, name) for name in FIDUCIAL_NAMES], dtype=np.int64)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "BeatFiducials":
        """Inverse of :meth:`as_array`."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (len(FIDUCIAL_NAMES),):
            raise ValueError(f"expected {len(FIDUCIAL_NAMES)} fiducials")
        return cls(**{name: int(v) for name, v in zip(FIDUCIAL_NAMES, values)})

    @property
    def n_found(self) -> int:
        """Number of fiducials actually located (not ``-1``)."""
        return int(np.sum(self.as_array() >= 0))


def _window_indices(
    peak: int, search: tuple[float, float], fs: float, n: int
) -> tuple[int, int]:
    lo = max(0, peak + int(round(search[0] * fs)))
    hi = min(n, peak + int(round(search[1] * fs)) + 1)
    return lo, hi


def _find_wave(
    x: np.ndarray, lo: int, hi: int, reference: float, min_relative: float
) -> int:
    """Peak of the wave in ``[lo, hi)``, or ``-1`` if no wave is present.

    A wave exists when the largest detrended deflection exceeds
    ``min_relative`` of the R amplitude *and* peaks in the window
    interior: baseline steps put their largest detrended residual at a
    window edge, true waves peak inside.  The presence test and the
    peak location share one detrend pass.
    """
    if hi <= lo + 3:
        return -1
    segment = _detrend(x[lo:hi])
    deflection = np.abs(segment)
    peak = int(np.argmax(deflection))
    if deflection[peak] < min_relative * reference:
        return -1
    margin = max(1, segment.size // 10)
    if not margin <= peak < segment.size - margin:
        return -1
    return lo + peak


def _boundary_before(mmd: np.ndarray, lo: int, anchor: int) -> int:
    """Onset: the MMD maximum in ``[lo, anchor)`` (concave corner)."""
    if anchor <= lo:
        return -1
    return lo + int(np.argmax(mmd[lo:anchor]))


def _boundary_after(mmd: np.ndarray, anchor: int, hi: int) -> int:
    """End: the MMD maximum in ``(anchor, hi]``."""
    if hi <= anchor + 1:
        return -1
    return anchor + 1 + int(np.argmax(mmd[anchor + 1 : hi]))


def _detrend(segment: np.ndarray) -> np.ndarray:
    """Remove the line through the window's endpoint means.

    Morphological baseline filtering leaves piecewise-flat residuals
    (plateaus and ramps); detrending removes them so that only actual
    *bumps* — waves — survive the presence test.
    """
    if segment.size < 4:
        return segment - segment.mean()
    edge = max(2, segment.size // 10)
    start = float(segment[:edge].mean())
    stop = float(segment[-edge:].mean())
    trend = np.linspace(start, stop, segment.size)
    return segment - trend


#: Minimum gap (seconds) between the previous R peak and the start of
#: this beat's P search window: skips the previous beat's T wave.
PREVIOUS_BEAT_GUARD_S = 0.36


def _segment_bounds(peak: int, fs: float, config: DelineationConfig, n: int) -> tuple[int, int]:
    """Clamped record coordinates of the beat's analysis segment."""
    off_lo, off_hi = config.segment_offsets(fs)
    return max(0, peak + off_lo), min(n, peak + off_hi)


def _locate_fiducials(
    segment: np.ndarray,
    mmd_qrs: np.ndarray,
    mmd_p: np.ndarray,
    mmd_t: np.ndarray,
    local_peak: int,
    seg_lo: int,
    peak: int,
    fs: float,
    config: DelineationConfig,
    previous_peak: int | None,
    r_amplitude: float | None = None,
) -> BeatFiducials:
    """Locate the nine fiducials of one lead given the segment MMDs.

    This is the single fiducial-location core shared by the per-beat,
    batched and streaming paths; ``segment`` must equal the record
    slice ``x[seg_lo:seg_hi]``, the MMD arrays must match
    :func:`~repro.dsp.mmd.mmd_transform` of that segment exactly, and
    ``r_amplitude``, when precomputed (the batched path medians all
    segments of a lead in one pass), must equal the per-segment value
    below.
    """
    _, p_scale, t_scale = config.mmd_scales(fs)

    if r_amplitude is None:
        r_amplitude = float(abs(segment[local_peak] - np.median(segment)))

    qo_lo, qo_hi = _window_indices(local_peak, config.qrs_onset_search, fs, segment.size)
    qe_lo, qe_hi = _window_indices(local_peak, config.qrs_end_search, fs, segment.size)
    qrs_onset = _boundary_before(mmd_qrs, qo_lo, qo_hi)
    qrs_end = _boundary_after(mmd_qrs, qe_lo, qe_hi)

    p_lo, p_hi = _window_indices(local_peak, config.p_search, fs, segment.size)
    if previous_peak is not None:
        guard = int(previous_peak) + int(round(PREVIOUS_BEAT_GUARD_S * fs)) - seg_lo
        p_lo = max(p_lo, guard)
    p_peak = _find_wave(segment, p_lo, p_hi, r_amplitude, min_relative=0.08)
    if p_peak >= 0:
        p_onset = _boundary_before(mmd_p, max(0, p_lo - p_scale), p_peak)
        p_end = _boundary_after(mmd_p, p_peak, min(segment.size, p_hi + p_scale))
    else:
        p_onset = p_end = -1

    t_lo, t_hi = _window_indices(local_peak, config.t_search, fs, segment.size)
    t_peak = _find_wave(segment, t_lo, t_hi, r_amplitude, min_relative=0.05)
    if t_peak >= 0:
        t_onset = _boundary_before(mmd_t, max(0, t_lo - t_scale), t_peak)
        t_end = _boundary_after(mmd_t, t_peak, min(segment.size, t_hi + t_scale))
    else:
        t_onset = t_end = -1

    def to_record(idx: int) -> int:
        return idx + seg_lo if idx >= 0 else -1

    return BeatFiducials(
        p_onset=to_record(p_onset),
        p_peak=to_record(p_peak),
        p_end=to_record(p_end),
        qrs_onset=to_record(qrs_onset),
        r_peak=peak,
        qrs_end=to_record(qrs_end),
        t_onset=to_record(t_onset),
        t_peak=to_record(t_peak),
        t_end=to_record(t_end),
    )


def _combine_leads(per_lead: np.ndarray) -> np.ndarray:
    """Per-fiducial median across leads; ``-1`` unless a majority found it."""
    combined = np.empty(per_lead.shape[1], dtype=np.int64)
    for j in range(per_lead.shape[1]):
        found = per_lead[:, j][per_lead[:, j] >= 0]
        if found.size * 2 > per_lead.shape[0]:
            combined[j] = int(np.median(found))
        else:
            combined[j] = -1
    return combined


def delineate_beat(
    x: np.ndarray,
    peak: int,
    fs: float,
    config: DelineationConfig | None = None,
    counter=None,
    previous_peak: int | None = None,
) -> BeatFiducials:
    """Delineate one beat on one lead.

    Parameters
    ----------
    x:
        Filtered lead (full record coordinates).
    peak:
        R-peak sample index.
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    counter:
        Optional op-counter (the MMD work dominates and is recorded by
        the morphological primitives; window scans add comparisons).
    previous_peak:
        R peak of the preceding beat, when known.  The P search is then
        gated to start after the previous beat's T wave, which prevents
        a premature beat (short coupling interval) from mistaking its
        predecessor's T wave for a P wave.

    Returns
    -------
    BeatFiducials
        Nine fiducial indices; ``-1`` marks waves not found.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("delineate_beat expects a single lead")
    config = config or DelineationConfig()
    n = x.size
    peak = int(peak)
    if not 0 <= peak < n:
        raise ValueError("peak index outside the record")

    # Work on a local segment covering all search windows to bound the
    # per-beat cost (the embedded code does the same with a beat buffer).
    seg_lo, seg_hi = _segment_bounds(peak, fs, config, n)
    segment = x[seg_lo:seg_hi]

    qrs_scale, p_scale, t_scale = config.mmd_scales(fs)
    mmd_qrs = mmd_transform(segment, qrs_scale, counter)
    mmd_p = mmd_transform(segment, p_scale, counter)
    mmd_t = mmd_transform(segment, t_scale, counter)
    if counter is not None:
        counter.add("cmp", 4 * segment.size)

    return _locate_fiducials(
        segment, mmd_qrs, mmd_p, mmd_t, peak - seg_lo, seg_lo, peak, fs, config, previous_peak
    )


def delineate_multilead(
    leads: np.ndarray,
    peak: int,
    fs: float,
    config: DelineationConfig | None = None,
    counter=None,
    previous_peak: int | None = None,
) -> BeatFiducials:
    """Three-lead delineation: per-lead delineation + per-fiducial median.

    Parameters
    ----------
    leads:
        ``(n_samples, n_leads)`` filtered signal.
    peak:
        R-peak sample index.
    fs, config, counter:
        As in :func:`delineate_beat`.

    Returns
    -------
    BeatFiducials
        Median fiducials across leads; a fiducial is ``-1`` only when a
        majority of leads failed to locate it.
    """
    leads = np.asarray(leads, dtype=float)
    if leads.ndim != 2:
        raise ValueError("delineate_multilead expects (n_samples, n_leads)")
    per_lead = np.stack(
        [
            delineate_beat(
                leads[:, lead], peak, fs, config, counter, previous_peak
            ).as_array()
            for lead in range(leads.shape[1])
        ],
        axis=0,
    )
    if counter is not None:
        counter.add("cmp", per_lead.size * 2)
    return BeatFiducials.from_array(_combine_leads(per_lead))


# ----------------------------------------------------------------------
# Batched delineation
# ----------------------------------------------------------------------


def _charge_beat_ops(counter, segment_size: int, scales: tuple[int, ...], n_leads: int) -> None:
    """Charge the per-beat op counts of the reference per-beat path.

    The counters model the embedded firmware's beat-buffer work — the
    exact counts :func:`delineate_multilead` records — not the batched
    implementation's.  Per lead: the three MMD transforms (via the
    count-only :func:`~repro.dsp.mmd.charge_mmd_ops` mirror) and the
    window-scan comparisons; plus the lead-combination comparisons.
    """
    if counter is None:
        return
    n = int(segment_size)
    for _ in range(n_leads):
        for scale in scales:
            charge_mmd_ops(counter, n, scale)
    counter.add("cmp", n_leads * 4 * n)
    counter.add("cmp", n_leads * len(FIDUCIAL_NAMES) * 2)


def _detrend_rows(block: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_detrend` of the windows ``block[r, offset[r]:]``.

    Each row uses the scalar path's exact arithmetic: the endpoint
    means over its own edge width (rows with one edge width share one
    sum, divided by the width as ``mean`` does), and the line
    ``j * step + start`` with the last sample pinned to the end mean,
    as :func:`numpy.linspace` builds it for one window — so a row's
    values never depend on the other rows (``linspace`` over stacked
    endpoints switches every row to its zero-step formula when any one
    step is zero).  Columns before a row's window are left unspecified.
    """
    n_rows, n = block.shape
    width = n - offset
    edge = np.maximum(2, width // 10)
    first = np.empty(n_rows)
    last = np.empty(n_rows)
    edges = edge.tolist()
    for e in set(edges):
        sel = [r for r, value in enumerate(edges) if value == e]
        head = block[np.array(sel)[:, np.newaxis], offset[sel, np.newaxis] + np.arange(e)]
        first[sel] = np.add.reduce(head, axis=1) / e
        last[sel] = np.add.reduce(block[sel, n - e :], axis=1) / e
    step = (last - first) / (width - 1)
    trend = (np.arange(n) - offset[:, np.newaxis]) * step[:, np.newaxis]
    trend += first[:, np.newaxis]
    trend[:, -1] = last
    return block - trend


def _wave_scan_batch(
    segments: np.ndarray,
    lo: np.ndarray,
    hi: int,
    reference: np.ndarray,
    min_relative: float,
) -> np.ndarray:
    """Vectorized :func:`_find_wave` over beats with per-beat window starts.

    The window end is uniform (it depends only on the shared segment
    geometry) but the start varies — the P search is gated by each
    beat's previous peak.  Every row is detrended on its own window
    (:func:`_detrend_rows`) and the columns before it are masked, so
    one ``argmax`` pass finds every row's wave — bit-exact with the
    scalar scan, row by row.
    """
    out = np.full(segments.shape[0], -1, dtype=np.int64)
    rows = (hi > lo + 3).nonzero()[0]
    if not rows.size:
        return out
    start = lo[rows]
    base = int(np.minimum.reduce(start))
    offset = start - base  # window start within the block
    deflection = np.abs(_detrend_rows(segments[rows, base:hi], offset))
    deflection[np.arange(hi - base) < offset[:, np.newaxis]] = -1.0  # never the peak
    peak = deflection.argmax(axis=1) - offset  # window coordinates
    width = hi - start
    margin = np.maximum(1, width // 10)
    found = ~(deflection.max(axis=1) < min_relative * reference[rows])
    found &= (peak >= margin) & (peak < width - margin)
    out[rows[found]] = start[found] + peak[found]
    return out


def _masked_argmax(rows: np.ndarray, lo: np.ndarray, hi) -> np.ndarray:
    """Per-row ``lo[i] + argmax(rows[i, lo[i]:hi[i]])``; ``-1`` where empty.

    ``hi`` is per row or one bound for every row.  Masking
    out-of-window columns to ``-inf`` preserves the first-max
    tie-breaking of the sliced scalar argmax, so the result is
    bit-identical to :func:`_boundary_before` /
    :func:`_boundary_after` window by window.
    """
    cols = np.arange(rows.shape[1])
    inside = (cols >= lo[:, np.newaxis]) & (cols < np.reshape(hi, (-1, 1)))
    idx = np.where(inside, rows, -np.inf).argmax(axis=1)
    return np.where(hi > lo, idx, -1)


def _boundaries_batch(
    segments: np.ndarray,
    found: np.ndarray,
    scale: int,
    onset_lo: np.ndarray,
    end_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Wave onsets and ends of the rows with a wave peak (``found >= 0``).

    Onset: the MMD maximum in ``[onset_lo, peak)``; end: the maximum in
    ``(peak, end_hi)`` — :func:`_boundary_before` /
    :func:`_boundary_after` row by row.  The MMD is computed only for
    those rows and only over the columns the scans read.
    """
    onset = np.full(found.size, -1, dtype=np.int64)
    end = onset.copy()
    rows = (found >= 0).nonzero()[0]
    if not rows.size:
        return onset, end
    peak = found[rows]
    lo = onset_lo[rows]
    first = int(np.minimum.reduce(lo))
    mmd = mmd_rows(segments[rows], scale, first, end_hi)
    peak_col = peak - first
    before = _masked_argmax(mmd, lo - first, peak_col)
    after = _masked_argmax(mmd, peak_col + 1, end_hi - first)
    onset[rows] = np.where(before >= 0, before + first, -1)
    end[rows] = np.where(after >= 0, after + first, -1)
    return onset, end


#: Column of each fiducial in a ``(k, 9)`` fiducial array.
_COLUMN = {name: j for j, name in enumerate(FIDUCIAL_NAMES)}


def _locate_fiducials_batch(
    segments: np.ndarray,
    local_peak: int,
    seg_lo: np.ndarray,
    peaks: np.ndarray,
    fs: float,
    config: DelineationConfig,
    previous: np.ndarray,
    r_amps: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`_locate_fiducials` over one segment geometry.

    Every input row is a record-interior beat, so all nine search
    windows share their offsets relative to ``local_peak``; only the P
    search start (gated by ``previous``, ``-1`` = ungated) and the
    wave-dependent boundary anchors vary per beat.  Window scans
    become row-wise argmaxes (masked where the window varies), the
    presence tests one masked detrend pass per wave, and each MMD
    scale is computed (:func:`~repro.dsp.mmd.mmd_rows`) only over the
    columns its scans read — bit-exact with the scalar core, beat for
    beat, whose MMDs cover the whole segment.  The fiducials are
    written straight into one ``(k, 9)`` array.

    Returns the ``(k, 9)`` fiducials in record coordinates.
    """
    k, L = segments.shape
    qrs_scale, p_scale, t_scale = config.mmd_scales(fs)
    local = np.full((k, len(FIDUCIAL_NAMES)), -1, dtype=np.int64)
    local[:, _COLUMN["r_peak"]] = local_peak

    qo_lo, qo_hi = _window_indices(local_peak, config.qrs_onset_search, fs, L)
    qe_lo, qe_hi = _window_indices(local_peak, config.qrs_end_search, fs, L)
    first, stop = min(qo_lo, qe_lo + 1), max(qo_hi, qe_hi)
    if stop > first:
        mmd_qrs = mmd_rows(segments, qrs_scale, first, stop)
        if qo_hi > qo_lo:
            local[:, _COLUMN["qrs_onset"]] = qo_lo + mmd_qrs[
                :, qo_lo - first : qo_hi - first
            ].argmax(axis=1)
        if qe_hi > qe_lo + 1:
            local[:, _COLUMN["qrs_end"]] = qe_lo + 1 + mmd_qrs[
                :, qe_lo + 1 - first : qe_hi - first
            ].argmax(axis=1)

    p_lo, p_hi = _window_indices(local_peak, config.p_search, fs, L)
    guard = previous + int(round(PREVIOUS_BEAT_GUARD_S * fs)) - seg_lo
    p_start = np.where(previous >= 0, np.maximum(p_lo, guard), p_lo)
    t_lo, t_hi = _window_indices(local_peak, config.t_search, fs, L)
    t_start = np.full(k, t_lo, dtype=np.int64)
    for wave, start, hi, scale, min_relative in (
        ("p", p_start, p_hi, p_scale, 0.08),
        ("t", t_start, t_hi, t_scale, 0.05),
    ):
        peak = _wave_scan_batch(segments, start, hi, r_amps, min_relative)
        onset, end = _boundaries_batch(
            segments, peak, scale, np.maximum(0, start - scale), min(L, hi + scale)
        )
        local[:, _COLUMN[f"{wave}_onset"]] = onset
        local[:, _COLUMN[f"{wave}_peak"]] = peak
        local[:, _COLUMN[f"{wave}_end"]] = end

    out = np.where(local >= 0, local + seg_lo[:, np.newaxis], -1)
    out[:, _COLUMN["r_peak"]] = peaks
    return out


def _combine_leads_batch(per_lead: np.ndarray) -> np.ndarray:
    """:func:`_combine_leads` across all beats: ``(k, n_leads, 9) -> (k, 9)``."""
    import warnings

    n_leads = per_lead.shape[1]
    if n_leads == 1:
        # One lead: the median of a found value is itself and the
        # majority test is just "found" — absent fiducials are already
        # -1, so the lead's row passes through unchanged.
        return per_lead[:, 0].astype(np.int64, copy=True)
    found = per_lead >= 0
    counts = found.sum(axis=1)
    with warnings.catch_warnings():
        # All-NaN slices (no lead found the fiducial) are overridden
        # with -1 by the majority test below.
        warnings.simplefilter("ignore", RuntimeWarning)
        medians = np.nanmedian(np.where(found, per_lead.astype(float), np.nan), axis=1)
    return np.where(counts * 2 > n_leads, medians, -1.0).astype(np.int64)


def _delineate_interior(
    segments: np.ndarray,
    left: int,
    peaks: np.ndarray,
    previous: np.ndarray,
    fs: float,
    config: DelineationConfig,
) -> np.ndarray:
    """Multi-lead delineation of beats that share one segment geometry.

    ``segments`` is ``(k, L, n_leads)``: each beat's unclamped segment
    with the R peak at column ``left``; ``previous`` gates each P
    search (``-1`` = ungated).  The leads stack as rows, so each MMD
    scale is one :func:`~repro.dsp.mmd.mmd_rows` pass over every beat
    and lead, and the fiducial search and the lead combination each
    run once: bit-exact, beat for beat, with the scalar per-segment
    core.  Returns the ``(k, 9)`` fiducials in record coordinates.
    """
    k, length, n_leads = segments.shape
    rows = segments.transpose(2, 0, 1).reshape(n_leads * k, length)  # lead-major
    r_amps = np.abs(rows[:, left] - np.median(rows, axis=1))
    located = _locate_fiducials_batch(
        rows,
        left,
        np.concatenate((peaks - left,) * n_leads),
        np.concatenate((peaks,) * n_leads),
        fs,
        config,
        np.concatenate((previous,) * n_leads),
        r_amps,
    )
    return _combine_leads_batch(located.reshape(n_leads, k, -1).transpose(1, 0, 2))


def _delineate_segment_multilead(
    segment: np.ndarray,
    seg_lo: int,
    peak: int,
    fs: float,
    config: DelineationConfig,
    previous_peak: int | None,
    counter=None,
) -> BeatFiducials:
    """Multi-lead delineation of a pre-extracted ``(len, n_leads)`` segment.

    ``segment`` must equal the record slice the per-beat path would
    take (:func:`_segment_bounds`), which makes the result bit-exact
    with :func:`delineate_multilead` on the whole record.
    """
    scales = config.mmd_scales(fs)
    per_lead = np.empty((segment.shape[1], len(FIDUCIAL_NAMES)), dtype=np.int64)
    for lead in range(segment.shape[1]):
        seg = np.ascontiguousarray(segment[:, lead])
        mmds = [mmd_transform(seg, scale) for scale in scales]
        per_lead[lead] = _locate_fiducials(
            seg, *mmds, peak - seg_lo, seg_lo, peak, fs, config, previous_peak
        ).as_array()
    _charge_beat_ops(counter, segment.shape[0], scales, segment.shape[1])
    return BeatFiducials.from_array(_combine_leads(per_lead))


def _previous_or_unknown(previous_peak) -> int:
    """A previous-peak argument as an index, ``-1`` when unknown."""
    if previous_peak is None or int(previous_peak) < 0:
        return -1
    return int(previous_peak)


def delineate_beats(
    leads: np.ndarray,
    peaks: np.ndarray,
    fs: float,
    config: DelineationConfig | None = None,
    counters=None,
    previous_peaks=None,
) -> list[BeatFiducials]:
    """Batched multi-lead delineation of many beats in one pass.

    Equivalent to calling :func:`delineate_multilead` once per peak —
    bit-exact in both the returned fiducials and the recorded op
    counts.  Record-interior beats share one segment geometry, so
    their segments are gathered into one array and delineated
    together (:func:`_delineate_interior`); beats whose segment is
    clamped at a record edge take the scalar per-segment core.

    Parameters
    ----------
    leads:
        ``(n_samples, n_leads)`` filtered signal.
    peaks:
        R-peak sample indices of the beats to delineate (any order).
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    counters:
        Optional sequence of per-beat op-counters, aligned with
        ``peaks`` (entries may be ``None``).  Each receives the exact
        counts the per-beat path would record for that beat.
    previous_peaks:
        Optional sequence aligned with ``peaks``: the R peak preceding
        each beat (``None`` or negative when unknown), gating the P
        search as in :func:`delineate_beat`.

    Returns
    -------
    list[BeatFiducials]
        One entry per peak, in input order.
    """
    leads = np.asarray(leads, dtype=float)
    if leads.ndim != 2:
        raise ValueError("delineate_beats expects (n_samples, n_leads)")
    n, n_leads = leads.shape
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.ndim != 1:
        raise ValueError("peaks must be a 1-D index array")
    if peaks.size and not ((peaks >= 0) & (peaks < n)).all():
        raise ValueError("peak index outside the record")
    if counters is not None and len(counters) != peaks.size:
        raise ValueError("need one counter per peak")
    if previous_peaks is not None and len(previous_peaks) != peaks.size:
        raise ValueError("need one previous peak per peak")
    if not peaks.size:
        return []
    config = config or DelineationConfig()
    scales = config.mmd_scales(fs)
    previous = np.asarray(
        [_previous_or_unknown(p) for p in previous_peaks]
        if previous_peaks is not None else np.full(peaks.size, -1),
        dtype=np.int64,
    )
    off_lo, off_hi = config.segment_offsets(fs)
    interior = (peaks + off_lo >= 0) & (peaks + off_hi <= n)
    if off_hi - off_lo <= 2 * max(scales):
        interior[:] = False  # degenerate geometry: segment edges overlap
    combined = np.empty((peaks.size, len(FIDUCIAL_NAMES)), dtype=np.int64)
    rows = np.flatnonzero(interior)
    if rows.size:
        gather = peaks[rows, np.newaxis] + np.arange(off_lo, off_hi)
        combined[rows] = _delineate_interior(
            leads[gather], -off_lo, peaks[rows], previous[rows], fs, config
        )
    results = []
    for b in range(peaks.size):
        counter = counters[b] if counters is not None else None
        if interior[b]:
            _charge_beat_ops(counter, off_hi - off_lo, scales, n_leads)
            results.append(BeatFiducials.from_array(combined[b]))
            continue
        peak = int(peaks[b])
        lo, hi = _segment_bounds(peak, fs, config, n)
        prev = int(previous[b]) if previous[b] >= 0 else None
        results.append(
            _delineate_segment_multilead(leads[lo:hi], lo, peak, fs, config, prev, counter)
        )
    return results


# ----------------------------------------------------------------------
# Streaming delineation
# ----------------------------------------------------------------------


def _peak_of(item: tuple) -> int:
    return item[0]


class StreamingDelineator:
    """Bounded-memory multi-lead delineation of a filtered stream.

    The batch delineators need whole-record context; a WBSN node's
    gated "detailed analysis" stage cannot afford that.  This class
    keeps a sliding buffer of filtered samples trimmed to the P/T
    search span (plus a caller-chosen ``lookback``), delineates each
    scheduled beat as soon as its right context has arrived, and is
    bit-exact with :func:`delineate_multilead` on the completed record.

    Parameters
    ----------
    fs:
        Sampling frequency in Hz.
    config:
        Search windows and scales.
    lookback_s:
        Extra history (seconds) retained behind the live edge so beats
        can be scheduled late — e.g. a peak detector that confirms
        peaks one analysis window after they occur.  Memory stays
        bounded by ``lookback + segment span + largest push block``,
        independent of stream length.

    Notes
    -----
    ``push`` feeds filtered samples of all leads; ``add_beat``
    schedules a beat (any time while its left context is still
    buffered); both return the ``(peak, BeatFiducials)`` pairs that
    became final.  ``flush`` finalizes pending beats with the
    stream-end clamping the batch path applies at the record edge and
    prepares the instance for a fresh stream on the same timeline.
    :meth:`add_beats_rows` schedules beats on many delineators at once
    and delineates every one that became final in one pass;
    :meth:`add_beats` and :meth:`add_beat` are its one-row case.

    The buffer is preallocated and appended in place; trimming only
    advances a read position, and the live rows move to the front
    when an append would overflow (a snapshot pickles only them).
    """

    def __init__(
        self,
        fs: float,
        config: DelineationConfig | None = None,
        lookback_s: float = 0.0,
    ):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if lookback_s < 0:
            raise ValueError("lookback must be non-negative")
        self.fs = fs
        self.config = config or DelineationConfig()
        off_lo, off_hi = self.config.segment_offsets(fs)
        self._left = -off_lo  # samples of left context a segment needs
        self._right = off_hi  # samples past the peak that finalize it
        self._lookback = int(round(lookback_s * fs))
        self._data: np.ndarray | None = None  # (capacity, n_leads) storage
        self._head = 0  # row of _data holding absolute sample _start
        self._origin = 0  # absolute index where the current stream began
        self._start = 0  # absolute index of the oldest buffered sample
        self._end = 0  # absolute samples consumed
        self._pending: list[tuple[int, int | None, object]] = []
        self._hold: int | None = None

    def __getstate__(self) -> dict:
        # Snapshots carry only the live rows, not the spare capacity.
        state = self.__dict__.copy()
        if self._data is not None:
            state["_data"] = self._live().copy()
            state["_head"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        if "_buffer" in state:  # pickled before the in-place buffer
            state = dict(state, _data=state["_buffer"], _head=0)
            del state["_buffer"]
        self.__dict__.update(state)
        if self._data is not None:
            live = self._data
            self._data = np.empty((max(self._capacity(), live.shape[0]), live.shape[1]))
            self._data[: live.shape[0]] = live

    def _capacity(self) -> int:
        """Preallocated rows: the steady occupancy plus two seconds, so
        the live rows move to the front only every few pushes."""
        return self._lookback + self._left + 1 + 2 * int(round(self.fs))

    def _live(self) -> np.ndarray:
        """The buffered rows, absolute samples ``[_start, _end)``."""
        return self._data[self._head : self._head + self._end - self._start]

    @property
    def n_samples(self) -> int:
        """Absolute samples consumed so far."""
        return self._end

    @property
    def buffered_samples(self) -> int:
        """Current buffer occupancy (bounded, see class docs)."""
        return self._end - self._start

    @property
    def next_final(self) -> int | None:
        """Sample count at which the earliest scheduled beat gets its
        right context and becomes final (``None``: nothing scheduled)."""
        return self._pending[0][0] + self._right if self._pending else None

    def samples(self, lead: int, start: int, stop: int) -> np.ndarray:
        """Buffered samples ``[start, stop)`` (absolute indices) of one
        lead, as a fresh contiguous array."""
        if start < self._start or stop > self._end:
            raise RuntimeError("segmentation context discarded before use")
        lo = self._head + start - self._start
        return self._data[lo : lo + stop - start, lead].copy()

    def push(self, block: np.ndarray) -> list[tuple[int, BeatFiducials]]:
        """Feed filtered samples; return beats that became final."""
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[:, np.newaxis]
        if block.ndim != 2:
            raise ValueError("blocks must be (n,) or (n, n_leads)")
        if self._data is None:
            self._data = np.empty((self._capacity(), block.shape[1]))
        if block.shape[1] != self._data.shape[1]:
            raise ValueError("lead count changed mid-stream")
        if block.shape[0]:
            self._append(block)
        out = self._finalize_rows([self], final=False)[0] if self._pending else []
        self._trim()
        return out

    def _append(self, block: np.ndarray) -> None:
        k = block.shape[0]
        n = self._end - self._start
        if self._head + n + k > self._data.shape[0]:
            if n + k > self._data.shape[0]:
                grown = np.empty((max(n + k, 2 * self._data.shape[0]), self._data.shape[1]))
                grown[:n] = self._live()
                self._data = grown
            else:
                self._data[:n] = self._live()
            self._head = 0
        self._data[self._head + n : self._head + n + k] = block
        self._end += k

    def add_beat(
        self, peak: int, previous_peak: int | None = None, counter=None
    ) -> list[tuple[int, BeatFiducials]]:
        """Schedule a beat for delineation; return beats that became final.

        ``peak`` must already have been pushed and its left context
        must still be buffered (raise the ``lookback`` otherwise).
        ``counter`` receives the beat's op counts at finalization.
        """
        return self.add_beats([(peak, previous_peak, counter)])

    def add_beats(self, beats) -> list[tuple[int, BeatFiducials]]:
        """Schedule several beats at once; return beats that became final.

        ``beats`` is an iterable of ``(peak, previous_peak)`` or
        ``(peak, previous_peak, counter)`` items.  Equivalent to
        calling :meth:`add_beat` once per item — same validation, same
        results, same charged op counts; the one-row case of
        :meth:`add_beats_rows`.
        """
        return StreamingDelineator.add_beats_rows([self], [beats])[0]

    @staticmethod
    def add_beats_rows(
        delineators: list["StreamingDelineator"], beats
    ) -> list[list[tuple[int, BeatFiducials]]]:
        """Schedule beats on many delineators; return each one's final beats.

        ``beats[r]`` holds the items for ``delineators[r]``, as for
        :meth:`add_beats`.  Validation is all-or-nothing: nothing is
        scheduled anywhere if any item is invalid.  The beats of every
        row that became final are then delineated together: stream-
        interior beats of one configuration in **one** pass
        (:func:`_delineate_interior`), origin- or end-clamped beats on
        the scalar per-segment core.  Results are bit-exact with
        scheduling each row alone, in fiducials and op counts.
        """
        scheduled = [d._check_beats(items) for d, items in zip(delineators, beats)]
        for delineator, items in zip(delineators, scheduled):
            for entry in items:
                insort(delineator._pending, entry, key=_peak_of)
        out = StreamingDelineator._finalize_rows(delineators, final=False)
        for delineator in delineators:
            delineator._trim()
        return out

    def _check_beats(self, beats) -> list[tuple[int, int | None, object]]:
        items: list[tuple[int, int | None, object]] = []
        for item in beats:
            peak = int(item[0])
            if not self._origin <= peak < self._end:
                raise ValueError("peak index outside the current stream")
            if self._seg_lo(peak) < self._start:
                raise ValueError(
                    "left context of this beat was already discarded; "
                    "construct the delineator with a larger lookback_s"
                )
            previous = _previous_or_unknown(item[1])
            counter = item[2] if len(item) > 2 else None
            items.append((peak, None if previous < 0 else previous, counter))
        return items

    def hold(self, peak: int | None) -> None:
        """Retain the left context of ``peak`` until further notice.

        A caller that *may* schedule a beat later — e.g. a gateway
        session whose classifier verdict is still in flight — marks the
        earliest such peak here; the buffer is then never trimmed past
        that beat's segment start, whatever the configured lookback.
        ``hold(None)`` releases the floor.  Beats scheduled later via
        :meth:`add_beat` must have peaks at or after the held one.
        """
        self._hold = None if peak is None else int(peak)

    def flush(self) -> list[tuple[int, BeatFiducials]]:
        """Finalize pending beats at the stream end; reset for a new stream.

        The absolute sample origin is preserved: later pushes continue
        the same timeline, like the streaming peak detector.
        """
        out = self._finalize_rows([self], final=True)[0]
        self._head = 0
        self._origin = self._start = self._end
        self._hold = None
        return out

    def _seg_lo(self, peak: int) -> int:
        """Segment start: the left search span, clamped at the stream
        origin exactly like the batch path clamps at the record start."""
        return max(self._origin, peak - self._left)

    def _take_ready(self, final: bool) -> list[tuple[int, int | None, object]]:
        """Remove and return the pending beats whose right context is
        complete (all of them at the stream end), in peak order."""
        cut = (
            len(self._pending) if final
            else bisect_right(self._pending, self._end - self._right, key=_peak_of)
        )
        ready = self._pending[:cut]
        del self._pending[:cut]
        return ready

    @staticmethod
    def _finalize_rows(
        delineators: list["StreamingDelineator"], final: bool
    ) -> list[list[tuple[int, BeatFiducials]]]:
        """Delineate every row's ready beats; return them per row.

        Stream-interior beats share one segment geometry
        (``_left + _right`` samples, peak at ``_left``), so — like the
        record-interior beats of :func:`delineate_beats` — those of all
        rows with one configuration go through one
        :func:`_delineate_interior` pass; beats clamped at the stream
        origin or end take the scalar per-segment core.
        """
        ready = [d._take_ready(final) for d in delineators]
        if not any(ready):
            return [[] for _ in delineators]
        results: list[list[BeatFiducials | None]] = [[None] * len(items) for items in ready]
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for r, (d, items) in enumerate(zip(delineators, ready)):
            if not items or d._left + d._right <= 2 * max(d.config.mmd_scales(d.fs)):
                continue
            key = (d.fs, d.config, d._data.shape[1])
            lowest, highest = d._origin + d._left, d._end - d._right
            for i, (peak, _, _) in enumerate(items):
                if lowest <= peak <= highest:
                    groups.setdefault(key, []).append((r, i))
        for members in groups.values():
            first = delineators[members[0][0]]
            left, seg_len = first._left, first._left + first._right
            segments = np.empty((len(members), seg_len, first._data.shape[1]))
            peaks = np.empty(len(members), dtype=np.int64)
            previous = np.empty(len(members), dtype=np.int64)
            for j, (r, i) in enumerate(members):
                d = delineators[r]
                peak, prev, _ = ready[r][i]
                lo = d._head + peak - left - d._start
                segments[j] = d._data[lo : lo + seg_len]
                peaks[j] = peak
                previous[j] = -1 if prev is None else prev
            combined = _delineate_interior(
                segments, left, peaks, previous, first.fs, first.config
            )
            scales = first.config.mmd_scales(first.fs)
            for (r, i), row in zip(members, combined):
                _charge_beat_ops(ready[r][i][2], seg_len, scales, segments.shape[2])
                results[r][i] = BeatFiducials.from_array(row)
        out = []
        for d, items, fiducials in zip(delineators, ready, results):
            for i, (peak, previous_peak, counter) in enumerate(items):
                if fiducials[i] is None:
                    seg_lo = d._seg_lo(peak)
                    seg_hi = min(d._end, peak + d._right)
                    segment = d._live()[seg_lo - d._start : seg_hi - d._start]
                    fiducials[i] = _delineate_segment_multilead(
                        segment, seg_lo, peak, d.fs, d.config, previous_peak, counter
                    )
            out.append([(item[0], fid) for item, fid in zip(items, fiducials)])
        return out

    def _trim(self) -> None:
        keep_from = self._end - (self._lookback + self._left + 1)
        if self._pending:
            keep_from = min(keep_from, self._seg_lo(self._pending[0][0]))
        if self._hold is not None:
            keep_from = min(keep_from, self._seg_lo(self._hold))
        if keep_from > self._start:
            self._head += keep_from - self._start
            self._start = keep_from
