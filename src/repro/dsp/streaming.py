"""Streaming (block-wise) processing — truly incremental, front to back.

The batch functions in :mod:`repro.dsp.morphological` and
:mod:`repro.dsp.peak_detection` consume whole records; a WBSN consumes
an ADC stream and must process it in small blocks with bounded memory.
This module provides that engine:

* :class:`BlockFilter` — a cascade of :class:`~repro.dsp.kernels.StreamingExtremum`
  stages (erosion/dilation for baseline removal, opening/closing for
  denoising) plus a delay line for the baseline subtraction.  Every
  stage carries its last ``m - 1`` inputs across ``push`` calls, so a
  push costs O(block + m) instead of re-filtering a ``context + block``
  buffer with the batch kernels on every call.  The cascade seeds each
  stage with its first input (matching the batch operators' left edge
  replication) and ``flush``
  replicates each stage's last input (matching the right edge), which
  makes the streamed output **bit-exact** with
  ``filter_lead(whole_record)`` from the very first sample.
* :class:`StreamingPeakDetector` — wavelet peak detection over the
  filtered stream.  A :class:`~repro.dsp.wavelet.StreamingWavelet`
  carries the FIR state of the à-trous filters (each sample is
  filtered once; the per-window transform recomputation of the old
  scheduler is gone) and per-scale running energy sums carry the
  detection thresholds across windows.  Only the cheap pairing /
  refractory / search-back logic runs per analysis window, on the
  buffered coefficients.

* :class:`StreamingNode` — the whole gated node of Figure 6 as one
  incremental engine: per-lead :class:`BlockFilter` front ends, the
  :class:`StreamingPeakDetector`, per-beat classification, and the
  gated :class:`~repro.dsp.delineation.StreamingDelineator` for beats
  flagged abnormal.  It emits one :class:`StreamBeatEvent` per beat
  (label, fiducials, tx payload) incrementally, in beat order, and is
  bit-exact with the batch pipeline over the completed record.  Two
  serving hooks separate concerns further: a *deferred-classify* mode
  splits the per-sample front end from classification (pending beats
  go to an outbox via :meth:`StreamingNode.take_pending`, labels come
  back via :meth:`StreamingNode.deliver` — how
  :class:`repro.serving.gateway.StreamGateway` multiplexes many live
  sessions into one batched classifier pass), and
  :meth:`StreamingNode.snapshot` / :meth:`StreamingNode.restore`
  capture the full session state (filters, wavelet, thresholds,
  delineator buffers, pending beats) as a picklable
  :class:`NodeSnapshot` so live sessions can migrate between shards.
  :meth:`StreamingNode.push_rows` advances many nodes at once, running
  their front ends (filters and wavelet) as one 2-D pass per stage —
  the gateway's per-round batching; state stays in each node.  A
  steady node stashes its raw input and runs the front end only once
  the input reaches its *due point*, the first sample at which any
  output can change (:attr:`StreamingNode.due`);
  :meth:`StreamingNode.drain_rows` drains many stashes in one pass.
  :meth:`StreamingNode.deliver_rows` is the back-end twin: labels for
  many nodes in one call, their flagged beats delineated in one pass.
  Each node keeps one signal buffer, the delineator's, which also
  serves the classifier windows.

The filter/detector classes record no op counts: the counters model
the embedded firmware's *batch-equivalent* arithmetic, which is
unchanged (see :mod:`repro.dsp.morphological`).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.delineation import (
    BeatFiducials,
    DelineationConfig,
    StreamingDelineator,
)
from repro.dsp.kernels import StreamingExtremum
from repro.dsp.morphological import structuring_element_length
from repro.dsp.peak_detection import PeakDetectorConfig, detect_peaks_from_wavelet
from repro.dsp.wavelet import StreamingWavelet, scale_delay

#: Window durations (seconds) of the filter_lead chain, shared with
#: :mod:`repro.dsp.morphological`'s defaults.
OPENING_WINDOW_S = 0.2
CLOSING_WINDOW_S = 0.3
DENOISE_WINDOW_S = 0.014


def filter_context_samples(fs: float) -> int:
    """One-sided context (= exact latency) of the filtering chain.

    The baseline-removal opening/closing use structuring elements of
    0.2 s and 0.3 s; a cascade of erosion+dilation with element length
    ``m`` looks ``m - 1`` samples in each direction, so two cascaded
    stages need the sum of their supports, and the denoising stage
    adds its short element.  Equals
    :attr:`BlockFilter.delay_samples`: output ``i`` is final once
    input ``i + context`` has arrived.
    """
    opening = structuring_element_length(OPENING_WINDOW_S, fs)
    closing = structuring_element_length(CLOSING_WINDOW_S, fs)
    denoise = structuring_element_length(DENOISE_WINDOW_S, fs)
    return (opening - 1) + (closing - 1) + (denoise - 1)


def check_samples(block, n_leads: int) -> np.ndarray:
    """Validate raw samples ``(n,)`` or ``(n, n_leads)``; return them
    as a float ``(n, n_leads)`` block.  Non-finite samples are
    rejected: one NaN would poison the detector's decayed energy sums
    and silence the stream for good.  Every ingest path validates with
    this before it journals or applies a chunk."""
    block = np.asarray(block, dtype=float)
    if block.ndim == 1:
        block = block[:, np.newaxis]
    if block.ndim != 2 or block.shape[1] != n_leads:
        raise ValueError(f"blocks must be (n,) or (n, {n_leads})")
    if not np.isfinite(block).all():
        raise ValueError("blocks must hold finite samples")
    return block


class BlockFilter:
    """Incremental morphological filtering, bit-exact with the batch path.

    Parameters
    ----------
    fs:
        Sampling frequency in Hz.

    Notes
    -----
    ``push(block)`` returns the filtered samples that became *final*
    with this block (their two-sided context is complete); ``flush()``
    returns the tail, computed with the same edge replication the batch
    path applies at the record end, and resets the filter for a fresh
    stream.  Concatenating every return value reproduces
    ``filter_lead(whole_record)`` exactly — including the first
    ``context`` samples, because each streaming stage seeds itself with
    its first input value, which is precisely the batch operators'
    left edge padding.

    Unlike the original scheduler, which re-ran the batch kernels over
    a ``context + block`` buffer on every call (O((context + block)·m)
    work per push), each stage here carries only its last ``m - 1``
    inputs: the work per push is O(block + m), independent of the
    retained context.  :meth:`push_rows` advances many filters — one
    row each — with one 2-D pass per stage.
    """

    def __init__(self, fs: float):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        self.fs = fs
        self.context = filter_context_samples(fs)
        self._opening_length = structuring_element_length(OPENING_WINDOW_S, fs)
        self._closing_length = structuring_element_length(CLOSING_WINDOW_S, fs)
        self._denoise_length = structuring_element_length(DENOISE_WINDOW_S, fs)
        self._reset_stages()

    def _reset_stages(self) -> None:
        m1, m2, m3 = self._opening_length, self._closing_length, self._denoise_length
        # remove_baseline: closing(opening(x, m1), m2), then x - baseline.
        self._baseline = [
            StreamingExtremum(m1, maximum=False),
            StreamingExtremum(m1, maximum=True),
            StreamingExtremum(m2, maximum=True),
            StreamingExtremum(m2, maximum=False),
        ]
        # suppress_noise: (opening(y, m3) + closing(y, m3)) / 2.
        self._open = [
            StreamingExtremum(m3, maximum=False),
            StreamingExtremum(m3, maximum=True),
        ]
        self._close = [
            StreamingExtremum(m3, maximum=True),
            StreamingExtremum(m3, maximum=False),
        ]
        self._raw = np.empty(0)  # delay line for the baseline subtraction

    @property
    def delay_samples(self) -> int:
        """Exact output latency: output ``i`` is emitted once input
        ``i + delay_samples`` has been pushed (each stage of the
        cascade withholds its one-sided lookahead)."""
        stages = self._baseline + self._open
        return sum(stage.right for stage in stages)

    @property
    def steady(self) -> bool:
        """Whether every stage carries a full window of history, so a
        push of ``n`` samples returns ``n`` and all steady filters share
        one state shape (see :meth:`push_rows`)."""
        return all(stage.steady for stage in self._baseline + self._open + self._close)

    def push(self, block: np.ndarray) -> np.ndarray:
        """Feed a block; return newly finalized filtered samples."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 1:
            raise ValueError("blocks must be 1-D")
        return self.push_rows([self], block[np.newaxis])[0]

    @staticmethod
    def push_rows(filters: list["BlockFilter"], blocks: np.ndarray) -> np.ndarray:
        """Advance equally-configured filters by one block each.

        ``blocks`` is ``(rows, n)``; row ``r`` feeds ``filters[r]``.
        Every stage of the cascade, the raw delay line, the baseline
        subtraction and the ``(open + close) / 2`` step run as one 2-D
        pass over all rows.  The filters must share one state shape —
        all :attr:`steady`, or all fed identically (the leads of one
        node), or a single row.  Returns ``(rows, k)``.
        """
        if len(filters) == 1:
            raw = filters[0]._raw[np.newaxis]
        else:
            raw = np.array([f._raw for f in filters])
        raw = np.concatenate([raw, blocks], axis=1)
        baseline = blocks
        for stages in zip(*(f._baseline for f in filters)):
            baseline = StreamingExtremum.push_rows(stages, baseline)
        k = baseline.shape[1]
        for f, row in zip(filters, raw[:, k:]):
            f._raw = row
        debased = raw[:, :k] - baseline
        opened = closed = debased
        for stages in zip(*(f._open for f in filters)):
            opened = StreamingExtremum.push_rows(stages, opened)
        for stages in zip(*(f._close for f in filters)):
            closed = StreamingExtremum.push_rows(stages, closed)
        return (opened + closed) / 2.0

    def flush(self) -> np.ndarray:
        """Finalize the tail (edge-replicated, like the batch path).

        Resets the filter afterwards: a subsequent ``push`` starts a
        fresh stream.
        """
        return self.finish(np.empty(0))

    def finish(self, block: np.ndarray) -> np.ndarray:
        """``push(block)`` then :meth:`flush`, in one push per stage.

        Each stage takes its input and its own trailing edge
        replication as one block (:meth:`StreamingExtremum.finish`);
        the stages are chunk-invariant, so the output is the
        concatenation ``push`` and ``flush`` would return.
        """
        baseline = self._finish_cascade(self._baseline, block)
        raw = np.concatenate([self._raw, block])
        debased = raw[: baseline.size] - baseline
        opened = self._finish_cascade(self._open, debased)
        closed = self._finish_cascade(self._close, debased)
        out = (opened + closed) / 2.0
        self._reset_stages()
        return out

    @staticmethod
    def _finish_cascade(stages: list[StreamingExtremum], block: np.ndarray) -> np.ndarray:
        """Finish a stage cascade in order, each stage's output and tail
        feeding the next."""
        for stage in stages:
            block = stage.finish(block)
        return block


class StreamingPeakDetector:
    """Incremental wavelet peak detection over the filtered stream.

    Parameters
    ----------
    fs:
        Sampling frequency.
    window_s:
        Analysis window length in seconds (detections are confirmed
        per window, matching how the embedded code schedules the
        pairing logic).
    overlap_s:
        Overlap between consecutive windows; must exceed one beat so no
        peak can fall entirely inside a window seam.
    config:
        Detector tunables.
    threshold_time_constant_s:
        Time constant of the exponentially decayed energy estimate the
        detection thresholds derive from.  The default (3 s, a few
        beats) recovers from large amplitude steps within a window or
        two, preserving the adaptivity the per-window RMS thresholds
        had on non-stationary streams.

    Notes
    -----
    The original scheduler re-ran the whole batch detector — including
    the four-scale à-trous transform — over every 10 s analysis
    window.  This detector is stateful end to end: the
    :class:`~repro.dsp.wavelet.StreamingWavelet` filters each sample
    exactly once (bit-exact with the batch transform), exponentially
    decayed per-scale energy sums carry the detection thresholds
    across windows, and only the pairing / refractory / search-back
    logic runs per window, on the buffered coefficient columns.

    ``flush`` analyzes the remaining tail and *resets the stream
    state*: the absolute sample origin of a subsequent ``push`` is
    preserved, so peak indices keep referring to the same global
    timeline (the original implementation left the origin stale).
    """

    def __init__(
        self,
        fs: float,
        window_s: float = 10.0,
        overlap_s: float = 1.5,
        config: PeakDetectorConfig | None = None,
        threshold_time_constant_s: float = 3.0,
    ):
        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if overlap_s <= 0 or window_s <= 2 * overlap_s:
            raise ValueError("need window_s > 2 * overlap_s > 0")
        if threshold_time_constant_s <= 0:
            raise ValueError("threshold time constant must be positive")
        self.fs = fs
        self.window = int(round(window_s * fs))
        self.overlap = int(round(overlap_s * fs))
        self.config = config or PeakDetectorConfig()
        self.wavelet = StreamingWavelet(n_scales=4)
        # Coefficient columns not yet consumed by an analysis window
        # live in _buf[:, :_n] (absolute index _offset onward); the
        # buffer is preallocated for a window plus a second of input
        # and compacts only when a window is consumed, so a push costs
        # O(push), not O(window).
        self._capacity = self.window + int(round(fs))
        self._buf = np.empty((4, self._capacity))
        self._n = 0
        self._offset = 0  # absolute index of _buf[:, 0]
        self._consumed = 0  # absolute samples pushed so far
        # Exponentially decayed per-scale energy: keeps the adaptivity
        # the old per-window RMS thresholds had, without recomputing
        # any RMS over the buffer.
        self._decay = float(np.exp(-1.0 / (threshold_time_constant_s * fs)))
        self._sumsq = np.zeros(4)
        self._count = 0.0
        self._energy_pos = 0  # absolute index energy is folded through
        self._peaks: list[int] = []

    def __getstate__(self) -> dict:
        # Snapshots carry only the live columns, not the spare capacity.
        state = self.__dict__.copy()
        state["_buf"] = self._buf[:, : self._n].copy()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        live = self._buf
        self._buf = np.empty((4, max(self._capacity, live.shape[1])))
        self._buf[:, : self._n] = live

    @property
    def window_gap(self) -> int:
        """Coefficient columns still missing before the next analysis
        window completes (no peak is confirmed before then)."""
        return self.window - self._n

    def _thresholds(self) -> np.ndarray:
        """Running per-scale thresholds from the carried energy sums."""
        if self._count <= 0.0:
            return np.zeros(4)
        return self.config.threshold_factor * np.sqrt(self._sumsq / self._count)

    def _append(self, columns: np.ndarray) -> None:
        k = columns.shape[1]
        if not k:
            return
        end = self._n + k
        if end > self._buf.shape[1]:
            grown = np.empty((4, max(end, 2 * self._buf.shape[1])))
            grown[:, : self._n] = self._buf[:, : self._n]
            self._buf = grown
        self._buf[:, self._n : end] = columns
        self._n = end

    def _fold_energy(self, through: int) -> None:
        """Fold buffered coefficient energy into the decayed sums.

        ``through`` is an absolute sample index; energy is folded
        strictly causally (never past the window being analyzed) and
        at window-consumption points only, so detections are invariant
        to how the caller chunks the stream.
        """
        k = through - self._energy_pos
        if k <= 0:
            return
        columns = self._buf[:, self._energy_pos - self._offset : through - self._offset]
        weights = self._decay ** np.arange(k - 1, -1, -1)
        decayed = self._decay**k
        self._sumsq = self._sumsq * decayed + np.square(columns) @ weights
        self._count = self._count * decayed + float(weights.sum())
        self._energy_pos = through

    def push(self, filtered_block: np.ndarray) -> list[int]:
        """Feed filtered samples; return newly confirmed peak indices."""
        filtered_block = np.asarray(filtered_block, dtype=float)
        if filtered_block.ndim != 1:
            raise ValueError("blocks must be 1-D")
        return self.push_columns(filtered_block.size, self.wavelet.push(filtered_block))

    def push_columns(self, n_samples: int, columns: np.ndarray) -> list[int]:
        """Feed the :attr:`wavelet` columns ``n_samples`` filtered
        samples produced (the transform may run elsewhere, e.g. in a
        2-D pass over many detectors); return newly confirmed peaks."""
        self._consumed += n_samples
        self._append(columns)
        new_peaks: list[int] = []
        advance = self.window - self.overlap
        start = 0  # buffer column of the next analysis window
        while self._n - start >= self.window:
            origin = self._offset + start
            self._fold_energy(origin + self.window)
            segment = self._buf[:, start : start + self.window]
            detected = (
                detect_peaks_from_wavelet(segment, self._thresholds(), self.fs, self.config)
                + origin
            )
            # Peaks inside the trailing overlap are re-examined by the
            # next window (they may lack right context here).
            confirm_before = origin + self.window - self.overlap
            for peak in detected:
                if peak < confirm_before:
                    new_peaks.append(int(peak))
            start += advance
        if start:
            # Compact once per push that consumed windows.
            self._n -= start
            self._buf[:, : self._n] = self._buf[:, start : start + self._n]
            self._offset += start
        return self._merge(new_peaks)

    def flush(self) -> list[int]:
        """Analyze the remaining tail and return its confirmed peaks.

        Afterwards the detector is ready for more ``push`` calls: the
        wavelet state restarts (the stream was cut), but the absolute
        origin advances past all consumed samples so later peak indices
        stay on the global timeline, and confirmed peaks plus running
        thresholds are retained.
        """
        self._append(self.wavelet.flush())
        out: list[int] = []
        if self._n >= int(0.5 * self.fs):
            self._fold_energy(self._offset + self._n)
            detected = (
                detect_peaks_from_wavelet(
                    self._buf[:, : self._n], self._thresholds(), self.fs, self.config
                )
                + self._offset
            )
            out = self._merge(int(p) for p in detected)
        self._n = 0
        self._offset = self._consumed
        self._energy_pos = self._consumed
        return out

    def _merge(self, candidates) -> list[int]:
        """Deduplicate against already-confirmed peaks (refractory)."""
        refractory = int(round(self.config.refractory * self.fs))
        accepted: list[int] = []
        for peak in sorted(candidates):
            last = self._peaks[-1] if self._peaks else None
            if last is not None and peak - last < refractory:
                continue
            self._peaks.append(peak)
            accepted.append(peak)
        return accepted

    @property
    def peaks(self) -> np.ndarray:
        """All confirmed peaks so far (absolute sample indices)."""
        return np.asarray(self._peaks, dtype=np.int64)


@dataclass(frozen=True)
class StreamBeatEvent:
    """One beat, fully processed by the gated node.

    ``fiducials`` is populated only for beats the classifier flagged
    abnormal (the gated detailed analysis); ``tx_bytes`` is the radio
    payload the node queues for this beat — full-fiducial for flagged
    beats, peak-only otherwise.
    """

    peak: int
    label: int
    flagged: bool
    tx_bytes: int
    fiducials: BeatFiducials | None = None


class _PendingBeat:
    """Mutable per-beat state while a beat moves through the node.

    ``extracted`` marks beats whose decimated window has been handed
    out for deferred classification (it doubles as the classification
    handle the gateway passes back to :meth:`StreamingNode.deliver`);
    ``row`` holds that window until the label arrives, so a snapshot
    taken with labels in flight can re-issue it — the signal buffer
    may have trimmed past the beat by then.
    """

    __slots__ = ("peak", "label", "flagged", "classified", "dropped", "extracted", "row")

    def __init__(self, peak: int):
        self.peak = peak
        self.label = 0
        self.flagged = False
        self.classified = False
        self.dropped = False
        self.extracted = False
        self.row = None

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


@dataclass(frozen=True)
class NodeSnapshot:
    """Full, picklable state of a :class:`StreamingNode` session.

    Captures everything the node carries between pushes — filter
    cascades, wavelet FIR state, running detection thresholds,
    delineator buffers, the pending-beat queue and any beats awaiting
    deferred classification — but *not* the classifier, which belongs
    to the shard a session runs on.  Produced by
    :meth:`StreamingNode.snapshot`, consumed by
    :meth:`StreamingNode.restore`; serialize with :mod:`pickle` to
    migrate a live session between shards or hosts.
    """

    state: dict = field(repr=False)


class StreamingNode:
    """The whole gated node of Figure 6 as one incremental engine.

    Wires the per-lead :class:`BlockFilter` front ends, the
    :class:`StreamingPeakDetector`, per-beat classification and the
    gated :class:`~repro.dsp.delineation.StreamingDelineator` into a
    single push/flush interface that emits one
    :class:`StreamBeatEvent` per beat, in beat order, as soon as each
    beat's context is complete — with memory bounded by the detector's
    analysis window plus the delineation search span, independent of
    stream length.

    Over a completed stream the events are bit-exact with running the
    same stages at record scale: peaks match the streaming front end
    (:class:`BlockFilter` + :class:`StreamingPeakDetector` pushed
    block by block) kept by segmentation,
    labels match one batched ``classifier.predict`` over the
    segmented, decimated beats, and fiducials of flagged beats match
    :func:`~repro.dsp.delineation.delineate_multilead` on the filtered
    leads with the previous kept peak as guard — the same gated
    schedule :class:`~repro.platform.node_sim.NodeSimulator` replays.
    Events are also invariant to how the stream is chunked.

    Parameters
    ----------
    classifier:
        Anything with ``predict(beats)`` — the float pipeline or the
        integer :class:`~repro.fixedpoint.convert.EmbeddedClassifier`.
    fs:
        Sampling frequency in Hz.
    n_leads:
        Leads per pushed block; all are filtered continuously and feed
        the gated delineation.
    lead:
        Lead driving detection and classification.
    decimation:
        Beat decimation factor before classification (paper: 4).
    window:
        Segmentation window (paper default 100 + 100).
    detector_config / delineation_config:
        Stage tunables.
    overhead_bytes:
        Link-layer overhead added to each queued payload.
    defer_classification:
        ``False`` (default): each beat is classified inline with a
        per-beat ``predict`` call as soon as its window is complete.
        ``True``: the node separates the per-sample front end from
        classification — ``push`` *extracts* pending beats (decimated
        windows) into an outbox instead of classifying them, a caller
        (typically :class:`repro.serving.gateway.StreamGateway`, which
        multiplexes the outboxes of many live sessions into one
        batched classifier pass) collects them via
        :meth:`take_pending` and later returns the labels through
        :meth:`deliver`.  Event content and order are identical in
        both modes; only the ``predict`` batching differs (exact for
        the integer classifier).

    Notes
    -----
    Outputs change only at a few points of the stream: when a detector
    window completes, when the next unresolved beat has ``window.post``
    samples of right context (it is cut, or dropped), and when a
    scheduled delineation gets its right context.  Past warm-up one
    raw sample yields exactly one filtered sample and one wavelet
    column, so a steady node knows the first of these points, its
    *due point*, in samples.  Until its input reaches that point the
    node only stashes it (:meth:`stash`); a push that reaches it, a
    warm-up push and a :meth:`deliver` whose flagged beat needs
    stashed input drain the stash through the front end in sub-passes
    of at most one second.  :meth:`flush` and :meth:`finish_input`
    run the stash's last stretch together with the filter tails in
    one final pass.  Every return value — events, outbox, :attr:`n_pending` —
    is the one a node that ran every push at once would give, and
    the stash holds at most one detector window plus one push.
    """

    def __init__(
        self,
        classifier,
        fs: float,
        n_leads: int = 1,
        lead: int = 0,
        decimation: int = 4,
        window=None,
        detector_config: PeakDetectorConfig | None = None,
        delineation_config: DelineationConfig | None = None,
        overhead_bytes: int = 2,
        defer_classification: bool = False,
    ):
        from repro.ecg.segmentation import BeatWindow
        from repro.platform.radio import FULL_FIDUCIAL_PAYLOAD, PEAK_ONLY_PAYLOAD

        if fs <= 0:
            raise ValueError("sampling frequency must be positive")
        if n_leads < 1:
            raise ValueError("need at least one lead")
        if not 0 <= lead < n_leads:
            raise ValueError("classification lead outside the pushed leads")
        if decimation < 1:
            raise ValueError("decimation must be >= 1")
        if overhead_bytes < 0:
            raise ValueError("overhead must be non-negative")
        self.classifier = classifier
        self.fs = fs
        self.n_leads = n_leads
        self.lead = lead
        self.decimation = decimation
        self.window = window or BeatWindow()
        self._filters = [BlockFilter(fs) for _ in range(n_leads)]
        self._detector = StreamingPeakDetector(fs, config=detector_config)
        # Large caller blocks are chopped internally so every stage's
        # scheduling lag — and therefore the retained history — stays
        # bounded no matter how the caller chunks the stream.
        self._chop = max(1, int(round(fs)))
        # The delineator's buffer is the node's one signal buffer: it
        # also serves the classifier windows, so its lookback covers a
        # detector window plus a beat window behind the live edge, and
        # three seconds of slack.
        slack = 3 * self._chop
        keep = self._detector.window + self.window.length + slack
        self._delineator = StreamingDelineator(
            fs, config=delineation_config, lookback_s=keep / fs
        )
        # A stream end runs the last stashed samples together with the
        # filter tails as one pass (see _end_input).  That pass stays
        # within the lookback's slack, less the filter tail and the
        # wavelet's column lag, so every peak it confirms still has its
        # left context buffered.
        tails = self._filters[0].context + scale_delay(self._detector.wavelet.n_scales)
        self._end_span = max(0, slack - tails)
        self._count = 0  # filtered samples consumed so far
        self._origin = 0  # absolute index where the current stream began
        self._queue: deque[_PendingBeat] = deque()
        self._done: dict[int, BeatFiducials] = {}
        self._last_kept: int | None = None
        self._full_bytes = FULL_FIDUCIAL_PAYLOAD + overhead_bytes
        self._peak_bytes = PEAK_ONLY_PAYLOAD + overhead_bytes
        self.defer_classification = bool(defer_classification)
        self._outbox: list[tuple[_PendingBeat, np.ndarray]] = []
        # Raw input not yet run through the front end: _stash[:_stashed]
        # (grown on demand).  _due is the filtered-sample count at
        # which an output can next change (see _update_due).
        self._stash = np.empty((0, n_leads))
        self._stashed = 0
        self._due = 0
        self._front_steady = False

    @property
    def n_pending(self) -> int:
        """Beats detected but not yet emitted."""
        return len(self._queue)

    @property
    def n_awaiting_labels(self) -> int:
        """Deferred-mode beats extracted but not yet delivered."""
        return sum(
            1 for b in self._queue if b.extracted and not b.classified and not b.dropped
        )

    def snapshot(self, *, detached: bool = True) -> NodeSnapshot:
        """Capture the full session state (everything but the classifier).

        The snapshot is an independent deep copy: the live node can
        keep streaming after taking it.  Restore any number of times
        with :meth:`restore` — each restored node continues the stream
        exactly where the snapshot was taken, emitting bit-identical
        events to the uninterrupted original.

        ``detached=False`` skips the copy: the snapshot then shares the
        live state and is valid only until the node next changes — for
        a caller that serializes it at once (the journal).

        Stashed input rides along (only the live rows, not the spare
        capacity), so a snapshot never forces a front-end pass.
        """
        state = {k: v for k, v in self.__dict__.items() if k != "classifier"}
        state["_stash"] = self._stash[: self._stashed]
        return NodeSnapshot(state=copy.deepcopy(state) if detached else state)

    @classmethod
    def restore(cls, classifier, snapshot: NodeSnapshot) -> "StreamingNode":
        """Rebuild a session from a :meth:`snapshot`, attaching ``classifier``.

        The classifier is supplied by the restoring shard (it is not
        part of the snapshot); with the integer classifier any shard's
        copy yields identical labels, so a migrated session's events
        stay bit-exact.

        Classification handles do not cross the snapshot boundary:
        beats whose labels were still in flight when the snapshot was
        taken re-enter the restored node's outbox (each beat keeps its
        extracted window until its label arrives), so the restoring
        caller re-collects and classifies them — the original handles
        become irrelevant, and nothing is lost or double-labeled.
        """
        node = cls.__new__(cls)
        node.classifier = classifier
        node.__dict__.update(copy.deepcopy(snapshot.state))
        if node.defer_classification:
            node._outbox = [
                (beat, beat.row)
                for beat in node._queue
                if beat.extracted and not beat.classified and not beat.dropped
            ]
        return node

    def check_block(self, block: np.ndarray) -> np.ndarray:
        """:func:`check_samples` for this node's lead count."""
        return check_samples(block, self.n_leads)

    @property
    def front_steady(self) -> bool:
        """Whether the front end (every lead filter and the wavelet) is
        past its warm-up: steady nodes of one configuration share one
        state shape, so :meth:`push_rows` can run them together.  Once
        true it stays true until the stream ends."""
        if not self._front_steady:
            self._front_steady = self._detector.wavelet.steady and all(
                f.steady for f in self._filters
            )
        return self._front_steady

    def fits_rows(self, block: np.ndarray) -> bool:
        """Whether a checked ``block`` may wait in the stash for a
        multi-row :meth:`drain_rows` pass without a due check: the
        front end is :attr:`front_steady` and the block is non-empty
        and shorter than one second (a caller that wants longer pushes
        handled at once uses :meth:`push_checked`)."""
        return 0 < block.shape[0] < self._chop and self.front_steady

    @property
    def n_stashed(self) -> int:
        """Raw samples stashed but not yet run through the front end."""
        return self._stashed

    @property
    def due(self) -> bool:
        """Whether the stashed input reaches the due point: draining it
        can change an output (an event, the outbox or
        :attr:`n_pending`).  Meaningful for a :attr:`front_steady`
        node; O(1)."""
        return self._count + self._stashed >= self._due

    def push(self, block: np.ndarray) -> list[StreamBeatEvent]:
        """Feed raw samples ``(n,)`` or ``(n, n_leads)``; return new events."""
        return self.push_checked(self.check_block(block))

    def push_checked(self, block: np.ndarray) -> list[StreamBeatEvent]:
        """:meth:`push` for a block :meth:`check_block` already returned
        (a caller that validated before journaling checks only once).

        Stashes the block, then drains the stash if the node is due or
        still warming up (see the class notes)."""
        if self.stash(block) or not self.front_steady:
            return self._drain()
        return []

    def stash(self, block: np.ndarray) -> bool:
        """Append a checked block to the stash without running the
        front end (a copy: the caller may reuse its buffer); return
        :attr:`due`.  A caller that stashes must drain the node —
        :meth:`drain_rows` — once it is due, and must not stash into
        a node that is not :attr:`front_steady`."""
        n = self._stashed
        end = n + block.shape[0]
        if end > self._stash.shape[0]:
            grown = np.empty((max(end, self._detector.window + self._chop), self.n_leads))
            grown[:n] = self._stash[:n]
            self._stash = grown
        self._stash[n:end] = block
        self._stashed = end
        return self.due

    def _drain(self, n: int | None = None) -> list[StreamBeatEvent]:
        return StreamingNode.drain_rows([self], n)[0]

    @staticmethod
    def drain_rows(
        nodes: list["StreamingNode"], n: int | None = None
    ) -> list[list[StreamBeatEvent]]:
        """Run the first ``n`` stashed samples of every node (default:
        the whole stash) through the front end; return each node's new
        events.

        The nodes must hold equally many stashed samples.  They drain
        together through :meth:`push_rows`, one pass per sub-block of
        at most one second, so several rows need nodes of one
        configuration that are all :attr:`front_steady`.  Events are
        bit-exact with draining each node alone.
        """
        total = nodes[0]._stashed
        n = total if n is None else n
        events: list[list[StreamBeatEvent]] = [[] for _ in nodes]
        if not n:
            return events
        if len(nodes) == 1:
            blocks = nodes[0]._stash[np.newaxis, :n]
        else:
            blocks = np.stack([node._stash[:n] for node in nodes])
        for node in nodes:
            node._stashed = 0
        chop = nodes[0]._chop
        for i in range(0, n, chop):
            for out, new in zip(events, StreamingNode.push_rows(nodes, blocks[:, i : i + chop])):
                out.extend(new)
        rest = total - n
        for node in nodes:
            if rest:
                node._stash[:rest] = node._stash[n:total]
                node._stashed = rest
            elif node._stash.shape[0] > node._detector.window + chop:
                node._stash = np.empty((0, node.n_leads))  # one oversized push
        return events

    @staticmethod
    def push_rows(
        nodes: list["StreamingNode"], blocks: np.ndarray
    ) -> list[list[StreamBeatEvent]]:
        """Advance nodes by one block each; return each node's new events.

        ``blocks`` is ``(rows, n, n_leads)`` (checked blocks of at most
        one second, row ``r`` for ``nodes[r]``).  The front end — every
        lead filter and the wavelet — runs as **one 2-D pass per stage**
        over all rows; the per-row rest (detector windows, segment
        buffer, delineator, beat extraction) then runs node by node.
        State stays in each node, so snapshots are unaffected.  Several
        rows need nodes of one configuration that are all
        :attr:`front_steady`; :meth:`push` is the one-row case.  Events
        are bit-exact with pushing each node alone.
        """
        rows, n, leads = blocks.shape
        filters = [f for node in nodes for f in node._filters]
        filtered = BlockFilter.push_rows(
            filters, blocks.transpose(0, 2, 1).reshape(rows * leads, n)
        ).reshape(rows, leads, -1)
        columns = StreamingWavelet.push_rows(
            [node._detector.wavelet for node in nodes], filtered[:, nodes[0].lead]
        )
        return [
            node._advance(f.T, c, final=False)
            for node, f, c in zip(nodes, filtered, columns)
        ]

    def _end_input(self) -> list[StreamBeatEvent]:
        """Run the stash and the front end's tail through the node.

        The stash's last ``_end_span`` samples go through the filters
        together with their edge-replicated tails
        (:meth:`BlockFilter.finish`) and then through the final
        :meth:`_advance` with the detector's tail window — one
        front-end pass where draining and flushing took two or more;
        any older stashed input drains first, in the usual one-second
        sub-blocks.  The stream is chunk-invariant, so the events are
        those of draining and then flushing.
        """
        events = self._drain(max(0, self._stashed - self._end_span))
        block = self._stash[: self._stashed]
        self._stashed = 0
        self._front_steady = False  # the flushes restart the front end
        tail = np.column_stack(
            [f.finish(block[:, i]) for i, f in enumerate(self._filters)]
        )
        columns = self._detector.wavelet.push(tail[:, self.lead])
        return events + self._advance(tail, columns, final=True)

    def flush(self) -> list[StreamBeatEvent]:
        """Finalize the stream; return the remaining events.

        Applies the record-end edge handling of the batch path (filter
        tail, detector tail window, clamped delineation segments) and
        resets the node for a fresh stream on the same timeline.

        In deferred-classify mode the stream end is a three-step
        handshake instead — :meth:`finish_input`, then classification
        of the outbox (:meth:`take_pending` / :meth:`deliver`), then
        :meth:`finalize` — because the remaining beats cannot be
        emitted until their labels come back.
        """
        if self.defer_classification:
            raise RuntimeError(
                "deferred-classify node: end the stream with finish_input(), "
                "deliver the remaining labels, then finalize() "
                "(StreamGateway.close_session drives this)"
            )
        events = self._end_input()
        self._reset_stream()
        return events

    def finish_input(self) -> list[StreamBeatEvent]:
        """Deferred mode, step 1 of the stream end: flush the front end.

        Runs the filter tails and the detector's tail window, and
        extracts every remaining classifiable beat into the outbox
        (beats whose window no longer fits are dropped, exactly as
        batch segmentation drops them at a record end).  Returns any
        events that were already fully resolved.  The delineator is
        *not* flushed yet — flagged beats among the outbox still need
        their labels first.
        """
        if not self.defer_classification:
            raise RuntimeError("finish_input() applies to deferred-classify nodes; use flush()")
        return self._end_input()

    def finalize(self) -> list[StreamBeatEvent]:
        """Deferred mode, step 3 of the stream end: emit the tail events.

        Requires every extracted beat to have been :meth:`deliver`-ed.
        Flushes the delineator (stream-end clamped segments, like the
        batch path at a record edge), emits the remaining events and
        resets the node for a fresh stream on the same timeline.
        """
        if not self.defer_classification:
            raise RuntimeError("finalize() applies to deferred-classify nodes; use flush()")
        if self._outbox or self.n_awaiting_labels:
            raise RuntimeError(
                "beats still await classification; take_pending()/deliver() them first"
            )
        for peak, fiducials in self._delineator.flush():
            self._done[peak] = fiducials
        events = self._emit_ready()
        self._reset_stream()
        return events

    def take_pending(self) -> list[tuple[object, np.ndarray]]:
        """Drain the outbox: ``(handle, decimated_window)`` per beat.

        The handles are opaque; pass each back to :meth:`deliver` with
        its label.  Rows are 1-D decimated beat windows ready to be
        stacked into one batched ``predict`` call, in beat order.
        """
        out = self._outbox
        self._outbox = []
        return out

    def deliver(self, resolved) -> list[StreamBeatEvent]:
        """Apply classifier labels to extracted beats; return new events.

        Parameters
        ----------
        resolved:
            Iterable of ``(handle, label)`` pairs, in the order the
            handles came out of :meth:`take_pending`.  Partial
            deliveries are fine (labels may arrive across several
            batch flushes) as long as order is preserved.

        The one-row case of :meth:`deliver_rows`.
        """
        return StreamingNode.deliver_rows([self], [resolved])[0]

    @staticmethod
    def deliver_rows(
        nodes: list["StreamingNode"], resolved, held=None
    ) -> list[list[StreamBeatEvent]]:
        """Apply labels to many nodes' extracted beats; return each
        node's new events.

        ``resolved[r]`` holds the ``(handle, label)`` pairs for
        ``nodes[r]``, as for :meth:`deliver`.  The flagged beats of
        every row are scheduled through **one**
        :meth:`~repro.dsp.delineation.StreamingDelineator.add_beats_rows`
        call, so a gateway flush delineates its sessions' beats in one
        pass; each node's pre-delivery hold floor keeps every scheduled
        beat's left context buffered.  A node whose flagged beat needs
        right context that is still stashed drains its stash here —
        all but its last ``held[r]`` samples (default none held): a
        gateway holds back the chunk of its open round, which its
        callers expect to run only when the round ends.  Events are
        bit-exact with delivering to each node alone.
        """
        from repro.core.defuzz import is_abnormal

        scheduled: list[list[tuple[int, int | None]]] = []
        for node, pairs in zip(nodes, resolved):
            if not node.defer_classification:
                raise RuntimeError("deliver() applies to deferred-classify nodes")
            pairs = list(pairs)
            flagged = is_abnormal(np.asarray([label for _, label in pairs], dtype=np.int64))
            beats: list[tuple[int, int | None]] = []
            for (beat, label), flag in zip(pairs, flagged):
                if not isinstance(beat, _PendingBeat) or not beat.extracted:
                    raise ValueError("unknown classification handle")
                if beat.classified:
                    raise ValueError(f"beat at {beat.peak} was already delivered")
                beat.label = int(label)
                beat.flagged = bool(flag)
                beat.classified = True
                beat.row = None  # window no longer needed once labeled
                previous = node._last_kept
                node._last_kept = beat.peak
                if beat.flagged:
                    beats.append((beat.peak, previous))
            scheduled.append(beats)
        rows = [r for r, beats in enumerate(scheduled) if beats]
        if rows:
            done = StreamingDelineator.add_beats_rows(
                [nodes[r]._delineator for r in rows], [scheduled[r] for r in rows]
            )
            for r, finished in zip(rows, done):
                nodes[r]._done.update(finished)
        events = []
        for r, node in enumerate(nodes):
            node._update_hold()
            node._update_due()
            out = node._emit_ready()
            ready = node._stashed - (held[r] if held else 0)
            if ready > 0 and node._count + ready >= node._due:
                out += node._drain(ready)  # a flagged beat's right context
            events.append(out)
        return events

    def _reset_stream(self) -> None:
        self._origin = self._count
        self._done.clear()
        self._last_kept = None

    def _advance(
        self, filtered: np.ndarray, columns: np.ndarray, final: bool
    ) -> list[StreamBeatEvent]:
        """The per-row rest of a push: ``filtered`` is ``(k, n_leads)``
        and ``columns`` the wavelet columns of its detection lead."""
        if filtered.shape[0]:
            for peak, fiducials in self._delineator.push(filtered):
                self._done[peak] = fiducials
            new_peaks = self._detector.push_columns(filtered.shape[0], columns)
            self._count += filtered.shape[0]
        else:
            new_peaks = []
        if final:
            new_peaks = list(new_peaks) + self._detector.flush()
        for peak in new_peaks:
            self._queue.append(_PendingBeat(int(peak)))
        if self.defer_classification:
            self._extract_ready(final)
        else:
            self._classify_ready(final)
            if final:
                for peak, fiducials in self._delineator.flush():
                    self._done[peak] = fiducials
        self._update_due()
        return self._emit_ready()

    def _update_due(self) -> None:
        """Recompute the due point (see the class notes): the
        filtered-sample count at which the next detector window
        completes, the next unresolved beat's window is complete, or
        the earliest scheduled delineation gets its right context."""
        due = self._count + self._detector.window_gap
        for beat in self._queue:
            if not (beat.classified or beat.dropped or beat.extracted):
                due = min(due, beat.peak + self.window.post)
                break
        final = self._delineator.next_final
        if final is not None:
            due = min(due, final)
        self._due = due

    def _window_ready(self, beat: _PendingBeat, final: bool) -> bool | None:
        """Shared eligibility logic: can this beat's window be cut now?

        Returns ``True`` when the full window is available, ``False``
        when the beat was dropped (window can never fit — the batch
        path's segmentation drops it too), ``None`` when the beat must
        keep waiting for right context (every later beat waits too).
        """
        if beat.peak + self.window.post > self._count:
            if final:
                beat.dropped = True
                return False
            return None
        if beat.peak < self._origin + self.window.pre:
            beat.dropped = True
            return False
        return True

    def _cut_window(self, beat: _PendingBeat) -> np.ndarray:
        from repro.ecg.resample import decimate_beats

        lo = beat.peak - self.window.pre
        segment = self._delineator.samples(self.lead, lo, lo + self.window.length)
        segment = segment[np.newaxis]
        decimated, _ = decimate_beats(segment, self.window, self.decimation)
        return decimated

    def _classify_ready(self, final: bool) -> None:
        from repro.core.defuzz import is_abnormal

        for beat in self._queue:
            if beat.classified or beat.dropped:
                continue
            ready = self._window_ready(beat, final)
            if ready is None:
                break  # later beats have larger peaks — also waiting
            if not ready:
                continue
            label = int(np.asarray(self.classifier.predict(self._cut_window(beat)))[0])
            beat.label = label
            beat.flagged = bool(is_abnormal(np.asarray([label]))[0])
            beat.classified = True
            previous = self._last_kept
            self._last_kept = beat.peak
            if beat.flagged:
                for peak, fiducials in self._delineator.add_beat(
                    beat.peak, previous_peak=previous
                ):
                    self._done[peak] = fiducials

    def _extract_ready(self, final: bool) -> None:
        """Deferred mode: move ready beats into the outbox, unlabeled.

        Windows are cut at exactly the points :meth:`_classify_ready`
        would classify them (same signal buffer content), so deferred
        and inline modes see identical decimated windows; only the
        ``predict`` call moves.  The delineator is told to keep the
        earliest unresolved beat's context alive until the labels
        arrive (a flagged verdict schedules delineation retroactively).
        """
        for beat in self._queue:
            if beat.classified or beat.dropped or beat.extracted:
                continue
            ready = self._window_ready(beat, final)
            if ready is None:
                break
            if not ready:
                continue
            beat.extracted = True
            beat.row = self._cut_window(beat)[0]
            self._outbox.append((beat, beat.row))
        self._update_hold()

    def _update_hold(self) -> None:
        """Point the delineator's retention floor at the earliest beat
        whose verdict is still unknown (it may yet be flagged)."""
        for beat in self._queue:
            if not beat.classified and not beat.dropped:
                self._delineator.hold(beat.peak)
                return
        self._delineator.hold(None)

    def _emit_ready(self) -> list[StreamBeatEvent]:
        events: list[StreamBeatEvent] = []
        while self._queue:
            beat = self._queue[0]
            if beat.dropped:
                self._queue.popleft()
                continue
            if not beat.classified:
                break
            fiducials = None
            if beat.flagged:
                if beat.peak not in self._done:
                    break  # delineation context still arriving
                fiducials = self._done.pop(beat.peak)
            events.append(
                StreamBeatEvent(
                    peak=beat.peak,
                    label=beat.label,
                    flagged=beat.flagged,
                    tx_bytes=self._full_bytes if beat.flagged else self._peak_bytes,
                    fiducials=fiducials,
                )
            )
            self._queue.popleft()
        return events
