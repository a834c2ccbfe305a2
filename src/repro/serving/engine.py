"""Batch serving: many complete records or streams in one process.

The per-record APIs (:meth:`repro.platform.node_sim.NodeSimulator.process_record`,
the :mod:`repro.dsp.streaming` classes) model one WBSN node; this
module serves *many* nodes at once.

* :func:`classify_streams` drives every stream through the streaming
  front end block by block, as **one 2-D row pass per block** over all
  streams (:meth:`BlockFilter.push_rows`,
  :meth:`StreamingWavelet.push_rows`), then makes **one fleet-wide
  classifier pass**.  Each stream's result is byte-identical to
  pushing that stream alone through its own filter and detector.
* :func:`simulate_records` replays records through the op-counting
  node model, one after another.

For *live* sessions feeding data in chunks, see
:class:`repro.serving.gateway.StreamGateway`, which runs the same row
passes per gateway tick.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.streaming import BlockFilter, StreamingPeakDetector
from repro.dsp.wavelet import StreamingWavelet
from repro.ecg.resample import decimate_beats
from repro.ecg.segmentation import BeatWindow, segment_beats
from repro.platform.node_sim import NodeSimulator
from repro.serving.results import FleetTrace, StreamResult

__all__ = ["classify_streams", "simulate_records"]


def simulate_records(simulator: NodeSimulator, records, lead: int = 0) -> FleetTrace:
    """Replay a batch of records; return the aggregate fleet trace.

    Records are replayed serially.  A worker pool loses at every fleet
    size the examples and benchmarks run (up to 8 one-minute 3-lead
    records on a 2-core host); only far larger offline batches (16 ×
    120 s measured 1.34x on two processes) gain from one.  A caller
    with that much work can map ``simulator.process_record`` over its
    own pool.

    Parameters
    ----------
    simulator:
        The node model every record is replayed through.
    records:
        Iterable of :class:`repro.ecg.database.Record`.
    lead:
        Classification lead index (same for every record).
    """
    return FleetTrace([simulator.process_record(record, lead=lead) for record in records])


def classify_streams(
    classifier,
    streams,
    fs: float,
    block_s: float = 0.5,
    decimation: int = 4,
    window: BeatWindow | None = None,
    config=None,
) -> list[StreamResult]:
    """Run the streaming front end over many streams; classify once.

    Every stream has its own :class:`BlockFilter` and
    :class:`StreamingPeakDetector`, fed ``block_s`` blocks.  At each
    block start the live streams are grouped by block length (only
    stream tails differ); each group runs one filter row pass, and one
    wavelet row pass once its transforms are all steady (per row
    before that).  Beats are segmented per stream and the classifier
    sees one beat matrix for the whole fleet.

    Parameters
    ----------
    classifier:
        Anything with ``predict(beats)`` — the float
        :class:`~repro.core.pipeline.RPClassifierPipeline` or the
        integer :class:`~repro.fixedpoint.convert.EmbeddedClassifier`.
    streams:
        Iterable of 1-D finite sample arrays, all at ``fs``.
    fs:
        Sampling frequency in Hz.
    block_s:
        ADC block size in seconds fed to the front end (> 0).
    decimation:
        Beat decimation factor before classification (paper: 4).
    window:
        Segmentation window (paper default 100 + 100).
    config:
        Optional :class:`~repro.dsp.peak_detection.PeakDetectorConfig`.

    Returns
    -------
    list[StreamResult]
        One entry per input stream, in order.
    """
    if fs <= 0:
        raise ValueError("sampling frequency must be positive")
    if block_s <= 0:
        raise ValueError("block_s must be positive")
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    block = max(1, int(round(block_s * fs)))
    window = window or BeatWindow(100, 100)
    arrays = []
    for stream in streams:
        x = np.asarray(stream, dtype=float)
        if x.ndim != 1:
            raise ValueError("streams must be 1-D sample arrays")
        if not np.isfinite(x).all():
            raise ValueError("streams must hold finite samples")
        arrays.append(x)

    filters = [BlockFilter(fs) for _ in arrays]
    detectors = [StreamingPeakDetector(fs, config=config) for _ in arrays]
    filtered: list[list[np.ndarray]] = [[] for _ in arrays]
    for start in range(0, max((x.size for x in arrays), default=0), block):
        groups: dict[int, list[int]] = {}
        for r, x in enumerate(arrays):
            if x.size > start:
                groups.setdefault(min(block, x.size - start), []).append(r)
        for n, rows in groups.items():
            out = BlockFilter.push_rows(
                [filters[r] for r in rows], np.stack([arrays[r][start : start + n] for r in rows])
            )
            if not out.shape[1]:
                continue
            wavelets = [detectors[r].wavelet for r in rows]
            if len(rows) > 1 and all(w.steady for w in wavelets):
                columns = StreamingWavelet.push_rows(wavelets, out)
            else:
                columns = [w.push(row) for w, row in zip(wavelets, out)]
            for r, row, cols in zip(rows, out, columns):
                filtered[r].append(row)
                detectors[r].push_columns(row.size, cols)

    per_stream_peaks: list[np.ndarray] = []
    per_stream_beats: list[np.ndarray] = []
    for block_filter, detector, parts in zip(filters, detectors, filtered):
        tail = block_filter.flush()
        if tail.size:
            parts.append(tail)
            detector.push(tail)
        detector.flush()
        signal = np.concatenate(parts) if parts else np.empty(0)
        beats, kept = segment_beats(signal, detector.peaks, window)
        per_stream_peaks.append(detector.peaks[kept])
        per_stream_beats.append(beats)

    counts = [b.shape[0] for b in per_stream_beats]
    if sum(counts):
        stacked = np.vstack([b for b in per_stream_beats if b.shape[0]])
        stacked_ds, _ = decimate_beats(stacked, window, decimation)
        labels = np.asarray(classifier.predict(stacked_ds))
    else:
        labels = np.empty(0, dtype=np.int64)
    bounds = np.cumsum([0, *counts])
    return [
        StreamResult(peaks=peaks, labels=labels[lo:hi])
        for peaks, lo, hi in zip(per_stream_peaks, bounds[:-1], bounds[1:])
    ]
