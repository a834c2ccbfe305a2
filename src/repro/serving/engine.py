"""Batch serving: many complete records or streams in one process.

The per-record APIs (:meth:`repro.platform.node_sim.NodeSimulator.process_record`,
the :mod:`repro.dsp.streaming` classes) model one WBSN node; this
module serves *many* nodes at once.

* :func:`classify_streams` replays complete streams through a
  :class:`~repro.serving.gateway.StreamGateway` as interleaved live
  sessions (:func:`~repro.serving.gateway.serve_round_robin`), so the
  gateway's row passes and batched classifier passes serve batch
  traffic too.  Each stream's result is byte-identical to pushing
  that stream alone through its own filter and detector, and memory
  stays bounded by the sessions' sliding windows.
* :func:`simulate_records` replays records through the op-counting
  node model, one after another.
"""

from __future__ import annotations

import numpy as np

from repro.ecg.segmentation import BeatWindow
from repro.platform.node_sim import NodeSimulator
from repro.serving.gateway import StreamGateway, serve_round_robin
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
    """Classify every beat of many complete streams.

    A replay: each stream becomes one session of a
    :class:`~repro.serving.gateway.StreamGateway`, fed ``block_s``
    chunks round-robin by
    :func:`~repro.serving.gateway.serve_round_robin`.  Each stream's
    peaks and labels are those of pushing it alone through its own
    filter and detector, segmenting the filtered signal and
    classifying its beats, while memory stays bounded by the
    sessions' sliding windows rather than by the streams' lengths.

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
    arrays = [np.asarray(stream) for stream in streams]
    if any(x.ndim != 1 for x in arrays):
        raise ValueError("streams must be 1-D sample arrays")
    gateway = StreamGateway(
        classifier, fs, decimation=decimation, window=window, detector_config=config
    )
    events = serve_round_robin(gateway, enumerate(arrays), max(1, round(block_s * fs)))
    return [
        StreamResult(
            peaks=np.array([e.peak for e in evs], dtype=np.int64),
            labels=np.array([e.label for e in evs], dtype=np.int64),
        )
        for evs in events.values()
    ]
