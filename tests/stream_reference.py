"""Per-stream reference for the batch engine's equality checks.

``reference_classify_streams`` runs each stream through its own
``BlockFilter.push`` / ``StreamingPeakDetector.push`` loop, segments
the whole filtered signal and classifies every beat in one pass: an
implementation independent of ``classify_streams``, which replays the
streams as gateway sessions.  The tier-1 tests in
``tests/test_serving.py`` and the throughput benchmark both compare
``classify_streams`` against it.  Kept free of test-only dependencies
so a benchmark job can import it.
"""

import numpy as np

from repro.dsp.streaming import BlockFilter, StreamingPeakDetector
from repro.ecg.resample import decimate_beats
from repro.ecg.segmentation import BeatWindow, segment_beats
from repro.serving import StreamResult


def reference_classify_streams(
    classifier, streams, fs, block_s=0.5, decimation=4, window=None, config=None
):
    """Per-stream reference: each stream through its own
    ``BlockFilter.push`` / ``StreamingPeakDetector.push`` loop, then
    one classifier pass over every stream's beats."""
    block = max(1, int(round(block_s * fs)))
    window = window or BeatWindow(100, 100)
    per_stream_peaks, per_stream_beats = [], []
    for x in streams:
        block_filter = BlockFilter(fs)
        detector = StreamingPeakDetector(fs, config=config)
        filtered_parts = []
        for i in range(0, x.size, block):
            out = block_filter.push(x[i : i + block])
            if out.size:
                filtered_parts.append(out)
                detector.push(out)
        tail = block_filter.flush()
        if tail.size:
            filtered_parts.append(tail)
            detector.push(tail)
        detector.flush()
        filtered = np.concatenate(filtered_parts) if filtered_parts else np.empty(0)
        beats, kept = segment_beats(filtered, detector.peaks, window)
        per_stream_peaks.append(detector.peaks[kept])
        per_stream_beats.append(beats)
    counts = [b.shape[0] for b in per_stream_beats]
    if sum(counts):
        stacked = np.vstack([b for b in per_stream_beats if b.shape[0]])
        stacked_ds, _ = decimate_beats(stacked, window, decimation)
        labels = np.asarray(classifier.predict(stacked_ds))
    else:
        labels = np.empty(0, dtype=np.int64)
    results, start = [], 0
    for peaks, count in zip(per_stream_peaks, counts):
        results.append(StreamResult(peaks=peaks, labels=labels[start : start + count]))
        start += count
    return results


def assert_stream_results_identical(a: list, b: list) -> None:
    """Byte-identical outcomes: same peaks and labels, same dtypes."""
    assert len(a) == len(b)
    for result_a, result_b in zip(a, b):
        for x, y in ((result_a.peaks, result_b.peaks), (result_a.labels, result_b.labels)):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
