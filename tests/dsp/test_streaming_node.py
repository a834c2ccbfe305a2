"""StreamingNode: the incremental gated node vs the record-scale path.

Over a completed stream the node's events must be bit-exact with
running the same stages at record scale — streaming front end (the
pair ``classify_streams`` uses), one batched classification, per-beat
multi-lead delineation of flagged beats with the previous kept peak as
guard — and invariant to how the stream is chunked.
"""

import pickle

import numpy as np
import pytest

from repro.core.defuzz import is_abnormal
from repro.dsp.delineation import delineate_multilead
from repro.dsp.morphological import filter_lead
from repro.dsp.streaming import NodeSnapshot, StreamingNode, StreamingPeakDetector
from repro.ecg.resample import decimate_beats
from repro.ecg.segmentation import BeatWindow, segment_beats
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.platform.radio import FULL_FIDUCIAL_PAYLOAD, PEAK_ONLY_PAYLOAD


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=3), seed=55).synthesize(
        45.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="node-stream"
    )


@pytest.fixture(scope="module")
def reference(record, embedded_classifier):
    """Record-scale outcome of the same stages the node streams."""
    fs = record.fs
    filtered = np.column_stack(
        [filter_lead(record.lead(i), fs) for i in range(record.n_leads)]
    )
    detector = StreamingPeakDetector(fs)
    detector.push(filtered[:, 0])
    detector.flush()
    window = BeatWindow(100, 100)
    beats, kept = segment_beats(filtered[:, 0], detector.peaks, window)
    kept_peaks = detector.peaks[kept]
    decimated, _ = decimate_beats(beats, window, 4)
    labels = np.asarray(embedded_classifier.predict(decimated))
    flagged = is_abnormal(labels)
    fiducials = {}
    for i in np.flatnonzero(flagged):
        previous = int(kept_peaks[i - 1]) if i > 0 else None
        fiducials[int(kept_peaks[i])] = delineate_multilead(
            filtered, int(kept_peaks[i]), fs, previous_peak=previous
        ).as_array()
    return kept_peaks, labels, flagged, fiducials


def run_node(record, classifier, block: int):
    node = StreamingNode(classifier, record.fs, n_leads=record.n_leads)
    events = []
    for i in range(0, record.n_samples, block):
        events += node.push(record.signal[i : i + block])
    events += node.flush()
    return events


class TestStreamingNode:
    @pytest.mark.parametrize("block_s", [0.25, 1.7])
    def test_bit_exact_with_record_scale_path(
        self, record, embedded_classifier, reference, block_s
    ):
        kept_peaks, labels, flagged, fiducials = reference
        events = run_node(record, embedded_classifier, int(block_s * record.fs))
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)
        np.testing.assert_array_equal([e.flagged for e in events], flagged)
        assert any(e.flagged for e in events) and not all(e.flagged for e in events)
        for event in events:
            if event.flagged:
                np.testing.assert_array_equal(
                    event.fiducials.as_array(), fiducials[event.peak]
                )
            else:
                assert event.fiducials is None

    def test_whole_record_single_push(self, record, embedded_classifier, reference):
        """One giant push is chopped internally; memory stays bounded."""
        kept_peaks, labels, _, _ = reference
        events = run_node(record, embedded_classifier, record.n_samples)
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)

    def test_tx_bytes_by_verdict(self, record, embedded_classifier):
        events = run_node(record, embedded_classifier, int(0.5 * record.fs))
        for event in events:
            expected = FULL_FIDUCIAL_PAYLOAD if event.flagged else PEAK_ONLY_PAYLOAD
            assert event.tx_bytes == expected + 2  # default overhead

    def test_events_emitted_incrementally_in_order(self, record, embedded_classifier):
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        block = int(0.5 * record.fs)
        per_push = []
        for i in range(0, record.n_samples, block):
            per_push.append(node.push(record.signal[i : i + block]))
        per_push.append(node.flush())
        # Events arrive before the end, not all at flush.
        assert sum(1 for events in per_push[:-1] if events) > 3
        peaks = [e.peak for events in per_push for e in events]
        assert peaks == sorted(peaks)
        assert node.n_pending == 0

    def test_single_lead_stream(self, record, embedded_classifier):
        node = StreamingNode(embedded_classifier, record.fs, n_leads=1)
        events = node.push(record.lead(0)) + node.flush()
        assert len(events) > 20
        for event in events:
            if event.flagged:
                assert event.fiducials is not None

    def test_reuse_after_flush_with_early_beat(self, record, embedded_classifier):
        """Regression: after flush() the node serves a fresh stream; a
        QRS landing within window.pre of the new stream's start must be
        dropped (as batch segmentation would at a record start), not
        crash the segment-buffer slicing."""
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        first = node.push(record.signal) + node.flush()
        assert first
        origin = node._count
        # Second stream sliced to begin right before a strong beat: the
        # first detected peak falls inside the 100-sample guard band.
        first_peak = first[0].peak
        start = max(0, first_peak - 40)
        events = node.push(record.signal[start:]) + node.flush()
        assert events  # processed, no RuntimeError
        for event in events:
            assert event.peak >= origin + node.window.pre
            if event.flagged:
                assert event.fiducials is not None

    def test_snapshot_restore_continues_bit_exact(
        self, record, embedded_classifier, reference
    ):
        """A session restored from a (pickled) snapshot continues the
        stream with events identical to the uninterrupted node."""
        kept_peaks, labels, _, _ = reference
        block = int(0.5 * record.fs)
        half = (record.n_samples // (2 * block)) * block
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        events = []
        for i in range(0, half, block):
            events += node.push(record.signal[i : i + block])
        snapshot = pickle.loads(pickle.dumps(node.snapshot()))
        assert isinstance(snapshot, NodeSnapshot)
        restored = StreamingNode.restore(embedded_classifier, snapshot)
        restored_events = list(events)
        for i in range(half, record.n_samples, block):
            events += node.push(record.signal[i : i + block])
            restored_events += restored.push(record.signal[i : i + block])
        events += node.flush()
        restored_events += restored.flush()
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)
        assert [(e.peak, e.label, e.flagged, e.tx_bytes) for e in events] == [
            (e.peak, e.label, e.flagged, e.tx_bytes) for e in restored_events
        ]

    def test_snapshot_is_an_independent_copy(self, record, embedded_classifier):
        """Mutating the live node after snapshot() does not corrupt the
        snapshot; one snapshot restores any number of times."""
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        node.push(record.signal[: int(5 * record.fs)])
        snapshot = node.snapshot()
        node.push(record.signal[int(5 * record.fs) : int(10 * record.fs)])  # diverge
        chunk = record.signal[int(5 * record.fs) : int(6 * record.fs)]
        first = StreamingNode.restore(embedded_classifier, snapshot).push(chunk)
        second = StreamingNode.restore(embedded_classifier, snapshot).push(chunk)
        assert [(e.peak, e.label) for e in first] == [(e.peak, e.label) for e in second]

    def test_snapshot_with_labels_in_flight_rearms_beats(
        self, record, embedded_classifier, reference
    ):
        """A deferred-mode snapshot taken while extracted beats await
        labels must not wedge the restored session: the dead handles
        are re-armed and the restored node re-extracts identical
        windows into a fresh outbox."""
        kept_peaks, labels, _, _ = reference
        node = StreamingNode(
            embedded_classifier, record.fs, n_leads=record.n_leads,
            defer_classification=True,
        )
        half = record.n_samples // 2
        events = node.push(record.signal[:half])
        assert node.n_awaiting_labels > 0
        node.take_pending()  # handles leave the node, labels never return
        restored = StreamingNode.restore(embedded_classifier, node.snapshot())
        assert restored.n_awaiting_labels == node.n_awaiting_labels

        def drain(n):
            pending = n.take_pending()
            if not pending:
                return []
            labels = embedded_classifier.predict(np.vstack([row for _, row in pending]))
            return n.deliver(list(zip((h for h, _ in pending), np.asarray(labels))))

        events += drain(restored)
        events += restored.push(record.signal[half:])
        events += drain(restored)
        events += restored.finish_input()
        events += drain(restored)
        events += restored.finalize()
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)

    def test_deferred_mode_guards(self, record, embedded_classifier):
        node = StreamingNode(
            embedded_classifier, record.fs, n_leads=record.n_leads,
            defer_classification=True,
        )
        node.push(record.signal[: int(15 * record.fs)])
        assert node.n_awaiting_labels > 0
        with pytest.raises(RuntimeError, match="finish_input"):
            node.flush()  # deferred streams end via the handshake
        node.finish_input()
        with pytest.raises(RuntimeError, match="await classification"):
            node.finalize()  # outbox not yet delivered
        inline = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        for method in (inline.finish_input, inline.finalize):
            with pytest.raises(RuntimeError, match="deferred"):
                method()
        with pytest.raises(RuntimeError, match="deferred"):
            inline.deliver([])

    def test_validation(self, record, embedded_classifier):
        with pytest.raises(ValueError):
            StreamingNode(embedded_classifier, 0.0)
        with pytest.raises(ValueError):
            StreamingNode(embedded_classifier, record.fs, n_leads=0)
        with pytest.raises(ValueError):
            StreamingNode(embedded_classifier, record.fs, n_leads=2, lead=2)
        with pytest.raises(ValueError):
            StreamingNode(embedded_classifier, record.fs, decimation=0)
        node = StreamingNode(embedded_classifier, record.fs, n_leads=3)
        with pytest.raises(ValueError):
            node.push(record.signal[:100, :2])  # wrong lead count

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_chunk_rejected_and_stream_keeps_serving(
        self, record, embedded_classifier, reference, bad
    ):
        """One non-finite sample used to poison the detector's decayed
        energy sums and silence the stream for good.  The chunk holding
        it is rejected, and later clean chunks serve bit-exactly."""
        kept_peaks, labels, _, _ = reference
        block = int(0.25 * record.fs)
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        events = []
        for i in range(0, record.n_samples, block):
            chunk = record.signal[i : i + block]
            if i == 40 * block:  # 10 s into the stream
                poisoned = chunk.copy()
                poisoned[7, 1] = bad
                with pytest.raises(ValueError, match="finite"):
                    node.push(poisoned)
            events += node.push(chunk)
        events += node.flush()
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)
