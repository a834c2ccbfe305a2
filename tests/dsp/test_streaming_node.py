"""StreamingNode: the incremental gated node vs the record-scale path.

Over a completed stream the node's events must be bit-exact with
running the same stages at record scale — streaming front end (the
per-stream ``BlockFilter`` / ``StreamingPeakDetector`` pair of
``tests/stream_reference.py``), one batched classification, per-beat
multi-lead delineation of flagged beats with the previous kept peak as
guard — and invariant to how the stream is chunked.
"""

import pickle

import numpy as np
import pytest

from repro.core.defuzz import is_abnormal
from repro.dsp.delineation import delineate_multilead
from repro.dsp.morphological import filter_lead
from repro.dsp.streaming import (
    BlockFilter,
    NodeSnapshot,
    StreamingNode,
    StreamingPeakDetector,
)
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


def warm_up(node, signal, chunk):
    """Push ``chunk``-sample blocks until the front end is steady;
    return the events and the samples consumed."""
    events, i = [], 0
    while not node.front_steady:
        events += node.push(signal[i : i + chunk])
        i += chunk
    return events, i


class TestDuePoint:
    """A steady node stashes its input and runs the front end only when
    the stash reaches its due point (see the StreamingNode notes)."""

    def test_steady_pushes_run_the_front_end_once_per_due_point(
        self, record, embedded_classifier, monkeypatch
    ):
        chunk = 90
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        _, i = warm_up(node, record.signal, chunk)
        passes = []
        push_rows = BlockFilter.push_rows

        def counting(filters, blocks):
            passes.append(blocks.shape[1])
            return push_rows(filters, blocks)

        monkeypatch.setattr(BlockFilter, "push_rows", staticmethod(counting))
        for _ in range(40):
            node.push(record.signal[i : i + chunk])
            i += chunk
        # 40 chunks span 3,600 samples, so at most two detector windows
        # complete (one every window - overlap samples); every beat and
        # delineation of the default geometry is due with its window.
        # A drain runs in sub-passes of at most one second.
        advance = node._detector.window - node._detector.overlap
        due_points = -(-40 * chunk // advance)
        sub_passes = -(-(advance + chunk) // int(record.fs))
        assert 0 < len(passes) <= due_points * sub_passes
        assert max(passes) <= int(record.fs)

    def test_snapshot_carries_stashed_input(
        self, record, embedded_classifier, reference
    ):
        kept_peaks, labels, _, _ = reference
        chunk = 90
        node = StreamingNode(embedded_classifier, record.fs, n_leads=record.n_leads)
        events, i = warm_up(node, record.signal, chunk)
        while node.n_stashed < 10 * chunk:
            events += node.push(record.signal[i : i + chunk])
            i += chunk
        snapshot = pickle.loads(pickle.dumps(node.snapshot()))
        # Only the live rows travel, not the spare capacity.
        assert snapshot.state["_stash"].shape == (node.n_stashed, record.n_leads)
        restored = StreamingNode.restore(embedded_classifier, snapshot)
        assert restored.n_stashed == node.n_stashed
        for j in range(i, record.n_samples, chunk):
            events += restored.push(record.signal[j : j + chunk])
        events += restored.flush()
        np.testing.assert_array_equal([e.peak for e in events], kept_peaks)
        np.testing.assert_array_equal([e.label for e in events], labels)

    def test_delivery_drains_when_a_flagged_beat_needs_stashed_input(
        self, record, embedded_classifier
    ):
        """A T-wave search reaching past the detector overlap makes a
        delivered flagged beat wait for right context that may still be
        stashed; the delivery drains it, as a node that ran every push
        at once would already have."""
        from repro.dsp.delineation import DelineationConfig

        config = DelineationConfig(t_search=(0.14, 2.2))
        chunk = 90

        def make():
            return StreamingNode(
                embedded_classifier, record.fs, n_leads=record.n_leads,
                delineation_config=config, defer_classification=True,
            )

        node, ref = make(), make()
        pending, ref_pending = [], []
        drained_by_delivery = 0
        for step, i in enumerate(range(0, record.n_samples, chunk)):
            block = record.signal[i : i + chunk]
            assert node.push(block) == ref.push(block) + ref._drain()
            pending += node.take_pending()
            ref_pending += ref.take_pending()
            if step % 5 or not pending:
                continue
            labels = np.asarray(
                embedded_classifier.predict(np.vstack([row for _, row in pending]))
            )
            stashed = node.n_stashed
            got = node.deliver(list(zip((h for h, _ in pending), labels)))
            want = ref.deliver(list(zip((h for h, _ in ref_pending), labels)))
            pending.clear()
            ref_pending.clear()
            drained_by_delivery += node.n_stashed < stashed
            assert got == want
            assert node.n_pending == ref.n_pending
        assert drained_by_delivery
