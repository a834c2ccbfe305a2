"""Batched and streaming delineation vs the per-beat reference.

The contract of the gated-path refactor: :func:`delineate_beats` and
:class:`StreamingDelineator` must be **bit-exact** with calling
:func:`delineate_multilead` once per beat — the returned fiducials and
the per-beat op counts alike — on MIT-BIH-like synthetic records,
including boundary-clamped beats and P-search guards.
"""

import pickle

import numpy as np
import pytest

from repro.dsp.delineation import (
    StreamingDelineator,
    delineate_beats,
    delineate_multilead,
)
from repro.dsp.morphological import filter_lead
from repro.dsp.peak_detection import detect_peaks
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.platform.opcount import OpCounter


@pytest.fixture(scope="module")
def setup():
    """Filtered 3-lead record, detected peaks, per-beat reference."""
    record = RecordSynthesizer(SynthesisConfig(n_leads=3), seed=77).synthesize(
        45.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}
    )
    fs = record.fs
    filtered = np.column_stack(
        [filter_lead(record.lead(i), fs) for i in range(record.n_leads)]
    )
    peaks = detect_peaks(filtered[:, 0], fs)
    previous = [None] + [int(p) for p in peaks[:-1]]
    reference, counters = [], []
    for peak, prev in zip(peaks, previous):
        counter = OpCounter()
        reference.append(
            delineate_multilead(
                filtered, int(peak), fs, counter=counter, previous_peak=prev
            ).as_array()
        )
        counters.append(counter.counts)
    return fs, filtered, peaks, previous, reference, counters


class TestDelineateBeats:
    def test_fiducials_bit_exact(self, setup):
        fs, filtered, peaks, previous, reference, _ = setup
        batched = delineate_beats(filtered, peaks, fs, previous_peaks=previous)
        assert len(batched) == peaks.size
        for ref, got in zip(reference, batched):
            np.testing.assert_array_equal(ref, got.as_array())

    def test_op_counts_bit_exact(self, setup):
        """Per-beat counters receive exactly the per-beat path's counts."""
        fs, filtered, peaks, previous, _, ref_counts = setup
        counters = [OpCounter() for _ in range(peaks.size)]
        delineate_beats(filtered, peaks, fs, counters=counters, previous_peaks=previous)
        for ref, got in zip(ref_counts, counters):
            assert ref == got.counts

    def test_boundary_clamped_beats(self, setup):
        """Beats whose segment hits the record edges stay bit-exact."""
        fs, filtered, _, _, _, _ = setup
        n = filtered.shape[0]
        edge_peaks = np.array([0, 5, 60, 150, n - 160, n - 40, n - 1])
        reference = [
            delineate_multilead(filtered, int(p), fs).as_array() for p in edge_peaks
        ]
        for ref, got in zip(reference, delineate_beats(filtered, edge_peaks, fs)):
            np.testing.assert_array_equal(ref, got.as_array())

    def test_unsorted_peaks_keep_input_order(self, setup):
        fs, filtered, peaks, _, reference, _ = setup
        order = np.argsort(-peaks)  # reversed
        batched = delineate_beats(filtered, peaks[order], fs)
        unguarded = [
            delineate_multilead(filtered, int(p), fs).as_array() for p in peaks
        ]
        for pos, b in enumerate(order):
            np.testing.assert_array_equal(unguarded[b], batched[pos].as_array())

    def test_overlapping_segments_share_runs(self, setup):
        """Near-coincident peaks (merged into one run) stay exact."""
        fs, filtered, peaks, _, _, _ = setup
        dense = np.sort(np.concatenate([peaks[:5], peaks[:5] + 7, peaks[:5] + 19]))
        reference = [delineate_multilead(filtered, int(p), fs).as_array() for p in dense]
        for ref, got in zip(reference, delineate_beats(filtered, dense, fs)):
            np.testing.assert_array_equal(ref, got.as_array())

    def test_single_lead(self, setup):
        fs, filtered, peaks, _, _, _ = setup
        one = filtered[:, :1]
        reference = [delineate_multilead(one, int(p), fs).as_array() for p in peaks[:10]]
        for ref, got in zip(reference, delineate_beats(one, peaks[:10], fs)):
            np.testing.assert_array_equal(ref, got.as_array())

    def test_empty_peaks(self, setup):
        fs, filtered, _, _, _, _ = setup
        assert delineate_beats(filtered, np.empty(0, dtype=np.int64), fs) == []

    def test_validation(self, setup):
        fs, filtered, peaks, _, _, _ = setup
        with pytest.raises(ValueError):
            delineate_beats(filtered[:, 0], peaks, fs)  # 1-D leads
        with pytest.raises(ValueError):
            delineate_beats(filtered, np.array([filtered.shape[0]]), fs)
        with pytest.raises(ValueError):
            delineate_beats(filtered, peaks, fs, counters=[OpCounter()])
        with pytest.raises(ValueError):
            delineate_beats(filtered, peaks, fs, previous_peaks=[None])


class TestStreamingDelineator:
    @pytest.mark.parametrize("block", [64, 333, 720])
    def test_bit_exact_across_block_sizes(self, setup, block):
        fs, filtered, peaks, previous, reference, ref_counts = setup
        delineator = StreamingDelineator(fs, lookback_s=3.0)
        results: dict[int, np.ndarray] = {}
        counters = {int(p): OpCounter() for p in peaks}
        next_beat = 0
        n = filtered.shape[0]
        for i in range(0, n, block):
            for peak, fid in delineator.push(filtered[i : i + block]):
                results[peak] = fid.as_array()
            while next_beat < peaks.size and peaks[next_beat] < delineator.n_samples:
                peak = int(peaks[next_beat])
                for done_peak, fid in delineator.add_beat(
                    peak, previous[next_beat], counters[peak]
                ):
                    results[done_peak] = fid.as_array()
                next_beat += 1
        for peak, fid in delineator.flush():
            results[peak] = fid.as_array()
        assert len(results) == peaks.size
        for peak, ref, counts in zip(peaks, reference, ref_counts):
            np.testing.assert_array_equal(ref, results[int(peak)])
            assert counters[int(peak)].counts == counts

    def test_tail_beat_clamped_like_batch(self, setup):
        """A beat finalized only at flush uses the record-end clamping."""
        fs, filtered, _, _, _, _ = setup
        n = filtered.shape[0]
        peak = n - 30  # right context never arrives
        delineator = StreamingDelineator(fs, lookback_s=0.5)
        delineator.push(filtered)
        assert delineator.add_beat(peak) == []
        (done_peak, fid), = delineator.flush()
        assert done_peak == peak
        np.testing.assert_array_equal(
            delineate_multilead(filtered, peak, fs).as_array(), fid.as_array()
        )

    def test_memory_stays_bounded(self, setup):
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs, lookback_s=1.0)
        occupancy = []
        for i in range(0, filtered.shape[0], 90):
            delineator.push(filtered[i : i + 90])
            occupancy.append(delineator.buffered_samples)
        # lookback + left search context + one push block, with slack.
        assert max(occupancy) <= int(1.0 * fs) + int(0.5 * fs) + 90

    def test_discarded_context_raises(self, setup):
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs, lookback_s=0.0)
        for i in range(0, filtered.shape[0], 360):
            delineator.push(filtered[i : i + 360])
        with pytest.raises(ValueError):
            delineator.add_beat(100)  # far behind the retained history

    def test_add_beat_validation(self, setup):
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs)
        delineator.push(filtered[:1000])
        with pytest.raises(ValueError):
            delineator.add_beat(1000)  # not yet pushed
        with pytest.raises(ValueError):
            delineator.add_beat(-1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StreamingDelineator(0.0)
        with pytest.raises(ValueError):
            StreamingDelineator(360.0, lookback_s=-1.0)

    def test_reuse_after_flush_clamps_at_stream_origin(self, setup):
        """Regression: a beat early in a post-flush stream must clamp
        its segment at the new stream's origin (like the batch path at
        a record start), not fail the left-context check."""
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs, lookback_s=1.0)
        delineator.push(filtered[:2000])
        assert delineator.flush() == []
        origin = delineator.n_samples
        # Second stream: first beat only 60 samples in (inside the
        # ~0.31 s left search span), scheduled within the lookback.
        stream_b = filtered[2000:4000]
        delineator.push(stream_b[:400])
        early_peak = origin + 60
        results = delineator.add_beat(early_peak)
        results += delineator.push(stream_b[400:])
        assert [peak for peak, _ in results] == [early_peak]
        reference = delineate_multilead(stream_b, 60, fs).as_array()
        expected = np.where(reference >= 0, reference + origin, -1)
        np.testing.assert_array_equal(results[0][1].as_array(), expected)
        # Beats from the previous stream are rejected outright.
        with pytest.raises(ValueError):
            delineator.add_beat(origin - 10)


    def test_pickle_keeps_live_rows_and_reads_the_old_layout(self, setup):
        """A pickled delineator carries only its live rows; one pickled
        before the in-place buffer (a ``_buffer`` array of the live
        rows) restores too, and both continue bit-exactly."""
        fs, filtered, peaks, previous, _, _ = setup
        half = filtered.shape[0] // 2
        live = StreamingDelineator(fs, lookback_s=3.0)
        live.push(filtered[:half])
        beats = [(int(p), prev) for p, prev in zip(peaks, previous) if p < half]
        live.add_beats(beats[-3:])
        blob = pickle.dumps(live)
        assert len(blob) < 8 * live._data.size  # no spare capacity
        restored = pickle.loads(blob)
        old_state = pickle.loads(pickle.dumps(live.__getstate__()))
        old_state["_buffer"] = old_state.pop("_data")
        del old_state["_head"]
        old = StreamingDelineator.__new__(StreamingDelineator)
        old.__setstate__(old_state)
        buffered = live.buffered_samples
        outputs = []
        for delineator in (live, restored, old):
            assert delineator.buffered_samples == buffered
            done = delineator.push(filtered[half:]) + delineator.flush()
            outputs.append([(peak, fid.as_array().tolist()) for peak, fid in done])
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]  # a beat was still pending across the pickle


class TestAddBeatsBatch:
    """``add_beats`` == one ``add_beat`` per item, bit-exactly."""

    @pytest.mark.parametrize("block", [333, 720])
    def test_bit_exact_vs_sequential(self, setup, block):
        fs, filtered, peaks, previous, reference, ref_counts = setup
        delineator = StreamingDelineator(fs, lookback_s=3.0)
        results: dict[int, np.ndarray] = {}
        counters = {int(p): OpCounter() for p in peaks}
        next_beat = 0
        n = filtered.shape[0]
        for i in range(0, n, block):
            for peak, fid in delineator.push(filtered[i : i + block]):
                results[peak] = fid.as_array()
            batch = []
            while next_beat < peaks.size and peaks[next_beat] < delineator.n_samples:
                peak = int(peaks[next_beat])
                batch.append((peak, previous[next_beat], counters[peak]))
                next_beat += 1
            for done_peak, fid in delineator.add_beats(batch):
                results[done_peak] = fid.as_array()
        for peak, fid in delineator.flush():
            results[peak] = fid.as_array()
        assert len(results) == peaks.size
        for peak, ref, counts in zip(peaks, reference, ref_counts):
            np.testing.assert_array_equal(ref, results[int(peak)])
            assert counters[int(peak)].counts == counts

    def test_two_item_form_without_counter(self, setup):
        fs, filtered, peaks, previous, reference, _ = setup
        delineator = StreamingDelineator(fs, lookback_s=60.0)
        delineator.push(filtered)
        batch = [(int(p), prev) for p, prev in zip(peaks[:8], previous[:8])]
        done = dict(delineator.add_beats(batch))
        for peak, ref in zip(peaks[:8], reference[:8]):
            np.testing.assert_array_equal(ref, done[int(peak)].as_array())

    def test_origin_clamped_and_tail_beats(self, setup):
        """Edge beats (clamped left at origin, finalized only at flush)
        go through add_beats like through add_beat."""
        fs, filtered, _, _, _, _ = setup
        n = filtered.shape[0]
        edge_peaks = [5, 60, n - 160, n - 30]
        delineator = StreamingDelineator(fs, lookback_s=60.0)
        delineator.push(filtered)
        results = dict(delineator.add_beats([(p, None) for p in edge_peaks]))
        results.update(delineator.flush())
        assert set(results) == set(edge_peaks)
        for peak in edge_peaks:
            np.testing.assert_array_equal(
                delineate_multilead(filtered, peak, fs).as_array(),
                results[peak].as_array(),
            )

    def test_empty_batch(self, setup):
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs)
        delineator.push(filtered[:1000])
        assert delineator.add_beats([]) == []

    def test_validation_is_all_or_nothing(self, setup):
        fs, filtered, _, _, _, _ = setup
        delineator = StreamingDelineator(fs, lookback_s=60.0)
        delineator.push(filtered[:3000])
        with pytest.raises(ValueError):
            delineator.add_beats([(500, None), (5000, None)])  # 2nd not pushed
        # The valid first item must NOT have been scheduled.
        assert delineator.flush() == []

    def test_single_lead_batch(self, setup):
        fs, filtered, peaks, previous, _, _ = setup
        one = filtered[:, :1]
        delineator = StreamingDelineator(fs, lookback_s=60.0)
        delineator.push(one)
        batch = [(int(p), prev) for p, prev in zip(peaks[:10], previous[:10])]
        done = dict(delineator.add_beats(batch))
        for peak, prev in zip(peaks[:10], previous[:10]):
            if int(peak) in done:
                np.testing.assert_array_equal(
                    delineate_multilead(
                        one, int(peak), fs, previous_peak=prev
                    ).as_array(),
                    done[int(peak)].as_array(),
                )
