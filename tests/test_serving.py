"""Tests for the multi-record / multi-stream batch serving layer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.peak_detection import PeakDetectorConfig
from repro.ecg.segmentation import BeatWindow
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.platform.node_sim import NodeSimulator
from repro.serving import (
    FleetTrace,
    StreamResult,
    classify_streams,
    simulate_records,
)
from stream_reference import assert_stream_results_identical, reference_classify_streams


class TestServingPackageSplit:
    """serving.py became the serving/ package; the public import
    surface must be unchanged for every pre-split caller."""

    def test_flat_imports_still_work(self):
        from repro.serving import (  # noqa: F401
            FleetTrace,
            StreamResult,
            classify_streams,
            simulate_records,
        )

    def test_submodules_own_their_pieces(self):
        from repro.serving import engine, executors, gateway, results

        assert engine.classify_streams is classify_streams
        assert engine.simulate_records is simulate_records
        assert results.FleetTrace is FleetTrace
        assert results.StreamResult is StreamResult
        assert executors.PLACEMENTS == ("hash", "least-loaded", "round-robin")
        assert hasattr(gateway, "StreamGateway")


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=3), seed=s).synthesize(
            30.0, name=f"rec-{s}"
        )
        for s in (31, 32)
    ]


@pytest.fixture(scope="module")
def fleet(records, embedded_classifier):
    return simulate_records(NodeSimulator(embedded_classifier), records)


class TestSimulateRecords:
    def test_one_trace_per_record(self, fleet, records):
        assert len(fleet) == len(records)

    def test_aggregates_sum_over_traces(self, fleet):
        assert fleet.n_beats == sum(len(t) for t in fleet.traces)
        assert fleet.total_tx_bytes == sum(t.total_tx_bytes for t in fleet.traces)
        assert fleet.deadline_misses == sum(t.deadline_misses for t in fleet.traces)

    def test_matches_individual_process_record(self, fleet, records, embedded_classifier):
        solo = NodeSimulator(embedded_classifier).process_record(records[0])
        batch_events = fleet.traces[0].events
        assert len(solo) == len(batch_events)
        for a, b in zip(solo.events, batch_events):
            assert a.peak == b.peak
            assert a.flagged == b.flagged
            assert a.tx_bytes == b.tx_bytes
            assert a.total_cycles == pytest.approx(b.total_cycles)

    def test_worst_case_is_fleet_max(self, fleet):
        assert fleet.worst_case_utilization == max(
            t.worst_case_utilization for t in fleet.traces
        )

    def test_summary_mentions_fleet_numbers(self, fleet):
        text = fleet.summary()
        assert "records" in text and "deadline misses" in text

    def test_empty_fleet(self):
        fleet = FleetTrace([])
        assert fleet.n_beats == 0
        assert fleet.activation_rate == 0.0
        assert fleet.worst_case_utilization == 0.0
        assert fleet.mean_duty_cycle == 0.0


class TestClassifyStreams:
    def test_batched_equals_per_stream(self, records, embedded_classifier):
        """One fleet-wide classification pass reaches the same verdicts
        as classifying each stream alone."""
        streams = [r.lead(0) for r in records]
        fs = records[0].fs
        batched = classify_streams(embedded_classifier, streams, fs)
        for stream, result in zip(streams, batched):
            solo = classify_streams(embedded_classifier, [stream], fs)[0]
            np.testing.assert_array_equal(result.peaks, solo.peaks)
            np.testing.assert_array_equal(result.labels, solo.labels)

    def test_result_shapes(self, records, embedded_classifier):
        streams = [r.lead(0) for r in records]
        results = classify_streams(embedded_classifier, streams, records[0].fs)
        assert len(results) == len(streams)
        for result in results:
            assert result.peaks.size == result.labels.size == result.n_beats
            assert result.abnormal.dtype == bool
            assert result.n_beats > 20  # 30 s of ~77 bpm rhythm

    def test_finds_most_annotated_beats(self, records, embedded_classifier):
        record = records[0]
        result = classify_streams(embedded_classifier, [record.lead(0)], record.fs)[0]
        ann = record.annotation.samples
        missed = sum(1 for p in ann if np.min(np.abs(result.peaks - p)) > 18)
        assert missed <= max(1, int(0.1 * ann.size))

    def test_empty_and_flat_streams(self, embedded_classifier):
        results = classify_streams(
            embedded_classifier, [np.zeros(3600), np.empty(0)], 360.0
        )
        assert all(r.n_beats == 0 for r in results)

    def test_validation(self, embedded_classifier):
        with pytest.raises(ValueError):
            classify_streams(embedded_classifier, [np.zeros(10)], 0.0)
        with pytest.raises(ValueError):
            classify_streams(embedded_classifier, [np.zeros((5, 2))], 360.0)

    def test_empty_batches(self, embedded_classifier):
        assert len(simulate_records(NodeSimulator(embedded_classifier), [])) == 0
        assert classify_streams(embedded_classifier, [], 360.0) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad, records, embedded_classifier):
        """One non-finite sample used to silence its stream for good
        (the detector's decayed energy sums go NaN): reject it."""
        stream = records[0].lead(0).copy()
        stream[3600] = bad
        with pytest.raises(ValueError, match="finite"):
            classify_streams(embedded_classifier, [records[1].lead(0), stream], 360.0)

    def test_non_positive_block_rejected(self, embedded_classifier):
        """block_s <= 0 must raise, not silently clamp to 1 sample."""
        for block_s in (0.0, -0.5):
            with pytest.raises(ValueError):
                classify_streams(embedded_classifier, [np.zeros(10)], 360.0, block_s=block_s)

    def test_invalid_decimation_rejected(self, embedded_classifier):
        with pytest.raises(ValueError):
            classify_streams(embedded_classifier, [np.zeros(10)], 360.0, decimation=0)

    def test_memory_stays_below_the_stream(self, embedded_classifier):
        """Serving a 10-minute stream holds a bounded window of it, not
        a filtered copy of the whole signal: the traced peak stays
        below the stream's own size."""
        lead = RecordSynthesizer(SynthesisConfig(n_leads=1), seed=34).synthesize(60.0).lead(0)
        stream = np.tile(lead, 10)
        classify_streams(embedded_classifier, [lead], 360.0)  # lazy imports load untraced
        tracemalloc.start()
        try:
            results = classify_streams(embedded_classifier, [stream], 360.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results[0].n_beats > 600  # ten minutes of ~77 bpm rhythm
        assert peak < stream.nbytes, f"traced peak {peak} B >= stream {stream.nbytes} B"


@pytest.fixture(scope="module")
def ragged_streams(records):
    """Ragged, equal-length (shared tail), sub-block, empty and flat
    streams cut from two 30 s records."""
    a, b = (r.lead(0) for r in records)
    return [a, b[:7777], a[:7777], b[:6001], np.empty(0), b[:100], np.zeros(3600), a[5000:]]


class TestRowsMatchPerStreamReference:
    """One row pass per block over every stream gives each stream
    exactly what its own filter/detector loop gives."""

    @pytest.mark.parametrize("block_s", [0.01, 0.25, 0.5, 1.0, 1.7, 3.0])
    @pytest.mark.parametrize("which", ["integer", "float"])
    def test_block_sizes_and_classifiers(
        self, block_s, which, ragged_streams, embedded_classifier, embedded_pipeline
    ):
        """The float pipeline runs with its fuzzy-value memo (a weakref
        to the last beat matrix) populated."""
        classifier = embedded_classifier
        if which == "float":
            classifier = embedded_pipeline
            classifier.predict(np.zeros((2, classifier.projection.matrix.shape[1])))
        assert_stream_results_identical(
            reference_classify_streams(classifier, ragged_streams, 360.0, block_s),
            classify_streams(classifier, ragged_streams, 360.0, block_s=block_s),
        )

    @pytest.mark.parametrize(
        "shape",
        [
            "one-stream",
            "equal-lengths",
            "ragged",
            "sub-block",
            "empty-among-live",
            "all-empty",
            "flat",
            "one-past-a-block",
        ],
    )
    def test_stream_shapes(self, shape, records, embedded_classifier):
        """Each fleet shape alone, at 0.25 s (90-sample) blocks: the
        grouping by block length sees one group, tails of every
        length, rows that never fill a block, and rows with no
        samples."""
        a, b = (r.lead(0) for r in records)
        streams = {
            "one-stream": [a],
            "equal-lengths": [a, b, a[::-1].copy()],
            "ragged": [a, b[:7777], b[:6001], a[5000:]],
            "sub-block": [b[:89], a[:1], b[:45]],
            "empty-among-live": [np.empty(0), a, np.empty(0), b],
            "all-empty": [np.empty(0), np.empty(0)],
            "flat": [np.zeros(3600), np.full(3601, 0.7), b[:3600]],
            "one-past-a-block": [a[: 40 * 90 + 1], b[: 40 * 90], a[: 40 * 90 - 1]],
        }[shape]
        assert_stream_results_identical(
            reference_classify_streams(embedded_classifier, streams, 360.0, 0.25),
            classify_streams(embedded_classifier, streams, 360.0, block_s=0.25),
        )

    @pytest.mark.parametrize("dtype", ["float32", "int16", "list"])
    def test_sample_types(self, dtype, records, embedded_classifier):
        """Streams are taken as float64 whatever they arrive as: ADC
        counts, single precision or plain sequences."""
        a, b = (r.lead(0)[:6000] for r in records)
        if dtype == "int16":
            streams = [np.round(x * 400).astype(np.int16) for x in (a, b)]
        elif dtype == "list":
            streams = [a.tolist(), b.tolist()]
        else:
            streams = [a.astype(dtype), b.astype(dtype)]
        as_float = [np.asarray(x, dtype=float) for x in streams]
        assert_stream_results_identical(
            reference_classify_streams(embedded_classifier, as_float, 360.0),
            classify_streams(embedded_classifier, streams, 360.0),
        )

    def test_asymmetric_window_and_detector_config(self, ragged_streams, embedded_classifier):
        """A non-default segmentation window and peak-detector config
        reach every stream's segmenter and detector."""
        window = BeatWindow(80, 120)
        config = PeakDetectorConfig(threshold_factor=1.8, refractory=0.3)
        assert_stream_results_identical(
            reference_classify_streams(
                embedded_classifier, ragged_streams, 360.0, 0.25, window=window, config=config
            ),
            classify_streams(
                embedded_classifier, ragged_streams, 360.0, 0.25, window=window, config=config
            ),
        )

    def test_undecimated_360hz_pipeline(self, ragged_streams, pipeline):
        """``decimation=1`` feeds full-rate beats to a 360 Hz pipeline."""
        assert_stream_results_identical(
            reference_classify_streams(pipeline, ragged_streams, 360.0, decimation=1),
            classify_streams(pipeline, ragged_streams, 360.0, decimation=1),
        )


@pytest.fixture(scope="module")
def fleet_source():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=33).synthesize(30.0).lead(0)


@st.composite
def fleets(draw):
    """Stream lengths (repeats make shared tails) and a block size."""
    lengths = draw(
        st.lists(
            st.sampled_from([0, 1, 90, 180, 1800, 4321]) | st.integers(0, 5400),
            min_size=1,
            max_size=6,
        )
    )
    offsets = draw(st.lists(st.integers(0, 5400), min_size=len(lengths), max_size=len(lengths)))
    block_s = draw(st.sampled_from([0.01, 0.25, 0.5, 1.7]) | st.floats(0.003, 3.0))
    return lengths, offsets, block_s


@settings(max_examples=25, deadline=None)
@given(fleets())
def test_rows_match_reference_property(fleet_source, embedded_classifier, schedule):
    lengths, offsets, block_s = schedule
    streams = [fleet_source[o : o + n] for n, o in zip(lengths, offsets)]
    assert_stream_results_identical(
        reference_classify_streams(embedded_classifier, streams, 360.0, block_s),
        classify_streams(embedded_classifier, streams, 360.0, block_s=block_s),
    )
