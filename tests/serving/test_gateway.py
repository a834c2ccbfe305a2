"""StreamGateway: live-session multiplexing vs standalone StreamingNode.

The gateway's contract is bit-exactness per session: whatever the
chunk sizes, session interleaving order and batch-flush boundaries,
every session's event sequence equals a standalone inline-mode
``StreamingNode`` fed the same samples.
"""

import pickle

import numpy as np
import pytest

from repro.dsp.streaming import StreamingNode
from repro.serving import StreamGateway, serve_round_robin
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

N_LEADS = 3


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            20.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"sess-{s}"
        )
        for s in (61, 62, 63)
    ]


@pytest.fixture(scope="module")
def reference_events(records, embedded_classifier):
    """Per-session standalone (inline-mode) StreamingNode events."""
    out = []
    for record in records:
        node = StreamingNode(embedded_classifier, record.fs, n_leads=N_LEADS)
        out.append(node.push(record.signal) + node.flush())
    return out


def assert_events_equal(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert (a.peak, a.label, a.flagged, a.tx_bytes) == (
            b.peak, b.label, b.flagged, b.tx_bytes
        )
        if a.fiducials is None:
            assert b.fiducials is None
        else:
            np.testing.assert_array_equal(a.fiducials.as_array(), b.fiducials.as_array())


def run_gateway(gateway, records, schedule):
    """Feed sessions per ``schedule`` (list of (session_index, chunk));
    return per-session event lists."""
    for i in range(len(records)):
        gateway.open_session(f"s{i}")
    events = [[] for _ in records]
    for i, chunk in schedule:
        events[i].extend(gateway.ingest(f"s{i}", chunk))
    for i in range(len(records)):
        events[i].extend(gateway.close_session(f"s{i}"))
    return events


def round_robin_schedule(records, block_s=0.5):
    schedule = []
    offsets = [0] * len(records)
    block = int(block_s * records[0].fs)
    while any(o < r.n_samples for o, r in zip(offsets, records)):
        for i, record in enumerate(records):
            if offsets[i] < record.n_samples:
                schedule.append((i, record.signal[offsets[i] : offsets[i] + block]))
                offsets[i] += block
    return schedule


def random_schedule(records, rng):
    queues = []
    for record in records:
        chunks, i = [], 0
        while i < record.n_samples:
            n = int(rng.integers(5, 1200))
            chunks.append(record.signal[i : i + n])
            i += n
        queues.append(chunks)
    schedule = []
    while any(queues):
        i = int(rng.choice([j for j, q in enumerate(queues) if q]))
        schedule.append((i, queues[i].pop(0)))
    return schedule


class TestGatewayBitExactness:
    def test_round_robin_matches_standalone(
        self, records, embedded_classifier, reference_events
    ):
        gateway = StreamGateway(embedded_classifier, records[0].fs, n_leads=N_LEADS)
        events = run_gateway(gateway, records, round_robin_schedule(records))
        for expected, actual in zip(reference_events, events):
            assert_events_equal(expected, actual)
        assert any(e.flagged for session in events for e in session)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_chunks_and_interleaving(
        self, seed, records, embedded_classifier, reference_events
    ):
        """Seeded property test: any chunking, any interleaving."""
        rng = np.random.default_rng(seed)
        gateway = StreamGateway(
            embedded_classifier,
            records[0].fs,
            n_leads=N_LEADS,
            max_batch=int(rng.integers(1, 48)),
            max_latency_ticks=int(rng.integers(1, 16)),
        )
        events = run_gateway(gateway, records, random_schedule(records, rng))
        for expected, actual in zip(reference_events, events):
            assert_events_equal(expected, actual)

    def test_serve_round_robin_helper(
        self, records, embedded_classifier, reference_events
    ):
        """The canonical driver (used by CLI, example and benchmark)
        returns complete, bit-exact per-session sequences."""
        gateway = StreamGateway(embedded_classifier, records[0].fs, n_leads=N_LEADS)
        events = serve_round_robin(
            gateway,
            {f"s{i}": record.signal for i, record in enumerate(records)},
            int(0.5 * records[0].fs),
        )
        assert gateway.n_sessions == 0  # all sessions closed
        for i, expected in enumerate(reference_events):
            assert_events_equal(expected, events[f"s{i}"])
        with pytest.raises(ValueError, match="chunk"):
            serve_round_robin(gateway, {"x": records[0].signal}, 0)

    @pytest.mark.parametrize("max_batch,max_latency", [(1, 1), (16, 4), (512, 512)])
    def test_flush_boundary_invariance(
        self, max_batch, max_latency, records, embedded_classifier, reference_events
    ):
        """Batch-flush boundaries never change event content or order."""
        gateway = StreamGateway(
            embedded_classifier,
            records[0].fs,
            n_leads=N_LEADS,
            max_batch=max_batch,
            max_latency_ticks=max_latency,
        )
        events = run_gateway(gateway, records, round_robin_schedule(records))
        for expected, actual in zip(reference_events, events):
            assert_events_equal(expected, actual)


class TestGatewayBatching:
    def test_batches_amortize_the_classifier(self, records, embedded_classifier):
        """Multi-session load actually batches: far fewer classifier
        passes than beats."""
        gateway = StreamGateway(
            embedded_classifier, records[0].fs, n_leads=N_LEADS, max_batch=64
        )
        events = run_gateway(gateway, records, round_robin_schedule(records))
        n_events = sum(len(session) for session in events)
        assert n_events > 0
        assert gateway.n_classified >= n_events
        assert gateway.n_flushes < gateway.n_classified / 4  # >4 beats/pass on average

    def test_latency_bound_flushes_quiet_batches(self, records, embedded_classifier):
        """A beat never waits more than max_latency_ticks ingests, even
        when the size bound is never reached."""
        record = records[0]
        gateway = StreamGateway(
            embedded_classifier,
            record.fs,
            n_leads=N_LEADS,
            max_batch=10_000,
            max_latency_ticks=3,
        )
        gateway.open_session("solo")
        block = int(0.5 * record.fs)
        waited = 0
        for i in range(0, record.n_samples, block):
            gateway.ingest("solo", record.signal[i : i + block])
            waited = waited + 1 if gateway.n_queued else 0
            assert waited <= 3
        gateway.close_session("solo")

    def test_size_bound_flushes_full_batches(self, records, embedded_classifier):
        gateway = StreamGateway(
            embedded_classifier,
            records[0].fs,
            n_leads=N_LEADS,
            max_batch=4,
            max_latency_ticks=10_000,
        )
        run_gateway(gateway, records, round_robin_schedule(records))
        assert gateway.n_queued == 0
        assert gateway.n_flushes >= gateway.n_classified // 8  # bounded batch size

    def test_events_routed_to_their_own_session(self, records, embedded_classifier):
        """A flush triggered by one session's ingest resolves other
        sessions' beats — delivered via their own poll, never leaked."""
        gateway = StreamGateway(
            embedded_classifier,
            records[0].fs,
            n_leads=N_LEADS,
            max_batch=1,  # flush on every ingest that queued a beat
        )
        gateway.open_session("a")
        gateway.open_session("b")
        record = records[0]
        a_events = gateway.ingest("a", record.signal)  # whole record at once
        assert gateway.poll("a") == []
        # b's quiet ingest triggers no cross-delivery of a's events.
        b_events = gateway.ingest("b", records[1].signal[: int(0.1 * record.fs)])
        assert all(e.peak < record.n_samples for e in a_events)
        assert b_events == []
        a_events += gateway.close_session("a")
        peaks = [e.peak for e in a_events]
        assert peaks == sorted(peaks) and len(peaks) > 10


class TestGatewaySessions:
    def test_lifecycle_and_validation(self, records, embedded_classifier):
        fs = records[0].fs
        with pytest.raises(ValueError, match="max_batch"):
            StreamGateway(embedded_classifier, fs, max_batch=0)
        with pytest.raises(ValueError, match="max_latency_ticks"):
            StreamGateway(embedded_classifier, fs, max_latency_ticks=0)
        gateway = StreamGateway(embedded_classifier, fs, n_leads=N_LEADS)
        gateway.open_session("x")
        with pytest.raises(ValueError, match="already open"):
            gateway.open_session("x")
        with pytest.raises(KeyError):
            gateway.ingest("ghost", np.zeros((10, N_LEADS)))
        with pytest.raises(KeyError):
            gateway.close_session("ghost")
        assert gateway.n_sessions == 1 and gateway.session_ids() == ["x"]
        gateway.close_session("x")
        assert gateway.n_sessions == 0

    def test_export_import_migrates_mid_stream(
        self, records, embedded_classifier, reference_events
    ):
        """A session exported from one gateway and imported (through
        pickle) into another continues bit-exactly."""
        record = records[0]
        fs = record.fs
        block = int(0.4 * fs)
        source = StreamGateway(embedded_classifier, fs, n_leads=N_LEADS, max_batch=8)
        target = StreamGateway(embedded_classifier, fs, n_leads=N_LEADS, max_batch=8)
        source.open_session("p")
        events, i = [], 0
        while i < record.n_samples // 2:
            events += source.ingest("p", record.signal[i : i + block])
            i += block
        export = pickle.loads(pickle.dumps(source.release_session("p")))
        assert source.session_ids() == []  # released, its events in the export
        target.import_session(export)
        events += target.poll("p")
        while i < record.n_samples:
            events += target.ingest("p", record.signal[i : i + block])
            i += block
        events += target.close_session("p")
        assert_events_equal(reference_events[0], events)

    def test_import_rejects_open_id(self, records, embedded_classifier):
        gateway = StreamGateway(embedded_classifier, records[0].fs, n_leads=N_LEADS)
        gateway.open_session("p")
        export = gateway.release_session("p")
        gateway.import_session(export)
        with pytest.raises(ValueError, match="already open"):
            gateway.import_session(export)
