"""Loopback tests for the socket serving path.

The off-box tier inherits the gateway's single contract — per-session
event sequences bit-exact with a standalone inline-mode
``StreamingNode`` — and must uphold it through framing, pipelining,
flush-coalesced bursts and multiplexed connections.  These tests drive
a real :class:`GatewayServer` over loopback TCP with the pipelined
:class:`GatewayClient` and compare against the standalone reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import StreamGateway, replay_fleet, serve_round_robin, synthesize_fleet
from repro.serving.net import GatewayClient, GatewayServer, serve_in_thread
from repro.serving.net.client import RemoteError

FS = 360.0
CHUNK = 128


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(3, 10.0, fs=FS, seed=21)


@pytest.fixture()
def server(embedded_classifier):
    gateway = StreamGateway(
        embedded_classifier, FS, n_leads=1, max_batch=16, max_latency_ticks=8
    )
    handle = serve_in_thread(gateway)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with GatewayClient(server.host, server.port, window=4) as c:
        yield c


def stream_session(client, session_id, signal, chunk=CHUNK):
    client.open_session(session_id)
    events = []
    for start in range(0, len(signal), chunk):
        events.extend(client.ingest(session_id, signal[start : start + chunk]))
    events.extend(client.close_session(session_id))
    return events


class TestBitExactness:
    def test_single_session_matches_standalone(
        self, client, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        streams, _ = fleet
        signal = streams["loadgen-0"]
        events = stream_session(client, "loadgen-0", signal)
        reference = standalone_events(embedded_classifier, signal, FS, 1)
        assert len(events) > 0
        assert_events_equal(reference, events)

    def test_multiplexed_sessions_each_match_standalone(
        self, client, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        streams, _ = fleet
        for session_id in streams:
            client.open_session(session_id)
        events = {sid: [] for sid in streams}
        longest = max(len(x) for x in streams.values())
        for start in range(0, longest, CHUNK):
            for session_id, signal in streams.items():
                piece = signal[start : start + CHUNK]
                if len(piece):
                    events[session_id].extend(client.ingest(session_id, piece))
        for session_id in streams:
            events[session_id].extend(client.close_session(session_id))
        for session_id, signal in streams.items():
            reference = standalone_events(embedded_classifier, signal, FS, 1)
            assert_events_equal(reference, events[session_id])

    def test_two_connections_one_session_each(
        self, server, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        streams, _ = fleet
        with GatewayClient(server.host, server.port, window=4) as first, \
                GatewayClient(server.host, server.port, window=4) as second:
            clients = {"loadgen-0": first, "loadgen-1": second}
            for sid, c in clients.items():
                c.open_session(sid)
            events = {sid: [] for sid in clients}
            longest = max(len(streams[sid]) for sid in clients)
            for start in range(0, longest, CHUNK):
                for sid, c in clients.items():
                    piece = streams[sid][start : start + CHUNK]
                    if len(piece):
                        events[sid].extend(c.ingest(sid, piece))
            for sid, c in clients.items():
                events[sid].extend(c.close_session(sid))
        assert server.server.n_connections == 2
        for sid in clients:
            reference = standalone_events(embedded_classifier, streams[sid], FS, 1)
            assert_events_equal(reference, events[sid])


class TestDriversRunUnchanged:
    def test_serve_round_robin_through_the_client(
        self, server, client, fleet, embedded_classifier, assert_events_equal
    ):
        """The canonical in-process driver works against the socket."""
        streams, _ = fleet
        remote = serve_round_robin(client, streams, CHUNK)
        local_gateway = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=16, max_latency_ticks=8
        )
        local = serve_round_robin(local_gateway, streams, CHUNK)
        for session_id in streams:
            assert_events_equal(local[session_id], remote[session_id])

    def test_replay_fleet_through_the_client(
        self, client, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        """The loadgen's pluggable target contract covers the TCP path."""
        streams, _ = fleet
        report = replay_fleet(client, streams, fs=FS, chunk=CHUNK)
        assert report.n_events > 0
        assert np.isfinite(report.p50_ms) and np.isfinite(report.p99_ms)
        for session_id, signal in streams.items():
            reference = standalone_events(embedded_classifier, signal, FS, 1)
            assert_events_equal(reference, report.events[session_id])


class TestSessionSurface:
    def test_poll_synchronizes_and_drains(self, client, fleet):
        streams, _ = fleet
        signal = streams["loadgen-0"]
        client.open_session("s")
        collected = []
        for start in range(0, len(signal) // 2, CHUNK):
            collected.extend(client.ingest("s", signal[start : start + CHUNK]))
        collected.extend(client.poll("s"))
        # After a poll every sent chunk is acked: replay buffer empty.
        assert len(client._sessions["s"].pending) == 0
        collected.extend(client.close_session("s"))
        assert len(collected) > 0

    def test_qos_passthrough(self, client, fleet):
        """Per-session QoS rides the OPEN frame to the gateway."""
        streams, _ = fleet
        signal = streams["loadgen-0"]
        client.open_session("eager", max_latency_ticks=1, evict_after_ticks=500)
        events = []
        for start in range(0, len(signal), CHUNK):
            events.extend(client.ingest("eager", signal[start : start + CHUNK]))
        events.extend(client.close_session("eager"))
        assert len(events) > 0

    def test_duplicate_open_is_a_remote_error(self, server, client):
        client.open_session("dup")
        with GatewayClient(server.host, server.port) as other:
            with pytest.raises(RemoteError):
                other.open_session("dup")

    def test_close_unknown_session_raises_locally(self, client):
        with pytest.raises(KeyError):
            client.close_session("never-opened")

    def test_sessions_reopenable_after_close(self, client, fleet):
        streams, _ = fleet
        signal = streams["loadgen-0"][: 4 * CHUNK]
        for _ in range(2):
            client.open_session("again")
            for start in range(0, len(signal), CHUNK):
                client.ingest("again", signal[start : start + CHUNK])
            client.close_session("again")

    def test_effective_max_frame_is_negotiated_minimum(self, server):
        with GatewayClient(server.host, server.port, max_frame=1 << 15) as c:
            assert c._send_max_frame == 1 << 15


class TestEveryIngestAcked:
    def test_quiet_chunks_never_stall_the_window(
        self, embedded_classifier, fleet, monkeypatch,
        standalone_events, assert_events_equal,
    ):
        """Every accepted INGEST is acknowledged, with an empty EVENTS
        frame when it resolved nothing.  A window-4 client streaming a
        record's opening chunks — more than three windows of them
        resolve no events — never needs a POLL barrier, and its events
        are the standalone node's."""
        polls = []
        on_poll = GatewayServer._on_poll

        async def counting(self, conn, message):
            polls.append(message.session_id)
            await on_poll(self, conn, message)

        monkeypatch.setattr(GatewayServer, "_on_poll", counting)
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=16, max_latency_ticks=8
        )
        handle = serve_in_thread(gateway)
        window, chunk = 4, 30
        signal = fleet[0]["loadgen-1"]
        try:
            with GatewayClient(handle.host, handle.port, window=window) as client:
                client.open_session("quiet")
                events = []
                for start in range(0, len(signal), chunk):
                    returned = client.ingest("quiet", signal[start : start + chunk])
                    if start < 3 * window * chunk:
                        assert returned == []
                    events.extend(returned)
                events.extend(client.close_session("quiet"))
        finally:
            handle.stop()
        assert polls == []
        assert_events_equal(standalone_events(embedded_classifier, signal, FS, 1), events)


class TestWrongShapeChunks:
    def test_wrong_shape_chunk_rejected_before_sequencing(
        self, client, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        """The client knows the session's lead count from ``OPEN_OK``, so
        a chunk of the wrong shape raises before it takes a sequence
        number, and the session keeps serving bit-exactly."""
        streams, _ = fleet
        signal = streams["loadgen-0"]
        client.open_session("q")
        events = client.ingest("q", signal[:CHUNK])
        with pytest.raises(ValueError, match=r"blocks must be \(n,\) or \(n, 1\)"):
            client.ingest("q", np.zeros((90, 2)))
        assert client._sessions["q"].seq_next == 1
        for start in range(CHUNK, len(signal), CHUNK):
            events.extend(client.ingest("q", signal[start : start + CHUNK]))
        events.extend(client.close_session("q"))
        assert_events_equal(
            standalone_events(embedded_classifier, signal, FS, 1), events
        )


class TestNodelay:
    def test_nodelay_set_on_both_ends_of_the_connection(self, server):
        """Nagle stays off on both sockets: the protocol's small framed
        bursts (acks, polls, flush harvests) must not sit in kernel
        buffers waiting for a coalescing timer."""
        import socket as socketlib

        with GatewayClient(server.host, server.port, window=4) as c:
            c.connect()
            assert (
                c._sock.getsockopt(
                    socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY
                )
                != 0
            )
            # The server records a readback of the option on every
            # accepted socket; connect() completes the HELLO handshake,
            # so the accept has already happened.
            assert server.server.last_accept_nodelay is True


class TestCoalescedDelivery:
    def test_flush_burst_reaches_sessions_between_their_ingests(
        self, embedded_classifier
    ):
        """A flush triggered by one session's ingest pushes every other
        session's resolved events to their connection without waiting
        for those sessions' next calls (the harvest burst)."""
        import time

        from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

        record = RecordSynthesizer(
            SynthesisConfig(n_leads=1), seed=61
        ).synthesize(20.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="x")
        gateway = StreamGateway(
            embedded_classifier, record.fs, n_leads=1,
            max_batch=10_000, max_latency_ticks=3,
        )
        handle = serve_in_thread(gateway)
        try:
            with GatewayClient(handle.host, handle.port, window=8) as c:
                for sid in ("a", "b"):
                    c.open_session(sid)
                # One big ingest queues all of "a"'s beats without
                # flushing (size bound unreachable, first tick).
                queued = c.ingest("a", record.signal)
                c.poll("a")
                # "a" now goes silent; "b"'s quiet ingests tick the
                # latency bound and trigger the flush that classifies
                # "a"'s beats.
                for _ in range(4):
                    c.ingest("b", np.zeros(8))
                # The harvest burst lands on "a"'s buffer with no
                # further "a" traffic — only passive pumping.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    c._pump()
                    if c._sessions["a"].buffered:
                        break
                    time.sleep(0.01)
                assert len(queued) + len(c._sessions["a"].buffered) > 0
                assert len(c._sessions["a"].buffered) > 0
                c.close_session("a")
                c.close_session("b")
        finally:
            handle.stop()
