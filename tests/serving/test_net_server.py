"""Loopback tests for the socket serving path.

The off-box tier inherits the gateway's single contract — per-session
event sequences bit-exact with a standalone inline-mode
``StreamingNode`` — and must uphold it through framing, pipelining,
flush-coalesced bursts and multiplexed connections.  These tests drive
a real :class:`GatewayServer` over loopback TCP with the pipelined
:class:`GatewayClient` and compare against the standalone reference.
"""

from __future__ import annotations

import logging
import socket

import numpy as np
import pytest

from repro.serving import (
    ShardedGateway,
    StreamGateway,
    default_pipeline,
    replay_fleet,
    serve_round_robin,
    synthesize_fleet,
)
from repro.serving.net import GatewayClient, GatewayServer, serve_in_thread
from repro.serving.net import protocol as wire
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
        section when it resolved nothing.  A window-4 client streaming a
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


class RawLink:
    """A hand-driven connection that counts the server's reply frames."""

    def __init__(self, address, max_frame: int = wire.DEFAULT_MAX_FRAME):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.decoder = wire.FrameDecoder(max_frame)
        self.ready: list = []
        self.sock.sendall(wire.pack_frame(wire.encode_hello(max_frame)))
        assert isinstance(self.next_message(), wire.HelloOk)

    def next_message(self):
        while not self.ready:
            data = self.sock.recv(1 << 16)
            assert data, "the server closed the connection"
            self.ready = [wire.decode(p) for p in self.decoder.feed(data)]
        return self.ready.pop(0)

    def open(self, *session_ids) -> None:
        for sid in session_ids:
            self.sock.sendall(wire.pack_frame(wire.encode_open(sid)))
            assert isinstance(self.next_message(), wire.OpenOk)

    def round_replies(self, ingests, fence: str) -> list:
        """Write the ``(sid, seq, chunk)`` INGEST frames in one
        ``sendall`` (one socket read, one round), then ``POLL`` ``fence``:
        the server answers in order, so every frame before the ``SYNC``
        reply is the round's."""
        self.sock.sendall(b"".join(
            wire.pack_frame(wire.encode_ingest(sid, seq, 0, chunk))
            for sid, seq, chunk in ingests
        ))
        self.sock.sendall(wire.pack_frame(wire.encode_poll(fence, 0)))
        replies = []
        while True:
            message = self.next_message()
            if isinstance(message, list) and any(s.sync for s in message):
                assert [s.session_id for s in message] == [fence]
                return replies
            replies.append(message)

    def close(self) -> None:
        self.sock.close()


class TestOneFramePerRound:
    """The wire-frames-per-round gate: an applied round is acknowledged
    by one ``EVENTS`` frame with a section per chunk.  The count does
    not depend on host speed."""

    def test_k_ingests_in_one_write_get_one_frame_of_k_sections(self, server):
        sids = [f"round-{i}" for i in range(5)]
        quiet = np.zeros(CHUNK)  # resolves nothing: no flush harvest
        link = RawLink(server.address)
        try:
            link.open(*sids)
            replies = link.round_replies([(sid, 0, quiet) for sid in sids], sids[0])
            assert len(replies) == 1
            (frame,) = replies
            assert isinstance(frame, list)
            assert [s.session_id for s in frame] == sids
            assert [(s.acked_seq, s.base_index, s.flags) for s in frame] == [
                (1, 0, 0)
            ] * len(sids)
            assert all(s.events == [] for s in frame)

            # A duplicate retransmit is acked again, a gap is refused
            # with an asynchronous ERROR in the same burst.
            duplicate, advance, gap, other = sids[:4]
            replies = link.round_replies(
                [(duplicate, 0, quiet), (advance, 1, quiet), (gap, 3, quiet),
                 (other, 1, quiet)],
                sids[4],
            )
            assert len(replies) == 2
            frame, error = replies
            assert {s.session_id: s.acked_seq for s in frame} == {
                duplicate: 1, advance: 2, other: 2,
            }
            assert isinstance(error, wire.Error)
            assert (error.session_id, error.sync) == (gap, False)
            assert "ingest gap" in error.message
        finally:
            link.close()

    @pytest.mark.parametrize("server_bound", [True, False], ids=["server", "client"])
    def test_a_round_past_max_frame_splits_into_bounded_frames(
        self, embedded_classifier, server_bound
    ):
        """A round whose sections would not fit one ``max_frame`` — the
        server's, or the smaller one the client sent in its ``HELLO`` —
        goes out as several frames, each within the bound, every chunk
        acknowledged once."""
        max_frame = 512
        gateway = StreamGateway(embedded_classifier, FS, n_leads=1)
        if server_bound:
            handle = serve_in_thread(gateway, max_frame=max_frame)
        else:
            handle = serve_in_thread(gateway)
        sids = [f"split-{i:02d}" for i in range(40)]
        link = RawLink(handle.address, max_frame=max_frame)
        try:
            link.open(*sids)
            replies = link.round_replies(
                [(sid, 0, np.zeros(8)) for sid in sids], sids[0]
            )
        finally:
            link.close()
            handle.stop()
        assert len(replies) > 1
        assert all(len(wire.encode_events(frame)) <= max_frame for frame in replies)
        assert [s.session_id for frame in replies for s in frame] == sids
        assert {s.acked_seq for frame in replies for s in frame} == {1}


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


class TestGatewayEviction:
    def test_idle_eviction_keeps_the_connection_and_other_sessions(
        self, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """A session the gateway evicts for idleness leaves the server's
        session map, so the flush harvest never polls it: the connection
        stays up, the other session on it stays bit-exact, and a later
        frame for the evicted id gets the error a closed id gets."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=4, max_latency_ticks=4
        )
        handle = serve_in_thread(gateway)
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                client.open_session("b", evict_after_ticks=3)
                client.ingest("b", signal[:90])
                events = []
                for start in range(0, 60 * 90, 90):
                    events.extend(client.ingest("a", signal[start : start + 90]))
                events.extend(client.close_session("a"))
                assert client.n_reconnects == 0
                assert "b" not in handle.server._sessions
                with pytest.raises(RemoteError, match="no open session 'b'"):
                    client.poll("b")
        finally:
            handle.stop()
        assert handle.server.n_connections == 1
        assert gateway.n_evicted == 1
        assert gateway.take_evicted() == {}
        reference = standalone_events(embedded_classifier, signal[: 60 * 90], FS, 1)
        assert_events_equal(reference, events)

    @staticmethod
    def _evicting_gateway(classifier):
        return StreamGateway(
            classifier, FS, n_leads=1, max_batch=4, max_latency_ticks=4
        )

    def test_a_frame_for_an_evicted_id_is_refused_like_a_closed_one(
        self, embedded_classifier,
    ):
        """An ingest for an id the gateway evicted is not sequenced: it
        gets the asynchronous error of an id never opened, the client
        raises it on the session's next call, and the connection and
        the other session carry on."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        handle = serve_in_thread(self._evicting_gateway(embedded_classifier))
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                client.open_session("b", evict_after_ticks=3)
                client.ingest("b", signal[:90])
                for start in range(0, 10 * 90, 90):
                    client.ingest("a", signal[start : start + 90])
                client.poll("a")
                assert "b" not in handle.server._sessions
                client.ingest("b", signal[90:180])
                client.poll("a")  # the refusal has arrived
                with pytest.raises(RemoteError, match="no open session 'b'"):
                    client.poll("b")
                client.ingest("a", signal[10 * 90 : 11 * 90])
                client.close_session("a")
                assert client.n_reconnects == 0
        finally:
            handle.stop()
        assert handle.server.n_connections == 1

    def test_an_evicted_id_can_be_opened_again(
        self, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """Eviction frees the id on the server: once the client drops
        its own state for it, the id opens again and serves bit-exact."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        gateway = self._evicting_gateway(embedded_classifier)
        handle = serve_in_thread(gateway)
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                client.open_session("b", evict_after_ticks=3)
                client.ingest("b", signal[:90])
                for start in range(0, 10 * 90, 90):
                    client.ingest("a", signal[start : start + 90])
                client.poll("a")
                client.discard_session("b")
                client.open_session("b")
                events = []
                for start in range(0, len(signal), 90):
                    events.extend(client.ingest("b", signal[start : start + 90]))
                events.extend(client.close_session("b"))
                client.close_session("a")
                assert client.n_reconnects == 0
        finally:
            handle.stop()
        assert gateway.n_evicted == 1
        assert_events_equal(
            standalone_events(embedded_classifier, signal, FS, 1), events
        )

    def test_eviction_spares_the_other_connections(
        self, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """The evicted session's connection stays up and keeps serving;
        a second connection that streams the ticks never notices."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        handle = serve_in_thread(self._evicting_gateway(embedded_classifier))
        try:
            with GatewayClient(handle.host, handle.port, window=4) as idle, \
                    GatewayClient(handle.host, handle.port, window=4) as busy:
                idle.open_session("b", evict_after_ticks=3)
                idle.ingest("b", signal[:90])
                busy.open_session("a")
                events = []
                for start in range(0, 60 * 90, 90):
                    events.extend(busy.ingest("a", signal[start : start + 90]))
                events.extend(busy.close_session("a"))
                assert set(handle.server._sessions) == set()
                with pytest.raises(RemoteError, match="no open session 'b'"):
                    idle.poll("b")
                idle.open_session("c")
                idle.ingest("c", signal[:90])
                idle.close_session("c")
                assert idle.n_reconnects == busy.n_reconnects == 0
        finally:
            handle.stop()
        assert handle.server.n_connections == 2
        assert_events_equal(
            standalone_events(embedded_classifier, signal[: 60 * 90], FS, 1), events
        )

    def test_every_eviction_leaves_the_server_and_the_gateway_store(
        self, embedded_classifier,
    ):
        """Sessions evicted at different times each leave the session
        map and the gateway's evicted store: nothing accumulates behind
        a long-running server."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        gateway = self._evicting_gateway(embedded_classifier)
        handle = serve_in_thread(gateway)
        idle = [f"idle-{i}" for i in range(4)]
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                for i, sid in enumerate(idle):
                    client.open_session(sid, evict_after_ticks=2 + 3 * i)
                    client.ingest(sid, signal[:90])
                for start in range(0, 30 * 90, 90):
                    client.ingest("a", signal[start : start + 90])
                client.poll("a")
                assert set(handle.server._sessions) == {"a"}
                assert handle.server._sessions["a"].owner is not None
                client.close_session("a")
                assert client.n_reconnects == 0
        finally:
            handle.stop()
        assert gateway.n_evicted == len(idle)
        assert gateway.take_evicted() == {}

    def test_a_refused_resume_spares_the_other_sessions(
        self, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """A session the gateway evicted is refused on the reconnect's
        ``RESUME``: the client drops it and resumes the others, which
        stay bit-exact; the dropped id then fails like a closed one."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        handle = serve_in_thread(self._evicting_gateway(embedded_classifier))
        events = {"a": [], "c": []}
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                client.open_session("b", evict_after_ticks=3)
                client.open_session("c")
                client.ingest("b", signal[:90])
                for start in range(0, 20 * 90, 90):
                    if start == 10 * 90:
                        for sid in events:
                            events[sid].extend(client.poll(sid))
                        assert "b" not in handle.server._sessions
                        client._sock.close()  # the link drops
                    for sid in events:
                        events[sid].extend(
                            client.ingest(sid, signal[start : start + 90])
                        )
                for sid in events:
                    events[sid].extend(client.close_session(sid))
                assert client.n_reconnects == 1
                with pytest.raises(KeyError, match="no open session 'b'"):
                    client.poll("b")
        finally:
            handle.stop()
        reference = standalone_events(embedded_classifier, signal[: 20 * 90], FS, 1)
        for sid in events:
            assert_events_equal(reference, events[sid])

    def test_idle_eviction_reaches_a_parked_session(
        self, embedded_classifier, wait_parked,
    ):
        """A parked session with an idle threshold is evicted like any
        other: it leaves the server's session map and the gateway's
        evicted store, and a later resume of it is refused."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        gateway = self._evicting_gateway(embedded_classifier)
        handle = serve_in_thread(gateway)
        try:
            gone = GatewayClient(handle.host, handle.port, window=4).connect()
            gone.open_session("b", evict_after_ticks=3)
            gone.ingest("b", signal[:90])
            gone.poll("b")
            gone.close()
            wait_parked(handle.server, "b")
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("a")
                for start in range(0, 10 * 90, 90):
                    client.ingest("a", signal[start : start + 90])
                client.poll("a")
                assert set(handle.server._sessions) == {"a"}
                with pytest.raises(RemoteError, match="session 'b' to resume"):
                    client.resume_session("b")
                client.close_session("a")
        finally:
            handle.stop()
        assert gateway.n_evicted == 1
        assert gateway.take_evicted() == {}

    def test_eviction_behind_a_sharded_pool_leaves_the_server(
        self, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """A pool's eviction notices ride its workers' responses; the
        server still learns of each one and stops tracking the id."""
        signal = synthesize_fleet(1, 15.0, fs=FS, seed=22)[0]["loadgen-0"]
        with ShardedGateway(
            embedded_classifier, FS, workers=1, n_leads=1, max_batch=4,
            max_latency_ticks=4,
        ) as gateway:
            handle = serve_in_thread(gateway)
            try:
                with GatewayClient(handle.host, handle.port, window=4) as client:
                    client.open_session("a")
                    client.open_session("b", evict_after_ticks=3)
                    client.ingest("b", signal[:90])
                    events = []
                    for start in range(0, 60 * 90, 90):
                        events.extend(client.ingest("a", signal[start : start + 90]))
                    events.extend(client.poll("a"))
                    events.extend(client.ingest("a", signal[60 * 90 : 61 * 90]))
                    assert "b" not in handle.server._sessions
                    with pytest.raises(RemoteError, match="no open session 'b'"):
                        client.poll("b")
                    events.extend(client.close_session("a"))
                    assert client.n_reconnects == 0
            finally:
                handle.stop()
            assert gateway.stats()["n_evicted"] == 1
            assert gateway.take_evicted() == {}
        assert handle.server.n_connections == 1
        assert_events_equal(
            standalone_events(embedded_classifier, signal[: 61 * 90], FS, 1), events
        )


class TestOneDrainPerRound:
    def test_a_served_round_drains_the_worker_pipes_once(
        self, embedded_classifier, fleet, standalone_events, assert_events_equal,
    ):
        """A served round is one ``ingest_round`` plus the server's
        ``take_evicted`` / ``take_alerts`` / ``take_summaries``; the
        takes share the round's own pipe drain, so a sharded pool polls
        its worker pipes at most once per round (it used to be four
        times: the round's drain and one per take)."""
        streams, _ = fleet
        with ShardedGateway(embedded_classifier, FS, workers=2, n_leads=1) as gateway:
            counts = {"rounds": 0, "drains": 0}
            ingest_round, drain = gateway.ingest_round, gateway._drain

            def counted_round(items):
                counts["rounds"] += 1
                return ingest_round(items)

            def counted_drain():
                counts["drains"] += 1
                drain()

            gateway.ingest_round, gateway._drain = counted_round, counted_drain
            handle = serve_in_thread(gateway)
            events = {sid: [] for sid in streams}
            try:
                with GatewayClient(handle.host, handle.port, window=4) as client:
                    for sid in streams:
                        client.open_session(sid)
                    n = min(len(signal) for signal in streams.values())
                    for start in range(0, n, 90):
                        for sid, signal in streams.items():
                            events[sid] += client.ingest(sid, signal[start : start + 90])
                    for sid in streams:  # a fence: every round has been served
                        events[sid] += client.poll(sid)
                    rounds, drains = counts["rounds"], counts["drains"]
                    for sid in streams:
                        events[sid] += client.close_session(sid)
            finally:
                handle.stop()
            assert gateway.take_evicted() == {}
        assert rounds >= n // 90
        assert drains <= rounds
        for sid, signal in streams.items():
            assert_events_equal(
                standalone_events(embedded_classifier, signal[:n], FS, 1), events[sid]
            )


class TestParkedSessions:
    """A dead connection's sessions stay open in the gateway, with no
    owner, until a ``RESUME`` adopts them."""

    def test_a_parked_session_stays_open_in_its_gateway(
        self, server, fleet, embedded_classifier, standalone_events,
        assert_events_equal, wait_parked,
    ):
        """It counts in the gateway's sessions, its id cannot be opened
        again, and a resume on another connection continues it
        bit-exactly."""
        signal = fleet[0]["loadgen-0"]
        half = len(signal) // 2 // CHUNK * CHUNK
        gone = GatewayClient(server.host, server.port, window=4).connect()
        gone.open_session("p")
        received = []
        for start in range(0, half, CHUNK):
            received.extend(gone.ingest("p", signal[start : start + CHUNK]))
        received.extend(gone.poll("p"))
        gone.close()
        wait_parked(server.server, "p")
        assert server.server.gateway.stats()["n_sessions"] == 1
        with GatewayClient(server.host, server.port, window=4) as client:
            with pytest.raises(RemoteError, match="'p' is already open"):
                client.open_session("p")
            client.resume_session("p", events_received=len(received))
            for start in range(half, len(signal), CHUNK):
                received.extend(client.ingest("p", signal[start : start + CHUNK]))
            received.extend(client.close_session("p"))
        assert server.server.gateway.stats()["n_sessions"] == 0
        assert_events_equal(
            standalone_events(embedded_classifier, signal, FS, 1), received
        )

    def test_stopping_the_server_parks_a_connected_client_quietly(
        self, embedded_classifier, fleet, caplog,
    ):
        """Stopping a server with a client still connected ends each
        connection through its normal park path: asyncio logs no
        error, and the client's session is parked, not lost."""
        signal = fleet[0]["loadgen-0"]
        gateway = StreamGateway(embedded_classifier, FS, n_leads=1)
        handle = serve_in_thread(gateway)
        client = GatewayClient(handle.host, handle.port, window=4).connect()
        try:
            client.open_session("p")
            client.ingest("p", signal[:CHUNK])
            client.poll("p")
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                handle.stop()
            assert [r for r in caplog.records if r.name == "asyncio"] == []
            assert handle.server._sessions["p"].owner is None
            assert gateway.session_ids() == ["p"]
        finally:
            client.close()


class TestBoundedAnalyticsState:
    def test_closed_sessions_leave_no_summary_or_alert_behind(
        self, embedded_classifier, fleet,
    ):
        """The wire carries no summaries or alerts, so the server drops
        them every round: after many open/ingest/close cycles the
        gateway holds none, while the ``STATS`` rollup still counts
        every session and alert."""
        signal = fleet[0]["loadgen-0"]
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=16,
            analytics=default_pipeline,
        )
        handle = serve_in_thread(gateway)
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                client.open_session("keeper")
                for cycle in range(20):
                    sid = f"cycle-{cycle}"
                    client.open_session(sid)
                    for start in range(0, len(signal), 4 * CHUNK):
                        client.ingest(sid, signal[start : start + 4 * CHUNK])
                    client.close_session(sid)
                # One more round drains the last cycle's summary.
                client.ingest("keeper", signal[:CHUNK])
                client.poll("keeper")
                rollup = client.stats()["analytics"]
        finally:
            handle.stop()
        assert rollup["sessions"] == 21
        assert rollup["alerts"] > 0
        assert gateway.take_summaries() == {}
        assert gateway.take_alerts() == []

    def test_a_close_with_no_later_round_leaves_nothing_behind(
        self, embedded_classifier,
    ):
        """The server also drains the gateway after each close, so
        sessions that open and close with no ingest round after them
        leave no summary behind; ``STATS`` still counts every one."""
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=16,
            analytics=default_pipeline,
        )
        handle = serve_in_thread(gateway)
        try:
            with GatewayClient(handle.host, handle.port, window=4) as client:
                for cycle in range(20):
                    sid = f"cycle-{cycle}"
                    client.open_session(sid)
                    client.close_session(sid)
                rollup = client.stats()["analytics"]
        finally:
            handle.stop()
        assert rollup["sessions"] == 20
        assert gateway.take_summaries() == {}
        assert gateway.take_alerts() == []
        assert gateway.take_evicted() == {}
