"""Protocol chaos suite: malformed frames, slow readers, killed links.

The socket tier's contract under adversity: a malformed or hostile
peer can only lose its *own* connection (the server survives and other
clients are untouched), a slow reader is backpressured rather than
buffered unboundedly, and a mid-stream disconnect is invisible in the
per-session event sequence — the reconnect-resume handshake restores
it bit-exactly against a standalone ``StreamingNode``, on exactly the
samples that were ingested.

Seeded chaos tests use the shared ``chaos_seeds`` parametrization
(``REPRO_CHAOS_SEED=<seed>`` replays a CI failure locally).
"""

from __future__ import annotations

import select
import socket
import time

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import StreamGateway
from repro.serving.net import GatewayClient, serve_in_thread
from repro.serving.net import protocol as wire
from repro.serving.net.client import RemoteError

CHUNK = 256


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=71).synthesize(
        20.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="chaos"
    )


@pytest.fixture()
def harness(embedded_classifier, record):
    gateway = StreamGateway(
        embedded_classifier, record.fs, n_leads=1, max_batch=16,
        max_latency_ticks=4,
    )
    handle = serve_in_thread(gateway)
    yield handle
    handle.stop()


class RawPeer:
    """A hand-driven protocol peer for sending hostile byte sequences."""

    def __init__(self, address, handshake: bool = True):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.decoder = wire.FrameDecoder()
        self.inbox: list = []
        if handshake:
            self.send(wire.encode_hello())
            hello_ok = self.wait_for(wire.HelloOk)
            assert isinstance(hello_ok, wire.HelloOk)

    def send(self, payload: bytes) -> None:
        self.sock.sendall(wire.pack_frame(payload))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def pump(self, timeout: float = 0.05) -> None:
        readable, _, _ = select.select([self.sock], [], [], timeout)
        if readable:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("server closed the connection")
            for payload in self.decoder.feed(data):
                message = wire.decode(payload)
                if isinstance(message, list):  # an EVENTS frame's sections
                    self.inbox.extend(message)
                else:
                    self.inbox.append(message)

    def wait_for(self, kind, timeout: float = 5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for i, message in enumerate(self.inbox):
                if isinstance(message, kind):
                    return self.inbox.pop(i)
            self.pump()
        raise AssertionError(f"no {kind.__name__} frame within {timeout} s")

    def close(self) -> None:
        self.sock.close()


def collect_events(inbox_events):
    out = []
    for message in inbox_events:
        out.extend(message.events)
    return out


class TestMalformedPeers:
    def assert_server_still_serves(self, harness, record, embedded_classifier,
                                   standalone_events, assert_events_equal,
                                   session_id="after-chaos"):
        """A fresh well-behaved client gets full service, bit-exactly."""
        signal = record.signal[: 8 * CHUNK]
        with GatewayClient(harness.host, harness.port, window=4) as client:
            client.open_session(session_id)
            events = []
            for start in range(0, len(signal), CHUNK):
                events.extend(client.ingest(session_id, signal[start:start + CHUNK]))
            events.extend(client.close_session(session_id))
        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        assert_events_equal(reference, events)

    def test_truncated_frame_kills_only_that_connection(
        self, harness, record, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        peer = RawPeer(harness.address)
        # Header promises 100 bytes; deliver 10 and vanish.
        peer.send_raw((100).to_bytes(4, "little") + b"\x12" * 10)
        peer.close()
        self.assert_server_still_serves(
            harness, record, embedded_classifier,
            standalone_events, assert_events_equal,
        )

    def test_oversized_frame_rejected_without_allocation(
        self, harness, record, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        peer = RawPeer(harness.address)
        # A hostile length prefix far beyond max_frame: the server must
        # drop the connection before buffering any such body.
        peer.send_raw((1 << 31).to_bytes(4, "little"))
        deadline = time.monotonic() + 5.0
        dropped = False
        while time.monotonic() < deadline and not dropped:
            try:
                peer.pump()
            except ConnectionError:
                dropped = True
        assert dropped
        self.assert_server_still_serves(
            harness, record, embedded_classifier,
            standalone_events, assert_events_equal,
        )

    def test_garbage_opcode_drops_the_connection(
        self, harness, record, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        peer = RawPeer(harness.address)
        peer.send(b"\x7f\xde\xad\xbe\xef")
        peer.close()
        self.assert_server_still_serves(
            harness, record, embedded_classifier,
            standalone_events, assert_events_equal,
        )

    def test_non_hello_first_frame_is_refused(self, harness):
        peer = RawPeer(harness.address, handshake=False)
        peer.send(wire.encode_poll("s", 0))
        error = peer.wait_for(wire.Error)
        assert "HELLO" in error.message
        peer.close()

    def test_ingest_for_unknown_session_reports_async_error(self, harness):
        peer = RawPeer(harness.address)
        peer.send(wire.encode_ingest("ghost", 0, 0, np.zeros(8)))
        error = peer.wait_for(wire.Error)
        assert not error.sync and "ghost" in error.message
        peer.close()

    def test_non_finite_chunk_is_rejected_and_resume_stays_bit_exact(
        self, harness, record, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        """A NaN chunk never advances the session's chunk sequence.  The
        client refuses it before sequencing it; a peer that sends it
        anyway gets an ERROR frame.  Either way the same client keeps
        ingesting, a successor resumes where it left off, and the event
        stream is the standalone node's on the clean samples."""
        signal = record.signal
        chunks = [signal[s:s + CHUNK] for s in range(0, len(signal), CHUNK)]
        bad_at, resume_at = 10, 15
        first = GatewayClient(harness.host, harness.port, window=4).connect()
        first.open_session("nan")
        before = []
        for piece in chunks[:bad_at]:
            before.extend(first.ingest("nan", piece))
        before.extend(first.poll("nan"))
        poisoned = chunks[bad_at].copy()
        poisoned[5] = np.nan
        sess = first._sessions["nan"]
        with pytest.raises(ValueError, match="finite"):
            first.ingest("nan", poisoned)
        assert sess.seq_next == bad_at
        # Skip the client check: the server answers with an ERROR frame.
        first._send_payload(
            wire.encode_ingest("nan", bad_at, sess.events_received, poisoned)
        )
        with pytest.raises(RemoteError, match="finite"):
            first.poll("nan")
        for piece in chunks[bad_at:resume_at]:
            before.extend(first.ingest("nan", piece))
        before.extend(first.poll("nan"))
        first._sock.close()  # the producer abandons the link

        second = GatewayClient(
            harness.host, harness.port, window=4, backoff_base=0.01
        ).connect()
        second.resume_session("nan", events_received=len(before))
        assert second._sessions["nan"].seq_next == resume_at
        after = []
        for piece in chunks[resume_at:]:
            after.extend(second.ingest("nan", piece))
        after.extend(second.close_session("nan"))
        second.close()
        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        assert_events_equal(reference, before + after)


class TestSlowReaderBackpressure:
    def test_unread_events_are_bounded_then_delivered(
        self, embedded_classifier, record, standalone_events, assert_events_equal
    ):
        """A reader that stops reading stalls the pipeline instead of
        ballooning server memory; when it finally drains, every event
        arrives intact and in order."""
        gateway = StreamGateway(
            embedded_classifier, record.fs, n_leads=1, max_batch=4,
            max_latency_ticks=2,
        )
        # Tiny queue: the per-connection burst bound trips immediately.
        handle = serve_in_thread(gateway, queue_bursts=2)
        try:
            peer = RawPeer(handle.address)
            peer.send(wire.encode_open("slow"))
            peer.wait_for(wire.OpenOk)
            signal = record.signal
            # Fire every chunk without reading a single reply; replies
            # queue server-side (bounded) and in the socket buffers.
            n_chunks = 0
            for start in range(0, len(signal), CHUNK):
                peer.send(
                    wire.encode_ingest(
                        "slow", n_chunks, 0, signal[start:start + CHUNK]
                    )
                )
                n_chunks += 1
            # The writer queue holds at most queue_bursts coalesced
            # bursts no matter how far ahead the producer ran.
            inbox_events = [peer.wait_for(wire.Events, timeout=10.0)]
            peer.send(wire.encode_close("slow", 0))
            deadline = time.monotonic() + 15.0
            final = None
            while final is None and time.monotonic() < deadline:
                peer.pump()
                for message in list(peer.inbox):
                    if isinstance(message, wire.Events):
                        peer.inbox.remove(message)
                        inbox_events.append(message)
                        if message.final:
                            final = message
            assert final is not None, "no FINAL events frame after close"
            events = collect_events(inbox_events)
            reference = standalone_events(
                embedded_classifier, signal, record.fs, 1
            )
            assert_events_equal(reference, events)
            peer.close()
        finally:
            handle.stop()


class TestDisconnectResume:
    @pytest.mark.chaos_seeds(0, 1, 2)
    def test_mid_stream_disconnects_are_invisible(
        self, harness, record, embedded_classifier, chaos_seed,
        standalone_events, assert_events_equal,
    ):
        """Forced socket kills at seeded chunk indices leave the event
        sequence identical to an uninterrupted standalone node."""
        rng = np.random.default_rng(chaos_seed)
        signal = record.signal
        chunks = [signal[s:s + CHUNK] for s in range(0, len(signal), CHUNK)]
        kill_at = set(
            rng.choice(np.arange(1, len(chunks)), size=rng.integers(1, 4),
                       replace=False).tolist()
        )
        client = GatewayClient(
            harness.host, harness.port, window=4, backoff_base=0.01
        ).connect()
        client.open_session("chaos")
        events = []
        for i, piece in enumerate(chunks):
            if i in kill_at:
                client._sock.close()  # yank the transport mid-stream
            events.extend(client.ingest("chaos", piece))
        events.extend(client.close_session("chaos"))
        client.close()
        assert client.n_reconnects >= len(kill_at)
        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        assert_events_equal(reference, events)

    @pytest.mark.chaos_seeds(3, 4)
    def test_disconnect_inside_the_full_window_retransmits(
        self, harness, record, embedded_classifier, chaos_seed,
        standalone_events, assert_events_equal,
    ):
        """Killing the link with a full pipelining window in flight
        forces genuine chunk retransmission on resume — and the event
        sequence still matches the standalone node exactly."""
        rng = np.random.default_rng(chaos_seed)
        signal = record.signal
        chunks = [signal[s:s + CHUNK] for s in range(0, len(signal), CHUNK)]
        window = 6
        kill_at = int(rng.integers(window, len(chunks)))
        client = GatewayClient(
            harness.host, harness.port, window=window, backoff_base=0.01
        ).connect()
        client.open_session("burst")
        events = []
        for i, piece in enumerate(chunks):
            events.extend(client.ingest("burst", piece))
            if i == kill_at:
                # Chunks are in flight (unacked); the kill loses the
                # connection while the replay buffer is non-trivial.
                assert len(client._sessions["burst"].pending) > 0
                client._sock.close()
        events.extend(client.close_session("burst"))
        client.close()
        assert client.n_reconnects >= 1
        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        assert_events_equal(reference, events)

    @pytest.mark.chaos_seeds(0, 1)
    def test_producer_crash_handoff_preserves_the_prefix(
        self, harness, record, embedded_classifier, chaos_seed,
        standalone_events, assert_events_equal,
    ):
        """A producer that dies without closing leaves a parked session;
        a successor adopts it and the combined event stream is exactly
        the standalone node's on the ingested prefix, then continues."""
        rng = np.random.default_rng(chaos_seed)
        signal = record.signal
        chunks = [signal[s:s + CHUNK] for s in range(0, len(signal), CHUNK)]
        crash_at = int(rng.integers(4, len(chunks) - 2))

        first = GatewayClient(harness.host, harness.port, window=4).connect()
        first.open_session("handoff")
        before = []
        for piece in chunks[:crash_at]:
            before.extend(first.ingest("handoff", piece))
        before.extend(first.poll("handoff"))  # drain what has resolved
        first._sock.close()  # crash: no close_session, no goodbye

        second = GatewayClient(
            harness.host, harness.port, window=4, backoff_base=0.01
        ).connect()
        second.resume_session("handoff", events_received=len(before))
        after = []
        for piece in chunks[crash_at:]:
            after.extend(second.ingest("handoff", piece))
        after.extend(second.close_session("handoff"))
        second.close()

        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        assert_events_equal(reference, before + after)
        # And the prefix the first producer saw is exactly the
        # standalone node's output on the samples it ingested: the
        # resumed tail never rewrites history.
        n_prefix = len(before)
        assert_events_equal(reference[:n_prefix], before)

    @pytest.mark.chaos_seeds(5, 6)
    def test_disconnect_inside_a_multi_session_read(
        self, harness, record, embedded_classifier, chaos_seed,
        standalone_events, assert_events_equal,
    ):
        """The server forms a round from the INGEST frames of each socket
        read.  A link cut inside the last frame of a write that holds
        many chunks of three sessions loses only what the rounds did not
        apply: resume retransmits exactly that, and every session's
        events stay the standalone node's."""
        rng = np.random.default_rng(chaos_seed)
        signal = record.signal
        chunks = [signal[s:s + CHUNK] for s in range(0, len(signal), CHUNK)]
        sessions = ("m0", "m1", "m2")
        cut_at = int(rng.integers(3, len(chunks) - 3))
        # A window and a send buffer larger than the stream: every
        # ingest is buffered until the cut writes them all at once.
        client = GatewayClient(
            harness.host, harness.port, window=len(chunks) + 1,
            send_buffer=1 << 24, backoff_base=0.01,
        ).connect()
        for sid in sessions:
            client.open_session(sid)
        events = {sid: [] for sid in sessions}
        for i, piece in enumerate(chunks):
            for sid in sessions:
                events[sid].extend(client.ingest(sid, piece))
            if i == cut_at:
                burst = bytes(client._sendbuf)
                client._sendbuf.clear()
                client._sock.sendall(burst[: len(burst) - int(rng.integers(1, 64))])
                client._sock.close()
        for sid in sessions:
            events[sid].extend(client.close_session(sid))
        client.close()
        assert client.n_reconnects >= 1 and client.n_retransmitted >= 1
        reference = standalone_events(embedded_classifier, signal, record.fs, 1)
        for sid in sessions:
            assert_events_equal(reference, events[sid])
