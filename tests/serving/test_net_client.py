"""Client SDK discipline tests: retry, backoff, timeout, error parking.

These tests never open a real socket.  A :class:`FakeClock` replaces
``sleep``/``monotonic`` so backoff schedules and timeouts are asserted
exactly, and a :class:`FakePeer` implements the server side of the
protocol in-process behind a scripted :class:`FakeSocket`, so
connection failures and withheld replies are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.net import protocol as wire
from repro.serving.net.client import (
    ClientTimeout,
    ConnectError,
    GatewayClient,
    RemoteError,
)


class FakeClock:
    """Deterministic monotonic clock; ``sleep`` records and advances."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def monotonic(self) -> float:
        return self.now


class FakePeer:
    """In-process server side of the protocol, with scriptable quirks.

    ``mute`` suppresses replies (for timeout tests); ``inject`` queues
    raw payloads the socket will deliver before any scripted reply.
    """

    def __init__(self, mute_ops=(), auto_error=None):
        self.decoder = wire.FrameDecoder()
        self.out = bytearray()
        self.received: list = []
        self.mute_ops = set(mute_ops)
        self.auto_error = auto_error
        self.seq_seen: dict[str, int] = {}

    def send(self, payload: bytes) -> None:
        self.out.extend(wire.pack_frame(payload))

    def feed(self, data: bytes) -> None:
        for payload in self.decoder.feed(data):
            self.handle(wire.decode(payload))

    def handle(self, message) -> None:
        self.received.append(message)
        if type(message).__name__.lower() in self.mute_ops:
            return
        if isinstance(message, wire.Hello):
            self.send(wire.encode_hello_ok(wire.DEFAULT_MAX_FRAME))
        elif isinstance(message, wire.Open):
            self.send(wire.encode_open_ok(message.session_id))
        elif isinstance(message, wire.Ingest):
            self.seq_seen[message.session_id] = message.seq + 1
            if self.auto_error is not None:
                self.send(
                    wire.encode_error(
                        message.session_id, self.auto_error, sync=False
                    )
                )
        elif isinstance(message, wire.Poll):
            self.send(
                wire.encode_events([wire.Events(
                    message.session_id,
                    self.seq_seen.get(message.session_id, 0),
                    message.ack_events,
                    wire.FLAG_SYNC,
                )])
            )
        elif isinstance(message, wire.Close):
            self.send(
                wire.encode_events([wire.Events(
                    message.session_id,
                    self.seq_seen.get(message.session_id, 0),
                    message.ack_events,
                    wire.FLAG_FINAL,
                )])
            )


class FakeSocket:
    """A scripted transport fronting a :class:`FakePeer`."""

    def __init__(self, peer: FakePeer, clock: FakeClock):
        self.peer = peer
        self.clock = clock
        self.closed = False

    def sendall(self, data: bytes) -> None:
        if self.closed:
            raise OSError("send on closed socket")
        self.peer.feed(data)

    def recv(self, n: int) -> bytes:
        if self.closed:
            raise OSError("recv on closed socket")
        out = bytes(self.peer.out[:n])
        del self.peer.out[:n]
        return out

    def wait_readable(self, timeout: float) -> bool:
        if self.peer.out:
            return True
        # Nothing will ever arrive without another send: burn the wait.
        self.clock.now += timeout
        return False

    def close(self) -> None:
        self.closed = True


def make_client(clock, connect_factory, **kwargs) -> GatewayClient:
    kwargs.setdefault("backoff_base", 0.1)
    kwargs.setdefault("backoff_max", 1.0)
    kwargs.setdefault("max_retries", 3)
    kwargs.setdefault("timeout", 2.0)
    return GatewayClient(
        "fake-host",
        1,
        sleep=clock.sleep,
        monotonic=clock.monotonic,
        connect_factory=connect_factory,
        **kwargs,
    )


def scripted_factory(clock, peer, failures=0):
    """A connect factory failing ``failures`` times before succeeding."""
    attempts = {"n": 0}

    def factory(address, timeout):
        attempts["n"] += 1
        if attempts["n"] <= failures:
            raise ConnectionRefusedError("scripted refusal")
        return FakeSocket(peer, clock)

    factory.attempts = attempts
    return factory


class TestConnectRetryBackoff:
    def test_exponential_backoff_schedule(self):
        clock = FakeClock()
        factory = scripted_factory(clock, FakePeer(), failures=3)
        client = make_client(clock, factory, backoff_base=0.1, backoff_max=10.0)
        client.connect()
        # Three refusals -> three sleeps doubling from backoff_base.
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])
        assert factory.attempts["n"] == 4
        assert client.connected and client.n_connects == 1

    def test_backoff_is_capped(self):
        clock = FakeClock()
        factory = scripted_factory(clock, FakePeer(), failures=3)
        client = make_client(clock, factory, backoff_base=0.4, backoff_max=0.5)
        client.connect()
        assert clock.sleeps == pytest.approx([0.4, 0.5, 0.5])

    def test_retries_exhausted_raises_connect_error(self):
        clock = FakeClock()
        factory = scripted_factory(clock, FakePeer(), failures=99)
        client = make_client(clock, factory, max_retries=2)
        with pytest.raises(ConnectError, match="3 attempts"):
            client.connect()
        # One initial try + max_retries retries, a sleep before each retry.
        assert factory.attempts["n"] == 3
        assert len(clock.sleeps) == 2
        assert not client.connected

    def test_connect_is_idempotent(self):
        clock = FakeClock()
        factory = scripted_factory(clock, FakePeer())
        client = make_client(clock, factory)
        client.connect()
        client.connect()
        assert factory.attempts["n"] == 1


class TestRetryBounds:
    """``max_retries`` and ``connect_timeout`` bound a retry; elapsed
    wall-clock time between or during attempts does not."""

    def test_op_attempts_stop_after_max_retries(self):
        clock = FakeClock()
        client = make_client(
            clock, scripted_factory(clock, FakePeer()), max_retries=2
        )
        attempts = client._op_attempts()
        assert next(attempts) == 0
        clock.now += 100.0  # a slow attempt does not cut the retries short
        assert next(attempts) == 1
        assert next(attempts) == 2
        with pytest.raises(ConnectError, match="after 3 attempts"):
            next(attempts)

    def test_connect_timeout_reaches_every_attempt(self):
        clock = FakeClock()
        seen = []
        factory = scripted_factory(clock, FakePeer(), failures=2)

        def recording(address, timeout):
            seen.append((address, timeout))
            return factory(address, timeout)

        client = make_client(clock, recording, connect_timeout=0.75)
        client.connect()
        assert seen == [(("fake-host", 1), 0.75)] * 3

    def test_retry_count_restarts_per_connect(self):
        clock = FakeClock()
        peer = FakePeer()
        outcomes = iter([False] * 3 + [True] + [False] * 3 + [True])

        def factory(address, timeout):
            if not next(outcomes):
                raise ConnectionRefusedError("scripted refusal")
            return FakeSocket(peer, clock)

        client = make_client(clock, factory, max_retries=3)
        client.connect()  # spends every retry, then succeeds
        client.close()
        # A long pause and a spent earlier connect leave the next one
        # its full retry count and backoff schedule.
        clock.now += 100.0
        clock.sleeps.clear()
        client.connect()
        assert client.connected and client.n_connects == 2
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])


class TestTimeouts:
    def test_open_times_out_when_server_is_mute(self):
        clock = FakeClock()
        peer = FakePeer(mute_ops={"open"})
        client = make_client(clock, scripted_factory(clock, peer), timeout=1.5)
        client.connect()
        start = clock.now
        with pytest.raises(ClientTimeout, match="open_ok"):
            client.open_session("s")
        assert clock.now - start >= 1.5

    def test_poll_times_out_when_sync_reply_withheld(self):
        clock = FakeClock()
        peer = FakePeer(mute_ops={"poll"})
        client = make_client(clock, scripted_factory(clock, peer), timeout=0.7)
        client.connect()
        client.open_session("s")
        with pytest.raises(ClientTimeout, match="sync"):
            client.poll("s")

    def test_timeout_is_not_charged_to_other_ops(self):
        clock = FakeClock()
        peer = FakePeer()
        client = make_client(clock, scripted_factory(clock, peer), timeout=0.7)
        client.connect()
        client.open_session("s")
        assert client.poll("s") == []  # replies promptly, no timeout


class TestErrorDiscipline:
    def test_sync_error_raises_remote_error(self):
        clock = FakeClock()
        peer = FakePeer()
        original = peer.handle

        def handle(message):
            if isinstance(message, wire.Open):
                peer.send(
                    wire.encode_error(
                        message.session_id, "already open elsewhere", sync=True
                    )
                )
                return
            original(message)

        peer.handle = handle
        client = make_client(clock, scripted_factory(clock, peer))
        client.connect()
        with pytest.raises(RemoteError, match="already open"):
            client.open_session("s")
        assert "s" not in client._sessions

    def test_async_ingest_error_parks_until_next_call(self):
        clock = FakeClock()
        peer = FakePeer(auto_error="classifier exploded")
        client = make_client(clock, scripted_factory(clock, peer))
        client.connect()
        client.open_session("s")
        # The erroring ingest itself does not raise (pipelined) ...
        client.ingest("s", np.zeros(16))
        # ... the session's next call does.
        with pytest.raises(RemoteError, match="classifier exploded"):
            client.poll("s")


class TestPipelining:
    def test_window_full_forces_one_poll_barrier(self):
        clock = FakeClock()
        peer = FakePeer()
        client = make_client(clock, scripted_factory(clock, peer), window=3)
        client.connect()
        client.open_session("s")
        for _ in range(3):
            client.ingest("s", np.zeros(8))
        polls_before = sum(isinstance(m, wire.Poll) for m in peer.received)
        client.ingest("s", np.zeros(8))  # fourth: window was full
        polls_after = sum(isinstance(m, wire.Poll) for m in peer.received)
        assert polls_before == 0 and polls_after == 1
        # The sync barrier emptied the replay buffer before the send.
        assert len(client._sessions["s"].pending) == 1

    def test_acks_trim_the_replay_buffer(self):
        clock = FakeClock()
        peer = FakePeer()
        client = make_client(clock, scripted_factory(clock, peer), window=8)
        client.connect()
        client.open_session("s")
        for _ in range(4):
            client.ingest("s", np.zeros(8))
        assert len(client._sessions["s"].pending) == 4
        client.poll("s")  # SYNC events frame acks everything sent
        assert len(client._sessions["s"].pending) == 0

    def test_zero_length_chunk_is_legal(self):
        clock = FakeClock()
        peer = FakePeer()
        client = make_client(clock, scripted_factory(clock, peer))
        client.connect()
        client.open_session("s")
        assert client.ingest("s", np.empty(0)) == []
        assert client.close_session("s") == []

    def test_ingest_unknown_session_raises_locally(self):
        clock = FakeClock()
        client = make_client(clock, scripted_factory(clock, FakePeer()))
        client.connect()
        with pytest.raises(KeyError, match="ghost"):
            client.ingest("ghost", np.zeros(4))


class TestLifecycle:
    def test_context_manager_connects_and_closes(self):
        clock = FakeClock()
        factory = scripted_factory(clock, FakePeer())
        with make_client(clock, factory) as client:
            assert client.connected
        assert not client.connected

    def test_shutdown_aliases_close(self):
        clock = FakeClock()
        client = make_client(clock, scripted_factory(clock, FakePeer()))
        client.connect()
        client.shutdown()
        assert not client.connected

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            GatewayClient("h", 1, window=0)

    def test_duplicate_open_rejected_locally(self):
        clock = FakeClock()
        client = make_client(clock, scripted_factory(clock, FakePeer()))
        client.connect()
        client.open_session("s")
        with pytest.raises(ValueError, match="already open"):
            client.open_session("s")


class TestDoubleTransportFailure:
    """A second connection death *during* resume must surface as the
    public ``ConnectError``, never the private retry signal."""

    @staticmethod
    def _double_kill_client():
        clock = FakeClock()
        peer1 = FakePeer()

        class ResumeKilledPeer(FakePeer):
            def handle(self, message):
                if isinstance(message, wire.Resume):
                    raise OSError("connection reset mid-resume")
                super().handle(message)

        sockets = []

        def factory(address, timeout):
            peer = peer1 if not sockets else ResumeKilledPeer()
            sockets.append(FakeSocket(peer, clock))
            return sockets[-1]

        client = make_client(clock, factory)
        client.connect()
        client.open_session("s")
        client.ingest("s", np.zeros(8))
        sockets[0].closed = True  # first transport death
        return client

    def test_ingest_surfaces_public_connect_error(self):
        client = self._double_kill_client()
        # Reconnect succeeds (HELLO/HELLO_OK on socket 2), then the
        # RESUME send dies: the boundary converts to ConnectError.
        with pytest.raises(ConnectError, match="lost again while resuming"):
            client.ingest("s", np.ones(8))
        assert not client.connected

    def test_poll_surfaces_public_connect_error(self):
        client = self._double_kill_client()
        with pytest.raises(ConnectError, match="lost again while resuming"):
            client.poll("s")
        assert not client.connected


class TestResume:
    """A lost connection is always resumed: there is no opt-out."""

    def test_lost_connection_resumes_and_retransmits_unprocessed_chunks(self):
        """The client reconnects, sends ``RESUME`` for its session and
        retransmits, under their original sequence numbers, exactly the
        chunks the server reports it has not processed."""
        clock = FakeClock()

        class ResumingPeer(FakePeer):
            def handle(self, message):
                if isinstance(message, wire.Resume):
                    self.received.append(message)
                    # The old connection's server processed chunk 0 only.
                    self.send(wire.encode_resume_ok(message.session_id, 1))
                else:
                    super().handle(message)

        peers = [FakePeer(), ResumingPeer()]
        sockets = []

        def factory(address, timeout):
            sockets.append(FakeSocket(peers[len(sockets)], clock))
            return sockets[-1]

        client = make_client(clock, factory)
        client.connect()
        client.open_session("s")
        for value in range(3):
            client.ingest("s", np.full(8, float(value)))
        sockets[0].closed = True
        client.ingest("s", np.full(8, 3.0))
        assert client.n_reconnects == 1
        assert client.n_retransmitted == 3
        received = peers[1].received
        assert isinstance(received[0], wire.Hello)
        assert received[1] == wire.Resume("s", 0)
        ingests = [m for m in received if isinstance(m, wire.Ingest)]
        assert [m.seq for m in ingests] == [1, 2, 3]
        assert [float(m.chunk[0]) for m in ingests] == [1.0, 2.0, 3.0]

    def test_resume_cannot_be_switched_off(self):
        with pytest.raises(TypeError, match="resume"):
            GatewayClient("h", 1, resume=False)


class TestDiscardSession:
    def test_discard_drops_local_state_without_wire_traffic(self):
        clock = FakeClock()
        peer = FakePeer()
        client = make_client(clock, scripted_factory(clock, peer))
        client.connect()
        client.open_session("s")
        client.ingest("s", np.zeros(4))
        frames_before = len(peer.received)
        client.discard_session("s")
        assert len(peer.received) == frames_before  # nothing sent
        with pytest.raises(KeyError, match="no open session"):
            client.ingest("s", np.zeros(4))
        client.discard_session("unknown")  # unknown ids are ignored
