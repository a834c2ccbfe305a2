"""Pipelined client SDK for the off-box serving protocol.

:class:`GatewayClient` is the producer-side counterpart of
:class:`~repro.serving.net.server.GatewayServer`: it multiplexes many
sessions over **one** TCP connection and mirrors the gateway session
surface — ``open_session`` / ``ingest`` / ``poll`` / ``close_session``
— so every existing driver (:func:`~repro.serving.gateway.serve_round_robin`,
:func:`~repro.serving.loadgen.replay_fleet`, the benchmarks) drives a
remote gateway unchanged.

Throughput comes from **pipelining**, mirroring the sharded tier's
pipe IPC: ``ingest`` frames a chunk, sends it and returns the events
that have already come back — no per-chunk round trip.  Up to
``window`` chunks per session ride unacknowledged.  The server
acknowledges each round of ``INGEST`` frames it applies with one
``EVENTS`` frame (a section per chunk, empty when it resolved nothing),
read opportunistically (without blocking) on every call, so the window
drains as fast as the server applies chunks.  When the server falls
``window`` chunks behind, the next ``ingest`` waits for the oldest
chunk's ack.  Only a server that
sends none within ``timeout`` gets one ``POLL`` round trip, which
synchronizes (the server's FIFO guarantees every prior chunk was
processed by then) and refills the window.

Reliability discipline:

* **retry/backoff** — connection attempts (initial and reconnect)
  retry up to ``max_retries`` times with exponential backoff
  (``backoff_base * 2**attempt``, capped at ``backoff_max``), via an
  injectable ``sleep``/``monotonic`` pair so the policy is testable
  against a fake clock;
* **timeouts** — every synchronous wait (handshake, open, poll,
  close, resume) is bounded by ``timeout`` seconds and raises
  :class:`ClientTimeout`;
* **reconnect-resume** — a dead connection is re-established
  transparently: the client reconnects (with backoff), sends
  ``RESUME`` for every open session, learns from ``RESUME_OK`` which
  chunks the server never processed and retransmits exactly those from
  its bounded replay buffer, while the server replays exactly the
  events the client never acknowledged.  The combined per-session
  event sequence is bit-exact with an uninterrupted connection — the
  chaos suite pins it.  A session the server evicted meanwhile is
  refused and dropped; the others still resume.

Server-side errors arrive either as the reply to a synchronous request
(raised immediately as :class:`RemoteError`) or asynchronously for a
pipelined ingest (parked, raised by that session's next call — the
same discipline as :class:`~repro.serving.sharded.ShardedGateway`).
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.streaming import check_samples
from repro.serving.net import protocol as wire

__all__ = [
    "ClientError",
    "ClientTimeout",
    "ConnectError",
    "GatewayClient",
    "MigratedSession",
    "RemoteError",
]

_RECV_CHUNK = 256 * 1024


class ClientError(RuntimeError):
    """Base class of the client SDK's failures."""


class ConnectError(ClientError):
    """Could not establish a connection within ``max_retries`` retries."""


class ClientTimeout(ClientError):
    """A synchronous wait exceeded the client's timeout."""


class RemoteError(ClientError):
    """The server reported an error for a request or a session."""


class _ConnectionLost(Exception):
    """Internal: the transport died mid-operation (triggers resume)."""


@dataclass(frozen=True)
class MigratedSession:
    """A session captured off one host, ready to import into another.

    Produced by :meth:`GatewayClient.migrate_out`, consumed by
    :meth:`GatewayClient.migrate_in` on the destination host's client.
    ``blob`` is the server-pickled ``SessionExport`` (opaque here);
    ``base_events`` is the receive count the capture was taken at —
    the importing host restarts its delivery index there, so the
    client-side dedupe seam lines up across hosts.  ``events`` holds
    whatever the source host delivered between that stamp and the
    capture acknowledgment (the caller must hand them to the consumer
    — they are part of the session's event sequence), and
    ``events_received`` is the post-drain receive count the importing
    client must continue from.
    """

    session_id: str
    blob: bytes = field(repr=False)
    base_events: int = 0
    events: list = field(default_factory=list)
    events_received: int = 0


class _SessionState:
    """Client-side reliability state for one open session."""

    __slots__ = ("seq_next", "pending", "events_received", "buffered", "n_leads")

    def __init__(self, n_leads: int = 0) -> None:
        #: The gateway's lead count, from ``OPEN_OK`` / ``RESUME_OK`` /
        #: the import ``MIGRATE_OK`` (``0`` = unknown: any lead count).
        self.n_leads = n_leads
        self.seq_next = 0
        #: Replay buffer of ``(seq, chunk)`` not yet acknowledged —
        #: bounded by the pipelining window.
        self.pending: deque = deque()
        self.events_received = 0
        self.buffered: list = []

    def drain(self) -> list:
        events = self.buffered
        self.buffered = []
        return events


def _default_connect(address: tuple[str, int], timeout: float):
    return socket.create_connection(address, timeout=timeout)


class GatewayClient:
    """Multiplex live sessions over one pipelined gateway connection.

    Parameters
    ----------
    host / port:
        The :class:`~repro.serving.net.server.GatewayServer` address.
    window:
        Per-session pipelining depth (>= 1): chunks in flight before
        ``ingest`` synchronizes.  Also bounds the replay buffer a
        resume retransmits from.
    timeout:
        Bound in seconds on every synchronous wait.
    connect_timeout:
        Bound on one TCP connection attempt.
    max_retries:
        Connection attempts beyond the first before
        :class:`ConnectError` (applies to initial connect and to every
        reconnect).
    backoff_base / backoff_max:
        Exponential-backoff schedule between attempts:
        ``min(backoff_max, backoff_base * 2**attempt)``.
    max_frame:
        Local frame bound; the effective outgoing bound is the minimum
        of this and the server's advertised one.
    send_buffer:
        Write-coalescing threshold in bytes (default 0 = every frame
        is sent immediately).  When set, pipelined ``ingest`` frames
        accumulate and go out in one ``sendall`` per burst; any
        synchronous operation flushes first, so ordering and the
        resume contract are unchanged.  Cuts per-chunk syscall cost
        when producers stream tiny high-rate chunks.
    sleep / monotonic:
        Injectable clock (defaults :func:`time.sleep` /
        :func:`time.monotonic`) so retry/backoff/timeout behavior is
        testable against a fake clock.
    connect_factory:
        Injectable ``(address, timeout) -> socket`` (defaults to
        :func:`socket.create_connection`) for scripted connection
        failures in tests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        window: int = 8,
        timeout: float = 10.0,
        connect_timeout: float = 5.0,
        max_retries: int = 5,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        send_buffer: int = 0,
        sleep=time.sleep,
        monotonic=time.monotonic,
        connect_factory=_default_connect,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.host = host
        self.port = port
        self.window = int(window)
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.max_frame = int(max_frame)
        self.send_buffer = int(send_buffer)
        self._sleep = sleep
        self._monotonic = monotonic
        self._connect_factory = connect_factory
        self._sock = None
        self._decoder: wire.FrameDecoder | None = None
        self._sendbuf = bytearray()
        self._send_max_frame = self.max_frame
        self._sessions: dict[str, _SessionState] = {}
        self._errors: dict[str, str] = {}
        self._mail: deque = deque()
        self.n_connects = 0
        self.n_reconnects = 0
        self.n_retransmitted = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def n_sessions(self) -> int:
        return len(self._sessions)

    def connect(self) -> "GatewayClient":
        """Establish the connection (retry/backoff) and handshake."""
        if self._sock is None:
            self._connect_raw()
        return self

    def close(self) -> None:
        """Drop the connection.  Open sessions are parked server-side:
        they stay open in the remote gateway, resumable by a later
        client; call :meth:`close_session` first for a clean
        end-of-stream."""
        self._teardown()
        self._sessions.clear()
        self._errors.clear()
        self._mail.clear()

    #: Alias so gateway-shaped drivers (``find_max_sustained``) can
    #: tear a client down exactly like a local gateway.
    shutdown = close

    def __enter__(self) -> "GatewayClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- session surface -------------------------------------------------

    def open_session(
        self,
        session_id: str,
        *,
        max_latency_ticks: int | None = None,
        evict_after_ticks: int | None = None,
    ) -> None:
        """Open a session on the remote gateway (synchronous)."""
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        self.connect()
        payload = wire.encode_open(
            session_id,
            max_latency_ticks=max_latency_ticks,
            evict_after_ticks=evict_after_ticks,
        )
        for _ in self._op_attempts():
            try:
                self._send_payload(payload)
                ok = self._wait_for("open_ok", session_id)
                self._sessions[session_id] = _SessionState(ok.n_leads)
                return
            except _ConnectionLost:
                self._reconnect_and_resume()
                if self._try_adopt(session_id):
                    return

    def resume_session(self, session_id: str, *, events_received: int = 0) -> None:
        """Adopt a session parked on the server and continue it bit-exactly.

        A producer that vanishes (process crash, dropped link) leaves
        its sessions parked server-side: still open in the remote
        gateway, which keeps journaling them and idle-evicts those with
        an ``evict_after_ticks`` threshold.  A successor calls this
        with the number of the session's events it already holds
        (``0`` for a fresh adopter that persisted nothing) and
        receives a replay of everything after that index — the
        combined event sequence across both producers is exactly the
        standalone node's.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        self.connect()
        sess = _SessionState()
        sess.events_received = int(events_received)
        # Registered before the RESUME so the replay EVENTS frame (and
        # any reconnect mid-handshake) routes to it.
        self._sessions[session_id] = sess
        try:
            for _ in self._op_attempts():
                try:
                    self._send_payload(
                        wire.encode_resume(session_id, sess.events_received)
                    )
                    resume_ok = self._wait_for("resume_ok", session_id)
                    sess.seq_next = resume_ok.next_seq
                    sess.n_leads = resume_ok.n_leads
                    return
                except _ConnectionLost:
                    self._reconnect_and_resume()
                    self._session(session_id)  # re-attached, or refused
                    return
        except BaseException:
            self._sessions.pop(session_id, None)
            raise

    def ingest(self, session_id: str, chunk) -> list:
        """Frame and send one chunk; return already-resolved events.

        Pipelined: does not wait for the server to process the chunk.
        The server acknowledges each round it applies in one frame, a
        section per chunk, so the window normally drains on its own.
        When it is full (the server is ``window`` chunks behind), the
        call first waits for the ack of the oldest chunk in flight; only
        if none comes within ``timeout`` does one ``POLL`` round trip
        synchronize (collecting every ack and event the server has
        produced).  Then the chunk is sent.  A chunk of the wrong shape
        for the session's lead count, or with non-finite samples, raises
        :class:`ValueError` before it is sequenced: the server would
        reject it, and a sequenced reject would stall the session's
        chunk sequence.
        """
        sess = self._session(session_id)
        arr = np.ascontiguousarray(chunk, dtype="<f8")
        check_samples(arr, sess.n_leads or (arr.shape[1] if arr.ndim == 2 else 1))
        # In write-coalescing mode the opportunistic drain happens at
        # burst boundaries (buffer empty = a flush or sync just ran),
        # not per chunk — one readiness syscall per burst, not per 10 ms
        # frame.  Unbuffered clients keep the per-call drain.
        if not self._sendbuf:
            self._pump()
        self._raise_parked(session_id)
        if len(sess.pending) >= self.window:
            self._await_ack(session_id, sess)
            if len(sess.pending) >= self.window:
                self._sync(session_id)
            self._raise_parked(session_id)
        sess.pending.append((sess.seq_next, arr))
        payload = wire.encode_ingest(
            session_id, sess.seq_next, sess.events_received, arr
        )
        sess.seq_next += 1
        try:
            self._send_payload(payload, buffered=True)
        except _ConnectionLost:
            self._reconnect_and_resume()  # retransmits from the buffer
        return sess.drain()

    def poll(self, session_id: str) -> list:
        """Synchronize with the server; return the session's events."""
        self._session(session_id)
        self._raise_parked(session_id)
        self._sync(session_id)
        self._raise_parked(session_id)
        return self._sessions[session_id].drain()

    def close_session(self, session_id: str) -> list:
        """End a session; return the remainder of its event sequence."""
        sess = self._session(session_id)
        self._raise_parked(session_id)
        for _ in self._op_attempts():
            try:
                self._send_payload(
                    wire.encode_close(session_id, sess.events_received)
                )
                self._wait_for("final", session_id)
                break
            except _ConnectionLost:
                self._reconnect_and_resume()
        events = sess.drain()
        del self._sessions[session_id]
        return events

    def discard_session(self, session_id: str) -> None:
        """Drop a session's client-side state without touching the wire.

        For sessions the *server* already ended (evicted, closed on
        its side): there is nothing left to close remotely, but the
        local replay/delivery state must not linger into a resume or a
        reused id.  Unknown ids are ignored.
        """
        self._sessions.pop(session_id, None)
        self._errors.pop(session_id, None)

    # -- cross-host migration + fleet stats ------------------------------

    def migrate_out(self, session_id: str) -> MigratedSession:
        """Capture a live session off this host for import elsewhere.

        Sends ``MIGRATE`` (no blob) — the server processes every
        pipelined chunk still in flight first (FIFO), releases the
        session via its ``SessionExport`` path, and ships the capture
        back in ``MIGRATE_OK``.  Events delivered between the request
        and the acknowledgment land in :attr:`MigratedSession.events`;
        hand them to the consumer, then feed the capture to
        :meth:`migrate_in` on the destination client.

        Not resume-safe mid-handshake: if the connection dies after
        the server released the session but before ``MIGRATE_OK``
        arrived, the capture is lost with the socket (the federation
        tier treats the move as an atomic control-plane step).
        """
        sess = self._session(session_id)
        self._raise_parked(session_id)
        ok = None
        base = sess.events_received
        for _ in self._op_attempts():
            try:
                base = sess.events_received
                self._send_payload(wire.encode_migrate(session_id, base))
                ok = self._wait_for("migrate_ok", session_id)
                break
            except _ConnectionLost:
                self._reconnect_and_resume()
        migrated = MigratedSession(
            session_id=session_id,
            blob=ok.blob,
            base_events=base,
            events=sess.drain(),
            events_received=sess.events_received,
        )
        del self._sessions[session_id]
        self._errors.pop(session_id, None)
        return migrated

    def migrate_in(self, migrated: MigratedSession) -> None:
        """Import a session captured by another host's :meth:`migrate_out`.

        The ``MIGRATE`` frame carries the opaque capture blob plus the
        receive count the capture was taken at; the server imports the
        session and restarts its delivery index there, so redelivered
        events dedupe against what the source host already shipped.
        """
        session_id = migrated.session_id
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        self.connect()
        payload = wire.encode_migrate(
            session_id, migrated.base_events, migrated.blob
        )
        sess = _SessionState()
        sess.events_received = migrated.events_received
        self._sessions[session_id] = sess
        try:
            for _ in self._op_attempts():
                try:
                    self._send_payload(payload)
                    sess.n_leads = self._wait_for("migrate_ok", session_id).n_leads
                    return
                except _ConnectionLost:
                    # The import may or may not have landed before the
                    # transport died.  Deregister so the resume loop
                    # skips it, then probe: if the server holds the
                    # session, adopt it; otherwise re-send the import.
                    del self._sessions[session_id]
                    self._reconnect_and_resume()
                    if self._try_adopt(
                        session_id, events_received=migrated.events_received
                    ):
                        return
                    self._sessions[session_id] = sess
        except BaseException:
            self._sessions.pop(session_id, None)
            raise

    def stats(self) -> dict:
        """Fetch the remote gateway's statistics snapshot."""
        self.connect()
        for _ in self._op_attempts():
            try:
                self._send_payload(wire.encode_stats())
                return self._wait_for("stats_ok").stats
            except _ConnectionLost:
                self._reconnect_and_resume()

    # -- internals -------------------------------------------------------

    def _session(self, session_id: str) -> _SessionState:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def _raise_parked(self, session_id: str) -> None:
        message = self._errors.pop(session_id, None)
        if message is not None:
            raise RemoteError(message)

    def _op_attempts(self):
        """At most ``1 + max_retries`` tries for one synchronous op."""
        yield from range(1 + self.max_retries)
        raise ConnectError(
            f"operation failed after {1 + self.max_retries} attempts"
        )

    def _await_ack(self, session_id: str, sess: _SessionState) -> None:
        """Wait, bounded by ``timeout``, until an ack frees a slot of
        the session's full window (or an error for it arrives).

        The server acknowledges every accepted chunk as it applies it,
        so this keeps the pipeline full where a ``POLL`` barrier would
        drain it.  Returns with the window still full only if no ack
        came in time; the caller then falls back to the barrier.
        """
        deadline = self._monotonic() + self.timeout
        try:
            self._flush_sendbuf()  # buffered chunks cannot be acked yet
            while len(sess.pending) >= self.window and session_id not in self._errors:
                remaining = deadline - self._monotonic()
                if remaining <= 0 or not self._wait_readable(remaining):
                    return
                self._recv_once()
        except _ConnectionLost:
            self._reconnect_and_resume()  # retransmits the window

    def _sync(self, session_id: str) -> None:
        """One ``POLL`` round trip: the pipelining barrier.

        The server answers in FIFO order, so by the time the ``SYNC``
        events frame arrives every previously sent chunk has been
        processed and acknowledged — the window is empty again.
        """
        sess = self._sessions[session_id]
        for _ in self._op_attempts():
            try:
                self._send_payload(
                    wire.encode_poll(session_id, sess.events_received)
                )
                self._wait_for("sync", session_id)
                return
            except _ConnectionLost:
                self._reconnect_and_resume()

    def _try_adopt(self, session_id: str, *, events_received: int = 0) -> bool:
        """After a reconnect mid-``open`` (or mid-``migrate_in``), check
        whether the server had in fact registered the session — and if
        so, adopt it at the given receive count."""
        if session_id in self._sessions:
            return True
        try:
            self._send_payload(wire.encode_resume(session_id, events_received))
            resume_ok = self._wait_for("resume_ok", session_id)
        except (RemoteError, _ConnectionLost):
            return False
        sess = _SessionState(resume_ok.n_leads)
        sess.events_received = events_received
        sess.seq_next = resume_ok.next_seq
        self._sessions[session_id] = sess
        return True

    # -- transport -------------------------------------------------------

    def _connect_raw(self) -> None:
        attempt = 0
        while True:
            try:
                sock = self._connect_factory(
                    (self.host, self.port), self.connect_timeout
                )
                break
            except OSError as exc:
                if attempt >= self.max_retries:
                    raise ConnectError(
                        f"could not connect to {self.host}:{self.port} after "
                        f"{attempt + 1} attempts: {exc}"
                    ) from exc
                delay = min(self.backoff_max, self.backoff_base * (2.0 ** attempt))
                self._sleep(delay)
                attempt += 1
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):  # fake sockets in tests
            pass
        try:
            sock.setblocking(True)
        except (OSError, AttributeError):
            pass
        self._sock = sock
        self._decoder = wire.FrameDecoder(self.max_frame)
        self.n_connects += 1
        try:
            self._send_payload(wire.encode_hello(self.max_frame))
            hello = self._wait_for("hello_ok")
        except _ConnectionLost as exc:
            self._teardown()
            raise ConnectError(f"handshake failed: {exc}") from None
        self._send_max_frame = min(self.max_frame, hello.max_frame)

    def _teardown(self) -> None:
        sock, self._sock = self._sock, None
        self._decoder = None
        self._sendbuf.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _reconnect_and_resume(self) -> None:
        """Re-establish the transport and resume every open session.

        ``RESUME_OK`` carries the next chunk sequence the server
        expects; everything at or above it in the session's replay
        buffer is retransmitted (with its original sequence number),
        and the buffer drops what the server already processed.  The
        replay ``EVENTS`` frame the server sends alongside is handled
        by the ordinary frame path.  A session the server refuses to
        resume (it evicted the session meanwhile) is dropped like a
        closed one; the others still resume.
        """
        self._teardown()
        self.n_reconnects += 1
        self._connect_raw()
        try:
            for session_id, sess in list(self._sessions.items()):
                self._send_payload(
                    wire.encode_resume(session_id, sess.events_received)
                )
                try:
                    resume_ok = self._wait_for("resume_ok", session_id)
                except RemoteError:
                    self.discard_session(session_id)
                    continue
                next_seq = resume_ok.next_seq
                sess.n_leads = resume_ok.n_leads
                sess.seq_next = max(sess.seq_next, next_seq)
                sess.pending = deque(
                    (seq, chunk) for seq, chunk in sess.pending if seq >= next_seq
                )
                for seq, chunk in sess.pending:
                    self._send_payload(
                        wire.encode_ingest(
                            session_id, seq, sess.events_received, chunk
                        )
                    )
                    self.n_retransmitted += 1
        except _ConnectionLost as exc:
            # A second transport failure mid-resume surfaces here with
            # the *private* retry signal still in flight; callers of
            # the public surface (ingest, poll, _pump) re-raise what
            # lands here verbatim, so convert to the public error at
            # this boundary like the handshake path does.
            self._teardown()
            raise ConnectError(
                f"connection to {self.host}:{self.port} lost again while "
                f"resuming sessions: {exc}"
            ) from None

    def _send_payload(self, payload: bytes, *, buffered: bool = False) -> None:
        if self._sock is None:
            self._connect_raw()
        frame = wire.pack_frame(payload, self._send_max_frame)
        if buffered and self.send_buffer > 0:
            # Write-coalescing: pipelined frames accumulate and go out
            # in one syscall per burst.  Chunks in the buffer are also
            # in the session replay deque, so a connection lost before
            # the flush retransmits them via the ordinary resume path.
            self._sendbuf += frame
            if len(self._sendbuf) >= self.send_buffer:
                self._flush_sendbuf()
            return
        self._flush_sendbuf()
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise _ConnectionLost(str(exc)) from None

    def _flush_sendbuf(self) -> None:
        if not self._sendbuf:
            return
        data = bytes(self._sendbuf)
        self._sendbuf.clear()  # never replay stale frames post-reconnect
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise _ConnectionLost(str(exc)) from None

    def _wait_readable(self, timeout: float) -> bool:
        sock = self._sock
        if sock is None:
            raise _ConnectionLost("not connected")
        waiter = getattr(sock, "wait_readable", None)
        if waiter is not None:  # scripted sockets in tests
            return bool(waiter(timeout))
        try:
            readable, _, _ = select.select([sock], [], [], timeout)
        except (OSError, ValueError) as exc:  # closed fd mid-stream
            raise _ConnectionLost(str(exc)) from None
        return bool(readable)

    def _recv_once(self) -> None:
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except OSError as exc:
            raise _ConnectionLost(str(exc)) from None
        if not data:
            raise _ConnectionLost("server closed the connection")
        for payload in self._decoder.feed(data):
            self._handle(wire.decode(payload))

    def _pump(self) -> None:
        """Read and handle whatever is available, without blocking."""
        if self._sock is None:
            return
        try:
            while self._wait_readable(0.0):
                self._recv_once()
        except _ConnectionLost:
            self._reconnect_and_resume()

    def _wait_for(self, kind: str, session_id: str | None = None):
        """Block (bounded by ``timeout``) until a sync reply arrives."""
        deadline = self._monotonic() + self.timeout
        while True:
            result = self._take_mail(kind, session_id)
            if result is not None:
                return result
            remaining = deadline - self._monotonic()
            if remaining <= 0:
                raise ClientTimeout(
                    f"timed out after {self.timeout:.3f} s waiting for "
                    f"{kind!r}" + (f" of session {session_id!r}" if session_id else "")
                )
            if self._wait_readable(remaining):
                self._recv_once()

    def _take_mail(self, kind: str, session_id: str | None):
        for i, (mail_kind, mail_sid, payload) in enumerate(self._mail):
            if mail_kind == "error" and mail_sid in ("", session_id):
                del self._mail[i]
                raise RemoteError(payload)
            if mail_kind == kind and (
                session_id is None or mail_sid == session_id
            ):
                del self._mail[i]
                return payload
        return None

    # -- frame handling --------------------------------------------------

    def _handle(self, message) -> None:
        if isinstance(message, list):  # the sections of an EVENTS frame
            self._handle_events(message)
        elif isinstance(message, wire.HelloOk):
            self._mail.append(("hello_ok", "", message))
        elif isinstance(message, wire.OpenOk):
            self._mail.append(("open_ok", message.session_id, message))
        elif isinstance(message, wire.ResumeOk):
            self._mail.append(("resume_ok", message.session_id, message))
        elif isinstance(message, wire.MigrateOk):
            self._mail.append(("migrate_ok", message.session_id, message))
        elif isinstance(message, wire.StatsOk):
            self._mail.append(("stats_ok", "", message))
        elif isinstance(message, wire.Error):
            if message.sync:
                self._mail.append(("error", message.session_id, message.message))
            else:
                self._errors[message.session_id] = message.message
        else:
            raise wire.ProtocolError(
                f"unexpected {type(message).__name__} frame from server"
            )

    def _handle_events(self, sections: list) -> None:
        for section in sections:
            sess = self._sessions.get(section.session_id)
            if sess is not None:
                # Dedupe against what we already have: a resume replay
                # starts exactly at our ack, but be defensive about
                # overlap; a gap is a protocol violation.
                skip = sess.events_received - section.base_index
                if skip < 0:
                    raise wire.ProtocolError(
                        f"event gap for {section.session_id!r}: have "
                        f"{sess.events_received}, section starts at {section.base_index}"
                    )
                fresh = section.events[skip:] if skip else section.events
                sess.buffered.extend(fresh)
                sess.events_received += len(fresh)
                while sess.pending and sess.pending[0][0] < section.acked_seq:
                    sess.pending.popleft()
            if section.flags & wire.FLAG_SYNC:
                self._mail.append(("sync", section.session_id, section))
            if section.flags & wire.FLAG_FINAL:
                self._mail.append(("final", section.session_id, section))
