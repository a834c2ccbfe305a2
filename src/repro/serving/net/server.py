"""Asyncio socket server fronting a session gateway.

:class:`GatewayServer` exposes a :class:`~repro.serving.gateway.StreamGateway`
(or a :class:`~repro.serving.sharded.ShardedGateway` — anything with the
open/ingest_round/poll/close/release/import session surface) over the
framed binary protocol of :mod:`repro.serving.net.protocol`, one
asyncio task pair per connection:

* the **reader** task decodes each socket read's frames in order and
  dispatches them against the gateway.  Ingest is pipelined and
  batched: the consecutive ``INGEST`` frames of one read form a
  **round** (at most one chunk per session; a repeat starts the next
  round), applied by one ``gateway.ingest_round`` call — on a sharded
  gateway that is one pipe message per worker.  No client-side round
  or round frame is needed: the rounds come from the byte stream;
* **each applied round is acknowledged in one frame**: an ``EVENTS``
  frame with one section per accepted chunk, carrying its session's
  ``acked_seq`` and whatever events are already resolved — empty when
  there are none — so a pipelined client's window drains as fast as
  chunks apply, without a per-chunk round trip or a ``POLL`` barrier.
  A refused chunk gets an asynchronous ``ERROR`` in the same burst;
* the **writer** task drains a bounded per-connection queue, joining
  everything queued into a single ``write()`` per wakeup — so all the
  events a gateway flush resolved leave as **one framed burst** per
  connection (the writev-style coalescing the wire-speed design calls
  for), with ``TCP_NODELAY`` set so the burst departs immediately.

Backpressure end to end: the writer queue is bounded, so a slow reader
stalls the writer, which stalls the reader task's ``put``, which stops
reading the socket — TCP flow control then pushes back on the client,
whose pipelining window bounds its chunks in flight.  No tier buffers
unboundedly.

**Flush coalescing**: when the fronted gateway exposes ``n_flushes``
(the single-process tier does), the server detects
that a round triggered a cross-session flush and immediately harvests
*every* tracked session's newly resolved events — batching them into
one burst per owning connection instead of waiting for each session's
next ingest.  Process-mode sharded gateways deliver per-session on
their own pipelined responses, so no harvest is needed (or possible)
there.

**Idle eviction and analytics**: after each round the server drains
the gateway's evicted sessions and stops tracking them, and drops its
queued alerts and closed-session summaries; the wire carries none of
them (the ``STATS`` rollup still counts them).

**Reconnect-resume**: sessions survive their connection.  When a
connection dies, every session it owns is **parked**: it stays open in
its gateway — journaled, batched and idle-evicted like any other open
session — and the server only forgets which connection owns it, keeping
its chunk sequence number and its delivered-but-unacknowledged events.
A client that reconnects and sends ``RESUME`` adopts the session again
bit-exactly: ``RESUME_OK`` tells it the next chunk sequence the server
expects (so it retransmits exactly the chunks that were lost in flight)
and a replay ``EVENTS`` frame re-sends exactly the events it never
acknowledged; events resolved while it was parked wait in the gateway
for its next call.  The chaos suite pins that a forced mid-stream
disconnect is invisible in the per-session event sequence.  The server
writes no journal itself: a journaling gateway keeps every session it
holds durable, parked ones included.

:func:`serve_in_thread` runs a server on a background event-loop
thread — the harness the benchmarks, the chaos suite and the
``repro serve --listen`` CLI all build on.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import threading
from dataclasses import dataclass, replace

from repro.serving.net import protocol as wire

__all__ = ["GatewayServer", "ServerHandle", "serve_in_thread"]

#: Default bound on a connection's outgoing queue (bursts, not bytes).
DEFAULT_QUEUE_BURSTS = 64

#: Socket read size for the bulk reader loop.
_READ_BUF = 1 << 16

#: Request failures reported to the client as an ``ERROR`` frame (a
#: :class:`~repro.serving.net.protocol.ProtocolError` is a ValueError).
_REPORTED = (KeyError, ValueError, RuntimeError)


class _NetSession:
    """Server-side reliability state for one session open in the gateway.

    ``owner`` is the connection that owns the session, or ``None``
    while it is parked (its connection died; the session stays open in
    the gateway until a ``RESUME`` adopts it); ``seq`` counts the
    chunks the gateway has processed (the next expected
    :attr:`~repro.serving.net.protocol.Ingest.seq`);
    ``delivered`` counts the events written toward the client;
    ``retained`` keeps the delivered-but-unacknowledged tail for
    resume replay (bounded by the client's acks, which ride on every
    ingest/poll/close/resume frame).
    """

    __slots__ = ("session_id", "owner", "seq", "delivered", "retained")

    def __init__(self, session_id: str, owner: _Connection):
        self.session_id = session_id
        self.owner: _Connection | None = owner
        self.seq = 0
        self.delivered = 0
        self.retained: list = []

    @property
    def retained_base(self) -> int:
        """Stream index of the first retained (unacked) event."""
        return self.delivered - len(self.retained)

    def ack(self, n_received: int) -> None:
        """Drop retained events the client has confirmed receiving."""
        drop = n_received - self.retained_base
        if drop > 0:
            del self.retained[:drop]

    def deliver(self, events: list) -> None:
        self.retained.extend(events)
        self.delivered += len(events)

    def replay_from(self, n_received: int) -> list:
        start = n_received - self.retained_base
        if start < 0:
            raise wire.ProtocolError(
                f"cannot resume {self.session_id!r}: events "
                f"[{n_received}, {self.retained_base}) are no longer retained"
            )
        return self.retained[start:]


class _Connection:
    """Per-connection bookkeeping: the outgoing queue, and the bound on
    the ``EVENTS`` frames sent to the peer (the smaller of the server's
    and the peer's ``HELLO`` ``max_frame``)."""

    def __init__(self, queue_bursts: int, max_frame: int):
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_bursts)
        self.alive = True
        self.max_frame = max_frame

    async def send_burst(self, frames: list[bytes]) -> None:
        if frames and self.alive:
            await self.queue.put(b"".join(frames))


class GatewayServer:
    """Serve a session gateway over the framed binary wire protocol.

    Parameters
    ----------
    gateway:
        The fronted gateway — opened sessions, chunk ingestion and
        event resolution all happen here, in the server's thread.
    host / port:
        Listen address; ``port=0`` picks an ephemeral port (read the
        bound address back from :attr:`address` after :meth:`start`).
    max_frame:
        Payload bound for both directions, advertised in the
        ``HELLO_OK`` handshake and enforced on every incoming length
        prefix before allocation.  A round's ``EVENTS`` sections split
        across frames to stay within it, or within the client's
        ``HELLO`` bound where that is smaller.
    queue_bursts:
        Outgoing-queue bound per connection (coalesced bursts); the
        server-side backpressure knob for slow readers.
    """

    def __init__(
        self,
        gateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        queue_bursts: int = DEFAULT_QUEUE_BURSTS,
    ):
        self.gateway = gateway
        #: The fronted gateway's lead count (0 = unknown), sent to the
        #: client on every session it adopts so it can refuse a
        #: wrong-shape chunk before sequencing it.
        self._n_leads = int(getattr(gateway, "n_leads", 0))
        self.host = host
        self.port = port
        self.max_frame = int(max_frame)
        self.queue_bursts = int(queue_bursts)
        self._server: asyncio.AbstractServer | None = None
        #: Live connection handlers and their transports, for stop().
        self._handlers: dict[asyncio.Task, asyncio.Transport] = {}
        self._sessions: dict[str, _NetSession] = {}
        self.n_connections = 0
        self.n_resumes = 0
        self.n_migrations_in = 0
        self.n_migrations_out = 0
        #: TCP_NODELAY readback from the most recently accepted socket
        #: (``None`` until a connection arrives) — regression-test seam.
        self.last_accept_nodelay: bool | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return (self.host, self.port)

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; return the address."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close the listening socket and end every live
        connection: its transport is closed and its handler parks its
        sessions, as for a client that hung up."""
        if self._server is not None:
            self._server.close()
            handlers = dict(self._handlers)
            for transport in handlers.values():
                transport.abort()
            if handlers:
                # Bounded: a handler stuck behind a full queue is left
                # to the caller's cancellation.
                await asyncio.wait(handlers, timeout=1.0)
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # -- connection lifecycle -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.last_accept_nodelay = bool(
                sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
        self.n_connections += 1
        handler = asyncio.current_task()
        self._handlers[handler] = writer.transport
        conn = _Connection(self.queue_bursts, self.max_frame)
        writer_task = asyncio.ensure_future(self._writer_loop(conn, writer))
        try:
            await self._reader_loop(conn, reader)
        except (
            wire.ProtocolError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            pass  # the connection is unusable; park and move on
        finally:
            conn.alive = False
            self._park_connection(conn)
            writer_task.cancel()
            try:
                await writer_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            # Parting frames (e.g. the pre-handshake refusal) may still
            # sit in the queue if the writer was cancelled between
            # wakeups: flush them best-effort before closing.
            try:
                tail = []
                while not conn.queue.empty():
                    tail.append(conn.queue.get_nowait())
                if tail:
                    writer.write(b"".join(tail))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            del self._handlers[handler]

    async def _writer_loop(self, conn: _Connection, writer) -> None:
        """Drain the queue, joining everything pending into one write.

        The single ``write`` + ``drain`` per wakeup is the coalescing
        burst; ``drain`` blocking on a slow reader is the backpressure
        seam (the bounded queue then stalls the reader task).
        """
        queue = conn.queue
        while True:
            burst = [await queue.get()]
            while not queue.empty():
                burst.append(queue.get_nowait())
            writer.write(b"".join(burst))
            await writer.drain()

    async def _reader_loop(self, conn: _Connection, reader) -> None:
        # Bulk reads through the incremental FrameDecoder: one await
        # per socket buffer, not two per frame — at wire-speed chunk
        # rates the per-frame event-loop round trips dominate the
        # server's transport cost.
        decoder = wire.FrameDecoder(self.max_frame)
        greeted = False
        while True:
            data = await reader.read(_READ_BUF)
            if not data:
                if decoder.pending_bytes:
                    raise wire.ProtocolError("connection closed mid-frame")
                return
            # Consecutive INGEST frames of one read form a round: one
            # gateway call for all of them.  A round holds at most one
            # chunk per session, so each chunk's sequence check sees
            # the outcome of the session's previous chunk.
            round_: dict[str, wire.Ingest] = {}
            for payload in decoder.feed(data):
                message = wire.decode(payload)
                if not greeted:
                    if not isinstance(message, wire.Hello):
                        await conn.send_burst(
                            [self._frame(
                                wire.encode_error("", "expected HELLO", sync=True)
                            )]
                        )
                        return
                    conn.max_frame = min(self.max_frame, message.max_frame)
                    await conn.send_burst(
                        [self._frame(wire.encode_hello_ok(self.max_frame))]
                    )
                    greeted = True
                    continue
                is_ingest = isinstance(message, wire.Ingest)
                if round_ and (not is_ingest or message.session_id in round_):
                    await self._on_ingest_round(conn, list(round_.values()))
                    round_ = {}
                if is_ingest:
                    round_[message.session_id] = message
                else:
                    await self._dispatch(conn, message)
            if round_:
                await self._on_ingest_round(conn, list(round_.values()))

    def _park_connection(self, conn: _Connection) -> None:
        """Park every session the dead connection owned.

        Only the ownership goes: each session stays open in the
        gateway, which keeps resolving (and, if it journals, journaling)
        it, and its reliability state keeps the delivered-but-unacked
        tail for the ``RESUME`` that adopts it again.
        """
        for state in self._sessions.values():
            if state.owner is conn:
                state.owner = None

    # -- dispatch --------------------------------------------------------

    def _frame(self, payload: bytes) -> bytes:
        return wire.pack_frame(payload, self.max_frame)

    def _error_frame(self, session_id: str, exc: Exception, *, sync: bool) -> bytes:
        return self._frame(wire.encode_error(session_id, str(exc), sync=sync))

    async def _dispatch(self, conn: _Connection, message) -> None:
        """Serve one synchronous (non-``INGEST``) frame."""
        session_id = getattr(message, "session_id", "")
        try:
            if isinstance(message, wire.Open):
                await self._on_open(conn, message)
            elif isinstance(message, wire.Poll):
                await self._on_poll(conn, message)
            elif isinstance(message, wire.Close):
                await self._on_close(conn, message)
            elif isinstance(message, wire.Resume):
                await self._on_resume(conn, message)
            elif isinstance(message, wire.Migrate):
                await self._on_migrate(conn, message)
            elif isinstance(message, wire.Stats):
                await self._on_stats(conn)
            else:
                raise wire.ProtocolError(
                    f"unexpected {type(message).__name__} frame from client"
                )
        except _REPORTED as exc:
            await conn.send_burst([self._error_frame(session_id, exc, sync=True)])

    def _owned_state(self, conn: _Connection, session_id: str) -> _NetSession:
        state = self._sessions.get(session_id)
        if state is None or state.owner is not conn:
            raise KeyError(f"no open session {session_id!r} on this connection")
        return state

    async def _on_open(self, conn: _Connection, message: wire.Open) -> None:
        self.gateway.open_session(
            message.session_id,
            max_latency_ticks=message.max_latency_ticks,
            evict_after_ticks=message.evict_after_ticks,
        )
        self._sessions[message.session_id] = _NetSession(message.session_id, conn)
        await conn.send_burst(
            [self._frame(wire.encode_open_ok(message.session_id, self._n_leads))]
        )

    async def _on_ingest_round(self, conn: _Connection, messages: list) -> None:
        """Apply one round of ``INGEST`` frames in one gateway call.

        Each frame first passes the per-frame checks: the session is
        owned here, its piggybacked ack trims the replay tail, a
        duplicate retransmit is only acknowledged again and a sequence
        gap is refused.  The accepted chunks then go to
        ``gateway.ingest_round``.  The round is acknowledged by one
        ``EVENTS`` frame holding a section per accepted chunk that
        applied (carrying ``acked_seq``, empty when it resolved no
        events) and per duplicate, so a pipelined client never fills
        its window for want of an ack.  A refused or failed chunk gets
        an asynchronous ``ERROR`` in the same burst and does not
        advance the session's sequence; a round holds at most one
        chunk per session, so each session gets exactly one reply.
        """
        sections: list = []  # (state, events) per acknowledged chunk
        errors: list[bytes] = []
        accepted: list[_NetSession] = []
        items = []
        for message in messages:
            session_id = message.session_id
            try:
                state = self._owned_state(conn, session_id)
                state.ack(message.ack_events)
                if message.seq < state.seq:
                    # A duplicate retransmit of an applied chunk: only
                    # acknowledged again.
                    sections.append((state, []))
                    continue
                if message.seq > state.seq:
                    raise wire.ProtocolError(
                        f"ingest gap for {session_id!r}: expected seq "
                        f"{state.seq}, got {message.seq}"
                    )
            except _REPORTED as exc:
                errors.append(self._error_frame(session_id, exc, sync=False))
                continue
            accepted.append(state)
            items.append((session_id, message.chunk))
        flushes_before = getattr(self.gateway, "n_flushes", None)
        results = self.gateway.ingest_round(items) if items else ()
        self._drain_gateway()
        for state, result in zip(accepted, results):
            if isinstance(result, _REPORTED):
                errors.append(self._error_frame(state.session_id, result, sync=False))
            elif isinstance(result, Exception):
                raise result
            else:
                state.seq += 1
                sections.append((state, result))
        await conn.send_burst(self._events_frames(conn, sections) + errors)
        if flushes_before is not None and self.gateway.n_flushes != flushes_before:
            await self._harvest_flush()

    def _drain_gateway(self) -> None:
        """Empty the gateway's ``take_*`` queues, once per round and
        once per close.

        The sessions it evicted (parked ones included) leave the
        session map, so no later call names them; a frame for one then
        gets the error a closed id gets.  Alerts and closed-session
        summaries are dropped: the wire has no frame for them, and
        left queued they would grow without bound."""
        for session_id in self.gateway.take_evicted():
            self._sessions.pop(session_id, None)
        self.gateway.take_alerts()
        self.gateway.take_summaries()

    async def _harvest_flush(self) -> None:
        """Ship every session's newly resolved events after a flush.

        One ``EVENTS`` frame per owning connection — the events a single
        batched classifier pass resolved leave the box together instead
        of trickling out on each session's next ingest.  A parked
        session's events wait in the gateway until it is resumed.
        """
        per_conn: dict[int, tuple[_Connection, list]] = {}
        for session_id, state in self._sessions.items():
            owner = state.owner
            if owner is None:
                continue
            events = self.gateway.poll(session_id)
            if not events:
                continue
            per_conn.setdefault(id(owner), (owner, []))[1].append((state, events))
        for owner, sections in per_conn.values():
            await owner.send_burst(self._events_frames(owner, sections))

    async def _on_poll(self, conn: _Connection, message: wire.Poll) -> None:
        state = self._owned_state(conn, message.session_id)
        state.ack(message.ack_events)
        events = self.gateway.poll(message.session_id)
        await conn.send_burst(
            self._events_frames(conn, [(state, events)], flags=wire.FLAG_SYNC)
        )

    async def _on_close(self, conn: _Connection, message: wire.Close) -> None:
        state = self._owned_state(conn, message.session_id)
        state.ack(message.ack_events)
        events = self.gateway.close_session(message.session_id)
        frames = self._events_frames(conn, [(state, events)], flags=wire.FLAG_FINAL)
        del self._sessions[message.session_id]
        await conn.send_burst(frames)
        self._drain_gateway()  # the close left a summary (and alerts)

    async def _on_resume(self, conn: _Connection, message: wire.Resume) -> None:
        """Adopt a parked session on this connection.

        The session may also still belong to a connection that has not
        been reaped yet (an abrupt disconnect is only detected on its
        next read): it is taken over, and the stale owner loses it.
        The reply burst is ``RESUME_OK`` (carrying ``next_seq``, the
        chunk count already processed — the client retransmits from
        there) followed by a one-section replay ``EVENTS`` frame holding
        exactly the events the client has not acknowledged.
        """
        session_id = message.session_id
        state = self._sessions.get(session_id)
        if state is None:
            raise KeyError(f"no parked or live session {session_id!r} to resume")
        replay = state.replay_from(message.ack_events)
        state.ack(message.ack_events)
        state.owner = conn
        self.n_resumes += 1
        section = wire.Events(session_id, state.seq, message.ack_events, 0, replay)
        await conn.send_burst([
            self._frame(wire.encode_resume_ok(session_id, state.seq, self._n_leads)),
            self._frame(wire.encode_events([section])),
        ])

    async def _on_migrate(self, conn: _Connection, message: wire.Migrate) -> None:
        """Ship a session out of — or import one into — this host.

        A ``MIGRATE`` without a blob releases the session via the
        gateway's migration path and returns its capture inside
        ``MIGRATE_OK``; the events the client never acknowledged (its
        ``ack_events`` tells us where its receive count stood when it
        initiated the move) are prepended to the export's pending
        events, so the importing host redelivers them from that exact
        index and the client-side dedupe seam lines up.  A ``MIGRATE``
        carrying a blob unpickles and imports it, adopting the session
        on this connection with the delivery index starting at
        ``ack_events``.
        """
        session_id = message.session_id
        if message.blob is not None:
            export = pickle.loads(message.blob)
            self.gateway.import_session(export)
            state = _NetSession(session_id, conn)
            state.delivered = message.ack_events
            self._sessions[session_id] = state
            self.n_migrations_in += 1
            await conn.send_burst(
                [self._frame(
                    wire.encode_migrate_ok(session_id, state.seq, n_leads=self._n_leads)
                )]
            )
            return
        state = self._owned_state(conn, session_id)
        replay = state.replay_from(message.ack_events)
        export = self.gateway.release_session(session_id)
        if replay:
            export = replace(export, events=list(replay) + list(export.events))
        del self._sessions[session_id]
        self.n_migrations_out += 1
        blob = pickle.dumps(export, protocol=pickle.HIGHEST_PROTOCOL)
        await conn.send_burst(
            [self._frame(wire.encode_migrate_ok(session_id, state.seq, blob))]
        )

    async def _on_stats(self, conn: _Connection) -> None:
        """Reply with the gateway's schema-pinned ``stats()`` snapshot as
        ``STATS_OK`` (every gateway tier answers the same shape)."""
        await conn.send_burst([self._frame(wire.encode_stats_ok(self.gateway.stats()))])

    def _events_frames(
        self, conn: _Connection, sections: list, *, flags: int = 0
    ) -> list[bytes]:
        """``EVENTS`` frames for ``(state, events)`` sections, each
        stamped with its session's ``acked_seq`` and ``base_index``; the
        events count as delivered.  One frame, unless it would pass the
        connection's ``max_frame``: then the sections split in halves."""
        if not sections:
            return []
        payload = wire.encode_events([
            wire.Events(state.session_id, state.seq, state.delivered, flags, events)
            for state, events in sections
        ])
        if len(payload) > conn.max_frame and len(sections) > 1:
            half = len(sections) // 2
            head = self._events_frames(conn, sections[:half], flags=flags)
            return head + self._events_frames(conn, sections[half:], flags=flags)
        frame = self._frame(payload)
        for state, events in sections:
            state.deliver(events)
        return [frame]


@dataclass
class ServerHandle:
    """A running background server: address + lifecycle control."""

    host: str
    port: int
    server: GatewayServer
    _loop: asyncio.AbstractEventLoop
    _thread: threading.Thread

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server and join its event-loop thread."""
        loop = self._loop

        def _shutdown() -> None:
            task = asyncio.ensure_future(self.server.stop())
            task.add_done_callback(lambda _: loop.stop())

        if self._thread.is_alive():
            loop.call_soon_threadsafe(_shutdown)
            self._thread.join(timeout)
        if not loop.is_closed():
            loop.close()


def serve_in_thread(
    gateway,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_frame: int = wire.DEFAULT_MAX_FRAME,
    queue_bursts: int = DEFAULT_QUEUE_BURSTS,
) -> ServerHandle:
    """Run a :class:`GatewayServer` on a background event-loop thread.

    Returns once the listening socket is bound, with the resolved
    address on the handle.  The gateway is driven exclusively from the
    server thread; call :meth:`ServerHandle.stop` to shut down.
    """
    server = GatewayServer(
        gateway,
        host=host,
        port=port,
        max_frame=max_frame,
        queue_bursts=queue_bursts,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            # Cancel whatever connection tasks are still alive so the
            # loop can close without "task was destroyed" noise.
            for task in asyncio.all_tasks(loop):
                task.cancel()
            try:
                loop.run_until_complete(
                    asyncio.gather(*asyncio.all_tasks(loop), return_exceptions=True)
                )
            except RuntimeError:  # pragma: no cover - loop already closing
                pass

    thread = threading.Thread(target=_run, name="repro-net-server", daemon=True)
    thread.start()
    if not started.wait(10.0):  # pragma: no cover - defensive
        raise RuntimeError("gateway server failed to start within 10 s")
    return ServerHandle(
        host=server.host, port=server.port, server=server, _loop=loop, _thread=thread
    )
