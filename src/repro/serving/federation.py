"""Multi-host federation: a gateway-of-gateways front door.

:class:`FederatedGateway` is the horizontal-scale tier above
:mod:`repro.serving.net`: it places live sessions across N backend
**hosts** — each a :class:`~repro.serving.net.server.GatewayServer`
fronting a gateway tier of its own — and mirrors the gateway session
surface (``open_session`` / ``ingest`` / ``poll`` / ``close_session``),
so every fleet driver (:func:`~repro.serving.gateway.serve_round_robin`,
:func:`~repro.serving.loadgen.replay_fleet`, the benchmarks) scales out
unchanged.

Throughput comes from keeping **every host's client pipeline full**:
each host is reached through its own pipelined
:class:`~repro.serving.net.client.GatewayClient` connection, so a
round-robin ingest pass fans chunks out across hosts back to back —
each chunk rides its host's in-flight window without waiting on any
other host's round trip (no cross-host head-of-line blocking), and
events drain opportunistically once per call on whichever connection
they arrive.  Aggregate events/sec then scales with hosts until the
producer core saturates — ``benchmarks/test_federation_throughput.py``
pins >= 1.5x for 2 hosts vs 1 on the 2-core CI job.

Placement, live migration, the lossless ``retire_host`` drain (the
rolling-restart primitive: drain, restart the box, ``add_host`` it
back) and the fleet ``stats()`` rollup are the
:class:`~repro.serving.pool.MemberPool` this tier shares with the
sharded one — :mod:`repro.serving.pool` describes them, with hosts as
the members.  What is particular to the wire:

* **cross-host migration** — a ``MIGRATE`` frame captures the session
  off the source host (the server pickles its ``SessionExport``,
  prepending the events the client never acknowledged) and a second
  ``MIGRATE`` imports it on the target, restarting the delivery index
  at the capture point so the client-side dedupe keeps the event
  sequence exact.

Per-session **bit-exactness** extends across the fleet: whatever hosts
served whatever prefixes of a session — through placement, cross-host
migration, host retirement and reconnect-resume — its event sequence
is identical to a standalone :class:`~repro.dsp.streaming.StreamingNode`
(``tests/serving/test_federation_chaos.py`` pins it under seeded
interleavings).

:func:`spawn_host` launches a backend host as a separate OS process
(its own event loop, its own gateway, its own core) and reports the
bound address back — the harness ``repro federate`` and the federation
benchmark build their local fleets on.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from dataclasses import dataclass

from repro.serving.gateway import StreamGateway
from repro.serving.net.client import GatewayClient, RemoteError
from repro.serving.net.server import GatewayServer
from repro.serving.pool import MemberPool
from repro.serving.sharded import ShardedGateway

__all__ = ["FederatedGateway", "HostProcess", "spawn_host"]


def _endpoint(spec) -> tuple[str, int]:
    """Normalize one host endpoint: ``"host:port"`` or ``(host, port)``.

    Bracketed IPv6 literals (``"[::1]:9000"``) parse to the bare
    address (``"::1"``) — the form the socket layer connects to.
    """
    if isinstance(spec, str):
        host, _, port = spec.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        if not host or not port.isdigit():
            raise ValueError(f"endpoint must be 'host:port', got {spec!r}")
        return host, int(port)
    host, port = spec
    return str(host), int(port)


class FederatedGateway(MemberPool):
    """Route live sessions across a fleet of gateway hosts.

    :meth:`shutdown` drops every host connection; sessions still open
    are parked on their hosts via the servers' disconnect path, so a
    later front door (or client) can resume them — call
    :meth:`close_session` first for clean ends.

    Parameters
    ----------
    endpoints:
        The backend host addresses — ``"host:port"`` strings or
        ``(host, port)`` pairs, one per
        :class:`~repro.serving.net.server.GatewayServer`.  A client
        connection is established to each immediately.
    placement:
        Cross-host placement policy for new sessions, one of
        :data:`~repro.serving.executors.PLACEMENTS` (default
        ``"least-loaded"`` — joins land on the emptiest host, which
        favors a freshly attached one).  An explicit ``host=`` at
        :meth:`open_session` always wins.
    window / send_buffer / timeout:
        Forwarded to every per-host
        :class:`~repro.serving.net.client.GatewayClient` (pipelining
        depth, write coalescing, sync-wait bound).
    client_kwargs:
        Extra keyword arguments for the per-host clients (injectable
        clocks, ``max_retries``, ...).
    """

    member = "host"
    index_error = "host index {index} out of range for {n} hosts"

    def __init__(
        self,
        endpoints,
        *,
        placement: str = "least-loaded",
        window: int = 8,
        send_buffer: int = 0,
        timeout: float = 30.0,
        client_kwargs: dict | None = None,
    ):
        super().__init__(placement)
        self._client_kwargs = dict(
            window=window,
            send_buffer=send_buffer,
            timeout=timeout,
        )
        self._client_kwargs.update(client_kwargs or {})
        self._clients: list[GatewayClient] = []
        #: Events surfaced while a session was mid-migration (the
        #: source host's final deliveries) — returned ahead of the
        #: session's next ingest/poll/close result so the caller's
        #: event sequence stays gapless.
        self._residue: dict[str, list] = {}
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("federation needs at least one host endpoint")
        for spec in endpoints:
            self._connect(spec)

    # -- fleet introspection ---------------------------------------------

    @property
    def workers(self) -> int:
        """Number of attached hosts (``hosts`` is the same count; the
        pool code reads this name)."""
        return len(self._clients)

    hosts = workers

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """The attached hosts' addresses, in index order."""
        return [(c.host, c.port) for c in self._clients]

    #: Index of the host currently serving a session; ``worker_of``
    #: reads placement the same way for drivers written against the
    #: sharded surface.
    host_of = MemberPool.worker_of

    def _with_residue(self, session_id: str, returned: list) -> list:
        """Prefix a session's events with its migration residue."""
        residue = self._residue.pop(session_id, None)
        return returned if residue is None else residue + returned

    # -- session surface -------------------------------------------------

    def open_session(
        self,
        session_id: str,
        *,
        max_latency_ticks: int | None = None,
        evict_after_ticks: int | None = None,
        host: int | None = None,
    ) -> None:
        """Open a session on its policy-placed (or explicit) host."""
        index = self._pick(session_id, host)
        self._clients[index].open_session(
            session_id,
            max_latency_ticks=max_latency_ticks,
            evict_after_ticks=evict_after_ticks,
        )
        self._owner[session_id] = index

    def ingest(self, session_id: str, chunk) -> list:
        """Route one chunk to the session's host; return resolved events.

        Pipelined end to end: the chunk enters the owning host's
        in-flight window and the call returns immediately with
        whatever events that host's connection has already delivered
        (plus any migration residue) — a round-robin pass therefore
        keeps every host's pipeline full concurrently.
        """
        index = self._owner_or_raise(session_id)
        return self._with_residue(session_id, self._clients[index].ingest(session_id, chunk))

    def poll(self, session_id: str) -> list:
        """Synchronize with the session's host; return its events."""
        index = self._owner_or_raise(session_id)
        return self._with_residue(session_id, self._clients[index].poll(session_id))

    def close_session(self, session_id: str) -> list:
        """End a session; return the remainder of its event sequence."""
        index = self._owner_or_raise(session_id)
        returned = self._clients[index].close_session(session_id)
        del self._owner[session_id]
        return self._with_residue(session_id, returned)

    # -- cross-host migration + elasticity -------------------------------

    def migrate_session(self, session_id: str, host: int) -> None:
        """Move a live session to another host, mid-stream (a no-op if
        it is already there); see :mod:`repro.serving.pool`.  Events the
        source host delivered during the move surface on the session's
        next call."""
        self._migrate(session_id, host)

    def _release(self, index: int, session_id: str):
        client = self._clients[index]
        try:
            migrated = client.migrate_out(session_id)
        except RemoteError as exc:
            if "no open session" not in str(exc):
                raise
            # Evicted or closed server-side, unseen by this front door:
            # it ends here too (the drain skips it).
            client.discard_session(session_id)
            self._forget(session_id)
            raise KeyError(f"no open session {session_id!r}") from None
        if migrated.events:
            self._residue.setdefault(session_id, []).extend(migrated.events)
        return migrated

    def _import(self, index: int, session_id: str, migrated) -> None:
        self._clients[index].migrate_in(migrated)

    def add_host(self, endpoint) -> int:
        """Attach (and connect to) one more, empty, backend host; return
        its index."""
        self._check_open()
        self._connect(endpoint)
        return self._added()

    def _connect(self, endpoint) -> None:
        host, port = _endpoint(endpoint)
        client = GatewayClient(host, port, **self._client_kwargs)
        client.connect()
        self._clients.append(client)

    def retire_host(self, host: int) -> int:
        """Detach one host after draining its sessions losslessly onto
        the others over the wire; return the number migrated.  See
        :mod:`repro.serving.pool`."""
        return self._retire(host)

    def _detach(self, index: int) -> None:
        self._clients.pop(index).close()

    def _member_stats(self, index: int) -> dict:
        # Each host answers its own schema-pinned stats() over the
        # wire (STATS / STATS_OK).
        return self._clients[index].stats()

    def _forget(self, session_id: str) -> None:
        super()._forget(session_id)
        self._residue.pop(session_id, None)

    def _close_members(self) -> None:
        for client in self._clients:
            client.close()


# -- local host processes -------------------------------------------------


@dataclass
class HostProcess:
    """A backend gateway host running as a separate OS process."""

    host: str
    port: int
    process: multiprocessing.Process

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate the host process and reap it."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)


def _host_main(
    conn,
    classifier,
    fs,
    workers,
    gateway_kwargs,
    host,
    port,
) -> None:
    """Child-process entry: build the gateway tier, serve forever.

    Reports the bound ``(host, port)`` back through ``conn`` once the
    listening socket is up.  With ``workers > 1`` the host fronts a
    :class:`~repro.serving.sharded.ShardedGateway`.
    """
    gateway_kwargs = dict(gateway_kwargs or {})
    if workers > 1:
        gateway = ShardedGateway(
            classifier, fs, workers=workers, **gateway_kwargs
        )
    else:
        gateway = StreamGateway(classifier, fs, **gateway_kwargs)
    server = GatewayServer(gateway, host=host, port=port)

    async def _run() -> None:
        address = await server.start()
        conn.send(address)
        conn.close()
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
        pass
    finally:
        shutdown = getattr(gateway, "shutdown", None)
        if shutdown is not None:
            shutdown()


def spawn_host(
    classifier,
    fs: float,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    worker_mode: str = "process",
    gateway_kwargs: dict | None = None,
    start_timeout: float = 60.0,
) -> HostProcess:
    """Launch one backend gateway host in its own OS process.

    The child builds a :class:`~repro.serving.gateway.StreamGateway`
    (``workers == 1``) or :class:`~repro.serving.sharded.ShardedGateway`
    (``workers > 1``), serves it through a
    :class:`~repro.serving.net.server.GatewayServer`, and reports the
    bound address back — available as :attr:`HostProcess.address` when
    this returns.  ``gateway_kwargs`` pass through to the gateway
    constructor (e.g. ``max_batch`` / ``max_latency_ticks`` for
    wire-speed batching).

    Separate processes are the point: each host owns a core, so a
    :class:`FederatedGateway` over N local hosts measures genuine
    horizontal scale-out (the federation benchmark's 1-vs-2-host
    ratio), and ``repro federate`` demos the fleet on one box.
    ``worker_mode`` accepts only ``"process"``: sharded workers are
    always worker processes.
    """
    if worker_mode != "process":
        raise ValueError(
            f"worker_mode must be 'process', got {worker_mode!r}"
        )
    ctx = multiprocessing.get_context()
    parent, child = ctx.Pipe()
    # Worker processes are grandchildren — a daemonic host could not
    # spawn them, so only single-process hosts run daemonic.
    daemon = workers == 1
    process = ctx.Process(
        target=_host_main,
        args=(
            child, classifier, fs, int(workers),
            gateway_kwargs, host, port,
        ),
        name="repro-fed-host",
        daemon=daemon,
    )
    process.start()
    child.close()
    if not parent.poll(start_timeout):
        process.terminate()
        process.join(5.0)
        raise RuntimeError(
            f"federation host failed to start within {start_timeout:.0f} s"
        )
    bound_host, bound_port = parent.recv()
    parent.close()
    return HostProcess(host=bound_host, port=bound_port, process=process)
