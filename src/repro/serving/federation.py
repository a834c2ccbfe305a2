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

The placement / rebalancing / drain story mirrors the sharded tier one
level up:

* **placement** — sessions land on hosts under the same policies
  (:data:`~repro.serving.executors.PLACEMENTS`): ``"hash"``,
  ``"least-loaded"`` (by open sessions), ``"round-robin"``;
* **cross-host migration** — :meth:`FederatedGateway.migrate_session`
  moves a live session between hosts over the wire: a ``MIGRATE``
  frame captures it off the source host (the server pickles its
  ``SessionExport``, prepending the events the client never
  acknowledged) and a second ``MIGRATE`` imports it on the target,
  restarting the delivery index at the capture point so the
  client-side dedupe keeps the event sequence exact;
* **two-level balancing** — :class:`~repro.serving.autoscale.AutoBalancer`
  plugs in unchanged as the **across-host** level (this class exposes
  the same ``workers`` / ``stats()`` / ``sessions_on`` /
  ``migrate_session`` surface, with hosts as the members), while each
  host can tick its own within-host balancer through the server's
  ``tick_hook`` seam — hysteresis at both levels, so neither tier
  ping-pongs sessions;
* **rolling restarts** — :meth:`FederatedGateway.retire_host` drains a
  host losslessly (live-migrating every session it owns onto the
  survivors via the configured placement) exactly like
  ``retire_worker``, and :meth:`FederatedGateway.add_host` attaches a
  fresh host mid-flight;
* **fleet stats** — :meth:`FederatedGateway.stats` rolls every host's
  schema-pinned ``stats()`` into one snapshot (summed counters +
  ``per_host``), the input the across-host policies read.

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
import zlib
from dataclasses import dataclass

from repro.serving.analytics import merge_rollups
from repro.serving.autoscale import AutoBalancer
from repro.serving.executors import validate_placement
from repro.serving.gateway import StreamGateway
from repro.serving.net.client import GatewayClient, RemoteError
from repro.serving.net.server import GatewayServer
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


class FederatedGateway:
    """Route live sessions across a fleet of gateway hosts.

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
    window / send_buffer / timeout / retry_budget:
        Forwarded to every per-host
        :class:`~repro.serving.net.client.GatewayClient` (pipelining
        depth, write coalescing, sync-wait bound, total-retry budget).
    client_kwargs:
        Extra keyword arguments for the per-host clients (injectable
        clocks, ``max_retries``, ...).
    """

    def __init__(
        self,
        endpoints,
        *,
        placement: str = "least-loaded",
        window: int = 8,
        send_buffer: int = 0,
        timeout: float = 30.0,
        retry_budget: float | None = None,
        client_kwargs: dict | None = None,
    ):
        validate_placement(placement)
        self.placement = placement
        self._client_kwargs = dict(
            window=window,
            send_buffer=send_buffer,
            timeout=timeout,
            retry_budget=retry_budget,
        )
        self._client_kwargs.update(client_kwargs or {})
        self._clients: list[GatewayClient] = []
        self._owner: dict[str, int] = {}
        #: Events surfaced while a session was mid-migration (the
        #: source host's final deliveries) — returned ahead of the
        #: session's next ingest/poll/close result so the caller's
        #: event sequence stays gapless.
        self._residue: dict[str, list] = {}
        self._rr_next = 0
        self._closed = False
        self.n_migrations = 0
        self.n_scale_events = 0
        endpoints = list(endpoints)
        if not endpoints:
            raise ValueError("federation needs at least one host endpoint")
        for spec in endpoints:
            self.add_host(spec, _initial=True)

    # -- fleet introspection ---------------------------------------------

    @property
    def hosts(self) -> int:
        """Number of attached hosts."""
        return len(self._clients)

    @property
    def workers(self) -> int:
        """Alias of :attr:`hosts` — the member count the across-host
        :class:`~repro.serving.autoscale.AutoBalancer` reads."""
        return len(self._clients)

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """The attached hosts' addresses, in index order."""
        return [(c.host, c.port) for c in self._clients]

    @property
    def n_sessions(self) -> int:
        """Sessions currently open through this front door."""
        return len(self._owner)

    def session_ids(self) -> list[str]:
        """Open session ids, in opening order."""
        return list(self._owner)

    def host_of(self, session_id: str) -> int:
        """Index of the host currently serving ``session_id``."""
        return self._owner_or_raise(session_id)

    #: Alias so host-level drivers written against the sharded surface
    #: (``worker_of``) read placement the same way.
    worker_of = host_of

    def sessions_on(self, host: int) -> list[str]:
        """Ids of the sessions currently placed on one host (opening
        order) — the candidate set the across-host balancer moves."""
        index = self._validate_host(host)
        return [sid for sid, owner in self._owner.items() if owner == index]

    def session_counts(self) -> list[int]:
        """Open sessions per host, from the router's placement map."""
        counts = [0] * self.hosts
        for owner in self._owner.values():
            counts[owner] += 1
        return counts

    # -- placement -------------------------------------------------------

    @staticmethod
    def _hash(session_id: str) -> int:
        """Stable session hash (CRC-32, not the salted ``hash``)."""
        return zlib.crc32(session_id.encode())

    def _place(self, session_id: str, exclude: int | None = None) -> int:
        """Pick a host for a session under the configured placement
        policy, optionally excluding one index (a draining host)."""
        candidates = [i for i in range(self.hosts) if i != exclude]
        if self.placement == "hash":
            return candidates[self._hash(session_id) % len(candidates)]
        if self.placement == "round-robin":
            index = candidates[self._rr_next % len(candidates)]
            self._rr_next += 1
            return index
        counts = self.session_counts()  # least-loaded, ties -> lowest index
        return min(candidates, key=lambda i: (counts[i], i))

    def _validate_host(self, host: int) -> int:
        index = int(host)
        if not 0 <= index < self.hosts:
            raise ValueError(
                f"host index {host} out of range for {self.hosts} hosts"
            )
        return index

    def _owner_or_raise(self, session_id: str) -> int:
        try:
            return self._owner[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("gateway is shut down")

    def _take_residue(self, session_id: str) -> list:
        events = self._residue.pop(session_id, None)
        return events if events is not None else []

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
        self._check_open()
        if session_id in self._owner:
            raise ValueError(f"session {session_id!r} is already open")
        index = self._place(session_id) if host is None else self._validate_host(host)
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
        returned = self._clients[index].ingest(session_id, chunk)
        if session_id in self._residue:
            return self._take_residue(session_id) + returned
        return returned

    def poll(self, session_id: str) -> list:
        """Synchronize with the session's host; return its events."""
        index = self._owner_or_raise(session_id)
        returned = self._clients[index].poll(session_id)
        if session_id in self._residue:
            return self._take_residue(session_id) + returned
        return returned

    def close_session(self, session_id: str) -> list:
        """End a session; return the remainder of its event sequence."""
        index = self._owner_or_raise(session_id)
        returned = self._clients[index].close_session(session_id)
        del self._owner[session_id]
        return self._take_residue(session_id) + returned

    # -- cross-host migration + elasticity -------------------------------

    def migrate_session(self, session_id: str, host: int) -> None:
        """Move a live session to another host, mid-stream.

        Wire-level ``MIGRATE`` capture on the current owner + import on
        the target: the session's event sequence is unaffected (events
        the source host delivered during the move are buffered as
        residue and surface on the session's next call), only its
        placement changes.  The across-host
        :class:`~repro.serving.autoscale.AutoBalancer` is this call
        driven by the fleet load statistics.
        """
        self._check_open()
        index = self._owner_or_raise(session_id)
        target = self._validate_host(host)
        if target == index:
            return
        self._move(session_id, index, target)

    def _move(self, session_id: str, index: int, target: int) -> None:
        migrated = self._clients[index].migrate_out(session_id)
        if migrated.events:
            self._residue.setdefault(session_id, []).extend(migrated.events)
        self._clients[target].migrate_in(migrated)
        self._owner[session_id] = target
        self.n_migrations += 1

    def add_host(self, endpoint, *, _initial: bool = False) -> int:
        """Attach (and connect to) one more backend host; return its
        index.  The new host starts empty — the across-host balancer
        migrates load onto it, and ``least-loaded`` placement favors
        it for new sessions immediately."""
        self._check_open()
        host, port = _endpoint(endpoint)
        client = GatewayClient(host, port, **self._client_kwargs)
        client.connect()
        self._clients.append(client)
        if not _initial:
            self.n_scale_events += 1
        return self.hosts - 1

    def retire_host(self, host: int) -> int:
        """Detach one host after draining it losslessly.

        Every session the host serves is live-migrated onto the
        remaining hosts via the configured placement policy — the same
        wire-level capture/import path as :meth:`migrate_session`, so
        per-session event sequences are unaffected.  Returns the
        number of sessions migrated.  Host indices above the retired
        one shift down by one.  The rolling-restart primitive: drain,
        restart the box, :meth:`add_host` it back.
        """
        self._check_open()
        index = self._validate_host(host)
        if self.hosts == 1:
            raise ValueError("cannot retire the last host")
        moved = 0
        for session_id in self.sessions_on(index):
            if self._owner.get(session_id) != index:
                continue  # closed under us mid-drain
            try:
                self._move(session_id, index, self._place(session_id, exclude=index))
            except (KeyError, RemoteError) as exc:
                # Evicted/closed server-side between the sessions_on
                # snapshot and the wire capture — the same race
                # ShardedGateway.retire_worker guards.  Skip the
                # session and keep draining; anything else is a real
                # failure and aborts the drain.
                if isinstance(exc, RemoteError) and "no open session" not in str(exc):
                    raise
                self._clients[index].discard_session(session_id)
                self._owner.pop(session_id, None)
                self._residue.pop(session_id, None)
                continue
            moved += 1
        client = self._clients.pop(index)
        client.close()
        self._owner = {
            sid: owner - 1 if owner > index else owner
            for sid, owner in self._owner.items()
        }
        self.n_scale_events += 1
        return moved

    # -- fleet statistics ------------------------------------------------

    def stats(self) -> dict:
        """Fleet-wide statistics rollup (synchronizes every host).

        Each host answers its own schema-pinned ``stats()`` over the
        wire (``STATS``/``STATS_OK``); the rollup sums the five load
        counters across hosts and keeps the per-host snapshots under
        ``per_host`` — the exact shape
        :func:`~repro.serving.autoscale.worker_loads` reads for the
        across-host balancing level.  ``migrations`` / ``scale_events``
        count this router's own cross-host moves and host
        attach/retire events (each host's rollup keeps its own
        within-host counters).  The schema is pinned by a regression
        test so fleet policy inputs cannot silently drift.  After
        :meth:`shutdown` this raises a clean ``RuntimeError`` instead
        of failing on a dead client connection.
        """
        self._check_open()
        per_host = [client.stats() for client in self._clients]
        totals = {
            key: sum(stats[key] for stats in per_host)
            for key in (
                "n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted"
            )
        }
        totals["analytics"] = merge_rollups(
            stats.get("analytics") for stats in per_host
        )
        totals["per_host"] = per_host
        totals["hosts"] = self.hosts
        totals["migrations"] = self.n_migrations
        totals["scale_events"] = self.n_scale_events
        return totals

    # -- lifecycle -------------------------------------------------------

    def shutdown(self) -> None:
        """Drop every host connection (idempotent).

        Sessions still open are parked on their hosts via the servers'
        disconnect path — a later front door (or client) can resume
        them; call :meth:`close_session` first for clean ends."""
        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            client.close()
        # The routing maps go with the connections: n_sessions must
        # read 0 on a shut-down front door, not a stale census.
        self._owner.clear()
        self._residue.clear()

    def __enter__(self) -> "FederatedGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


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
    balance_every,
    gateway_kwargs,
    server_kwargs,
    host,
    port,
) -> None:
    """Child-process entry: build the gateway tier, serve forever.

    Reports the bound ``(host, port)`` back through ``conn`` once the
    listening socket is up.  With ``workers > 1`` the host fronts a
    :class:`~repro.serving.sharded.ShardedGateway` and — when
    ``balance_every`` is set — ticks a **within-host**
    :class:`~repro.serving.autoscale.AutoBalancer` through the
    server's ``tick_hook`` seam (the event-loop thread owns the
    gateway, so the hook is the only safe place to migrate).
    """
    gateway_kwargs = dict(gateway_kwargs or {})
    server_kwargs = dict(server_kwargs or {})
    if workers > 1:
        gateway = ShardedGateway(
            classifier, fs, workers=workers, **gateway_kwargs
        )
    else:
        gateway = StreamGateway(classifier, fs, **gateway_kwargs)
    tick_hook = None
    if balance_every and workers > 1:
        balancer = AutoBalancer(gateway)
        tick_hook = balancer.tick
        server_kwargs.setdefault("tick_every", int(balance_every))
    server = GatewayServer(
        gateway, host=host, port=port, tick_hook=tick_hook, **server_kwargs
    )

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
    balance_every: int | None = None,
    gateway_kwargs: dict | None = None,
    server_kwargs: dict | None = None,
    mp_context: str | None = None,
    start_timeout: float = 60.0,
) -> HostProcess:
    """Launch one backend gateway host in its own OS process.

    The child builds a :class:`~repro.serving.gateway.StreamGateway`
    (``workers == 1``) or :class:`~repro.serving.sharded.ShardedGateway`
    (``workers > 1``, with optional within-host balancing every
    ``balance_every`` ingests), serves it through a
    :class:`~repro.serving.net.server.GatewayServer`, and reports the
    bound address back — available as :attr:`HostProcess.address` when
    this returns.  ``gateway_kwargs`` / ``server_kwargs`` pass through
    to the respective constructors (e.g. ``coalesce`` for
    single-worker hosts fed tiny wire chunks).

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
    ctx = multiprocessing.get_context(mp_context)
    parent, child = ctx.Pipe()
    # Worker processes are grandchildren — a daemonic host could not
    # spawn them, so only single-process hosts run daemonic.
    daemon = workers == 1
    process = ctx.Process(
        target=_host_main,
        args=(
            child, classifier, fs, int(workers),
            balance_every, gateway_kwargs, server_kwargs, host, port,
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
