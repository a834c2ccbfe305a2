"""Federation tier tests: cross-host routing over real loopback hosts.

The :class:`FederatedGateway` front door inherits the gateway tier's
single contract — per-session event sequences bit-exact with a
standalone inline-mode ``StreamingNode`` — and must uphold it through
cross-host placement, wire-level live migration, lossless host drains
and fleet growth.  These tests run real ``GatewayServer`` hosts (one
event-loop thread each) behind one front door and compare against the
standalone reference; ``test_federation_chaos.py`` stresses the same
invariant under seeded interleavings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    FederatedGateway,
    StreamGateway,
    spawn_host,
    synthesize_fleet,
)
from repro.serving.federation import _endpoint
from repro.serving.net import GatewayClient, serve_in_thread

FS = 360.0
CHUNK = 256

FLEET_KEYS = {
    "n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted",
    "analytics", "per_host", "hosts", "migrations", "scale_events",
}
HOST_KEYS = {
    "n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted",
    "analytics", "per_worker", "workers", "migrations", "scale_events",
}


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(4, 8.0, fs=FS, seed=33)


def start_host(classifier):
    gateway = StreamGateway(
        classifier, FS, n_leads=1, max_batch=16, max_latency_ticks=8
    )
    return serve_in_thread(gateway)


@pytest.fixture()
def two_hosts(embedded_classifier):
    handles = [start_host(embedded_classifier) for _ in range(2)]
    yield handles
    for handle in handles:
        handle.stop()


@pytest.fixture()
def fed(two_hosts):
    with FederatedGateway(
        [h.address for h in two_hosts], window=4
    ) as gateway:
        yield gateway


class TestEndpointParsing:
    def test_host_port_string(self):
        assert _endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_hostname_string(self):
        assert _endpoint("edge-box.lan:7001") == ("edge-box.lan", 7001)

    def test_tuple(self):
        assert _endpoint(("box", "9000")) == ("box", 9000)

    def test_bracketed_ipv6_drops_the_brackets(self):
        # "[::1]:9000" must parse to the bare address the socket layer
        # can actually connect to, not keep the brackets.
        assert _endpoint("[::1]:9000") == ("::1", 9000)
        assert _endpoint("[fe80::2]:7000") == ("fe80::2", 7000)

    def test_unbracketed_ipv6_splits_on_last_colon(self):
        assert _endpoint("::1:9000") == ("::1", 9000)

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            _endpoint("lonely-host")

    def test_bracketed_ipv6_without_port_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            _endpoint("[::1]")

    def test_non_numeric_port_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            _endpoint("box:http")
        with pytest.raises(ValueError, match="host:port"):
            _endpoint("[::1]:")

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            _endpoint(":9000")

    def test_no_endpoints_rejected(self):
        with pytest.raises(ValueError, match="at least one host"):
            FederatedGateway([])


class TestBitExactness:
    def test_fleet_bit_exact_across_migrate_retire_add(
        self, two_hosts, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        """One fleet streamed through the front door while the fleet
        itself is reshaped under it: a cross-host migration mid-stream,
        a lossless host drain, and a fresh host attached and loaded —
        every session's event sequence must match standalone."""
        streams, _ = fleet
        third = start_host(embedded_classifier)
        try:
            with FederatedGateway(
                [h.address for h in two_hosts], placement="round-robin", window=4
            ) as fed:
                for sid in streams:
                    fed.open_session(sid)
                events = {sid: [] for sid in streams}
                longest = max(len(x) for x in streams.values())
                rounds = range(0, longest, CHUNK)
                for round_no, start in enumerate(rounds):
                    if round_no == 3:
                        fed.migrate_session("loadgen-0", 1)
                    if round_no == 6:
                        fed.retire_host(0)
                    if round_no == 8:
                        index = fed.add_host(third.address)
                        fed.migrate_session("loadgen-1", index)
                    for sid, signal in streams.items():
                        piece = signal[start : start + CHUNK]
                        if len(piece):
                            events[sid].extend(fed.ingest(sid, piece))
                for sid in streams:
                    events[sid].extend(fed.close_session(sid))
                assert fed.n_migrations >= 2
                assert fed.n_scale_events == 2
        finally:
            third.stop()
        for sid, signal in streams.items():
            reference = standalone_events(embedded_classifier, signal, FS, 1)
            assert len(events[sid]) > 0
            assert_events_equal(reference, events[sid])

    def test_retire_host_returns_drain_count(self, fed, fleet):
        streams, _ = fleet
        for sid in streams:
            fed.open_session(sid, host=0)
        moved = fed.retire_host(0)
        assert moved == len(streams)
        assert fed.hosts == 1
        assert fed.session_counts() == [len(streams)]
        for sid in streams:
            fed.close_session(sid)


class TestFleetStats:
    def test_rollup_schema_is_pinned(self, fed, fleet):
        """The exact rollup key set, at both levels — the fleet
        ``stats()`` readers must not silently drift."""
        streams, _ = fleet
        for sid in streams:
            fed.open_session(sid)
        stats = fed.stats()
        assert set(stats) == FLEET_KEYS
        assert stats["hosts"] == 2
        assert len(stats["per_host"]) == 2
        for host_stats in stats["per_host"]:
            assert set(host_stats) == HOST_KEYS
            assert host_stats["workers"] == 1
            assert len(host_stats["per_worker"]) == 1
        assert stats["n_sessions"] == len(streams)
        assert stats["n_sessions"] == sum(
            h["n_sessions"] for h in stats["per_host"]
        )

    def test_counters_track_fleet_reshaping(self, fed, embedded_classifier):
        fed.open_session("s", host=0)
        fed.migrate_session("s", 1)
        third = start_host(embedded_classifier)
        try:
            fed.add_host(third.address)
            fed.retire_host(0)
            stats = fed.stats()
            assert stats["migrations"] == 1
            assert stats["scale_events"] == 2
        finally:
            third.stop()


class TestWireMigration:
    """The client-level MIGRATE/STATS primitives the router composes."""

    def test_migrate_out_then_in_is_bit_exact(
        self, two_hosts, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        streams, _ = fleet
        signal = streams["loadgen-0"]
        half = (len(signal) // (2 * CHUNK)) * CHUNK
        events = []
        with GatewayClient(*two_hosts[0].address, window=4) as source, \
                GatewayClient(*two_hosts[1].address, window=4) as target:
            source.open_session("s")
            for start in range(0, half, CHUNK):
                events.extend(source.ingest("s", signal[start : start + CHUNK]))
            migrated = source.migrate_out("s")
            assert migrated.session_id == "s"
            assert len(migrated.blob) > 0
            events.extend(migrated.events)
            assert "s" not in source._sessions
            target.migrate_in(migrated)
            for start in range(half, len(signal), CHUNK):
                events.extend(target.ingest("s", signal[start : start + CHUNK]))
            events.extend(target.close_session("s"))
        reference = standalone_events(embedded_classifier, signal, FS, 1)
        assert len(events) > 0
        assert_events_equal(reference, events)

    def test_migration_counters_on_both_hosts(self, two_hosts):
        with GatewayClient(*two_hosts[0].address, window=4) as source, \
                GatewayClient(*two_hosts[1].address, window=4) as target:
            source.open_session("s")
            target.migrate_in(source.migrate_out("s"))
            target.close_session("s")
        assert two_hosts[0].server.n_migrations_out == 1
        assert two_hosts[1].server.n_migrations_in == 1

    def test_stats_over_the_wire(self, two_hosts):
        with GatewayClient(*two_hosts[0].address, window=4) as client:
            client.open_session("s")
            stats = client.stats()
            assert set(stats) == HOST_KEYS
            assert stats["n_sessions"] == 1
            client.close_session("s")


class TestSpawnHost:
    def test_spawned_process_host_serves_bit_exact(
        self, fleet, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        """A backend host in its own OS process (the ``repro federate``
        / benchmark building block) behind the front door."""
        streams, _ = fleet
        signal = streams["loadgen-0"]
        host = spawn_host(
            embedded_classifier, FS,
            gateway_kwargs=dict(n_leads=1, max_batch=16, max_latency_ticks=8),
        )
        try:
            assert host.process.is_alive()
            with FederatedGateway([host.address], window=4) as fed:
                fed.open_session("s")
                events = []
                for start in range(0, len(signal), CHUNK):
                    events.extend(fed.ingest("s", signal[start : start + CHUNK]))
                events.extend(fed.close_session("s"))
        finally:
            host.stop()
        assert not host.process.is_alive()
        reference = standalone_events(embedded_classifier, signal, FS, 1)
        assert_events_equal(reference, events)

    def test_only_process_workers_are_accepted(self, embedded_classifier):
        """Sharded hosts always run worker processes; any other mode is
        rejected before a host process is spawned."""
        with pytest.raises(ValueError, match="'process'"):
            spawn_host(embedded_classifier, FS, workers=2, worker_mode="thread")


    @pytest.mark.parametrize("option", ["mp_context", "server_kwargs"])
    def test_removed_options_rejected_before_spawning(self, option, embedded_classifier):
        """A host always starts with the platform's default context and
        serves with the server's defaults: these keywords are unknown,
        and refusing one spawns no host process."""
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(TypeError, match=option):
            spawn_host(embedded_classifier, FS, **{option: None})
        assert len(multiprocessing.active_children()) == before


class TestShutdownGuards:
    """The front door refuses cleanly after shutdown() — no call may
    reach a dead client connection or leave stale routing state."""

    def test_surface_raises_cleanly_after_shutdown(self, two_hosts):
        fed = FederatedGateway([h.address for h in two_hosts], window=4)
        fed.open_session("s")
        fed.shutdown()
        assert fed.n_sessions == 0  # routing maps cleared, not stale
        calls = {
            "open_session": lambda: fed.open_session("t"),
            "migrate_session": lambda: fed.migrate_session("s", 1),
            "add_host": lambda: fed.add_host(two_hosts[0].address),
            "retire_host": lambda: fed.retire_host(0),
            "stats": fed.stats,
        }
        for name, call in calls.items():
            with pytest.raises(RuntimeError, match="gateway is shut down"):
                call()
        fed.shutdown()  # still idempotent


class TestRetireHostRaces:
    def test_retire_host_skips_sessions_evicted_server_side(
        self, embedded_classifier,
    ):
        """Satellite regression: a session the backend evicted between
        the drain's census and its wire capture must be skipped (like
        ShardedGateway.retire_worker), not abort the drain."""
        evicting = StreamGateway(
            embedded_classifier, FS, n_leads=1, max_batch=8,
            max_latency_ticks=2, evict_after_ticks=2,
        )
        handle = serve_in_thread(evicting)
        other = start_host(embedded_classifier)
        try:
            with FederatedGateway(
                [handle.address, other.address], window=4
            ) as fed:
                fed.open_session("idle", host=0)
                fed.open_session("busy", host=0)
                # Ticks from the busy session evict "idle" server-side;
                # the front door's census still lists it.
                for i in range(8):
                    fed.ingest("busy", np.zeros(64))
                assert set(fed.sessions_on(0)) == {"idle", "busy"}
                moved = fed.retire_host(0)
                assert moved == 1  # busy migrated; idle skipped
                assert "idle" not in fed.session_ids()
                assert fed.host_of("busy") == 0  # indices shifted down
                fed.ingest("busy", np.zeros(64))
                fed.close_session("busy")
        finally:
            handle.stop()
            other.stop()
