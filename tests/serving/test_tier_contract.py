"""One session contract, run against every serving tier.

Four classes expose the gateway session surface in five tiers: the
in-process :class:`StreamGateway`, the :class:`ShardedGateway` worker
pool, unjournaled and journaled (the crash-healing ``"supervised"``
tier), a :class:`GatewayClient` over a socket server, and the
:class:`FederatedGateway` front door over socket hosts.  Each case below runs against every tier that has the
feature it pins:

* open / ingest / poll / close, bit-exact with a standalone
  ``StreamingNode``;
* ``ValueError`` on a duplicate open and ``KeyError`` on an unknown id;
* a live hand-off (export/import, wire capture/import, or a member
  migration), bit-exact across the move;
* for the member pools (sharded, supervised, federated): placement,
  ``session_ids`` order after a migration, the drain guard, and a
  clean ``RuntimeError`` after ``shutdown()``;
* the pinned ``stats()`` keys.

Each tier is built once per module and shared by the cases, so every
case opens its own session ids and closes what it opens.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from repro.serving import (
    FederatedGateway,
    MemoryJournalStore,
    SessionJournal,
    ShardedGateway,
    StreamGateway,
    synthesize_fleet,
)
from repro.serving.net import GatewayClient, serve_in_thread

FS = 360.0
CHUNK = 180

TIERS = ("stream", "sharded", "supervised", "client", "federated")
#: Tiers built on the member pool: placement, migrate_session, drains
#: and the shutdown guard.
POOLS = ("sharded", "supervised", "federated")
#: Tiers whose sessions move as a ``SessionExport``
#: (``release_session`` / ``import_session``).
CAPTURE_TIERS = ("stream", "sharded", "supervised")

WORKER_KEYS = {
    "n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted",
    "analytics",
}
GATEWAY_KEYS = WORKER_KEYS | {"per_worker", "workers", "migrations", "scale_events"}
STATS_KEYS = {
    "stream": GATEWAY_KEYS,
    "sharded": GATEWAY_KEYS,
    "supervised": GATEWAY_KEYS | {
        "recoveries", "sessions_recovered", "respawns", "evictions_salvaged",
    },
    "client": GATEWAY_KEYS,
    "federated": WORKER_KEYS | {"per_host", "hosts", "migrations", "scale_events"},
}
#: Keys of one member's entry in the rollup (a federated host answers
#: its own gateway rollup).
MEMBER_KEYS = {
    "stream": WORKER_KEYS,
    "sharded": WORKER_KEYS,
    "supervised": WORKER_KEYS,
    "client": WORKER_KEYS,
    "federated": GATEWAY_KEYS,
}

_ids = itertools.count()


def new_ids(n: int) -> list[str]:
    """Session ids no other case on the shared tier has used."""
    return [f"c{next(_ids)}" for _ in range(n)]


class Tier:
    """One built tier: the gateway, how to build a fresh one of the same
    kind (for the destructive cases) and what to tear down."""

    def __init__(self, kind: str, classifier):
        self.kind = kind
        self.classifier = classifier
        self.hosts = []
        if kind in ("client", "federated"):
            self.hosts = [serve_in_thread(self._stream_gateway()) for _ in range(2)]
        self.gateway = self.fresh(members=2)
        if kind == "client":
            self.gateway.connect()

    def _stream_gateway(self):
        return StreamGateway(
            self.classifier, FS, n_leads=1, max_batch=16, max_latency_ticks=8
        )

    def fresh(self, members: int = 1):
        kind = self.kind
        if kind == "stream":
            return self._stream_gateway()
        if kind == "sharded":
            return ShardedGateway(self.classifier, FS, workers=members, n_leads=1)
        if kind == "supervised":
            return ShardedGateway(
                self.classifier, FS, journal=SessionJournal(MemoryJournalStore()),
                workers=members, n_leads=1,
            )
        if kind == "client":
            return GatewayClient(*self.hosts[0].address, window=4)
        return FederatedGateway(
            [h.address for h in self.hosts[:members]], window=4
        )

    def open_on(self, session_id: str, member: int) -> None:
        keyword = "host" if self.kind == "federated" else "worker"
        self.gateway.open_session(session_id, **{keyword: member})

    def retire(self, gateway, member: int) -> int:
        if self.kind == "federated":
            return gateway.retire_host(member)
        return gateway.retire_worker(member)

    def close(self) -> None:
        shutdown = getattr(self.gateway, "shutdown", None)
        if shutdown is not None:
            shutdown()
        for handle in self.hosts:
            handle.stop()


@pytest.fixture(scope="module", params=TIERS)
def tier(request, embedded_classifier):
    built = Tier(request.param, embedded_classifier)
    yield built
    built.close()


@pytest.fixture(scope="module")
def signal():
    streams, _ = synthesize_fleet(1, 8.0, fs=FS, seed=17)
    return next(iter(streams.values()))


def feed(gateway, session_id, signal, start=0, stop=None) -> list:
    stop = len(signal) if stop is None else stop
    events = []
    for i in range(start, stop, CHUNK):
        events += gateway.ingest(session_id, signal[i : min(i + CHUNK, stop)])
    return events


def hand_off(tier, session_id) -> list:
    """Move a live session by the tier's own mechanism; return the
    events that surfaced during the move."""
    gateway = tier.gateway
    if tier.kind == "client":
        migrated = gateway.migrate_out(session_id)
        gateway.migrate_in(migrated)
        return list(migrated.events)
    if tier.kind in POOLS:
        before = gateway.n_migrations
        gateway.migrate_session(session_id, 1 - gateway.worker_of(session_id))
        assert gateway.n_migrations == before + 1
        return []
    export = gateway.release_session(session_id)
    assert session_id not in gateway.session_ids()
    assert gateway.import_session(export) == session_id
    return []


class TestSessionLifecycle:
    def test_open_ingest_poll_close_is_bit_exact(
        self, tier, signal, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        (sid,) = new_ids(1)
        gateway = tier.gateway
        n_open = gateway.n_sessions
        gateway.open_session(sid)
        assert gateway.n_sessions == n_open + 1
        half = len(signal) // 2
        events = feed(gateway, sid, signal, stop=half)
        events += gateway.poll(sid)
        events += feed(gateway, sid, signal, start=half)
        events += gateway.close_session(sid)
        assert gateway.n_sessions == n_open
        assert_events_equal(
            standalone_events(embedded_classifier, signal, FS, 1), events
        )

    def test_duplicate_open_rejected(self, tier):
        (sid,) = new_ids(1)
        gateway = tier.gateway
        gateway.open_session(sid)
        try:
            with pytest.raises(ValueError, match="already open"):
                gateway.open_session(sid)
            if tier.kind in CAPTURE_TIERS:
                export = gateway.release_session(sid)
                assert gateway.import_session(export) == sid
                with pytest.raises(ValueError, match="already open"):
                    gateway.import_session(export)
        finally:
            gateway.close_session(sid)

    def test_unknown_session_rejected(self, tier):
        gateway = tier.gateway
        for call in (
            lambda: gateway.ingest("ghost", np.zeros(8)),
            lambda: gateway.poll("ghost"),
            lambda: gateway.close_session("ghost"),
        ):
            with pytest.raises(KeyError, match="no open session 'ghost'"):
                call()

    def test_hand_off_is_bit_exact(
        self, tier, signal, embedded_classifier,
        standalone_events, assert_events_equal,
    ):
        (sid,) = new_ids(1)
        gateway = tier.gateway
        gateway.open_session(sid)
        third = len(signal) // 3
        events = feed(gateway, sid, signal, stop=third)
        events += hand_off(tier, sid)
        events += feed(gateway, sid, signal, start=third, stop=2 * third)
        events += hand_off(tier, sid)
        events += feed(gateway, sid, signal, start=2 * third)
        events += gateway.close_session(sid)
        assert_events_equal(
            standalone_events(embedded_classifier, signal, FS, 1), events
        )

    def test_stats_keys_are_pinned(self, tier):
        (sid,) = new_ids(1)
        gateway = tier.gateway
        gateway.open_session(sid)
        try:
            stats = gateway.stats()
        finally:
            gateway.close_session(sid)
        assert set(stats) == STATS_KEYS[tier.kind]
        members = stats["per_host"] if tier.kind == "federated" else stats["per_worker"]
        for member in members:
            assert set(member) == MEMBER_KEYS[tier.kind]
        assert stats["n_sessions"] == sum(m["n_sessions"] for m in members) >= 1


@pytest.mark.parametrize("tier", POOLS, indirect=True)
class TestMemberPool:
    def test_session_ids_keep_opening_order_across_migration(self, tier):
        """A migrated session keeps its place in ``session_ids`` (and in
        ``sessions_on`` of its new member), at every pool tier."""
        a, b, c = new_ids(3)
        gateway = tier.gateway
        for sid in (a, b, c):
            tier.open_on(sid, 0)
        try:
            before = gateway.n_migrations
            gateway.migrate_session(a, 1)
            gateway.migrate_session(c, 1)
            ids = gateway.session_ids()
            assert [sid for sid in ids if sid in (a, b, c)] == [a, b, c]
            assert [s for s in gateway.sessions_on(1) if s in (a, c)] == [a, c]
            assert gateway.worker_of(a) == gateway.worker_of(c) == 1
            gateway.migrate_session(b, 0)  # already there: a no-op
            assert gateway.n_migrations == before + 2
            assert gateway.workers == len(gateway.session_counts()) == 2
            if tier.kind == "federated":
                assert gateway.hosts == 2
                assert gateway.host_of(a) == 1
        finally:
            for sid in (a, b, c):
                gateway.close_session(sid)

    def test_member_index_and_session_id_validated(self, tier):
        (sid,) = new_ids(1)
        gateway = tier.gateway
        match = "out of range" if tier.kind == "federated" else r"must be in \[0, 2\)"
        with pytest.raises(ValueError, match=match):
            tier.open_on(sid, 2)
        tier.open_on(sid, 1)
        try:
            with pytest.raises(ValueError, match=match):
                gateway.migrate_session(sid, -1)
            with pytest.raises(KeyError, match="no open session 'ghost'"):
                gateway.migrate_session("ghost", 0)
        finally:
            gateway.close_session(sid)

    def test_placement_policies(self, tier):
        gateway = tier.gateway
        saved = gateway.placement
        opened = []

        def place(policy, n):
            gateway.placement = policy
            ids = new_ids(n)
            for sid in ids:
                gateway.open_session(sid)
                opened.append(sid)
            return [gateway.worker_of(sid) for sid in ids]

        try:
            # hash: stable CRC-32 of the id, the same in any pool of the
            # same size (not the per-process salted hash).
            ids_before = len(opened)
            members = place("hash", 4)
            assert members == [
                zlib.crc32(sid.encode()) % 2 for sid in opened[ids_before:]
            ]
            first, second, third, fourth = place("round-robin", 4)
            assert (first, third) == (second ^ 1, fourth ^ 1)
            assert second == third ^ 1
            counts = gateway.session_counts()
            (emptiest,) = place("least-loaded", 1)
            assert emptiest == min(range(2), key=lambda i: (counts[i], i))
            (sid,) = new_ids(1)
            tier.open_on(sid, 1)  # an explicit member always wins
            opened.append(sid)
            assert gateway.worker_of(sid) == 1
            assert gateway.n_sessions >= len(opened)
        finally:
            gateway.placement = saved
            for sid in opened:
                gateway.close_session(sid)

    def test_shutdown_guards(self, tier):
        """After ``shutdown()`` every call raises a clean ``RuntimeError``
        (never a false crash report) and the pool reads empty."""
        gateway = tier.fresh(members=1)
        gateway.open_session("s")
        gateway.open_session("t")
        with pytest.raises(ValueError, match="cannot retire the last"):
            tier.retire(gateway, 0)
        gateway.shutdown()
        assert gateway.n_sessions == 0
        assert gateway.session_ids() == []
        calls = {
            "open_session": lambda: gateway.open_session("u"),
            "ingest": lambda: gateway.ingest("s", np.zeros(8)),
            "poll": lambda: gateway.poll("s"),
            "close_session": lambda: gateway.close_session("t"),
            "migrate_session": lambda: gateway.migrate_session("s", 0),
            "retire": lambda: tier.retire(gateway, 0),
            "stats": gateway.stats,
        }
        for name, call in calls.items():
            with pytest.raises(RuntimeError, match="gateway is shut down"):
                call()
        gateway.shutdown()  # idempotent
