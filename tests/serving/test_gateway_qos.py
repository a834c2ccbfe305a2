"""Per-session QoS: latency budgets and idle eviction.

The gateway's global flush policy (``max_batch`` / ``max_latency_ticks``)
has two per-session QoS levers:

* per-session latency budgets (``open_session(max_latency_ticks=n)``)
  that flush the cross-session batch earlier than the global bound;
* idle-session eviction (``evict_after_ticks``) that force-closes a
  slow session and emits its complete, well-formed final event set.
"""

import time

import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import ShardedGateway, StreamGateway

FS_BLOCK_S = 0.4


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=81).synthesize(
        18.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="qos"
    )


@pytest.fixture(scope="module")
def block(record):
    return int(FS_BLOCK_S * record.fs)


class TestPerSessionLatencyBudget:
    def test_tight_budget_flushes_earlier_than_global_policy(
        self, record, block, embedded_classifier
    ):
        """With the global policy effectively off (huge bounds), a
        session's own budget still bounds how long its beats wait."""
        gateway = StreamGateway(
            embedded_classifier, record.fs,
            max_batch=10_000, max_latency_ticks=10_000,
        )
        gateway.open_session("fast", max_latency_ticks=2)
        waited = 0
        for i in range(0, record.n_samples, block):
            gateway.ingest("fast", record.signal[i : i + block])
            waited = waited + 1 if gateway.n_queued else 0
            assert waited <= 2
        gateway.close_session("fast")

    def test_without_budget_the_global_policy_stalls_the_quiet_fleet(
        self, record, block, embedded_classifier
    ):
        """Control: same huge global bounds, no per-session budget —
        beats do wait longer than the tight budget would allow."""
        gateway = StreamGateway(
            embedded_classifier, record.fs,
            max_batch=10_000, max_latency_ticks=10_000,
        )
        gateway.open_session("lax")
        waited = max_waited = 0
        for i in range(0, record.n_samples, block):
            gateway.ingest("lax", record.signal[i : i + block])
            waited = waited + 1 if gateway.n_queued else 0
            max_waited = max(max_waited, waited)
        gateway.close_session("lax")
        assert max_waited > 2

    def test_budget_does_not_change_event_content(
        self, record, block, embedded_classifier, assert_events_equal, standalone_events
    ):
        """A tight budget changes *when* beats flush, never what they are."""
        gateway = StreamGateway(embedded_classifier, record.fs)
        gateway.open_session("s", max_latency_ticks=1)
        events = []
        for i in range(0, record.n_samples, block):
            events += gateway.ingest("s", record.signal[i : i + block])
        events += gateway.close_session("s")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1), events
        )

    def test_budget_travels_with_migration(self, record, embedded_classifier):
        source = StreamGateway(embedded_classifier, record.fs)
        target = StreamGateway(embedded_classifier, record.fs)
        source.open_session("s", max_latency_ticks=3, evict_after_ticks=9)
        export = source.release_session("s")
        assert export.max_latency_ticks == 3
        assert export.evict_after_ticks == 9
        target.import_session(export)
        session = target._sessions["s"]
        assert session.latency_budget == 3 and session.evict_after == 9


class TestEviction:
    def test_eviction_fires_exactly_at_threshold(
        self, record, block, embedded_classifier
    ):
        """Idle for threshold - 1 ticks: still open.  One more: evicted."""
        gateway = StreamGateway(embedded_classifier, record.fs)
        gateway.open_session("active")
        gateway.open_session("idle", evict_after_ticks=3)
        gateway.ingest("idle", record.signal[:block])  # tick 1
        gateway.ingest("active", record.signal[:block])  # tick 2: idle for 1
        gateway.ingest("active", record.signal[block : 2 * block])  # tick 3: 2
        assert gateway.take_evicted() == {} and gateway.n_sessions == 2
        gateway.ingest("active", record.signal[2 * block : 3 * block])  # tick 4: 3
        assert "idle" in gateway.take_evicted()
        assert gateway.n_sessions == 1 and gateway.n_evicted == 1

    def test_evicted_events_are_well_formed_and_complete(
        self, record, block, embedded_classifier, assert_events_equal, standalone_events
    ):
        """The eviction event set equals closing the session by hand:
        bit-exact with a standalone node fed the ingested prefix."""
        gateway = StreamGateway(embedded_classifier, record.fs, evict_after_ticks=2)
        gateway.open_session("active")
        gateway.open_session("slow")
        fed = 15 * block
        early = gateway.ingest("slow", record.signal[:fed])
        offset = 0
        while gateway.n_sessions == 2:
            gateway.ingest("active", record.signal[offset : offset + block])
            offset += block
        final = gateway.take_evicted()
        assert list(final) == ["slow"]
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1, upto=fed),
            early + final["slow"],
        )
        assert any(e.flagged for e in early + final["slow"])

    def test_one_scan_evicts_every_stale_session(
        self, record, block, embedded_classifier
    ):
        """Two sessions going stale on the same tick are both evicted by
        that tick's scan, both final sets reach the pull queue, and the
        gateway keeps serving the live session afterwards."""
        gateway = StreamGateway(embedded_classifier, record.fs)
        # Thresholds staggered against last-active ticks so both go
        # stale on tick 4.
        gateway.open_session("stale-a", evict_after_ticks=3)
        gateway.open_session("stale-b", evict_after_ticks=2)
        gateway.open_session("busy")
        gateway.ingest("stale-a", record.signal[: 5 * block])  # tick 1
        gateway.ingest("stale-b", record.signal[: 5 * block])  # tick 2
        gateway.ingest("busy", record.signal[:block])  # tick 3
        assert gateway.take_evicted() == {} and gateway.n_sessions == 3
        gateway.ingest("busy", record.signal[block : 2 * block])  # tick 4
        evicted = gateway.take_evicted()
        assert sorted(evicted) == ["stale-a", "stale-b"]
        assert all(len(events) > 0 for events in evicted.values())
        assert gateway.n_evicted == 2 and gateway.session_ids() == ["busy"]
        gateway.ingest("busy", record.signal[2 * block : 3 * block])
        gateway.close_session("busy")

    def test_evicted_session_is_gone(self, record, block, embedded_classifier):
        gateway = StreamGateway(embedded_classifier, record.fs, evict_after_ticks=2)
        gateway.open_session("a")
        gateway.open_session("b")
        gateway.ingest("a", record.signal[:block])
        gateway.ingest("b", record.signal[:block])
        gateway.ingest("a", record.signal[block : 2 * block])
        gateway.ingest("a", record.signal[2 * block : 3 * block])  # b idle 2: evicted
        assert gateway.session_ids() == ["a"]
        with pytest.raises(KeyError, match="no open session"):
            gateway.ingest("b", record.signal[:10])
        with pytest.raises(KeyError, match="no open session"):
            gateway.close_session("b")

    def test_per_session_threshold_overrides_gateway_default(
        self, record, block, embedded_classifier
    ):
        gateway = StreamGateway(embedded_classifier, record.fs, evict_after_ticks=2)
        gateway.open_session("default")
        gateway.open_session("patient", evict_after_ticks=50)
        gateway.ingest("default", record.signal[:block])
        gateway.ingest("patient", record.signal[:block])
        for i in range(4):
            gateway.ingest("patient", record.signal[(i + 1) * block : (i + 2) * block])
        assert gateway.session_ids() == ["patient"]  # default-threshold one evicted

    def test_session_id_is_reusable_after_eviction(
        self, record, block, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """Regression: the worker must forget an evicted id when the id
        is reopened — otherwise the new session's ingests are silently
        swallowed by the eviction guard."""
        with ShardedGateway(
            embedded_classifier, record.fs, workers=2
        ) as gateway:
            gateway.open_session("active", worker=0)
            gateway.open_session("s", worker=0, evict_after_ticks=2)
            gateway.ingest("s", record.signal[:block])
            offset = 0
            while "s" in gateway.session_ids():
                gateway.ingest("active", record.signal[offset : offset + block])
                offset += block
                gateway.poll("active")
            gateway.take_evicted()
            # Reuse the id on the same worker: must serve normally.
            gateway.open_session("s", worker=0)
            events = []
            for i in range(0, record.n_samples, block):
                events += gateway.ingest("s", record.signal[i : i + block])
            events += gateway.close_session("s")
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1), events
        )

    def test_sharded_eviction_reaches_the_parent(
        self, record, block, embedded_classifier, assert_events_equal, standalone_events
    ):
        """Worker-side evictions ride back on responses: the parent's
        store gets them and the final set matches a standalone node."""
        with ShardedGateway(embedded_classifier, record.fs, workers=2) as gateway:
            # Same-worker pair so the active session ticks the idle one.
            gateway.open_session("active", worker=0)
            gateway.open_session("idle", worker=0, evict_after_ticks=2)
            fed = 4 * block
            early = gateway.ingest("idle", record.signal[:fed])
            offset = 0
            for _ in range(4):
                early += []
                gateway.ingest("active", record.signal[offset : offset + block])
                offset += block
            gateway.poll("active")  # drains the eviction notice
            assert gateway.n_sessions == 1
            evicted = gateway.take_evicted()
            assert "idle" in evicted
            with pytest.raises(KeyError, match="no open session"):
                gateway.ingest("idle", record.signal[:10])
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1, upto=fed),
            early + evicted["idle"],
        )

    def test_a_take_after_a_worker_call_reads_every_pipe(
        self, record, block, embedded_classifier
    ):
        """A take may serve the pipe drain of the ``ingest_round``
        just before it, but not once a synchronous call has gone to a
        worker since: an eviction notice the other worker sent
        meanwhile is in ``take_evicted()``."""
        with ShardedGateway(embedded_classifier, record.fs, workers=2) as gateway:
            gateway.open_session("other", worker=0)
            gateway.open_session("active", worker=1)
            gateway.open_session("idle", worker=1, evict_after_ticks=1)
            gateway.ingest("idle", record.signal[:block])
            gateway.poll("active")  # worker 1's pipe is read up to here
            # The round's tick evicts ``idle`` on worker 1; its drain
            # ran before the chunk was shipped.
            gateway.ingest_round([("active", record.signal[:block])])
            gateway.poll("other")  # a synchronous call on worker 0
            deadline = time.monotonic() + 30.0
            while not gateway._poll_conn(1):  # worker 1 has answered
                assert time.monotonic() < deadline
                time.sleep(0.001)
            assert "idle" in gateway.take_evicted()
            gateway.close_session("active")
            gateway.close_session("other")

    def _evict_behind_the_parent(self, gateway, record, block):
        """Open ``active`` and ``idle`` (budget 1 tick) on worker 0 and
        feed ``idle`` four blocks; then, with the parent's non-blocking
        drain stubbed out, ship an ``active`` chunk whose tick evicts
        ``idle`` on the worker.  Returns ``idle``'s ingest events; its
        eviction notice is still unread on the pipe."""
        gateway.open_session("active", worker=0)
        gateway.open_session("idle", worker=0, evict_after_ticks=1)
        early = gateway.ingest("idle", record.signal[: 4 * block])
        gateway._drain = lambda: None
        gateway.ingest("active", record.signal[:block])
        return early

    def test_a_chunk_shipped_before_the_eviction_notice_resolves_empty(
        self, record, block, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """The chunk reaches a worker that has already evicted its
        session: the item resolves empty, the late worker error is
        dropped, and the final sequence covers the applied chunks."""
        with ShardedGateway(embedded_classifier, record.fs, workers=1) as gateway:
            early = self._evict_behind_the_parent(gateway, record, block)
            assert gateway.ingest("idle", record.signal[4 * block : 4 * block + 90]) == []
            del gateway._drain
            gateway.poll("active")  # synchronous: reads every answer
            evicted = gateway.take_evicted()
            assert list(evicted) == ["idle"]
            with pytest.raises(KeyError, match="no open session 'idle'"):
                gateway.ingest("idle", record.signal[:10])
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1, upto=4 * block),
            early + evicted["idle"],
        )

    def test_a_close_that_crosses_the_eviction_notice_returns_the_final_sequence(
        self, record, block, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """The worker no longer has the session when the close arrives;
        the close reads the eviction notice on its way and returns that
        final sequence, which then no longer waits in take_evicted."""
        with ShardedGateway(embedded_classifier, record.fs, workers=1) as gateway:
            early = self._evict_behind_the_parent(gateway, record, block)
            final = gateway.close_session("idle")
            del gateway._drain
            assert gateway.take_evicted() == {}
            assert gateway.session_ids() == ["active"]
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1, upto=4 * block),
            early + final,
        )

    @pytest.mark.parametrize("worker", [0, 1])
    def test_a_reused_id_is_served_despite_a_late_answer(
        self, record, block, embedded_classifier, assert_events_equal,
        standalone_events, worker,
    ):
        """The id is reopened, on the evicting worker or the other one,
        before the evicting worker's error for the in-flight chunk is
        read.  That error belongs to the evicted session: the new one
        must not raise it."""
        with ShardedGateway(embedded_classifier, record.fs, workers=2) as gateway:
            self._evict_behind_the_parent(gateway, record, block)
            gateway.ingest("idle", record.signal[4 * block : 4 * block + 90])
            while "idle" in gateway.session_ids():  # up to the notice
                gateway._handle(0, gateway._recv(0))
            gateway.open_session("idle", worker=worker)
            if worker == 1:  # worker 0's late answer is still unread
                gateway._handle(0, gateway._recv(0))
            del gateway._drain
            events = []
            for i in range(0, record.n_samples, block):
                events += gateway.ingest("idle", record.signal[i : i + block])
            events += gateway.close_session("idle")
            assert "idle" in gateway.take_evicted()  # the first session's
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1), events
        )
