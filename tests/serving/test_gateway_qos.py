"""Per-session QoS and backpressure: latency budgets, eviction, inboxes.

The gateway's global flush policy (``max_batch`` / ``max_latency_ticks``)
gained three per-session QoS levers in the sharded-gateway PR:

* per-session latency budgets (``open_session(max_latency_ticks=n)``)
  that flush the cross-session batch earlier than the global bound;
* idle-session eviction (``evict_after_ticks``) that force-closes a
  slow session and emits its complete, well-formed final event set;
* bounded per-session inboxes (:class:`repro.serving.SessionInbox`)
  whose documented drop/block overflow policies shed or absorb load
  deterministically — no silent loss, no deadlock.
"""

import threading
import time

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import INBOX_POLICIES, SessionInbox, ShardedGateway, StreamGateway
from repro.serving.sharded import _WorkerState

FS_BLOCK_S = 0.4


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=81).synthesize(
        18.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="qos"
    )


@pytest.fixture(scope="module")
def block(record):
    return int(FS_BLOCK_S * record.fs)


def _round(session_id, chunk):
    """A sharded worker's one-chunk round request, as the parent sends it."""
    block = np.asarray(chunk, dtype=float).reshape(len(chunk), -1)
    return ("round", [session_id], (block, [len(block)]))


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
        evicted = {}
        gateway = StreamGateway(
            embedded_classifier, record.fs,
            on_evict=lambda sid, events: evicted.update({sid: events}),
        )
        gateway.open_session("active")
        gateway.open_session("idle", evict_after_ticks=3)
        gateway.ingest("idle", record.signal[:block])  # tick 1
        gateway.ingest("active", record.signal[:block])  # tick 2: idle for 1
        gateway.ingest("active", record.signal[block : 2 * block])  # tick 3: 2
        assert "idle" not in evicted and gateway.n_sessions == 2
        gateway.ingest("active", record.signal[2 * block : 3 * block])  # tick 4: 3
        assert "idle" in evicted
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
        hook fires and the final set matches a standalone node."""
        evicted = {}
        with ShardedGateway(
            embedded_classifier, record.fs, workers=2,
            on_evict=lambda sid, events: evicted.update({sid: events}),
        ) as gateway:
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
            assert "idle" in evicted
            assert gateway.n_sessions == 1
            with pytest.raises(KeyError, match="no open session"):
                gateway.ingest("idle", record.signal[:10])
            gateway.close_session("active")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1, upto=fed),
            early + evicted["idle"],
        )


    def test_worker_evicted_id_set_stays_bounded(self, record, block, embedded_classifier):
        """A worker remembers evicted ids only while a request for one
        can still be in flight: churning through many distinct evicted
        ids leaves the set bounded by the sessions evicted since the
        parent's last synchronous request, and empty right after one.

        Drives the worker's request dispatch directly with the request
        sequence the parent sends: a synchronous ``open`` per churn
        session, then pipelined one-chunk rounds."""
        state = _WorkerState(embedded_classifier, record.fs, {})
        state.handle(("open", "active", {}))
        offset, sizes, evicted = 0, [], set()
        for k in range(60):
            # Pipelined rounds only: the churn sessions go idle and
            # are evicted while the active session ticks the clock.
            state.handle(("open", f"idle-{k}", {"evict_after_ticks": 1}))
            state.handle(_round(f"idle-{k}", record.signal[:block]))
            for _ in range(2):
                chunk = record.signal[offset % (len(record.signal) - block) :][:block]
                response = state.handle(_round("active", chunk))
                evicted.update(sid for sid, _ in response[3])
                offset += block
            sizes.append(len(state._evicted_ids))
        assert evicted == {f"idle-{k}" for k in range(60)}
        assert state.gateway.n_sessions == 1  # every churn session was evicted
        assert max(sizes) <= 2
        state.handle(("stats", None))  # a synchronous request: no id can still arrive
        assert not state._evicted_ids
        state.handle(("close", "active"))


class TestSessionInbox:
    """The documented drop/block overflow policies, deterministically."""

    def test_drop_mode_sheds_loudly_and_keeps_the_rest(self):
        """Beyond capacity: rejected, counted — the accepted items are
        intact and in order (no silent loss, nothing blocks)."""
        inbox = SessionInbox(capacity=3, policy="drop")
        accepted = [inbox.put(i) for i in range(8)]
        assert accepted == [True] * 3 + [False] * 5
        assert inbox.n_dropped == 5 and inbox.n_accepted == 3
        assert [inbox.take() for _ in range(3)] == [0, 1, 2]
        assert inbox.put(99) is True  # space again after consumption
        assert inbox.high_water == 3

    def test_block_mode_never_loses_under_a_stalled_consumer(self):
        """A consumer that stalls then drains: every put eventually
        lands, order preserved, occupancy never exceeds capacity."""
        inbox = SessionInbox(capacity=2, policy="block")
        taken = []

        def consumer():
            time.sleep(0.05)  # stall first
            for _ in range(6):
                while len(inbox) == 0:
                    time.sleep(0.001)
                taken.append(inbox.take())

        thread = threading.Thread(target=consumer)
        thread.start()
        for i in range(6):
            assert inbox.put(i) is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert taken == list(range(6))
        assert inbox.n_dropped == 0
        assert inbox.high_water <= 2

    def test_block_mode_wait_hook_drives_the_consumer(self):
        """Single-threaded block mode: the wait hook consumes (how the
        sharded gateway drains worker responses) — no deadlock."""
        inbox = SessionInbox(capacity=1, policy="block")
        consumed = []
        inbox.put("a")
        assert inbox.put("b", wait=lambda: consumed.append(inbox.take())) is True
        assert consumed == ["a"] and len(inbox) == 1

    def test_close_unblocks_a_waiting_producer(self):
        """A session ending (e.g. evicted) under a blocked producer
        must not leave it waiting for space that never frees up."""
        inbox = SessionInbox(capacity=1, policy="block")
        inbox.put("a")
        outcome = []

        def producer():
            outcome.append(inbox.put("b"))

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.02)  # let the producer reach the wait
        inbox.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome == [False]  # rejected, not accepted-after-death
        assert inbox.closed and inbox.put("c") is False
        assert inbox.n_dropped == 0  # closure is not load shedding

    def test_validation_names_allowed_values(self):
        with pytest.raises(ValueError, match=r"inbox_capacity must be >= 1"):
            SessionInbox(capacity=0)
        with pytest.raises(ValueError) as excinfo:
            SessionInbox(capacity=1, policy="spill")
        message = str(excinfo.value)
        assert "spill" in message
        for name in INBOX_POLICIES:
            assert name in message


class TestShardedBackpressure:
    def test_block_mode_is_lossless_and_bit_exact(
        self, record, block, embedded_classifier, assert_events_equal, standalone_events
    ):
        """capacity=1 block mode fully serializes producer and worker:
        nothing dropped, nothing deadlocked, events bit-exact."""
        with ShardedGateway(
            embedded_classifier, record.fs, workers=2,
            inbox_capacity=1, inbox_policy="block",
        ) as gateway:
            gateway.open_session("p")
            events = []
            for i in range(0, record.n_samples, block):
                events += gateway.ingest("p", record.signal[i : i + block])
            inbox = gateway._inboxes["p"]
            assert inbox.high_water <= 1 and inbox.n_dropped == 0
            assert gateway.dropped_chunks() == 0
            events += gateway.close_session("p")
        assert_events_equal(
            standalone_events(embedded_classifier, record, record.fs, 1), events
        )

    def test_pipelined_ingest_error_blames_its_own_session(
        self, record, block, embedded_classifier
    ):
        """Regression: a worker-side ingest error arrives
        asynchronously; it must be raised by the erroring session's
        next call — not out of an unrelated session's call, and without
        desyncing the pipe protocol.  A malformed chunk never gets that
        far: the parent checks it and raises at once, for its own
        item."""
        with ShardedGateway(
            embedded_classifier, record.fs, workers=2, n_leads=1
        ) as gateway:
            gateway.open_session("bad", worker=0)
            gateway.open_session("good", worker=1)
            with pytest.raises(ValueError, match="blocks must be"):
                gateway.ingest(
                    "bad", record.signal[:block].reshape(-1, 1).repeat(2, axis=1)
                )
            # The worker loses the session behind the parent's back, so
            # its next chunk fails worker-side.
            export = gateway._request(0, ("release", "bad"))
            assert gateway.ingest("bad", record.signal[:block]) == []
            # The unrelated session keeps working while the error is in
            # flight and after it has been parked.
            for i in range(3):
                gateway.ingest("good", record.signal[i * block : (i + 1) * block])
            gateway.poll("good")
            gateway.flush()  # every worker has answered: the error is parked
            with pytest.raises(KeyError, match="bad"):
                gateway.ingest("bad", record.signal[:block])
            # Protocol still in sync: the session serves again once the
            # worker has it back.
            gateway._request(0, ("import", "bad", export))
            assert gateway.ingest("bad", record.signal[:block]) == []
            gateway.close_session("bad")
            gateway.close_session("good")

    def test_drop_mode_counts_every_shed_chunk(
        self, record, block, embedded_classifier
    ):
        """Drop mode with an artificially saturated inbox: the chunk is
        rejected and audited, the session keeps serving — and the audit
        survives a rebalancing migration."""
        with ShardedGateway(
            embedded_classifier, record.fs, workers=2,
            inbox_capacity=1, inbox_policy="drop",
        ) as gateway:
            gateway.open_session("p", worker=0)
            # Saturate the accounting directly: the policy decision is
            # parent-side and deterministic given a full inbox.
            gateway._inboxes["p"].put(0)
            events = gateway.ingest("p", record.signal[:block])
            assert events == []
            assert gateway.dropped_chunks("p") == 1
            assert gateway.dropped_chunks() == 1
            gateway._inboxes["p"].take()  # free the slot; session still live
            for i in range(1, 6):
                gateway.ingest("p", record.signal[i * block : (i + 1) * block])
                gateway.poll("p")  # synchronize so no further chunk sheds
            gateway.migrate_session("p", 1)
            assert gateway.dropped_chunks("p") == 1  # audit not reset
            final = gateway.close_session("p")
        assert gateway.dropped_chunks("p") == 0  # session gone; audit per run
        assert isinstance(final, list)
