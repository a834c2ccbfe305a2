"""The sharded worker's request dispatch, run in the test process.

A :class:`~repro.serving.sharded.ShardedGateway` worker process loops
over :meth:`_WorkerState.handle`, one request tuple in, one response
tuple ``(op, session_id, payload, evictions, aux)`` out.  These tests
drive that dispatch directly: every op, the error payloads that travel
back instead of raising, the eviction and analytics side channels, and
the rules for ids evicted while a pipelined round item may still be on
its way.
"""

import pickle

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import default_pipeline
from repro.serving.gateway import SessionExport
from repro.serving.sharded import _WorkerState

FS = 360.0


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=83).synthesize(
        12.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="worker-state"
    )


@pytest.fixture()
def state(embedded_classifier):
    return _WorkerState(embedded_classifier, FS, {"max_batch": 8})


def ok(response):
    """The value of a successful response (fails on an error payload)."""
    status, value = response[2]
    assert status == "ok", value
    return value


def round_request(*items):
    """The parent's pipelined request for ``(session_id, chunk)``
    items: the chunks back to back plus their lengths."""
    blocks = [np.asarray(chunk, dtype=float).reshape(len(chunk), -1) for _, chunk in items]
    return (
        "round",
        [session_id for session_id, _ in items],
        (np.concatenate(blocks), [len(block) for block in blocks]),
    )


def ingest(session_id, chunk):
    """The one-chunk round request."""
    return round_request((session_id, chunk))


def item(response):
    """The one item payload of a one-chunk round response."""
    (payload,) = ok(response)
    return payload


def ok_item(response):
    """The events of a successful one-chunk round."""
    status, value = item(response)
    assert status == "ok", value
    return value


def feed(state, session_id, signal, block=144):
    events = []
    for i in range(0, len(signal), block):
        events += ok_item(state.handle(ingest(session_id, signal[i : i + block])))
    return events


class TestOps:
    def test_session_lifecycle_matches_standalone(
        self, state, record, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        response = state.handle(("open", "s", {}))
        assert response[:2] == ("open", "s")
        assert ok(response) is None
        assert response[3] == [] and response[4] == ([], {})
        events = feed(state, "s", record.signal)
        events += ok(state.handle(("poll", "s")))
        assert ok(state.handle(("flush", None))) >= 0
        events += ok(state.handle(("close", "s")))
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1), events
        )
        assert state.gateway.n_sessions == 0

    def test_export_release_import(self, state, record):
        ok(state.handle(("open", "s", {"max_latency_ticks": 3})))
        feed(state, "s", record.signal[: int(4 * FS)])
        export = ok(state.handle(("export", "s")))
        assert isinstance(export, SessionExport)
        assert export.max_latency_ticks == 3
        assert state.gateway.session_ids() == ["s"]  # export keeps it open
        released = ok(state.handle(("release", "s")))
        assert state.gateway.session_ids() == []
        # The import payload crosses a pipe, so it must survive pickle.
        released = pickle.loads(pickle.dumps(released))
        assert ok(state.handle(("import", "t", released))) == "t"
        assert state.gateway.session_ids() == ["t"]
        ok(state.handle(("close", "t")))

    def test_stats_is_the_gateway_per_worker_schema(self, state, record):
        ok(state.handle(("open", "s", {})))
        feed(state, "s", record.signal[: int(3 * FS)])
        stats = ok(state.handle(("stats", None)))
        assert stats == state.gateway.stats()["per_worker"][0]
        assert set(stats) == {
            "n_sessions", "n_queued", "n_flushes", "n_classified",
            "n_evicted", "analytics",
        }
        assert stats["n_sessions"] == 1

    def test_unknown_op_returns_an_error_payload(self, state):
        response = state.handle(("teleport", "s"))
        assert response[:2] == ("teleport", "s")
        status, error = response[2]
        assert status == "err"
        assert isinstance(error, ValueError)
        assert "unknown worker op 'teleport'" in str(error)

    def test_gateway_errors_travel_back_instead_of_raising(self, state):
        ok(state.handle(("open", "s", {})))
        for request in (
            ("open", "s", {}),  # already open
            ("close", "nope"),
            ("export", "nope"),
        ):
            status, error = state.handle(request)[2]
            assert status == "err"
            assert isinstance(error, (KeyError, ValueError))
        # A round item's error travels in its own slot.
        status, error = item(state.handle(ingest("nope", np.zeros(10))))
        assert status == "err" and isinstance(error, KeyError)

    def test_analytics_ride_the_aux_channel(self, embedded_classifier, record):
        state = _WorkerState(
            embedded_classifier, FS, {"analytics": default_pipeline}
        )
        ok(state.handle(("open", "s", {})))
        alerts = []
        for i in range(0, record.n_samples, 180):
            response = state.handle(ingest("s", record.signal[i : i + 180]))
            alerts += response[4][0]
        response = state.handle(("close", "s"))
        alerts += response[4][0]
        summaries = response[4][1]
        assert set(summaries) == {"s"}
        assert summaries["s"]["n_episodes"] == len(alerts)
        # Drained into the response, so nothing is left worker-side.
        assert state.gateway.take_alerts() == []
        assert state.gateway.take_summaries() == {}


class TestEvictedIds:
    FED = int(4 * FS)

    def _evict_idle(self, state, record):
        """Open ``active`` and ``idle`` (budget 1 tick), feed ``idle``
        one chunk, then let a pipelined ``active`` ingest evict it.
        Returns ``idle``'s ingest events and the eviction notices."""
        ok(state.handle(("open", "active", {})))
        ok(state.handle(("open", "idle", {"evict_after_ticks": 1})))
        early = ok_item(state.handle(ingest("idle", record.signal[: self.FED])))
        notices = state.handle(ingest("active", record.signal[:144]))[3]
        return early, notices

    def test_eviction_notice_carries_the_final_sequence(
        self, state, record, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        early, notices = self._evict_idle(state, record)
        assert [sid for sid, _ in notices] == ["idle"]
        assert state._evicted_ids == {"idle"}
        # Delivered via the response, not kept for take_evicted.
        assert state.gateway.take_evicted() == {}
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1, upto=self.FED),
            early + notices[0][1],
        )

    def test_in_flight_ingest_and_close_for_an_evicted_id_are_empty(
        self, state, record
    ):
        self._evict_idle(state, record)
        assert ok_item(state.handle(ingest("idle", record.signal[:90]))) == []
        assert state._evicted_ids == {"idle"}  # rounds never prune
        assert ok(state.handle(("close", "idle"))) == []
        # The close was synchronous: nothing for the id can follow it.
        assert state._evicted_ids == set()
        status, error = item(state.handle(ingest("idle", record.signal[:90])))
        assert status == "err" and isinstance(error, KeyError)

    def test_round_item_for_a_session_evicted_earlier_in_the_round(
        self, state, record
    ):
        ok(state.handle(("open", "active", {})))
        ok(state.handle(("open", "idle", {"evict_after_ticks": 1})))
        response = state.handle(
            round_request(
                ("idle", record.signal[: self.FED]),
                ("active", record.signal[:144]),  # its tick evicts "idle"
                ("idle", record.signal[:90]),
            )
        )
        assert [sid for sid, _ in response[3]] == ["idle"]
        assert ok(response)[2] == ("ok", [])
        assert state._evicted_ids == {"idle"}

    @pytest.mark.parametrize("op", ["poll", "flush", "stats", "export"])
    def test_synchronous_requests_clear_the_set(self, state, record, op):
        self._evict_idle(state, record)
        request = (op, "active") if op in ("poll", "export") else (op, None)
        ok(state.handle(request))
        assert state._evicted_ids == set()

    @pytest.mark.parametrize("reopen", ["open", "import"])
    def test_a_reused_id_is_served_again(self, state, record, reopen):
        ok(state.handle(("open", "spare", {})))
        export = ok(state.handle(("release", "spare")))
        self._evict_idle(state, record)
        if reopen == "open":
            ok(state.handle(("open", "idle", {})))
        else:
            ok(state.handle(("import", "idle", export)))
        assert state._evicted_ids == set()
        # The reused id's chunks reach its new session again.
        feed(state, "idle", record.signal[: self.FED])
        assert ok(state.handle(("close", "idle")))
