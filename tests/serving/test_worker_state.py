"""The sharded worker's two pipe requests, run in the test process.

A :class:`~repro.serving.sharded.ShardedGateway` worker process loops
over :meth:`_WorkerState.handle`, one request tuple in, one response
tuple ``(op, session_id, payload, evictions, aux)`` out.  A request is
either the pipelined ``round`` or a synchronous ``call`` of one method
of the worker's gateway.  These tests drive that dispatch directly:
the session lifecycle through both, the error payloads that travel
back instead of raising, and the eviction and analytics side channels.
What the parent does with an eviction that crosses a request in
flight is pinned at the pool level, in
``tests/serving/test_gateway_qos.py``.
"""

import pickle
from operator import methodcaller

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


def call(method, *args, **kwargs):
    """The parent's synchronous request for one gateway method."""
    return ("call", None, methodcaller(method, *args, **kwargs))


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
    """The one item result of a one-chunk round response: its events,
    or the exception it raised."""
    (result,) = ok(response)
    return result


def ok_item(response):
    """The events of a successful one-chunk round."""
    result = item(response)
    assert not isinstance(result, Exception), result
    return result


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
        response = state.handle(call("open_session", "s"))
        assert response[:2] == ("call", None)
        assert ok(response) is None
        assert response[3] == [] and response[4] == ([], {})
        events = feed(state, "s", record.signal)
        events += ok(state.handle(call("poll", "s")))
        assert ok(state.handle(call("flush_batch"))) >= 0
        events += ok(state.handle(call("close_session", "s")))
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1), events
        )
        assert state.gateway.n_sessions == 0

    def test_release_import(self, state, record):
        ok(state.handle(call("open_session", "s", max_latency_ticks=3)))
        feed(state, "s", record.signal[: int(4 * FS)])
        released = ok(state.handle(call("release_session", "s")))
        assert isinstance(released, SessionExport)
        assert released.max_latency_ticks == 3
        assert state.gateway.session_ids() == []
        # The import payload crosses a pipe, so it must survive pickle.
        released = pickle.loads(pickle.dumps(released))
        assert ok(state.handle(call("import_session", released, "t"))) == "t"
        assert state.gateway.session_ids() == ["t"]
        ok(state.handle(call("close_session", "t")))

    def test_stats_is_the_gateway_per_worker_schema(self, state, record):
        ok(state.handle(call("open_session", "s")))
        feed(state, "s", record.signal[: int(3 * FS)])
        stats = ok(state.handle(call("stats")))["per_worker"][0]
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
        ok(state.handle(call("open_session", "s")))
        for request in (
            call("open_session", "s"),  # already open
            call("close_session", "nope"),
            call("release_session", "nope"),
        ):
            status, error = state.handle(request)[2]
            assert status == "err"
            assert isinstance(error, (KeyError, ValueError))
        # A round item's error travels in its own slot, as raised.
        assert isinstance(item(state.handle(ingest("nope", np.zeros(10)))), KeyError)

    def test_an_eviction_rides_the_response_of_its_round(
        self, state, record, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        """A round whose tick evicts a session carries the final
        sequence on its own response, once; a later item of the round
        for the evicted id gets the gateway's ``KeyError`` as is."""
        fed = int(4 * FS)
        ok(state.handle(call("open_session", "active")))
        ok(state.handle(call("open_session", "idle", evict_after_ticks=1)))
        response = state.handle(
            round_request(
                ("idle", record.signal[:fed]),
                ("active", record.signal[:144]),  # its tick evicts "idle"
                ("idle", record.signal[:90]),
            )
        )
        early, _, late = ok(response)
        assert isinstance(late, KeyError)
        assert [sid for sid, _ in response[3]] == ["idle"]
        assert state.gateway.take_evicted() == {}  # shipped, not kept
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1, upto=fed),
            early + response[3][0][1],
        )
        assert state.handle(call("poll", "active"))[3] == []

    def test_analytics_ride_the_aux_channel(self, embedded_classifier, record):
        state = _WorkerState(
            embedded_classifier, FS, {"analytics": default_pipeline}
        )
        ok(state.handle(call("open_session", "s")))
        alerts = []
        for i in range(0, record.n_samples, 180):
            response = state.handle(ingest("s", record.signal[i : i + 180]))
            alerts += response[4][0]
        response = state.handle(call("close_session", "s"))
        alerts += response[4][0]
        summaries = response[4][1]
        assert set(summaries) == {"s"}
        assert summaries["s"]["n_episodes"] == len(alerts)
        # Drained into the response, so nothing is left worker-side.
        assert state.gateway.take_alerts() == []
        assert state.gateway.take_summaries() == {}


class TestEvictedSessions:
    """What the worker itself still owes an evicted session: its final
    sequence ships once, on the next response of any kind, and its id
    is free for a new session straight away."""

    FED = int(4 * FS)

    def _evict_idle(self, state, record, *, through_handle=True):
        """Open ``active`` and ``idle`` (budget 1 tick), feed ``idle``
        one chunk, then let an ``active`` ingest evict it.  Through
        ``handle`` the notice rides that round's response; directly on
        the gateway it stays pending there.  Returns ``idle``'s ingest
        events and the round's eviction notices."""
        ok(state.handle(call("open_session", "active")))
        ok(state.handle(call("open_session", "idle", evict_after_ticks=1)))
        chunk, tick = record.signal[: self.FED], record.signal[:144]
        if not through_handle:
            early = state.gateway.ingest("idle", chunk)
            state.gateway.ingest("active", tick)
            return early, []
        early = ok_item(state.handle(ingest("idle", chunk)))
        return early, state.handle(ingest("active", tick))[3]

    @pytest.mark.parametrize(
        "request_", [
            call("poll", "active"),
            call("flush_batch"),
            call("stats"),
            call("release_session", "active"),
        ],
        ids=["poll", "flush_batch", "stats", "release_session"],
    )
    def test_every_call_ships_the_pending_evictions(
        self, state, record, embedded_classifier, standalone_events,
        assert_events_equal, request_,
    ):
        early, _ = self._evict_idle(state, record, through_handle=False)
        response = state.handle(request_)
        ok(response)
        assert [sid for sid, _ in response[3]] == ["idle"]
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1, upto=self.FED),
            early + response[3][0][1],
        )
        # Shipped once: the gateway keeps nothing, the next call is bare.
        assert state.gateway.take_evicted() == {}
        assert state.handle(call("stats"))[3] == []

    @pytest.mark.parametrize("reopen", ["open", "import"])
    def test_a_reused_id_is_served_again(
        self, state, record, embedded_classifier, standalone_events,
        assert_events_equal, reopen,
    ):
        ok(state.handle(call("open_session", "spare")))
        export = ok(state.handle(call("release_session", "spare")))
        _, notices = self._evict_idle(state, record)
        assert [sid for sid, _ in notices] == ["idle"]
        if reopen == "open":
            ok(state.handle(call("open_session", "idle")))
        else:
            assert ok(state.handle(call("import_session", export, "idle"))) == "idle"
        # The reused id's chunks reach its new session, from sample 0.
        events = feed(state, "idle", record.signal[: self.FED])
        events += ok(state.handle(call("close_session", "idle")))
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, 1, upto=self.FED),
            events,
        )
