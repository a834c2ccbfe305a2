"""ShardedGateway: the multi-worker gateway vs standalone StreamingNode.

The sharded tier inherits the single-process gateway's contract — every
session's event sequence is bit-exact with a standalone inline-mode
``StreamingNode`` — for every worker count, and adds placement:
hash-assignment, explicit placement, and live migration between
workers (and across gateway tiers, via the shared ``SessionExport``).
"""

import pickle
import time

import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    SessionExport,
    ShardedGateway,
    StreamGateway,
    serve_round_robin,
)

N_LEADS = 3


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            15.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"sess-{s}"
        )
        for s in (91, 92, 93)
    ]


@pytest.fixture(scope="module")
def reference_events(records, embedded_classifier, standalone_events):
    return [
        standalone_events(embedded_classifier, record, record.fs, N_LEADS)
        for record in records
    ]


def feed_blocks(gateway, sid, signal, block, start=0, stop=None):
    """Ingest ``signal[start:stop]`` in ``block``-sample chunks."""
    events, i = [], start
    stop = len(signal) if stop is None else stop
    while i < stop:
        events += gateway.ingest(sid, signal[i : i + block])
        i += block
    return events


class TestShardedBitExactness:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_round_robin_matches_standalone(
        self, workers, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """serve_round_robin drives the sharded gateway unchanged; the
        per-session sequences are bit-exact for every worker count."""
        fs = records[0].fs
        with ShardedGateway(
            embedded_classifier, fs, workers=workers, n_leads=N_LEADS, max_batch=16
        ) as gateway:
            events = serve_round_robin(
                gateway,
                {f"s{i}": record.signal for i, record in enumerate(records)},
                int(0.5 * fs),
            )
            assert gateway.n_sessions == 0
            stats = gateway.stats()
        for i, expected in enumerate(reference_events):
            assert_events_equal(expected, events[f"s{i}"])
        assert stats["n_classified"] == sum(len(e) for e in reference_events)
        assert stats["n_flushes"] >= 1

    def test_migration_between_workers_mid_stream(
        self, records, embedded_classifier, reference_events, assert_events_equal
    ):
        """A session moved to another worker mid-stream continues
        bit-exactly (release + import under the hood)."""
        record = records[0]
        fs = record.fs
        block = int(0.4 * fs)
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=8
        ) as gateway:
            gateway.open_session("p")
            origin = gateway.worker_of("p")
            events, i = [], 0
            while i < record.n_samples // 2:
                events += gateway.ingest("p", record.signal[i : i + block])
                i += block
            gateway.migrate_session("p", 1 - origin)
            assert gateway.worker_of("p") == 1 - origin
            while i < record.n_samples:
                events += gateway.ingest("p", record.signal[i : i + block])
                i += block
            events += gateway.close_session("p")
        assert_events_equal(reference_events[0], events)

    def test_cross_tier_migration(
        self, records, embedded_classifier, reference_events, assert_events_equal
    ):
        """SessionExport is one currency: a session can leave a sharded
        gateway and resume on a plain StreamGateway (through pickle,
        i.e. across hosts), and vice versa."""
        record = records[1]
        fs = record.fs
        block = int(0.4 * fs)
        single = StreamGateway(embedded_classifier, fs, n_leads=N_LEADS)
        events, i = [], 0
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS
        ) as sharded:
            sharded.open_session("p")
            while i < record.n_samples // 3:
                events += sharded.ingest("p", record.signal[i : i + block])
                i += block
            export = pickle.loads(pickle.dumps(sharded.release_session("p")))
            assert sharded.n_sessions == 0
            single.import_session(export)
            while i < 2 * record.n_samples // 3:
                events += single.ingest("p", record.signal[i : i + block])
                i += block
            sharded.import_session(single.release_session("p"))
            while i < record.n_samples:
                events += sharded.ingest("p", record.signal[i : i + block])
                i += block
            events += sharded.close_session("p")
        assert_events_equal(reference_events[1], events)

    def test_poll_fetches_cross_session_flushes(
        self, records, embedded_classifier
    ):
        """Events resolved by another session's flush on the same worker
        are reachable via poll, without ingesting more samples."""
        record = records[0]
        fs = records[0].fs
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=1
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=0)
            gateway.ingest("a", record.signal)  # whole stream; flushes repeatedly
            gateway.ingest("b", records[1].signal[: int(0.1 * fs)])
            polled = gateway.poll("a")
            assert len(polled) >= 5
            peaks = [e.peak for e in polled]
            assert peaks == sorted(peaks)
            gateway.close_session("a")
            gateway.close_session("b")

    def test_flush_drains_every_workers_batch(
        self, records, embedded_classifier, reference_events, assert_events_equal
    ):
        """``flush()`` runs one classifier pass on every worker: beats
        queued on both workers below the flush thresholds are all
        classified, and the events stay bit-exact."""
        fs = records[0].fs
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS,
            max_batch=10_000, max_latency_ticks=10_000,
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=1)
            # Whole streams: beats queue on BOTH workers, nowhere near
            # the flush thresholds.
            events = {
                "a": gateway.ingest("a", records[0].signal),
                "b": gateway.ingest("b", records[1].signal),
            }
            queued = [w["n_queued"] for w in gateway.stats()["per_worker"]]
            assert all(n > 0 for n in queued)
            assert gateway.flush_batch() == sum(queued)
            stats = gateway.stats()
            assert [w["n_queued"] for w in stats["per_worker"]] == [0, 0]
            assert all(w["n_flushes"] >= 1 for w in stats["per_worker"])
            for sid in events:
                events[sid] += gateway.poll(sid)
                events[sid] += gateway.close_session(sid)
        assert_events_equal(reference_events[0], events["a"])
        assert_events_equal(reference_events[1], events["b"])

    def test_migration_counts_each_beat_once(
        self, records, embedded_classifier, reference_events, assert_events_equal
    ):
        """After a mid-stream migration the pool's ``n_classified`` is
        exactly the session's event count: the beats classified on the
        origin worker and on the target are neither lost nor doubled."""
        record = records[2]
        fs = record.fs
        block = int(0.4 * fs)
        # A small batch bound makes both workers classify some beats.
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=2
        ) as gateway:
            gateway.open_session("p")
            origin = gateway.worker_of("p")
            # Past the peak detector's learning phase (about 10 s).
            cut = 3 * record.n_samples // 4
            events = feed_blocks(gateway, "p", record.signal, block, 0, cut)
            gateway.migrate_session("p", 1 - origin)
            resume = -(-cut // block) * block  # first block start >= cut
            events += feed_blocks(gateway, "p", record.signal, block, resume)
            events += gateway.close_session("p")
            stats = gateway.stats()
        assert_events_equal(reference_events[2], events)
        assert stats["workers"] == 2
        assert stats["migrations"] == 1
        assert stats["n_classified"] == len(events)
        assert all(w["n_classified"] > 0 for w in stats["per_worker"])


class TestShardedValidation:
    """Constructor errors name the allowed values, like executors.py."""

    def test_workers_bound_named(self, embedded_classifier):
        with pytest.raises(ValueError, match=r"workers must be >= 1, got 0"):
            ShardedGateway(embedded_classifier, 360.0, workers=0)
        with pytest.raises(ValueError, match=r"workers must be >= 1, got -2"):
            ShardedGateway(embedded_classifier, 360.0, workers=-2)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(max_batch=0), r"max_batch must be >= 1, got 0"),
            (dict(max_latency_ticks=0), r"max_latency_ticks must be >= 1, got 0"),
            (dict(evict_after_ticks=0), r"evict_after_ticks must be >= 1, got 0"),
        ],
    )
    def test_bounds_named(self, kwargs, match, embedded_classifier):
        with pytest.raises(ValueError, match=match):
            ShardedGateway(embedded_classifier, 360.0, **kwargs)

    def test_stream_gateway_bounds_named(self, embedded_classifier):
        """StreamGateway phrases its bounds the same way (shared
        validate_at_least), including the new QoS knobs."""
        with pytest.raises(ValueError, match=r"max_batch must be >= 1, got 0"):
            StreamGateway(embedded_classifier, 360.0, max_batch=0)
        with pytest.raises(
            ValueError, match=r"max_latency_ticks must be >= 1, got -1"
        ):
            StreamGateway(embedded_classifier, 360.0, max_latency_ticks=-1)
        with pytest.raises(ValueError, match=r"evict_after_ticks must be >= 1, got 0"):
            StreamGateway(embedded_classifier, 360.0, evict_after_ticks=0)
        gateway = StreamGateway(embedded_classifier, 360.0)
        with pytest.raises(ValueError, match=r"max_latency_ticks must be >= 1"):
            gateway.open_session("s", max_latency_ticks=0)
        with pytest.raises(ValueError, match=r"evict_after_ticks must be >= 1"):
            gateway.open_session("s", evict_after_ticks=0)

    def test_invalid_construction_leaves_no_processes(self, embedded_classifier):
        """Validation happens before any worker is spawned."""
        import multiprocessing

        before = len(multiprocessing.active_children())
        for kwargs in (dict(workers=0), dict(max_batch=0)):
            with pytest.raises(ValueError):
                ShardedGateway(embedded_classifier, 360.0, **kwargs)
        assert len(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("option", ["inbox_capacity", "inbox_policy", "mp_context"])
    def test_removed_options_rejected_before_spawning(self, option, embedded_classifier):
        """The pool has no bounded inboxes and starts its workers with
        the platform's default context: these keywords are unknown,
        and refusing one spawns no worker."""
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(TypeError, match=option):
            ShardedGateway(embedded_classifier, 360.0, **{option: None})
        assert len(multiprocessing.active_children()) == before

    def test_session_export_defaults_are_backward_compatible(self):
        """Old-style three-field exports (pre-QoS pickles) still load."""
        export = SessionExport(session_id="s", snapshot=None)
        assert export.max_latency_ticks is None
        assert export.evict_after_ticks is None


class TestPipelinedErrors:
    @pytest.fixture(scope="class")
    def record(self):
        return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=81).synthesize(
            18.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name="qos"
        )

    @pytest.fixture(scope="class")
    def block(self, record):
        return int(0.4 * record.fs)

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
            export = gateway._call(0, "release_session", "bad")
            assert gateway.ingest("bad", record.signal[:block]) == []
            # The unrelated session keeps working while the error is in
            # flight and after it has been parked.
            for i in range(3):
                gateway.ingest("good", record.signal[i * block : (i + 1) * block])
            gateway.poll("good")
            gateway.flush_batch()  # every worker has answered: the error is parked
            with pytest.raises(KeyError, match="bad"):
                gateway.ingest("bad", record.signal[:block])
            # Protocol still in sync: the session serves again once the
            # worker has it back.
            gateway._call(0, "import_session", export, "bad")
            assert gateway.ingest("bad", record.signal[:block]) == []
            gateway.close_session("bad")
            gateway.close_session("good")


class TestLifecycleTeardown:
    """The best-effort ``__del__`` reap must never raise — not during
    interpreter shutdown with already-closed worker pipes, and not on a
    half-constructed instance."""

    def test_shutdown_tolerates_closed_pipes(self, embedded_classifier):
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=2)
        for conn in gateway._conns:
            conn.close()  # simulate interpreter-shutdown teardown order
        gateway.shutdown()  # must not raise
        gateway.shutdown()  # idempotent
        gateway.__del__()   # and the destructor stays silent

    def test_shutdown_with_closed_pipes_is_fast(self, embedded_classifier):
        """A worker that cannot be sent the stop message is terminated
        at once, not waited for."""
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=2)
        procs = list(gateway._procs)
        for conn in gateway._conns:
            conn.close()
        start = time.perf_counter()
        gateway.shutdown()
        assert time.perf_counter() - start < 1.0
        assert not any(proc.is_alive() for proc in procs)

    def test_workers_exit_when_the_parent_goes_away(self, embedded_classifier):
        """Closing every parent-side pipe end, as the parent's death
        does, ends every worker process without a stop message: no
        worker holds another copy of its own pipe's parent end."""
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=3)
        procs = list(gateway._procs)
        for conn in gateway._conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
        assert not any(proc.is_alive() for proc in procs)
        gateway.shutdown()

    def test_del_on_shut_down_gateway_is_silent(self, embedded_classifier):
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=1)
        gateway.shutdown()
        gateway.__del__()  # must not raise after a clean shutdown

    def test_del_on_unconstructed_instance_is_silent(self):
        """__init__ may raise before any attribute exists (e.g. a
        validation error); the destructor still runs."""
        ShardedGateway.__del__(object.__new__(ShardedGateway))

    def test_failed_validation_still_collects_quietly(self, embedded_classifier):
        with pytest.raises(ValueError):
            ShardedGateway(embedded_classifier, 360.0, workers=0)
        # The half-constructed instance from the raising __init__ was
        # collected without its __del__ raising (nothing to assert
        # beyond "no exception escaped the collector" — gc it now).
        import gc

        gc.collect()
