"""Member pool: placement policies, migration, elastic membership, stats.

Contracts on top of the sharded tier's bit-exactness:

* placement policies put sessions where they claim to
  (:data:`~repro.serving.PLACEMENTS`, validated like executors), an
  explicit ``worker=`` wins over every policy, and a drain places the
  retired worker's sessions by the same policy;
* ``migrate_session`` moves a live session bit-exactly, is a no-op onto
  its own worker, and of a session evicted under an undrained notice
  raises ``KeyError`` and leaves the placement map consistent;
* the elastic pool drains losslessly: ``retire_worker`` of a worker
  with chunks still in flight migrates its sessions with no event
  loss, a pool grown and shrunk mid-stream keeps every session
  bit-exact, and the ``stats()`` schema is pinned.
"""

import os
import signal

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import PLACEMENTS, ShardedGateway
from repro.serving.executors import validate_placement

N_LEADS = 1


def feed_interleaved(gateway, streams, block, events, start, stop):
    """Ingest ``[start, stop)`` of every stream in ``block``-sample
    chunks, one chunk per session in turn; collect per-session events."""
    for i in range(start, stop, block):
        for sid, signal in streams.items():
            events[sid] += gateway.ingest(sid, signal[i : min(i + block, stop)])


def close_all(gateway, events):
    for sid in gateway.session_ids():
        events[sid] += gateway.close_session(sid)


def skewed_ids(n, workers):
    """``n`` session ids that all hash onto worker 0 of ``workers``."""
    ids = (f"skew-{i}" for i in range(10_000))
    return [
        sid for sid in ids if ShardedGateway._hash(sid) % workers == 0
    ][:n]


@pytest.fixture(scope="module")
def record():
    return RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=201).synthesize(
        12.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name="pool"
    )


class TestPlacementPolicies:
    def test_placements_export_and_validation(self):
        assert PLACEMENTS == ("hash", "least-loaded", "round-robin")
        assert validate_placement("hash") == "hash"
        with pytest.raises(ValueError) as excinfo:
            validate_placement("random")
        message = str(excinfo.value)
        assert "random" in message
        for name in PLACEMENTS:
            assert name in message

    def test_unknown_placement_rejected_before_spawning(self, embedded_classifier):
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown placement"):
            ShardedGateway(embedded_classifier, 360.0, placement="spread")
        assert len(multiprocessing.active_children()) == before

    def test_round_robin_cycles(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="round-robin",
            n_leads=N_LEADS,
        ) as gateway:
            for i in range(6):
                gateway.open_session(f"s{i}")
            assert [gateway.worker_of(f"s{i}") for i in range(6)] == [0, 1, 2, 0, 1, 2]
            assert gateway.session_counts() == [2, 2, 2]

    def test_least_loaded_fills_gaps(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=0)
            gateway.open_session("c", worker=2)
            gateway.open_session("d")  # emptiest is worker 1
            assert gateway.worker_of("d") == 1
            gateway.open_session("e")  # tie 1 vs 2 -> lowest index
            assert gateway.worker_of("e") == 1
            assert gateway.sessions_on(0) == ["a", "b"]

    def test_hash_placement_unchanged(self, embedded_classifier):
        """The default policy is still the stable CRC-32 assignment."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=4, n_leads=N_LEADS
        ) as gateway:
            assert gateway.placement == "hash"
            for sid in ("alpha", "beta", "gamma"):
                gateway.open_session(sid)
                assert gateway.worker_of(sid) == gateway._hash(sid) % gateway.workers


    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_explicit_worker_overrides_placement(
        self, placement, embedded_classifier
    ):
        """``worker=`` wins over every policy and does not advance it:
        the next policy-placed session lands where it would have."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement=placement,
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("pinned", worker=2)
            assert gateway.worker_of("pinned") == 2
            gateway.open_session("next")
            expected = {
                "hash": gateway._hash("next") % 3,
                "least-loaded": 0,  # emptiest, lowest index
                "round-robin": 0,  # the cycle starts untouched
            }[placement]
            assert gateway.worker_of("next") == expected

    def test_reopening_an_open_session_is_rejected(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, placement="round-robin",
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a")
            with pytest.raises(ValueError, match="already open"):
                gateway.open_session("a", worker=1)
            assert gateway.session_counts() == [1, 0]
            gateway.open_session("b")  # the rejection used no turn
            assert gateway.worker_of("b") == 1

    def test_round_robin_cycles_over_survivors_after_a_retire(
        self, embedded_classifier
    ):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="round-robin",
            n_leads=N_LEADS,
        ) as gateway:
            for i in range(3):
                gateway.open_session(f"s{i}")
            gateway.retire_worker(1)
            assert gateway.session_counts() == [1, 2]
            for i in range(3, 7):
                gateway.open_session(f"s{i}")
            assert [gateway.worker_of(f"s{i}") for i in range(3, 7)] == [0, 1, 0, 1]

    def test_least_loaded_drain_evens_the_survivors(self, embedded_classifier):
        """A drain places each moved session by the policy, excluding
        the retiring worker: least-loaded fills the emptiest survivor."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            for sid in ("a", "b", "c", "d"):
                gateway.open_session(sid, worker=0)
            gateway.open_session("e", worker=1)
            assert gateway.retire_worker(0) == 4
            # a -> 2, b -> 1, c -> 2, d -> 1, then indices shift down.
            assert gateway.session_counts() == [3, 2]
            assert gateway.sessions_on(0) == ["b", "d", "e"]
            assert gateway.sessions_on(1) == ["a", "c"]


class TestMigration:
    def test_migration_validation_and_self_move(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("a", worker=0)
            with pytest.raises(KeyError, match="no open session"):
                gateway.migrate_session("ghost", 1)
            with pytest.raises(ValueError, match=r"worker must be in \[0, 2\)"):
                gateway.migrate_session("a", 2)
            gateway.migrate_session("a", 0)  # already there: a no-op
            assert gateway.worker_of("a") == 0
            assert gateway.stats()["migrations"] == gateway.n_migrations == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_seeded_moves_of_a_skewed_fleet_are_bit_exact(
        self, workers, record, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """Sessions that all hash onto one worker, moved between workers
        by seeded direct migrations between chunks, keep every event
        bit-exact with a standalone node."""
        fs = record.fs
        block = int(0.5 * fs)
        rng = np.random.default_rng(workers)
        sids = skewed_ids(4, workers)
        streams = {sid: record.signal for sid in sids}
        events = {sid: [] for sid in sids}
        with ShardedGateway(
            embedded_classifier, fs, workers=workers, n_leads=N_LEADS, max_batch=8
        ) as gateway:
            for sid in sids:
                gateway.open_session(sid)
            assert gateway.session_counts()[0] == len(sids)
            for start in range(0, record.n_samples, 2 * block):
                feed_interleaved(
                    gateway, streams, block, events, start,
                    min(start + 2 * block, record.n_samples),
                )
                sid = sids[int(rng.integers(0, len(sids)))]
                gateway.migrate_session(sid, int(rng.integers(0, workers)))
            assert gateway.n_migrations > 0
            close_all(gateway, events)
        expected = standalone_events(embedded_classifier, record, fs, N_LEADS)
        for sid in sids:
            assert_events_equal(expected, events[sid])

    def test_migrating_a_session_evicted_under_an_undrained_notice(
        self, embedded_classifier
    ):
        """A session evicted after the caller's snapshot but before its
        migration (the eviction notice still undrained in the pipe)
        raises ``KeyError``, and the placement map stays consistent —
        same race ``retire_worker`` guards."""
        with ShardedGateway(
            embedded_classifier, 360.0, workers=2, n_leads=N_LEADS,
            evict_after_ticks=3,
        ) as gateway:
            for i in range(4):
                gateway.open_session(f"a{i}", worker=0)
            gateway.open_session("idle", worker=0)
            # Three ticks on worker 0 with only a0 ingesting: the
            # worker evicts every other session during the third; the
            # notices ride a pipelined response the parent has not
            # drained yet, so the parent still lists all five sessions.
            for _ in range(3):
                gateway.ingest("a0", np.zeros(32))
            assert gateway.session_counts() == [5, 0]  # notices undrained
            # The release of "idle" drains the eviction notices.
            with pytest.raises(KeyError):
                gateway.migrate_session("idle", 1)
            assert gateway.session_counts() == [1, 0]
            gateway.migrate_session("a0", 1)
            assert set(gateway.take_evicted()) == {"a1", "a2", "a3", "idle"}
            assert gateway.session_counts() == [0, 1]
            assert gateway.session_ids() == ["a0"]
            assert gateway.stats()["migrations"] == gateway.n_migrations == 1


class TestElasticPool:
    def test_add_worker_grows_and_places(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, placement="least-loaded",
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a")
            index = gateway.add_worker()
            assert (index, gateway.workers) == (1, 2)
            gateway.open_session("b")  # least-loaded favors the new worker
            assert gateway.worker_of("b") == 1
            assert gateway.stats()["scale_events"] == 1

    def test_retire_last_worker_rejected(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=1, n_leads=N_LEADS
        ) as gateway:
            with pytest.raises(ValueError, match="cannot retire the last worker"):
                gateway.retire_worker(0)
            with pytest.raises(ValueError, match=r"worker must be in \[0, 1\)"):
                gateway.retire_worker(1)

    def test_retire_reindexes_surviving_sessions(self, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, 360.0, workers=3, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=1)
            gateway.open_session("c", worker=2)
            moved = gateway.retire_worker(1)
            assert moved == 1
            assert gateway.workers == 2
            assert gateway.worker_of("a") == 0
            assert gateway.worker_of("c") == 1  # shifted down
            assert gateway.n_sessions == 3
            stats = gateway.stats()
            assert len(stats["per_worker"]) == 2
            assert stats["n_sessions"] == 3
            # Drain moves count as migrations, like any other move.
            assert stats["migrations"] == moved == gateway.n_migrations

    def test_scaling_rejected_after_shutdown(self, embedded_classifier):
        gateway = ShardedGateway(embedded_classifier, 360.0, workers=2)
        gateway.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            gateway.add_worker()
        with pytest.raises(RuntimeError, match="shut down"):
            gateway.retire_worker(0)

    def test_retire_drains_in_flight_chunks_losslessly(
        self, record, embedded_classifier, assert_events_equal, standalone_events
    ):
        """Retiring a worker whose sessions have chunks shipped but not
        yet processed loses nothing: the drain waits for the worker and
        folds every buffered event into the migration."""
        fs = record.fs
        block = int(0.5 * fs)
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=4,
        ) as gateway:
            gateway.open_session("p", worker=0)
            gateway.open_session("q", worker=0)
            events, i = [], 0
            # Stop worker 0 so that every chunk stays in flight.
            pid = gateway._procs[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                for _ in range(3):
                    events += gateway.ingest("p", record.signal[i : i + block])
                    gateway.ingest("q", record.signal[:block])
                    i += block
                assert not gateway._poll_conn(0)
            finally:
                os.kill(pid, signal.SIGCONT)
            moved = gateway.retire_worker(0)
            assert moved == 2
            assert gateway.workers == 1
            assert gateway.worker_of("p") == 0 and gateway.worker_of("q") == 0
            while i < record.n_samples:
                events += gateway.ingest("p", record.signal[i : i + block])
                i += block
            events += gateway.close_session("p")
            gateway.close_session("q")
        assert_events_equal(
            standalone_events(embedded_classifier, record, fs, N_LEADS), events
        )

    @pytest.mark.parametrize("move", ["migrate", "release", "close"])
    def test_chunks_in_flight_follow_a_move_or_close(
        self, move, record, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """Chunks shipped to a worker but not yet processed belong to
        the session: a migration or a release/import carries their
        events to the new owner, and a close returns them."""
        fs = record.fs
        block = int(0.5 * fs)
        with ShardedGateway(
            embedded_classifier, fs, workers=2, n_leads=N_LEADS, max_batch=4,
        ) as gateway:
            gateway.open_session("p", worker=0)
            events, i = [], 0
            pid = gateway._procs[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                for _ in range(3):
                    events += gateway.ingest("p", record.signal[i : i + block])
                    i += block
                assert not gateway._poll_conn(0)
            finally:
                os.kill(pid, signal.SIGCONT)
            if move == "close":
                events += gateway.close_session("p")
                reference = standalone_events(
                    embedded_classifier, record, fs, N_LEADS, upto=i
                )
                assert_events_equal(reference, events)
                return
            if move == "migrate":
                gateway.migrate_session("p", 1)
            else:
                export = gateway.release_session("p")
                assert gateway.n_sessions == 0
                gateway.import_session(export)
            while i < record.n_samples:
                events += gateway.ingest("p", record.signal[i : i + block])
                i += block
            events += gateway.close_session("p")
        assert_events_equal(
            standalone_events(embedded_classifier, record, fs, N_LEADS), events
        )

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_grow_and_shrink_mid_stream_is_bit_exact(
        self, placement, record, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        """A pool that gains a worker, moves a session onto it, opens a
        late session under the policy and then retires its first worker,
        all mid-stream, keeps every session bit-exact."""
        fs = record.fs
        block = int(0.5 * fs)
        third = (record.n_samples // 3 // block) * block
        early = {f"s{i}": record.signal for i in range(3)}
        events = {sid: [] for sid in [*early, "late"]}
        with ShardedGateway(
            embedded_classifier, fs, workers=1, placement=placement,
            n_leads=N_LEADS, max_batch=16,
        ) as gateway:
            for sid in early:
                gateway.open_session(sid)
            feed_interleaved(gateway, early, block, events, 0, third)
            assert gateway.add_worker() == 1
            gateway.migrate_session("s1", 1)
            gateway.open_session("late")
            feed_interleaved(gateway, early, block, events, third, 2 * third)
            feed_interleaved(
                gateway, {"late": record.signal}, block, events, 0, 2 * third
            )
            moved = gateway.retire_worker(0)
            assert gateway.workers == 1
            assert gateway.session_counts() == [4]
            everyone = {**early, "late": record.signal}
            feed_interleaved(
                gateway, everyone, block, events, 2 * third, record.n_samples
            )
            stats = gateway.stats()
            assert stats["scale_events"] == 2
            assert stats["migrations"] == 1 + moved
            close_all(gateway, events)
        expected = standalone_events(embedded_classifier, record, fs, N_LEADS)
        for sid in everyone:
            assert_events_equal(expected, events[sid])


class TestStatsSchema:
    """Pin the ``stats()`` schema every pool tier rolls up.

    If a key is renamed, dropped, or changes type, its readers (the
    STATS frame, the federation rollup, the CLI) would silently
    misread the load — this regression test fails instead.
    """

    TOTALS = ("n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted")
    ANALYTICS = ("sessions", "beats", "episodes", "alerts", "by_kind")

    def test_schema_keys_types_and_consistency(self, record, embedded_classifier):
        fs = record.fs
        with ShardedGateway(
            embedded_classifier, fs, workers=3, n_leads=N_LEADS, max_batch=4
        ) as gateway:
            for i in range(4):
                gateway.open_session(f"s{i}")
            for i in range(4):
                gateway.ingest(f"s{i}", record.signal[: int(2.0 * fs)])
            gateway.migrate_session("s0", (gateway.worker_of("s0") + 1) % 3)
            gateway.add_worker()
            stats = gateway.stats()

            expected = set(self.TOTALS) | {
                "analytics", "per_worker", "workers", "migrations", "scale_events"
            }
            assert set(stats) == expected
            assert stats["workers"] == gateway.workers == 4
            assert isinstance(stats["per_worker"], list)
            assert len(stats["per_worker"]) == stats["workers"]
            for key in ("workers", "migrations", "scale_events", *self.TOTALS):
                assert isinstance(stats[key], int), key
                assert stats[key] >= 0, key
            for block in [stats["analytics"]] + [
                w["analytics"] for w in stats["per_worker"]
            ]:
                assert set(block) == set(self.ANALYTICS)
                for key in ("sessions", "beats", "episodes", "alerts"):
                    assert isinstance(block[key], int), key
                    assert block[key] >= 0, key
                assert isinstance(block["by_kind"], dict)
            for worker_stats in stats["per_worker"]:
                assert set(worker_stats) == set(self.TOTALS) | {"analytics"}
                for key, value in worker_stats.items():
                    if key == "analytics":
                        continue
                    assert isinstance(value, int), key
                    assert value >= 0, key
            # Sum-over-workers consistency: every total is its column sum.
            for key in self.TOTALS:
                assert stats[key] == sum(w[key] for w in stats["per_worker"]), key
            assert stats["n_sessions"] == gateway.n_sessions == 4
            assert stats["migrations"] == gateway.n_migrations == 1
            assert stats["scale_events"] == gateway.n_scale_events == 1
            for sid in gateway.session_ids():
                gateway.close_session(sid)
