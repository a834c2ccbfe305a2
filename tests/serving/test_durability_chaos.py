"""Kill-chaos suite: seeded ``kill -9`` schedules against the
journaled (self-healing) pool, for both journal backends.

Random interleavings of ``open`` / ``ingest`` / ``poll`` / ``migrate``
over a two-worker process pool, with SIGKILLs of randomly chosen
workers injected at random points (plus one forced kill mid-schedule,
so every seed actually exercises recovery).  The pinned contract is
the durability tier's whole point: **every event sequence the caller
accumulates — across however many crashes — is bit-exact with a
standalone inline-mode ``StreamingNode``** fed the full stream.  No
event is lost (the write-ahead journal makes accepted chunks durable)
and none is delivered twice (the delivered counter scopes replay).

Failures replay deterministically; set ``REPRO_CHAOS_SEED=<int>`` to
override the seed sets (see ``conftest.pytest_generate_tests``).
"""

import os
import signal

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    FileJournalStore,
    MemoryJournalStore,
    SessionJournal,
    ShardedGateway,
)

N_LEADS = 1
FS = 360.0
#: Journal backends under test, each with its fixed chaos-seed offset.
BACKENDS = {"file": 0, "memory": 2}


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            10.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name=f"kill-{s}"
        )
        for s in (201, 202, 203)
    ]


def make_journal(backend, tmp_path, snapshot_every):
    if backend == "memory":
        store = MemoryJournalStore()
    else:
        store = FileJournalStore(str(tmp_path / "journal"))
    return SessionJournal(store, snapshot_every=snapshot_every)


def chunk_queue(record, rng):
    """Split a record into random 16..700-sample ingest chunks."""
    chunks, i = [], 0
    while i < record.n_samples:
        n = int(rng.integers(16, 700))
        chunks.append(record.signal[i : i + n])
        i += n
    return chunks


def sigkill(gateway, index) -> bool:
    proc = gateway._procs[index]
    if not proc.is_alive():  # already dead from an earlier kill
        return False
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(5.0)
    return True


class TestKillChaos:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.chaos_seeds(0, 1)
    def test_random_kill_schedule_is_bit_exact(
        self, backend, chaos_seed, records, embedded_classifier,
        assert_events_equal, standalone_events, tmp_path,
    ):
        rng = np.random.default_rng(
            7000 + 10 * chaos_seed + BACKENDS[backend]
        )
        journal = make_journal(
            backend, tmp_path, snapshot_every=int(rng.integers(2, 9))
        )
        n_kills = 0
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS,
            max_batch=int(rng.integers(4, 32)),
            max_latency_ticks=int(rng.integers(2, 12)),
        ) as gateway:
            sessions = {}
            for i, record in enumerate(records):
                sessions[f"s{i}"] = dict(
                    record=record, chunks=chunk_queue(record, rng),
                    fed=0, events=[],
                )
                gateway.open_session(f"s{i}")
            total_chunks = sum(len(s["chunks"]) for s in sessions.values())
            forced_kill_at = total_chunks // 2
            ingested = 0

            def close(sid):
                state = sessions.pop(sid)
                state["events"] += gateway.close_session(sid)
                # Killed workers or not, the accumulated sequence is
                # the standalone node's, on the full stream.
                assert_events_equal(
                    standalone_events(
                        embedded_classifier, state["record"], FS, N_LEADS,
                        upto=state["fed"],
                    ),
                    state["events"],
                )

            while sessions:
                if ingested == forced_kill_at:
                    # Guarantee the schedule kills a session-owning
                    # worker at least once per seed.
                    ingested += 1  # fire exactly once
                    victim = gateway.worker_of(sorted(sessions)[0])
                    n_kills += sigkill(gateway, victim)
                sid = str(rng.choice(sorted(sessions)))
                state = sessions[sid]
                roll = rng.random()
                if roll < 0.70:
                    if not state["chunks"]:
                        close(sid)
                        continue
                    chunk = state["chunks"].pop(0)
                    state["events"] += gateway.ingest(sid, chunk)
                    state["fed"] += len(chunk)
                    ingested += 1
                elif roll < 0.78:
                    n_kills += sigkill(gateway, int(rng.integers(0, 2)))
                elif roll < 0.88:
                    state["events"] += gateway.poll(sid)
                elif roll < 0.95:
                    gateway.migrate_session(sid, int(rng.integers(0, 2)))
                else:
                    gateway.flush_batch()
            stats = gateway.stats()
            # Every session closed cleanly: nothing is left to recover.
            assert journal.session_ids() == []
        journal.close()
        assert n_kills >= 1
        assert stats["recoveries"] >= 1
        assert stats["respawns"] >= n_kills

    @pytest.mark.chaos_seeds(0)
    def test_kill_then_restart_then_kill_again(
        self, chaos_seed, records, embedded_classifier,
        assert_events_equal, standalone_events, tmp_path,
    ):
        """The full gauntlet: a worker kill, a full-process restart
        over the surviving journal directory, then another kill — one
        uninterrupted bit-exact sequence through all three."""
        rng = np.random.default_rng(9000 + chaos_seed)
        record = records[0]
        chunks = chunk_queue(record, rng)
        cuts = sorted(rng.choice(range(1, len(chunks)), size=2, replace=False))
        events, fed = [], 0

        def run_segment(gateway, segment, kill_after):
            nonlocal fed
            events.append(gateway.poll("s"))  # restart backlog, if any
            for j, chunk in enumerate(segment):
                events.append(gateway.ingest("s", chunk))
                fed += len(chunk)
                if j == kill_after:
                    sigkill(gateway, gateway.worker_of("s"))

        journal = make_journal("file", tmp_path, snapshot_every=3)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS, max_batch=8,
        ) as gateway:
            gateway.open_session("s")
            run_segment(gateway, chunks[: cuts[0]], kill_after=cuts[0] // 2)
        journal.close()  # process "restart": pool reaped, journal kept

        journal = make_journal("file", tmp_path, snapshot_every=3)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS, max_batch=8,
        ) as gateway:
            assert gateway.check_workers() == 1
            run_segment(
                gateway, chunks[cuts[0] : cuts[1]],
                kill_after=(cuts[1] - cuts[0]) // 2,
            )
            run_segment(gateway, chunks[cuts[1] :], kill_after=-1)
            events.append(gateway.close_session("s"))
        journal.close()
        assert fed == record.n_samples
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, N_LEADS),
            [event for batch in events for event in batch],
        )


class TestEvictionSalvageChaos:
    """Kill a worker *between* evicting a session and the parent
    reading the response that carries the final events.

    A worker-side idle eviction rides the next pipelined response; if
    the worker dies before the parent drains it, those final events
    used to vanish — neither ``take_evicted()`` nor recovery would
    ever see them (the journal entry still existed, but a recovery
    *resurrecting* the session would contradict the worker's completed
    close).  Recovery now salvages the dead worker's buffered
    responses first: the eviction is delivered for real, counted in
    ``evictions_salvaged``, and the session stays closed.
    """

    @pytest.mark.chaos_seeds(0, 1)
    def test_kill_between_evict_and_delivery(
        self, chaos_seed, records, embedded_classifier,
        assert_events_equal, standalone_events, tmp_path,
    ):
        rng = np.random.default_rng(9500 + chaos_seed)
        # A large snapshot cadence: a mid-ingest snapshot is a
        # synchronous request that would drain the pipe and deliver
        # the eviction the ordinary way, defusing the race under test.
        journal = make_journal("file", tmp_path, snapshot_every=64)
        stale_upto = int(rng.integers(1000, 3000))
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS, max_batch=int(rng.integers(4, 24)),
        ) as gateway:
            # Both sessions pinned to worker 0 so the busy session's
            # ingests advance the stale one's idle clock.
            gateway.open_session("stale", worker=0, evict_after_ticks=1)
            gateway.open_session("busy", worker=0)
            events = [gateway.ingest("stale", records[0].signal[:stale_upto])]
            # Synchronize (poll drains every buffered response), so
            # exactly ONE pipelined response is outstanding next — the
            # busy ingest whose worker-side tick evicts the stale
            # session.  poll(10.0) below then guarantees the buffered
            # response is the one carrying the eviction notice.
            events.append(gateway.poll("stale"))
            busy_chunks = chunk_queue(records[1], rng)
            events.append(gateway.ingest("busy", busy_chunks[0]))
            fed = len(busy_chunks[0])
            # Wait for the worker to write the (undrained) response,
            # then kill it before anything reads the pipe.
            conn = gateway._conns[0]
            assert conn.poll(10.0)
            assert sigkill(gateway, 0)
            assert gateway.check_workers() >= 1  # busy recovered
            # The salvaged eviction reached the caller surface ...
            evicted = gateway.take_evicted()
            assert "stale" in evicted
            assert_events_equal(
                standalone_events(
                    embedded_classifier, records[0], FS, N_LEADS,
                    upto=stale_upto,
                ),
                events[0] + events[1] + evicted["stale"],
            )
            assert gateway.stats()["evictions_salvaged"] >= 1
            # ... and recovery did not resurrect the closed session.
            assert "stale" not in gateway._owner
            assert "stale" not in journal.session_ids()
            # The surviving session continues bit-exactly to the end.
            for chunk in busy_chunks[1:]:
                events.append(gateway.ingest("busy", chunk))
                fed += len(chunk)
            events.append(gateway.close_session("busy"))
            assert fed == records[1].n_samples
            assert_events_equal(
                standalone_events(embedded_classifier, records[1], FS, N_LEADS),
                [e for batch in events[2:] for e in batch],
            )
        journal.close()
