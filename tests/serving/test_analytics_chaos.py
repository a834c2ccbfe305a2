"""Chaos suite for the analytics tier: the operators' state must be
**bit-exact with a standalone fold** under every serving-layer fault.

Every test compares against the same comparator: a fresh
``default_pipeline`` fed the standalone inline-mode node's full event
sequence in *one* update call.  The gateway folds the same beats in
per-flush batches, across random chunk sizes, session interleavings,
live migrations (in-process and through pickle), idle evictions and
``SIGKILL``-ed workers of a journaled pool — and the final summaries must be
``==`` (episode sets too; ordering within an update is per-operator,
so sets are the batching-invariant artifact).

Failures replay deterministically; set ``REPRO_CHAOS_SEED=<int>`` to
override the seed sets (see ``conftest.pytest_generate_tests``).
"""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    AnalyticsPipeline,
    FileJournalStore,
    SessionJournal,
    ShardedGateway,
    StreamGateway,
    default_pipeline,
)

N_LEADS = 1
FS = 360.0


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            10.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name=f"anchaos-{s}"
        )
        for s in (401, 402, 403)
    ]


def chunk_queue(record, rng):
    """Split a record into random 16..700-sample ingest chunks."""
    chunks, i = [], 0
    while i < record.n_samples:
        n = int(rng.integers(16, 700))
        chunks.append(record.signal[i : i + n])
        i += n
    return chunks


def episode_set(episodes):
    return sorted(episodes, key=repr)


def reference(classifier, record, standalone_events, upto=None):
    """Standalone comparator: full event list folded in one pass."""
    events = standalone_events(classifier, record, FS, N_LEADS, upto=upto)
    pipeline = AnalyticsPipeline(default_pipeline(), FS)
    closed = pipeline.update(events)
    closed += pipeline.finalize()
    return pipeline.summary(), episode_set(closed)


class TestChunkInvarianceChaos:
    @pytest.mark.chaos_seeds(0, 1, 2)
    def test_random_schedule_summaries_match_standalone(
        self, chaos_seed, records, embedded_classifier, standalone_events
    ):
        rng = np.random.default_rng(4100 + chaos_seed)
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            max_batch=int(rng.integers(1, 48)),
            max_latency_ticks=int(rng.integers(1, 16)),
            analytics=default_pipeline,
        )
        sessions = {}
        for i, record in enumerate(records):
            sessions[f"s{i}"] = dict(
                record=record, chunks=chunk_queue(record, rng), fed=0
            )
            gateway.open_session(f"s{i}")
        summaries, alerts = {}, []
        while sessions:
            sid = str(rng.choice(sorted(sessions)))
            state = sessions[sid]
            roll = rng.random()
            if roll < 0.75:
                if not state["chunks"]:
                    gateway.close_session(sid)
                    summaries.update(gateway.take_summaries())
                    alerts += gateway.take_alerts()
                    del sessions[sid]
                    continue
                chunk = state["chunks"].pop(0)
                gateway.ingest(sid, chunk)
                state["fed"] += len(chunk)
            elif roll < 0.9:
                gateway.poll(sid)
            else:
                gateway.flush_batch()
        for i, record in enumerate(records):
            expected_summary, expected_closed = reference(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary
            got = [ep for sid, ep in alerts if sid == f"s{i}"]
            assert episode_set(got) == expected_closed


class TestMigrationChaos:
    @pytest.mark.chaos_seeds(0, 1)
    def test_migration_mid_episode_is_bit_exact(
        self, chaos_seed, records, embedded_classifier, standalone_events
    ):
        """Pipelines ride SessionExport through release/import (and a
        pickle round-trip) mid-stream — mid-episode included — with no
        effect on the final summary or the closed-episode set."""
        rng = np.random.default_rng(4200 + chaos_seed)
        gateways = [
            StreamGateway(
                embedded_classifier, FS, n_leads=N_LEADS,
                max_batch=int(rng.integers(1, 32)),
                max_latency_ticks=int(rng.integers(1, 12)),
                analytics=default_pipeline,
            )
            for _ in range(2)
        ]
        sessions = {}
        for i, record in enumerate(records):
            home = int(rng.integers(0, 2))
            sessions[f"s{i}"] = dict(
                record=record, chunks=chunk_queue(record, rng), home=home
            )
            gateways[home].open_session(f"s{i}")
        summaries, alerts, n_migrations = {}, [], 0
        while sessions:
            sid = str(rng.choice(sorted(sessions)))
            state = sessions[sid]
            roll = rng.random()
            if roll < 0.68:
                if not state["chunks"]:
                    gateways[state["home"]].close_session(sid)
                    del sessions[sid]
                    continue
                gateways[state["home"]].ingest(sid, state["chunks"].pop(0))
            else:
                export = gateways[state["home"]].release_session(sid)
                if rng.random() < 0.5:  # simulate crossing a host
                    export = pickle.loads(pickle.dumps(export))
                state["home"] = 1 - state["home"]
                gateways[state["home"]].import_session(export)
                n_migrations += 1
        for gateway in gateways:
            summaries.update(gateway.take_summaries())
            alerts += gateway.take_alerts()
        assert n_migrations >= 1
        for i, record in enumerate(records):
            expected_summary, expected_closed = reference(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary
            got = [ep for sid, ep in alerts if sid == f"s{i}"]
            assert episode_set(got) == expected_closed

    @pytest.mark.chaos_seeds(0)
    def test_sharded_worker_migration_is_bit_exact(
        self, chaos_seed, records, embedded_classifier, standalone_events
    ):
        rng = np.random.default_rng(4300 + chaos_seed)
        with ShardedGateway(
            embedded_classifier, FS, workers=2,
            n_leads=N_LEADS, max_batch=int(rng.integers(2, 24)),
            analytics=default_pipeline,
        ) as gateway:
            sessions = {}
            for i, record in enumerate(records):
                sessions[f"s{i}"] = dict(
                    record=record, chunks=chunk_queue(record, rng)
                )
                gateway.open_session(f"s{i}")
            while sessions:
                sid = str(rng.choice(sorted(sessions)))
                state = sessions[sid]
                roll = rng.random()
                if roll < 0.72:
                    if not state["chunks"]:
                        gateway.close_session(sid)
                        del sessions[sid]
                        continue
                    gateway.ingest(sid, state["chunks"].pop(0))
                elif roll < 0.9:
                    gateway.migrate_session(sid, int(rng.integers(0, 2)))
                else:
                    gateway.poll(sid)
            summaries = gateway.take_summaries()
        for i, record in enumerate(records):
            expected_summary, _ = reference(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary


class TestEvictionChaos:
    @pytest.mark.chaos_seeds(0, 1)
    def test_evicted_session_summary_covers_ingested_prefix(
        self, chaos_seed, records, embedded_classifier, standalone_events
    ):
        rng = np.random.default_rng(4400 + chaos_seed)
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            max_batch=int(rng.integers(2, 24)),
            analytics=default_pipeline,
        )
        threshold = int(rng.integers(2, 6))
        gateway.open_session("stale", evict_after_ticks=threshold)
        gateway.open_session("busy")
        stale_chunks = chunk_queue(records[0], rng)
        fed = 0
        for chunk in stale_chunks[: int(rng.integers(1, len(stale_chunks)))]:
            gateway.ingest("stale", chunk)
            fed += len(chunk)
        # Fixed-size busy chunks: enough clock ticks to trip any
        # threshold the seed picked.
        busy, offset = records[1].signal, 0
        while "stale" not in gateway.take_evicted():
            gateway.ingest("busy", busy[offset : offset + 360])
            offset = (offset + 360) % records[1].n_samples
        expected_summary, _ = reference(
            embedded_classifier, records[0], standalone_events, upto=fed
        )
        assert gateway.take_summaries()["stale"] == expected_summary
        gateway.close_session("busy")


class TestKillChaos:
    @pytest.mark.chaos_seeds(0, 1)
    def test_summaries_survive_worker_kills_bit_exactly(
        self, chaos_seed, records, embedded_classifier, standalone_events,
        tmp_path,
    ):
        """Analytics state is journal-recovered: a SIGKILL-ed worker's
        sessions replay snapshot+log, rebuilding each pipeline to the
        exact per-beat fold state, so the final summaries still match
        the standalone comparator.  (Alerts are at-least-once across a
        crash — replay may re-close episodes already alerted — so the
        pinned artifact here is the summary.)"""
        rng = np.random.default_rng(4500 + chaos_seed)
        journal = SessionJournal(
            FileJournalStore(str(tmp_path / "journal")),
            snapshot_every=int(rng.integers(2, 9)),
        )
        n_kills = 0
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS, max_batch=int(rng.integers(4, 32)),
            analytics=default_pipeline,
        ) as gateway:
            sessions = {}
            for i, record in enumerate(records):
                sessions[f"s{i}"] = dict(
                    record=record, chunks=chunk_queue(record, rng)
                )
                gateway.open_session(f"s{i}")
            total_chunks = sum(len(s["chunks"]) for s in sessions.values())
            forced_kill_at = total_chunks // 2
            ingested = 0
            while sessions:
                if ingested == forced_kill_at:
                    ingested += 1  # fire exactly once
                    victim = gateway.worker_of(sorted(sessions)[0])
                    proc = gateway._procs[victim]
                    if proc.is_alive():
                        os.kill(proc.pid, signal.SIGKILL)
                        proc.join(5.0)
                        n_kills += 1
                sid = str(rng.choice(sorted(sessions)))
                state = sessions[sid]
                roll = rng.random()
                if roll < 0.78:
                    if not state["chunks"]:
                        gateway.close_session(sid)
                        del sessions[sid]
                        continue
                    gateway.ingest(sid, state["chunks"].pop(0))
                    ingested += 1
                elif roll < 0.9:
                    gateway.poll(sid)
                else:
                    gateway.migrate_session(sid, int(rng.integers(0, 2)))
            summaries = gateway.take_summaries()
            stats = gateway.stats()
        journal.close()
        assert n_kills == 1
        assert stats["respawns"] >= 1
        for i, record in enumerate(records):
            expected_summary, _ = reference(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary
