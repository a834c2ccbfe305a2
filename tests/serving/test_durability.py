"""Durability tier: journal stores, write-ahead semantics, crash healing.

Three layers under test, bottom-up:

* the :class:`JournalStore` backends (memory / file-per-session,
  with and without fsync) behind one behavioural contract, including
  reopen persistence, fsync mode and torn-tail tolerance for the
  durable file store;
* :class:`SessionJournal` — the write-ahead policy: snapshot cadence,
  delivered-count accounting, recovery records;
* a journaled :class:`ShardedGateway` — deterministic ``kill -9`` of a
  worker mid-stream, proactive ``check_workers`` sweeps, full-process
  restart via :func:`recover_sessions`, always asserting the recovery
  contract: per-session event sequences bit-exact with a standalone
  ``StreamingNode`` (``test_durability_chaos.py`` stresses the same
  invariant under seeded random kill schedules).
"""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.dsp.delineation import DelineationConfig
from repro.dsp.streaming import StreamingPeakDetector
from repro.ecg.segmentation import BeatWindow
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    FileJournalStore,
    MemoryJournalStore,
    SessionJournal,
    ShardedGateway,
    StreamGateway,
    open_journal,
    recover_sessions,
)
from repro.serving.analytics import default_pipeline
from repro.serving.durability import JournalCorruptError
from repro.serving.gateway import SessionExport
from repro.serving.net import GatewayClient, serve_in_thread
from repro.serving.sharded import WorkerCrashError

N_LEADS = 1
FS = 360.0


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            10.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"dur-{s}"
        )
        for s in (71, 72)
    ]


@pytest.fixture(scope="module")
def reference_events(records, embedded_classifier, standalone_events):
    return [
        standalone_events(embedded_classifier, record, FS, N_LEADS)
        for record in records
    ]


BACKENDS = ("memory", "file")
#: The store contract also holds for the file store fsyncing every write.
STORES = (*BACKENDS, "file-sync")


def make_store(backend, tmp_path):
    if backend == "memory":
        return MemoryJournalStore()
    return FileJournalStore(str(tmp_path / "journal"), sync=backend == "file-sync")


@pytest.fixture(params=STORES)
def store(request, tmp_path):
    store = make_store(request.param, tmp_path)
    yield store
    store.close()


class TestJournalStores:
    """One behavioural contract across every backend."""

    def test_round_trip(self, store):
        store.begin("s", b"open-kwargs")
        store.append_chunk("s", b"c0")
        store.append_chunk("s", b"c1")
        store.add_delivered("s", 3)
        store.add_delivered("s", 2)
        loaded = store.load("s")
        assert loaded.open_blob == b"open-kwargs"
        assert loaded.snapshot is None
        assert loaded.chunks == [b"c0", b"c1"]
        assert loaded.delivered == 5
        assert store.chunk_count("s") == 2
        assert store.session_ids() == ["s"]

    def test_snapshot_truncates_log_and_delivered(self, store):
        store.begin("s", b"meta")
        store.append_chunk("s", b"c0")
        store.add_delivered("s", 4)
        store.put_snapshot("s", b"snap-1")
        loaded = store.load("s")
        assert loaded.snapshot == b"snap-1"
        assert loaded.chunks == []
        assert loaded.delivered == 0
        assert store.chunk_count("s") == 0
        store.append_chunk("s", b"c1")
        assert store.load("s").chunks == [b"c1"]

    def test_repeated_snapshots_keep_only_the_latest(self, store):
        store.begin("s", b"meta")
        for n in range(1, 4):
            store.append_chunk("s", b"c%d" % n)
            store.add_delivered("s", n)
            store.put_snapshot("s", b"snap-%d" % n)
        store.append_chunk("s", b"tail")
        store.add_delivered("s", 5)
        loaded = store.load("s")
        assert (loaded.open_blob, loaded.snapshot) == (b"meta", b"snap-3")
        assert (loaded.chunks, loaded.delivered) == ([b"tail"], 5)
        assert store.chunk_count("s") == 1
        assert store.session_ids() == ["s"]

    def test_begin_resets_history(self, store):
        store.begin("s", b"old")
        store.append_chunk("s", b"c0")
        store.put_snapshot("s", b"snap")
        store.begin("s", b"new")
        loaded = store.load("s")
        assert loaded.open_blob == b"new"
        assert loaded.snapshot is None
        assert loaded.chunks == []
        assert loaded.delivered == 0

    def test_forget_and_unknown(self, store):
        assert store.load("nope") is None
        assert store.chunk_count("nope") == 0
        store.begin("s", b"meta")
        store.append_chunk("s", b"c0")
        store.forget("s")
        assert store.load("s") is None
        assert store.session_ids() == []
        store.forget("s")  # idempotent

    def test_multiple_sessions_are_independent(self, store):
        store.begin("a", b"ma")
        store.begin("b", b"mb")
        store.append_chunk("a", b"ca")
        store.add_delivered("b", 7)
        assert sorted(store.session_ids()) == ["a", "b"]
        assert store.load("a").chunks == [b"ca"]
        assert store.load("a").delivered == 0
        assert store.load("b").chunks == []
        assert store.load("b").delivered == 7


class TestDurableStorePersistence:
    """File journals survive a store (process) teardown."""

    def test_reopen_sees_everything(self, tmp_path):
        store = make_store("file", tmp_path)
        store.begin("s", b"meta")
        store.append_chunk("s", b"c0")
        store.put_snapshot("s", b"snap")
        store.append_chunk("s", b"c1")
        store.add_delivered("s", 2)
        store.close()
        reopened = make_store("file", tmp_path)
        loaded = reopened.load("s")
        assert loaded.open_blob == b"meta"
        assert loaded.snapshot == b"snap"
        assert loaded.chunks == [b"c1"]
        assert loaded.delivered == 2
        assert reopened.chunk_count("s") == 1
        assert reopened.session_ids() == ["s"]
        reopened.close()

    def test_file_store_drops_torn_trailing_record(self, tmp_path):
        store = make_store("file", tmp_path)
        store.begin("s", b"meta")
        store.append_chunk("s", b"complete")
        store.close()
        log = tmp_path / "journal"
        (log_path,) = [p for p in log.iterdir() if p.suffix == ".log"]
        with open(log_path, "ab") as fh:
            fh.write(b"C\x40\x00\x00\x00half-writ")  # 64-byte record, cut off
        reopened = make_store("file", tmp_path)
        assert reopened.load("s").chunks == [b"complete"]
        reopened.close()

    def test_file_store_reads_the_newest_snapshot_generation(self, tmp_path):
        """A process that died after the snapshot switch but before its
        clean-up leaves two generations (and maybe a temp file); a
        reopened store reads the newest with its own log and deletes
        the rest."""
        store = make_store("file", tmp_path)
        store.begin("s", b"meta")
        store.append_chunk("s", b"c0")
        store.put_snapshot("s", b"snap-1")
        store.append_chunk("s", b"c1")
        store.add_delivered("s", 3)
        old = {
            name: (tmp_path / "journal" / name).read_bytes()
            for name in os.listdir(tmp_path / "journal")
        }
        store.put_snapshot("s", b"snap-2")
        store.append_chunk("s", b"c2")
        store.close()
        for name, blob in old.items():  # undo the clean-up
            (tmp_path / "journal" / name).write_bytes(blob)
        torn = store._path("s", ".snapshot", 3) + ".tmp"
        with open(torn, "wb") as fh:  # an unfinished next switch
            fh.write(b"torn")
        reopened = make_store("file", tmp_path)
        loaded = reopened.load("s")
        assert (loaded.snapshot, loaded.chunks, loaded.delivered) == (
            b"snap-2", [b"c2"], 0,
        )
        assert reopened.session_ids() == ["s"]
        assert sorted(os.listdir(tmp_path / "journal")) == sorted(
            os.path.basename(reopened._path("s", suffix))
            for suffix in (".meta", ".snapshot", ".log")
        )
        reopened.close()

    def test_file_store_begin_after_reopen_starts_a_fresh_history(
        self, tmp_path
    ):
        """A reopened store knows a session's snapshot generation
        without a ``load``: ``begin`` deletes the old generation's
        files, and the next snapshot switch works from there."""
        store = make_store("file", tmp_path)
        store.begin("s", b"old")
        for _ in range(2):
            store.append_chunk("s", b"c0")
            store.put_snapshot("s", b"snap")
        store.append_chunk("s", b"c1")
        store.close()
        reopened = make_store("file", tmp_path)
        reopened.begin("s", b"new")
        assert os.listdir(tmp_path / "journal") == [
            os.path.basename(reopened._path("s", ".meta"))
        ]
        loaded = reopened.load("s")
        assert (loaded.open_blob, loaded.snapshot, loaded.chunks) == (
            b"new", None, [],
        )
        reopened.append_chunk("s", b"c2")
        reopened.put_snapshot("s", b"fresh")
        reopened.append_chunk("s", b"c3")
        assert reopened.chunk_count("s") == 1
        reopened.close()
        again = make_store("file", tmp_path)
        loaded = again.load("s")
        assert (loaded.open_blob, loaded.snapshot, loaded.chunks) == (
            b"new", b"fresh", [b"c3"],
        )
        again.close()

    def test_file_store_forget_after_a_crash_removes_every_generation(
        self, tmp_path
    ):
        """What a process that died mid-switch left behind (a superseded
        generation and a temp file) goes with a ``forget`` issued by
        the next process, before anything was loaded."""
        store = make_store("file", tmp_path)
        store.begin("s", b"meta")
        store.put_snapshot("s", b"snap-1")
        store.append_chunk("s", b"c1")
        old = {
            name: (tmp_path / "journal" / name).read_bytes()
            for name in os.listdir(tmp_path / "journal")
        }
        store.put_snapshot("s", b"snap-2")
        store.close()
        for name, blob in old.items():  # undo the clean-up
            (tmp_path / "journal" / name).write_bytes(blob)
        with open(store._path("s", ".snapshot", 3) + ".tmp", "wb") as fh:
            fh.write(b"torn")
        reopened = make_store("file", tmp_path)
        reopened.forget("s")
        assert os.listdir(tmp_path / "journal") == []
        assert reopened.load("s") is None
        assert reopened.session_ids() == []
        reopened.close()

    def test_file_store_keeps_no_state_after_forget(self, tmp_path):
        store = make_store("file", tmp_path)
        for i in range(20):
            sid = f"s{i}"
            store.begin(sid, b"meta")
            store.append_chunk(sid, b"c0")
            for _ in range(i % 3):
                store.put_snapshot(sid, b"snap")
                store.append_chunk(sid, b"c1")
            store.forget(sid)
        assert (store._logs, store._counts, store._generations) == ({}, {}, {})
        assert os.listdir(tmp_path / "journal") == []
        store.close()

    def test_file_store_tokenizes_hostile_session_ids(self, tmp_path):
        store = make_store("file", tmp_path)
        sid = "fleet/node#7 é"
        store.begin(sid, b"meta")
        store.append_chunk(sid, b"c0")
        assert store.session_ids() == [sid]
        assert store.load(sid).chunks == [b"c0"]
        store.close()
        reopened = make_store("file", tmp_path)
        assert reopened.session_ids() == [sid]
        reopened.close()

    def test_file_store_sync_mode_fsyncs_and_reopens(self, tmp_path, monkeypatch):
        """``sync=True`` fsyncs every log append and every atomic blob
        write (meta and snapshot), and everything reads back after a
        reopen; ``sync=False`` never fsyncs."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        store = FileJournalStore(str(tmp_path / "journal"), sync=True)
        store.begin("s", b"meta")  # atomic meta write
        assert len(synced) == 1
        store.append_chunk("s", b"c0")  # log appends
        store.append_chunk("s", b"c1")
        assert len(synced) == 3
        store.put_snapshot("s", b"snap")  # atomic snapshot write
        assert len(synced) == 4
        store.append_chunk("s", b"c2")
        store.add_delivered("s", 2)
        assert len(synced) == 6
        store.close()
        reopened = FileJournalStore(str(tmp_path / "journal"), sync=True)
        loaded = reopened.load("s")
        assert loaded.open_blob == b"meta"
        assert loaded.snapshot == b"snap"
        assert loaded.chunks == [b"c2"]
        assert loaded.delivered == 2
        reopened.close()
        unsynced = FileJournalStore(str(tmp_path / "plain"))
        unsynced.begin("s", b"meta")
        unsynced.append_chunk("s", b"c0")
        unsynced.put_snapshot("s", b"snap")
        unsynced.close()
        assert len(synced) == 6


class TestSessionJournal:
    def test_snapshot_cadence(self):
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=3)
        journal.open("s", {"max_latency_ticks": 4})
        for i in range(2):
            journal.log_chunk("s", np.zeros(5))
            assert not journal.wants_snapshot("s")
        journal.log_chunk("s", np.zeros(5))
        assert journal.wants_snapshot("s")
        journal.snapshot("s", SessionExport(session_id="s", snapshot=None))
        assert not journal.wants_snapshot("s")

    def test_recover_record(self):
        journal = SessionJournal(MemoryJournalStore())
        journal.open("s", {"evict_after_ticks": 9})
        journal.log_chunk("s", [1.0, 2.0])
        journal.delivered("s", 2)
        journal.delivered("s", 0)  # zero deltas are elided
        rec = journal.recover("s")
        assert rec.session_id == "s"
        assert rec.open_kwargs == {"evict_after_ticks": 9}
        assert rec.export is None
        assert len(rec.chunks) == 1
        np.testing.assert_array_equal(rec.chunks[0], [1.0, 2.0])
        assert rec.chunks[0].dtype == np.float64
        assert rec.delivered == 2
        assert journal.recover("unknown") is None

    def test_snapshot_subsumes_log(self):
        journal = SessionJournal(MemoryJournalStore())
        journal.open("s", None)
        journal.log_chunk("s", [1.0])
        journal.delivered("s", 1)
        export = SessionExport(session_id="s", snapshot=None)
        journal.snapshot("s", export)
        rec = journal.recover("s")
        assert rec.export.session_id == "s"
        assert rec.chunks == []
        assert rec.delivered == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            SessionJournal(MemoryJournalStore(), snapshot_every=0)

    @pytest.mark.parametrize("shape", [(90,), (90, 3), (1, 2), (0,)])
    def test_chunk_records_round_trip(self, store, shape):
        """Raw chunk records (no pickle) recover 1-D and multi-lead
        chunks exactly, on every store."""
        journal = SessionJournal(store)
        journal.open("s", None)
        rng = np.random.default_rng(len(shape))
        chunks = [rng.normal(size=shape), np.arange(np.prod(shape)).reshape(shape)]
        for chunk in chunks:
            journal.log_chunk("s", chunk)
        for blob in store.load("s").chunks:
            assert blob[:1] != pickle.dumps(np.zeros(1))[:1]  # not a pickle
        recovered = journal.recover("s").chunks
        assert len(recovered) == len(chunks)
        for got, chunk in zip(recovered, chunks):
            assert got.dtype == np.float64 and got.shape == shape
            assert got.flags.writeable
            np.testing.assert_array_equal(got, chunk)

    def test_pickled_chunk_records_are_a_corruption_error(self, store):
        """Only raw chunk records decode: a pickled one (the encoding
        before raw records) is a damaged record, on every store."""
        journal = SessionJournal(store)
        journal.open("s", None)
        old = np.linspace(0.0, 1.0, 12).reshape(4, 3)
        journal.log_chunk("s", old[::-1])
        store.append_chunk("s", pickle.dumps(old, pickle.HIGHEST_PROTOCOL))
        with pytest.raises(JournalCorruptError, match="damaged chunk record"):
            journal.recover("s")

    def test_open_journal_backends(self, tmp_path):
        for backend in BACKENDS:
            journal = open_journal(
                str(tmp_path / backend), backend, snapshot_every=5
            )
            assert journal.snapshot_every == 5
            journal.open("s", None)
            assert journal.session_ids() == ["s"]
            journal.close()
        for unknown in ("sqlite", "redis"):
            with pytest.raises(ValueError, match="memory"):
                open_journal(str(tmp_path), unknown)


def feed(gateway, sid, signal, block, start=0, stop=None):
    """Ingest ``signal[start:stop]`` in ``block``-sample chunks."""
    events, i = [], start
    stop = len(signal) if stop is None else stop
    while i < stop:
        events += gateway.ingest(sid, signal[i : i + min(block, stop - i)])
        i += block
    return events


def kill_worker(gateway, index):
    proc = gateway._procs[index]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(5.0)


class TestSupervisedRecovery:
    """Deterministic worker kills; the chaos suite randomizes them."""

    def test_kill_mid_stream_recovers_bit_exact(
        self, records, embedded_classifier, reference_events,
        assert_events_equal, tmp_path,
    ):
        record = records[0]
        block = int(0.4 * FS)
        journal = open_journal(str(tmp_path), "file", snapshot_every=4)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS, max_batch=8,
        ) as gateway:
            gateway.open_session("p")
            events = feed(
                gateway, "p", record.signal, block, stop=record.n_samples // 2
            )
            kill_worker(gateway, gateway.worker_of("p"))
            events += feed(
                gateway, "p", record.signal, block, start=record.n_samples // 2
            )
            events += gateway.close_session("p")
            stats = gateway.stats()
        assert_events_equal(reference_events[0], events)
        assert stats["recoveries"] >= 1
        assert stats["sessions_recovered"] >= 1
        assert stats["respawns"] >= 1

    def test_recovery_without_snapshot_replays_from_open(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """snapshot_every larger than the stream: recovery has no
        snapshot and must rebuild from open kwargs + full chunk log."""
        record = records[1]
        block = int(0.5 * FS)
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=10_000),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events = feed(
                gateway, "p", record.signal, block, stop=record.n_samples // 3
            )
            assert gateway.journal.recover("p").export is None
            kill_worker(gateway, gateway.worker_of("p"))
            events += feed(
                gateway, "p", record.signal, block, start=record.n_samples // 3
            )
            events += gateway.close_session("p")
        assert_events_equal(reference_events[1], events)

    def test_check_workers_is_proactive(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """A heartbeat sweep heals the pool before any session call
        touches the dead worker."""
        record = records[0]
        block = int(0.5 * FS)
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=3),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events = feed(
                gateway, "p", record.signal, block, stop=record.n_samples // 2
            )
            victim = gateway.worker_of("p")
            kill_worker(gateway, victim)
            assert gateway.check_workers() == 1
            assert not gateway._procs[victim] is None
            assert gateway._procs[victim].is_alive()
            assert gateway.check_workers() == 0  # idempotent when healthy
            events += feed(
                gateway, "p", record.signal, block, start=record.n_samples // 2
            )
            events += gateway.close_session("p")
        assert_events_equal(reference_events[0], events)

    def test_kill_both_workers_with_two_sessions(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        block = int(0.4 * FS)
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=5),
            workers=2, n_leads=N_LEADS, max_batch=8,
        ) as gateway:
            collected = {}
            for i, record in enumerate(records):
                gateway.open_session(f"s{i}")
                collected[f"s{i}"] = feed(
                    gateway, f"s{i}", record.signal, block,
                    stop=record.n_samples // 2,
                )
            for index in range(2):
                kill_worker(gateway, index)
            for i, record in enumerate(records):
                collected[f"s{i}"] += feed(
                    gateway, f"s{i}", record.signal, block,
                    start=record.n_samples // 2,
                )
                collected[f"s{i}"] += gateway.close_session(f"s{i}")
        for i, expected in enumerate(reference_events):
            assert_events_equal(expected, collected[f"s{i}"])

    def test_migration_carries_the_journal(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """Moving a session between workers refreshes its snapshot, so
        killing the *new* owner still recovers bit-exactly."""
        record = records[0]
        block = int(0.4 * FS)
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=10_000),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events = feed(
                gateway, "p", record.signal, block, stop=record.n_samples // 2
            )
            origin = gateway.worker_of("p")
            gateway.migrate_session("p", 1 - origin)
            assert gateway.journal.recover("p").export is not None
            kill_worker(gateway, 1 - origin)
            events += feed(
                gateway, "p", record.signal, block, start=record.n_samples // 2
            )
            events += gateway.close_session("p")
        assert_events_equal(reference_events[0], events)

    def test_close_and_release_forget_the_journal(
        self, records, embedded_classifier,
    ):
        with ShardedGateway(
            embedded_classifier, FS, journal=SessionJournal(MemoryJournalStore()),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("a")
            gateway.open_session("b")
            gateway.ingest("a", records[0].signal[: int(FS)])
            assert sorted(gateway.journal.session_ids()) == ["a", "b"]
            gateway.close_session("a")
            assert gateway.journal.session_ids() == ["b"]
            export = gateway.release_session("b")
            assert gateway.journal.session_ids() == []
            sid = gateway.import_session(export)
            assert sid == "b"
            assert gateway.journal.session_ids() == ["b"]
            gateway.close_session("b")

    def test_stats_and_construction_variants(
        self, embedded_classifier, tmp_path,
    ):
        journal = open_journal(str(tmp_path / "j"))
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2, n_leads=N_LEADS,
        ) as gateway:
            stats = gateway.stats()
            assert stats["recoveries"] == 0
            assert stats["sessions_recovered"] == 0
            assert stats["respawns"] == 0
            assert stats["evictions_salvaged"] == 0
            assert stats["workers"] == 2
        journal.close()

    def test_only_a_journaled_pool_heals(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """A SIGKILL mid-stream: the unjournaled pool raises the crash,
        the journaled one heals it inside the next call."""
        record = records[0]
        block = int(0.4 * FS)
        half = record.n_samples // 2
        with ShardedGateway(
            embedded_classifier, FS, workers=2, n_leads=N_LEADS
        ) as gateway:
            gateway.open_session("p")
            feed(gateway, "p", record.signal, block, stop=half)
            kill_worker(gateway, gateway.worker_of("p"))
            with pytest.raises(WorkerCrashError):
                feed(gateway, "p", record.signal, block, start=half)
            with pytest.raises(RuntimeError, match="journal"):
                gateway.check_workers()
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=4),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events = feed(gateway, "p", record.signal, block, stop=half)
            kill_worker(gateway, gateway.worker_of("p"))
            events += feed(gateway, "p", record.signal, block, start=half)
            events += gateway.close_session("p")
            assert gateway.n_recoveries == 1
            assert gateway.n_respawns == 1
        assert_events_equal(reference_events[0], events)

    def test_recovery_leaves_the_journal_unchanged(
        self, records, embedded_classifier,
    ):
        """Recovery reads the journal and never writes it: after a
        SIGKILL, ``check_workers`` leaves every recovered session's
        snapshot, chunk log and delivered count as they were."""
        store = MemoryJournalStore()
        sids = ["s0", "s1", "s2"]
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(store, snapshot_every=4),
            workers=2, n_leads=N_LEADS, placement="round-robin",
        ) as gateway:
            for sid in sids:
                gateway.open_session(sid)
            for i, record in enumerate((*records, records[0])):
                feed(gateway, sids[i], record.signal, 90, stop=(9 + 2 * i) * 90)
            victim = gateway.worker_of("s0")
            lost = gateway.sessions_on(victim)
            before = {sid: store.load(sid) for sid in sids}
            assert all(before[sid].chunks for sid in sids)
            kill_worker(gateway, victim)
            assert gateway.check_workers() == len(lost) >= 1
            assert {sid: store.load(sid) for sid in sids} == before
            for sid in sids:
                gateway.close_session(sid)

    def test_kill_during_the_replay(
        self, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """The worker a recovery replays a session on is killed on that
        replay request: the heal starts over and ends bit-exact."""
        block = int(0.4 * FS)
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=10_000),
            workers=2, n_leads=N_LEADS,
        ) as gateway:
            collected = {}
            for i, record in enumerate(records):
                gateway.open_session(f"s{i}")
                collected[f"s{i}"] = feed(
                    gateway, f"s{i}", record.signal, block,
                    stop=record.n_samples // 2,
                )
            send = gateway._send
            replay_kills = []

            def kill_on_replay(index, request):
                if request[0] == "call" and not replay_kills:
                    replay_kills.append(index)
                    kill_worker(gateway, index)
                send(index, request)

            gateway._send = kill_on_replay
            kill_worker(gateway, gateway.worker_of("s0"))
            for i, record in enumerate(records):
                collected[f"s{i}"] += feed(
                    gateway, f"s{i}", record.signal, block,
                    start=record.n_samples // 2,
                )
                collected[f"s{i}"] += gateway.close_session(f"s{i}")
            assert replay_kills and gateway.n_respawns >= 2
        for i, expected in enumerate(reference_events):
            assert_events_equal(expected, collected[f"s{i}"])


    @pytest.mark.parametrize("in_flight", [1, 3])
    def test_kill_with_chunks_in_flight_settles_each_once(
        self, in_flight, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """The worker dies with chunks shipped but never processed.
        Each was journaled before it was sent, so the heal replays it
        and the session's events come out once; no chunk is sent
        again."""
        record = records[0]
        block = 90
        shipped = 20 * block + in_flight * block
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=10_000),
            workers=1, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events = feed(gateway, "p", record.signal, block, stop=20 * block)
            events += gateway.poll("p")
            os.kill(gateway._procs[0].pid, signal.SIGSTOP)
            try:
                events += feed(
                    gateway, "p", record.signal, block,
                    start=20 * block, stop=shipped,
                )
                assert not gateway._poll_conn(0)
            finally:
                kill_worker(gateway, 0)
            sent = []
            send = gateway._send

            def recording_send(index, request):
                if request[0] == "round":
                    sent.extend(request[2][1])
                send(index, request)

            gateway._send = recording_send
            events += feed(gateway, "p", record.signal, block, start=shipped)
            events += gateway.close_session("p")
            assert gateway.n_respawns == 1
            assert sum(sent) == record.n_samples - shipped
        assert_events_equal(reference_events[0], events)


class TestRestartRecovery:
    """Full-process restarts: the journal outlives the gateway."""

    def test_supervised_restart_over_the_same_store(
        self, records, embedded_classifier, reference_events,
        assert_events_equal, tmp_path,
    ):
        record = records[0]
        block = int(0.4 * FS)
        half = record.n_samples // 2
        events = []
        journal = open_journal(str(tmp_path), "file", snapshot_every=4)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("p")
            events += feed(gateway, "p", record.signal, block, stop=half)
            # shutdown() reaps the pool but keeps the journal: this is
            # the crash/restart boundary.
        journal.close()
        journal = open_journal(str(tmp_path), "file", snapshot_every=4)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2,
            n_leads=N_LEADS,
        ) as gateway:
            assert gateway.check_workers() == 1  # the orphaned session
            events += gateway.poll("p")  # backlog accepted pre-restart
            events += feed(gateway, "p", record.signal, block, start=half)
            events += gateway.close_session("p")
        journal.close()
        assert_events_equal(reference_events[0], events)

    def test_recover_sessions_on_a_stream_gateway(
        self, records, embedded_classifier, reference_events,
        assert_events_equal, tmp_path,
    ):
        """The single-process restart path: recover_sessions rebuilds
        journaled sessions on any gateway tier, here a StreamGateway
        journaling into the same store (so durability continues)."""
        record = records[1]
        block = int(0.5 * FS)
        third = record.n_samples // 3
        journal = open_journal(str(tmp_path), "file", snapshot_every=3)
        first = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, journal=journal
        )
        first.open_session("p", max_latency_ticks=4)
        events = feed(first, "p", record.signal, block, stop=third)
        del first  # simulated crash: no close, no export
        journal.close()

        journal = open_journal(str(tmp_path), "file", snapshot_every=3)
        second = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, journal=journal
        )
        backlog = recover_sessions(journal, second)
        assert set(backlog) == {"p"}
        events += backlog["p"]
        events += feed(second, "p", record.signal, block, start=third)
        events += second.close_session("p")
        journal.close()
        assert_events_equal(reference_events[1], events)

    def test_recover_sessions_on_a_sharded_gateway(
        self, records, embedded_classifier, reference_events,
        assert_events_equal, tmp_path,
    ):
        record = records[0]
        block = int(0.5 * FS)
        half = record.n_samples // 2
        journal = open_journal(str(tmp_path), "file", snapshot_every=4)
        with ShardedGateway(
            embedded_classifier, FS, workers=2, n_leads=N_LEADS,
            journal=journal,
        ) as first:
            first.open_session("p")
            events = feed(first, "p", record.signal, block, stop=half)
        journal.close()

        journal = open_journal(str(tmp_path), "file", snapshot_every=4)
        with ShardedGateway(
            embedded_classifier, FS, workers=2, n_leads=N_LEADS,
            journal=journal,
        ) as second:
            backlog = recover_sessions(journal, second)
            events += backlog["p"]
            events += feed(second, "p", record.signal, block, start=half)
            events += second.close_session("p")
        journal.close()
        assert_events_equal(reference_events[0], events)

    @pytest.mark.parametrize("nth_snapshot", [1, 2])
    def test_process_death_inside_put_snapshot(
        self, nth_snapshot, records, embedded_classifier, reference_events,
        assert_events_equal, tmp_path, monkeypatch,
    ):
        """An in-process gateway writes its own file journal, so the
        process that dies inside ``put_snapshot`` is the writer.  A
        death right after each filesystem step of the snapshot switch
        recovers bit-exact: the log's delivered records never count
        against the wrong snapshot, and no chunk is replayed twice."""
        record = records[1]
        block = 90
        steps_taken = []
        for after_step in range(1, 16):
            directory = tmp_path / f"step-{after_step}"
            died_at, events, steps = _run_until_death_in_put_snapshot(
                embedded_classifier, record, block, str(directory),
                monkeypatch, nth_snapshot=nth_snapshot, after_step=after_step,
            )
            steps_taken.append(steps)
            if died_at is None:
                break  # the snapshot switch has fewer steps than this
            journal = open_journal(str(directory), "file", snapshot_every=8)
            fresh = StreamGateway(
                embedded_classifier, FS, n_leads=N_LEADS, journal=journal
            )
            backlog = recover_sessions(journal, fresh)
            assert set(backlog) == {"p"}
            events += backlog["p"]
            events += feed(
                fresh, "p", record.signal, block, start=(died_at + 1) * block
            )
            events += fresh.close_session("p")
            journal.close()
            assert_events_equal(reference_events[1], events)
        else:  # pragma: no cover - guard
            raise AssertionError("put_snapshot never completed")
        assert len(steps_taken) >= 3  # at least two crash points exercised


class _ProcessDeath(BaseException):
    """Stands in for the process dying: no ``except Exception`` runs."""


def _run_until_death_in_put_snapshot(
    classifier, record, block, directory, monkeypatch, *, nth_snapshot,
    after_step,
):
    """Serve ``record`` on a file-journaled ``StreamGateway`` and kill
    the process right after filesystem step ``after_step`` (an ``open``
    for writing, an ``os.replace`` or an ``os.remove``) of the
    ``nth_snapshot``-th ``FileJournalStore.put_snapshot`` call.

    Returns ``(chunk index that died or None, events delivered, steps
    that put_snapshot call took)``.
    """
    from repro.serving import durability

    state = {"calls": 0, "armed": False, "steps": 0}
    real_put_snapshot = FileJournalStore.put_snapshot

    def put_snapshot(self, session_id, blob):
        state["calls"] += 1
        state["armed"] = state["calls"] == nth_snapshot
        try:
            real_put_snapshot(self, session_id, blob)
        finally:
            state["armed"] = False

    def step(fn, counts=lambda *args, **kwargs: True):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if state["armed"] and counts(*args, **kwargs):
                state["steps"] += 1
                if state["steps"] == after_step:
                    if hasattr(result, "close"):
                        result.close()
                    raise _ProcessDeath
            return result
        return wrapped

    def writes(file, mode="r", *args, **kwargs):
        return any(flag in mode for flag in "wax+")

    with monkeypatch.context() as patch:
        patch.setattr(FileJournalStore, "put_snapshot", put_snapshot)
        patch.setattr(durability, "open", step(open, writes), raising=False)
        patch.setattr(os, "replace", step(os.replace))
        patch.setattr(os, "remove", step(os.remove))
        journal = open_journal(directory, "file", snapshot_every=8)
        gateway = StreamGateway(
            classifier, FS, n_leads=N_LEADS, journal=journal
        )
        gateway.open_session("p")
        events = []
        for index, start in enumerate(range(0, record.n_samples, block)):
            try:
                events += gateway.ingest("p", record.signal[start : start + block])
            except _ProcessDeath:
                journal.close()  # the dead process's descriptors
                return index, events, state["steps"]
        journal.close()
        return None, events, state["steps"]


class TestParkedSessions:
    """A session parked by a client disconnect stays open in its gateway
    and journaled like any other, so neither a host crash nor a worker
    crash while it is parked may lose it."""

    def test_parked_session_recovers_after_a_host_crash(
        self, records, embedded_classifier, standalone_events,
        assert_events_equal, wait_parked,
    ):
        record = records[0]
        block = int(0.25 * FS)
        upto = record.n_samples // 2 // block * block
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=3)
        handle = serve_in_thread(
            StreamGateway(embedded_classifier, FS, n_leads=N_LEADS, journal=journal)
        )
        try:
            client = GatewayClient(handle.host, handle.port, window=4).connect()
            client.open_session("p")
            received = feed(client, "p", record.signal, block, stop=upto)
            received += client.poll("p")
            client.close()  # the producer goes away: the server parks "p"
            wait_parked(handle.server, "p")
            assert journal.session_ids() == ["p"]
        finally:
            handle.stop()  # the host crashes with "p" parked
        fresh = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        backlog = recover_sessions(journal, fresh)
        assert set(backlog) == {"p"}
        assert_events_equal(
            standalone_events(
                embedded_classifier, record, FS, N_LEADS, upto=upto
            ),
            received + backlog["p"] + fresh.close_session("p"),
        )

    def test_parked_session_survives_a_pool_heal(
        self, records, embedded_classifier, standalone_events,
        assert_events_equal, wait_parked,
    ):
        """A parked session stays open in its worker, so when the worker
        dies the pool's heal rebuilds it like any other open session,
        and the next producer's ``RESUME`` adopts it bit-exactly."""
        record, other = records
        block = int(0.25 * FS)
        upto = record.n_samples // 2 // block * block
        with ShardedGateway(
            embedded_classifier, FS, workers=1, n_leads=N_LEADS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=4),
        ) as gateway:
            handle = serve_in_thread(gateway)
            try:
                first = GatewayClient(handle.host, handle.port, window=4).connect()
                second = GatewayClient(handle.host, handle.port, window=4).connect()
                first.open_session("p")
                second.open_session("q")
                received = feed(first, "p", record.signal, block, stop=upto)
                received += first.poll("p")
                first.close()  # the producer goes away: the server parks "p"
                wait_parked(handle.server, "p")
                kill_worker(gateway, 0)
                feed(second, "q", other.signal, block, stop=4 * block)  # heals
                second.poll("q")
                second.resume_session("p", events_received=len(received))
                received += feed(second, "p", record.signal, block, start=upto)
                received += second.close_session("p")
                second.close_session("q")
                second.close()
            finally:
                handle.stop()
            assert gateway.stats()["recoveries"] >= 1
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, N_LEADS), received
        )


class TestStashedInput:
    """A steady session's input waits in its node's stash until its due
    point, so every capture — a journal snapshot, a release export, a
    parked session — happens with input stashed; the journal snapshot
    also with labels in flight.  A crash right after each recovers
    bit-exactly."""

    CHUNK = 90

    @pytest.fixture(scope="class")
    def long_records(self):
        return [
            RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
                20.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"stash-{s}"
            )
            for s in (73, 74)
        ]

    @staticmethod
    def captured(journal, sid):
        """``(stashed samples, labels in flight)`` of the journaled
        snapshot."""
        state = journal.recover(sid).export.snapshot.state
        in_flight = sum(
            1 for beat in state["_queue"]
            if beat.extracted and not beat.classified and not beat.dropped
        )
        return state["_stash"].shape[0], in_flight

    def feed_until(self, gateway, sids, records, fed, ready):
        """Round-robin CHUNK-sample rounds from ``fed`` until ``ready()``."""
        events = {sid: [] for sid in sids}
        while not ready(fed):
            for sid, record in zip(sids, records):
                events[sid] += gateway.ingest(sid, record.signal[fed : fed + self.CHUNK])
            fed += self.CHUNK
            assert fed < records[0].n_samples, "capture condition never met"
        return events, fed

    def finish(self, gateway, sids, records, fed, events):
        for sid, record in zip(sids, records):
            events[sid] += feed(gateway, sid, record.signal, self.CHUNK, start=fed)
            events[sid] += gateway.close_session(sid)

    def test_journal_snapshot_with_stash_and_labels_in_flight(
        self, long_records, embedded_classifier, standalone_events, assert_events_equal,
    ):
        sids = ["a", "b"]
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=5)
        # Generous flush bounds keep extracted beats' labels in flight.
        first = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, journal=journal,
            max_batch=10_000, max_latency_ticks=10_000,
        )
        for sid in sids:
            first.open_session(sid)

        def ready(fed):
            return fed > 12 * FS and all(
                min(self.captured(journal, sid)) > 0 for sid in sids
            )

        events, fed = self.feed_until(first, sids, long_records, 0, ready)
        del first  # crash: no close, no flush

        second = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS, journal=journal)
        backlog = recover_sessions(journal, second)
        for sid in sids:
            events[sid] += backlog[sid]
        self.finish(second, sids, long_records, fed, events)
        for sid, record in zip(sids, long_records):
            assert_events_equal(
                standalone_events(embedded_classifier, record, FS, N_LEADS), events[sid]
            )

    def test_journal_snapshot_folds_pending_analytics(
        self, long_records, embedded_classifier, standalone_events, assert_events_equal,
    ):
        """Events a drain hands to a session's analytics wait for the
        next classifier flush to fold, and an import never re-feeds a
        snapshot's events: a journal snapshot taken in between folds
        them first, so a crash right after it recovers the summaries
        of a run without a crash.  (A short detector window and long
        beat and T-wave spans make flagged beats finish in drains.)"""
        sids = ["a", "b"]

        def gateway(journal):
            return StreamGateway(
                embedded_classifier, FS, n_leads=N_LEADS, journal=journal,
                max_batch=4, analytics=default_pipeline, window=BeatWindow(60, 140),
                delineation_config=DelineationConfig(t_search=(0.14, 0.8)),
            )

        def opened(journal):
            g = gateway(journal)
            for sid in sids:
                g.open_session(sid)
                g._sessions[sid].node._detector = StreamingPeakDetector(
                    FS, window_s=3.0, overlap_s=0.25
                )
            return g

        def finish(g, fed, events):
            self.finish(g, sids, long_records, fed, events)
            return g.take_summaries()

        def journal():
            return SessionJournal(MemoryJournalStore(), snapshot_every=1)

        uninterrupted = {sid: [] for sid in sids}
        want = finish(opened(journal()), 0, uninterrupted)

        crash_journal = journal()
        first = opened(crash_journal)
        unfolded = []
        wants_snapshot = crash_journal.wants_snapshot

        def spying(session_id):
            unfolded.append(bool(first._sessions[session_id].analytics_pending))
            return wants_snapshot(session_id)

        crash_journal.wants_snapshot = spying
        events, fed = self.feed_until(
            first, sids, long_records, 0, lambda fed: fed and any(unfolded[-len(sids):])
        )
        del first  # crash: no close, no flush
        del crash_journal.wants_snapshot

        second = gateway(crash_journal)
        backlog = recover_sessions(crash_journal, second)
        for sid in sids:
            events[sid] += backlog[sid]
        assert finish(second, fed, events) == want
        for sid in sids:
            assert_events_equal(uninterrupted[sid], events[sid])

    def test_supervised_kill_with_stashed_input(
        self, long_records, embedded_classifier, standalone_events,
        assert_events_equal, tmp_path,
    ):
        """The sharded tier's snapshot is a worker-side capture: like
        the in-process one, it carries the stash and labels in flight."""
        sids = ["a", "b"]
        journal = open_journal(str(tmp_path), "file", snapshot_every=5)
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2, n_leads=N_LEADS,
        ) as gateway:
            for sid in sids:
                gateway.open_session(sid)

            def ready(fed):
                return fed > 12 * FS and min(self.captured(journal, "a")) > 0

            events, fed = self.feed_until(gateway, sids, long_records, 0, ready)
            kill_worker(gateway, gateway.worker_of("a"))
            self.finish(gateway, sids, long_records, fed, events)
            assert gateway.stats()["recoveries"] >= 1
        for sid, record in zip(sids, long_records):
            assert_events_equal(
                standalone_events(embedded_classifier, record, FS, N_LEADS), events[sid]
            )

    def test_release_export_with_stashed_input(
        self, long_records, embedded_classifier, standalone_events, assert_events_equal,
    ):
        record = long_records[0]
        origin = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        origin.open_session("p")
        events, fed = self.feed_until(
            origin, ["p"], [record], 0,
            lambda fed: fed > 6 * FS and origin._sessions["p"].node.n_stashed > 0,
        )
        events = events["p"]
        stashed = origin._sessions["p"].node.n_stashed
        export = origin.release_session("p")
        assert export.snapshot.state["_stash"].shape[0] == stashed

        journal = SessionJournal(MemoryJournalStore(), snapshot_every=1000)
        target = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS, journal=journal)
        target.import_session(export)
        stop = fed + 3 * self.CHUNK
        events += feed(target, "p", record.signal, self.CHUNK, start=fed, stop=stop)
        fed = stop
        del target  # crash with the imported stash only in the journal snapshot

        survivor = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        events += recover_sessions(journal, survivor)["p"]
        events += feed(survivor, "p", record.signal, self.CHUNK, start=fed)
        events += survivor.close_session("p")
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, N_LEADS), events
        )

    def test_parked_session_with_stashed_input(
        self, long_records, embedded_classifier, standalone_events,
        assert_events_equal, wait_parked,
    ):
        record = long_records[1]
        upto = int(7 * FS) // self.CHUNK * self.CHUNK
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=3)
        handle = serve_in_thread(
            StreamGateway(embedded_classifier, FS, n_leads=N_LEADS, journal=journal)
        )
        try:
            client = GatewayClient(handle.host, handle.port, window=4).connect()
            client.open_session("p")
            received = feed(client, "p", record.signal, self.CHUNK, stop=upto)
            received += client.poll("p")
            client.close()  # the producer goes away: the server parks "p"
            wait_parked(handle.server, "p")
            assert handle.server.gateway._get("p").node.n_stashed > 0
        finally:
            handle.stop()  # the host crashes with "p" parked
        fresh = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        received += recover_sessions(journal, fresh)["p"]
        received += feed(fresh, "p", record.signal, self.CHUNK, start=upto)
        received += fresh.close_session("p")
        assert_events_equal(
            standalone_events(embedded_classifier, record, FS, N_LEADS), received
        )


class TestRejectedChunks:
    """A chunk ``ingest`` rejects never reaches the write-ahead log.
    Journaled, it would be replayed on recovery, raise again, and
    abort the recovery of its session and of every session after it."""

    BLOCK = 90

    @staticmethod
    def bad_chunk(kind, good):
        if kind == "wrong-leads":
            return np.zeros((good.shape[0], N_LEADS + 1))
        poisoned = good.copy()
        poisoned[40, 0] = np.nan
        return poisoned

    def journaled_run(self, records, classifier, bad_kind):
        """10 good chunks of ``p``, optionally a rejected one, 10 more,
        then 10 chunks of a session ``q`` opened after it."""
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=1000)
        gateway = StreamGateway(classifier, FS, n_leads=N_LEADS, journal=journal)
        gateway.open_session("p")
        p, q = records[0].signal, records[1].signal
        events = feed(gateway, "p", p, self.BLOCK, stop=10 * self.BLOCK)
        if bad_kind is not None:
            with pytest.raises(ValueError):
                gateway.ingest("p", self.bad_chunk(bad_kind, p[: self.BLOCK]))
        events += feed(gateway, "p", p, self.BLOCK, start=10 * self.BLOCK, stop=20 * self.BLOCK)
        gateway.open_session("q")
        q_events = feed(gateway, "q", q, self.BLOCK, stop=10 * self.BLOCK)
        return journal, {"p": events, "q": q_events}

    @pytest.mark.parametrize("bad_kind", ["wrong-leads", "nan"])
    def test_recovery_is_bit_exact_with_a_clean_journal(
        self, bad_kind, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        journal, delivered = self.journaled_run(records, embedded_classifier, bad_kind)
        clean, clean_delivered = self.journaled_run(records, embedded_classifier, None)
        for sid in ("p", "q"):
            assert_events_equal(clean_delivered[sid], delivered[sid])
            assert [c.tobytes() for c in journal.recover(sid).chunks] == [
                c.tobytes() for c in clean.recover(sid).chunks
            ]

        gateway = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        backlog = recover_sessions(journal, gateway)
        clean_backlog = recover_sessions(
            clean, StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        )
        assert set(backlog) == {"p", "q"}
        for sid, record, start, reference in (
            ("p", records[0], 20 * self.BLOCK, reference_events[0]),
            ("q", records[1], 10 * self.BLOCK, reference_events[1]),
        ):
            assert_events_equal(clean_backlog[sid], backlog[sid])
            events = delivered[sid] + backlog[sid]
            events += feed(gateway, sid, record.signal, self.BLOCK, start=start)
            events += gateway.close_session(sid)
            assert_events_equal(reference, events)

    @pytest.mark.parametrize("bad_kind", ["wrong-leads", "nan"])
    def test_supervised_recovery_after_a_rejected_chunk(
        self, bad_kind, records, embedded_classifier, reference_events,
        assert_events_equal,
    ):
        """The sharded tier validates in the parent, before the journal:
        a rejected chunk raises at once, is never replayed, and a later
        kill of every worker recovers both sessions bit-exactly."""
        with ShardedGateway(
            embedded_classifier, FS,
            journal=SessionJournal(MemoryJournalStore(), snapshot_every=10_000),
            workers=2, n_leads=N_LEADS,
            placement="round-robin",
        ) as gateway:
            collected = {}
            for sid, record in zip(("p", "q"), records):
                gateway.open_session(sid)
                collected[sid] = feed(
                    gateway, sid, record.signal, self.BLOCK, stop=10 * self.BLOCK
                )
            good = records[0].signal[10 * self.BLOCK : 11 * self.BLOCK]
            with pytest.raises(ValueError):
                gateway.ingest("p", self.bad_chunk(bad_kind, good))
            assert len(gateway.journal.recover("p").chunks) == 10
            collected["p"] += feed(
                gateway, "p", records[0].signal, self.BLOCK,
                start=10 * self.BLOCK, stop=20 * self.BLOCK,
            )
            for index in range(2):
                kill_worker(gateway, index)
            for sid, record, start in (
                ("p", records[0], 20 * self.BLOCK),
                ("q", records[1], 10 * self.BLOCK),
            ):
                collected[sid] += feed(
                    gateway, sid, record.signal, self.BLOCK, start=start
                )
                collected[sid] += gateway.close_session(sid)
            stats = gateway.stats()
        assert stats["sessions_recovered"] >= 2
        for sid, reference in zip(("p", "q"), reference_events):
            assert_events_equal(reference, collected[sid])


class _RecordingStore(MemoryJournalStore):
    """A memory store that records its snapshot, delivered and forget
    writes."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[tuple[str, str]] = []

    def put_snapshot(self, session_id: str, blob: bytes) -> None:
        self.writes.append(("put_snapshot", session_id))
        super().put_snapshot(session_id, blob)

    def add_delivered(self, session_id: str, n: int) -> None:
        self.writes.append(("add_delivered", session_id))
        super().add_delivered(session_id, n)

    def forget(self, session_id: str) -> None:
        self.writes.append(("forget", session_id))
        super().forget(session_id)


class TestStreamJournalHooks:
    def test_release_writes_no_snapshot(self, records, embedded_classifier):
        """A released session leaves the journal at once: the release
        only forgets it, with no snapshot or delivered record first."""
        store = _RecordingStore()
        journal = SessionJournal(store, snapshot_every=1000)
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, journal=journal
        )
        gateway.open_session("m")
        feed(gateway, "m", records[0].signal, 180, stop=int(4 * FS))
        del store.writes[:]
        export = gateway.release_session("m")
        assert store.writes == [("forget", "m")]
        assert journal.session_ids() == []
        assert export.session_id == "m"


class TestShardedJournalHooks:
    """The sharded gateway's journal bookkeeping, without a crash."""

    def test_eviction_forgets_the_journal(self, embedded_classifier):
        journal = SessionJournal(MemoryJournalStore())
        with ShardedGateway(
            embedded_classifier, FS, workers=1, n_leads=N_LEADS,
            journal=journal, evict_after_ticks=2,
        ) as gateway:
            gateway.open_session("idle")
            gateway.open_session("busy")
            for i in range(8):
                gateway.ingest("busy", np.zeros(64))
            gateway.flush_batch()  # synchronous: drains the eviction notice
            assert "idle" not in gateway.session_ids()
            assert journal.session_ids() == ["busy"]
            gateway.close_session("busy")
