"""``ingest_round``: one call per round, the same result as one
``ingest`` per chunk.

A round is a list of ``(session_id, chunk)`` items.  The in-process
gateway applies it item by item through its stash (one tick per
chunk); the sharded pool ships it as one pipe message per worker.
Either way, any partition of a chunk sequence into rounds must leave
every session's events, the flush and classification counts, and the
eviction timing exactly as one ``ingest`` per chunk leaves them.  The
seeded schedules below mix in the items that raise: an unknown session
id, a wrong-shape chunk and a non-finite chunk.  Such an item changes
nothing and the other items of its round still apply.  Rounds may hold
one session more than once.

``REPRO_CHAOS_SEED=<seed>`` replays a schedule (see ``conftest``).
"""

from __future__ import annotations

import os
import random
import signal

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    MemoryJournalStore,
    SessionJournal,
    ShardedGateway,
    StreamGateway,
)
from repro.serving.sharded import WorkerCrashError

FS = 360.0
LIVE = ("a", "b", "c")
#: The session that feeds a few chunks, then is abandoned and evicted.
IDLE = "idle"
EVICT_AFTER = 5
GATEWAY = dict(max_batch=6, max_latency_ticks=4, n_leads=1)
COUNTERS = ("n_sessions", "n_queued", "n_flushes", "n_classified", "n_evicted")


@pytest.fixture(scope="module")
def records():
    return {
        sid: RecordSynthesizer(SynthesisConfig(n_leads=1), seed=seed).synthesize(
            7.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"round-{sid}"
        )
        for sid, seed in zip((*LIVE, IDLE), (311, 312, 313, 314))
    }


def chunked(signal, rng):
    """Split a stream into 30..220-sample chunks."""
    chunks, i = [], 0
    while i < len(signal):
        n = rng.randint(30, 220)
        chunks.append(signal[i : i + n])
        i += n
    return chunks


def schedule(records, seed):
    """A seeded interleaving of every session's chunks as one item list.

    The idle session's three chunks land among the first items, then it
    goes quiet for good.  Three erroring items are mixed in after it.
    """
    rng = random.Random(seed)
    queues = {sid: chunked(records[sid].signal, rng) for sid in LIVE}
    items = []
    while any(queues.values()):
        sid = rng.choice([s for s in LIVE if queues[s]])
        items.append((sid, queues[sid].pop(0)))
    idle = chunked(records[IDLE].signal, rng)[:3]
    # Close enough together that the idle clock never expires between.
    for k, position in enumerate(sorted(rng.sample(range(1, EVICT_AFTER + 1), 3))):
        items.insert(position, (IDLE, idle[k]))
    nan = np.array(records["c"].signal[:40], dtype=float)
    nan[7] = np.nan
    bad = [
        ("ghost", np.zeros(50)),  # unknown session
        ("b", np.zeros((50, 2))),  # wrong shape for a one-lead session
        ("c", nan),  # non-finite samples
    ]
    for item in bad:
        items.insert(rng.randint(15, len(items)), item)
    return items, idle


def partition(items, seed, largest=9):
    """Cut the item list into contiguous rounds of 1..largest items."""
    rng = random.Random(seed + 1000)
    rounds, i = [], 0
    while i < len(items):
        n = rng.randint(1, largest)
        rounds.append(items[i : i + n])
        i += n
    return rounds


class ItemClockGateway(StreamGateway):
    """Reads :meth:`take_evicted` after each round item, so every
    eviction is stamped with the tick it fired at."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evictions: list[tuple[str, int]] = []
        self.evicted: dict[str, list] = {}

    def _ingest_one(self, session_id, chunk):
        try:
            return super()._ingest_one(session_id, chunk)
        finally:
            for sid, events in self.take_evicted().items():
                self.evictions.append((sid, self._tick))
                self.evicted[sid] = events


def open_all(gateway):
    gateway.open_session("a", max_latency_ticks=2)
    gateway.open_session("b")
    gateway.open_session("c")
    gateway.open_session(IDLE, evict_after_ticks=EVICT_AFTER)


def drive(gateway, rounds, *, as_rounds, checkpoint):
    """Feed the rounds one call each, or one ``ingest`` per item.

    Returns the per-item results (events, or the exception raised) and
    ``checkpoint(gateway)`` taken after every round."""
    results, checkpoints = [], []
    for round_ in rounds:
        if as_rounds:
            results.extend(gateway.ingest_round(round_))
        else:
            for sid, chunk in round_:
                try:
                    results.append(gateway.ingest(sid, chunk))
                except Exception as exc:
                    results.append(exc)
        checkpoints.append(checkpoint(gateway))
    return results, checkpoints


def per_session(items, results):
    events = {}
    for (sid, _), result in zip(items, results):
        if not isinstance(result, Exception):
            events.setdefault(sid, []).extend(result)
    return events


def error_kinds(results):
    return [
        (type(r).__name__, str(r)) if isinstance(r, Exception) else None
        for r in results
    ]


def assert_matches_standalone(
    events, evicted, records, idle, classifier, standalone_events,
    assert_events_equal,
):
    """Every live session's events are the standalone node's on its
    clean samples; the idle session's are too, on its three chunks."""
    for sid in LIVE:
        reference = standalone_events(classifier, records[sid], FS, 1)
        assert_events_equal(reference, events[sid])
    reference = standalone_events(classifier, np.concatenate(idle), FS, 1)
    assert_events_equal(reference, events.get(IDLE, []) + evicted[IDLE])


class TestStreamGatewayRounds:
    @pytest.mark.chaos_seeds(0, 1, 2, 3, 4, 5)
    def test_any_partition_matches_per_chunk_ingest(
        self, records, embedded_classifier, chaos_seed, standalone_events,
        assert_events_equal,
    ):
        items, idle = schedule(records, chaos_seed)
        rounds = partition(items, chaos_seed)
        assert any(
            len({sid for sid, _ in r}) < len(r) for r in rounds
        ), "the partition should repeat a session inside some round"

        def run(as_rounds):
            gateway = ItemClockGateway(embedded_classifier, FS, **GATEWAY)
            open_all(gateway)
            results, checkpoints = drive(
                gateway, rounds, as_rounds=as_rounds,
                checkpoint=lambda g: {k: g.stats()[k] for k in COUNTERS},
            )
            closed = {sid: gateway.close_session(sid) for sid in LIVE}
            return results, checkpoints, gateway.evictions, gateway.evicted, closed

        per_chunk = run(as_rounds=False)
        batched = run(as_rounds=True)
        results, checkpoints, evictions, evicted, closed = batched
        assert error_kinds(results) == error_kinds(per_chunk[0])
        assert sum(isinstance(r, Exception) for r in results) == 3
        for a, b in zip(results, per_chunk[0]):
            if not isinstance(a, Exception):
                assert_events_equal(b, a)
        assert checkpoints == per_chunk[1]
        assert evictions == per_chunk[2] and [sid for sid, _ in evictions] == [IDLE]
        assert_events_equal(per_chunk[3][IDLE], evicted[IDLE])
        events = per_session(items, results)
        for sid in LIVE:
            events[sid] += closed[sid]
        assert_matches_standalone(
            events, evicted, records, idle, embedded_classifier,
            standalone_events, assert_events_equal,
        )

    def test_an_erroring_item_changes_nothing(self, records, embedded_classifier):
        gateway = StreamGateway(embedded_classifier, FS, **GATEWAY)
        open_all(gateway)
        chunk = records["a"].signal[:90]
        results = gateway.ingest_round(
            [("a", chunk), ("ghost", chunk), ("b", np.zeros((9, 3))), ("a", chunk)]
        )
        assert isinstance(results[1], KeyError)
        assert isinstance(results[2], ValueError)
        assert gateway._tick == 2  # one tick per applied chunk only
        with pytest.raises(KeyError, match="ghost"):
            gateway.ingest("ghost", chunk)  # the one-item round, re-raised

    def test_empty_round(self, embedded_classifier):
        gateway = StreamGateway(embedded_classifier, FS, **GATEWAY)
        assert gateway.ingest_round([]) == []


class TestShardedRounds:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.chaos_seeds(0, 1)
    def test_any_partition_matches_per_chunk_ingest(
        self, records, embedded_classifier, workers, chaos_seed,
        standalone_events, assert_events_equal,
    ):
        items, idle = schedule(records, chaos_seed)
        rounds = partition(items, chaos_seed)

        def checkpoint(gateway):
            stats = gateway.stats()  # synchronous: every round is applied
            return (
                [{k: w[k] for k in COUNTERS} for w in stats["per_worker"]],
                sorted(gateway.take_evicted()),
            )

        def run(as_rounds):
            with ShardedGateway(
                embedded_classifier, FS, workers=workers, **GATEWAY
            ) as gateway:
                open_all(gateway)
                results, checkpoints = drive(
                    gateway, rounds, as_rounds=as_rounds, checkpoint=checkpoint
                )
                events = per_session(items, results)
                for sid in LIVE:
                    events[sid] += gateway.close_session(sid)
                return results, checkpoints, events

        per_chunk = run(as_rounds=False)
        results, checkpoints, events = run(as_rounds=True)
        assert error_kinds(results) == error_kinds(per_chunk[0])
        assert sum(isinstance(r, Exception) for r in results) == 3
        assert checkpoints == per_chunk[1]
        assert [k for _, k in checkpoints if k] == [[IDLE]]
        for sid in LIVE:
            assert_events_equal(per_chunk[2][sid], events[sid])

    def test_evicted_session_keeps_its_round_events_first(
        self, records, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        """A session evicted by a later item of the same round: its own
        earlier items' events precede its final sequence."""
        signal = records[IDLE].signal
        with ShardedGateway(
            embedded_classifier, FS, workers=1, **GATEWAY
        ) as gateway:
            gateway.open_session(IDLE, evict_after_ticks=2)
            gateway.open_session("a")
            fed = int(4 * FS)
            pieces = [signal[i : i + 180] for i in range(0, fed, 180)]
            round_ = [(IDLE, p) for p in pieces]
            round_ += [("a", records["a"].signal[i * 90 : (i + 1) * 90]) for i in range(3)]
            results = gateway.ingest_round(round_)
            gateway.poll("a")
            evicted = gateway.take_evicted()
            assert set(evicted) == {IDLE}
            events = [e for r in results[: len(pieces)] for e in r] + evicted[IDLE]
            reference = standalone_events(embedded_classifier, signal[:fed], FS, 1)
            assert_events_equal(reference, events)

    def test_one_pipe_message_per_worker_per_round(self, records, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, FS, workers=2, **GATEWAY
        ) as gateway:
            for sid in LIVE:
                gateway.open_session(sid)
            sent = []
            send = gateway._send

            def recording_send(index, request):
                sent.append((index, request[0]))
                send(index, request)

            gateway._send = recording_send
            gateway.ingest_round(
                [(sid, records[sid].signal[:90]) for sid in LIVE for _ in range(2)]
            )
            workers = {gateway.worker_of(sid) for sid in LIVE}
            assert sorted(sent) == sorted((index, "round") for index in workers)


class TestSupervisedRounds:
    def test_worker_killed_under_a_round_is_healed(
        self, records, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        """The worker dies between the round's journal write and its
        send: each of its items comes back healed (a drain, never a
        re-send), and every session stays bit-exact."""
        journal = SessionJournal(MemoryJournalStore(), snapshot_every=8)
        rng = random.Random(7)
        queues = {sid: chunked(records[sid].signal, rng) for sid in LIVE}
        events = {sid: [] for sid in LIVE}
        with ShardedGateway(
            embedded_classifier, FS, journal=journal, workers=2, **GATEWAY
        ) as gateway:
            for sid in LIVE:
                gateway.open_session(sid)
            send = gateway._send
            kills = []

            def kill_then_send(index, request):
                if request[0] == "round" and not kills and len(queues["a"]) < 10:
                    proc = gateway._procs[index]
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(5.0)
                    kills.append(index)
                send(index, request)

            gateway._send = kill_then_send
            while any(queues.values()):
                round_ = [(sid, queues[sid].pop(0)) for sid in LIVE if queues[sid]]
                for (sid, _), result in zip(round_, gateway.ingest_round(round_)):
                    assert not isinstance(result, Exception), result
                    events[sid].extend(result)
            for sid in LIVE:
                events[sid].extend(gateway.close_session(sid))
            assert kills and gateway.n_recoveries >= 1
        for sid in LIVE:
            reference = standalone_events(embedded_classifier, records[sid], FS, 1)
            assert_events_equal(reference, events[sid])

    def test_round_crash_marks_each_item(self, records, embedded_classifier):
        with ShardedGateway(
            embedded_classifier, FS, workers=1, **GATEWAY
        ) as gateway:
            gateway.open_session("a")
            gateway.open_session("b")
            proc = gateway._procs[0]
            send = gateway._send

            def kill_then_send(index, request):
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(5.0)
                send(index, request)

            gateway._send = kill_then_send
            chunk = records["a"].signal[:90]
            results = gateway.ingest_round([("a", chunk), ("b", chunk)])
            assert all(isinstance(r, WorkerCrashError) for r in results)
            assert [r.session_id for r in results] == ["a", "b"]

    def test_round_crash_marks_only_the_dead_workers_items(
        self, records, embedded_classifier, standalone_events,
        assert_events_equal,
    ):
        """Without a journal, only the items shipped to the worker that
        died get its crash, each naming its own session; the other
        worker's items apply."""
        with ShardedGateway(
            embedded_classifier, FS, workers=2, **GATEWAY
        ) as gateway:
            gateway.open_session("a", worker=0)
            gateway.open_session("b", worker=1)
            proc = gateway._procs[0]
            send = gateway._send

            def kill_then_send(index, request):
                if index == 0:
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(5.0)
                send(index, request)

            gateway._send = kill_then_send
            a, b = records["a"].signal, records["b"].signal
            results = gateway.ingest_round(
                [("a", a[:90]), ("b", b[:90]), ("a", a[90:180]), ("b", b[90:180])]
            )
            crashed = [r for r in results if isinstance(r, WorkerCrashError)]
            assert [(r.worker, r.session_id) for r in crashed] == [(0, "a"), (0, "a")]
            assert results[0] is crashed[0] and results[2] is crashed[1]
            events = results[1] + results[3] + gateway.close_session("b")
        assert_events_equal(standalone_events(embedded_classifier, b[:180], FS, 1), events)
