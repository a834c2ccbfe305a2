"""StreamGateway tick batching: one front-end pass per tick, bit-exact.

Chunks of steady sessions wait in a one-chunk-per-session stash and run
through the filters and the wavelet as one 2-D pass per stage.  These
tests pin the contract: events stay bit-exact with a standalone
``StreamingNode`` under churn, the stash never holds more than one chunk
per session and is empty after every lifecycle operation, and a crash
with acknowledged chunks still stashed recovers bit-exactly from the
journal.
"""

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    MemoryJournalStore,
    SessionJournal,
    StreamGateway,
    recover_sessions,
)

FS = 360.0
CHUNK = 90  # 250 ms


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=1), seed=s).synthesize(
            24.0, class_mix={"N": 0.6, "V": 0.3, "L": 0.1}, name=f"tick-{s}"
        )
        for s in range(40, 48)
    ]


def assert_stash_bounded(gateway):
    assert set(gateway._stash) <= set(gateway.session_ids())
    for block in gateway._stash.values():
        assert block.ndim == 2  # one chunk per session, never a queue


def test_round_robin_with_churn_matches_standalone(
    records, embedded_classifier, standalone_events, assert_events_equal
):
    """Sessions open and close at seeded rounds and ingest 250 ms chunks
    (an occasional odd length or multi-second chunk mixed in); every
    session's events equal a standalone node fed the same prefix."""
    rng = np.random.default_rng(5)
    gateway = StreamGateway(embedded_classifier, FS, max_batch=16)
    plan = {}
    for i, record in enumerate(records):
        start = int(rng.integers(0, 30))
        stop = start + int(rng.integers(20, record.n_samples // CHUNK))
        plan[f"s{i}"] = dict(x=record.signal, start=start, stop=stop, fed=0, events=[])
    passes = 0
    for rnd in range(max(p["stop"] for p in plan.values()) + 1):
        for sid, p in plan.items():
            if rnd == p["start"]:
                gateway.open_session(sid)
            if not p["start"] <= rnd < p["stop"]:
                continue
            n = CHUNK
            roll = rng.random()
            if roll < 0.05:
                n = int(rng.integers(1, 400))
            elif roll < 0.08:
                n = int(2 * FS)
            chunk = p["x"][p["fed"] : p["fed"] + n]
            p["fed"] += chunk.shape[0]
            before = len(gateway._stash)
            p["events"] += gateway.ingest(sid, chunk)
            passes += len(gateway._stash) < before
            assert_stash_bounded(gateway)
            if rnd == p["stop"] - 1:
                p["events"] += gateway.close_session(sid)
                assert sid not in gateway._stash
    assert passes > 20  # the tick pass really ran
    for sid, p in plan.items():
        assert_events_equal(
            standalone_events(embedded_classifier, p["x"], FS, 1, upto=p["fed"]),
            p["events"],
        )


def test_stash_is_empty_after_lifecycle_operations(records, embedded_classifier):
    gateway = StreamGateway(embedded_classifier, FS)
    sids = [f"s{i}" for i in range(4)]
    for sid in sids:
        gateway.open_session(sid)
    offset = 0

    def round_but_last():
        nonlocal offset
        for i, sid in enumerate(sids[:-1]):
            gateway.ingest(sid, records[i].signal[offset : offset + CHUNK])
        offset += CHUNK

    def warm_up():
        # Whole rounds until every front end is steady (warm-up pushes
        # skip the stash), ending one session short of a full round.
        nonlocal offset
        for _ in range(8):
            for i, sid in enumerate(sids):
                gateway.ingest(sid, records[i].signal[offset : offset + CHUNK])
            offset += CHUNK
        round_but_last()

    warm_up()
    assert len(gateway._stash) == 3
    gateway.flush_batch()
    assert gateway._stash == {}

    round_but_last()
    assert len(gateway._stash) == 3
    gateway.export_session(sids[0])
    assert gateway._stash == {}

    round_but_last()
    export = gateway.release_session(sids[1])
    assert gateway._stash == {}
    gateway.import_session(export)

    round_but_last()
    assert gateway._stash
    gateway.close_session(sids[2])
    assert gateway._stash == {}


def test_full_round_runs_one_pass(records, embedded_classifier):
    """The chunk that completes a round triggers the pass; a session that
    ingests again with a chunk still stashed triggers it too."""
    gateway = StreamGateway(embedded_classifier, FS)
    for i in range(3):
        gateway.open_session(f"s{i}")
    offset = 0
    for _ in range(8):  # past every front end's warm-up
        for i in range(3):
            gateway.ingest(f"s{i}", records[i].signal[offset : offset + CHUNK])
        offset += CHUNK
    gateway.ingest("s0", records[0].signal[offset : offset + CHUNK])
    gateway.ingest("s1", records[1].signal[offset : offset + CHUNK])
    assert sorted(gateway._stash) == ["s0", "s1"]
    gateway.ingest("s2", records[2].signal[offset : offset + CHUNK])
    assert gateway._stash == {}
    offset += CHUNK
    gateway.ingest("s0", records[0].signal[offset : offset + CHUNK])
    gateway.ingest("s0", records[0].signal[offset + CHUNK : offset + 2 * CHUNK])
    assert list(gateway._stash) == ["s0"]


def test_crash_with_stashed_chunk_recovers_bit_exact(
    records, embedded_classifier, standalone_events, assert_events_equal
):
    """Chunks acknowledged by ingest but still stashed are in the
    write-ahead journal: recover_sessions rebuilds every session on a
    fresh gateway, and delivered + backlog + the rest of the stream is
    bit-exact."""
    journal = SessionJournal(MemoryJournalStore(), snapshot_every=16)
    gateway = StreamGateway(embedded_classifier, FS, journal=journal)
    sids = [f"s{i}" for i in range(3)]
    for sid in sids:
        gateway.open_session(sid)
    events = {sid: [] for sid in sids}
    fed = 0
    for _ in range(60):
        for i, sid in enumerate(sids):
            events[sid] += gateway.ingest(sid, records[i].signal[fed : fed + CHUNK])
        fed += CHUNK
    # An incomplete round: two acknowledged chunks stay stashed.
    for i, sid in enumerate(sids[:2]):
        events[sid] += gateway.ingest(sid, records[i].signal[fed : fed + CHUNK])
    assert sorted(gateway._stash) == sids[:2]
    del gateway  # crash: no close, no flush

    survivor = StreamGateway(embedded_classifier, FS, journal=journal)
    backlog = recover_sessions(journal, survivor)
    for i, sid in enumerate(sids):
        events[sid] += backlog[sid]
        start = fed + CHUNK if i < 2 else fed
        x = records[i].signal
        for j in range(start, x.shape[0], CHUNK):
            events[sid] += survivor.ingest(sid, x[j : j + CHUNK])
        events[sid] += survivor.close_session(sid)
        assert_events_equal(standalone_events(embedded_classifier, x, FS, 1), events[sid])


def test_caller_may_reuse_its_chunk_buffer(
    records, embedded_classifier, standalone_events, assert_events_equal
):
    """A stashed chunk is the gateway's own copy: refilling the caller's
    buffer before the tick pass runs changes nothing."""
    gateway = StreamGateway(embedded_classifier, FS)
    sids = [f"s{i}" for i in range(3)]
    for sid in sids:
        gateway.open_session(sid)
    events = {sid: [] for sid in sids}
    buf = np.empty((CHUNK,) + records[0].signal.shape[1:])
    n = records[0].n_samples
    for offset in range(0, n, CHUNK):
        for i, sid in enumerate(sids):
            part = records[i].signal[offset : offset + CHUNK]
            buf[: part.shape[0]] = part
            events[sid] += gateway.ingest(sid, buf[: part.shape[0]])
    for i, sid in enumerate(sids):
        events[sid] += gateway.close_session(sid)
        assert_events_equal(
            standalone_events(embedded_classifier, records[i].signal, FS, 1), events[sid]
        )
