"""StreamGateway round batching: the front end runs only when it can
change an output.

A steady session's chunks wait in its node's stash until the stash
reaches its due point.  At a round boundary where some session is due,
every session with stashed input drains, one 2-D pass per stage and
sub-block.  These tests pin the contract: events stay bit-exact with a
standalone ``StreamingNode`` under churn, stashed input stays within
one detector window plus one chunk, no pass runs before some session
is due and no due session waits past a round boundary, a close drains
only its own session while flush/export/release keep or carry the
stashed input, and a crash with acknowledged chunks stashed over
several rounds recovers bit-exactly from the journal.
"""

import numpy as np
import pytest

from repro.dsp.delineation import DelineationConfig
from repro.dsp.streaming import BlockFilter, StreamingNode, StreamingPeakDetector
from repro.ecg.segmentation import BeatWindow
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


def stashed(gateway):
    return {sid: gateway._sessions[sid].node.n_stashed for sid in gateway.session_ids()}


def key(events):
    return [
        (e.peak, e.label, e.tx_bytes, e.fiducials and e.fiducials.as_array().tobytes())
        for e in events
    ]


def assert_stash_bounded(gateway, longest):
    for sid in gateway.session_ids():
        node = gateway._sessions[sid].node
        assert node.n_stashed <= node._detector.window + longest


@pytest.fixture
def rounds(monkeypatch):
    """Log every round boundary as ``(due, drained)`` session ids, and
    assert at each one that a pass runs exactly when some session is
    due: then every session with stashed input drains, otherwise none
    does, and no session is left due afterwards."""
    log = []
    end_round = StreamGateway._end_round

    def spying(self):
        before = {sid: s.node.n_stashed for sid, s in self._sessions.items() if s.node.n_stashed}
        due = [sid for sid in before if self._sessions[sid].node.due]
        end_round(self)
        drained = [sid for sid in before if self._sessions[sid].node.n_stashed == 0]
        assert drained == (list(before) if due else [])
        for session in self._sessions.values():
            assert not (session.node.n_stashed and session.node.due)
        log.append((due, drained))

    monkeypatch.setattr(StreamGateway, "_end_round", spying)
    return log


def test_round_robin_with_churn_matches_standalone(
    records, embedded_classifier, standalone_events, assert_events_equal, rounds
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
            p["events"] += gateway.ingest(sid, chunk)
            assert_stash_bounded(gateway, int(2 * FS))
            if rnd == p["stop"] - 1:
                p["events"] += gateway.close_session(sid)
    passes = sum(1 for _, drained in rounds if drained)
    assert passes >= 3  # the round pass really ran ...
    assert len(rounds) > 10 * passes  # ... and most boundaries had nothing due
    for sid, p in plan.items():
        assert_events_equal(
            standalone_events(embedded_classifier, p["x"], FS, 1, upto=p["fed"]),
            p["events"],
        )


def test_close_drains_only_its_own_session(
    records, embedded_classifier, standalone_events, assert_events_equal, rounds
):
    """Nobody is due: flush_batch leaves every stash alone, a release
    carries it inside the node snapshot, and a close drains only the
    closing session.  Every event sequence stays bit-exact."""
    gateway = StreamGateway(embedded_classifier, FS)
    sids = [f"s{i}" for i in range(4)]
    for sid in sids:
        gateway.open_session(sid)
    events = {sid: [] for sid in sids}
    fed = dict.fromkeys(sids, 0)

    def ingest(sid):
        i = sids.index(sid)
        events[sid] += gateway.ingest(sid, records[i].signal[fed[sid] : fed[sid] + CHUNK])
        fed[sid] += CHUNK

    for _ in range(12):  # past every front end's warm-up, short of a window
        for sid in sids:
            ingest(sid)
    for sid in sids[:-1]:  # one session short of a full round
        ingest(sid)
    before = stashed(gateway)
    assert all(before.values())

    gateway.flush_batch()
    assert stashed(gateway) == before

    export = gateway.release_session(sids[1])
    assert export.snapshot.state["_stash"].shape[0] == before[sids[1]]
    events[sids[1]] += export.events
    gateway.import_session(export)
    assert stashed(gateway) == before

    events[sids[2]] += gateway.close_session(sids[2])
    del before[sids[2]]
    assert stashed(gateway) == before
    assert not any(drained for _, drained in rounds)

    for i, sid in enumerate(sids):
        if sid != sids[2]:
            x = records[i].signal
            for j in range(fed[sid], x.shape[0], CHUNK):
                events[sid] += gateway.ingest(sid, x[j : j + CHUNK])
            fed[sid] = x.shape[0]
            events[sid] += gateway.close_session(sid)
        assert_events_equal(
            standalone_events(embedded_classifier, records[i].signal, FS, 1, upto=fed[sid]),
            events[sid],
        )


def test_no_pass_runs_before_some_session_is_due(
    records, embedded_classifier, monkeypatch, rounds
):
    """Aligned sessions stash round after round and drain together, in
    one row pass per sub-block of at most one second, only at the
    round where their detector windows complete.  A session that
    ingests again ends the round."""
    gateway = StreamGateway(embedded_classifier, FS)
    sids = [f"s{i}" for i in range(3)]
    for sid in sids:
        gateway.open_session(sid)
    offset = 0
    for _ in range(8):  # past every front end's warm-up
        for i, sid in enumerate(sids):
            gateway.ingest(sid, records[i].signal[offset : offset + CHUNK])
        offset += CHUNK
    passes = []
    push_rows = BlockFilter.push_rows

    def counting(filters, blocks):
        passes.append(blocks.shape)
        return push_rows(filters, blocks)

    monkeypatch.setattr(BlockFilter, "push_rows", staticmethod(counting))
    draining_rounds = 0
    for _ in range(40):
        passes.clear()
        for i, sid in enumerate(sids):
            gateway.ingest(sid, records[i].signal[offset : offset + CHUNK])
            if i < len(sids) - 1:
                assert list(gateway._round) == sids[: i + 1]
        offset += CHUNK
        due, drained = rounds[-1]
        if not due:
            assert passes == []
            continue
        draining_rounds += 1
        assert sorted(drained) == sids  # aligned: one group of all three rows
        assert {rows for rows, _ in passes} == {len(sids)}
        assert max(n for _, n in passes) <= FS
        assert len(passes) == -(-sum(n for _, n in passes) // int(FS))
    assert draining_rounds == 1  # 3,600 samples: one window completes

    gateway.ingest("s0", records[0].signal[offset : offset + CHUNK])
    gateway.ingest("s0", records[0].signal[offset + CHUNK : offset + 2 * CHUNK])
    assert gateway._round == {"s0": CHUNK}
    assert stashed(gateway)["s0"] == stashed(gateway)["s1"] + 2 * CHUNK


@pytest.mark.parametrize(
    "max_latency_ticks, max_batch, n_sessions", [(1, 64, 6), (2, 8, 4), (3, 64, 2)]
)
def test_mid_round_flushes_keep_every_ingest_return(
    records, embedded_classifier, monkeypatch, max_latency_ticks, max_batch, n_sessions
):
    """Tight latency budgets and a small batch bound flush the
    classifier inside rounds, while flagged beats wait on stashed right
    context (a short detector window, long beat and T-wave spans).  A
    delivery may drain input from before the open round, never the
    round's own chunk.  Every ingest and close returns what a gateway
    whose nodes are due at every sample returns (a pass at every round
    boundary), with the same flush count, and after every ingest each
    extracted beat is in the batch, not left in a node's outbox."""

    def run():
        gateway = StreamGateway(
            embedded_classifier, FS, max_latency_ticks=max_latency_ticks,
            max_batch=max_batch, window=BeatWindow(60, 140),
            delineation_config=DelineationConfig(t_search=(0.14, 0.8)),
        )
        sids = [f"s{i}" for i in range(n_sessions)]
        for sid in sids:
            gateway.open_session(sid)
            gateway._sessions[sid].node._detector = StreamingPeakDetector(
                FS, window_s=3.0, overlap_s=0.25
            )
        rng = np.random.default_rng(11)
        fed = dict.fromkeys(sids, 0)
        log = []
        while any(fed[sid] < records[i].n_samples for i, sid in enumerate(sids)):
            for i in rng.permutation(len(sids)):
                sid, x = sids[i], records[i].signal
                if fed[sid] >= x.shape[0] or rng.random() < 0.2:
                    continue
                n = int(rng.choice([30, 90, 170, 300]))
                events = gateway.ingest(sid, x[fed[sid] : fed[sid] + n])
                fed[sid] += n
                log.append((sid, key(events)))
                log.append(gateway.n_flushes)
                assert not any(s.node._outbox for s in gateway._sessions.values())
        for sid in sids:
            log.append((sid, key(gateway.close_session(sid))))
        return log

    due_point = run()
    n_events = sum(len(entry[1]) for entry in due_point if isinstance(entry, tuple))
    assert n_events > 20 * n_sessions
    # The reference: every sample is a due point, so every round
    # boundary drains every stash, and a delivery drains nothing (all a
    # node then holds is the open round's chunk).
    deliver_rows = StreamingNode.deliver_rows
    monkeypatch.setattr(
        StreamingNode, "_update_due", lambda node: setattr(node, "_due", node._count)
    )
    monkeypatch.setattr(
        StreamingNode, "deliver_rows", staticmethod(
            lambda nodes, resolved, held=None: deliver_rows(
                nodes, resolved, [node.n_stashed for node in nodes]
            )
        ),
    )
    assert due_point == run()


def test_crash_with_stashed_chunk_recovers_bit_exact(
    records, embedded_classifier, standalone_events, assert_events_equal
):
    """Chunks acknowledged by ingest but still stashed, over several
    rounds, are in the write-ahead journal: recover_sessions rebuilds
    every session on a fresh gateway, and delivered + backlog + the
    rest of the stream is bit-exact."""
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
    # An incomplete round: two acknowledged chunks join input stashed
    # over the rounds since the last due point.
    for i, sid in enumerate(sids[:2]):
        events[sid] += gateway.ingest(sid, records[i].signal[fed : fed + CHUNK])
    assert sorted(gateway._round) == sids[:2]
    assert min(stashed(gateway).values()) > 4 * CHUNK
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
    """A stashed chunk is the node's own copy: refilling the caller's
    buffer before the round pass runs changes nothing."""
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
