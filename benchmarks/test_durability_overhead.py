"""Durability tax and recovery speed of the journaled serving tier.

Two measurements, one fleet:

* **Overhead** — the same fleet replays through an unjournaled
  two-worker :class:`~repro.serving.sharded.ShardedGateway` and then
  the same pool journaling every chunk write-ahead into a
  :class:`FileJournalStore` (snapshots on the default cadence).  Both must produce bit-identical event sequences;
  the journaled events/sec over the unjournaled is the durability tax.
* **Recovery** — half the fleet is ingested, one worker is
  ``SIGKILL``ed, and ``check_workers()`` is timed end to end: respawn
  + snapshot import + chunk-log replay for every lost session.  The
  recovered fleet then finishes its streams and must stay bit-exact.

Events/sec for both modes, the overhead ratio, and the recovery wall
time land in ``benchmark.extra_info`` (the ``BENCH_*.json`` artifact).
Under ``REPRO_BENCH_ASSERT_DURABILITY=1`` (the CI durability job) the
journaled path must hold >= 0.7x the unjournaled throughput — the
acceptance gate of the durability tier.
"""

import os
import signal
import time

import pytest

from repro.serving import ShardedGateway, open_journal, synthesize_fleet
from repro.serving.gateway import serve_round_robin

FS = 360.0
CHUNK_SECONDS = 0.100
WORKERS = 2
GATEWAY_KWARGS = dict(
    n_leads=1, max_batch=256, max_latency_ticks=256,
)


@pytest.fixture(scope="module")
def durability_fleet():
    streams, _ = synthesize_fleet(8, 30.0, fs=FS, seed=13)
    return streams


def _keyed(per_session):
    return {
        sid: [(e.peak, e.label, e.flagged, e.tx_bytes) for e in events]
        for sid, events in per_session.items()
    }


def test_journaled_vs_unjournaled_throughput(
    benchmark, bench_embedded_classifier, durability_fleet, tmp_path_factory
):
    streams = durability_fleet
    chunk = int(CHUNK_SECONDS * FS)

    def replay(gateway, times):
        start = time.perf_counter()
        events = serve_round_robin(gateway, streams, chunk)
        times.append(time.perf_counter() - start)
        return events

    # -- baseline: no journal ------------------------------------------
    plain_times = []
    with ShardedGateway(
        bench_embedded_classifier, FS, workers=WORKERS, **GATEWAY_KWARGS
    ) as gateway:
        for _ in range(3):
            plain_events = replay(gateway, plain_times)
    plain_s = min(plain_times)

    # -- journaled ----------------------------------------------------
    # A fresh journal dir per round: each replay journals every chunk
    # write-ahead and snapshots on the default cadence, exactly the
    # production `repro serve --journal DIR` configuration.
    journal_root = tmp_path_factory.mktemp("journal-bench")
    rounds = {"n": 0}
    journaled_times = []

    def journaled_replay():
        rounds["n"] += 1
        journal = open_journal(str(journal_root / f"round-{rounds['n']}"))
        with ShardedGateway(
            bench_embedded_classifier, FS, journal=journal,
            workers=WORKERS, **GATEWAY_KWARGS,
        ) as gateway:
            events = replay(gateway, journaled_times)
        journal.close()
        return events

    journaled_events = benchmark.pedantic(
        journaled_replay, rounds=3, warmup_rounds=1, iterations=1
    )
    journaled_s = min(journaled_times)

    # Durability must be invisible in content: bit-identical sequences.
    assert _keyed(journaled_events) == _keyed(plain_events)
    n_events = sum(len(events) for events in journaled_events.values())
    assert n_events > 250

    ratio = plain_s / journaled_s
    benchmark.extra_info["n_sessions"] = len(streams)
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["unjournaled_events_per_s"] = n_events / plain_s
    benchmark.extra_info["journaled_events_per_s"] = n_events / journaled_s
    benchmark.extra_info["journaled_vs_unjournaled"] = ratio

    print("\n=== durability tax (file journal, write-ahead) ===")
    print(f"unjournaled: {n_events / plain_s:10.0f} events/s")
    print(f"journaled  : {n_events / journaled_s:10.0f} events/s "
          f"({ratio:.2f}x of unjournaled)")

    if os.environ.get("REPRO_BENCH_ASSERT_DURABILITY") == "1":
        # The acceptance gate of the durability tier: the write-ahead
        # journal may cost at most 30% of throughput.
        assert ratio >= 0.7


def test_recovery_time_after_worker_kill(
    benchmark, bench_embedded_classifier, durability_fleet, tmp_path_factory
):
    streams = durability_fleet
    chunk = int(CHUNK_SECONDS * FS)
    journal_root = tmp_path_factory.mktemp("journal-recovery")
    rounds = {"n": 0}
    recovery = {}

    def kill_and_recover():
        rounds["n"] += 1
        journal = open_journal(str(journal_root / f"round-{rounds['n']}"))
        with ShardedGateway(
            bench_embedded_classifier, FS, journal=journal,
            workers=WORKERS, **GATEWAY_KWARGS,
        ) as gateway:
            events = {sid: [] for sid in streams}
            for sid in streams:
                gateway.open_session(sid)
            # First half of every stream, round-robin.
            longest = max(len(s) for s in streams.values())
            half = (longest // 2) // chunk * chunk
            for start in range(0, half, chunk):
                for sid, stream in streams.items():
                    piece = stream[start : start + chunk]
                    if len(piece):
                        events[sid].extend(gateway.ingest(sid, piece))
            victim = gateway.worker_of(next(iter(streams)))
            lost = gateway.sessions_on(victim)
            proc = gateway._procs[victim]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(5.0)
            start = time.perf_counter()
            n_recovered = gateway.check_workers()
            recovery["s"] = time.perf_counter() - start
            recovery["sessions"] = n_recovered
            assert n_recovered == len(lost)
            # Finish the streams on the healed pool.
            for begin in range(half, longest, chunk):
                for sid, stream in streams.items():
                    piece = stream[begin : begin + chunk]
                    if len(piece):
                        events[sid].extend(gateway.ingest(sid, piece))
            for sid in streams:
                events[sid].extend(gateway.close_session(sid))
        journal.close()
        return events

    events = benchmark.pedantic(
        kill_and_recover, rounds=3, warmup_rounds=0, iterations=1
    )

    # Recovery must be invisible in content (the whole point): every
    # sequence matches a standalone node fed the full stream.
    from repro.dsp.streaming import StreamingNode

    for sid, stream in streams.items():
        node = StreamingNode(bench_embedded_classifier, FS, n_leads=1)
        reference = node.push(stream) + node.flush()
        assert _keyed({sid: events[sid]}) == _keyed({sid: reference})

    benchmark.extra_info["recovery_s"] = recovery["s"]
    benchmark.extra_info["recovered_sessions"] = recovery["sessions"]
    benchmark.extra_info["recovery_s_per_session"] = (
        recovery["s"] / max(1, recovery["sessions"])
    )
    print("\n=== recovery after SIGKILL (last timed round) ===")
    print(f"recovered {recovery['sessions']} sessions in "
          f"{recovery['s'] * 1e3:.0f} ms "
          f"({recovery['s'] * 1e3 / max(1, recovery['sessions']):.0f} "
          "ms/session)")
