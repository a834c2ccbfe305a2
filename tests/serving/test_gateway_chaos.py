"""Fault-injection / property suite for the live serving layer.

Seeded random schedules of ``open`` / ``ingest`` / ``migrate`` /
``evict`` / ``close`` interleavings — arbitrary chunk sizes, arbitrary
session interleaving, migrations mid-stream (between in-process
gateways, through pickle, and between the workers of a sharded pool),
random manual flushes and early closes — always asserting the one
contract everything above the DSP layer leans on: **per-session event
sequences are bit-exact with a standalone inline-mode
``StreamingNode``** fed exactly the samples the session ingested.

The scaling chaos class adds live **scale events** to the schedule:
the worker pool grows 1 -> 4, shrinks 4 -> 1, or oscillates
(``add_worker`` / ``retire_worker`` and bursts of seeded cross-worker
migrations interleaved with everything above), with the same
per-session bit-exactness asserted on exactly the ingested prefixes.

Every schedule is derived from a seeded ``default_rng``, so failures
replay deterministically; set ``REPRO_CHAOS_SEED=<int>[,<int>...]`` to
override the seed sets (see ``conftest.pytest_generate_tests``).
"""

import pickle

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import ShardedGateway, StreamGateway

N_LEADS = 1


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            12.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name=f"chaos-{s}"
        )
        for s in (101, 102, 103)
    ]


def chunk_queue(record, rng):
    """Split a record into random 5..700-sample ingest chunks."""
    chunks, i = [], 0
    while i < record.n_samples:
        n = int(rng.integers(5, 700))
        chunks.append(record.signal[i : i + n])
        i += n
    return chunks


def random_gateway_kwargs(rng):
    return dict(
        max_batch=int(rng.integers(1, 48)),
        max_latency_ticks=int(rng.integers(1, 16)),
    )


class TestInterGatewayChaos:
    """Random schedules over a pair of in-process gateways."""

    @pytest.mark.chaos_seeds(0, 1, 2, 3)
    def test_random_schedule_with_migration_is_bit_exact(
        self, chaos_seed, records, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        rng = np.random.default_rng(chaos_seed)
        fs = records[0].fs
        gateways = [
            StreamGateway(
                embedded_classifier, fs, n_leads=N_LEADS, **random_gateway_kwargs(rng)
            )
            for _ in range(2)
        ]
        sessions = {}
        for i, record in enumerate(records):
            home = int(rng.integers(0, 2))
            sessions[f"s{i}"] = dict(
                record=record,
                chunks=chunk_queue(record, rng),
                fed=0,
                home=home,
                events=[],
            )
            gateways[home].open_session(f"s{i}")
        n_migrations = 0

        def close(sid):
            state = sessions.pop(sid)
            state["events"] += gateways[state["home"]].close_session(sid)
            assert_events_equal(
                standalone_events(
                    embedded_classifier, state["record"], fs, N_LEADS,
                    upto=state["fed"],
                ),
                state["events"],
            )

        while sessions:
            sid = str(rng.choice(sorted(sessions)))
            state = sessions[sid]
            roll = rng.random()
            if roll < 0.62:
                if not state["chunks"]:
                    close(sid)
                    continue
                chunk = state["chunks"].pop(0)
                state["events"] += gateways[state["home"]].ingest(sid, chunk)
                state["fed"] += len(chunk)
            elif roll < 0.82:
                export = gateways[state["home"]].release_session(sid)
                if rng.random() < 0.5:  # sometimes cross a (simulated) host
                    export = pickle.loads(pickle.dumps(export))
                state["home"] = 1 - state["home"]
                gateways[state["home"]].import_session(export)
                n_migrations += 1
            elif roll < 0.93:
                state["events"] += gateways[state["home"]].poll(sid)
            elif roll < 0.97:
                gateways[int(rng.integers(0, 2))].flush_batch()
            else:
                close(sid)  # early close, mid-stream
        assert n_migrations > 0


class TestShardedChaos:
    """Random schedules over the multi-worker gateway, every pool size."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.chaos_seeds(0, 1)
    def test_random_schedule_with_worker_migration_is_bit_exact(
        self, workers, chaos_seed, records, embedded_classifier,
        assert_events_equal, standalone_events,
    ):
        rng = np.random.default_rng(100 * workers + chaos_seed)
        fs = records[0].fs
        with ShardedGateway(
            embedded_classifier, fs, workers=workers, n_leads=N_LEADS,
            **random_gateway_kwargs(rng),
        ) as gateway:
            sessions = {}
            for i, record in enumerate(records):
                sessions[f"s{i}"] = dict(
                    record=record, chunks=chunk_queue(record, rng), fed=0, events=[]
                )
                gateway.open_session(f"s{i}")
            n_migrations = 0

            def close(sid):
                state = sessions.pop(sid)
                state["events"] += gateway.close_session(sid)
                assert_events_equal(
                    standalone_events(
                        embedded_classifier, state["record"], fs, N_LEADS,
                        upto=state["fed"],
                    ),
                    state["events"],
                )

            while sessions:
                sid = str(rng.choice(sorted(sessions)))
                state = sessions[sid]
                roll = rng.random()
                if roll < 0.62:
                    if not state["chunks"]:
                        close(sid)
                        continue
                    chunk = state["chunks"].pop(0)
                    state["events"] += gateway.ingest(sid, chunk)
                    state["fed"] += len(chunk)
                elif roll < 0.86:
                    gateway.migrate_session(sid, int(rng.integers(0, workers)))
                    n_migrations += 1
                elif roll < 0.94:
                    state["events"] += gateway.poll(sid)
                elif roll < 0.97:
                    gateway.flush_batch()
                else:
                    close(sid)
            if workers > 1:
                assert n_migrations > 0


class TestEvictionChaos:
    """Random schedules where slow sessions get evicted mid-stream."""

    @pytest.mark.chaos_seeds(0, 1, 2)
    def test_evicted_sessions_emit_their_exact_remainder(
        self, chaos_seed, records, embedded_classifier, assert_events_equal,
        standalone_events,
    ):
        rng = np.random.default_rng(1000 + chaos_seed)
        fs = records[0].fs
        evict_after = int(rng.integers(3, 8))
        gateway = StreamGateway(
            embedded_classifier, fs, n_leads=N_LEADS,
            evict_after_ticks=evict_after,
            **random_gateway_kwargs(rng),
        )
        # Every schedule evicts: one session is abandoned early, and a
        # survivor feeds its whole record but holds back its last
        # ``evict_after`` chunks until the abandoned one has stopped.
        abandoned, survivor = (f"s{i}" for i in rng.permutation(len(records))[:2])
        sessions = {}
        for i, record in enumerate(records):
            # Each session abandons its stream at a random point; the
            # survivors' ticks then evict it.
            sid = f"s{i}"
            stop_after = int(rng.integers(1, record.n_samples))
            if sid == abandoned:
                stop_after = int(rng.integers(1, record.n_samples // 4))
            elif sid == survivor:
                stop_after = record.n_samples
            sessions[sid] = dict(
                record=record, chunks=chunk_queue(record, rng), fed=0, events=[],
                stop_after=stop_after,
            )
            gateway.open_session(sid)
        live = set(sessions)
        while live:
            still_feeding = [
                sid for sid in sorted(live)
                if sid in gateway.session_ids()
                and sessions[sid]["chunks"]
                and sessions[sid]["fed"] < sessions[sid]["stop_after"]
            ]
            if abandoned in still_feeding and survivor in still_feeding and (
                len(sessions[survivor]["chunks"]) <= evict_after
            ):
                still_feeding.remove(survivor)
            for sid in sorted(live - set(gateway.session_ids())):
                live.discard(sid)  # evicted under us
            if not still_feeding:
                # Everyone alive is done feeding: close the remainder.
                for sid in sorted(live & set(gateway.session_ids())):
                    sessions[sid]["events"] += gateway.close_session(sid)
                    live.discard(sid)
                continue
            sid = str(rng.choice(still_feeding))
            state = sessions[sid]
            chunk = state["chunks"].pop(0)
            state["events"] += gateway.ingest(sid, chunk)
            state["fed"] += len(chunk)
        evicted = gateway.take_evicted()
        for sid, state in sessions.items():
            events = state["events"] + evicted.get(sid, [])
            assert_events_equal(
                standalone_events(
                    embedded_classifier, state["record"], fs, N_LEADS,
                    upto=state["fed"],
                ),
                events,
            )
        assert evicted  # at least one session actually got evicted


class TestScalingChaos:
    """Random schedules with live scale events on an elastic pool.

    The worker pool grows 1 -> 4, shrinks 4 -> 1, or oscillates while
    sessions open late, ingest random chunks, migrate (one at a time
    and in bursts that race undrained evictions), get evicted mid-stream and
    close early — per-session event sequences must stay bit-exact with
    a standalone node on exactly the ingested prefixes through it all.
    Evictions leave the pool through ``take_evicted``, pulled on some
    steps only, and each burst first races a short-lived session's
    eviction against a move.
    """

    @pytest.fixture(scope="class")
    def raced(self):
        """Moves that met an eviction notice not read yet, per run."""
        return {}

    @pytest.mark.parametrize("trajectory", ["grow", "shrink", "oscillate"])
    @pytest.mark.chaos_seeds(0, 1)
    def test_scale_events_preserve_bit_exactness(
        self, trajectory, chaos_seed, records, embedded_classifier,
        assert_events_equal, standalone_events, raced,
    ):
        seed = 5000 + 10 * chaos_seed + {"grow": 0, "shrink": 1, "oscillate": 2}[trajectory]
        rng = np.random.default_rng(seed)
        # Pulls and eviction races draw from their own stream, so the
        # rest of the schedule draws the numbers it drew without them.
        race_rng = np.random.default_rng([seed, 1])
        fs = records[0].fs
        start_workers = {"grow": 1, "shrink": 4, "oscillate": 2}[trajectory]
        placement = str(rng.choice(["hash", "least-loaded", "round-robin"]))
        with ShardedGateway(
            embedded_classifier, fs, workers=start_workers, n_leads=N_LEADS,
            placement=placement,
            evict_after_ticks=int(rng.integers(25, 60)),
            **random_gateway_kwargs(rng),
        ) as gateway:
            sessions = {}
            for i in range(5):  # more sessions than records: reuse streams
                record = records[i % len(records)]
                sessions[f"s{i}"] = dict(
                    record=record, chunks=chunk_queue(record, rng), fed=0,
                    events=[], open=False, done=False,
                )
            n_scale_ups = n_scale_downs = n_raced = 0
            max_workers = 4

            def move(sid, target):
                nonlocal n_raced
                try:
                    gateway.migrate_session(sid, target)
                except KeyError:
                    # Evicted under the move: the release drained an
                    # eviction notice; the sweep picks it up.
                    assert sid not in gateway.session_ids()
                    n_raced += 1
                    return False
                return True

            def feed(sid):
                state = sessions[sid]
                chunk = state["chunks"][0]
                got = gateway.ingest(sid, chunk)
                state["chunks"].pop(0)
                state["events"] += got
                state["fed"] += len(chunk)

            def race_eviction(live):
                """Open a short-lived session beside a live host and
                feed the host until the worker evicts it.  The notice
                rides a response not read yet, so the move that follows
                meets it and fails."""
                evict_after = int(race_rng.integers(1, 3))
                hosts = [h for h in live if len(sessions[h]["chunks"]) >= evict_after]
                if gateway.workers < 2 or not hosts:
                    return
                host = str(race_rng.choice(hosts))
                index = gateway.worker_of(host)
                sid = f"race{len(sessions)}"
                sessions[sid] = dict(
                    record=records[0], chunks=[], fed=0, events=[], open=True,
                    done=False,
                )
                gateway.open_session(sid, evict_after_ticks=evict_after, worker=index)
                try:
                    for _ in range(evict_after):
                        feed(host)
                except KeyError:
                    return  # the host was evicted first: no race
                assert not move(sid, (index + 1) % gateway.workers)

            # A couple of sessions are live from the start; the rest
            # open at random points of the schedule.
            for sid in ("s0", "s1"):
                gateway.open_session(sid)
                sessions[sid]["open"] = True

            def finish(sid, final_events):
                state = sessions[sid]
                state["events"] += final_events
                state["done"] = True
                assert_events_equal(
                    standalone_events(
                        embedded_classifier, state["record"], fs, N_LEADS,
                        upto=state["fed"],
                    ),
                    state["events"],
                )

            def close_out(sid):
                # An eviction that crossed this close in flight has its
                # tail folded into the close's return value.
                finish(sid, gateway.close_session(sid))

            def sweep_evicted():
                # The pull drains every worker's pipe first; each final
                # event sequence completes its session.
                for sid, final_events in gateway.take_evicted().items():
                    finish(sid, final_events)

            while any(not s["done"] for s in sessions.values()):
                # Pull on some steps only, so that an undrained eviction
                # notice can still meet a move.
                if race_rng.random() < 0.3:
                    sweep_evicted()
                unopened = [
                    sid for sid, s in sessions.items() if not s["open"]
                ]
                live = [
                    sid for sid, s in sessions.items()
                    if s["open"] and not s["done"] and sid in gateway.session_ids()
                ]
                if not live and not unopened:
                    sweep_evicted()  # the rest were evicted
                    continue
                roll = rng.random()
                if (roll < 0.08 or not live) and unopened:
                    sid = str(rng.choice(unopened))
                    gateway.open_session(sid)
                    sessions[sid]["open"] = True
                    continue
                if roll < 0.16:  # scale event, per trajectory
                    if trajectory == "grow" and gateway.workers < max_workers:
                        gateway.add_worker()
                        n_scale_ups += 1
                    elif trajectory == "shrink" and gateway.workers > 1:
                        gateway.retire_worker(int(rng.integers(0, gateway.workers)))
                        n_scale_downs += 1
                    elif trajectory == "oscillate":
                        if gateway.workers == 1 or (
                            gateway.workers < max_workers and rng.random() < 0.5
                        ):
                            gateway.add_worker()
                            n_scale_ups += 1
                        else:
                            gateway.retire_worker(
                                int(rng.integers(0, gateway.workers))
                            )
                            n_scale_downs += 1
                    continue
                if roll < 0.22:  # a burst of moves off a stale session list
                    race_eviction(live)
                    listed = gateway.session_ids()
                    for _ in range(int(rng.integers(1, 3))):
                        if gateway.workers < 2 or not listed:
                            break
                        sid = str(rng.choice(listed))
                        if sid not in gateway.session_ids():
                            continue  # a move before it drained the notice
                        shift = int(rng.integers(1, gateway.workers))
                        move(sid, (gateway.worker_of(sid) + shift) % gateway.workers)
                    continue
                sid = str(rng.choice(sorted(live)))
                state = sessions[sid]
                roll = rng.random()
                try:
                    if roll < 0.70:
                        if not state["chunks"]:
                            close_out(sid)
                            continue
                        feed(sid)
                    elif roll < 0.82:
                        move(sid, int(rng.integers(0, gateway.workers)))
                    elif roll < 0.92:
                        state["events"] += gateway.poll(sid)
                    elif roll < 0.96:
                        gateway.flush_batch()
                    else:
                        close_out(sid)
                except KeyError:
                    # Evicted between the liveness check and the call
                    # (the ingest drains the eviction notice first and
                    # never ships the chunk); the sweep picks it up.
                    assert sid not in gateway.session_ids()
            sweep_evicted()
            if trajectory == "grow":
                assert gateway.workers > 1 and n_scale_ups > 0
            elif trajectory == "shrink":
                assert n_scale_downs > 0
            else:
                assert n_scale_ups > 0 and n_scale_downs > 0
            assert gateway.stats()["scale_events"] == n_scale_ups + n_scale_downs
            raced[(trajectory, chaos_seed)] = n_raced

    def test_a_move_meets_an_undrained_eviction(self, raced):
        """Over the seed set, the schedules above (run first) reach the
        branch where a move meets an eviction notice not read yet."""
        if not raced:
            pytest.skip("no scaling schedule ran")
        assert sum(raced.values()) > 0
