"""Streaming analytics: operator correctness + gateway integration.

The operator classes are pinned against naive recomputations on the
same beat sequences (windowed RR statistics vs a numpy rescan, episode
machines vs hand-built rate traces), and the pipeline against its two
structural contracts: chunk-invariance (any partition of the beats
into update calls yields bit-identical state) and picklability (state
rides ``SessionExport`` through migration and crash recovery).

The gateway half asserts the serving-side plumbing: per-session
attachment and gateway-wide defaults, one batched fold per flush (not
per event), alerts via the pull queue, final summaries on close *and*
on eviction, and the schema-pinned ``stats()["analytics"]`` rollup at
the single-process / sharded / socket tiers.
"""

import copy
import json
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import (
    AnalyticsPipeline,
    ArrhythmiaEpisodes,
    Episode,
    HRVSpectral,
    RRStats,
    RateEpisodes,
    ShardedGateway,
    StreamGateway,
    default_pipeline,
    empty_rollup,
    merge_rollups,
    serve_in_thread,
)
from repro.serving.net import GatewayClient

N_LEADS = 1
FS = 360.0


@dataclass(frozen=True)
class Beat:
    """Minimal stand-in for a StreamBeatEvent (peak + flag only)."""

    peak: int
    flagged: bool = False


def beats_from_rr(rr_seconds, fs=FS, flagged=None):
    """Beat sequence whose RR series is (the fs-quantized) ``rr_seconds``."""
    peaks = np.cumsum(
        [int(round(rr * fs)) for rr in (0.5, *rr_seconds)]
    )
    flags = flagged if flagged is not None else [False] * len(peaks)
    return [Beat(int(p), bool(f)) for p, f in zip(peaks, flags)]


def episode_set(episodes):
    """Order-free comparison key: each update call folds operator by
    operator, so episode *ordering* varies with batching while the
    episode set (and every summary) is batching-invariant."""
    return sorted(episodes, key=repr)


def fold(operators, events, fs=FS):
    """One-shot reference fold: a fresh pipeline over all events at once."""
    pipeline = AnalyticsPipeline(copy.deepcopy(list(operators)), fs)
    closed = pipeline.update(events)
    closed += pipeline.finalize()
    return pipeline, closed


class TestRRStats:
    def test_matches_naive_window_recompute(self):
        rng = np.random.default_rng(5)
        rr = rng.uniform(0.4, 1.2, size=200)
        events = beats_from_rr(rr)
        pipeline, _ = fold([RRStats(window=16)], events)
        got = pipeline.summary()["operators"]["rr"]

        # Recompute from the quantized peak diffs, exactly as consumed.
        peaks = np.array([e.peak for e in events])
        actual = np.diff(peaks) / FS
        window = actual[-16:]
        diffs = np.diff(actual)[-15:]
        assert got["n_beats"] == len(events)
        assert got["n_intervals"] == len(actual)
        assert got["mean_rr_ms"] == pytest.approx(window.mean() * 1e3)
        assert got["mean_hr_bpm"] == pytest.approx(60.0 / window.mean())
        assert got["sdnn_ms"] == pytest.approx(window.std() * 1e3)
        assert got["rmssd_ms"] == pytest.approx(
            np.sqrt(np.mean(diffs**2)) * 1e3
        )
        assert got["pnn50"] == pytest.approx(
            100.0 * np.mean(np.abs(diffs) > 0.05)
        )

    def test_empty_and_single_beat_summaries(self):
        op = RRStats()
        assert op.summary()["mean_rr_ms"] is None
        pipeline, _ = fold([RRStats()], [Beat(100)])
        got = pipeline.summary()["operators"]["rr"]
        assert got["n_beats"] == 1
        assert got["n_intervals"] == 0  # first beat has no RR
        assert got["mean_rr_ms"] is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            RRStats(window=1)


class TestHRVSpectral:
    def test_cadence_and_modulated_tachogram(self):
        # RR modulated at 0.25 Hz -> the HF band (0.15..0.4) dominates.
        t, rr = 0.0, []
        for _ in range(256):
            interval = 0.8 + 0.08 * np.sin(2 * np.pi * 0.25 * t)
            rr.append(interval)
            t += interval
        events = beats_from_rr(rr)
        op = HRVSpectral(every=32, window=256)
        pipeline, _ = fold([op], events)
        got = pipeline.summary()["operators"]["hrv"]
        assert got["n_intervals"] == len(rr)
        assert got["n_computes"] == len(rr) // 32
        metrics = got["metrics"]
        assert metrics["hf_ms2"] > metrics["lf_ms2"]
        assert metrics["hf_ms2"] > metrics["vlf_ms2"]
        assert metrics["total_ms2"] > 0
        assert metrics["lf_hf"] < 1.0

    def test_too_few_intervals_reports_none(self):
        events = beats_from_rr([0.8] * 6)
        pipeline, _ = fold([HRVSpectral(every=4, window=64)], events)
        assert pipeline.summary()["operators"]["hrv"]["metrics"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HRVSpectral(resample_hz=0.0)
        with pytest.raises(ValueError):
            HRVSpectral(window=2)


class TestRateEpisodes:
    def test_tachy_episode_backdated_with_hysteresis(self):
        # 5 fast beats (120 bpm) between slow stretches; on_beats=3
        # opens an episode backdated to the run's first fast beat, and
        # a single in-band beat (97.5 bpm, inside the 95..100
        # hysteresis window) must NOT close it.
        rr = [0.8] * 4 + [0.5] * 3 + [60 / 97.5] + [0.5] * 2 + [0.8] * 4
        events = beats_from_rr(rr)
        op = RateEpisodes(on_beats=3, off_beats=3, hysteresis_bpm=5.0)
        pipeline, closed = fold([op], events)
        tachy = [e for e in closed if e.kind == "tachy"]
        assert len(tachy) == 1
        episode = tachy[0]
        # Backdated onset: starts at the first 120-bpm beat.
        assert episode.start_peak == events[5].peak
        assert episode.end_peak == events[10].peak
        assert episode.n_beats == 6  # 5 fast + 1 in-band beat
        assert episode.mean_hr_bpm == pytest.approx(
            np.mean([120.0] * 5 + [97.5]), rel=0.02
        )
        summary = pipeline.summary()["operators"]["rate"]
        assert summary["tachy_episodes"] == 1
        assert summary["brady_episodes"] == 0
        assert not summary["tachy_active"]

    def test_short_run_does_not_trigger(self):
        rr = [0.8] * 4 + [0.5] * 2 + [0.8] * 4  # only 2 fast beats
        _, closed = fold([RateEpisodes(on_beats=3)], beats_from_rr(rr))
        assert closed == []

    def test_brady_and_open_episode_closed_at_finish(self):
        rr = [0.8] * 3 + [1.5] * 5  # ends still bradycardic (40 bpm)
        pipeline, closed = fold([RateEpisodes()], beats_from_rr(rr))
        assert [e.kind for e in closed] == ["brady"]
        assert closed[0].mean_hr_bpm == pytest.approx(40.0, rel=0.02)
        assert pipeline.summary()["operators"]["rate"]["brady_episodes"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RateEpisodes(brady_bpm=120.0, tachy_bpm=100.0)
        with pytest.raises(ValueError):
            RateEpisodes(hysteresis_bpm=-1.0)


class TestArrhythmiaEpisodes:
    def test_flagged_runs_roll_into_episodes(self):
        flags = [0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1]  # runs: 3, 1, 2, 2
        events = beats_from_rr([0.8] * (len(flags) - 1), flagged=flags)
        pipeline, closed = fold([ArrhythmiaEpisodes(min_beats=2)], events)
        episodes = [e for e in closed if e.kind == "arrhythmia"]
        assert [e.n_beats for e in episodes] == [3, 2, 2]  # 1-run dropped
        assert episodes[0].start_peak == events[1].peak
        assert episodes[0].end_peak == events[3].peak
        assert episodes[-1].end_peak == events[-1].peak  # closed at finish
        summary = pipeline.summary()["operators"]["arrhythmia"]
        assert summary["n_flagged"] == sum(flags)
        assert summary["n_episodes"] == 3


class TestAnalyticsPipeline:
    def make_events(self, n=300, seed=3):
        rng = np.random.default_rng(seed)
        rr = rng.uniform(0.35, 1.4, size=n)
        flags = rng.random(n + 1) < 0.25
        return beats_from_rr(rr, flagged=flags)

    def test_chunk_invariance_over_random_partitions(self):
        events = self.make_events()
        reference, ref_closed = fold(default_pipeline(), events)
        rng = np.random.default_rng(11)
        for _ in range(5):
            pipeline = AnalyticsPipeline(default_pipeline(), FS)
            closed, i = [], 0
            while i < len(events):
                n = int(rng.integers(1, 40))
                closed += pipeline.update(events[i : i + n])
                closed += pipeline.update([])  # no-op, must not perturb
                i += n
            closed += pipeline.finalize()
            assert pipeline.summary() == reference.summary()
            assert episode_set(closed) == episode_set(ref_closed)

    def test_pickle_and_deepcopy_mid_stream(self):
        events = self.make_events(seed=4)
        reference, ref_closed = fold(default_pipeline(), events)
        pipeline = AnalyticsPipeline(default_pipeline(), FS)
        closed = pipeline.update(events[:137])
        for clone in (
            pickle.loads(pickle.dumps(pipeline)), copy.deepcopy(pipeline)
        ):
            clone_closed = list(closed) + clone.update(events[137:])
            clone_closed += clone.finalize()
            assert clone.summary() == reference.summary()
            assert episode_set(clone_closed) == episode_set(ref_closed)

    def test_counters_finalize_idempotent_and_json_summary(self):
        events = self.make_events(n=80, seed=6)
        pipeline = AnalyticsPipeline(default_pipeline(), FS)
        pipeline.update(events)
        assert pipeline.n_updates == 1
        assert pipeline.update([]) == []
        assert pipeline.n_updates == 1  # empty batches don't count
        pipeline.finalize()
        assert pipeline.finalize() == []  # idempotent
        summary = pipeline.summary()
        assert pipeline.n_beats == len(events)
        assert summary["n_beats"] == len(events)
        assert "n_updates" not in summary  # batching diagnostic only
        assert summary["n_episodes"] == sum(summary["by_kind"].values())
        json.dumps(summary)  # the wire/stats artifact must serialize

    def test_duplicate_operator_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnalyticsPipeline([RRStats(), RRStats()], FS)


class TestRollups:
    def test_merge_sums_and_tolerates_missing(self):
        a = {
            "sessions": 2, "beats": 100, "episodes": 3, "alerts": 1,
            "by_kind": {"tachy": 2, "arrhythmia": 1},
        }
        b = {
            "sessions": 1, "beats": 50, "episodes": 1, "alerts": 0,
            "by_kind": {"brady": 1},
        }
        merged = merge_rollups([a, None, b, empty_rollup()])
        assert merged == {
            "sessions": 3, "beats": 150, "episodes": 4, "alerts": 1,
            "by_kind": {"tachy": 2, "arrhythmia": 1, "brady": 1},
        }
        assert merge_rollups([]) == empty_rollup()


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            15.0, class_mix={"N": 0.55, "V": 0.3, "L": 0.15}, name=f"an-{s}"
        )
        for s in (301, 302)
    ]


def reference_analytics(classifier, record, standalone_events, upto=None):
    """Standalone comparator: the full event list folded in one pass."""
    events = standalone_events(classifier, record, FS, N_LEADS, upto=upto)
    pipeline, closed = fold(default_pipeline(), events, fs=FS)
    return pipeline.summary(), closed


class TestGatewayAnalytics:
    def run(self, gateway, records, block_s=0.5, **open_kwargs):
        events = {}
        for i in range(len(records)):
            gateway.open_session(f"s{i}", **open_kwargs)
            events[f"s{i}"] = []
        block = int(block_s * FS)
        offsets = [0] * len(records)
        while any(o < r.n_samples for o, r in zip(offsets, records)):
            for i, record in enumerate(records):
                if offsets[i] < record.n_samples:
                    events[f"s{i}"] += gateway.ingest(
                        f"s{i}", record.signal[offsets[i] : offsets[i] + block]
                    )
                    offsets[i] += block
        for i in range(len(records)):
            events[f"s{i}"] += gateway.close_session(f"s{i}")
        return events

    def test_per_session_summary_matches_standalone(
        self, records, embedded_classifier, standalone_events
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, max_batch=16,
            analytics=default_pipeline,
        )
        self.run(gateway, records)
        summaries = gateway.take_summaries()
        pulled = gateway.take_alerts()
        assert len(pulled) == gateway.n_alerts  # the queue holds every alert
        for i, record in enumerate(records):
            expected_summary, expected_closed = reference_analytics(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary
            got = [ep for sid, ep in pulled if sid == f"s{i}"]
            assert episode_set(got) == episode_set(expected_closed)
        # Second take is empty: the stores are drained.
        assert gateway.take_summaries() == {}
        assert gateway.take_alerts() == []

    def test_per_session_spec_overrides_and_opt_out(
        self, records, embedded_classifier
    ):
        gateway = StreamGateway(embedded_classifier, FS, n_leads=N_LEADS)
        prototypes = [RRStats(window=8)]
        gateway.open_session("with", analytics=prototypes)
        gateway.open_session("without")
        signal = records[0].signal[: int(2 * FS)]
        gateway.ingest("with", signal)
        gateway.ingest("without", signal)
        gateway.close_session("with")
        gateway.close_session("without")
        summaries = gateway.take_summaries()
        assert set(summaries) == {"with"}
        assert list(summaries["with"]["operators"]) == ["rr"]
        assert prototypes[0].n_beats == 0  # caller's prototype untouched

    def test_empty_spec_opts_out_of_gateway_default(
        self, embedded_classifier
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            analytics=default_pipeline,
        )
        gateway.open_session("none", analytics=[])
        gateway.close_session("none")
        assert gateway.take_summaries() == {}

    def test_one_batched_fold_per_flush(
        self, records, embedded_classifier
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, max_batch=16,
            analytics=default_pipeline,
        )
        gateway.open_session("s")
        block = int(0.25 * FS)
        signal = records[0].signal
        for i in range(0, len(signal), block):
            gateway.ingest("s", signal[i : i + block])
        export = gateway.release_session("s")
        # The pipeline folded once per classifier flush, never per
        # event or per ingest: |updates| tracks flushes, not beats.
        assert 1 <= export.analytics.n_updates <= gateway.n_flushes
        assert export.analytics.n_beats > export.analytics.n_updates

    def test_stats_rollup_counts_live_and_closed(
        self, records, embedded_classifier, standalone_events
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            analytics=default_pipeline,
        )
        events = self.run(gateway, records)
        rollup = gateway.stats()["analytics"]
        assert rollup["sessions"] == len(records)
        assert rollup["beats"] == sum(len(ev) for ev in events.values())
        assert rollup["alerts"] == gateway.n_alerts
        assert rollup["episodes"] == sum(rollup["by_kind"].values())
        json.dumps(gateway.stats())  # STATS frame is JSON on the wire

    def test_eviction_produces_final_summary(
        self, records, embedded_classifier, standalone_events
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            analytics=default_pipeline,
        )
        gateway.open_session("stale", evict_after_ticks=2)
        gateway.open_session("busy")
        upto = int(3 * FS)
        gateway.ingest("stale", records[0].signal[:upto])
        for i in range(4):  # advance the clock; "stale" goes idle
            gateway.ingest(
                "busy", records[1].signal[i * 360 : (i + 1) * 360]
            )
        evicted = gateway.take_evicted()
        assert "stale" in evicted
        expected_summary, _ = reference_analytics(
            embedded_classifier, records[0], standalone_events, upto=upto
        )
        assert gateway.take_summaries()["stale"] == expected_summary
        assert gateway.stats()["analytics"]["sessions"] == 2


class TestShardedAnalytics:
    def test_rollup_and_summaries_across_workers(
        self, records, embedded_classifier, standalone_events
    ):
        with ShardedGateway(
            embedded_classifier, FS, workers=2,
            n_leads=N_LEADS, max_batch=16, analytics=default_pipeline,
        ) as gateway:
            block = int(0.5 * FS)
            events = {}
            for i, record in enumerate(records):
                gateway.open_session(f"s{i}")
                events[f"s{i}"] = []
                for j in range(0, record.n_samples, block):
                    events[f"s{i}"] += gateway.ingest(
                        f"s{i}", record.signal[j : j + block]
                    )
            for i in range(len(records)):
                events[f"s{i}"] += gateway.close_session(f"s{i}")
            summaries = gateway.take_summaries()
            pulled = gateway.take_alerts()
            rollup = gateway.stats()["analytics"]
        for i, record in enumerate(records):
            expected_summary, expected_closed = reference_analytics(
                embedded_classifier, record, standalone_events
            )
            assert summaries[f"s{i}"] == expected_summary
            got = [ep for sid, ep in pulled if sid == f"s{i}"]
            assert episode_set(got) == episode_set(expected_closed)
        assert len(pulled) == rollup["alerts"]  # workers' counts, one queue
        assert rollup["sessions"] == len(records)
        assert rollup["beats"] == sum(len(ev) for ev in events.values())

    def test_per_session_spec_rides_the_pipe(
        self, records, embedded_classifier
    ):
        with ShardedGateway(
            embedded_classifier, FS, workers=2, n_leads=N_LEADS,
        ) as gateway:
            gateway.open_session("s", analytics=[RRStats(window=8)])
            gateway.ingest("s", records[0].signal[: int(2 * FS)])
            gateway.close_session("s")
            summaries = gateway.take_summaries()
        assert list(summaries["s"]["operators"]) == ["rr"]
        assert summaries["s"]["operators"]["rr"]["window"] == 8


class TestSocketAnalytics:
    def test_stats_rollup_crosses_the_wire(
        self, records, embedded_classifier
    ):
        gateway = StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS,
            analytics=default_pipeline,
        )
        handle = serve_in_thread(gateway)
        try:
            client = GatewayClient(handle.host, handle.port).connect()
            try:
                client.open_session("s")
                events = client.ingest("s", records[0].signal[: int(3 * FS)])
                events += client.close_session("s")
                rollup = client.stats()["analytics"]
            finally:
                client.close()
        finally:
            handle.stop()
        assert rollup["sessions"] == 1
        assert rollup["beats"] == len(events)
