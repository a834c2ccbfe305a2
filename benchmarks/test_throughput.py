"""Throughput micro-benchmarks of the hot per-sample path.

Tracks the trajectory of the O(n) front end, the batched delineation
kernel and the sharded serving layer (the ``BENCH_*.json`` artifacts
record these over time):

* ``filter_lead`` over 10 s of 360 Hz signal (the acceptance metric of
  the vHGW kernel rewrite — the seed implementation took ~2.3 ms);
* amortized ``BlockFilter.push`` / ``StreamingPeakDetector.push`` cost
  at ADC-realistic 0.5 s blocks (the incremental engine must not
  re-run batch kernels over its context);
* batched ``delineate_beats`` vs the per-beat ``delineate_multilead``
  loop on a high-activation record (the gated-path acceptance metric:
  the per-beat loop took ~115 ms for ~160 beats; the batched kernel
  ~80 ms, bit-exact);
* multi-record node simulation and fleet-batched stream
  classification, plus the batch engine (a round-robin replay through
  ``StreamGateway``, which also delineates flagged beats) vs a
  per-stream ``BlockFilter.push`` / ``StreamingPeakDetector.push`` loop
  over the same streams (bit-exact; >= 1.5x asserted under
  ``REPRO_BENCH_ASSERT_SHARDED=1``);
* the session gateway vs per-beat classification of the same live
  sessions (the batched-classifier amortization of ``StreamGateway``;
  the classifier passes are counted and gated — one per beat against
  at most one per flush, many beats each — while the events/sec ratio
  is recorded; plus an absolute events/sec floor under
  ``REPRO_BENCH_ASSERT_FLOOR=1``, the post-flattening figure — with an
  unpaced loadgen replay recording p50/p99 per-event latency);
* the closed-loop loadgen smoke: ramp a synthesized mixed fleet to its
  max sustained offered rate; achieved events/sec and p50/p99 latency
  always land in ``extra_info`` (>= 20x the fleet's nominal rate under
  ``REPRO_BENCH_ASSERT_FLOOR=1``);
* the multi-worker ``ShardedGateway`` vs the single-process gateway on
  the same live fleet (the cross-process sharding payoff; >= 1.3x on
  two workers, asserted on >= 2-CPU hosts under
  ``REPRO_BENCH_ASSERT_SHARDED=1``).
"""

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dsp.delineation import delineate_beats, delineate_multilead
from repro.dsp.morphological import filter_lead
from repro.dsp.peak_detection import detect_peaks
from repro.dsp.streaming import BlockFilter, StreamingNode, StreamingPeakDetector
from repro.ecg.synth import RecordSynthesizer, RhythmConfig, SynthesisConfig
from repro.platform.node_sim import NodeSimulator
from repro.platform.opcount import OpCounter
from repro.serving import (
    ShardedGateway,
    StreamGateway,
    classify_streams,
    find_max_sustained,
    replay_fleet,
    serve_round_robin,
    simulate_records,
    synthesize_fleet,
)

# The per-stream reference the tier-1 equality tests pin.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from stream_reference import (  # noqa: E402
    assert_stream_results_identical,
    reference_classify_streams,
)


@pytest.fixture(scope="module")
def record_10s():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=2).synthesize(10.0)


@pytest.fixture(scope="module")
def record_60s():
    return RecordSynthesizer(SynthesisConfig(n_leads=1), seed=3).synthesize(60.0)


@pytest.fixture(scope="module")
def fleet_records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=3), seed=s).synthesize(30.0)
        for s in (21, 22, 23)
    ]


def test_filter_lead_per_10s(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3600)
    benchmark(filter_lead, x, 360.0)


def test_block_filter_push_amortized(benchmark, record_60s):
    """Amortized per-push cost of the incremental filter (0.5 s blocks)."""
    x = record_60s.lead(0)
    fs = record_60s.fs
    block = int(0.5 * fs)

    def run():
        block_filter = BlockFilter(fs)
        for i in range(0, x.size, block):
            block_filter.push(x[i : i + block])
        return block_filter.flush()

    benchmark(run)


def test_streaming_detector_push_amortized(benchmark, record_60s):
    """Amortized per-push cost of the stateful detector (0.5 s blocks)."""
    x = filter_lead(record_60s.lead(0), record_60s.fs)
    fs = record_60s.fs
    block = int(0.5 * fs)

    def run():
        detector = StreamingPeakDetector(fs)
        for i in range(0, x.size, block):
            detector.push(x[i : i + block])
        detector.flush()
        return detector.peaks

    benchmark(run)


def test_streaming_chain_realtime_factor(benchmark, record_10s):
    """Full incremental chain (filter + detect) over 10 s of signal."""
    x = record_10s.lead(0)
    fs = record_10s.fs
    block = int(0.5 * fs)

    def run():
        block_filter = BlockFilter(fs)
        detector = StreamingPeakDetector(fs)
        for i in range(0, x.size, block):
            out = block_filter.push(x[i : i + block])
            if out.size:
                detector.push(out)
        tail = block_filter.flush()
        if tail.size:
            detector.push(tail)
        detector.flush()
        return detector.peaks

    peaks = benchmark(run)
    assert peaks.size > 5


def test_simulate_records_fleet(benchmark, bench_embedded_classifier, fleet_records):
    simulator = NodeSimulator(bench_embedded_classifier)
    fleet = benchmark(simulate_records, simulator, fleet_records)
    assert fleet.n_beats > 0
    benchmark.extra_info["n_beats"] = fleet.n_beats
    benchmark.extra_info["deadline_misses"] = fleet.deadline_misses


def test_classify_streams_fleet(benchmark, bench_embedded_classifier, fleet_records):
    streams = [r.lead(0) for r in fleet_records]
    fs = fleet_records[0].fs
    results = benchmark(classify_streams, bench_embedded_classifier, streams, fs)
    assert sum(r.n_beats for r in results) > 0
    benchmark.extra_info["n_beats"] = sum(r.n_beats for r in results)


@pytest.fixture(scope="module")
def high_activation_delineation():
    """Filtered 3-lead high-PVC record + detected peaks (most flagged)."""
    record = RecordSynthesizer(SynthesisConfig(n_leads=3), seed=55).synthesize(
        60.0, class_mix={"N": 0.3, "V": 0.55, "L": 0.15}
    )
    fs = record.fs
    filtered = np.column_stack(
        [filter_lead(record.lead(i), fs) for i in range(record.n_leads)]
    )
    peaks = detect_peaks(filtered[:, 0], fs)
    previous = [None] + [int(p) for p in peaks[:-1]]
    return fs, filtered, peaks, previous


def test_delineate_per_beat_loop(benchmark, high_activation_delineation):
    """Baseline: the seed's per-beat multi-lead delineation loop."""
    fs, filtered, peaks, previous = high_activation_delineation

    def run():
        cycles = []
        for peak, prev in zip(peaks, previous):
            counter = OpCounter()
            delineate_multilead(filtered, int(peak), fs, counter=counter, previous_peak=prev)
            cycles.append(counter.total)
        return cycles

    ops = benchmark(run)
    benchmark.extra_info["n_beats"] = len(ops)


def test_delineate_beats_batched(benchmark, high_activation_delineation):
    """Batched kernel: one MMD pass per lead/scale over the segment union."""
    fs, filtered, peaks, previous = high_activation_delineation

    def run():
        counters = [OpCounter() for _ in range(peaks.size)]
        delineate_beats(filtered, peaks, fs, counters=counters, previous_peaks=previous)
        return counters

    counters = benchmark(run)
    benchmark.extra_info["n_beats"] = len(counters)


@pytest.fixture(scope="module")
def fleet_streams_60s():
    """Eight one-lead 60 s streams."""
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=1), seed=40 + s).synthesize(60.0).lead(0)
        for s in range(8)
    ]


def test_classify_streams_rows_vs_per_stream(
    benchmark, bench_embedded_classifier, fleet_streams_60s
):
    """Batch engine (a gateway replay) vs the per-stream loop on 8 × 60 s.

    The replay runs the front end as the gateway's row passes over
    every session and delineates the flagged beats as well; the
    reference does neither.  Results must be bit-exact.  The speedup over the reference is
    recorded in ``extra_info``; the ">= 1.5x" assertion is opt-in via
    ``REPRO_BENCH_ASSERT_SHARDED=1`` (wall-clock ratios on small
    shared runners are too noisy to gate a ``-x`` suite on).
    """
    fs = 360.0
    reference_times = []
    for _ in range(3):
        start = time.perf_counter()
        reference = reference_classify_streams(
            bench_embedded_classifier, fleet_streams_60s, fs
        )
        reference_times.append(time.perf_counter() - start)

    results = benchmark(classify_streams, bench_embedded_classifier, fleet_streams_60s, fs)
    assert_stream_results_identical(reference, results)

    reference_s = min(reference_times)
    rows_s = benchmark.stats.stats.min
    benchmark.extra_info["n_streams"] = len(fleet_streams_60s)
    benchmark.extra_info["per_stream_s"] = reference_s
    benchmark.extra_info["speedup_vs_per_stream"] = reference_s / rows_s
    if os.environ.get("REPRO_BENCH_ASSERT_SHARDED") == "1":
        assert reference_s >= 1.5 * rows_s


@pytest.fixture(scope="module")
def gateway_sessions():
    """Six high-rate (~140 bpm) live sessions: classification-heavy
    load, where per-beat predict overhead dominates the savings."""
    config = SynthesisConfig(n_leads=1, rhythm=RhythmConfig(mean_rr=0.42))
    return [
        RecordSynthesizer(config, seed=70 + s).synthesize(30.0) for s in range(6)
    ]


class CountingClassifier:
    """A classifier proxy that counts ``predict`` passes and the rows
    they classify; every other attribute is the wrapped classifier's."""

    def __init__(self, classifier):
        self.classifier = classifier
        self.passes = 0
        self.beats = 0

    def predict(self, X, counter=None):
        labels = self.classifier.predict(X, counter)
        self.passes += 1
        self.beats += len(labels)
        return labels

    def __getattr__(self, name):
        return getattr(self.classifier, name)


#: Beats per classifier pass the gateway must average on the six
#: high-rate sessions below (it batches ~48 today; per-beat is 1).
GATEWAY_BEATS_PER_PASS_FLOOR = 24


def test_gateway_vs_per_beat_classification(
    benchmark, bench_embedded_classifier, gateway_sessions
):
    """Session gateway (one batched classifier pass per flush) vs the
    same sessions on inline per-beat-classifying ``StreamingNode``s.

    Both paths run identical front ends and identical chunk schedules;
    only the classification batching differs.  The events are asserted
    bit-identical, and the batching itself is gated by counting, not
    by wall clock: a counting proxy around the classifier shows the
    per-beat side making one ``predict`` per classified beat, and the
    gateway making at most one pass per flush at no fewer than
    :data:`GATEWAY_BEATS_PER_PASS_FLOOR` beats a pass.  The counts are
    deterministic, so the gate holds on any host, however busy.

    The events/sec of both sides and their ratio
    (``speedup_vs_per_beat``) are recorded in ``extra_info``, not
    asserted: the ratio is the per-call ``predict`` overhead the
    gateway amortizes, so it shrinks whenever that overhead does.  The
    two sides alternate, five runs each (the per-beat run is the
    untimed setup of each benchmark round), and the ratio is of the two
    minima, so both come from the same stretch of host time.
    """
    records = gateway_sessions
    fs = records[0].fs
    block = int(1.0 * fs)
    per_beat_classifier = CountingClassifier(bench_embedded_classifier)
    gateway_classifier = CountingClassifier(bench_embedded_classifier)
    gateways = []

    def run_per_beat():
        per_beat_classifier.passes = per_beat_classifier.beats = 0
        events = []
        for record in records:
            node = StreamingNode(per_beat_classifier, fs, n_leads=1)
            for i in range(0, record.n_samples, block):
                events += node.push(record.signal[i : i + block])
            events += node.flush()
        return events

    def run_gateway():
        gateway_classifier.passes = gateway_classifier.beats = 0
        gateway = StreamGateway(
            gateway_classifier, fs, n_leads=1,
            max_batch=256, max_latency_ticks=24,
        )
        gateways[:] = [gateway]
        per_session = serve_round_robin(
            gateway, {f"s{i}": record.signal for i, record in enumerate(records)}, block
        )
        return [event for session in per_session.values() for event in session]

    per_beat_times, per_beat_events = [], []

    def time_per_beat():
        start = time.perf_counter()
        per_beat_events[:] = run_per_beat()
        per_beat_times.append(time.perf_counter() - start)

    gateway_events = benchmark.pedantic(
        run_gateway, setup=time_per_beat, rounds=5, iterations=1
    )
    assert [(e.peak, e.label) for e in gateway_events] == [
        (e.peak, e.label) for e in per_beat_events
    ]

    n_events = len(gateway_events)
    n_flushes = gateways[0].n_flushes
    beats_per_pass = gateway_classifier.beats / gateway_classifier.passes
    per_beat_s = min(per_beat_times)
    gateway_s = benchmark.stats.stats.min
    benchmark.extra_info["n_sessions"] = len(records)
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["per_beat_passes"] = per_beat_classifier.passes
    benchmark.extra_info["gateway_passes"] = gateway_classifier.passes
    benchmark.extra_info["gateway_flushes"] = n_flushes
    benchmark.extra_info["gateway_beats_per_pass"] = beats_per_pass
    benchmark.extra_info["per_beat_events_per_s"] = n_events / per_beat_s
    benchmark.extra_info["gateway_events_per_s"] = n_events / gateway_s
    benchmark.extra_info["speedup_vs_per_beat"] = per_beat_s / gateway_s

    # Per-event latency (chunk ingest -> verdict returned) of one
    # unpaced replay of the same fleet, recorded alongside throughput
    # so the artifact always carries both axes of the serving SLO.
    latency_report = replay_fleet(
        StreamGateway(
            bench_embedded_classifier, fs, n_leads=1,
            max_batch=256, max_latency_ticks=24,
        ),
        {f"s{i}": record.signal for i, record in enumerate(records)},
        fs=fs,
        chunk=block,
    )
    benchmark.extra_info["latency_p50_ms"] = latency_report.p50_ms
    benchmark.extra_info["latency_p99_ms"] = latency_report.p99_ms
    assert n_events > 300
    # The counted gate: one predict per classified beat on the per-beat
    # side; on the gateway, at most one pass per flush, each batching
    # many beats.
    assert per_beat_classifier.passes == per_beat_classifier.beats == n_events
    assert gateway_classifier.beats == n_events
    assert gateway_classifier.passes <= n_flushes
    assert beats_per_pass >= GATEWAY_BEATS_PER_PASS_FLOOR
    if os.environ.get("REPRO_BENCH_ASSERT_FLOOR") == "1":
        # Absolute post-flattening floor, not a ratio: the vectorized
        # hot path sped up the per-beat BASELINE too (decode-once
        # projection, batched delineation), so speedup-vs-per-beat
        # understates the win.  The flattening measured ~1.5x the
        # pre-flattening 2619 events/s on the reference runner; the
        # gate is 1.3x that with slack for host variance, overridable
        # for other runner classes via REPRO_BENCH_FLOOR_EPS.
        floor_eps = float(os.environ.get("REPRO_BENCH_FLOOR_EPS", "3400"))
        assert n_events / gateway_s >= floor_eps


@pytest.fixture(scope="module")
def sharded_gateway_sessions():
    """Eight high-rate live sessions whose ids hash 4 + 4 onto two
    workers — a balanced load for the multi-worker speedup metric."""
    config = SynthesisConfig(n_leads=1, rhythm=RhythmConfig(mean_rr=0.42))
    return [
        RecordSynthesizer(config, seed=80 + s).synthesize(30.0) for s in range(8)
    ]


def test_sharded_gateway_vs_single_process(
    benchmark, bench_embedded_classifier, sharded_gateway_sessions
):
    """Multi-worker ``ShardedGateway`` vs the single-process gateway on
    the same live fleet (identical chunk schedule, identical flush
    policy per worker).

    The sharded tier moves the per-sample front ends *and* the batched
    classifier passes into worker processes while the parent only
    slices and routes chunks, so its payoff — like the
    process-executor engine above — needs real cores.  The measured
    events/sec for both tiers and their ratio land in ``extra_info``
    always; the ">= 1.3x on two workers" gate is opt-in via
    ``REPRO_BENCH_ASSERT_SHARDED=1`` (requires >= 2 CPUs), which the
    2-core CI job sets.  Events are asserted identical either way —
    sharding must never buy throughput with correctness.
    """
    records = sharded_gateway_sessions
    fs = records[0].fs
    block = int(0.5 * fs)
    streams = {f"s{i}": record.signal for i, record in enumerate(records)}
    gateway_kwargs = dict(n_leads=1, max_batch=256, max_latency_ticks=24)

    def run_single():
        gateway = StreamGateway(bench_embedded_classifier, fs, **gateway_kwargs)
        per_session = serve_round_robin(gateway, streams, block)
        return [event for session in per_session.values() for event in session]

    def run_sharded():
        with ShardedGateway(
            bench_embedded_classifier, fs, workers=2, **gateway_kwargs
        ) as gateway:
            per_session = serve_round_robin(gateway, streams, block)
        return [event for session in per_session.values() for event in session]

    single_times = []
    for _ in range(3):
        start = time.perf_counter()
        single_events = run_single()
        single_times.append(time.perf_counter() - start)

    sharded_events = benchmark(run_sharded)
    assert [(e.peak, e.label) for e in sharded_events] == [
        (e.peak, e.label) for e in single_events
    ]

    n_events = len(sharded_events)
    single_s = min(single_times)
    sharded_s = benchmark.stats.stats.min
    speedup = single_s / sharded_s
    benchmark.extra_info["n_sessions"] = len(records)
    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["single_events_per_s"] = n_events / single_s
    benchmark.extra_info["sharded_events_per_s"] = n_events / sharded_s
    benchmark.extra_info["speedup_vs_single_process"] = speedup
    assert n_events > 400
    if os.environ.get("REPRO_BENCH_ASSERT_SHARDED") == "1" and (os.cpu_count() or 1) >= 2:
        assert speedup >= 1.3


def test_loadgen_max_sustained_smoke(benchmark, bench_embedded_classifier):
    """Closed-loop loadgen smoke: ramp a small mixed fleet to its max
    sustained offered rate and record throughput + latency percentiles.

    This is the end-to-end serving SLO number: a synthesized
    morphology/noise/rate-skewed fleet is replayed at a geometrically
    ramped offered events/sec until the gateway can no longer keep the
    schedule; the best sustained step's achieved rate and p50/p99
    per-event latency land in ``extra_info`` (and the benchmark JSON
    artifact) on every run.  Under ``REPRO_BENCH_ASSERT_FLOOR=1`` the
    max sustained rate must clear 20x the fleet's nominal (real-time)
    event rate — far below what one core delivers, so the gate catches
    regressions, not noisy hosts.
    """
    fs = 360.0
    streams, nominal_eps = synthesize_fleet(4, 10.0, fs=fs, seed=31)
    chunk = int(0.25 * fs)

    def make_gateway():
        return StreamGateway(
            bench_embedded_classifier, fs, n_leads=1,
            max_batch=64, max_latency_ticks=8,
        )

    def run():
        return find_max_sustained(
            make_gateway, streams, fs=fs, chunk=chunk,
            nominal_eps=nominal_eps, start_eps=25.0 * nominal_eps,
            growth=2.0, max_steps=3,
        )

    # The ramp is itself a timing loop (paced replays); one round is
    # the measurement, re-running it would only repeat the schedule.
    best, reports = benchmark.pedantic(run, rounds=1, iterations=1)
    assert reports, "ramp ran no steps"
    benchmark.extra_info["n_sessions"] = len(streams)
    benchmark.extra_info["nominal_eps"] = nominal_eps
    benchmark.extra_info["ramp_steps"] = len(reports)
    if best is not None:
        benchmark.extra_info["max_sustained_eps"] = best.achieved_eps
        benchmark.extra_info["p50_ms"] = best.p50_ms
        benchmark.extra_info["p99_ms"] = best.p99_ms
        benchmark.extra_info["n_events"] = best.n_events
    if os.environ.get("REPRO_BENCH_ASSERT_FLOOR") == "1":
        assert best is not None, "no sustained operating point"
        assert best.achieved_eps >= 20.0 * nominal_eps
