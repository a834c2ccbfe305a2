"""Fleet load generator: synthesized fleets, paced replay, ramp search.

The loadgen's one correctness obligation: pacing changes only *when*
chunks are offered, never their content or order — so an unpaced
replay's per-session event sequences equal ``serve_round_robin`` (and
therefore a standalone node).  The rest is measurement: latency
percentiles, sustained verdicts and the max-sustained ramp.
"""

import math

import numpy as np
import pytest

from repro.serving import (
    StreamGateway,
    find_max_sustained,
    replay_fleet,
    serve_round_robin,
    synthesize_fleet,
)

FS = 360.0


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(4, 12.0, fs=FS, seed=5)


def _gateway(embedded_classifier, **kwargs):
    kwargs.setdefault("n_leads", 1)
    kwargs.setdefault("max_batch", 32)
    kwargs.setdefault("max_latency_ticks", 8)
    return StreamGateway(embedded_classifier, FS, **kwargs)


class TestSynthesizeFleet:
    def test_shapes_and_rate(self, fleet):
        streams, nominal_eps = fleet
        assert len(streams) == 4
        assert set(streams) == {f"loadgen-{i}" for i in range(4)}
        for signal in streams.values():
            assert signal.ndim == 1
            assert signal.shape[0] == int(12.0 * FS)
        # Sum of per-session heart rates, in a plausible band.
        assert 2.0 < nominal_eps < 20.0

    def test_sessions_differ(self, fleet):
        """Morphology/noise/rate skew must vary across the fleet."""
        streams, _ = fleet
        signals = list(streams.values())
        for a in range(len(signals)):
            for b in range(a + 1, len(signals)):
                assert not np.array_equal(signals[a], signals[b])

    def test_deterministic_per_seed(self):
        a, rate_a = synthesize_fleet(2, 4.0, fs=FS, seed=9)
        b, rate_b = synthesize_fleet(2, 4.0, fs=FS, seed=9)
        c, _ = synthesize_fleet(2, 4.0, fs=FS, seed=10)
        assert rate_a == rate_b
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert not np.array_equal(a["loadgen-0"], c["loadgen-0"])


class TestReplayFleet:
    def test_unpaced_replay_matches_serve_round_robin(
        self, fleet, embedded_classifier, assert_events_equal
    ):
        streams, _ = fleet
        chunk = int(0.25 * FS)
        report = replay_fleet(
            _gateway(embedded_classifier), streams, fs=FS, chunk=chunk
        )
        expected = serve_round_robin(
            _gateway(embedded_classifier), streams, chunk
        )
        assert set(report.events) == set(expected)
        for session_id in expected:
            assert_events_equal(expected[session_id], report.events[session_id])
        assert report.n_events == sum(len(s) for s in expected.values())

    def test_report_measurements(self, fleet, embedded_classifier):
        streams, _ = fleet
        report = replay_fleet(
            _gateway(embedded_classifier), streams, fs=FS, chunk=int(0.25 * FS)
        )
        assert report.target_eps is None
        assert report.n_events > 0
        assert report.achieved_eps > 0
        assert report.wall_s > 0
        assert not math.isnan(report.p50_ms)
        assert 0 <= report.p50_ms <= report.p99_ms

    def test_low_target_is_sustained_and_paced(
        self, fleet, embedded_classifier
    ):
        streams, nominal_eps = fleet
        # Far below what one process classifies: trivially sustained,
        # and the pacer must actually stretch the replay.  The 12 s
        # fleet at 8x real time is a 1.5 s schedule, so the verdict's
        # 10% slack (0.15 s) rides out a busy host's scheduler noise.
        target = 8.0 * nominal_eps
        report = replay_fleet(
            _gateway(embedded_classifier), streams, fs=FS,
            chunk=int(0.25 * FS), target_eps=target, nominal_eps=nominal_eps,
        )
        assert report.sustained
        assert report.target_eps == target
        assert report.scheduled_s > 0
        assert report.wall_s >= 0.9 * report.scheduled_s

    def test_pacing_does_not_change_events(
        self, fleet, embedded_classifier, assert_events_equal
    ):
        streams, nominal_eps = fleet
        unpaced = replay_fleet(
            _gateway(embedded_classifier), streams, fs=FS, chunk=int(0.25 * FS)
        )
        paced = replay_fleet(
            _gateway(embedded_classifier), streams, fs=FS, chunk=int(0.25 * FS),
            target_eps=50.0 * nominal_eps, nominal_eps=nominal_eps,
        )
        for session_id in unpaced.events:
            assert_events_equal(
                unpaced.events[session_id], paced.events[session_id]
            )


class TestFindMaxSustained:
    def test_ramp_finds_a_sustained_point(self, fleet, embedded_classifier):
        streams, nominal_eps = fleet
        best, reports = find_max_sustained(
            lambda: _gateway(embedded_classifier),
            streams,
            fs=FS,
            chunk=int(0.25 * FS),
            nominal_eps=nominal_eps,
            start_eps=20.0 * nominal_eps,
            growth=2.0,
            max_steps=2,
        )
        assert 1 <= len(reports) <= 2
        assert best is not None
        assert best.sustained
        assert best is max(
            (r for r in reports if r.sustained), key=lambda r: r.achieved_eps
        )
        # Targets follow the geometric ramp.
        assert reports[0].target_eps == pytest.approx(20.0 * nominal_eps)
        if len(reports) > 1:
            assert reports[1].target_eps == pytest.approx(40.0 * nominal_eps)

    def test_no_sustained_point(self, fleet, embedded_classifier):
        """An absurd start rate the gateway cannot possibly meet yields
        (None, [one unsustained report])."""
        streams, nominal_eps = fleet
        best, reports = find_max_sustained(
            lambda: _gateway(embedded_classifier),
            streams,
            fs=FS,
            chunk=int(0.25 * FS),
            nominal_eps=nominal_eps,
            start_eps=1e9,
            tolerance=1e-9,
            max_steps=3,
        )
        assert best is None
        assert len(reports) == 1
        assert not reports[0].sustained
