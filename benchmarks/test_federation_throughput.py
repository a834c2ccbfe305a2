"""Horizontal scale-out of the federation tier: 1 host vs 2 hosts.

The same skewed fleet replays through the identical
:class:`~repro.serving.federation.FederatedGateway` front door against
one and then two :func:`~repro.serving.federation.spawn_host` backend
processes (each host owns its own core, event loop and gateway).  The
router keeps every host's client pipeline full — a round-robin ingest
pass fans chunks across hosts back to back with no cross-host
head-of-line blocking — so aggregate events/sec must scale with hosts
until the producer core saturates.

Both fleets must produce bit-identical event sequences (the federation
contract: placement is invisible in per-session streams).  Aggregate
and per-host events/sec plus the fleet migration counters land in
``benchmark.extra_info`` (the ``BENCH_*.json`` artifact).  Under
``REPRO_BENCH_ASSERT_FEDERATION=1`` (the 2-core CI job) the 2-host
fleet must clear 1.5x the 1-host fleet — the acceptance gate of the
federation tier.  The gate stays off by default: on a single-core box
both fleets share one core and the ratio is meaningless.
"""

import os
import time

import pytest

from repro.serving import FederatedGateway, spawn_host, synthesize_fleet
from repro.serving.gateway import serve_round_robin

FS = 360.0
CHUNK_SECONDS = 0.100


@pytest.fixture(scope="module")
def federation_fleet():
    """A rate/noise/mix-skewed fleet: sessions differ in beat rate and
    SNR, so naive static placement leaves hosts unevenly loaded — the
    regime the pipelined router (and the balancers above it) target."""
    streams, _ = synthesize_fleet(8, 30.0, fs=FS, seed=13)
    return streams


def _keyed(per_session):
    return {
        sid: [(e.peak, e.label, e.flagged, e.tx_bytes) for e in events]
        for sid, events in per_session.items()
    }


def _spawn_fleet(classifier, n_hosts):
    # Wire-speed host config (identical for both fleet sizes): large
    # batch/latency bounds keep the classifier batched.
    return [
        spawn_host(
            classifier, FS,
            gateway_kwargs=dict(n_leads=1, max_batch=256, max_latency_ticks=256),
        )
        for _ in range(n_hosts)
    ]


def test_federation_two_hosts_vs_one(
    benchmark, bench_embedded_classifier, federation_fleet
):
    streams = federation_fleet
    chunk = int(CHUNK_SECONDS * FS)

    def replay(fed, times):
        start = time.perf_counter()
        events = serve_round_robin(fed, streams, chunk)
        times.append(time.perf_counter() - start)
        return events

    # -- baseline: one backend host -----------------------------------
    single_times = []
    single_hosts = _spawn_fleet(bench_embedded_classifier, 1)
    try:
        with FederatedGateway(
            [h.address for h in single_hosts],
            placement="round-robin", window=64, send_buffer=1 << 14,
        ) as fed:
            for _ in range(3):
                single_events = replay(fed, single_times)
    finally:
        for host in single_hosts:
            host.stop()
    single_s = min(single_times)

    # -- the federated fleet: two backend hosts -----------------------
    # Hosts persist across rounds (spawn cost excluded); the timed
    # region is exactly the replay, as in the single-host baseline.
    double_times = []
    double_hosts = _spawn_fleet(bench_embedded_classifier, 2)
    try:
        with FederatedGateway(
            [h.address for h in double_hosts],
            placement="round-robin", window=64, send_buffer=1 << 14,
        ) as fed:
            double_events = benchmark.pedantic(
                replay, args=(fed, double_times),
                rounds=3, warmup_rounds=1, iterations=1,
            )
            fleet_stats = fed.stats()
    finally:
        for host in double_hosts:
            host.stop()
    double_s = min(double_times)

    # One contract, any fleet size: bit-identical event sequences.
    assert _keyed(double_events) == _keyed(single_events)
    n_events = sum(len(events) for events in double_events.values())
    assert n_events > 250

    total_double = sum(double_times)
    per_host_eps = [
        host_stats["n_classified"] / total_double
        for host_stats in fleet_stats["per_host"]
    ]
    scaling = single_s / double_s
    benchmark.extra_info["n_sessions"] = len(streams)
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["hosts"] = fleet_stats["hosts"]
    benchmark.extra_info["single_host_events_per_s"] = n_events / single_s
    benchmark.extra_info["two_host_events_per_s"] = n_events / double_s
    benchmark.extra_info["per_host_events_per_s"] = per_host_eps
    benchmark.extra_info["scaling_vs_single_host"] = scaling
    benchmark.extra_info["cross_host_migrations"] = fleet_stats["migrations"]
    benchmark.extra_info["within_host_migrations"] = sum(
        host_stats["migrations"] for host_stats in fleet_stats["per_host"]
    )

    print("\n=== federation scale-out (1 vs 2 local hosts) ===")
    print(f"1 host : {n_events / single_s:10.0f} events/s")
    print(f"2 hosts: {n_events / double_s:10.0f} events/s "
          f"({scaling:.2f}x)")
    print("  per host: "
          + ", ".join(f"{eps:.0f}" for eps in per_host_eps)
          + " events/s (cumulative over timed rounds)")

    if os.environ.get("REPRO_BENCH_ASSERT_FEDERATION") == "1":
        # The acceptance gate of the federation tier, meaningful only
        # with >= 2 cores: adding the second host must buy >= 1.5x.
        assert scaling >= 1.5
