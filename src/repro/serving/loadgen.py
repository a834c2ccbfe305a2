"""Fleet load generator: paced replay, latency percentiles, ramp search.

The serving tier's scaling claims (batched flushes, sharding,
federation) are only as honest as the numbers behind them.  This
module produces those numbers:

* :func:`synthesize_fleet` — a reproducible synthetic fleet spanning
  the paper's variability axes: per-session beat-class mixes
  (morphology), MIT-BIH-style contamination profiles
  (:mod:`repro.ecg.noise_stress` — clean / ``em`` / ``ma`` / ``bw``)
  and heart-rate skews, so a throughput number reflects mixed traffic
  rather than one friendly waveform.
* :func:`replay_fleet` — replay a fleet through any **ingest
  target** — an in-process gateway
  (:class:`~repro.serving.gateway.StreamGateway`,
  :class:`~repro.serving.sharded.ShardedGateway`) or the TCP
  :class:`~repro.serving.net.client.GatewayClient`, anything exposing
  ``open_session`` / ``ingest`` / ``close_session`` — at a
  **controlled offered rate** in events/sec, wall-clock paced,
  recording per-event latency (chunk ingested -> event returned) and
  whether the target kept up (:attr:`LoadgenReport.sustained`).
* :func:`find_max_sustained` — closed-loop ramp: raise the offered
  rate geometrically until the gateway falls behind; the last
  sustained step is the max-sustained-throughput claim, with its
  p50/p99 latency attached.

Event latency is measured against the ingest wall-time of the chunk
*containing the beat's peak* — the earliest instant the gateway could
have known about the beat — so queueing delay from batching policies
is included, not hidden.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ecg.noise_stress import NOISE_KINDS, add_noise_at_snr
from repro.ecg.synth import RecordSynthesizer, RhythmConfig, SynthesisConfig

__all__ = [
    "LoadgenReport",
    "find_max_sustained",
    "replay_fleet",
    "synthesize_fleet",
]

#: Per-session beat-class mixes rotated across the fleet (morphology
#: axis): mostly-normal, PVC-heavy and LBBB-heavy traffic.
_CLASS_MIXES = (
    {"N": 0.835, "V": 0.074, "L": 0.091},
    {"N": 0.60, "V": 0.30, "L": 0.10},
    {"N": 0.55, "V": 0.05, "L": 0.40},
)

#: Contamination profiles rotated across the fleet (noise axis).
_NOISE_PROFILES = ("clean",) + NOISE_KINDS

#: Heart-rate skews rotated across the fleet (rate axis): multipliers
#: on the base beat rate, so sessions beat at genuinely different
#: paces and the batch sees ragged arrivals.
_RATE_SKEWS = (1.0, 1.35, 0.75)


def synthesize_fleet(
    n_sessions: int,
    duration_s: float,
    *,
    fs: float = 360.0,
    seed: int = 0,
    base_rr: float = 0.8,
    noise_snr_db: float = 12.0,
) -> tuple[dict[str, np.ndarray], float]:
    """Build a mixed synthetic fleet for the load generator.

    Session ``i`` gets class mix ``i % 3``, noise profile ``i % 4``
    and rate skew ``i % 3`` — every combination appears within 12
    sessions, and the same ``(n_sessions, seed)`` always yields the
    same fleet.

    Parameters
    ----------
    n_sessions:
        Sessions to synthesize (>= 1).
    duration_s:
        Stream length per session in seconds.
    fs:
        Sampling frequency (Hz).
    seed:
        Base RNG seed; session ``i`` derives ``seed + i``.
    base_rr:
        Mean RR interval (s) before the per-session rate skew.
    noise_snr_db:
        SNR of the contaminated sessions' noise profiles.

    Returns
    -------
    (streams, nominal_eps):
        ``streams`` maps session id to a 1-D sample array;
        ``nominal_eps`` is the fleet's aggregate beat rate in
        events/sec when replayed in real time (the reference the
        pacing speed multiplies).
    """
    if n_sessions < 1:
        raise ValueError(f"n_sessions must be >= 1, got {n_sessions}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    streams: dict[str, np.ndarray] = {}
    nominal_eps = 0.0
    for i in range(n_sessions):
        skew = _RATE_SKEWS[i % len(_RATE_SKEWS)]
        mean_rr = base_rr / skew
        config = SynthesisConfig(
            fs=fs, n_leads=1, rhythm=RhythmConfig(mean_rr=mean_rr)
        )
        record = RecordSynthesizer(config, seed=seed + i).synthesize(
            duration_s,
            class_mix=_CLASS_MIXES[i % len(_CLASS_MIXES)],
            name=f"loadgen-{i}",
        )
        signal = np.asarray(record.signal, dtype=float)
        if signal.ndim == 2:
            signal = signal[:, 0]
        profile = _NOISE_PROFILES[i % len(_NOISE_PROFILES)]
        if profile != "clean":
            signal = add_noise_at_snr(
                signal[np.newaxis, :],
                noise_snr_db,
                kind=profile,
                fs=fs,
                rng=seed + i,
            )[0]
        streams[f"loadgen-{i}"] = signal
        nominal_eps += 1.0 / mean_rr
    return streams, nominal_eps


@dataclass(frozen=True)
class LoadgenReport:
    """Outcome of one paced :func:`replay_fleet` run.

    Attributes
    ----------
    target_eps:
        Offered rate the replay was paced to (``None`` = unpaced, as
        fast as the gateway accepts).
    offered_eps:
        Events/sec actually offered (scheduled events over scheduled
        time; equals ``target_eps`` when the pacer kept up).
    achieved_eps:
        Events/sec actually completed (``n_events`` over wall time).
    n_events:
        Total beat events returned across the fleet.
    p50_ms / p99_ms:
        Per-event latency percentiles in milliseconds (chunk ingest
        -> event returned; ``nan`` when no events fired).
    sustained:
        ``True`` when the replay finished within ``1 + tolerance`` of
        its schedule — the gateway kept up with the offered rate.
    wall_s / scheduled_s:
        Actual and scheduled replay duration in seconds.
    events:
        Per-session event lists (complete sequences, bit-exact with a
        standalone node — the replay only changes *when* chunks are
        offered, never their content or order).
    analytics:
        The target's fleet analytics rollup (``stats()["analytics"]``)
        captured after the replay, when requested via
        ``replay_fleet(..., collect_analytics=True)`` and the target
        exposes it; ``None`` otherwise.
    """

    target_eps: float | None
    offered_eps: float
    achieved_eps: float
    n_events: int
    p50_ms: float
    p99_ms: float
    sustained: bool
    wall_s: float
    scheduled_s: float
    events: dict[str, list] = field(repr=False, default_factory=dict)
    analytics: dict | None = None


def replay_fleet(
    target,
    streams,
    *,
    fs: float,
    chunk: int,
    target_eps: float | None = None,
    nominal_eps: float | None = None,
    tolerance: float = 0.1,
    collect_analytics: bool = False,
) -> LoadgenReport:
    """Replay a fleet through a live ingest target at a controlled rate.

    Chunks are offered round-robin (the canonical
    :func:`~repro.serving.gateway.serve_round_robin` order, so event
    sequences are bit-exact with it).  With ``target_eps`` set the
    replay is wall-clock paced: after round ``r`` the scheduled time
    is ``(r + 1) * chunk / fs / speed`` where
    ``speed = target_eps / nominal_eps``, and the replayer sleeps when
    ahead.  A target that falls behind simply finishes late — which
    the report flags via :attr:`LoadgenReport.sustained`.

    Parameters
    ----------
    target:
        Pluggable ingest target: any open-session surface
        (``open_session`` / ``ingest`` / ``close_session``) with no
        colliding sessions.  In-process gateways and the TCP
        :class:`~repro.serving.net.client.GatewayClient` both
        qualify, so the same synthesized fleet measures either path.
        Pipelined targets may return a chunk's events from a later
        ``ingest`` call; the latency attribution (by the chunk
        containing each beat's peak) is unaffected.
    streams:
        Mapping of session id to 1-D sample array (see
        :func:`synthesize_fleet`).
    fs:
        Sampling frequency of the streams (Hz).
    chunk:
        Ingest slice length in samples (>= 1).
    target_eps:
        Offered rate in events/sec (``None`` = unpaced).
    nominal_eps:
        The fleet's real-time event rate (from
        :func:`synthesize_fleet`); required when ``target_eps`` is
        set.
    tolerance:
        Relative schedule slack before a run counts as unsustained.
    collect_analytics:
        Capture the target's ``stats()["analytics"]`` rollup into
        :attr:`LoadgenReport.analytics` after the replay completes
        (every tier — gateway, sharded, supervised, net client,
        federation — answers the same schema-pinned block).
    """
    streams = {sid: np.asarray(x) for sid, x in streams.items()}
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1 sample, got {chunk}")
    if target_eps is not None:
        if nominal_eps is None or nominal_eps <= 0:
            raise ValueError("paced replay needs the fleet's nominal_eps")
        if target_eps <= 0:
            raise ValueError(f"target_eps must be > 0, got {target_eps}")
    speed = None if target_eps is None else target_eps / nominal_eps

    for session_id in streams:
        target.open_session(session_id)
    events: dict[str, list] = {sid: [] for sid in streams}
    # Wall-clock ingest time of every (session, round) chunk, for the
    # latency attribution of events whose peak falls in that chunk.
    ingest_times: dict[str, list[float]] = {sid: [] for sid in streams}
    latencies: list[float] = []

    def _note(session_id: str, new_events: list, now: float) -> None:
        times = ingest_times[session_id]
        for event in new_events:
            chunk_index = min(int(event.peak) // chunk, len(times) - 1)
            latencies.append(now - times[chunk_index])
        events[session_id].extend(new_events)

    offsets = dict.fromkeys(streams, 0)
    start = time.perf_counter()
    rounds = 0
    live = True
    while live:
        live = False
        for session_id, x in streams.items():
            i = offsets[session_id]
            if i >= len(x):
                continue
            now = time.perf_counter()
            ingest_times[session_id].append(now)
            returned = target.ingest(session_id, x[i : i + chunk])
            _note(session_id, returned, time.perf_counter())
            offsets[session_id] = i + chunk
            live = True
        rounds += 1
        if speed is not None and live:
            ahead = start + rounds * chunk / fs / speed - time.perf_counter()
            if ahead > 0:
                time.sleep(ahead)
    for session_id in streams:
        returned = target.close_session(session_id)
        _note(session_id, returned, time.perf_counter())
    wall_s = time.perf_counter() - start
    analytics = None
    if collect_analytics:
        stats_fn = getattr(target, "stats", None)
        if stats_fn is not None:
            analytics = stats_fn().get("analytics")

    max_rounds = max(
        (len(x) + chunk - 1) // chunk for x in streams.values()
    )
    scheduled_s = (
        wall_s if speed is None else max_rounds * chunk / fs / speed
    )
    n_events = sum(len(seq) for seq in events.values())
    lat_ms = 1e3 * np.asarray(latencies) if latencies else np.asarray([np.nan])
    offered_eps = (
        n_events / scheduled_s if scheduled_s > 0 else float("nan")
    )
    return LoadgenReport(
        target_eps=target_eps,
        offered_eps=float(offered_eps),
        achieved_eps=float(n_events / wall_s) if wall_s > 0 else float("nan"),
        n_events=n_events,
        p50_ms=float(np.percentile(lat_ms, 50)),
        p99_ms=float(np.percentile(lat_ms, 99)),
        sustained=wall_s <= scheduled_s * (1.0 + tolerance),
        wall_s=float(wall_s),
        scheduled_s=float(scheduled_s),
        events=events,
        analytics=analytics,
    )


def find_max_sustained(
    make_target,
    streams,
    *,
    fs: float,
    chunk: int,
    nominal_eps: float,
    start_eps: float | None = None,
    growth: float = 1.4,
    max_steps: int = 6,
    tolerance: float = 0.1,
) -> tuple[LoadgenReport | None, list[LoadgenReport]]:
    """Closed-loop ramp to the ingest target's max sustained throughput.

    Offers the fleet at ``start_eps`` (default: the fleet's real-time
    rate) and multiplies the rate by ``growth`` after every sustained
    step — each step on a **fresh** target from ``make_target()``
    (a gateway constructor, or a factory returning a connected
    :class:`~repro.serving.net.client.GatewayClient`) so steps are
    independent — stopping at the first unsustained step or after
    ``max_steps``.  Targets exposing ``shutdown`` are torn down after
    each step.

    Returns
    -------
    (best, reports):
        ``best`` is the highest-rate sustained report (``None`` when
        even the first step fell behind); ``reports`` is every step in
        ramp order, for the full throughput/latency curve.
    """
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    target = nominal_eps if start_eps is None else start_eps
    best: LoadgenReport | None = None
    reports: list[LoadgenReport] = []
    for _ in range(max_steps):
        ingest_target = make_target()
        try:
            report = replay_fleet(
                ingest_target,
                streams,
                fs=fs,
                chunk=chunk,
                target_eps=target,
                nominal_eps=nominal_eps,
                tolerance=tolerance,
            )
        finally:
            shutdown = getattr(ingest_target, "shutdown", None)
            if shutdown is not None:
                shutdown()
        reports.append(report)
        if not report.sustained:
            break
        best = report
        target *= growth
    return best, reports
