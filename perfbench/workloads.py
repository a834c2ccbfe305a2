"""Workloads: seeded fleets, their replay plans and the reference events.

A *plan* is a list of sessions, each with the round it opens in and
its samples.  Round ``r`` opens the sessions that start at ``r``,
ingests one chunk into every live session (opening order), and closes
each session right after its last chunk.  The same plan drives the
closed-loop capacity phase and the open-loop latency phase, so one
reference computation checks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FS = 360.0

#: Session lengths of the churn workload, in seconds of ECG.
CHURN_LENGTH_S = (20.0, 60.0)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the tier that serves it.

    ``rate`` is the open-loop offered rate in ECG s/s, fixed at about
    half the realtime factor the serving stack reached on a shared
    2-vCPU x86 VM in its slow stretches, when the benchmark was written
    (``ward-250ms``: 414 ecg_s/s, rate 210; ``wire-churn``: 449
    ecg_s/s, rate 180).  It also sizes the fleet (see
    :func:`plan_ecg_seconds`).
    """

    name: str
    tier: str  # "gateway" (in-process) or "federation" (one spawned host)
    chunk: int  # samples per ingest
    live: int  # sessions live at once
    churn: bool  # sessions of seeded lengths open and close throughout
    analytics: bool
    journal: bool
    rate: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ward-250ms",
            tier="gateway",
            chunk=90,
            live=16,
            churn=False,
            analytics=True,
            journal=True,
            rate=210.0,
        ),
        Workload(
            name="wire-churn",
            tier="federation",
            chunk=90,
            live=12,
            churn=True,
            analytics=False,
            journal=False,
            rate=180.0,
        ),
    )
}


@dataclass(frozen=True)
class Session:
    sid: str
    start: int  # round in which the session opens
    x: np.ndarray

    def n_chunks(self, chunk: int) -> int:
        return math.ceil(len(self.x) / chunk)


#: Share of a run's measured time spent in the open-loop phase; the
#: rest goes to the closed-loop replays.
OPEN_LOOP_SHARE = 0.2


def plan_ecg_seconds(workload: Workload, seconds: float) -> float:
    """ECG seconds in one replay of the plan.

    The open-loop replay at ``rate`` then lasts a fifth of ``seconds``;
    closed-loop replays (each about a tenth of ``seconds`` at twice the
    rate) fill the rest.
    """
    return workload.rate * seconds * OPEN_LOOP_SHARE


def build_plan(workload: Workload, seed: int, seconds: float) -> list[Session]:
    """The seeded session plan of one run."""
    from repro.serving import synthesize_fleet

    chunk = workload.chunk
    per_slot = plan_ecg_seconds(workload, seconds) / workload.live
    slot_chunks = max(1, round(per_slot * FS / chunk))
    if not workload.churn:
        streams, _ = synthesize_fleet(
            workload.live, slot_chunks * chunk / FS, fs=FS, seed=seed
        )
        return [Session(sid, 0, x[: slot_chunks * chunk]) for sid, x in streams.items()]

    # Churn: each of the ``live`` slots runs sessions back to back, with
    # seeded lengths, so sessions open and close throughout the phase.
    rng = np.random.default_rng(seed)
    lo, hi = (round(s * FS / chunk) for s in CHURN_LENGTH_S)
    slots: list[list[int]] = []
    for _ in range(workload.live):
        lengths: list[int] = []
        left = slot_chunks
        while left > 0:
            n = int(rng.integers(lo, hi + 1))
            if left - n < lo:  # no runt session at the slot's end
                n = left
            lengths.append(n)
            left -= n
        slots.append(lengths)
    n_sessions = sum(len(lengths) for lengths in slots)
    longest = max(max(lengths) for lengths in slots)
    streams, _ = synthesize_fleet(n_sessions, longest * chunk / FS, fs=FS, seed=seed)
    arrays = iter(streams.items())
    plan: list[Session] = []
    for lengths in slots:
        start = 0
        for n in lengths:
            sid, x = next(arrays)
            plan.append(Session(sid, start, x[: n * chunk]))
            start += n
    plan.sort(key=lambda s: s.start)
    return plan


def event_key(event) -> tuple:
    """What the reference check compares: label, peak and fiducials
    (plus the derived flag and radio payload)."""
    return (event.peak, event.label, event.flagged, event.tx_bytes, event.fiducials)


def reference_events(classifier, plan: list[Session]) -> dict[str, list[tuple]]:
    """Every session's event sequence from a standalone StreamingNode.

    The node is chunk-invariant, so one push of the whole stream gives
    the same events the served session must return.
    """
    from repro.dsp.streaming import StreamingNode

    reference = {}
    for session in plan:
        node = StreamingNode(classifier, FS)
        events = node.push(session.x) + node.flush()
        reference[session.sid] = [event_key(e) for e in events]
    return reference
