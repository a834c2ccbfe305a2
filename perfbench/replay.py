"""Replay a session plan through a tier, closed- or open-loop, and check it.

Closed loop: the next round of chunks is offered as soon as the
previous one returns.  Open loop: round ``r`` is due at
``t0 + r * period`` whatever the tier does; each beat's verdict
latency runs from the due time of the chunk holding its R peak to the
return of the call that delivered it, and the generator records how
late each round started.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from workloads import FS, Session, event_key


class CallFailed(RuntimeError):
    """A serving call raised; the run cannot be checked further."""


@dataclass
class Ledger:
    """Operations attempted and failed across a run.

    Operations are open, ingest and close calls and verdict events.  A
    raised call, or an event that differs from the reference (missing,
    extra or changed), counts as failed.
    """

    attempted: int = 0
    failed: int = 0
    mismatched_sessions: list[str] = field(default_factory=list)

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            raise CallFailed(f"{getattr(fn, '__name__', fn)}{args[:1]}: {exc!r}") from exc

    def check(self, served: dict[str, list], reference: dict[str, list[tuple]]) -> None:
        """Compare every served session with its reference sequence."""
        for sid, expected in reference.items():
            got = [event_key(e) for e in served.get(sid, [])]
            self.attempted += max(len(expected), len(got))
            bad = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
            if bad:
                self.failed += bad
                self.mismatched_sessions.append(sid)


@dataclass
class PhaseResult:
    wall_s: float
    ecg_s: float
    events: dict[str, list]
    latencies_s: list[float]
    lateness_s: list[float]

    @property
    def realtime_factor(self) -> float:
        return self.ecg_s / self.wall_s


def run_phase(
    target,
    plan: list[Session],
    chunk: int,
    ledger: Ledger,
    *,
    period: float | None = None,
    prefix: str = "",
    on_round=None,
) -> PhaseResult:
    """Replay ``plan`` once through ``target``'s session surface.

    ``period`` (seconds per round) makes the phase open-loop; ``None``
    runs it closed-loop.  ``prefix`` keeps session ids unique when the
    same plan is replayed twice on one tier.  ``on_round(r)`` runs
    after each round, outside any serving call; its time is left out of
    the phase's ``wall_s``.
    """
    clock = time.perf_counter
    starts: dict[int, list[Session]] = {}
    for session in plan:
        starts.setdefault(session.start, []).append(session)
    n_rounds = max(s.start + s.n_chunks(chunk) for s in plan)
    events: dict[str, list] = {s.sid: [] for s in plan}
    latencies: list[float] = []
    lateness: list[float] = []
    live: list[Session] = []
    open_, ingest, close = target.open_session, target.ingest, target.close_session

    def note(session: Session, returned: list, now: float) -> None:
        if not returned:
            return
        events[session.sid].extend(returned)
        if period is None:
            return
        last = session.n_chunks(chunk) - 1
        for event in returned:
            due = t0 + (session.start + min(event.peak // chunk, last)) * period
            latencies.append(now - due)

    aside = 0.0  # time spent in on_round
    t0 = clock()
    for r in range(n_rounds):
        if period is not None:
            due = t0 + r * period
            ahead = due - clock()
            if ahead > 0:
                time.sleep(ahead)
            lateness.append(max(0.0, clock() - due))
        for session in starts.get(r, ()):
            ledger.call(open_, prefix + session.sid)
            live.append(session)
        still: list[Session] = []
        for session in live:
            k = r - session.start
            sid = prefix + session.sid
            returned = ledger.call(ingest, sid, session.x[k * chunk : (k + 1) * chunk])
            note(session, returned, clock())
            if k + 1 == session.n_chunks(chunk):
                note(session, ledger.call(close, sid), clock())
            else:
                still.append(session)
        live = still
        if on_round is not None:
            t = clock()
            on_round(r)
            aside += clock() - t
    wall = clock() - t0 - aside
    ecg = sum(len(s.x) for s in plan) / FS
    return PhaseResult(wall, ecg, events, latencies, lateness)
