"""Streaming analytics over the gateway's beat-event bus.

The serving tiers end in a stream of typed
:class:`~repro.dsp.streaming.StreamBeatEvent` objects — and until this
module, nothing consumed them beyond counting.  Here the event bus
becomes monitoring: a set of composable, O(1)-per-beat streaming
operators that fold over a session's finalized events and maintain the
clinical quantities the paper's node exists to surface —

* :class:`RRStats` — incremental RR-interval time-domain statistics
  (mean RR / mean HR, SDNN, RMSSD, pNN50) over a sliding window of the
  most recent intervals, maintained with running sums (add one, retire
  one — never a window rescan per beat);
* :class:`HRVSpectral` — frequency-domain HRV (VLF/LF/HF band powers,
  LF/HF ratio) from a Welch/Lomb-style periodogram of the uniformly
  resampled RR series, recomputed on an interval-count cadence rather
  than per beat (the vectorized pass amortizes exactly like the
  gateway's batched classifier);
* :class:`RateEpisodes` — tachycardia/bradycardia episode detection
  with onset/offset run-length + hysteresis state machines, emitting
  typed :class:`Episode` records;
* :class:`ArrhythmiaEpisodes` — runs of classifier-flagged beats
  rolled into ``"arrhythmia"`` :class:`Episode` records.

:class:`AnalyticsPipeline` composes operators for one session: the
gateway hands it the session's newly finalized events **once per
batched flush** (not once per event), it converts them to arrays once,
derives the RR series incrementally across calls, and folds each
operator forward.  Every operator is a *deterministic per-beat fold*:
its state after beat ``k`` depends only on beats ``0..k``, never on
how the updates were batched — so analytics inherit the serving
stack's chunk-invariance contract for free.  Pipelines pickle and
deep-copy, ride :class:`~repro.serving.gateway.SessionExport` through
migration/eviction/crash-recovery bit-exactly, and close with a final
:meth:`~AnalyticsPipeline.summary`.  Closed episodes and final
summaries leave a gateway only through its ``take_alerts`` /
``take_summaries`` queues.

:func:`default_pipeline` builds the standard operator set (the CLI's
``--analytics``); :func:`empty_rollup` / :func:`merge_rollups` define
the schema-pinned ``stats()["analytics"]`` rollup that aggregates
through the sharded and federated tiers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.serving.executors import validate_at_least

__all__ = [
    "AnalyticsPipeline",
    "ArrhythmiaEpisodes",
    "Episode",
    "HRVSpectral",
    "RRStats",
    "RateEpisodes",
    "default_pipeline",
    "empty_rollup",
    "merge_rollups",
]

#: Successive-difference threshold of the pNN50 statistic (seconds).
_NN50_S = 0.05

#: HRV band edges in Hz (VLF / LF / HF), the conventional short-term
#: analysis split.
_BANDS = (("vlf", 0.0033, 0.04), ("lf", 0.04, 0.15), ("hf", 0.15, 0.4))


@dataclass(frozen=True)
class Episode:
    """One detected episode: a typed run of beats with its rate summary.

    ``start_peak`` / ``end_peak`` are absolute stream sample indices
    (the same coordinate as
    :attr:`~repro.dsp.streaming.StreamBeatEvent.peak`), so an episode
    localizes in the raw signal.  ``mean_hr_bpm`` is ``None`` when no
    RR interval fell inside the episode (a run at the stream head).
    """

    kind: str
    start_peak: int
    end_peak: int
    n_beats: int
    mean_hr_bpm: float | None = None


class StreamOperator:
    """Base of the composable per-beat operators.

    Subclasses implement :meth:`consume` — one beat forward, appending
    any episodes it *closes* to ``out`` — plus :meth:`finish` (close
    open episodes at stream end) and :meth:`summary`.  The contract
    that makes every downstream guarantee hold: ``consume`` must be a
    deterministic fold over the beat sequence, with no dependence on
    how beats were grouped into update calls.
    """

    #: Key of this operator's block in the pipeline summary.
    name = "operator"

    def consume(self, peak: int, rr: float | None, flagged: bool, out: list) -> None:
        raise NotImplementedError

    def finish(self, out: list) -> None:
        """Close any open episode at end of stream (default: none)."""

    def summary(self) -> dict:
        raise NotImplementedError


class RRStats(StreamOperator):
    """Sliding-window RR-interval time-domain statistics.

    Maintains the last ``window`` RR intervals (and their successive
    differences) with running sums and sums of squares — O(1) per
    beat, O(1) memory in the window size:

    * ``mean_rr_ms`` / ``mean_hr_bpm`` — window mean interval / rate;
    * ``sdnn_ms`` — standard deviation of the windowed intervals;
    * ``rmssd_ms`` — root-mean-square of successive differences;
    * ``pnn50`` — fraction (percent) of successive differences over
      50 ms.
    """

    name = "rr"

    def __init__(self, window: int = 64):
        validate_at_least("window", window, minimum=2)
        self.window = int(window)
        self.n_beats = 0
        self.n_intervals = 0
        self._rr: deque = deque()
        self._sum = 0.0
        self._sumsq = 0.0
        self._prev_rr: float | None = None
        self._diffsq: deque = deque()
        self._diffsq_sum = 0.0
        self._nn50: deque = deque()
        self._nn50_count = 0

    def consume(self, peak: int, rr: float | None, flagged: bool, out: list) -> None:
        self.n_beats += 1
        if rr is None:
            return
        self.n_intervals += 1
        if len(self._rr) == self.window:
            old = self._rr.popleft()
            self._sum -= old
            self._sumsq -= old * old
        self._rr.append(rr)
        self._sum += rr
        self._sumsq += rr * rr
        if self._prev_rr is not None:
            diff = rr - self._prev_rr
            dsq = diff * diff
            if len(self._diffsq) == self.window - 1:
                self._diffsq_sum -= self._diffsq.popleft()
                if self._nn50.popleft():
                    self._nn50_count -= 1
            self._diffsq.append(dsq)
            self._diffsq_sum += dsq
            over = abs(diff) > _NN50_S
            self._nn50.append(over)
            if over:
                self._nn50_count += 1
        self._prev_rr = rr

    def summary(self) -> dict:
        n = len(self._rr)
        result = {
            "n_beats": self.n_beats,
            "n_intervals": self.n_intervals,
            "window": self.window,
            "mean_rr_ms": None,
            "mean_hr_bpm": None,
            "sdnn_ms": None,
            "rmssd_ms": None,
            "pnn50": None,
        }
        if n == 0:
            return result
        mean = self._sum / n
        result["mean_rr_ms"] = mean * 1e3
        result["mean_hr_bpm"] = 60.0 / mean
        variance = max(0.0, self._sumsq / n - mean * mean)
        result["sdnn_ms"] = math.sqrt(variance) * 1e3
        m = len(self._diffsq)
        if m:
            result["rmssd_ms"] = math.sqrt(self._diffsq_sum / m) * 1e3
            result["pnn50"] = 100.0 * self._nn50_count / m
        return result


class HRVSpectral(StreamOperator):
    """Frequency-domain HRV over the uniformly resampled RR series.

    Keeps the last ``window`` (beat-time, RR) samples; every ``every``
    consumed intervals — an *interval-count* cadence, so recomputation
    points are chunk-invariant by construction — resamples the tachogram
    onto a uniform ``resample_hz`` grid (linear interpolation, the
    Lomb-free standard for short-term HRV), removes the mean, and takes
    one vectorized periodogram.  Powers integrate over the conventional
    VLF/LF/HF bands (in s^2; scaled to ms^2 in the summary).

    Needs at least ``min_intervals`` intervals in the window before it
    reports metrics.
    """

    name = "hrv"

    def __init__(
        self,
        *,
        every: int = 32,
        window: int = 128,
        resample_hz: float = 4.0,
        min_intervals: int = 16,
    ):
        validate_at_least("every", every)
        validate_at_least("window", window, minimum=4)
        validate_at_least("min_intervals", min_intervals, minimum=4)
        if resample_hz <= 0:
            raise ValueError(f"resample_hz must be > 0, got {resample_hz}")
        self.every = int(every)
        self.window = int(window)
        self.resample_hz = float(resample_hz)
        self.min_intervals = int(min_intervals)
        self.n_intervals = 0
        self.n_computes = 0
        self._t: deque = deque()
        self._rr: deque = deque()
        self._metrics: dict | None = None
        self._fs: float | None = None

    def consume(self, peak: int, rr: float | None, flagged: bool, out: list) -> None:
        if rr is None:
            return
        self.n_intervals += 1
        if len(self._rr) == self.window:
            self._t.popleft()
            self._rr.popleft()
        # Beat time in seconds from sample index: exact integer / fs.
        self._t.append(peak / self._fs)
        self._rr.append(rr)
        if self.n_intervals % self.every == 0:
            self._compute()

    def _compute(self) -> None:
        if len(self._rr) < self.min_intervals:
            return
        t = np.fromiter(self._t, dtype=np.float64, count=len(self._t))
        rr = np.fromiter(self._rr, dtype=np.float64, count=len(self._rr))
        duration = float(t[-1] - t[0])
        n = int(duration * self.resample_hz) + 1
        if n < 8:
            return
        grid = t[0] + np.arange(n, dtype=np.float64) / self.resample_hz
        series = np.interp(grid, t, rr)
        series = series - series.mean()
        spectrum = np.abs(np.fft.rfft(series)) ** 2 / (n * self.resample_hz)
        freqs = np.fft.rfftfreq(n, d=1.0 / self.resample_hz)
        df = self.resample_hz / n
        powers = {}
        for band, lo, hi in _BANDS:
            mask = (freqs >= lo) & (freqs < hi)
            powers[f"{band}_ms2"] = float(spectrum[mask].sum() * df * 1e6)
        lf, hf = powers["lf_ms2"], powers["hf_ms2"]
        self._metrics = {
            **powers,
            "total_ms2": float(spectrum[1:].sum() * df * 1e6),
            "lf_hf": (lf / hf) if hf > 0.0 else None,
            "n_intervals": len(self._rr),
        }
        self.n_computes += 1

    def summary(self) -> dict:
        return {
            "n_intervals": self.n_intervals,
            "n_computes": self.n_computes,
            "every": self.every,
            "metrics": self._metrics,
        }


class _RateMachine:
    """Run-length + hysteresis state machine for one episode kind.

    Onset: ``on_beats`` consecutive beats past ``on_bpm`` open an
    episode backdated to the run's first beat.  Offset: ``off_beats``
    consecutive beats past the *release* threshold (``on_bpm`` minus —
    or plus, for bradycardia — ``hysteresis_bpm``) close it; beats
    inside the hysteresis band keep it open.  Deterministic per-beat
    fold; no wall-clock anywhere.
    """

    __slots__ = (
        "kind", "on_bpm", "off_bpm", "on_beats", "off_beats", "high",
        "active", "run_start", "run_count", "run_sum",
        "start_peak", "last_peak", "n_beats", "hr_sum", "off_count",
    )

    def __init__(self, kind, on_bpm, off_bpm, on_beats, off_beats, high):
        self.kind = kind
        self.on_bpm = float(on_bpm)
        self.off_bpm = float(off_bpm)
        self.on_beats = int(on_beats)
        self.off_beats = int(off_beats)
        self.high = bool(high)
        self.active = False
        self.run_start = 0
        self.run_count = 0
        self.run_sum = 0.0
        self.start_peak = 0
        self.last_peak = 0
        self.n_beats = 0
        self.hr_sum = 0.0
        self.off_count = 0

    def _triggers(self, hr: float) -> bool:
        return hr >= self.on_bpm if self.high else hr <= self.on_bpm

    def _releases(self, hr: float) -> bool:
        return hr < self.off_bpm if self.high else hr > self.off_bpm

    def push(self, peak: int, hr: float, out: list) -> None:
        if not self.active:
            if self._triggers(hr):
                if self.run_count == 0:
                    self.run_start = peak
                    self.run_sum = 0.0
                self.run_count += 1
                self.run_sum += hr
                if self.run_count >= self.on_beats:
                    self.active = True
                    self.start_peak = self.run_start
                    self.last_peak = peak
                    self.n_beats = self.run_count
                    self.hr_sum = self.run_sum
                    self.off_count = 0
                    self.run_count = 0
                    self.run_sum = 0.0
            else:
                self.run_count = 0
                self.run_sum = 0.0
        else:
            if self._releases(hr):
                self.off_count += 1
                if self.off_count >= self.off_beats:
                    self.close(out)
            else:
                self.off_count = 0
                self.n_beats += 1
                self.hr_sum += hr
                self.last_peak = peak

    def close(self, out: list) -> None:
        """Emit the open episode (if any) and reset to idle."""
        if not self.active:
            return
        out.append(
            Episode(
                kind=self.kind,
                start_peak=self.start_peak,
                end_peak=self.last_peak,
                n_beats=self.n_beats,
                mean_hr_bpm=self.hr_sum / self.n_beats,
            )
        )
        self.active = False
        self.off_count = 0


class RateEpisodes(StreamOperator):
    """Tachycardia / bradycardia episode detection with hysteresis.

    Instantaneous rate is ``60 / RR``; two independent
    :class:`_RateMachine` instances track sustained runs past
    ``tachy_bpm`` (high) and ``brady_bpm`` (low).  ``on_beats`` /
    ``off_beats`` set the run lengths; ``hysteresis_bpm`` widens the
    release threshold so a rate dithering at the boundary cannot
    flap episodes open and closed.
    """

    name = "rate"

    def __init__(
        self,
        *,
        tachy_bpm: float = 100.0,
        brady_bpm: float = 50.0,
        on_beats: int = 3,
        off_beats: int = 3,
        hysteresis_bpm: float = 5.0,
    ):
        validate_at_least("on_beats", on_beats)
        validate_at_least("off_beats", off_beats)
        if hysteresis_bpm < 0:
            raise ValueError(f"hysteresis_bpm must be >= 0, got {hysteresis_bpm}")
        if brady_bpm >= tachy_bpm:
            raise ValueError(
                f"need brady_bpm < tachy_bpm, got {brady_bpm} >= {tachy_bpm}"
            )
        self._machines = (
            _RateMachine(
                "tachy", tachy_bpm, tachy_bpm - hysteresis_bpm,
                on_beats, off_beats, high=True,
            ),
            _RateMachine(
                "brady", brady_bpm, brady_bpm + hysteresis_bpm,
                on_beats, off_beats, high=False,
            ),
        )
        self.n_episodes = {"tachy": 0, "brady": 0}

    def consume(self, peak: int, rr: float | None, flagged: bool, out: list) -> None:
        if rr is None or rr <= 0.0:
            return
        hr = 60.0 / rr
        before = len(out)
        for machine in self._machines:
            machine.push(peak, hr, out)
        for episode in out[before:]:
            self.n_episodes[episode.kind] += 1

    def finish(self, out: list) -> None:
        before = len(out)
        for machine in self._machines:
            machine.close(out)
        for episode in out[before:]:
            self.n_episodes[episode.kind] += 1

    def summary(self) -> dict:
        return {
            "tachy_episodes": self.n_episodes["tachy"],
            "brady_episodes": self.n_episodes["brady"],
            "tachy_active": self._machines[0].active,
            "brady_active": self._machines[1].active,
        }


class ArrhythmiaEpisodes(StreamOperator):
    """Roll runs of classifier-flagged beats into typed episodes.

    A run of at least ``min_beats`` consecutive beats with
    ``event.flagged`` set becomes one ``"arrhythmia"``
    :class:`Episode`; a single clean beat ends the run.  This is the
    event-bus consumer of the paper's whole point — the gated node
    flags abnormal beats so somebody downstream can aggregate them.
    """

    name = "arrhythmia"

    def __init__(self, *, min_beats: int = 2):
        validate_at_least("min_beats", min_beats)
        self.min_beats = int(min_beats)
        self.n_flagged = 0
        self.n_episodes = 0
        self._count = 0
        self._start = 0
        self._last = 0
        self._hr_sum = 0.0
        self._hr_n = 0

    def consume(self, peak: int, rr: float | None, flagged: bool, out: list) -> None:
        if flagged:
            self.n_flagged += 1
            if self._count == 0:
                self._start = peak
                self._hr_sum = 0.0
                self._hr_n = 0
            self._count += 1
            self._last = peak
            if rr is not None and rr > 0.0:
                self._hr_sum += 60.0 / rr
                self._hr_n += 1
        else:
            self._flush_run(out)

    def _flush_run(self, out: list) -> None:
        if self._count >= self.min_beats:
            out.append(
                Episode(
                    kind="arrhythmia",
                    start_peak=self._start,
                    end_peak=self._last,
                    n_beats=self._count,
                    mean_hr_bpm=(
                        self._hr_sum / self._hr_n if self._hr_n else None
                    ),
                )
            )
            self.n_episodes += 1
        self._count = 0

    def finish(self, out: list) -> None:
        self._flush_run(out)

    def summary(self) -> dict:
        return {
            "n_flagged": self.n_flagged,
            "n_episodes": self.n_episodes,
            "min_beats": self.min_beats,
        }


class AnalyticsPipeline:
    """Composable operator pipeline for one session's event stream.

    The gateway calls :meth:`update` with the session's newly finalized
    events **once per batched flush**: the events are converted to
    arrays once, the RR series is derived incrementally across calls
    (``rr[i] = (peak[i] - peak[i-1]) / fs``, ``None`` for the stream's
    first beat), and each operator folds forward beat by beat.  Because
    every operator is a deterministic per-beat fold, the pipeline state
    after ``k`` beats is identical for *any* partition of those beats
    into update calls — the chunk-invariance the chaos suites pin.

    :meth:`update` returns the episodes closed by the call (the
    gateway's alert surface); :meth:`finalize` closes open episodes at
    end of stream; :meth:`summary` is the JSON-able rollup of every
    operator.  Pipelines pickle and deep-copy, so they ride
    :class:`~repro.serving.gateway.SessionExport` through migration
    and crash recovery with bit-exact state.
    """

    def __init__(self, operators, fs: float):
        self.fs = float(fs)
        self.operators = list(operators)
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operator names: {names}")
        for op in self.operators:
            if isinstance(op, HRVSpectral):
                op._fs = self.fs
        self.n_beats = 0
        self.n_updates = 0
        self.n_episodes = 0
        self.episodes_by_kind: dict[str, int] = {}
        self._last_peak: int | None = None
        self._finalized = False

    def update(self, events) -> list[Episode]:
        """Fold one batch of finalized events; return closed episodes."""
        if not events:
            return []
        self.n_updates += 1
        peaks = [event.peak for event in events]
        flagged = [event.flagged for event in events]
        # One vectorized RR pass per update: exact integer differences
        # divided by fs, identical per beat for every batching.
        arr = np.asarray(peaks, dtype=np.int64)
        prev = np.empty_like(arr)
        prev[1:] = arr[:-1]
        prev[0] = self._last_peak if self._last_peak is not None else arr[0]
        rr = ((arr - prev) / self.fs).tolist()
        if self._last_peak is None:
            rr[0] = None
        self._last_peak = peaks[-1]
        self.n_beats += len(peaks)
        closed: list[Episode] = []
        rows = list(zip(peaks, rr, flagged))
        for op in self.operators:
            consume = op.consume
            for peak, interval, flag in rows:
                consume(peak, interval, flag, closed)
        return self._count(closed)

    def finalize(self) -> list[Episode]:
        """Close open episodes at end of stream (idempotent)."""
        if self._finalized:
            return []
        self._finalized = True
        closed: list[Episode] = []
        for op in self.operators:
            op.finish(closed)
        return self._count(closed)

    def _count(self, closed: list[Episode]) -> list[Episode]:
        for episode in closed:
            self.n_episodes += 1
            self.episodes_by_kind[episode.kind] = (
                self.episodes_by_kind.get(episode.kind, 0) + 1
            )
        return closed

    def summary(self) -> dict:
        """JSON-able final rollup: pipeline counters + per-operator blocks.

        Deliberately excludes ``n_updates`` (a batching diagnostic that
        varies with flush cadence): the summary is the bit-exact
        artifact the chunk-invariance and migration chaos suites
        compare.
        """
        return {
            "n_beats": self.n_beats,
            "n_episodes": self.n_episodes,
            "by_kind": dict(self.episodes_by_kind),
            "operators": {op.name: op.summary() for op in self.operators},
        }

    def rollup(self) -> dict:
        """This session's block of the ``stats()["analytics"]`` rollup
        (see :func:`merge_rollups`).  Alerts are counted where they are
        raised, by the gateway, so the block carries none."""
        return {
            "sessions": 1,
            "beats": self.n_beats,
            "episodes": self.n_episodes,
            "alerts": 0,
            "by_kind": dict(self.episodes_by_kind),
        }


def default_pipeline() -> list[StreamOperator]:
    """The standard operator set (the CLI's ``--analytics`` pipeline)."""
    return [RRStats(), HRVSpectral(), RateEpisodes(), ArrhythmiaEpisodes()]


def empty_rollup() -> dict:
    """Zero value of the ``stats()["analytics"]`` rollup schema."""
    return {"sessions": 0, "beats": 0, "episodes": 0, "alerts": 0, "by_kind": {}}


def merge_rollups(rollups) -> dict:
    """Sum analytics rollups across workers / hosts (schema-preserving).

    Missing entries (``None`` — e.g. a host predating the analytics
    schema) merge as zero, so mixed fleets still roll up.
    """
    total = empty_rollup()
    for rollup in rollups:
        if not rollup:
            continue
        for key in ("sessions", "beats", "episodes", "alerts"):
            total[key] += int(rollup.get(key, 0))
        for kind, count in (rollup.get("by_kind") or {}).items():
            total["by_kind"][kind] = total["by_kind"].get(kind, 0) + int(count)
    return total
