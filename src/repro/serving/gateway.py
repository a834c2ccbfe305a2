"""Session gateway: many live streaming sessions, one batched classifier.

A real fleet is a set of concurrently **live** sessions, each feeding
small chunks at its own pace.  This module is that ingestion layer,
and :func:`~repro.serving.engine.classify_streams` replays *complete*
streams through it too:

* :class:`StreamGateway` — ``open_session(id)`` / ``ingest(id, chunk)``
  / ``close_session(id)``.  Each session is a
  :class:`~repro.dsp.streaming.StreamingNode` in deferred-classify
  mode.  Its per-sample front end (filtering, wavelet) runs when some
  session can change an output, as one 2-D pass per stage (see the
  :class:`StreamGateway` notes), and instead of one
  ``predict`` call per beat the pending beats of *all* sessions queue
  in a cross-session :class:`BeatBatch`.  The gateway flushes the
  batch through **one** classifier pass per tick — when it reaches
  ``max_batch`` beats or the oldest pending beat has waited
  ``max_latency_ticks`` ingest calls — then routes the labeled
  :class:`~repro.dsp.streaming.StreamBeatEvent` objects back to their
  sessions.  That amortization (one projection + fuzzification pass
  for dozens of beats instead of one per beat) is where the batched
  classifier earns its keep under live load.
* :class:`BeatBatch` — the cross-session accumulator, exposed for
  callers that want to drive their own flush policy.

Every session's event sequence is **bit-exact** with running its
chunks through a standalone inline-mode ``StreamingNode`` — invariant
to chunk sizes, session interleaving order and batch-flush boundaries
(exact by construction for the integer classifier, whose rows are
independent; a float pipeline's matrix product may round differently
with the batch size, depending on the BLAS).

Sessions migrate: :meth:`StreamGateway.release_session` captures a
live session as a picklable :class:`SessionExport`
(:class:`~repro.dsp.streaming.NodeSnapshot` + undrained events + QoS
settings) and removes it, and :meth:`StreamGateway.import_session`
resumes it on another gateway — another shard, another host —
mid-stream, bit-exactly.

Per-session QoS overrides the global flush policy:

* ``open_session(..., max_latency_ticks=n)`` gives one session a
  *tighter* latency budget — the cross-session batch is flushed as
  soon as any session's oldest pending beat exceeds its own budget,
  so a latency-critical session never waits for the fleet-wide bound.
* ``open_session(..., evict_after_ticks=n)`` (or the gateway-wide
  default) evicts a session that has not ingested for ``n`` gateway
  ticks: its stream is closed exactly like :meth:`close_session`
  (front-end flush, final batched classification, delineator
  finalization) and the complete remaining event sequence waits in
  :meth:`take_evicted` — well-formed, never silently dropped.

Sessions can attach a :mod:`repro.serving.analytics` pipeline
(``open_session(..., analytics=[...])``, or the gateway-wide
``analytics=`` default): finalized events additionally fold through
the session's streaming operators in **one batched update pass per
gateway flush**, closed episodes surface through
:meth:`StreamGateway.take_alerts`, closed/evicted sessions leave a
final summary in :meth:`StreamGateway.take_summaries`, and pipeline
state rides :class:`SessionExport` so analytics migrate bit-exactly
mid-episode.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.streaming import NodeSnapshot, StreamBeatEvent, StreamingNode
from repro.serving.analytics import AnalyticsPipeline, empty_rollup, merge_rollups
from repro.serving.executors import validate_at_least

__all__ = [
    "BeatBatch",
    "SessionExport",
    "StreamGateway",
    "serve_round_robin",
]

#: Initial row capacity of a :class:`BeatBatch` buffer.
_BATCH_INITIAL_CAPACITY = 64


class BeatBatch:
    """Cross-session accumulator of beats awaiting classification.

    Structure-of-arrays layout: beat rows land in one preallocated
    ``(capacity, d)`` matrix (doubled when full, never per-beat), with
    parallel object arrays for the session ids and delivery handles.
    :meth:`drain` hands the row block straight to ``predict`` — no
    per-flush ``vstack``, no per-beat tuple allocation.

    Entries preserve global insertion order (and therefore per-session
    extraction order, which :meth:`StreamingNode.deliver` requires).

    The latency bookkeeping the gateway polls on **every** ingest is
    maintained incrementally on :meth:`add`/:meth:`drain`:
    ``oldest_tick``, ``session_oldest`` and ``min_deadline`` are all
    O(1) reads — there is no O(batch) or O(sessions) rescan anywhere
    on the hot path.
    """

    def __init__(self) -> None:
        self._rows: np.ndarray | None = None
        self._session_ids = np.empty(_BATCH_INITIAL_CAPACITY, dtype=object)
        self._handles = np.empty(_BATCH_INITIAL_CAPACITY, dtype=object)
        self._count = 0
        self._oldest_tick: int | None = None
        self._session_oldest: dict[str, int] = {}
        self._min_deadline: int | None = None

    def __len__(self) -> int:
        return self._count

    @property
    def oldest_tick(self) -> int | None:
        """Tick stamp of the longest-waiting beat (``None`` when empty)."""
        return self._oldest_tick

    @property
    def session_oldest(self) -> dict[str, int]:
        """Tick stamp of each session's longest-waiting beat."""
        return self._session_oldest

    @property
    def min_deadline(self) -> int | None:
        """Earliest flush deadline over queued sessions (``None`` when
        empty).  ``add`` folds each session's budget in on its *first*
        queued beat, so the gateway's per-ingest latency check is one
        integer compare instead of a walk over ``session_oldest``."""
        return self._min_deadline

    def _grow(self, d: int) -> None:
        if self._rows is None:
            capacity = max(_BATCH_INITIAL_CAPACITY, self._session_ids.shape[0])
            self._rows = np.empty((capacity, d), dtype=np.float64)
        if self._count == self._rows.shape[0]:
            capacity = 2 * self._rows.shape[0]
            rows = np.empty((capacity, self._rows.shape[1]), dtype=self._rows.dtype)
            rows[: self._count] = self._rows
            self._rows = rows
            for name in ("_session_ids", "_handles"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=object)
                grown[: self._count] = old
                setattr(self, name, grown)

    def add(
        self,
        session_id: str,
        handle: object,
        row: np.ndarray,
        tick: int,
        budget: int | None = None,
    ) -> None:
        """Queue one beat of ``session_id`` for the next flush.

        ``budget`` is the session's effective latency budget in ticks;
        when given, the first queued beat of the session arms a flush
        deadline at ``tick + budget`` (see :attr:`min_deadline`).
        """
        row = np.asarray(row, dtype=np.float64)
        if self._rows is None or self._count == self._rows.shape[0]:
            self._grow(row.shape[-1])
        self._rows[self._count] = row
        self._session_ids[self._count] = session_id
        self._handles[self._count] = handle
        self._count += 1
        if self._oldest_tick is None:
            self._oldest_tick = tick
        if session_id not in self._session_oldest:
            self._session_oldest[session_id] = tick
            if budget is not None:
                deadline = tick + budget
                if self._min_deadline is None or deadline < self._min_deadline:
                    self._min_deadline = deadline

    def drain(self) -> tuple[list[str], list[object], np.ndarray | None]:
        """Take everything queued as ``(session_ids, handles, rows)``.

        ``rows`` is a zero-copy ``(n, d)`` view into the reused buffer
        — valid until the next :meth:`add` — or ``None`` when the
        batch is empty.  The batch is empty afterwards.
        """
        n = self._count
        if n == 0:
            return [], [], None
        session_ids = self._session_ids[:n].tolist()
        handles = self._handles[:n].tolist()
        rows = self._rows[:n]
        self._count = 0
        self._oldest_tick = None
        self._session_oldest = {}
        self._min_deadline = None
        return session_ids, handles, rows


@dataclass(frozen=True)
class SessionExport:
    """Picklable capture of one live gateway session (for migration).

    Carries the session's QoS settings too, so a migrated session keeps
    its latency budget and eviction threshold on the receiving gateway —
    and its live :class:`~repro.serving.analytics.AnalyticsPipeline`
    (``analytics``), so streaming operators resume mid-episode with
    bit-exact state.
    """

    session_id: str
    snapshot: NodeSnapshot
    events: list[StreamBeatEvent] = field(default_factory=list)
    max_latency_ticks: int | None = None
    evict_after_ticks: int | None = None
    analytics: AnalyticsPipeline | None = None


class _Session:
    """Gateway-side bookkeeping for one open session."""

    __slots__ = (
        "node", "events", "latency_budget", "evict_after", "last_active",
        "analytics", "analytics_pending",
    )

    def __init__(
        self,
        node: StreamingNode,
        events: list[StreamBeatEvent] | None = None,
        latency_budget: int | None = None,
        evict_after: int | None = None,
        last_active: int = 0,
        analytics: AnalyticsPipeline | None = None,
    ):
        self.node = node
        self.events: list[StreamBeatEvent] = list(events or [])
        self.latency_budget = latency_budget
        self.evict_after = evict_after
        self.last_active = last_active
        self.analytics = analytics
        # Finalized events the pipeline has not folded yet; drained in
        # one batched update pass per gateway flush.
        self.analytics_pending: list[StreamBeatEvent] = []

    def drain(self) -> list[StreamBeatEvent]:
        events = self.events
        self.events = []
        return events


class StreamGateway:
    """Multiplex live streaming sessions into batched classifier passes.

    Parameters
    ----------
    classifier:
        Anything with ``predict(beats)``; shared by every session.
        Use the integer
        :class:`~repro.fixedpoint.convert.EmbeddedClassifier` for
        bit-exactness guarantees independent of batch boundaries.
    fs:
        Sampling frequency of every session (Hz).
    max_batch:
        Flush the cross-session batch as soon as it holds this many
        beats (>= 1).  Larger batches amortize the classifier better;
        smaller ones bound per-beat latency tighter.
    max_latency_ticks:
        Flush whenever the oldest pending beat has waited this many
        ticks (one tick = one ``ingest`` call, any session; >= 1), so
        a beat's verdict never stalls behind a quiet fleet.  A session
        opened with its own (tighter) budget flushes by that budget
        instead.
    evict_after_ticks:
        Default idle-eviction threshold for every session (>= 1, or
        ``None`` = never evict): a session that has not ingested for
        this many gateway ticks is closed on its behalf and its final
        event sequence kept for :meth:`take_evicted`.
        Per-session values passed to :meth:`open_session` override it.
    analytics:
        Default analytics for every session: a list of
        :mod:`repro.serving.analytics` operator prototypes (deep-copied
        per session) or a zero-argument factory returning one (e.g.
        :func:`repro.serving.analytics.default_pipeline`).  ``None``
        (default) attaches nothing; per-session ``analytics=`` passed
        to :meth:`open_session` overrides it (``[]`` opts a session
        out).
    n_leads / lead / decimation / window / detector_config /
    delineation_config / overhead_bytes:
        Per-session :class:`~repro.dsp.streaming.StreamingNode`
        configuration, identical for every session.
    journal:
        Optional :class:`repro.serving.durability.SessionJournal`.
        When set, every ingested chunk is write-ahead journaled, the
        journal snapshot refreshes on its cadence (a synchronized
        :class:`SessionExport` capture), delivered events are counted
        against it, and closed/evicted/released sessions drop their
        entries — so :func:`repro.serving.durability.recover_sessions`
        can rebuild every open session bit-exactly after a crash.

    Notes
    -----
    ``ingest`` returns the newly finalized events *of that session*
    (a flush triggered by one session may resolve beats of others —
    those are queued and returned by their own next ``ingest`` /
    ``poll``).  ``close_session`` force-flushes so its return value
    completes the session's event sequence.

    The front end runs only when it can change an output.  ``ingest``
    journals a chunk first (write-ahead), then stashes it in the
    session's node, which knows in O(1) whether the stash reached its
    due point (see :class:`StreamingNode`).  A round ends when every
    steady session has stashed a chunk, when one of them ingests
    again, or at :meth:`flush_batch`; if some session is due then,
    every stash drains, grouped by length, as one 2-D pass per stage
    and sub-block (:meth:`StreamingNode.drain_rows`).  Warm-up chunks
    and chunks of one second (``fs`` samples) or more are pushed at
    once.  A close or an eviction drains only its own session; exports
    and the journal snapshot carry the stash in the node snapshot.
    Events are unchanged, but a verdict can reach its caller up to one
    round later than pushing every chunk at once would return it.
    """

    def __init__(
        self,
        classifier,
        fs: float,
        *,
        max_batch: int = 64,
        max_latency_ticks: int = 8,
        evict_after_ticks: int | None = None,
        analytics=None,
        n_leads: int = 1,
        lead: int = 0,
        decimation: int = 4,
        window=None,
        detector_config=None,
        delineation_config=None,
        overhead_bytes: int = 2,
        journal=None,
    ):
        validate_at_least("max_batch", max_batch)
        validate_at_least("max_latency_ticks", max_latency_ticks)
        if evict_after_ticks is not None:
            validate_at_least("evict_after_ticks", evict_after_ticks)
        self.classifier = classifier
        self.fs = fs
        self.max_batch = int(max_batch)
        self.max_latency_ticks = int(max_latency_ticks)
        self.evict_after_ticks = evict_after_ticks
        self.analytics = analytics
        self.journal = journal
        self.n_leads = n_leads
        self._node_kwargs = dict(
            n_leads=n_leads,
            lead=lead,
            decimation=decimation,
            window=window,
            detector_config=detector_config,
            delineation_config=delineation_config,
            overhead_bytes=overhead_bytes,
        )
        self._sessions: dict[str, _Session] = {}
        # Sessions with an eviction threshold, so the per-ingest idle
        # scan touches only them (zero cost for a fleet without QoS).
        self._evictable: dict[str, _Session] = {}
        # Round batching (see _end_round): who stashed how many samples
        # this round and whether a stash is due.  Warming sessions push
        # at once and never hold a round open.
        self._round: dict[str, int] = {}
        self._due = False
        self._warming: set[str] = set()
        self._batch = BeatBatch()
        # One tick per ingest call, any session.
        self._tick = 0
        self._evicted: dict[str, list[StreamBeatEvent]] = {}
        # Sessions whose analytics pipeline has unfolded events; drained
        # in one batched pass per flush (see _drain_analytics).
        self._analytics_dirty: dict[str, _Session] = {}
        self._alerts: list[tuple[str, object]] = []
        self._summaries: dict[str, dict] = {}
        # Rollup accumulator for closed/evicted analytics sessions
        # (live sessions are summed on demand in analytics_rollup).
        self._an_closed = empty_rollup()
        self.n_flushes = 0
        self.n_classified = 0
        self.n_evicted = 0
        self.n_alerts = 0

    @property
    def n_sessions(self) -> int:
        """Currently open sessions."""
        return len(self._sessions)

    @property
    def n_queued(self) -> int:
        """Beats waiting in the cross-session batch."""
        return len(self._batch)

    def session_ids(self) -> list[str]:
        """Open session ids, in opening order."""
        return list(self._sessions)

    def open_session(
        self,
        session_id: str,
        *,
        max_latency_ticks: int | None = None,
        evict_after_ticks: int | None = None,
        analytics=None,
    ) -> None:
        """Start a new live session, optionally with its own QoS.

        Parameters
        ----------
        max_latency_ticks:
            Per-session latency budget (>= 1).  The batch is flushed
            as soon as this session's oldest pending beat has waited
            ``min(budget, gateway.max_latency_ticks)`` ticks — a
            latency-critical session flushes earlier than the global
            policy, without tightening anyone else's bound.
        evict_after_ticks:
            Per-session idle-eviction threshold (>= 1); overrides the
            gateway-wide ``evict_after_ticks`` default.
        analytics:
            Per-session analytics: a list of operator prototypes
            (deep-copied, so the caller's instances stay pristine) or
            a zero-argument factory.  ``None`` inherits the
            gateway-wide default; ``[]`` opts this session out.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        if max_latency_ticks is not None:
            validate_at_least("max_latency_ticks", max_latency_ticks)
        if evict_after_ticks is not None:
            validate_at_least("evict_after_ticks", evict_after_ticks)
        node = StreamingNode(
            self.classifier, self.fs, defer_classification=True, **self._node_kwargs
        )
        self._add_session(
            session_id,
            _Session(
                node,
                latency_budget=max_latency_ticks,
                evict_after=(
                    evict_after_ticks if evict_after_ticks is not None
                    else self.evict_after_ticks
                ),
                last_active=self._tick,
                analytics=self._build_pipeline(analytics),
            ),
        )
        if self.journal is not None:
            self.journal.open(
                session_id,
                {
                    "max_latency_ticks": max_latency_ticks,
                    "evict_after_ticks": evict_after_ticks,
                    "analytics": analytics,
                },
            )

    def _build_pipeline(self, spec) -> AnalyticsPipeline | None:
        """Resolve an ``analytics=`` spec into a fresh per-session
        pipeline (``None`` = inherit the gateway default, ``[]`` =
        none, factory = call it, list = deep-copy the prototypes)."""
        if spec is None:
            spec = self.analytics
        if spec is None:
            return None
        if callable(spec):
            spec = spec()
        operators = copy.deepcopy(list(spec))
        if not operators:
            return None
        return AnalyticsPipeline(operators, self.fs)

    def ingest(self, session_id: str, chunk: np.ndarray) -> list[StreamBeatEvent]:
        """Feed one chunk of raw samples; return the session's new events.

        The chunk is validated (a rejected chunk raises
        :class:`ValueError` and changes nothing), journaled
        (write-ahead), then stashed in the session's node (see the
        class notes) or, during a session's warm-up and for chunks of
        a second or more, pushed at once.  Advances the
        gateway clock by one tick, flushes the cross-session batch if
        it is full or any session's oldest beat has hit its latency
        budget, and evicts sessions idle past their threshold.  The
        returned events are exactly the ones a standalone
        ``StreamingNode`` would have emitted by this point (possibly
        later in stream time, never different in content or order).
        This is the one-item :meth:`ingest_round`.
        """
        result = self.ingest_round(((session_id, chunk),))[0]
        if isinstance(result, Exception):
            raise result
        return result

    def ingest_round(self, items) -> list:
        """Feed a round of ``(session_id, chunk)`` items, in order.

        Returns one entry per item: the events that item returned, or
        the exception it raised.  An item that raises changes nothing,
        and the items after it still apply.  A session may appear more
        than once.  Each item is one tick, exactly as if :meth:`ingest`
        were called for it, so latency budgets and idle eviction see
        the same clock.
        """
        results = []
        for session_id, chunk in items:
            try:
                results.append(self._ingest_one(session_id, chunk))
            except Exception as exc:
                results.append(exc)
        return results

    def _ingest_one(self, session_id: str, chunk) -> list[StreamBeatEvent]:
        """Apply one round item (see :meth:`ingest`)."""
        session = self._get(session_id)
        node = session.node
        # Validate first: a journaled rejected chunk would be replayed,
        # and fail again, on recovery.
        block = node.check_block(chunk)
        if self.journal is not None:
            # Write-ahead: the chunk is durable before it is applied,
            # so the acknowledged prefix survives a process crash.
            self.journal.log_chunk(session_id, chunk)
        if session_id in self._round:
            self._end_round()
        if session_id not in self._warming and node.fits_rows(block):
            self._due = node.stash(block) or self._due
            self._round[session_id] = block.shape[0]
            if len(self._round) + len(self._warming) >= len(self._sessions):
                self._end_round()
        else:
            self._feed(session_id, session, node.push_checked(block))
            self._collect(session_id, session)
            if session_id in self._warming and node.front_steady:
                self._warming.discard(session_id)
        self._tick += 1
        session.last_active = self._tick
        if len(self._batch) >= self.max_batch or self._latency_budget_hit():
            self._classify_batch()
        self._evict_idle()
        if self.journal is not None and self.journal.wants_snapshot(session_id):
            # Refresh the snapshot, truncating the chunk log (the cadence
            # bound on replay length), with no drain and no classifier
            # pass.  Undrained events stay queued here *and* in the
            # snapshot, whose delivered count restarts at zero.
            capture = self._capture(session_id, drain=False, detached=False)
            self.journal.snapshot(session_id, capture)
        return self._deliver(session_id, session.drain())

    def _end_round(self) -> None:
        """Close the round; if some session is due, drain every stash
        (grouped by length, :meth:`StreamingNode.drain_rows`), then
        collect each session in turn, checking the batch size bound
        after each as after each ingest.  Bit-exact with pushing every
        chunk on its own."""
        arrived, self._round = self._round, {}
        if not self._due:
            return
        self._due = False
        stashed = {sid: s for sid, s in self._sessions.items() if s.node.n_stashed}
        if not any(session.node.due for session in stashed.values()):
            return  # the due session has closed or left since
        groups: dict[int, list[str]] = {}
        for session_id, session in stashed.items():
            groups.setdefault(session.node.n_stashed, []).append(session_id)
        # Every group drains before any flush: a delivery can drain a
        # node on its own, which would change a later group's length.
        drained = {}
        for group in groups.values():
            results = StreamingNode.drain_rows([stashed[sid].node for sid in group])
            drained.update(zip(group, results))
        # Collect in the order one pass per chunk length over this
        # round's chunks would (lengths by first arrival, then arrival;
        # only those sessions can be due), then the rest.
        rank: dict[int, int] = {}
        order = sorted(arrived, key=lambda sid: rank.setdefault(arrived[sid], len(rank)))
        for session_id in order + [sid for sid in drained if sid not in arrived]:
            session = stashed[session_id]
            self._feed(session_id, session, drained[session_id])
            self._collect(session_id, session)
            if len(self._batch) >= self.max_batch:
                self._classify_batch()

    def _latency_budget_hit(self) -> bool:
        """Has any session's oldest pending beat outlived its budget?

        O(1): every queued session armed its effective deadline (the
        tighter of the global ``max_latency_ticks`` and its own budget)
        when its first beat entered the batch, and the batch keeps the
        minimum incrementally — this is one integer compare per ingest
        regardless of fleet size or batch depth.  Budgets cannot change
        for queued beats (a session keeps its budget on this gateway),
        so the armed deadlines never go stale.
        """
        deadline = self._batch.min_deadline
        return deadline is not None and self._tick >= deadline

    def _evict_idle(self) -> None:
        """Evict every session idle past its threshold (slow-session QoS).

        Eviction is a forced :meth:`close_session` on the gateway's
        initiative: the final event sequence is complete and
        well-formed, and kept for :meth:`take_evicted` — never
        silently dropped.
        """
        if not self._evictable:
            return
        tick = self._tick
        stale = [
            session_id
            for session_id, session in self._evictable.items()
            if tick - session.last_active >= session.evict_after
        ]
        for session_id in stale:
            self._evicted[session_id] = self.close_session(session_id)
            self.n_evicted += 1

    def take_evicted(self) -> dict[str, list[StreamBeatEvent]]:
        """Final event sequences of evicted sessions; clears the store."""
        evicted = self._evicted
        self._evicted = {}
        return evicted

    def poll(self, session_id: str) -> list[StreamBeatEvent]:
        """Drain the session's queued events without ingesting samples."""
        return self._deliver(session_id, self._get(session_id).drain())

    def close_session(self, session_id: str) -> list[StreamBeatEvent]:
        """End a session; return the remainder of its event sequence.

        Drains only this session's stash and flushes its front end,
        force-classifies everything queued fleet-wide (one last batched
        pass), finalizes the session's delineator with the stream-end
        clamping of the batch path, and removes the session.
        """
        session = self._get(session_id)
        self._feed(session_id, session, session.node.finish_input())
        self._collect(session_id, session)
        self._classify_batch()
        self._feed(session_id, session, session.node.finalize())
        if session.analytics is not None:
            self._finalize_analytics(session_id, session)
        self._remove_session(session_id)
        if self.journal is not None:  # an ended session needs no recovery
            self.journal.forget(session_id)
        return session.drain()

    def flush_batch(self) -> int:
        """Classify every queued beat now (one batched pass); return
        how many beats were resolved.

        Ends the round first (see the class notes), so the pass covers
        all input ingested so far; call directly to bound latency
        externally (e.g. from a timer) or before a quiet period.
        """
        self._end_round()
        return self._classify_batch()

    def _classify_batch(self) -> int:
        """One batched classifier pass over the queued beats (the
        size/latency policy's flush; stashed input stays stashed)."""
        session_ids, handles, rows = self._batch.drain()
        if rows is None:
            self._drain_analytics()
            return 0
        labels = np.asarray(self.classifier.predict(rows))
        # Group per session, preserving extraction order within each.
        per_session: dict[str, list[tuple[object, int]]] = {}
        for session_id, handle, label in zip(session_ids, handles, labels):
            per_session.setdefault(session_id, []).append((handle, label))
        # One delivery over every session in the flush, so their
        # flagged beats share one delineation pass.  A delivery never
        # drains the open round's chunk: that runs when the round ends.
        targets = []
        for session_id, resolved in per_session.items():
            session = self._sessions.get(session_id)
            if session is None:  # closed mid-flight; nothing to route to
                continue
            targets.append((session_id, session, resolved))
        results = StreamingNode.deliver_rows(
            [session.node for _, session, _ in targets],
            [resolved for _, _, resolved in targets],
            [self._round.get(session_id, 0) for session_id, _, _ in targets],
        )
        for (session_id, session, _), events in zip(targets, results):
            self._feed(session_id, session, events)
            if session.node.n_stashed and session.node.due:
                self._due = True  # the held chunk now reaches the due point
        self.n_flushes += 1
        self.n_classified += len(handles)
        self._drain_analytics()
        return len(handles)

    def _feed(self, session_id: str, session: _Session, events: list) -> None:
        """Append newly finalized events to the session, queueing them
        for its analytics pipeline (folded at the next batched drain,
        not per event)."""
        if not events:
            return
        session.events.extend(events)
        if session.analytics is not None:
            session.analytics_pending.extend(events)
            self._analytics_dirty[session_id] = session

    def _drain_analytics(self) -> None:
        """Fold every dirty session's pending events through its
        pipeline — **one batched update pass per gateway flush**, the
        analytics analogue of the batched classifier."""
        if not self._analytics_dirty:
            return
        dirty = self._analytics_dirty
        self._analytics_dirty = {}
        for session_id, session in dirty.items():
            pending = session.analytics_pending
            session.analytics_pending = []
            closed = session.analytics.update(pending)
            if closed:
                self._alert(session_id, closed)

    def _alert(self, session_id: str, episodes: list) -> None:
        """Queue closed episodes for :meth:`take_alerts`."""
        for episode in episodes:
            self._alerts.append((session_id, episode))
        self.n_alerts += len(episodes)

    def _finalize_analytics(self, session_id: str, session: _Session) -> None:
        """Close a session's pipeline at end of stream: fold any
        remainder, close open episodes, record the final summary and
        fold the session into the closed-rollup accumulator."""
        pipeline = session.analytics
        pending = session.analytics_pending
        session.analytics_pending = []
        self._analytics_dirty.pop(session_id, None)
        closed = pipeline.update(pending)
        closed += pipeline.finalize()
        if closed:
            self._alert(session_id, closed)
        self._summaries[session_id] = pipeline.summary()
        self._an_closed = merge_rollups((self._an_closed, pipeline.rollup()))

    def take_alerts(self) -> list:
        """Closed ``(session_id, Episode)`` alerts since the last take;
        clears the queue."""
        alerts = self._alerts
        self._alerts = []
        return alerts

    def take_summaries(self) -> dict[str, dict]:
        """Final analytics summaries of sessions closed or evicted
        since the last take; clears the store."""
        summaries = self._summaries
        self._summaries = {}
        return summaries

    def analytics_rollup(self) -> dict:
        """JSON-able fleet-rollup block of ``stats()["analytics"]``:
        closed-session accumulator plus the live pipelines' folded
        state (sessions / beats / episodes / alerts / by_kind)."""
        total = merge_rollups([
            self._an_closed,
            *(
                session.analytics.rollup()
                for session in self._sessions.values()
                if session.analytics is not None
            ),
        ])
        total["alerts"] = self.n_alerts
        return total

    def stats(self) -> dict:
        """Schema-pinned stats dict, shaped like the sharded tier's
        (``workers == 1``) so every serving surface — the net server's
        STATS frame, the federation rollup, least-loaded placement —
        reads any gateway the same way."""
        worker = {
            "n_sessions": self.n_sessions,
            "n_queued": self.n_queued,
            "n_flushes": self.n_flushes,
            "n_classified": self.n_classified,
            "n_evicted": self.n_evicted,
            "analytics": self.analytics_rollup(),
        }
        return {
            **worker,
            "per_worker": [worker],
            "workers": 1,
            "migrations": 0,
            "scale_events": 0,
        }

    def release_session(self, session_id: str) -> SessionExport:
        """Capture a live session for migration and remove it here.

        Pending classifications are flushed first so no in-flight
        handles cross the boundary; the export then carries the node
        snapshot plus the session's undrained events.  The session is
        gone from this gateway afterwards, without the stream-end
        finalization of :meth:`close_session`, and its journal entry
        goes with it.  Feed the export to :meth:`import_session` on
        another gateway (same ``fs`` and session configuration) and
        continue ``ingest``-ing there — the combined event sequence is
        bit-exact with never migrating.
        """
        self._get(session_id)
        self._classify_batch()
        export = self._capture(session_id)
        self._remove_session(session_id)
        if self.journal is not None:  # the session now lives elsewhere
            self.journal.forget(session_id)
        return export

    def import_session(self, export: SessionExport, session_id: str | None = None) -> str:
        """Resume an exported session on this gateway; return its id.

        The export's QoS settings (latency budget, eviction threshold)
        travel with the session; its idle clock restarts at this
        gateway's current tick.  Labels in flight at the capture (a
        journal snapshot) are requested again.
        """
        session_id = export.session_id if session_id is None else session_id
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        node = StreamingNode.restore(self.classifier, export.snapshot)
        # Deep-copy so importing the same export twice (or keeping it
        # around) never aliases live pipeline state; the export's
        # events were already folded by the exporter, so they are NOT
        # re-fed here.
        self._add_session(
            session_id,
            _Session(
                node,
                events=export.events,
                latency_budget=export.max_latency_ticks,
                evict_after=export.evict_after_ticks,
                last_active=self._tick,
                analytics=copy.deepcopy(export.analytics),
            ),
        )
        if self.journal is not None:
            self.journal.snapshot(session_id, export)
        return session_id

    def _deliver(self, session_id: str, events: list) -> list:
        """Hand drained events to the caller, counting them in the
        journal — crash recovery re-delivers everything *except* this
        prefix."""
        if events and self.journal is not None and session_id in self._sessions:
            self.journal.delivered(session_id, len(events))
        return events

    def _capture(self, session_id: str, *, drain=True, detached=True) -> SessionExport:
        """The session as an export: its undelivered events (moved into
        it, or with ``drain=False`` copied) and a node snapshot, which
        carries stashed input and labels in flight (an import requests
        them again).  Pending analytics fold first: an import resumes
        the fold and never re-feeds the export's events.
        ``detached=False`` shares the live state, for a caller that
        pickles the capture at once."""
        session = self._get(session_id)
        self._drain_analytics()
        return SessionExport(
            session_id=session_id,
            snapshot=session.node.snapshot(detached=detached),
            events=session.drain() if drain else list(session.events),
            max_latency_ticks=session.latency_budget,
            evict_after_ticks=session.evict_after,
            analytics=copy.deepcopy(session.analytics) if detached else session.analytics,
        )

    def _add_session(self, session_id: str, session: _Session) -> None:
        self._sessions[session_id] = session
        if session.evict_after is not None:
            self._evictable[session_id] = session
        node = session.node
        if not node.front_steady:
            self._warming.add(session_id)
        if node.n_stashed and node.due:
            self._due = True
        self._collect(session_id, session)  # labels in flight, if any

    def _remove_session(self, session_id: str) -> None:
        self._sessions.pop(session_id)
        self._evictable.pop(session_id, None)
        self._analytics_dirty.pop(session_id, None)
        self._warming.discard(session_id)
        self._round.pop(session_id, None)

    def _get(self, session_id: str) -> _Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def _collect(self, session_id: str, session: _Session) -> None:
        pending = session.node.take_pending()
        if not pending:
            return
        budget = self.max_latency_ticks
        if session.latency_budget is not None:
            budget = min(budget, session.latency_budget)
        tick = self._tick
        batch = self._batch
        for handle, row in pending:
            batch.add(session_id, handle, row, tick, budget)


def serve_round_robin(
    gateway: StreamGateway, streams, chunk: int
) -> dict[str, list[StreamBeatEvent]]:
    """Replay complete streams through a gateway as interleaved live sessions.

    The canonical gateway driver (the batch
    :func:`~repro.serving.engine.classify_streams`, the ``repro serve``
    CLI, the fleet example and the throughput benchmark all use it):
    opens one session per stream, ingests ``chunk``-sample slices
    round-robin until every stream is exhausted, closes the sessions,
    and returns each session's complete event sequence.  Each pass is
    one ``ingest_round`` call; a session surface without one (the wire
    client) gets one ``ingest`` per slice instead.

    Parameters
    ----------
    gateway:
        The gateway to serve through (its sessions must not collide
        with the given ids).
    streams:
        Mapping of session id to sample array (``(n,)`` or
        ``(n, n_leads)``), or an iterable of such pairs.
    chunk:
        Ingest slice length in samples (>= 1).

    Returns
    -------
    dict[str, list[StreamBeatEvent]]
        Per-session events, in stream order — bit-exact with replaying
        each stream through its own standalone
        :class:`~repro.dsp.streaming.StreamingNode`.
    """
    streams = dict(streams)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1 sample, got {chunk}")
    for session_id in streams:
        gateway.open_session(session_id)
    events: dict[str, list[StreamBeatEvent]] = {s: [] for s in streams}
    offsets = dict.fromkeys(streams, 0)
    ingest_round = getattr(gateway, "ingest_round", None)
    if ingest_round is None:  # a session surface without rounds (the wire client)
        def ingest_round(items):
            return [gateway.ingest(session_id, piece) for session_id, piece in items]
    while True:
        items = []
        for session_id, x in streams.items():
            i = offsets[session_id]
            if i < len(x):
                items.append((session_id, x[i : i + chunk]))
                offsets[session_id] = i + chunk
        if not items:
            break
        for (session_id, _), result in zip(items, ingest_round(items)):
            if isinstance(result, Exception):
                raise result
            events[session_id].extend(result)
    for session_id in streams:
        events[session_id].extend(gateway.close_session(session_id))
    return events
