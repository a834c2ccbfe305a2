"""Multi-worker session gateway: live sessions sharded across processes.

:class:`~repro.serving.gateway.StreamGateway` multiplexes live sessions
into batched classifier passes inside one process;
:class:`ShardedGateway` scales that across a pool of worker processes.
Every worker process runs its own ``StreamGateway`` (one batched
classifier flush per worker per tick, same size/latency policy).
Placement, live migration, the elastic ``add_worker`` /
``retire_worker`` drain and the ``stats()`` rollup are the
:class:`~repro.serving.pool.MemberPool` this tier shares with the
federated one — :mod:`repro.serving.pool` describes them.  This module
is the pipe transport underneath:

* ``ingest_round`` is **pipelined and batched**: a round of chunks
  goes out as **one pipe message per worker** — the worker's chunks
  back to back in one float64 array plus their lengths — and the call
  returns each session's already-resolved events without waiting for
  the workers.  The worker applies the round through its gateway's
  ``ingest_round`` (one tick per chunk) and answers with one response
  carrying a result per item.  ``ingest`` is the one-item round.
  Each worker's command pipe is FIFO, so per-session ordering — and
  therefore the per-session bit-exactness guarantee of the
  single-process gateway — is preserved for every worker count,
  interleaving, chunking and round partition.  ``close_session`` /
  ``release_session`` synchronize, so a session's event sequence is
  always complete when it ends or migrates.
* **Pipe protocol.**  A request is ``(op, session_id, arg)`` with two
  ops: the pipelined ``"round"`` (its ``session_id`` slot holds the
  item ids) and the synchronous ``"call"``, whose ``arg`` is a
  picklable ``fn(gateway)`` — a method of the worker's gateway, or a
  journal replay.  The parent checks for responses with one
  persistent ``select.poll`` per pipe, so a non-blocking drain costs
  one system call per worker.

QoS settings (per-session latency budgets, idle eviction) are forwarded
to the worker gateways; evicted sessions' final event sequences travel
back with the next response from that worker and wait in the parent's
:meth:`ShardedGateway.take_evicted`.  A chunk shipped before its
session's eviction notice arrived resolves empty, and a close that
crosses the notice returns the final sequence.

Durability: with a ``journal``
(:class:`repro.serving.durability.SessionJournal`) attached, every
accepted chunk is journaled *before* it is shipped, snapshots refresh
on the journal's cadence, ownership moves carry the journal, and the
pool heals its own crashes.  A dead worker (``kill -9``, OOM, a broken
pipe) surfaces as :class:`WorkerCrashError`; every public call that
talks to a worker runs under one crash guard, which then salvages and
respawns each dead worker in place (same index, fresh process),
rebuilds every lost session — and every journaled session no worker
owns — by replaying its snapshot and chunk log inside a worker, and
retries the call, up to :data:`MAX_RECOVERIES` recovery rounds.
Chunk-invariance makes the rebuilt sessions bit-exact, and recovery
reads the journal without writing it, so a crash during a recovery
just starts it over.  :meth:`ShardedGateway.check_workers` runs the
same heal as a heartbeat sweep, and after a full-process restart over
a surviving journal.  Without a journal, the crash raises.
"""

from __future__ import annotations

import multiprocessing
import select
from dataclasses import replace
from functools import partial, wraps
from operator import methodcaller

import numpy as np

from repro.dsp.streaming import check_samples
from repro.serving.durability import _replay
from repro.serving.executors import validate_at_least
from repro.serving.gateway import SessionExport, StreamGateway
from repro.serving.pool import MemberPool

__all__ = ["ShardedGateway", "WorkerCrashError"]


#: Recovery rounds one call of a journaled pool may use before the
#: :class:`WorkerCrashError` propagates (workers dying faster than they
#: can be respawned).
MAX_RECOVERIES = 8


class WorkerCrashError(RuntimeError):
    """A worker process died under a call (``kill -9``, OOM, broken
    pipe).

    Raised by the parent when the command pipe breaks or hits EOF.
    ``worker`` is the pool index of the dead worker.  ``ingest_round``
    sets ``session_id`` on the error of each item whose chunk was
    shipped to the worker that died.  A journaled pool heals the crash
    itself; an unjournaled one loses the dead worker's sessions.
    """

    def __init__(
        self,
        worker: int,
        cause: BaseException | None = None,
        *,
        session_id: str | None = None,
    ):
        detail = f": {cause!r}" if cause is not None else ""
        super().__init__(f"worker {worker} crashed{detail}")
        self.worker = worker
        self.cause = cause
        self.session_id = session_id


def _healing(method):
    """Run a public pool call under the crash guard (a journaled pool
    heals a :class:`WorkerCrashError` and retries the call)."""

    @wraps(method)
    def guarded(self, *args, **kwargs):
        if self.journal is None:
            return method(self, *args, **kwargs)
        return self._recovering(method, self, *args, **kwargs)

    return guarded


class _WorkerState:
    """One worker's gateway behind its two requests.

    The worker process loop (:func:`_worker_main`) drives it over a
    pipe.  ``("round", session_ids, (samples, lengths))`` applies the
    chunks, back to back in ``samples``, through the gateway's
    ``ingest_round`` and answers its per-item list (events or
    exception); ``("call", None, fn)`` answers ``fn(gateway)``.  The
    response is ``(op, session_id, payload, evictions, aux)`` where
    ``payload`` is ``("ok", value)`` or ``("err", exception)``.
    Evictions that fired while handling a request (the gateway's idle
    clock advances on its own ingest ticks) ride along on the
    response, each as a complete ``(session_id, events)`` final
    sequence; ``aux`` is the analytics side-channel
    ``(alerts, summaries)`` drained from the worker gateway the same
    way.
    """

    def __init__(self, classifier, fs: float, gateway_kwargs: dict):
        self.gateway = StreamGateway(classifier, fs, **gateway_kwargs)

    def handle(self, request: tuple) -> tuple:
        """Serve one request; return its wire response (never raises)."""
        gateway = self.gateway
        op, session_id = request[0], request[1]
        try:
            if op == "round":
                samples, lengths = request[2]
                bounds = np.cumsum([0, *lengths])
                value = gateway.ingest_round(
                    [
                        (sid, samples[bounds[i] : bounds[i + 1]])
                        for i, sid in enumerate(session_id)
                    ]
                )
            elif op == "call":
                value = request[2](gateway)
            else:
                raise ValueError(f"unknown worker op {op!r}")
            payload = ("ok", value)
        except Exception as exc:  # travels back to the caller
            payload = ("err", exc)
        evictions = list(gateway.take_evicted().items())
        aux = (gateway.take_alerts(), gateway.take_summaries())
        return (op, session_id, payload, evictions, aux)


def _worker_main(conn, parent_end, classifier, fs: float, gateway_kwargs: dict) -> None:
    """Worker-process loop: one :class:`_WorkerState`, commands over a
    pipe, responses in request order (the FIFO the parent relies on)."""
    # A forked worker inherits the parent's end of its own pipe.  Close
    # it, so that the parent's death reads as EOF here and the worker
    # exits instead of outliving it.
    parent_end.close()
    state = _WorkerState(classifier, fs, gateway_kwargs)
    while True:
        try:
            request = conn.recv()
        except EOFError:  # parent died; nothing left to serve
            break
        if request[0] == "stop":
            conn.send(("stop", None, ("ok", None), [], ([], {})))
            break
        conn.send(state.handle(request))
    conn.close()


class ShardedGateway(MemberPool):
    """A pool of worker processes, each running a :class:`StreamGateway`.

    Drop-in for the single-process gateway's session surface
    (``open_session`` / ``ingest`` / ``poll`` / ``close_session`` /
    ``release_session`` / ``import_session``, so
    :func:`~repro.serving.gateway.serve_round_robin` drives it
    unchanged), with sessions sharded across ``workers`` processes.
    Per-session event sequences stay bit-exact with a standalone
    :class:`~repro.dsp.streaming.StreamingNode` for every worker
    count — see the module docs for how pipelining preserves ordering.

    Parameters
    ----------
    classifier / fs / max_batch / max_latency_ticks /
    evict_after_ticks / analytics / node configuration:
        As for :class:`~repro.serving.gateway.StreamGateway`; applied
        per worker (each worker's gateway batches and flushes its own
        sessions — one batched classifier pass per worker per tick;
        analytics fold worker-side in one batched pass per flush, and
        alerts / final summaries travel back on the response
        side-channel to :meth:`take_alerts` / :meth:`take_summaries`).
    workers:
        Initial worker process count (>= 1).  :meth:`add_worker` /
        :meth:`retire_worker` grow and shrink the pool live.
    placement:
        Session-to-worker assignment policy consulted by
        :meth:`open_session` and :meth:`import_session` — one of
        :data:`~repro.serving.executors.PLACEMENTS` (``"hash"``,
        ``"least-loaded"``, ``"round-robin"``).  An explicit
        ``worker=`` argument always wins.
    journal:
        Optional :class:`repro.serving.durability.SessionJournal`.
        When set, accepted chunks are write-ahead journaled, snapshots
        refresh on the journal's cadence, migrations carry the
        journal, closed/evicted/released sessions drop their entries,
        and the pool heals a worker crash inside the call that meets
        it (see the module docs; :meth:`stats` then also counts
        ``recoveries``, ``sessions_recovered``, ``respawns`` and
        ``evictions_salvaged``).

    Use as a context manager (or call :meth:`shutdown`) so the worker
    processes are reaped.
    """

    def __init__(
        self,
        classifier,
        fs: float,
        *,
        workers: int = 2,
        placement: str = "hash",
        max_batch: int = 64,
        max_latency_ticks: int = 8,
        evict_after_ticks: int | None = None,
        analytics=None,
        journal=None,
        n_leads: int = 1,
        lead: int = 0,
        decimation: int = 4,
        window=None,
        detector_config=None,
        delineation_config=None,
        overhead_bytes: int = 2,
    ):
        validate_at_least("workers", workers)
        validate_at_least("max_batch", max_batch)
        validate_at_least("max_latency_ticks", max_latency_ticks)
        if evict_after_ticks is not None:
            validate_at_least("evict_after_ticks", evict_after_ticks)
        self.fs = fs
        self.journal = journal
        self.n_leads = n_leads
        gateway_kwargs = dict(
            max_batch=max_batch,
            max_latency_ticks=max_latency_ticks,
            evict_after_ticks=evict_after_ticks,
            # The gateway-wide analytics default ships to every worker
            # at spawn (operator prototypes / factory must pickle);
            # alerts and summaries travel back on the aux side-channel.
            analytics=analytics,
            n_leads=n_leads,
            lead=lead,
            decimation=decimation,
            window=window,
            detector_config=detector_config,
            delineation_config=delineation_config,
            overhead_bytes=overhead_bytes,
        )
        self._ctx = multiprocessing.get_context()
        self._classifier = classifier
        self._gateway_kwargs = gateway_kwargs
        self._conns = []
        self._procs = []
        self._pollers = []
        self._events: dict[str, list] = {}
        self._evicted: dict[str, list] = {}
        self._errors: dict[str, Exception] = {}
        self._alerts: list[tuple[str, object]] = []
        self._summaries: dict[str, dict] = {}
        # The take_* queues that have not been taken since the last
        # drain, while no call has gone to a worker since: they can
        # serve what that drain collected (see _catch_up).
        self._untaken: set[str] = set()
        self.n_recoveries = 0
        self.n_sessions_recovered = 0
        self.n_respawns = 0
        self.n_evictions_salvaged = 0
        super().__init__(placement)
        for _ in range(int(workers)):
            self._spawn_worker()

    @property
    def workers(self) -> int:
        """Number of worker processes in the pool."""
        return len(self._conns)

    def _make_worker(self) -> tuple:
        """Build one worker's (connection, process, poller) triple."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, parent_conn, self._classifier, self.fs,
                self._gateway_kwargs,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        poller = select.poll()
        poller.register(parent_conn.fileno(), select.POLLIN)
        return parent_conn, proc, poller

    def _spawn_worker(self) -> None:
        conn, proc, poller = self._make_worker()
        self._conns.append(conn)
        self._procs.append(proc)
        self._pollers.append(poller)

    # -- session surface -------------------------------------------------

    @_healing
    def open_session(
        self,
        session_id: str,
        *,
        max_latency_ticks: int | None = None,
        evict_after_ticks: int | None = None,
        analytics=None,
        worker: int | None = None,
    ) -> None:
        """Open a session on its policy-placed (or explicit) worker.

        The QoS and ``analytics`` keywords are forwarded to the worker
        gateway's
        :meth:`~repro.serving.gateway.StreamGateway.open_session`
        (per-session analytics specs ride the command pipe, so the
        operator prototypes must pickle).
        """
        index = self._pick(session_id, worker)
        qos = {
            "max_latency_ticks": max_latency_ticks,
            "evict_after_ticks": evict_after_ticks,
            "analytics": analytics,
        }
        self._call(index, "open_session", session_id, **qos)
        self._owner[session_id] = index
        if self.journal is not None:
            self.journal.open(session_id, qos)

    def ingest(self, session_id: str, chunk: np.ndarray) -> list:
        """Ship one chunk to the owning worker; return resolved events.

        The one-item :meth:`ingest_round`: its one result, with an
        exception re-raised.
        """
        result = self.ingest_round(((session_id, chunk),))[0]
        if isinstance(result, Exception):
            raise result
        return result

    @_healing
    def ingest_round(self, items) -> list:
        """Ship a round of ``(session_id, chunk)`` items, one pipe
        message per worker; return one entry per item.

        An entry is the events of the item's session that have already
        come back, or the exception the item raised.  Pipelined: the
        call does not wait for the workers to process the round.  Each
        chunk is checked here (shape and finite samples); a rejected
        chunk raises for its item at once and is neither shipped nor
        journaled, and the other items still apply.  Each worker then
        gets its accepted chunks, in round order, as one contiguous
        float64 array plus their lengths, and answers with one
        response.

        With a journal, a worker's chunks are journaled just before its
        message is sent (write-ahead).  An item whose worker died under
        it is settled once the pool is healed: its chunk is journaled
        and the recovery replays it, so its session's events are
        drained by a poll and the chunk is never sent again.  Without a
        journal the item's entry is the :class:`WorkerCrashError`.  A
        worker death noticed before any chunk is shipped raises from
        the call (a journaled pool heals it and retries the round).

        A chunk shipped before its session's eviction notice arrived
        is not applied: the worker had already closed the session, and
        the item resolves empty.  :meth:`take_evicted` then holds the
        events of the chunks that were applied only.
        """
        items = list(items)
        self._drain()
        results: list = [None] * len(items)
        queued: dict[int, list] = {}  # worker -> [(position, block)]
        for position, (session_id, chunk) in enumerate(items):
            try:
                index = self._owner_or_raise(session_id)
                block = check_samples(chunk, self.n_leads)
            except Exception as exc:
                results[position] = exc
                continue
            queued.setdefault(index, []).append((position, block))
        for index, batch in queued.items():
            crash = self._ship(index, [(*items[p], block) for p, block in batch])
            if crash is not None:
                for p, _ in batch:
                    results[p] = WorkerCrashError(
                        index, crash.cause, session_id=items[p][0]
                    )
        for position, (session_id, _) in enumerate(items):
            result = results[position]
            if result is None:
                results[position] = self._take_events(session_id)
            elif isinstance(result, WorkerCrashError) and self.journal is not None:
                try:
                    results[position] = self.poll(session_id)
                except Exception as exc:
                    results[position] = exc
        return results

    def _ship(self, index: int, batch: list) -> WorkerCrashError | None:
        """Send one worker its ``(session_id, chunk, block)`` round
        items as one message, journaled first (write-ahead), with the
        journal snapshots due after it.  Returns the crash if the worker
        died under it."""
        session_ids = [session_id for session_id, _, _ in batch]
        try:
            if self.journal is not None:
                for session_id, chunk, _ in batch:
                    self.journal.log_chunk(session_id, np.asarray(chunk, dtype=float))
            samples = np.concatenate([block for _, _, block in batch])
            lengths = [len(block) for _, _, block in batch]
            self._send(index, ("round", session_ids, (samples, lengths)))
            if self.journal is not None:
                for session_id in dict.fromkeys(session_ids):
                    if self.journal.wants_snapshot(session_id):
                        self._journal_snapshot(session_id)
        except WorkerCrashError as crash:
            return crash
        return None

    @_healing
    def poll(self, session_id: str) -> list:
        """Drain the session's queued events without ingesting samples.

        Synchronizes with the owning worker, so events resolved by a
        flush another session triggered are fetched too (the parent
        otherwise only sees a session's events on its own responses).
        """
        index = self._owner_or_raise(session_id)
        value = self._call(index, "poll", session_id)
        return self._take_events(session_id, value)

    @_healing
    def close_session(self, session_id: str) -> list:
        """End a session; wait for and return the rest of its events."""
        index = self._owner_or_raise(session_id)
        try:
            value = self._call(index, "close_session", session_id)
        except KeyError:
            # The close crossed the session's eviction notice: its final
            # sequence is the rest of its events.
            if session_id in self._owner or session_id not in self._evicted:
                raise
            return self._evicted.pop(session_id)
        events = self._events.pop(session_id, []) + value
        self._forget(session_id)
        if self.journal is not None:  # an ended session needs no recovery
            self.journal.forget(session_id)
        return events

    @_healing
    def release_session(self, session_id: str) -> SessionExport:
        """Capture a live session for migration and remove it here.
        The worker applies every accepted chunk first, and the
        parent-buffered events merge into the export."""
        export = self._release(self._owner_or_raise(session_id), session_id)
        self._forget(session_id)
        if self.journal is not None:  # the session now lives elsewhere
            self.journal.forget(session_id)
        return export

    @_healing
    def import_session(self, export: SessionExport, session_id: str | None = None) -> str:
        """Resume an exported session on its policy-placed worker."""
        session_id = export.session_id if session_id is None else session_id
        self._import(self._pick(session_id), session_id, export)
        return session_id

    @_healing
    def migrate_session(self, session_id: str, worker: int) -> None:
        """Move a live session to another worker, mid-stream (a no-op
        if it is already there); see :mod:`repro.serving.pool`."""
        self._migrate(session_id, worker)

    def _release(self, index: int, session_id: str) -> SessionExport:
        export = self._call(index, "release_session", session_id)
        return self._merge_buffer(session_id, export)

    def _import(self, index: int, session_id: str, export: SessionExport) -> None:
        self._call(index, "import_session", export, session_id)
        self._owner[session_id] = index
        if self.journal is not None:
            # The capture is the new snapshot: an ownership move
            # carries the journal, and recovery replays onto the new
            # owner.
            self.journal.snapshot(session_id, export)

    # -- elastic pool ----------------------------------------------------

    def add_worker(self) -> int:
        """Grow the pool by one (empty) worker process; return its index."""
        self._check_open()
        self._spawn_worker()
        return self._added()

    @_healing
    def retire_worker(self, worker: int) -> int:
        """Shrink the pool: drain one worker's sessions onto the others
        (losslessly, chunks in flight included) and reap it.  Returns
        the number of sessions migrated; see :mod:`repro.serving.pool`."""
        return self._retire(worker)

    def _detach(self, index: int) -> None:
        self._stop_worker(index)
        del self._conns[index], self._procs[index], self._pollers[index]

    def _member_stats(self, index: int) -> dict:
        return self._call(index, "stats")["per_worker"][0]

    def _stop_worker(self, index: int) -> None:
        """Synchronously stop one worker process and close its pipe."""
        conn, proc = self._conns[index], self._procs[index]
        stopped = False
        try:
            conn.send(("stop", None))
            while True:
                response = conn.recv()
                if response[0] == "stop":
                    break
                self._handle(index, response)
            stopped = True
        except (BrokenPipeError, EOFError, OSError):
            # The worker never got (or never acknowledged) the stop
            # message, so waiting for it to exit would only time out.
            proc.terminate()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        proc.join(timeout=5.0 if stopped else 1.0)
        if proc.is_alive():  # pragma: no cover - defensive reap
            proc.terminate()
            proc.join(timeout=1.0)

    @_healing
    def flush_batch(self) -> int:
        """Force one batched classifier pass on every worker; return
        how many beats were resolved."""
        return sum(self._call(i, "flush_batch") for i in range(self.workers))

    @_healing
    def take_evicted(self) -> dict[str, list]:
        """Final event sequences of evicted sessions; clears the store."""
        self._catch_up("evicted")
        evicted = self._evicted
        self._evicted = {}
        return evicted

    @_healing
    def take_alerts(self) -> list:
        """Closed ``(session_id, Episode)`` analytics alerts, fleet-wide;
        clears the queue."""
        self._catch_up("alerts")
        alerts = self._alerts
        self._alerts = []
        return alerts

    @_healing
    def take_summaries(self) -> dict[str, dict]:
        """Final analytics summaries of closed/evicted sessions,
        fleet-wide; clears the store."""
        self._catch_up("summaries")
        summaries = self._summaries
        self._summaries = {}
        return summaries

    # -- crash recovery (journaled pools) ---------------------------------

    def check_workers(self) -> int:
        """Heal the pool now; return the number of sessions rebuilt.

        The heartbeat sweep of a supervisor loop: respawn every dead
        worker and rebuild its sessions before a call runs into it.
        After a full-process restart over a surviving journal it also
        rebuilds every session the previous process journaled; their
        events still owed come out of the next :meth:`poll` or
        :meth:`ingest`.  Needs a journal.
        """
        if self.journal is None:
            raise RuntimeError("crash recovery needs a journal")
        before = self.n_sessions_recovered
        self._recovering(self._heal)
        return self.n_sessions_recovered - before

    @_healing
    def stats(self) -> dict:
        """The pool rollup (:meth:`MemberPool.stats`); a journaled pool
        adds its recovery counters."""
        totals = super().stats()
        if self.journal is not None:
            totals["recoveries"] = self.n_recoveries
            totals["sessions_recovered"] = self.n_sessions_recovered
            totals["respawns"] = self.n_respawns
            totals["evictions_salvaged"] = self.n_evictions_salvaged
        return totals

    def _recovering(self, fn, *args, **kwargs):
        """Call ``fn``; on a :class:`WorkerCrashError`, heal the pool
        and call it again, up to :data:`MAX_RECOVERIES` rounds.  A
        crash during a heal uses up a round too, and the next round
        heals again before ``fn`` is retried."""
        crash = None
        for _ in range(MAX_RECOVERIES + 1):
            try:
                if crash is not None:
                    self._heal(crash.worker)
                return fn(*args, **kwargs)
            except WorkerCrashError as exc:
                crash = exc
        raise crash

    def _heal(self, crashed: int | None = None) -> None:
        """One recovery round: salvage and respawn every dead worker
        (plus ``crashed``, whose pipe broke before its exit showed),
        then rebuild each session they owned and each journaled session
        no worker owns (a move a crash cut between release and import,
        or a session of a previous process).

        A dead worker's already-written responses are handled first, so
        evictions it finished reach :meth:`take_evicted` and leave the
        journal — the one journal write of a recovery.  A
        rebuilt session is scrubbed off every worker (a stale copy an
        interrupted heal left), replayed by
        :func:`~repro.serving.durability._replay` inside its placed
        worker, and gets the events still owed as its backlog.
        """
        self._check_open()
        self._untaken.clear()
        dead = {i for i, proc in enumerate(self._procs) if not proc.is_alive()}
        if crashed is not None:
            dead.add(crashed)
        lost: list[str] = []
        for index in sorted(dead):
            owned = len(self.sessions_on(index))
            try:
                self._drain_one(index)
            except WorkerCrashError:
                pass  # the pipe ran dry: everything readable was handled
            orphans = self.sessions_on(index)
            self.n_evictions_salvaged += owned - len(orphans)
            for session_id in orphans:
                self._forget(session_id)
            lost += orphans
            self._stop_worker(index)
            self._conns[index], self._procs[index], self._pollers[index] = (
                self._make_worker()
            )
            self.n_respawns += 1
        lost += [sid for sid in self.journal.session_ids() if sid not in self._owner]
        before = self.n_sessions_recovered
        for session_id in dict.fromkeys(lost):
            rec = self.journal.recover(session_id)
            if rec is None:
                continue
            for index in range(self.workers):
                try:
                    self._call(index, "release_session", session_id)
                except KeyError:
                    pass
            index = self._place(session_id)
            backlog = self._request(index, ("call", None, partial(_replay, rec)))
            self._owner[session_id] = index
            if backlog:
                self._events[session_id] = backlog
            self.n_sessions_recovered += 1
        if dead or self.n_sessions_recovered > before:
            self.n_recoveries += 1

    # -- lifecycle -------------------------------------------------------

    def _close_members(self) -> None:
        # Safe on a half-torn-down instance: a pipe that is already
        # closed (or breaks mid-handshake) is skipped, so the
        # best-effort __del__ reap cannot raise during interpreter
        # shutdown.
        for index in range(len(self._conns)):
            self._stop_worker(index)

    def __del__(self):  # pragma: no cover - best-effort reap
        try:
            self.shutdown()
        except BaseException:
            # Interpreter shutdown may have closed pipes or torn down
            # modules under us; a destructor must never propagate.
            pass

    # -- plumbing --------------------------------------------------------

    def _raise_parked(self, session_id: str) -> None:
        error = self._errors.pop(session_id, None)
        if error is not None:
            raise error  # parked by _handle from a pipelined response

    def _owner_or_raise(self, session_id: str) -> int:
        self._raise_parked(session_id)
        return super()._owner_or_raise(session_id)

    def _merge_buffer(self, session_id: str, export: SessionExport) -> SessionExport:
        """Fold parent-buffered events into an export (they precede the
        worker-side undrained events in per-session order)."""
        buffered = self._events.pop(session_id, [])
        if not buffered:
            return export
        return replace(export, events=buffered + list(export.events))

    def _forget(self, session_id: str) -> None:
        super()._forget(session_id)
        self._events.pop(session_id, None)
        self._errors.pop(session_id, None)  # must not leak to a reused id

    def _crashed(self, index: int, exc: BaseException) -> WorkerCrashError:
        """A pipe error: the worker died — unless the pool was shut
        down, which closed the pipe on purpose."""
        self._check_open()
        return WorkerCrashError(index, exc)

    def _send(self, index: int, request: tuple) -> None:
        """Ship one command; a broken pipe means the worker died."""
        try:
            self._conns[index].send(request)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._crashed(index, exc) from exc

    def _recv(self, index: int) -> tuple:
        """Read one response; EOF / a broken pipe means the worker died.

        A killed worker's already-sent responses stay readable until
        the pipe drains, so events it resolved before dying are still
        delivered — the crash surfaces only once the buffer is empty.
        """
        try:
            return self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise self._crashed(index, exc) from exc

    def _poll_conn(self, index: int) -> bool:
        """Is a response (or the worker's hang-up) waiting on the pipe?

        One persistent ``select.poll`` per pipe: ``Connection.poll()``
        builds a new selector on every call.  A hang-up or a closed
        descriptor reads as ready, so the ``recv`` that follows raises
        :class:`WorkerCrashError`.
        """
        try:
            return bool(self._pollers[index].poll(0))
        except OSError as exc:
            raise self._crashed(index, exc) from exc

    def _take_events(self, session_id: str, extra: list | None = None) -> list:
        """Pop a session's parent-buffered events (plus ``extra``) for
        the caller, counting them as delivered in the journal — crash
        recovery must re-deliver everything *except* this prefix."""
        events = self._events.pop(session_id, [])
        if extra:
            events = events + list(extra)
        if events and self.journal is not None and session_id in self._owner:
            self.journal.delivered(session_id, len(events))
        return events

    def _journal_snapshot(self, session_id: str) -> None:
        """Refresh one session's journal snapshot, truncating its chunk
        log (the cadence bound on replay length).  The synchronized
        capture is a :class:`SessionExport` taken without the
        classifier pass first and without removing the session (labels
        in flight ride in the node snapshot), sharing the worker's live
        state, which its response pickles at once.  It drains pending
        events; they return to the parent buffer — still owed to the
        caller, and covered by the fresh snapshot (whose delivered count
        restarts at zero with them undelivered).
        """
        index = self._owner.get(session_id)
        if index is None:  # pragma: no cover - evicted under the cadence
            return
        try:
            export = self._call(index, "_capture", session_id, detached=False)
        except KeyError:
            if session_id in self._owner:
                raise
            return  # evicted by an interleaved response mid-snapshot
        export = self._merge_buffer(session_id, export)
        self.journal.snapshot(session_id, export)
        if export.events:
            self._events[session_id] = list(export.events)

    def _call(self, index: int, method: str, *args, **kwargs):
        """Call one method of a worker's gateway and return its value
        (its exception is raised here)."""
        return self._request(
            index, ("call", None, methodcaller(method, *args, **kwargs))
        )

    def _request(self, index: int, request: tuple):
        """Send one synchronous command; handle interleaved pipelined
        responses until this command's (FIFO-ordered) answer arrives."""
        op = request[0]
        self._untaken.clear()  # later answers may wait on other pipes
        self._send(index, request)
        while True:
            response = self._recv(index)
            if response[0] == op:
                self._note_evictions(response[3])
                self._note_aux(response[4])
                status, value = response[2]
                if status == "err":
                    raise value
                return value
            self._handle(index, response)

    def _drain(self) -> None:
        for index in range(self.workers):
            self._drain_one(index)
        self._untaken = {"evicted", "alerts", "summaries"}

    def _catch_up(self, queue: str) -> None:
        """Bring one ``take_*`` queue up to date before it is taken.

        The pipes are drained unless this queue has not been taken
        since the last drain and no synchronous call has gone to a
        worker since (:meth:`_request` and :meth:`_heal` reset it): a
        take then serves what that drain collected.  So a served round
        — ``ingest_round``, which drains before it routes, then the
        three takes — polls the pipes once, and so do a close's three
        takes; a take that follows its own queue's take, or any worker
        call, drains again."""
        if queue not in self._untaken:
            self._drain()
        self._untaken.discard(queue)

    def _drain_one(self, index: int) -> None:
        """Handle every response already waiting on one worker's pipe,
        without blocking."""
        while self._poll_conn(index):
            self._handle(index, self._recv(index))

    def _handle(self, index: int, response: tuple) -> None:
        """Route one pipelined (round) response of worker ``index``
        into the buffers.

        The items' events go first, then the round's eviction notices:
        a session evicted by a later item of the round keeps the events
        of its own earlier items ahead of its final sequence.  An item
        for an id worker ``index`` no longer owns is dropped: the
        session was evicted while its chunk was in flight (a reused id
        may already live again, on this worker or another).  Any other
        worker-side item error arrives here asynchronously, possibly
        while a synchronous request for another session is waiting —
        raising now would both blame the wrong call and desynchronize
        the pipe's request/response pairing.  It is parked instead and
        raised by the erroring session's next call
        (:meth:`_owner_or_raise`).
        """
        op, session_ids, (status, value), evictions, aux = response
        self._note_aux(aux)
        if op != "round":  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected unsolicited {op!r} response")
        if status == "err":  # pragma: no cover - the round itself failed
            value = [value] * len(session_ids)
        for session_id, result in zip(session_ids, value):
            if self._owner.get(session_id) != index:
                continue
            if isinstance(result, Exception):
                self._errors[session_id] = result
            else:
                self._events.setdefault(session_id, []).extend(result)
        self._note_evictions(evictions)

    def _note_aux(self, aux: tuple) -> None:
        """Fold one response's analytics side-channel into the parent
        buffers: alerts queue for :meth:`take_alerts`, summaries merge
        for :meth:`take_summaries`."""
        alerts, summaries = aux
        if alerts:
            self._alerts.extend(alerts)
        if summaries:
            self._summaries.update(summaries)

    def _note_evictions(self, evictions: list) -> None:
        for session_id, events in evictions:
            if session_id not in self._owner:
                continue
            final = self._events.pop(session_id, []) + list(events)
            self._forget(session_id)
            if self.journal is not None:  # an evicted session is final
                self.journal.forget(session_id)
            self._evicted[session_id] = final
