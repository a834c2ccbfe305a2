"""Crash durability: the write-ahead session journal and its replay.

A ``kill -9`` on a :class:`~repro.serving.sharded.ShardedGateway`
worker loses every session it owns — the one failure mode the scaling
tiers (placement, QoS, federation) do not cover.  The
journal closes it with the classic write-ahead discipline, leaning on
the serving stack's oldest invariant:

    **chunk-invariance is the recovery contract.**  A session's event
    sequence is bit-exact with a standalone inline-mode
    :class:`~repro.dsp.streaming.StreamingNode` regardless of chunk
    sizes, interleavings and flush boundaries — so *snapshot + replay*
    reconstructs a lost session exactly, not approximately.

Two layers, and the replay over them:

* :class:`JournalStore` — the pluggable persistence interface (the
  point of the design: swap the medium, keep the semantics).  Two
  backends ship: :class:`MemoryJournalStore` (tests, ephemeral) and
  :class:`FileJournalStore` (file-per-session snapshot + framed
  append-only log), the one durable medium.
* :class:`SessionJournal` — the write-ahead policy over a store: an
  ``open`` record per session, a pickled
  :class:`~repro.serving.gateway.SessionExport` snapshot refreshed
  every ``snapshot_every`` accepted chunks, an append-only log of the
  chunks accepted since that snapshot, and a ``delivered`` counter of
  the events already returned to the caller since that snapshot (so
  recovery never re-delivers).  :meth:`SessionJournal.recover` hands
  back everything needed to rebuild one session.
* ``_replay`` rebuilds one journaled session on a gateway: snapshot
  import (or re-open), chunk-log replay, a forced flush, and the events
  past the delivered count.  A journaled ``ShardedGateway`` runs it
  inside a respawned worker when it heals a crash (see
  :mod:`repro.serving.sharded`); :func:`recover_sessions` runs it on a
  fresh gateway of any tier after a *full-process* restart.  The
  acknowledged prefix rule makes this exact: a chunk is durable the
  moment ``ingest`` returns, so recovered event sequences are bit-exact
  with a standalone node over exactly the acknowledged chunks
  (``tests/serving/test_durability_chaos.py`` pins it under seeded
  ``kill -9``).

Recovery never writes to the journal (the replay runs beneath the
journal hooks; a file store only deletes files no state refers to),
so a second crash mid-recovery just starts recovery over from the
same durable state — the whole path is idempotent.
"""

from __future__ import annotations

import base64
import math
import os
import pickle
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.serving.executors import validate_at_least
from repro.serving.gateway import SessionExport

__all__ = [
    "FileJournalStore",
    "JournalCorruptError",
    "JournalStore",
    "MemoryJournalStore",
    "RecoveredSession",
    "SessionJournal",
    "open_journal",
    "recover_sessions",
]

#: Journal backends :func:`open_journal` (and ``repro serve --journal``)
#: can construct by name.
JOURNAL_BACKENDS = ("file", "memory")

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Chunk records: a magic byte and the array rank, the shape as LE u32s,
#: then the raw little-endian float64 samples.
_CHUNK_MAGIC = b"A"
_CHUNK_HEAD = struct.Struct("<cB")


def _encode_chunk(chunk) -> bytes:
    arr = np.asarray(chunk, dtype="<f8")
    return (
        _CHUNK_HEAD.pack(_CHUNK_MAGIC, arr.ndim)
        + struct.pack(f"<{arr.ndim}I", *arr.shape)
        + arr.tobytes()
    )


def _decode_chunk(blob: bytes) -> np.ndarray:
    """Decode one chunk record; a header or payload length no writer
    produces raises :class:`JournalCorruptError`."""
    if len(blob) >= _CHUNK_HEAD.size and blob[:1] == _CHUNK_MAGIC:
        ndim = blob[1]
        offset = _CHUNK_HEAD.size + 4 * ndim
        if len(blob) >= offset:
            shape = struct.unpack_from(f"<{ndim}I", blob, _CHUNK_HEAD.size)
            if len(blob) - offset == 8 * math.prod(shape):
                samples = np.frombuffer(blob, dtype="<f8", offset=offset)
                return samples.astype(np.float64).reshape(shape)  # a writable copy
    raise JournalCorruptError(f"damaged chunk record of {len(blob)} bytes")


class JournalCorruptError(ValueError):
    """A journal log holds a record no writer produces (a damaged file)."""


@dataclass
class StoredSession:
    """Raw (still-pickled) journal state of one session, as loaded."""

    open_blob: bytes | None = None
    snapshot: bytes | None = None
    chunks: list[bytes] = field(default_factory=list)
    delivered: int = 0


class JournalStore:
    """Persistence interface of the write-ahead session journal.

    One implementation = one durability medium.  All methods are keyed
    by session id; blobs are opaque bytes (the
    :class:`SessionJournal` layer owns pickling).  Contract:

    * :meth:`begin` registers a session, clearing any previous state
      under the same id (a reopened id starts a fresh history);
    * :meth:`put_snapshot` replaces the snapshot, **truncates the
      chunk log** and zeroes the delivered counter, as one atomic
      step — the snapshot subsumes everything before it;
    * :meth:`append_chunk` / :meth:`add_delivered` append to the
      post-snapshot state; both must be lenient about an unknown id
      (auto-register) so hooks never race registration;
    * :meth:`load` returns the full :class:`StoredSession` (or
      ``None`` for an unknown id); :meth:`chunk_count` is the cheap
      cadence probe; :meth:`session_ids` lists every journaled id —
      including ones persisted by an earlier process (file store);
    * :meth:`forget` removes a session entirely (closed, evicted or
      released sessions need no recovery).
    """

    def begin(self, session_id: str, open_blob: bytes) -> None:
        raise NotImplementedError

    def put_snapshot(self, session_id: str, blob: bytes) -> None:
        raise NotImplementedError

    def append_chunk(self, session_id: str, blob: bytes) -> None:
        raise NotImplementedError

    def add_delivered(self, session_id: str, n: int) -> None:
        raise NotImplementedError

    def load(self, session_id: str) -> StoredSession | None:
        raise NotImplementedError

    def chunk_count(self, session_id: str) -> int:
        raise NotImplementedError

    def forget(self, session_id: str) -> None:
        raise NotImplementedError

    def session_ids(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (file handles, database connections)."""


class MemoryJournalStore(JournalStore):
    """In-process store: survives worker crashes (the journal lives in
    the parent), not parent restarts.  The reference semantics the
    durable backends must match, and the zero-IO baseline."""

    def __init__(self) -> None:
        self._sessions: dict[str, StoredSession] = {}

    def _entry(self, session_id: str) -> StoredSession:
        entry = self._sessions.get(session_id)
        if entry is None:
            entry = self._sessions[session_id] = StoredSession()
        return entry

    def begin(self, session_id: str, open_blob: bytes) -> None:
        self._sessions[session_id] = StoredSession(open_blob=open_blob)

    def put_snapshot(self, session_id: str, blob: bytes) -> None:
        entry = self._entry(session_id)
        entry.snapshot = blob
        entry.chunks = []
        entry.delivered = 0

    def append_chunk(self, session_id: str, blob: bytes) -> None:
        self._entry(session_id).chunks.append(blob)

    def add_delivered(self, session_id: str, n: int) -> None:
        self._entry(session_id).delivered += int(n)

    def load(self, session_id: str) -> StoredSession | None:
        entry = self._sessions.get(session_id)
        if entry is None:
            return None
        return StoredSession(
            open_blob=entry.open_blob,
            snapshot=entry.snapshot,
            chunks=list(entry.chunks),
            delivered=entry.delivered,
        )

    def chunk_count(self, session_id: str) -> int:
        entry = self._sessions.get(session_id)
        return 0 if entry is None else len(entry.chunks)

    def forget(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    def session_ids(self) -> list[str]:
        return list(self._sessions)


# File-store log framing: 1 record-type byte + u32 LE payload length.
_LOG_HEADER = struct.Struct("<cI")
_REC_CHUNK = b"C"
_REC_DELIVERED = b"D"
_DELIVERED_PAYLOAD = struct.Struct("<q")


def _encode_token(session_id: str) -> str:
    """Filename-safe reversible encoding of a session id."""
    raw = base64.urlsafe_b64encode(session_id.encode("utf-8"))
    return raw.decode("ascii").rstrip("=")


def _decode_token(token: str) -> str:
    padded = token + "=" * (-len(token) % 4)
    return base64.urlsafe_b64decode(padded.encode("ascii")).decode("utf-8")


def _parse_name(name: str) -> tuple[str, int, str]:
    """``(token, generation, kind)`` of a journal file name; kind is
    ``meta`` / ``snapshot`` / ``log``, ``tmp`` for an unfinished atomic
    write, or ``""`` for a file that is not the store's."""
    if name.endswith(".tmp"):
        token, _, kind = _parse_name(name[: -len(".tmp")])
        return token, 0, "tmp" if kind in ("meta", "snapshot") else ""
    token, _, rest = name.partition(".")
    if rest == "meta":
        return token, 0, "meta"
    generation, _, kind = rest.partition(".")
    if generation.isdigit() and kind in ("snapshot", "log"):
        return token, int(generation), kind
    return token, 0, ""


class FileJournalStore(JournalStore):
    """File-per-session store under one directory.

    Layout (``<token>`` is the url-safe base64 of the session id, ``<g>``
    the session's snapshot generation, 0 before its first snapshot):

    * ``<token>.meta`` — the ``begin`` blob (open kwargs);
    * ``<token>.<g>.snapshot`` — generation ``g``'s snapshot blob;
    * ``<token>.<g>.log`` — framed append-only records since that
      snapshot: ``C`` (a chunk blob) and ``D`` (a delivered-count
      delta).

    :meth:`put_snapshot` writes generation ``g + 1``'s snapshot
    atomically (write-to-temp + :func:`os.replace`) and only then
    deletes generation ``g``'s files: the replace is the one step that
    switches a session to the new snapshot, its empty log and a zero
    delivered count, so a process that dies anywhere inside the call
    recovers either the old state or the new one, never a mix.
    :meth:`load` reads the highest generation with a snapshot and its
    own log.  The first call that needs a generation scans the
    directory once and deletes what a dead process left behind
    (superseded generations, temp files).

    A half-written trailing record (the parent died mid-append) is
    dropped at :meth:`load`; everything before it recovers.  With
    ``sync=True`` every append is fsynced (worker crashes — the threat
    model here — do not need it: the journal lives in the parent).
    """

    def __init__(self, root: str, *, sync: bool = False):
        self.root = str(root)
        self.sync = bool(sync)
        os.makedirs(self.root, exist_ok=True)
        self._logs: dict[str, object] = {}  # open append handles
        self._counts: dict[str, int] = {}
        self._generations: dict[str, int] | None = None  # only g > 0

    def _generation(self, session_id: str) -> int:
        if self._generations is None:
            self._generations = self._scan()
        return self._generations.get(session_id, 0)

    def _scan(self) -> dict[str, int]:
        """Each session's current generation; delete every other file."""
        names = [
            (name, _parse_name(name)) for name in sorted(os.listdir(self.root))
        ]
        current: dict[str, int] = {}
        for _, (token, generation, kind) in names:
            if kind == "snapshot":
                current[token] = max(current.get(token, 0), generation)
        for name, (token, generation, kind) in names:
            if kind == "tmp" or (
                kind in ("snapshot", "log") and generation != current.get(token, 0)
            ):
                self._remove(os.path.join(self.root, name))
        generations = {}
        for token, generation in current.items():
            try:
                generations[_decode_token(token)] = generation
            except (ValueError, UnicodeDecodeError):  # pragma: no cover
                continue  # not one of ours
        return generations

    def _path(
        self, session_id: str, suffix: str, generation: int | None = None
    ) -> str:
        """``suffix``'s file; ``.snapshot`` and ``.log`` name the
        current generation's unless ``generation`` is given."""
        name = _encode_token(session_id)
        if suffix != ".meta":
            if generation is None:
                generation = self._generation(session_id)
            name += f".{generation}"
        return os.path.join(self.root, name + suffix)

    def _log_handle(self, session_id: str):
        handle = self._logs.get(session_id)
        if handle is None or handle.closed:
            handle = open(self._path(session_id, ".log"), "ab")
            self._logs[session_id] = handle
        return handle

    def _append(self, session_id: str, rec_type: bytes, payload: bytes) -> None:
        handle = self._log_handle(session_id)
        handle.write(_LOG_HEADER.pack(rec_type, len(payload)))
        handle.write(payload)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())

    def _close_log(self, session_id: str) -> None:
        handle = self._logs.pop(session_id, None)
        if handle is not None and not handle.closed:
            handle.close()

    def _write_atomic(self, path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            if self.sync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _remove_generation(self, session_id: str, generation: int) -> None:
        self._remove(self._path(session_id, ".snapshot", generation))
        self._remove(self._path(session_id, ".log", generation))

    def begin(self, session_id: str, open_blob: bytes) -> None:
        self._close_log(session_id)
        self._remove_generation(session_id, self._generation(session_id))
        self._generations.pop(session_id, None)  # fresh history
        self._write_atomic(self._path(session_id, ".meta"), open_blob)
        self._counts[session_id] = 0

    def put_snapshot(self, session_id: str, blob: bytes) -> None:
        old = self._generation(session_id)
        self._write_atomic(self._path(session_id, ".snapshot", old + 1), blob)
        self._generations[session_id] = old + 1
        self._close_log(session_id)
        self._remove_generation(session_id, old)
        self._counts[session_id] = 0

    def append_chunk(self, session_id: str, blob: bytes) -> None:
        self._append(session_id, _REC_CHUNK, blob)
        if session_id in self._counts:
            self._counts[session_id] += 1
        else:
            self.chunk_count(session_id)  # lazy scan includes this append

    def add_delivered(self, session_id: str, n: int) -> None:
        self._append(session_id, _REC_DELIVERED, _DELIVERED_PAYLOAD.pack(int(n)))

    def _read_log(self, session_id: str) -> tuple[list[bytes], int]:
        path = self._path(session_id, ".log")
        chunks: list[bytes] = []
        delivered = 0
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return chunks, delivered
        offset, size = 0, len(data)
        while offset + _LOG_HEADER.size <= size:
            rec_type, length = _LOG_HEADER.unpack_from(data, offset)
            offset += _LOG_HEADER.size
            if offset + length > size:
                break  # half-written trailing record: drop it
            payload = data[offset : offset + length]
            offset += length
            if rec_type == _REC_CHUNK:
                chunks.append(payload)
            elif rec_type == _REC_DELIVERED and length == _DELIVERED_PAYLOAD.size:
                delivered += _DELIVERED_PAYLOAD.unpack(payload)[0]
            else:
                # Skipping a damaged record would silently drop what it
                # held (a chunk, for a flipped type byte).
                raise JournalCorruptError(
                    f"damaged {rec_type!r} record of {length} bytes in {path}"
                )
        return chunks, delivered

    def _read_blob(self, path: str) -> bytes | None:
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def load(self, session_id: str) -> StoredSession | None:
        meta = self._read_blob(self._path(session_id, ".meta"))
        snapshot = self._read_blob(self._path(session_id, ".snapshot"))
        chunks, delivered = self._read_log(session_id)
        if meta is None and snapshot is None and not chunks:
            return None
        return StoredSession(
            open_blob=meta, snapshot=snapshot, chunks=chunks, delivered=delivered
        )

    def chunk_count(self, session_id: str) -> int:
        count = self._counts.get(session_id)
        if count is None:
            count = len(self._read_log(session_id)[0])
            self._counts[session_id] = count
        return count

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def forget(self, session_id: str) -> None:
        self._close_log(session_id)
        self._remove(self._path(session_id, ".meta"))
        self._remove_generation(session_id, self._generation(session_id))
        self._counts.pop(session_id, None)
        self._generations.pop(session_id, None)

    def session_ids(self) -> list[str]:
        tokens: dict[str, None] = {}  # ordered de-dup across files
        for name in sorted(os.listdir(self.root)):
            token, _, kind = _parse_name(name)
            if kind in ("meta", "snapshot", "log"):
                tokens.setdefault(token, None)
        ids = []
        for token in tokens:
            try:
                ids.append(_decode_token(token))
            except (ValueError, UnicodeDecodeError):  # pragma: no cover
                continue  # not one of ours
        return ids

    def close(self) -> None:
        for session_id in list(self._logs):
            self._close_log(session_id)


@dataclass(frozen=True)
class RecoveredSession:
    """Everything :meth:`SessionJournal.recover` knows about a session:
    how it was opened, its last snapshot (if any), the chunks accepted
    since, and how many post-snapshot events the caller already holds
    (replay must skip exactly that prefix)."""

    session_id: str
    open_kwargs: dict | None
    export: SessionExport | None
    chunks: list[np.ndarray]
    delivered: int


class SessionJournal:
    """The write-ahead policy over a :class:`JournalStore`.

    Owns the record encoding and the snapshot cadence; the gateways
    call the hooks (:meth:`open` / :meth:`log_chunk` /
    :meth:`delivered` / :meth:`snapshot` / :meth:`forget`) and
    recovery calls :meth:`recover`.  Chunk records are raw
    little-endian float64 behind a small shape header (no pickle on
    the per-chunk path); :meth:`recover` raises
    :class:`JournalCorruptError` for any other chunk record.
    ``snapshot_every`` bounds replay length: once a session's
    post-snapshot chunk log reaches it, :meth:`wants_snapshot` asks
    the owning gateway for a fresh
    :class:`~repro.serving.gateway.SessionExport`, which truncates the
    log — recovery cost stays O(``snapshot_every``) chunks per session
    no matter how long it lives.
    """

    def __init__(self, store: JournalStore, *, snapshot_every: int = 64):
        validate_at_least("snapshot_every", snapshot_every)
        self.store = store
        self.snapshot_every = int(snapshot_every)

    # -- write-ahead hooks (called by the gateways) ----------------------

    def open(self, session_id: str, open_kwargs: dict | None) -> None:
        """Record a fresh session and how to reopen it."""
        self.store.begin(
            session_id, pickle.dumps(open_kwargs or {}, _PICKLE_PROTOCOL)
        )

    def log_chunk(self, session_id: str, chunk) -> None:
        """Append one accepted chunk (write-ahead: call before the
        chunk is applied / shipped)."""
        self.store.append_chunk(session_id, _encode_chunk(chunk))

    def delivered(self, session_id: str, n: int) -> None:
        """Count events returned to the caller since the last snapshot
        (recovery re-delivers everything *after* this prefix)."""
        if n:
            self.store.add_delivered(session_id, n)

    def snapshot(self, session_id: str, export: SessionExport) -> None:
        """Replace the snapshot; the chunk log and delivered counter
        restart empty (the export subsumes them)."""
        self.store.put_snapshot(
            session_id, pickle.dumps(export, _PICKLE_PROTOCOL)
        )

    def wants_snapshot(self, session_id: str) -> bool:
        """Has the post-snapshot chunk log reached the cadence bound?"""
        return self.store.chunk_count(session_id) >= self.snapshot_every

    def forget(self, session_id: str) -> None:
        """Drop a session that no longer needs recovery (closed,
        evicted, or released to another gateway)."""
        self.store.forget(session_id)

    # -- recovery --------------------------------------------------------

    def recover(self, session_id: str) -> RecoveredSession | None:
        """Load one session's recovery state (``None`` if unknown)."""
        stored = self.store.load(session_id)
        if stored is None:
            return None
        return RecoveredSession(
            session_id=session_id,
            open_kwargs=(
                pickle.loads(stored.open_blob)
                if stored.open_blob is not None
                else None
            ),
            export=(
                pickle.loads(stored.snapshot)
                if stored.snapshot is not None
                else None
            ),
            chunks=[_decode_chunk(blob) for blob in stored.chunks],
            delivered=int(stored.delivered),
        )

    def session_ids(self) -> list[str]:
        """Every journaled session id (survivors of a restart included)."""
        return self.store.session_ids()

    def close(self) -> None:
        self.store.close()


def open_journal(
    path: str,
    backend: str = "file",
    *,
    snapshot_every: int = 64,
    sync: bool = False,
) -> SessionJournal:
    """Build a :class:`SessionJournal` over a named backend.

    ``"file"`` journals into the directory ``path``; ``"memory"``
    ignores ``path``.  The ``repro serve --journal DIR
    --snapshot-every N`` flags map straight onto this.
    """
    if backend == "file":
        store: JournalStore = FileJournalStore(path, sync=sync)
    elif backend == "memory":
        store = MemoryJournalStore()
    else:
        raise ValueError(
            f"journal backend must be one of {JOURNAL_BACKENDS}, got {backend!r}"
        )
    return SessionJournal(store, snapshot_every=snapshot_every)


def _replay(rec: RecoveredSession, gateway) -> list:
    """Rebuild one journaled session on ``gateway``; return the events
    it still owes.

    Imports the snapshot (or re-opens the session), replays the logged
    chunks, forces a flush and polls.  The original flushes rode other
    sessions' shared-clock ticks; a solo replay must force the tail out
    (flush boundaries never change event content — the pinned
    invariance).  Events up to the journal's delivered count were
    already handed out and are skipped, never re-delivered.
    """
    session_id = rec.session_id
    if rec.export is not None:
        gateway.import_session(rec.export, session_id)
    else:
        gateway.open_session(session_id, **(rec.open_kwargs or {}))
    events: list = []
    for chunk in rec.chunks:
        events.extend(gateway.ingest(session_id, chunk))
    flush = getattr(gateway, "flush_batch", None)
    if flush is not None:
        flush()
    events.extend(gateway.poll(session_id))
    if len(events) < rec.delivered:  # pragma: no cover - guard
        raise RuntimeError(
            f"journal replay of session {session_id!r} produced "
            f"{len(events)} events, fewer than the {rec.delivered} "
            "already delivered — journal accounting is broken"
        )
    return events[rec.delivered :]


def recover_sessions(journal: SessionJournal, gateway) -> dict[str, list]:
    """Rebuild every journaled session on a fresh gateway (the
    full-process-restart path, for any gateway tier).

    Each journaled session is replayed through the gateway's public
    surface — the same replay a journaled
    :class:`~repro.serving.sharded.ShardedGateway` runs on a respawned
    worker when it heals a crash.  Returns the per-session events
    *beyond* the journal's delivered count: the backlog the previous
    process accepted but never handed out.

    If ``gateway`` journals into the same journal, the rebuilt
    sessions are re-journaled consistently as a side effect (import
    snapshots, replayed chunk log, delivered counts) — the normal way
    to keep durability across restarts.
    """
    backlog: dict[str, list] = {}
    for session_id in journal.session_ids():
        rec = journal.recover(session_id)
        if rec is not None:  # else forgotten concurrently
            backlog[session_id] = _replay(rec, gateway)
    return backlog
