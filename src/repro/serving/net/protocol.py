"""Wire protocol of the off-box serving layer: framed binary codec.

The network tier's throughput is decided almost entirely here — by how
cheaply an ingest chunk or an event batch crosses the wire — so the
protocol is designed around zero-copy numpy buffers from the first
byte:

* **Framing**: every message is one *frame* — a 4-byte little-endian
  unsigned length prefix followed by the payload, whose first byte is
  the opcode.  Frames above the negotiated ``max_frame`` are rejected
  (:class:`FrameTooLarge`) before any allocation, so a corrupt or
  hostile length prefix cannot balloon memory.
* **Chunks** (:func:`encode_ingest`): raw ``<f8`` (little-endian
  float64) sample bytes after a 21-byte packed header — no pickle, no
  per-sample Python objects.  ``numpy.frombuffer`` reconstructs the
  array without copying.  Shape is ``(n_samples,)`` or
  ``(n_samples, n_leads)``; dtype and byte order are pinned by the
  protocol, not the host.
* **Event batches** (:func:`encode_events`): one frame holds a list
  of per-session *sections*, each a ``(sid, acked_seq, base_index,
  flags, n, n_fid)`` header plus structure-of-arrays rows — parallel
  ``<i8`` peaks, ``<i4`` labels, ``<u1`` flags and ``<i4`` payload
  sizes, plus a sparse fiducial block (``<u4`` indices into the
  section and 9 ``<i8`` fiducials per flagged beat).  A section with
  no events is only its header and decodes with no numpy call.

Control-plane frames (the federation tier, PR 8): ``MIGRATE`` /
``MIGRATE_OK`` move one live session between hosts over the wire.  A
``MIGRATE`` without a payload asks the server to *release* the session
(the :class:`~repro.serving.gateway.SessionExport` migration path) and
ship its capture back inside ``MIGRATE_OK``; a ``MIGRATE`` carrying
that capture asks a different server to *import* it.  The capture
travels as an opaque blob — pickled only at the server edge (see
:mod:`repro.serving.net.server`; the serving protocol assumes a
trusted cluster network, exactly like the sharded tier's process
pipes).  ``STATS`` / ``STATS_OK`` fetch the remote gateway's
statistics snapshot (JSON — small, infrequent, schema-pinned) so a
front-door router can roll up fleet-wide load.

Reliability fields: every ``INGEST`` carries a per-session sequence
number and every ``EVENTS`` section acknowledges the count of chunks the
server has processed for its session (``acked_seq``) and states the
index of its first event in the session's event stream
(``base_index``).  **Every applied round is acknowledged in one
frame**: the server answers the ``INGEST`` frames it applies together
with one ``EVENTS`` frame holding a section per accepted chunk, empty
when the chunk resolved no events, so a pipelined client's window
drains as fast as the server applies chunks (a refused chunk gets an
asynchronous ``ERROR`` instead).  Together with the client's
piggybacked ``ack_events`` these bound both replay buffers and make
the reconnect-resume handshake (``RESUME`` / ``RESUME_OK``) bit-exact:
the client retransmits exactly the chunks the server never processed,
the server re-sends exactly the events the client never received.

The opcode map, header layouts and the resume handshake are documented
in the README's wire-protocol spec; this module is the single source
of truth for both sides of the connection.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.dsp.delineation import BeatFiducials
from repro.dsp.streaming import StreamBeatEvent

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FLAG_FINAL",
    "FLAG_SYNC",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "Close",
    "Error",
    "Events",
    "FrameDecoder",
    "FrameTooLarge",
    "Hello",
    "HelloOk",
    "Ingest",
    "Migrate",
    "MigrateOk",
    "Open",
    "OpenOk",
    "Poll",
    "ProtocolError",
    "Resume",
    "ResumeOk",
    "Stats",
    "StatsOk",
    "decode",
    "encode_close",
    "encode_error",
    "encode_events",
    "encode_hello",
    "encode_hello_ok",
    "encode_ingest",
    "encode_migrate",
    "encode_migrate_ok",
    "encode_open",
    "encode_open_ok",
    "encode_poll",
    "encode_resume",
    "encode_resume_ok",
    "encode_stats",
    "encode_stats_ok",
    "pack_frame",
]

#: Protocol magic ("RPN1" — Random-Projection Net v1) and version.
PROTOCOL_MAGIC = 0x52504E31
PROTOCOL_VERSION = 2

#: Default bound on one frame's payload size (4 MiB).  A 250 ms chunk
#: of 3-lead 360 Hz float64 signal is ~2 KiB; this leaves three
#: orders of magnitude of headroom while still rejecting a corrupt
#: length prefix before allocation.
DEFAULT_MAX_FRAME = 4 * 1024 * 1024

_LEN = struct.Struct("<I")

# -- opcodes -----------------------------------------------------------------

OP_HELLO = 0x01
OP_HELLO_OK = 0x02
OP_OPEN = 0x10
OP_OPEN_OK = 0x11
OP_INGEST = 0x12
OP_POLL = 0x13
OP_CLOSE = 0x14
OP_RESUME = 0x15
OP_RESUME_OK = 0x16
OP_MIGRATE = 0x17
OP_MIGRATE_OK = 0x18
OP_STATS = 0x19
OP_STATS_OK = 0x1A
OP_EVENTS = 0x20
OP_ERROR = 0x30

#: ``EVENTS`` section flags: ``SYNC`` marks the (exactly one) reply to
#: a ``POLL`` — the client's synchronization barrier — and ``FINAL`` the
#: reply to a ``CLOSE``, carrying the tail of the session's stream.
FLAG_SYNC = 0x01
FLAG_FINAL = 0x02

_HELLO = struct.Struct("<IHQ")  # magic, version, max_frame
_QOS = struct.Struct("<II")  # max_latency_ticks, evict_after_ticks (0 = unset)
_INGEST = struct.Struct("<QQIB")  # seq, ack_events, n_samples, n_leads (0 = 1-D)
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_SECTION = struct.Struct("<QQBII")  # acked_seq, base_index, flags, n, n_fid
_SID_LEN = struct.Struct("<H")

_N_FIDUCIALS = 9


class ProtocolError(ValueError):
    """A frame or payload that violates the wire protocol."""


class FrameTooLarge(ProtocolError):
    """A frame whose declared length exceeds the negotiated bound."""


# -- message types -----------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    max_frame: int
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class HelloOk:
    max_frame: int
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Open:
    session_id: str
    max_latency_ticks: int | None = None
    evict_after_ticks: int | None = None


@dataclass(frozen=True)
class OpenOk:
    """Reply to ``OPEN``.  ``n_leads`` is the gateway's lead count
    (``0`` = unknown), so the client checks chunk shapes itself."""

    session_id: str
    n_leads: int = 0


@dataclass(frozen=True)
class Ingest:
    session_id: str
    seq: int
    ack_events: int
    chunk: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Poll:
    session_id: str
    ack_events: int


@dataclass(frozen=True)
class Close:
    session_id: str
    ack_events: int


@dataclass(frozen=True)
class Resume:
    session_id: str
    ack_events: int


@dataclass(frozen=True)
class ResumeOk:
    session_id: str
    next_seq: int
    n_leads: int = 0


@dataclass(frozen=True)
class Migrate:
    """Cross-host session migration, both directions.

    ``blob is None`` — *capture* request: release the session and
    return its export inside ``MIGRATE_OK``.  ``ack_events`` is the
    client's event count at request time; events delivered beyond it
    (sent but unacknowledged) are folded back into the export so the
    importing host replays them.

    ``blob`` set — *import* request: adopt the shipped capture;
    ``ack_events`` must be the value the capture was taken at (the
    importing server's delivery index starts there, so the client-side
    dedupe seam lines up across hosts).
    """

    session_id: str
    ack_events: int
    blob: bytes | None = field(repr=False, default=None)


@dataclass(frozen=True)
class MigrateOk:
    """Reply to ``MIGRATE``: the capture (release) or an ack (import).

    ``next_seq`` is the chunk sequence the releasing server had
    processed up to (every pipelined chunk before the ``MIGRATE`` —
    FIFO — so the client's replay buffer is empty by construction);
    ``0`` on an import ack, where the adopted session's chunk
    numbering restarts.  ``n_leads`` is the gateway's lead count, set
    on an import ack (``0`` = unknown).
    """

    session_id: str
    next_seq: int
    blob: bytes = field(repr=False, default=b"")
    n_leads: int = 0


@dataclass(frozen=True)
class Stats:
    """Request the remote gateway's statistics snapshot."""


@dataclass(frozen=True)
class StatsOk:
    """The remote gateway's ``stats()`` dict (JSON on the wire)."""

    stats: dict = field(repr=False, default_factory=dict)


class Events(NamedTuple):
    """One session's section of an ``EVENTS`` frame, which decodes to a
    list of them (a tuple: an empty ack costs no dataclass set-up)."""

    session_id: str
    acked_seq: int
    base_index: int
    flags: int = 0
    events: Sequence[StreamBeatEvent] = ()

    @property
    def sync(self) -> bool:
        return bool(self.flags & FLAG_SYNC)

    @property
    def final(self) -> bool:
        return bool(self.flags & FLAG_FINAL)


@dataclass(frozen=True)
class Error:
    session_id: str
    sync: bool
    message: str


# -- framing -----------------------------------------------------------------


def pack_frame(payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Prefix one payload with its little-endian length."""
    if len(payload) > max_frame:
        raise FrameTooLarge(
            f"frame payload of {len(payload)} bytes exceeds max_frame={max_frame}"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for a byte stream (the sync client side).

    Feed it whatever the socket produced; it yields complete payloads
    and buffers the remainder.  A declared length above ``max_frame``
    raises :class:`FrameTooLarge` immediately — before the oversized
    body is ever buffered.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = int(max_frame)
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every now-complete frame payload."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buffer)
            if length > self.max_frame:
                raise FrameTooLarge(
                    f"incoming frame of {length} bytes exceeds "
                    f"max_frame={self.max_frame}"
                )
            if len(self._buffer) < _LEN.size + length:
                return frames
            frames.append(bytes(self._buffer[_LEN.size : _LEN.size + length]))
            del self._buffer[: _LEN.size + length]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


# -- encoding ----------------------------------------------------------------


def _encode_sid(session_id: str) -> bytes:
    raw = session_id.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError("session id longer than 65535 bytes")
    return _SID_LEN.pack(len(raw)) + raw


def encode_hello(max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    return bytes([OP_HELLO]) + _HELLO.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, max_frame)


def encode_hello_ok(max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    return bytes([OP_HELLO_OK]) + _HELLO.pack(
        PROTOCOL_MAGIC, PROTOCOL_VERSION, max_frame
    )


def encode_open(
    session_id: str,
    *,
    max_latency_ticks: int | None = None,
    evict_after_ticks: int | None = None,
) -> bytes:
    return (
        bytes([OP_OPEN])
        + _encode_sid(session_id)
        + _QOS.pack(max_latency_ticks or 0, evict_after_ticks or 0)
    )


def encode_open_ok(session_id: str, n_leads: int = 0) -> bytes:
    return bytes([OP_OPEN_OK]) + _encode_sid(session_id) + bytes([n_leads])


def encode_ingest(session_id: str, seq: int, ack_events: int, chunk) -> bytes:
    """One ingest chunk as raw little-endian float64 sample bytes.

    The dtype and byte order are pinned by the protocol — any input is
    converted to ``<f8`` here (a no-op copy-wise on little-endian
    hosts with float64 input), so both peers agree bit-for-bit on the
    samples regardless of host endianness.
    """
    arr = np.ascontiguousarray(chunk, dtype="<f8")
    if arr.ndim == 1:
        n_leads = 0
    elif arr.ndim == 2:
        n_leads = arr.shape[1]
        if not 1 <= n_leads <= 0xFF:
            raise ProtocolError(f"n_leads must be in [1, 255], got {n_leads}")
    else:
        raise ProtocolError(f"chunk must be 1-D or 2-D, got ndim={arr.ndim}")
    return (
        bytes([OP_INGEST])
        + _encode_sid(session_id)
        + _INGEST.pack(seq, ack_events, arr.shape[0], n_leads)
        + arr.tobytes()
    )


def encode_poll(session_id: str, ack_events: int) -> bytes:
    return bytes([OP_POLL]) + _encode_sid(session_id) + _U64.pack(ack_events)


def encode_close(session_id: str, ack_events: int) -> bytes:
    return bytes([OP_CLOSE]) + _encode_sid(session_id) + _U64.pack(ack_events)


def encode_resume(session_id: str, ack_events: int) -> bytes:
    return bytes([OP_RESUME]) + _encode_sid(session_id) + _U64.pack(ack_events)


def encode_resume_ok(session_id: str, next_seq: int, n_leads: int = 0) -> bytes:
    return (
        bytes([OP_RESUME_OK])
        + _encode_sid(session_id)
        + _U64.pack(next_seq)
        + bytes([n_leads])
    )


def encode_migrate(session_id: str, ack_events: int, blob: bytes | None = None) -> bytes:
    """Capture request (``blob=None``) or import request (``blob`` set)."""
    has_blob = blob is not None
    return (
        bytes([OP_MIGRATE])
        + _encode_sid(session_id)
        + _U64.pack(ack_events)
        + bytes([1 if has_blob else 0])
        + (blob if has_blob else b"")
    )


def encode_migrate_ok(
    session_id: str, next_seq: int, blob: bytes = b"", *, n_leads: int = 0
) -> bytes:
    return (
        bytes([OP_MIGRATE_OK])
        + _encode_sid(session_id)
        + _U64.pack(next_seq)
        + bytes([n_leads])
        + blob
    )


def encode_stats() -> bytes:
    return bytes([OP_STATS])


def encode_stats_ok(stats: dict) -> bytes:
    return bytes([OP_STATS_OK]) + json.dumps(
        stats, separators=(",", ":")
    ).encode("utf-8")


def encode_events(sections: list[Events]) -> bytes:
    """One ``EVENTS`` frame of per-session sections, each a header plus
    its events as parallel packed arrays (nothing more when empty)."""
    parts = [bytes([OP_EVENTS]), _U32.pack(len(sections))]
    for section in sections:
        events = section.events
        n = len(events)
        fid_idx = [i for i, e in enumerate(events) if e.fiducials is not None]
        parts += (
            _encode_sid(section.session_id),
            _SECTION.pack(
                section.acked_seq, section.base_index, section.flags, n, len(fid_idx)
            ),
        )
        if not n:
            continue
        parts += (
            np.fromiter((e.peak for e in events), dtype="<i8", count=n).tobytes(),
            np.fromiter((e.label for e in events), dtype="<i4", count=n).tobytes(),
            np.fromiter((e.flagged for e in events), dtype="<u1", count=n).tobytes(),
            np.fromiter((e.tx_bytes for e in events), dtype="<i4", count=n).tobytes(),
            np.asarray(fid_idx, dtype="<u4").tobytes(),
        )
        if fid_idx:
            fid = np.stack([events[i].fiducials.as_array() for i in fid_idx])
            parts.append(np.ascontiguousarray(fid, dtype="<i8").tobytes())
    return b"".join(parts)


def encode_error(session_id: str, message: str, *, sync: bool = False) -> bytes:
    return (
        bytes([OP_ERROR])
        + _encode_sid(session_id)
        + bytes([1 if sync else 0])
        + message.encode("utf-8")
    )


# -- decoding ----------------------------------------------------------------


class _Cursor:
    """Bounds-checked reader over one frame payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"truncated payload: wanted {n} bytes at offset {self.pos}, "
                f"frame has {len(self.data)}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def sid(self) -> str:
        (length,) = self.unpack(_SID_LEN)
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"session id is not UTF-8: {exc}") from None

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _decode_hello(cursor: _Cursor, ok: bool):
    magic, version, max_frame = cursor.unpack(_HELLO)
    cursor.done()
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad protocol magic 0x{magic:08x}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    cls = HelloOk if ok else Hello
    return cls(max_frame=max_frame, version=version)


def _decode_array(cursor: _Cursor, dtype: str, n: int) -> np.ndarray:
    itemsize = np.dtype(dtype).itemsize
    return np.frombuffer(cursor.take(n * itemsize), dtype=dtype)


#: Bytes of the smallest section: an empty id and a bare header.
_MIN_SECTION = _SID_LEN.size + _SECTION.size


def _decode_events(cursor: _Cursor) -> list[Events]:
    (count,) = cursor.unpack(_U32)
    if count * _MIN_SECTION > len(cursor.data) - cursor.pos:
        raise ProtocolError(
            f"{count} sections cannot fit in {len(cursor.data) - cursor.pos} bytes"
        )
    sections = []
    for _ in range(count):
        session_id = cursor.sid()
        acked_seq, base_index, flags, n, n_fid = cursor.unpack(_SECTION)
        if n_fid > n:
            raise ProtocolError(f"fiducial count {n_fid} exceeds event count {n}")
        events = []
        if n:  # an empty ack is only its header: no numpy call
            peaks = _decode_array(cursor, "<i8", n).tolist()
            labels = _decode_array(cursor, "<i4", n).tolist()
            flagged = _decode_array(cursor, "<u1", n).tolist()
            tx = _decode_array(cursor, "<i4", n).tolist()
            fid_idx = _decode_array(cursor, "<u4", n_fid).tolist()
            fid = _decode_array(cursor, "<i8", n_fid * _N_FIDUCIALS)
            rows = map(BeatFiducials.from_array, fid.reshape(n_fid, _N_FIDUCIALS))
            fiducials = dict(zip(fid_idx, rows))
            events = [
                StreamBeatEvent(peak=peaks[i], label=labels[i], flagged=bool(flagged[i]),
                                tx_bytes=tx[i], fiducials=fiducials.get(i))
                for i in range(n)
            ]
        sections.append(Events(session_id, acked_seq, base_index, flags, events))
    cursor.done()
    return sections


#: The requests that carry only a session id and its ``ack_events``.
_ACK_REQUESTS = {OP_POLL: Poll, OP_CLOSE: Close, OP_RESUME: Resume}


def decode(payload: bytes):
    """Decode one frame payload into its message object (an ``EVENTS``
    frame into its list of :class:`Events` sections)."""
    if not payload:
        raise ProtocolError("empty frame payload")
    op = payload[0]
    cursor = _Cursor(payload, 1)
    if op == OP_EVENTS:  # the hottest frame a client reads
        return _decode_events(cursor)
    if op == OP_HELLO:
        return _decode_hello(cursor, ok=False)
    if op == OP_HELLO_OK:
        return _decode_hello(cursor, ok=True)
    if op == OP_OPEN:
        session_id = cursor.sid()
        mlt, eat = cursor.unpack(_QOS)
        cursor.done()
        return Open(
            session_id=session_id,
            max_latency_ticks=mlt or None,
            evict_after_ticks=eat or None,
        )
    if op == OP_OPEN_OK:
        session_id = cursor.sid()
        (n_leads,) = cursor.take(1)
        cursor.done()
        return OpenOk(session_id=session_id, n_leads=n_leads)
    if op == OP_INGEST:
        session_id = cursor.sid()
        seq, ack_events, n_samples, n_leads = cursor.unpack(_INGEST)
        width = max(1, n_leads)
        chunk = _decode_array(cursor, "<f8", n_samples * width)
        cursor.done()
        if n_leads:
            chunk = chunk.reshape(n_samples, n_leads)
        return Ingest(
            session_id=session_id, seq=seq, ack_events=ack_events, chunk=chunk
        )
    if op in _ACK_REQUESTS:
        session_id = cursor.sid()
        (ack_events,) = cursor.unpack(_U64)
        cursor.done()
        return _ACK_REQUESTS[op](session_id=session_id, ack_events=ack_events)
    if op == OP_RESUME_OK:
        session_id = cursor.sid()
        (next_seq,) = cursor.unpack(_U64)
        (n_leads,) = cursor.take(1)
        cursor.done()
        return ResumeOk(session_id=session_id, next_seq=next_seq, n_leads=n_leads)
    if op == OP_MIGRATE:
        session_id = cursor.sid()
        (ack_events,) = cursor.unpack(_U64)
        (has_blob,) = cursor.take(1)
        if has_blob:
            return Migrate(
                session_id=session_id, ack_events=ack_events, blob=cursor.rest()
            )
        cursor.done()
        return Migrate(session_id=session_id, ack_events=ack_events, blob=None)
    if op == OP_MIGRATE_OK:
        session_id = cursor.sid()
        (next_seq,) = cursor.unpack(_U64)
        (n_leads,) = cursor.take(1)
        return MigrateOk(
            session_id=session_id, next_seq=next_seq, blob=cursor.rest(), n_leads=n_leads
        )
    if op == OP_STATS:
        cursor.done()
        return Stats()
    if op == OP_STATS_OK:
        raw = cursor.rest()
        try:
            stats = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed STATS_OK payload: {exc}") from None
        if not isinstance(stats, dict):
            raise ProtocolError("STATS_OK payload is not a JSON object")
        return StatsOk(stats=stats)
    if op == OP_ERROR:
        session_id = cursor.sid()
        (sync,) = cursor.take(1)
        return Error(
            session_id=session_id,
            sync=bool(sync),
            message=cursor.rest().decode("utf-8", errors="replace"),
        )
    raise ProtocolError(f"unknown opcode 0x{op:02x}")
