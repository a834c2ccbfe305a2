"""Seeded byte-mutation fuzzing of the two decoders that read bytes
from outside the process: the wire codec (``FrameDecoder.feed`` +
``decode``) and the file journal's log reader.

Every mutated input must give a value or a typed error —
:class:`~repro.serving.net.protocol.ProtocolError` on the wire,
:class:`~repro.serving.durability.JournalCorruptError` from the log —
and never hang, raise another exception type, or buffer without bound.
Mutations are stdlib-only (:mod:`random`): bit flips, truncation,
splices of two inputs, and length fields overwritten with out-of-range
values.  ``REPRO_CHAOS_SEED`` replays a seed.  Defects the fuzzer
found are pinned below as regression cases, each with its seed.
"""

from __future__ import annotations

import random
import struct
import time

import numpy as np
import pytest

from repro.dsp.delineation import BeatFiducials
from repro.dsp.streaming import StreamBeatEvent
from repro.serving.durability import (
    FileJournalStore,
    JournalCorruptError,
    SessionJournal,
)
from repro.serving.net import protocol as wire

ROUNDS = 2000
MAX_FRAME = 4096
#: A generous bound on one decode; a hang or a quadratic blow-up on a
#: fuzzed input shows up as a case far beyond it.
SLOW_S = 0.5


def corpus() -> list[bytes]:
    """One valid payload of every frame type, the new OK layouts too."""
    fid = BeatFiducials.from_array(np.arange(9) * 3 - 1)
    events = [
        StreamBeatEvent(peak=100, label=0, flagged=False, tx_bytes=2),
        StreamBeatEvent(peak=380, label=1, flagged=True, tx_bytes=20, fiducials=fid),
    ]
    return [
        wire.encode_hello(MAX_FRAME),
        wire.encode_hello_ok(MAX_FRAME),
        wire.encode_open("séance-1", max_latency_ticks=4, evict_after_ticks=9),
        wire.encode_open_ok("s", 3),
        wire.encode_ingest("s", 7, 2, np.linspace(-1.0, 1.0, 12)),
        wire.encode_ingest("s", 8, 2, np.ones((6, 3))),
        wire.encode_poll("s", 4),
        wire.encode_close("s", 4),
        wire.encode_resume("s", 4),
        wire.encode_resume_ok("s", 9, 1),
        wire.encode_migrate("s", 5),
        wire.encode_migrate("s", 5, b"capture-blob"),
        wire.encode_migrate_ok("s", 9, b"capture-blob"),
        wire.encode_migrate_ok("s", 0, n_leads=2),
        wire.encode_stats(),
        wire.encode_stats_ok({"n_sessions": 2, "per_worker": [{"n_queued": 1}]}),
        wire.encode_events([wire.Events("s", 3, 10, wire.FLAG_SYNC, events)]),
        # A round's reply: empty acks, an event-carrying and a FINAL section.
        wire.encode_events([
            wire.Events("a", 5, 0),
            wire.Events("b", 2, 7, 0, events),
            wire.Events("c", 9, 3),
            wire.Events("d", 1, 1, wire.FLAG_FINAL, events[1:]),
        ]),
        wire.encode_error("s", "boom", sync=True),
    ]


def mutate(rng: random.Random, data: bytes, other: bytes) -> bytes:
    """One seeded mutation: flip, truncate, splice or a length field
    overwritten with an out-of-range value."""
    data = bytearray(data)
    kind = rng.randrange(4)
    if kind == 0 and data:
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
    elif kind == 1:
        del data[rng.randrange(len(data) + 1):]
    elif kind == 2:
        data = data[: rng.randrange(len(data) + 1)] + other[rng.randrange(len(other) + 1):]
    elif len(data) >= 3:
        # u16 session-id length, u32 counts and u64 sequence fields all
        # sit at small offsets; overwrite one with a huge value.
        width = rng.choice((2, 4, 8))
        at = rng.randrange(max(1, len(data) - width + 1))
        huge = rng.choice((2 ** (8 * width) - 1, 2 ** (8 * width - 1), len(data) + 1))
        data[at : at + width] = huge.to_bytes(width, "little")[: len(data) - at]
    return bytes(data)


def decode_or_protocol_error(payload: bytes):
    start = time.perf_counter()
    try:
        message = wire.decode(payload)
    except wire.ProtocolError:
        message = None
    assert time.perf_counter() - start < SLOW_S
    return message


@pytest.mark.chaos_seeds(0, 1, 2)
def test_decode_gives_a_message_or_a_protocol_error(chaos_seed):
    rng = random.Random(chaos_seed)
    frames = corpus()
    for frame in frames:  # the unmutated corpus round-trips
        assert decode_or_protocol_error(frame) is not None
    for _ in range(ROUNDS):
        payload = mutate(rng, rng.choice(frames), rng.choice(frames))
        decode_or_protocol_error(payload)


@pytest.mark.chaos_seeds(0, 1, 2)
def test_frame_decoder_stays_bounded(chaos_seed):
    """A mutated byte stream, fed in random pieces: every feed yields
    payloads or raises ``ProtocolError`` (the connection is then
    dropped), and buffers at most one frame."""
    rng = random.Random(chaos_seed)
    frames = [wire.pack_frame(p, MAX_FRAME) for p in corpus()]
    for _ in range(ROUNDS // 10):
        stream = b"".join(rng.choice(frames) for _ in range(rng.randint(1, 6)))
        stream = mutate(rng, stream, rng.choice(frames))
        decoder = wire.FrameDecoder(MAX_FRAME)
        at = 0
        try:
            while at < len(stream):
                step = rng.randint(1, 64)
                for payload in decoder.feed(stream[at : at + step]):
                    assert len(payload) <= MAX_FRAME
                    decode_or_protocol_error(payload)
                at += step
                assert decoder.pending_bytes < 4 + MAX_FRAME
        except wire.ProtocolError:
            pass


def test_non_utf8_session_id_is_a_protocol_error():
    """Regression (seed 0 of ``test_decode_gives_a_message_or_a_protocol_error``):
    a flipped byte inside the session id raised ``UnicodeDecodeError``."""
    payload = bytearray(wire.encode_poll("s", 4))
    payload[3] = 0xFF  # the one id byte, after the opcode and u16 length
    with pytest.raises(wire.ProtocolError, match="session id"):
        wire.decode(bytes(payload))


def test_a_section_count_past_the_body_is_a_protocol_error():
    """The u32 section count of an ``EVENTS`` frame is checked against
    the bytes that follow before any section is read: a count of
    2**32 - 1 over one real section raises at once, with no allocation
    sized by the count."""
    import tracemalloc

    body = wire.encode_events([wire.Events("s", 1, 0)])
    for count in (2, 2**16, 2**32 - 1):
        payload = body[:1] + struct.pack("<I", count) + body[5:]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(wire.ProtocolError, match="sections cannot fit"):
                wire.decode(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < SLOW_S
        assert peak < 64 * 1024


def _journal_log(tmp_path) -> tuple[FileJournalStore, bytes]:
    store = FileJournalStore(str(tmp_path))
    journal = SessionJournal(store, snapshot_every=64)
    journal.open("s", {"max_latency_ticks": 4})
    for i in range(4):
        journal.log_chunk("s", np.full(5 + i, float(i)))
        journal.delivered("s", i + 1)
    store.close()
    with open(store._path("s", ".log"), "rb") as fh:
        return store, fh.read()


@pytest.mark.chaos_seeds(0, 1, 2)
def test_journal_log_reader_gives_records_or_a_corruption_error(
    chaos_seed, tmp_path,
):
    rng = random.Random(chaos_seed)
    store, log = _journal_log(tmp_path)
    assert len(store.load("s").chunks) == 4
    path = store._path("s", ".log")
    for _ in range(ROUNDS // 4):
        with open(path, "wb") as fh:
            fh.write(mutate(rng, log, log))
        start = time.perf_counter()
        try:
            stored = store.load("s")
        except JournalCorruptError:
            continue
        finally:
            assert time.perf_counter() - start < SLOW_S
        assert stored is not None  # the meta file is intact
        assert all(isinstance(blob, bytes) for blob in stored.chunks)
        # A record that loads must also decode: into chunks, or into a
        # corruption error (a mutated chunk header or payload length).
        try:
            recovered = SessionJournal(store).recover("s")
        except JournalCorruptError:
            continue
        assert len(recovered.chunks) == len(stored.chunks)
        assert all(chunk.dtype == np.float64 for chunk in recovered.chunks)


@pytest.mark.parametrize("record", [
    # Regression (seed 0 of the log-reader fuzz): a delivered record
    # whose length field was cut short raised ``struct.error``.
    struct.pack("<cI", b"D", 3) + b"\x01\x02\x03",
    # An unknown record type was skipped silently, dropping whatever
    # the damaged record held (a chunk, for a flipped ``C``).
    struct.pack("<cI", b"X", 2) + b"ab",
])
def test_damaged_log_record_is_a_corruption_error(record, tmp_path):
    store, log = _journal_log(tmp_path)
    with open(store._path("s", ".log"), "wb") as fh:
        fh.write(log + record)
    with pytest.raises(JournalCorruptError):
        store.load("s")


def _chunk_record(payload: bytes) -> bytes:
    return struct.pack("<cI", b"C", len(payload)) + payload


#: One good chunk record (``A``, rank 1, shape (4,), four float64s),
#: then four ways to damage it.
_GOOD_CHUNK = struct.pack("<cBI", b"A", 1, 4) + np.arange(4.0).tobytes()


@pytest.mark.parametrize("payload", [
    # A flipped magic byte was unpickled (``UnpicklingError``).
    b"B" + _GOOD_CHUNK[1:],
    # A 1-byte record raised ``struct.error``.
    b"A",
    # A rank larger than the shape fields raised ``ValueError``.
    struct.pack("<cBI", b"A", 3, 4) + np.arange(4.0).tobytes()[:4],
    # A shape larger than the payload raised ``ValueError`` (reshape).
    struct.pack("<cBI", b"A", 1, 5) + np.arange(4.0).tobytes(),
], ids=["magic", "short", "rank", "shape"])
def test_damaged_chunk_record_is_a_corruption_error(payload, tmp_path):
    store, log = _journal_log(tmp_path)
    journal = SessionJournal(store)
    with open(store._path("s", ".log"), "wb") as fh:
        fh.write(log + _chunk_record(_GOOD_CHUNK))
    np.testing.assert_array_equal(journal.recover("s").chunks[-1], np.arange(4.0))
    with open(store._path("s", ".log"), "wb") as fh:
        fh.write(log + _chunk_record(payload))
    with pytest.raises(JournalCorruptError):
        journal.recover("s")
