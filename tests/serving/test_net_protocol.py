"""Codec tests for the wire protocol: round-trips, pinning, rejection.

Every message type must survive encode -> frame -> decode unchanged;
chunk payloads must be dtype/endianness-pinned regardless of the input
array's flavor; and corrupt input — oversized length prefixes,
truncated payloads, trailing bytes, unknown opcodes — must be rejected
with :class:`~repro.serving.net.protocol.ProtocolError` before it can
do damage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.delineation import BeatFiducials
from repro.dsp.streaming import StreamBeatEvent
from repro.serving.net import protocol as wire


def roundtrip(payload: bytes):
    """encode -> frame -> deframe -> decode, the full wire path."""
    decoder = wire.FrameDecoder()
    frames = decoder.feed(wire.pack_frame(payload))
    assert len(frames) == 1 and decoder.pending_bytes == 0
    return wire.decode(frames[0])


def make_event(i: int, with_fiducials: bool) -> StreamBeatEvent:
    fiducials = (
        BeatFiducials.from_array(np.arange(9, dtype=np.int64) * 7 + i)
        if with_fiducials
        else None
    )
    return StreamBeatEvent(
        peak=100 * i + 3,
        label=i % 3,
        flagged=bool(i % 2),
        tx_bytes=11 + i,
        fiducials=fiducials,
    )


class TestControlRoundTrips:
    def test_hello(self):
        message = roundtrip(wire.encode_hello(123456))
        assert isinstance(message, wire.Hello)
        assert message.max_frame == 123456
        assert message.version == wire.PROTOCOL_VERSION

    def test_hello_ok(self):
        message = roundtrip(wire.encode_hello_ok(777))
        assert isinstance(message, wire.HelloOk)
        assert message.max_frame == 777

    def test_open_plain(self):
        message = roundtrip(wire.encode_open("wearable-17"))
        assert message == wire.Open("wearable-17", None, None)

    def test_open_with_qos(self):
        message = roundtrip(
            wire.encode_open("s", max_latency_ticks=4, evict_after_ticks=9)
        )
        assert message == wire.Open("s", 4, 9)

    def test_open_ok(self):
        assert roundtrip(wire.encode_open_ok("s")) == wire.OpenOk("s")

    @pytest.mark.parametrize("encoder,cls", [
        (wire.encode_poll, wire.Poll),
        (wire.encode_close, wire.Close),
        (wire.encode_resume, wire.Resume),
    ])
    def test_ack_carriers(self, encoder, cls):
        message = roundtrip(encoder("sid", 42))
        assert message == cls("sid", 42)

    def test_resume_ok(self):
        assert roundtrip(wire.encode_resume_ok("s", 9)) == wire.ResumeOk("s", 9)

    def test_ok_frames_carry_the_lead_count(self):
        """``OPEN_OK``, ``RESUME_OK`` and the import ``MIGRATE_OK`` tell
        the client the session's lead count (0 = unknown)."""
        assert roundtrip(wire.encode_open_ok("s", 3)) == wire.OpenOk("s", 3)
        assert roundtrip(wire.encode_resume_ok("s", 9, 2)) == wire.ResumeOk("s", 9, 2)
        imported = roundtrip(wire.encode_migrate_ok("s", 0, n_leads=12))
        assert (imported.next_seq, imported.blob, imported.n_leads) == (0, b"", 12)
        taken = roundtrip(wire.encode_migrate_ok("s", 4, b"capture"))
        assert (taken.blob, taken.n_leads) == (b"capture", 0)

    def test_error_sync_and_async(self):
        sync = roundtrip(wire.encode_error("s", "boom", sync=True))
        assert sync == wire.Error("s", True, "boom")
        parked = roundtrip(wire.encode_error("s", "later", sync=False))
        assert parked == wire.Error("s", False, "later")

    def test_unicode_session_id(self):
        message = roundtrip(wire.encode_poll("séance-42", 0))
        assert message.session_id == "séance-42"


class TestIngestCodec:
    def test_one_dimensional(self):
        chunk = np.linspace(-1.0, 1.0, 64)
        message = roundtrip(wire.encode_ingest("s", 3, 17, chunk))
        assert isinstance(message, wire.Ingest)
        assert (message.seq, message.ack_events) == (3, 17)
        assert message.chunk.ndim == 1
        np.testing.assert_array_equal(message.chunk, chunk)

    def test_two_dimensional(self):
        chunk = np.arange(30, dtype=float).reshape(10, 3)
        message = roundtrip(wire.encode_ingest("s", 0, 0, chunk))
        assert message.chunk.shape == (10, 3)
        np.testing.assert_array_equal(message.chunk, chunk)

    def test_zero_length_chunk(self):
        message = roundtrip(wire.encode_ingest("s", 5, 2, np.empty(0)))
        assert message.chunk.shape == (0,)
        assert message.seq == 5

    def test_dtype_is_pinned_to_le_float64(self):
        # Whatever flavor the producer holds — float32, int, or a
        # big-endian float64 — the wire carries <f8 and the decoded
        # values match bit-for-bit after the float64 conversion.
        for source in (
            np.arange(8, dtype=np.float32),
            np.arange(8, dtype=np.int16),
            np.arange(8, dtype=">f8"),
        ):
            message = roundtrip(wire.encode_ingest("s", 0, 0, source))
            assert message.chunk.dtype == np.dtype("<f8")
            np.testing.assert_array_equal(
                message.chunk, np.asarray(source, dtype="<f8")
            )

    def test_wire_bytes_are_raw_samples(self):
        # Zero-copy contract: the payload tail IS arr.tobytes() — no
        # pickle framing around the samples.
        chunk = np.arange(16, dtype="<f8")
        payload = wire.encode_ingest("sid", 1, 2, chunk)
        assert payload.endswith(chunk.tobytes())

    def test_non_contiguous_input(self):
        base = np.arange(40, dtype=float)
        view = base[::2]
        message = roundtrip(wire.encode_ingest("s", 0, 0, view))
        np.testing.assert_array_equal(message.chunk, view)

    def test_three_dimensional_rejected(self):
        with pytest.raises(wire.ProtocolError, match="1-D or 2-D"):
            wire.encode_ingest("s", 0, 0, np.zeros((2, 2, 2)))

    def test_too_many_leads_rejected(self):
        with pytest.raises(wire.ProtocolError, match="n_leads"):
            wire.encode_ingest("s", 0, 0, np.zeros((4, 256)))


class TestEventsCodec:
    def test_round_trip_mixed_fiducials(self):
        events = [make_event(i, with_fiducials=(i % 2 == 0)) for i in range(7)]
        (message,) = roundtrip(
            wire.encode_events([wire.Events("s", 12, 30, wire.FLAG_SYNC, events)])
        )
        assert isinstance(message, wire.Events)
        assert (message.acked_seq, message.base_index) == (12, 30)
        assert message.sync and not message.final
        assert len(message.events) == len(events)
        for original, decoded in zip(events, message.events):
            assert (original.peak, original.label, original.flagged,
                    original.tx_bytes) == (
                decoded.peak, decoded.label, decoded.flagged, decoded.tx_bytes
            )
            if original.fiducials is None:
                assert decoded.fiducials is None
            else:
                np.testing.assert_array_equal(
                    original.fiducials.as_array(), decoded.fiducials.as_array()
                )

    def test_empty_batch(self):
        (message,) = roundtrip(wire.encode_events([wire.Events("s", 0, 0)]))
        assert message.events == [] and not message.sync and not message.final

    def test_final_flag(self):
        (message,) = roundtrip(
            wire.encode_events([wire.Events("s", 1, 2, wire.FLAG_FINAL)])
        )
        assert message.final and not message.sync

    def test_sections_keep_their_order_headers_and_events(self):
        """A round's frame: empty acks, an event-carrying section and a
        ``FINAL`` one, each decoded with its own header."""
        events = [make_event(i, with_fiducials=(i == 1)) for i in range(3)]
        sent = [
            wire.Events("quiet", 4, 10),
            wire.Events("busy", 7, 20, 0, events),
            wire.Events("séance", 2, 0),
            wire.Events("ending", 9, 5, wire.FLAG_FINAL, events[:1]),
        ]
        got = roundtrip(wire.encode_events(sent))
        assert [s[:4] for s in got] == [s[:4] for s in sent]
        assert [len(s.events) for s in got] == [0, 3, 0, 1]
        assert [e.peak for e in got[1].events] == [e.peak for e in events]
        assert [e.fiducials is None for e in got[1].events] == [True, False, True]
        assert got[3].final and not any(s.final for s in got[:3])

    def test_no_sections(self):
        assert roundtrip(wire.encode_events([])) == []


class TestFraming:
    def test_decoder_handles_byte_by_byte_delivery(self):
        payloads = [wire.encode_poll("a", 1), wire.encode_open_ok("b")]
        stream = b"".join(wire.pack_frame(p) for p in payloads)
        decoder = wire.FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == payloads
        assert decoder.pending_bytes == 0

    def test_decoder_handles_many_frames_in_one_feed(self):
        payloads = [wire.encode_poll(f"s{i}", i) for i in range(5)]
        stream = b"".join(wire.pack_frame(p) for p in payloads)
        assert wire.FrameDecoder().feed(stream) == payloads

    def test_decoder_buffers_partial_frame(self):
        frame = wire.pack_frame(wire.encode_poll("s", 0))
        decoder = wire.FrameDecoder()
        assert decoder.feed(frame[:-3]) == []
        assert decoder.pending_bytes == len(frame) - 3
        assert decoder.feed(frame[-3:]) == [frame[4:]]

    def test_oversized_length_prefix_rejected_before_buffering(self):
        decoder = wire.FrameDecoder(max_frame=64)
        with pytest.raises(wire.FrameTooLarge):
            decoder.feed((1 << 20).to_bytes(4, "little"))

    def test_pack_frame_rejects_oversized_payload(self):
        with pytest.raises(wire.FrameTooLarge):
            wire.pack_frame(b"x" * 65, max_frame=64)

    def test_max_frame_bounds_ingest_chunks(self):
        # A chunk bigger than the negotiated bound must be rejected at
        # the sender, not silently shipped.
        payload = wire.encode_ingest("s", 0, 0, np.zeros(1024))
        with pytest.raises(wire.FrameTooLarge):
            wire.pack_frame(payload, max_frame=512)


class TestDecodeRejection:
    def test_empty_payload(self):
        with pytest.raises(wire.ProtocolError, match="empty"):
            wire.decode(b"")

    def test_unknown_opcode(self):
        with pytest.raises(wire.ProtocolError, match="unknown opcode"):
            wire.decode(bytes([0x7F]))

    def test_bad_magic(self):
        payload = bytearray(wire.encode_hello())
        payload[1] ^= 0xFF
        with pytest.raises(wire.ProtocolError, match="magic"):
            wire.decode(bytes(payload))

    def test_bad_version(self):
        import struct

        payload = bytes([0x01]) + struct.Struct("<IHQ").pack(
            wire.PROTOCOL_MAGIC, wire.PROTOCOL_VERSION + 1, 1024
        )
        with pytest.raises(wire.ProtocolError, match="version"):
            wire.decode(payload)

    def test_truncated_payload(self):
        payload = wire.encode_ingest("s", 0, 0, np.arange(8.0))
        with pytest.raises(wire.ProtocolError, match="truncated"):
            wire.decode(payload[:-5])

    def test_trailing_bytes(self):
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.decode(wire.encode_poll("s", 0) + b"\x00")

    def test_fiducial_count_exceeding_events(self):
        import struct

        payload = (
            bytes([0x20])
            + struct.Struct("<I").pack(1)
            + struct.Struct("<H").pack(1) + b"s"
            + struct.Struct("<QQBII").pack(0, 0, 0, 1, 2)
        )
        with pytest.raises(wire.ProtocolError, match="fiducial"):
            wire.decode(payload)


class TestFederationFrames:
    """The cross-host control plane: MIGRATE / MIGRATE_OK / STATS."""

    def test_migrate_capture_request(self):
        message = roundtrip(wire.encode_migrate("wearable-3", 42))
        assert isinstance(message, wire.Migrate)
        assert (message.session_id, message.ack_events) == ("wearable-3", 42)
        assert message.blob is None

    def test_migrate_import_request(self):
        blob = b"\x00\x01pickled-export\xff" * 3
        message = roundtrip(wire.encode_migrate("s", 7, blob))
        assert message.blob == blob
        assert (message.session_id, message.ack_events) == ("s", 7)

    def test_migrate_empty_blob_is_an_import(self):
        """b'' means 'import this (empty) capture', not 'capture'."""
        message = roundtrip(wire.encode_migrate("s", 0, b""))
        assert message.blob == b""
        assert roundtrip(wire.encode_migrate("s", 0)).blob is None

    def test_migrate_ok_with_and_without_blob(self):
        taken = roundtrip(wire.encode_migrate_ok("s", 9, b"capture"))
        assert isinstance(taken, wire.MigrateOk)
        assert (taken.session_id, taken.next_seq, taken.blob) == ("s", 9, b"capture")
        imported = roundtrip(wire.encode_migrate_ok("s", 0))
        assert imported.blob == b""

    def test_stats_round_trip(self):
        assert isinstance(roundtrip(wire.encode_stats()), wire.Stats)

    def test_stats_ok_carries_nested_rollup(self):
        stats = {
            "n_sessions": 3,
            "per_host": [{"n_sessions": 2, "n_queued": 0}, {"n_sessions": 1}],
            "migrations": 7,
        }
        message = roundtrip(wire.encode_stats_ok(stats))
        assert isinstance(message, wire.StatsOk)
        assert message.stats == stats

    def test_stats_ok_rejects_malformed_json(self):
        with pytest.raises(wire.ProtocolError, match="STATS_OK"):
            wire.decode(bytes([0x1A]) + b"{not json")

    def test_stats_ok_rejects_non_object(self):
        with pytest.raises(wire.ProtocolError, match="JSON object"):
            wire.decode(bytes([0x1A]) + b"[1,2,3]")

    def test_migrate_truncated_rejected(self):
        payload = wire.encode_migrate("session", 1)
        with pytest.raises(wire.ProtocolError):
            wire.decode(payload[:-3])

    def test_stats_trailing_bytes_rejected(self):
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.decode(wire.encode_stats() + b"\x00")
