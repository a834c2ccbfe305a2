"""In-memory span tracing around the public entry points of each layer.

The wrappers live here, in the benchmark, and are installed onto the
program's classes and modules only for a traced phase; nothing in
``src/`` changes.  A span records its name, start and end
(``perf_counter_ns``), its parent span, the session id it serves and a
work count (samples, beats, rows or bytes).  A layer's self time is
its span minus the time its direct child spans cover.

Spans are taken in the benchmark process only.  On the federated
workload the host and worker processes run untraced; their layers are
read through ``stats()`` counters and the client-side spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, SESSION, COUNT = range(6)


def _len_arg(args, result) -> int:
    return len(args[1])


def _len_result(args, result) -> int:
    return len(result)


def _blocking(args, result) -> int:
    """``_wait_readable(timeout)``: 1 when the call may block."""
    return 1 if args[1] > 0 else 0


def entry_points() -> list[tuple[object, str, str, object, bool]]:
    """``(owner, attribute, span name, work count, carries session id)``
    for every entry point the traced run wraps."""
    from repro.dsp.delineation import StreamingDelineator
    from repro.dsp.streaming import BlockFilter, StreamingNode, StreamingPeakDetector
    from repro.fixedpoint.convert import EmbeddedClassifier
    from repro.serving.analytics import AnalyticsPipeline
    from repro.serving.durability import SessionJournal
    from repro.serving.federation import FederatedGateway
    from repro.serving.gateway import StreamGateway
    from repro.serving.net import protocol
    from repro.serving.net.client import GatewayClient

    points = [
        (BlockFilter, "push", "dsp.filtering", _len_arg, False),
        (StreamingPeakDetector, "push", "dsp.peak_detection", _len_arg, False),
        (StreamingNode, "push", "dsp.node", _len_arg, False),
        (EmbeddedClassifier, "predict", "fixedpoint.classifier", _len_arg, False),
        (StreamGateway, "ingest", "gateway.ingest", _len_arg, True),
        (StreamGateway, "open_session", "gateway.open", None, True),
        (StreamGateway, "close_session", "gateway.close", None, True),
        (AnalyticsPipeline, "update", "analytics.update", _len_arg, False),
        (SessionJournal, "log_chunk", "durability.log_chunk", None, True),
        (SessionJournal, "snapshot", "durability.snapshot", None, True),
        (protocol, "pack_frame", "net.frame", _len_result, False),
        (protocol, "decode", "net.decode", None, False),
        (protocol.FrameDecoder, "feed", "net.decode_feed", _len_arg, False),
        (GatewayClient, "ingest", "net.client.ingest", _len_arg, True),
        (GatewayClient, "_wait_readable", "net.client.wait", _blocking, False),
        (FederatedGateway, "ingest", "federation.ingest", _len_arg, True),
        (FederatedGateway, "open_session", "federation.open", None, True),
        (FederatedGateway, "close_session", "federation.close", None, True),
    ]
    for method in ("push", "add_beat", "add_beats", "flush"):
        points.append((StreamingDelineator, method, "dsp.delineation", _len_result, False))
    for attr in sorted(vars(protocol)):
        if attr.startswith("encode_"):
            points.append((protocol, attr, "net.encode", None, False))
    return points


class Tracer:
    """Collects spans while installed; restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, count, has_session):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if has_session:
                session = args[1]
            else:
                session = spans[parent][SESSION] if parent >= 0 else None
            span = [name, 0, 0, parent, session, 1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> "Tracer":
        for owner, attr, name, count, has_session in entry_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, has_session))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Layers:
    """Totals per span name: calls, work count, total and self time (ns)."""

    def __init__(self, spans: list[list]):
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        for span, children in zip(spans, child_ns):
            name = span[NAME]
            duration = span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count[name] = self.count.get(name, 0) + span[COUNT]
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - children
        # Time the client spent blocked on the socket inside ingest calls.
        self.ingest_wait_ns = 0
        for span in spans:
            if span[NAME] == "net.client.wait" and span[COUNT]:
                parent = span[PARENT]
                if parent >= 0 and spans[parent][NAME] == "net.client.ingest":
                    self.ingest_wait_ns += span[END] - span[START]

    def per(self, name: str, ns: dict, divisor: float, scale: float) -> float:
        """``ns[name]`` per unit of ``divisor``, in ``1 / scale`` ns
        (0 when the layer did not run)."""
        if not divisor:
            return 0.0
        return ns.get(name, 0) / divisor / scale


def layer_metrics(spans: list[list], ecg_seconds: float, replays: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``replays`` traced replays
    of the plan; counts are per replay."""
    L = Layers(spans)
    us, ms = 1e3, 1e6
    calls, count = L.calls, L.count
    frames_out = calls.get("net.frame", 0)
    frames_in = calls.get("net.decode", 0)
    encode_ns = L.total_ns.get("net.encode", 0) + L.total_ns.get("net.frame", 0)
    decode_ns = L.total_ns.get("net.decode", 0) + L.total_ns.get("net.decode_feed", 0)
    wire_bytes = count.get("net.frame", 0) + count.get("net.decode_feed", 0)
    ingest_ns = L.total_ns.get("net.client.ingest", 0)
    return {
        "dsp.filtering.ns_per_sample": L.per(
            "dsp.filtering", L.self_ns, count.get("dsp.filtering", 0), 1.0
        ),
        "dsp.filtering.us_per_call": L.per(
            "dsp.filtering", L.self_ns, calls.get("dsp.filtering", 0), us
        ),
        "dsp.filtering.calls": calls.get("dsp.filtering", 0) / replays,
        "dsp.peak_detection.ns_per_sample": L.per(
            "dsp.peak_detection", L.self_ns, count.get("dsp.peak_detection", 0), 1.0
        ),
        "dsp.peak_detection.us_per_call": L.per(
            "dsp.peak_detection", L.self_ns, calls.get("dsp.peak_detection", 0), us
        ),
        "dsp.delineation.us_per_beat": L.per(
            "dsp.delineation", L.self_ns, count.get("dsp.delineation", 0), us
        ),
        "dsp.node.self_us_per_call": L.per(
            "dsp.node", L.self_ns, calls.get("dsp.node", 0), us
        ),
        "fixedpoint.classifier.us_per_beat": L.per(
            "fixedpoint.classifier", L.self_ns, count.get("fixedpoint.classifier", 0), us
        ),
        "fixedpoint.classifier.beats_per_call": (
            count.get("fixedpoint.classifier", 0) / calls["fixedpoint.classifier"]
            if calls.get("fixedpoint.classifier") else 0.0
        ),
        "gateway.ingest.self_us_per_call": L.per(
            "gateway.ingest", L.self_ns, calls.get("gateway.ingest", 0), us
        ),
        "gateway.open.us_per_session": L.per(
            "gateway.open", L.total_ns, calls.get("gateway.open", 0), us
        ),
        "gateway.close.us_per_session": L.per(
            "gateway.close", L.total_ns, calls.get("gateway.close", 0), us
        ),
        "analytics.update.us_per_beat": L.per(
            "analytics.update", L.self_ns, count.get("analytics.update", 0), us
        ),
        "durability.log_chunk.us_per_chunk": L.per(
            "durability.log_chunk", L.self_ns, calls.get("durability.log_chunk", 0), us
        ),
        "durability.snapshot.us_per_call": L.per(
            "durability.snapshot", L.self_ns, calls.get("durability.snapshot", 0), us
        ),
        "durability.snapshots": calls.get("durability.snapshot", 0) / replays,
        "net.encode.us_per_frame": encode_ns / frames_out / us if frames_out else 0.0,
        "net.decode.us_per_frame": decode_ns / frames_in / us if frames_in else 0.0,
        "net.bytes_per_ecg_s": wire_bytes / ecg_seconds if ecg_seconds else 0.0,
        "net.client.ingest_us_per_call": L.per(
            "net.client.ingest", L.total_ns, calls.get("net.client.ingest", 0), us
        ),
        "net.client.wait_share": L.ingest_wait_ns / ingest_ns if ingest_ns else 0.0,
        "federation.ingest.self_us_per_call": L.per(
            "federation.ingest", L.self_ns, calls.get("federation.ingest", 0), us
        ),
        "federation.open.ms_per_session": L.per(
            "federation.open", L.total_ns, calls.get("federation.open", 0), ms
        ),
        "federation.close.ms_per_session": L.per(
            "federation.close", L.total_ns, calls.get("federation.close", 0), ms
        ),
    }
