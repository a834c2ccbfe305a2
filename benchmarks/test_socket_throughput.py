"""Loopback throughput of the framed socket tier vs its baselines.

Three transports replay the identical fleet schedule (same sessions,
same chunk slices, same gateway configuration) and must produce
bit-identical event sequences:

* **in-process** — ``serve_round_robin`` straight into a
  ``StreamGateway``; the ceiling (no serialization, no syscalls);
* **framed socket** — the same driver through a pipelined
  :class:`~repro.serving.net.client.GatewayClient` against a
  :class:`~repro.serving.net.server.GatewayServer` over loopback TCP
  (zero-copy chunk frames, windowed in-flight chunks, coalesced
  event bursts);
* **pickle RPC** — the transport the framed tier replaces: one
  length-prefixed ``pickle.dumps`` request + blocking reply round-trip
  per chunk over a *fresh TCP connection per call* (the one-shot
  request/reply discipline of a naive HTTP/XML-RPC integration),
  implemented in-test with a threaded server around the same gateway.
  The keep-alive variant of the same baseline (persistent connection,
  still blocking per chunk) is measured too and reported alongside.

Events/sec for all three and the framed client's per-event p50/p99
latency land in ``benchmark.extra_info`` (the ``BENCH_*.json``
artifact).  Under ``REPRO_BENCH_ASSERT_SOCKET=1`` the framed path must
clear 3x the naive pickle baseline and hold >= 0.5x in-process — the
acceptance gates of the zero-copy transport.
"""

import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.ecg.synth import RecordSynthesizer, RhythmConfig, SynthesisConfig
from repro.serving import StreamGateway, replay_fleet, serve_round_robin
from repro.serving.net import GatewayClient, serve_in_thread

_LEN = struct.Struct("<I")
CHUNK_SECONDS = 0.025


@pytest.fixture(scope="module")
def socket_sessions():
    """Four high-rate (~140 bpm) live sessions: enough classification
    work that transport overhead is measured against a busy gateway,
    not an idle one."""
    config = SynthesisConfig(n_leads=1, rhythm=RhythmConfig(mean_rr=0.42))
    return [
        RecordSynthesizer(config, seed=90 + s).synthesize(30.0) for s in range(6)
    ]


def _streams(records):
    return {f"s{i}": record.signal for i, record in enumerate(records)}


def _make_gateway(classifier, fs):
    # Wire-speed serving config (identical for all three transports,
    # so the comparison isolates the wire).
    return StreamGateway(
        classifier, fs, n_leads=1, max_batch=256, max_latency_ticks=256
    )


class PickleRPCServer(threading.Thread):
    """The naive baseline: per-chunk pickle request/reply over TCP.

    Every call pickles ``(op, session_id, payload)``, ships it behind a
    4-byte length prefix, and blocks for the pickled reply — no
    pipelining, no shared framing with the events, a full object
    serialization per chunk.  This is the wire discipline the framed
    protocol replaces.  Connections are served sequentially so the
    same server backs both the connection-per-call and the keep-alive
    client.
    """

    def __init__(self, gateway):
        super().__init__(name="pickle-rpc-server", daemon=True)
        self.gateway = gateway
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(128)
        self.address = self.listener.getsockname()

    @staticmethod
    def _read_msg(sock):
        header = b""
        while len(header) < _LEN.size:
            piece = sock.recv(_LEN.size - len(header))
            if not piece:
                return None
            header += piece
        (length,) = _LEN.unpack(header)
        body = bytearray()
        while len(body) < length:
            piece = sock.recv(length - len(body))
            if not piece:
                return None
            body.extend(piece)
        return pickle.loads(bytes(body))

    @staticmethod
    def _send_msg(sock, obj):
        body = pickle.dumps(obj)
        sock.sendall(_LEN.pack(len(body)) + body)

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with conn:
                while True:
                    request = self._read_msg(conn)
                    if request is None:
                        break
                    op, session_id, payload = request
                    if op == "open":
                        self.gateway.open_session(session_id)
                        result = None
                    elif op == "ingest":
                        result = self.gateway.ingest(session_id, payload)
                    else:
                        result = self.gateway.close_session(session_id)
                    self._send_msg(conn, result)

    def stop(self):
        self.listener.close()


class PickleRPCClient:
    """Blocking per-chunk RPC client; drop-in ``serve_round_robin`` target.

    ``persistent=False`` (the naive default) opens a fresh TCP
    connection for every call, exactly like a one-shot HTTP/XML-RPC
    request; ``persistent=True`` keeps one connection alive — the
    best-case variant of the same blocking discipline.
    """

    def __init__(self, address, persistent=False):
        self.address = address
        self.persistent = persistent
        self.sock = None
        if persistent:
            self.sock = self._connect()

    def _connect(self):
        sock = socket.create_connection(self.address, timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _call(self, op, session_id, payload=None):
        sock = self.sock if self.persistent else self._connect()
        try:
            PickleRPCServer._send_msg(sock, (op, session_id, payload))
            return PickleRPCServer._read_msg(sock)
        finally:
            if not self.persistent:
                sock.close()

    def open_session(self, session_id, **_qos):
        self._call("open", session_id)

    def ingest(self, session_id, chunk):
        return self._call("ingest", session_id, chunk)

    def close_session(self, session_id):
        return self._call("close", session_id)

    def close(self):
        if self.sock is not None:
            self.sock.close()


def _keyed(per_session):
    return {
        sid: [(e.peak, e.label, e.flagged, e.tx_bytes) for e in events]
        for sid, events in per_session.items()
    }


def test_socket_vs_inprocess_vs_pickle_rpc(
    benchmark, bench_embedded_classifier, socket_sessions
):
    records = socket_sessions
    fs = records[0].fs
    chunk = int(CHUNK_SECONDS * fs)
    streams = _streams(records)

    # -- ceiling: the in-process gateway (min of 3) -------------------
    inproc_times = []
    for _ in range(3):
        gateway = _make_gateway(bench_embedded_classifier, fs)
        start = time.perf_counter()
        inproc_events = serve_round_robin(gateway, streams, chunk)
        inproc_times.append(time.perf_counter() - start)
    inproc_s = min(inproc_times)

    # -- baseline: naive pickle-per-chunk RPC -------------------------
    # Two reps each (not three) to bound the TIME_WAIT churn of the
    # connection-per-call variant on loopback.
    def run_pickle(persistent):
        times = []
        events = None
        for _ in range(2):
            server = PickleRPCServer(_make_gateway(bench_embedded_classifier, fs))
            server.start()
            client = PickleRPCClient(server.address, persistent=persistent)
            start = time.perf_counter()
            events = serve_round_robin(client, streams, chunk)
            times.append(time.perf_counter() - start)
            client.close()
            server.stop()
            server.join(timeout=5.0)
        return min(times), events

    pickle_s, pickle_events = run_pickle(persistent=False)
    keepalive_s, keepalive_events = run_pickle(persistent=True)

    # -- the framed socket tier ---------------------------------------
    # The gated timing covers only the replay (server spawn, connect
    # and handshake excluded) so all three transports are measured
    # over the identical region; ``benchmark`` still records the full
    # round for the artifact.
    framed_times = []

    def run_framed():
        handle = serve_in_thread(_make_gateway(bench_embedded_classifier, fs))
        try:
            with GatewayClient(handle.host, handle.port, window=64, send_buffer=1 << 14) as client:
                start = time.perf_counter()
                events = serve_round_robin(client, streams, chunk)
                framed_times.append(time.perf_counter() - start)
                return events
        finally:
            handle.stop()

    framed_events = benchmark.pedantic(run_framed, rounds=4, warmup_rounds=1, iterations=1)
    framed_s = min(framed_times)

    # One contract, all transports: bit-identical event sequences.
    assert _keyed(framed_events) == _keyed(inproc_events)
    assert _keyed(pickle_events) == _keyed(inproc_events)
    assert _keyed(keepalive_events) == _keyed(inproc_events)

    n_events = sum(len(events) for events in framed_events.values())
    assert n_events > 300

    # Per-event latency (chunk ingest -> verdict) of one unpaced
    # framed replay: the artifact carries both axes of the serving SLO.
    handle = serve_in_thread(_make_gateway(bench_embedded_classifier, fs))
    try:
        with GatewayClient(handle.host, handle.port, window=64, send_buffer=1 << 14) as client:
            latency = replay_fleet(client, streams, fs=fs, chunk=chunk)
    finally:
        handle.stop()

    speedup_vs_pickle = pickle_s / framed_s
    ratio_vs_inproc = inproc_s / framed_s
    benchmark.extra_info["n_sessions"] = len(records)
    benchmark.extra_info["n_events"] = n_events
    benchmark.extra_info["inprocess_events_per_s"] = n_events / inproc_s
    benchmark.extra_info["pickle_rpc_events_per_s"] = n_events / pickle_s
    benchmark.extra_info["pickle_keepalive_events_per_s"] = n_events / keepalive_s
    benchmark.extra_info["framed_events_per_s"] = n_events / framed_s
    benchmark.extra_info["speedup_vs_pickle_rpc"] = speedup_vs_pickle
    benchmark.extra_info["ratio_vs_inprocess"] = ratio_vs_inproc
    benchmark.extra_info["latency_p50_ms"] = latency.p50_ms
    benchmark.extra_info["latency_p99_ms"] = latency.p99_ms

    print("\n=== loopback serving transports ===")
    print(f"in-process : {n_events / inproc_s:10.0f} events/s")
    print(f"framed     : {n_events / framed_s:10.0f} events/s "
          f"(p50 {latency.p50_ms:.2f} ms, p99 {latency.p99_ms:.2f} ms)")
    print(f"pickle RPC : {n_events / pickle_s:10.0f} events/s "
          f"(framed is {speedup_vs_pickle:.1f}x)")
    print(f"  keepalive: {n_events / keepalive_s:10.0f} events/s "
          f"(framed is {keepalive_s / framed_s:.1f}x)")

    if os.environ.get("REPRO_BENCH_ASSERT_SOCKET") == "1":
        # The acceptance gates of the zero-copy framed transport: it
        # must bury the naive RPC it replaces and stay within 2x of
        # the no-transport ceiling.
        assert speedup_vs_pickle >= 3.0
        assert ratio_vs_inproc >= 0.5
