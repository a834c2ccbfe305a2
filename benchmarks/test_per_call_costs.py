"""Per-call costs of the node's back end, recorded and never asserted.

Every gateway flush makes one classifier ``predict`` over the flushed
beats and one ``StreamingNode.deliver_rows`` call that delineates the
flagged ones; every session close also ends the node's stream.  These
calls have a fixed cost per call on top of their per-beat work, and on
a fleet of few-beat flushes the fixed part dominates.  This module
times each call on its own, the way the paper budgets the node's cycles
per stage, so the benchmark JSON carries the numbers (``us_per_call``
and friends in ``extra_info``):

* ``EmbeddedClassifier.predict`` on 1 and on 64 beats;
* a one-session ``StreamingNode.deliver_rows`` of the labels a flush
  brings back;
* a ``StreamGateway.close_session`` of a churn-length session (30 s of
  ECG fed in 250 ms chunks, as the ``wire-churn`` workload feeds it).

Each figure is the fastest of its rounds; the state a call consumes
is rebuilt untimed before every round (the benchmark's ``setup``).
Nothing is asserted: the numbers move with the host, and the
bit-exactness suites pin what these calls return.
"""

import numpy as np
import pytest

from repro.dsp.streaming import StreamingNode
from repro.serving import StreamGateway, synthesize_fleet

FS = 360.0

#: Samples per ingest of the churn session (250 ms, as ``wire-churn``).
CHUNK = 90


@pytest.fixture(scope="module")
def churn_stream():
    streams, _ = synthesize_fleet(1, 30.0, fs=FS, seed=5)
    return next(iter(streams.values()))


@pytest.mark.parametrize("n_beats", [1, 64])
def test_predict_per_call(benchmark, bench_embedded_classifier, n_beats):
    rng = np.random.default_rng(0)
    beats = rng.integers(-400, 400, size=(n_beats, bench_embedded_classifier.n_inputs))
    benchmark(bench_embedded_classifier.predict, beats)
    benchmark.extra_info["n_beats"] = n_beats
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.min * 1e6
    benchmark.extra_info["us_per_beat"] = benchmark.stats.stats.min * 1e6 / n_beats


def test_deliver_rows_one_session(benchmark, bench_embedded_classifier, churn_stream):
    """One session's delivery: the labels of the beats its node
    extracted over the first 20 s, as one flush hands them back."""
    node = StreamingNode(bench_embedded_classifier, FS, defer_classification=True)
    for i in range(0, int(20 * FS), CHUNK):
        node.push(churn_stream[i : i + CHUNK])
    snapshot = node.snapshot()
    pending = node.take_pending()
    labels = bench_embedded_classifier.predict(np.stack([row for _, row in pending]))

    def prepare():
        restored = StreamingNode.restore(bench_embedded_classifier, snapshot)
        handles = [handle for handle, _ in restored.take_pending()]
        return ([restored], [list(zip(handles, labels))]), {}

    benchmark.pedantic(StreamingNode.deliver_rows, setup=prepare, rounds=30)
    benchmark.extra_info["n_beats"] = len(labels)
    benchmark.extra_info["n_flagged"] = int(np.count_nonzero(labels != 0))
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.min * 1e6


def test_close_session_churn(benchmark, bench_embedded_classifier, churn_stream):
    """The close of a 30 s session fed in 250 ms chunks: the stream
    end (stash drain, filter tail, detector tail window), the forced
    classifier flush with its delivery, and the final events."""

    def prepare():
        gateway = StreamGateway(bench_embedded_classifier, FS)
        gateway.open_session("s")
        for i in range(0, churn_stream.size, CHUNK):
            gateway.ingest("s", churn_stream[i : i + CHUNK])
        return (gateway, "s"), {}

    benchmark.pedantic(StreamGateway.close_session, setup=prepare, rounds=10)
    benchmark.extra_info["ecg_s"] = churn_stream.size / FS
    benchmark.extra_info["us_per_call"] = benchmark.stats.stats.min * 1e6
