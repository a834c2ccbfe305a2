"""Hypothesis property: stashing input until the due point is invisible.

A steady :class:`~repro.dsp.streaming.StreamingNode` runs its front end
only once its stashed input reaches the due point, the first sample at
which an output can change.  The property compares it, call by call,
with a reference node of the same configuration whose stash is drained
after every push and every delivery — by the drain the stream end uses
— so the reference runs all input at once.  Every return value must
match: the events of each push and delivery, the outbox, and the
pending counts.  Snapshots are taken and restored with input stashed,
and the stash never holds more than one detector window plus one push.

Partitions use chunks of 1–800 samples over 1–3 leads, inline and
deferred classification, and non-default detector windows, beat
windows and delineation search spans: a beat window or a T-wave
search reaching past the detector overlap makes a beat wait for
stashed input.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsp.delineation import DelineationConfig
from repro.dsp.streaming import StreamingNode, StreamingPeakDetector
from repro.ecg.segmentation import BeatWindow
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig

FS = 360.0
#: The trained classifier takes 200-sample beat windows (decimated by 4).
WINDOW_LENGTH = 200


@pytest.fixture(scope="module")
def signals():
    return {
        n_leads: RecordSynthesizer(SynthesisConfig(n_leads=n_leads), seed=60 + n_leads)
        .synthesize(24.0, class_mix={"N": 0.5, "V": 0.35, "L": 0.15}, name=f"due-{n_leads}")
        .signal
        for n_leads in (1, 2, 3)
    }


def key(events):
    return [
        (
            e.peak, e.label, e.flagged, e.tx_bytes,
            None if e.fiducials is None else tuple(e.fiducials.as_array()),
        )
        for e in events
    ]


class Pair:
    """The node under test and its drain-every-call reference, driven
    in lockstep; every call asserts both return the same."""

    def __init__(self, classifier, make):
        self.classifier = classifier
        self.node, self.ref = make(), make()
        self.pending: list = []
        self.ref_pending: list = []

    def check_counts(self):
        assert self.node.n_pending == self.ref.n_pending
        assert self.node.n_awaiting_labels == self.ref.n_awaiting_labels

    def push(self, chunk):
        got = self.node.push(chunk)
        want = self.ref.push(chunk) + self.ref._drain()
        assert key(got) == key(want)
        assert self.node.n_stashed <= self.node._detector.window + chunk.shape[0]
        self.check_counts()

    def collect(self):
        got, want = self.node.take_pending(), self.ref.take_pending()
        assert [h.peak for h, _ in got] == [h.peak for h, _ in want]
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a, b)
        self.pending += got
        self.ref_pending += want

    def deliver(self):
        if not self.pending:
            return
        rows = np.vstack([row for _, row in self.pending])
        labels = np.asarray(self.classifier.predict(rows))
        got = self.node.deliver(list(zip((h for h, _ in self.pending), labels)))
        want = self.ref.deliver(list(zip((h for h, _ in self.ref_pending), labels)))
        want += self.ref._drain()
        self.pending.clear()
        self.ref_pending.clear()
        assert key(got) == key(want)
        self.check_counts()

    def restore(self):
        """Snapshot both mid-stream (pickled, as the journal does) and
        continue on the restored nodes; labels in flight are re-issued."""
        stashed = self.node.n_stashed
        snapshot = pickle.loads(pickle.dumps(self.node.snapshot()))
        self.node = StreamingNode.restore(self.classifier, snapshot)
        self.ref = StreamingNode.restore(self.classifier, self.ref.snapshot())
        assert self.node.n_stashed == stashed
        self.pending.clear()
        self.ref_pending.clear()
        self.check_counts()

    def finish(self, defer: bool):
        if defer:
            assert key(self.node.finish_input()) == key(self.ref.finish_input())
            self.collect()
            self.deliver()
            assert key(self.node.finalize()) == key(self.ref.finalize())
        else:
            assert key(self.node.flush()) == key(self.ref.flush())
        assert self.node.n_stashed == 0
        self.check_counts()


def run_pair(classifier, signals, config, sizes, actions):
    """Stream ``signals[n_leads]`` through a :class:`Pair` built from
    ``config``, cycling the chunk ``sizes`` and per-push ``actions``."""
    n_leads, lead, defer, window_s, overlap_s, post, t_end = config

    def make():
        node = StreamingNode(
            classifier, FS, n_leads=n_leads, lead=lead,
            window=BeatWindow(WINDOW_LENGTH - post, post),
            delineation_config=DelineationConfig(t_search=(0.14, t_end)),
            defer_classification=defer,
        )
        # A shorter detector window than the default 10 s: the node's
        # buffers are sized for the default, so they still suffice.
        node._detector = StreamingPeakDetector(FS, window_s=window_s, overlap_s=overlap_s)
        return node

    pair = Pair(classifier, make)
    x = signals[n_leads]
    i = step = 0
    while i < x.shape[0]:
        n = sizes[step % len(sizes)]
        action = actions[step % len(actions)]
        step += 1
        pair.push(x[i : i + n])
        i += n
        if defer:
            pair.collect()
            if action == "deliver":
                pair.deliver()
        if action == "restore":
            pair.restore()
            if defer:
                pair.collect()
    pair.finish(defer)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.large_base_example,
    ],
)
@given(data=st.data())
def test_due_point_matches_draining_every_call(data, signals, embedded_classifier):
    n_leads = data.draw(st.integers(1, 3), label="n_leads")
    config = (
        n_leads,
        data.draw(st.integers(0, n_leads - 1), label="lead"),
        data.draw(st.booleans(), label="defer"),
        data.draw(st.floats(3.0, 10.0), label="window_s"),
        # Overlaps shorter than a beat window's post make beats wait
        # for right context past the window that confirmed them.
        data.draw(st.floats(0.2, 1.45), label="overlap_s"),
        data.draw(st.integers(60, 190), label="post"),
        data.draw(st.floats(0.3, 0.6) | st.floats(1.6, 2.2), label="t_end"),
    )
    sizes = data.draw(st.lists(st.integers(1, 800), min_size=1, max_size=30), label="sizes")
    actions = data.draw(
        st.lists(st.sampled_from(["none", "deliver", "restore"]), min_size=1, max_size=30),
        label="actions",
    )
    run_pair(embedded_classifier, signals, config, sizes, actions)


@pytest.mark.parametrize("defer", [False, True])
@pytest.mark.parametrize(
    "config",
    [
        # (n_leads, lead, window_s, overlap_s, post, t_end)
        pytest.param((1, 0, 5.0, 0.2, 190, 0.42), id="beat-waits"),
        pytest.param((3, 1, 10.0, 1.5, 100, 2.2), id="delineation-waits"),
    ],
)
def test_waiting_beats_match_draining_every_call(
    config, defer, signals, embedded_classifier
):
    """Pinned configurations where beats wait past their window for
    stashed input, with deliveries and restores a few pushes late."""
    n_leads, lead, window_s, overlap_s, post, t_end = config
    run_pair(
        embedded_classifier, signals,
        (n_leads, lead, defer, window_s, overlap_s, post, t_end),
        [90, 7, 90, 90, 45],
        ["none", "none", "none", "none", "deliver", "none", "restore"],
    )
