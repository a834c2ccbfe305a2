"""Property test: a GatewayGroup flush that spans member gateways.

Member gateways of one :class:`GatewayGroup` share one beat batch, so a
flush delivers labels to sessions of several members at once — one
:meth:`StreamingNode.deliver_rows` call whose flagged beats share one
delineation pass.  Whatever the member layout, chunk size, batch bound
and ingest order, every session's events must equal a standalone
``StreamingNode`` fed the same stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.streaming import StreamingNode
from repro.ecg.synth import RecordSynthesizer, SynthesisConfig
from repro.serving import GatewayGroup, StreamGateway

FS = 360.0
N_LEADS = 3


@pytest.fixture(scope="module")
def records():
    return [
        RecordSynthesizer(SynthesisConfig(n_leads=N_LEADS), seed=s).synthesize(
            24.0, class_mix={"N": 0.4, "V": 0.45, "L": 0.15}, name=f"group-{s}"
        )
        for s in range(90, 94)
    ]


@pytest.fixture(scope="module")
def reference(records, embedded_classifier, standalone_events):
    return [
        standalone_events(embedded_classifier, record, FS, N_LEADS) for record in records
    ]


class _DeliveryLog:
    """Records which member gateways each ``deliver_rows`` call reached."""

    def __init__(self, gateways):
        self.gateways = gateways
        self.spans: list[int] = []
        self._original = vars(StreamingNode)["deliver_rows"]

    def __enter__(self):
        original = self._original.__func__

        def logged(nodes, resolved):
            owners = {
                g for g, gateway in enumerate(self.gateways)
                for session in gateway._sessions.values()
                if any(session.node is node for node in nodes)
            }
            self.spans.append(len(owners))
            return original(nodes, resolved)

        StreamingNode.deliver_rows = staticmethod(logged)
        return self

    def __exit__(self, *exc_info):
        StreamingNode.deliver_rows = self._original


@settings(max_examples=6, deadline=None)
@given(
    members=st.integers(2, 3),
    layout_seed=st.integers(0, 2**16),
    chunk=st.sampled_from([45, 90, 250]),
    max_batch=st.sampled_from([32, 64, 128]),
)
def test_group_flush_across_members_matches_standalone(
    records, reference, embedded_classifier, assert_events_equal,
    members, layout_seed, chunk, max_batch,
):
    rng = np.random.default_rng(layout_seed)
    group = GatewayGroup()
    gateways = [
        StreamGateway(
            embedded_classifier, FS, n_leads=N_LEADS, max_batch=max_batch, group=group
        )
        for _ in range(members)
    ]
    # Every member owns at least one session.
    owner = [i % members for i in range(len(records))]
    rng.shuffle(owner)
    streams = {f"s{i}": (gateways[owner[i]], r.signal) for i, r in enumerate(records)}
    events = {sid: [] for sid in streams}
    offsets = dict.fromkeys(streams, 0)
    with _DeliveryLog(gateways) as log:
        for sid, (gateway, _) in streams.items():
            gateway.open_session(sid)
        live = list(streams)
        while live:
            for sid in rng.permutation(live).tolist():
                gateway, x = streams[sid]
                i = offsets[sid]
                events[sid] += gateway.ingest(sid, x[i : i + chunk])
                offsets[sid] = i + chunk
                if offsets[sid] >= len(x):
                    live.remove(sid)
        for sid, (gateway, _) in streams.items():
            events[sid] += gateway.close_session(sid)
    assert max(log.spans) >= 2  # some flush spanned member gateways
    for i, sid in enumerate(streams):
        assert_events_equal(reference[i], events[sid])
