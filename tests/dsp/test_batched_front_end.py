"""Property tests: the N-row front-end kernels equal per-row pushes.

``StreamingExtremum.push_rows``, ``BlockFilter.push_rows`` and
``StreamingWavelet.push_rows`` advance many streams — one row each — in
one 2-D pass.  Whatever the row count, the moment a row joins (after a
one-row warm-up) or leaves (flush), and the chunk lengths, every row's
output must be bit-identical to pushing that row alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.kernels import StreamingExtremum
from repro.dsp.streaming import BlockFilter
from repro.dsp.wavelet import StreamingWavelet

FS = 360.0
#: Window lengths of the test cascade: long windows (with pushes
#: shorter and longer than a window) and short ones.
CASCADE = ((109, False), (73, True), (5, False), (5, True))
LONGEST = 109


class Cascade:
    """A chain of streaming extremum stages, pushed stage by stage."""

    def __init__(self):
        self.stages = [StreamingExtremum(m, maximum=mx) for m, mx in CASCADE]

    @property
    def steady(self):
        return all(stage.steady for stage in self.stages)

    def push(self, block):
        for stage in self.stages:
            block = stage.push(block)
        return block

    def flush(self):
        out = np.empty(0)
        for stage in self.stages:
            out = np.concatenate([stage.push(out), stage.flush()])
        return out

    @staticmethod
    def push_rows(cascades, blocks):
        for i in range(len(CASCADE)):
            blocks = StreamingExtremum.push_rows([c.stages[i] for c in cascades], blocks)
        return blocks


def wavelet_flat(columns):
    return np.asarray(columns).reshape(-1)


@st.composite
def schedules(draw, max_rows=32, special=(1, LONGEST - 1, LONGEST)):
    """Rows that join at a tick (after a one-row warm-up push of a
    drawn length) and leave at a later one; one chunk length per tick,
    drawn from the special lengths or anything up to 250."""
    n_rows = draw(st.integers(1, max_rows))
    n_ticks = draw(st.integers(1, 8))
    rows = []
    for _ in range(n_rows):
        join = draw(st.integers(0, n_ticks - 1))
        leave = draw(st.integers(join + 1, n_ticks))
        warmup = draw(st.integers(0, 400))
        rows.append((join, leave, warmup))
    lengths = draw(
        st.lists(
            st.sampled_from(special) | st.integers(1, 250),
            min_size=n_ticks,
            max_size=n_ticks,
        )
    )
    return rows, lengths, draw(st.integers(0, 2**32 - 1))


def drive(make, push_rows, rows, lengths, seed, flatten=lambda out: out):
    """Replay one schedule twice — per-row pushes and N-row passes over
    the steady rows — and assert every output identical."""
    rng = np.random.default_rng(seed)
    signals = [rng.standard_normal(w + sum(lengths)) for _, _, w in rows]
    alone = [make() for _ in rows]
    batched = [make() for _ in rows]
    offset = [0] * len(rows)
    n_multi = 0

    def feed(r, n):
        block = signals[r][offset[r] : offset[r] + n]
        offset[r] += n
        return block

    for tick, n in enumerate(lengths + [0]):
        for r, (join, leave, warmup) in enumerate(rows):
            if tick == leave:
                np.testing.assert_array_equal(
                    flatten(batched[r].flush()), flatten(alone[r].flush())
                )
            if tick == join and warmup:
                block = feed(r, warmup)
                np.testing.assert_array_equal(
                    flatten(batched[r].push(block)), flatten(alone[r].push(block))
                )
        if tick == len(lengths):
            break
        live = [r for r, (join, leave, _) in enumerate(rows) if join <= tick < leave]
        steady = [r for r in live if batched[r].steady]
        blocks = {r: feed(r, n) for r in live}
        for r in live:
            if r not in steady:
                np.testing.assert_array_equal(
                    flatten(batched[r].push(blocks[r])),
                    flatten(alone[r].push(blocks[r])),
                )
        if steady:
            n_multi += len(steady) > 1
            stacked = np.stack([blocks[r] for r in steady])
            out = push_rows([batched[r] for r in steady], stacked)
            for r, row in zip(steady, out):
                expected = alone[r].push(blocks[r])
                np.testing.assert_array_equal(flatten(row), flatten(expected))
    return n_multi


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_extremum_cascade_rows_match_per_row_pushes(schedule):
    drive(Cascade, Cascade.push_rows, *schedule)


@settings(max_examples=40, deadline=None)
@given(schedules())
def test_block_filter_rows_match_per_row_pushes(schedule):
    drive(lambda: BlockFilter(FS), BlockFilter.push_rows, *schedule)


@settings(max_examples=40, deadline=None)
@given(schedules(special=(1, 7, 8, 15, 16)))
def test_wavelet_rows_match_per_row_pushes(schedule):
    drive(StreamingWavelet, StreamingWavelet.push_rows, *schedule, flatten=wavelet_flat)


def test_schedules_exercise_multi_row_passes():
    """A fixed busy schedule really runs N-row passes (guards the
    property tests against vacuously one-row schedules)."""
    rows = [(0, 6, 400)] * 16 + [(2, 6, 0)] * 4
    lengths = [90, 1, LONGEST - 1, LONGEST, 90, 250]
    assert drive(lambda: BlockFilter(FS), BlockFilter.push_rows, rows, lengths, 3) >= 4
    assert drive(
        StreamingWavelet, StreamingWavelet.push_rows, rows, lengths, 4, wavelet_flat
    ) >= 4


def test_wavelet_rows_need_full_histories():
    fresh = [StreamingWavelet(4) for _ in range(2)]
    with pytest.raises(ValueError, match="full filter histories"):
        StreamingWavelet.push_rows(fresh, np.zeros((2, 5)))
