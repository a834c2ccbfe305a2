"""Property tests: rows finalization across many streaming delineators.

:meth:`StreamingDelineator.add_beats_rows` delineates the beats of
every row that became final in one pass.  It must match scheduling
each delineator on its own with :meth:`StreamingDelineator.add_beats`
— and the per-beat reference :func:`delineate_multilead` on each
stream — in fiducials and in charged op counts, for one to sixteen
rows, one to three leads, and beats clamped at the stream origin or
finalized only at the stream end.  The batched wave scan under it must
match the scalar :func:`_find_wave` row by row, whatever the other
rows hold (a row whose detrend line is flat must not change another
row's arithmetic).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.delineation import (
    StreamingDelineator,
    _detrend,
    _detrend_rows,
    _find_wave,
    _wave_scan_batch,
    delineate_multilead,
)
from repro.platform.opcount import OpCounter

FS = 100.0  # small segments (83 samples) keep the examples fast


@st.composite
def streams(draw):
    """One stream: a quantized random walk (ties are common), its
    pushed prefix, and beats scheduled with or without a previous peak."""
    n_leads = draw(st.integers(1, 3))
    n = draw(st.integers(60, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    signal = np.round(np.cumsum(rng.normal(size=(n, n_leads)), axis=0) * 2) / 2
    pushed = draw(st.integers(1, n))
    peaks = sorted(draw(st.sets(st.integers(0, pushed - 1), max_size=6)))
    beats = []
    for k, peak in enumerate(peaks):
        previous = draw(st.sampled_from([None, -1, peaks[k - 1] if k else None]))
        beats.append((peak, previous))
    return signal, pushed, beats


def run_stream(signal, pushed, beats):
    """A delineator fed the pushed prefix, plus the beats to schedule
    (each with its own op counter)."""
    delineator = StreamingDelineator(FS, lookback_s=10.0)
    delineator.push(signal[:pushed])
    counters = {peak: OpCounter() for peak, _ in beats}
    items = [(peak, prev, counters[peak]) for peak, prev in beats]
    return delineator, items, counters


def collect(delineator, signal, pushed, done):
    """Fiducials of every beat: the scheduling step's ``done`` plus what
    pushing the rest and flushing finalize."""
    results = dict(done)
    results.update(delineator.push(signal[pushed:]))
    results.update(delineator.flush())
    return {peak: fid.as_array() for peak, fid in results.items()}


class TestAddBeatsRows:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(streams(), min_size=1, max_size=16))
    def test_matches_per_delineator_add_beats(self, stream_list):
        alone, alone_done, alone_counts = [], [], []
        rows, row_items, row_counts = [], [], []
        for signal, pushed, beats in stream_list:
            delineator, items, counters = run_stream(signal, pushed, beats)
            finished = delineator.add_beats(items)
            alone_done.append([peak for peak, _ in finished])
            alone.append(collect(delineator, signal, pushed, finished))
            alone_counts.append(counters)
            delineator, items, counters = run_stream(signal, pushed, beats)
            rows.append(delineator)
            row_items.append(items)
            row_counts.append(counters)
        done = StreamingDelineator.add_beats_rows(rows, row_items)
        assert len(done) == len(rows)
        for r, (signal, pushed, beats) in enumerate(stream_list):
            # Rows return exactly the beats add_beats finalizes at once.
            assert [peak for peak, _ in done[r]] == alone_done[r]
            got = collect(rows[r], signal, pushed, done[r])
            assert sorted(got) == [peak for peak, _ in beats]
            for peak, previous in beats:
                np.testing.assert_array_equal(got[peak], alone[r][peak])
                reference_counter = OpCounter()
                reference = delineate_multilead(
                    signal,
                    peak,
                    FS,
                    counter=reference_counter,
                    previous_peak=None if previous is None or previous < 0 else previous,
                )
                np.testing.assert_array_equal(got[peak], reference.as_array())
                assert row_counts[r][peak].counts == alone_counts[r][peak].counts
                assert row_counts[r][peak].counts == reference_counter.counts

    def test_validation_is_all_or_nothing_across_rows(self):
        signal = np.zeros((300, 2))
        first, second = StreamingDelineator(FS), StreamingDelineator(FS)
        first.push(signal)
        second.push(signal[:100])
        with pytest.raises(ValueError):  # the second row's peak was never pushed
            StreamingDelineator.add_beats_rows([first, second], [[(150, None)], [(200, None)]])
        assert first.flush() == [] and second.flush() == []


class TestWaveScanBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(8, 60),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.08]),
    )
    def test_rows_match_scalar_find_wave(self, k, length, seed, min_relative):
        rng = np.random.default_rng(seed)
        # Coarse values: flat windows (a zero-step trend) are common.
        segments = np.round(rng.normal(size=(k, length)) * 2) / 2
        flat = rng.random(k) < 0.3
        segments[flat] = 1.0
        hi = int(rng.integers(length // 2, length + 1))
        lo = rng.integers(0, hi, size=k).astype(np.int64)
        reference = np.abs(rng.normal(size=k)) * 4
        got = _wave_scan_batch(segments, lo, hi, reference, min_relative)
        for r in range(k):
            assert got[r] == _find_wave(
                segments[r], int(lo[r]), hi, float(reference[r]), min_relative
            )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(4, 60), st.integers(0, 2**32 - 1))
    def test_detrend_rows_bit_exact_with_flat_rows(self, k, length, seed):
        """Each row's detrended window equals the scalar detrend
        exactly, also when other rows have a flat (zero-step) trend."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(k, length))
        block[rng.random(k) < 0.4] = 1.0
        offset = rng.integers(0, length - 3, size=k).astype(np.int64)
        got = _detrend_rows(block, offset)
        for r in range(k):
            np.testing.assert_array_equal(got[r, offset[r] :], _detrend(block[r, offset[r] :]))
