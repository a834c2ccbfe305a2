"""Sliding-extremum kernels (batch and streaming forms).

The morphological operators in :mod:`repro.dsp.morphological` are
sliding minima/maxima over flat structuring elements of m = 5..109
samples.  A naive implementation performs ``m - 1`` comparisons per
output sample.

:func:`sliding_extremum` is the batch form, by window doubling: the
extrema of windows of 2, 4, 8, ... samples are each one elementwise
``np.maximum``/``np.minimum`` of two shifted copies of the previous
level, and one last such step joins two overlapping power-of-two
windows into the ``m``-sample one — ``ceil(log2 m)`` vectorized passes
(along the last axis, so independent rows share each pass) and nothing
else, which keeps the per-call cost of short rows (the delineator's
few-beat MMD batches) low as well.  It backs
:func:`repro.dsp.morphological.erosion` /
:func:`~repro.dsp.morphological.dilation` and the MMD of
:mod:`repro.dsp.mmd`.

:class:`StreamingExtremum` is the incremental form: it carries the
last ``m - 1`` inputs and runs :func:`sliding_extremum` over
``[carry | block]`` on each push.  One row is one stream;
:meth:`StreamingExtremum.push_rows` advances many streams at once.
Edge handling replicates the batch operators' edge-replicated centered
window: the first sample is virtually replicated ``length // 2`` times
before the stream and ``flush`` replicates the last sample, which
makes a cascade of streaming stages *bit-exact* with the batch cascade
from the very first output sample (min and max select a sample, so
the grouping of the comparisons never changes a value).

Neither form is what the op counters model: the counters keep charging
the naive ``m - 1`` comparisons per sample of the reference embedded C
implementation (see :mod:`repro.dsp.morphological`).
"""

from __future__ import annotations

import numpy as np


def sliding_extremum(values: np.ndarray, length: int, maximum: bool = False) -> np.ndarray:
    """Extremum of every window of ``length`` consecutive samples.

    Parameters
    ----------
    values:
        Array whose last axis is time (already padded by the caller if
        edge handling is desired); leading axes are independent rows.
    length:
        Window length ``m >= 1``; every row must hold at least one full
        window.
    maximum:
        ``False`` for sliding minimum, ``True`` for sliding maximum.

    Returns
    -------
    np.ndarray
        ``values.shape[-1] - length + 1`` outputs per row;
        ``out[..., i] == op(values[..., i : i + length])``.

    Notes
    -----
    Window doubling: the extrema of windows of 2, 4, 8, ... samples
    each come from two overlapping windows of half the span, and the
    last step joins two windows of the largest power of two that
    overlap to cover ``m``.  That is ``ceil(log2 m)`` whole-array
    passes — one ``np.maximum``/``np.minimum`` call each, 4 for the
    13-sample QRS element of the delineator, 7 for the 109-sample
    baseline element — with no padding, reshaping or accumulation.
    Min and max select a sample, so the result does not depend on
    how the comparisons are grouped.
    """
    values = np.asarray(values)
    m = int(length)
    if m < 1:
        raise ValueError("window length must be >= 1")
    if values.shape[-1] < m:
        raise ValueError("need at least one full window of samples")
    if m == 1:
        return values.copy()
    op = np.maximum if maximum else np.minimum
    out, span = values, 1
    while 2 * span <= m:
        out = op(out[..., :-span], out[..., span:])
        span *= 2
    if span < m:
        out = op(out[..., : span - m], out[..., m - span :])
    return out


class StreamingExtremum:
    """Incremental sliding min/max over a centered, edge-padded window.

    Reproduces ``erosion``/``dilation`` (window ``length``, centered
    with ``left = length // 2`` and edge replication) sample for
    sample: output ``i`` equals the batch operator's output ``i`` and
    is emitted as soon as input sample ``i + right`` has been pushed
    (``right = length - 1 - left``).

    The only state is the last ``m - 1`` inputs (fewer right after the
    stream start).  Each push runs the sliding extremum over ``[carry
    | block]``, so :meth:`push_rows` can advance many
    equally-configured stages — one row each — in one 2-D pass; min
    and max are exact, so the outputs do not depend on the row layout.

    ``push`` accepts arbitrary block sizes (including single samples)
    and returns the outputs that became computable; ``flush`` emits
    the last ``right`` outputs by replicating the final sample, exactly
    like the batch operator's trailing edge padding.  After ``flush``
    the stage is finished; create a new instance for a new stream.
    """

    def __init__(self, length: int, maximum: bool = False):
        m = int(length)
        if m < 1:
            raise ValueError("window length must be >= 1")
        self.length = m
        self.left = m // 2
        self.right = m - 1 - self.left
        self.maximum = bool(maximum)
        self._carry: np.ndarray | None = None  # None until the first push

    @property
    def steady(self) -> bool:
        """Whether the carry holds a full ``m - 1`` inputs, so every
        pushed sample yields one output."""
        return self.length == 1 or (
            self._carry is not None and self._carry.size == self.length - 1
        )

    def push(self, block: np.ndarray) -> np.ndarray:
        """Consume a block; return the newly computable outputs."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 1:
            raise ValueError("blocks must be 1-D")
        return self.push_rows([self], block[np.newaxis])[0]

    def flush(self) -> np.ndarray:
        """Emit the final outputs (trailing edge replication)."""
        return self.finish(np.empty(0))

    def finish(self, block: np.ndarray) -> np.ndarray:
        """``push(block)`` then :meth:`flush`, as one push: the block
        followed by ``right`` copies of the last input (the stage is
        chunk-invariant, so the outputs are the same)."""
        block = np.asarray(block, dtype=float)
        if self.length == 1 or self.right == 0:
            return self.push(block)
        if block.size:
            last = block[-1]
        elif self._carry is not None:
            last = self._carry[-1]
        else:
            return np.empty(0)
        return self.push(np.concatenate([block, np.full(self.right, last)]))

    @staticmethod
    def push_rows(stages: list["StreamingExtremum"], blocks: np.ndarray) -> np.ndarray:
        """Advance equally-configured stages by one block each.

        ``blocks`` is ``(rows, n)``; row ``r`` feeds ``stages[r]``.  All
        stages must carry the same number of inputs (e.g. all
        :attr:`steady`, or a single row).  Returns ``(rows, k)``.
        """
        first = stages[0]
        m = first.length
        if blocks.shape[1] == 0:
            return np.empty((len(stages), 0))
        if m == 1:
            return blocks.copy()
        if first._carry is None:
            # Virtual left edge padding: the first input, replicated.
            carry = np.repeat(blocks[:, :1], first.left, axis=1)
        elif len(stages) == 1:
            carry = first._carry[np.newaxis]
        else:
            carry = np.array([stage._carry for stage in stages])
        ext = np.concatenate([carry, blocks], axis=1)
        out = ext[:, :0] if ext.shape[1] < m else sliding_extremum(ext, m, first.maximum)
        # A fresh array: the carry must not keep ``ext`` alive.
        carry = ext[:, 1 - m :].copy()
        for stage, row in zip(stages, carry):
            stage._carry = row
        return out

