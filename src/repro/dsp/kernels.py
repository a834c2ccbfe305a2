"""O(n) sliding-extremum kernels (batch and streaming forms).

The morphological operators in :mod:`repro.dsp.morphological` are
sliding minima/maxima over flat structuring elements of m = 5..109
samples.  A naive implementation performs ``m - 1`` comparisons per
output sample; the van Herk–Gil-Werman (vHGW) algorithm needs only
three, *independent of m*:

1. partition the input into chunks of ``m`` samples;
2. compute running extrema forward within each chunk (*head*) and
   backward within each chunk (*tail*);
3. every window of ``m`` consecutive samples spans at most two chunks,
   so its extremum is ``op(tail[i], head[i + m - 1])``.

:func:`sliding_extremum` is the batch form: three vectorized passes
over the data (along the last axis, so independent rows share one
pass), used by :func:`repro.dsp.morphological.erosion` and
:func:`~repro.dsp.morphological.dilation`.

:class:`StreamingExtremum` is the incremental form: it carries the
last ``m - 1`` inputs and runs the recurrence over ``[carry | block]``
on each push (at most ``m - 1`` extra samples per push), with chunks
aligned to the carry so the carry's suffix extrema seed the block's
windows.  One row is one stream;
:meth:`StreamingExtremum.push_rows` advances many streams at once.
Edge handling replicates the batch operators' edge-replicated centered
window: the first sample is virtually replicated ``length // 2`` times
before the stream and ``flush`` replicates the last sample, which
makes a cascade of streaming stages *bit-exact* with the batch cascade
from the very first output sample.

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
    """
    values = np.asarray(values)
    m = int(length)
    if m < 1:
        raise ValueError("window length must be >= 1")
    n = values.shape[-1]
    if n < m:
        raise ValueError("need at least one full window of samples")
    if m == 1:
        return values.copy()
    op = np.maximum if maximum else np.minimum
    n_out = n - m + 1
    if m <= 16:
        # Short windows: m - 1 fused elementwise passes beat the
        # chunked recurrence's bookkeeping.
        out = op(values[..., :n_out], values[..., 1 : 1 + n_out])
        for k in range(2, m):
            op(out, values[..., k : k + n_out], out=out)
        return out
    rows = values.shape[:-1]
    n_chunks = -(-n // m)
    # Filling the last partial chunk with copies of the final sample
    # keeps the suffix extrema exact without dtype-breaking sentinels.
    fill = n_chunks * m - n
    if fill:
        pad = np.broadcast_to(values[..., -1:], rows + (fill,))
        values = np.concatenate([values, pad], axis=-1)
    chunks = values.reshape(rows + (n_chunks, m))
    head = op.accumulate(chunks, axis=-1).reshape(rows + (-1,))
    tail = op.accumulate(chunks[..., ::-1], axis=-1)[..., ::-1].reshape(rows + (-1,))
    return op(tail[..., :n_out], head[..., m - 1 : m - 1 + n_out])


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
        if self.length == 1 or self._carry is None or self.right == 0:
            return np.empty(0)
        return self.push(np.full(self.right, self._carry[-1]))

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
        s = m - 1
        n = blocks.shape[1]
        if m <= 16:
            ext = np.concatenate([carry, blocks], axis=1)
            out = ext[:, :0] if ext.shape[1] < m else sliding_extremum(ext, m, first.maximum)
            carry = ext[:, -s:]
        else:
            op = np.maximum if first.maximum else np.minimum
            out = _carried_extremum(carry, blocks, s, op)
            # A fresh array: the carry must not alias the caller's block.
            carry = (
                blocks[:, n - s :].copy() if n >= s
                else np.concatenate([carry, blocks], axis=1)[:, -s:]
            )
        for stage, row in zip(stages, carry):
            stage._carry = row
        return out


def _carried_extremum(carry: np.ndarray, block: np.ndarray, s: int, op) -> np.ndarray:
    """Sliding extremum over ``s + 1``-sample windows of ``[carry | block]``.

    The vHGW recurrence with chunks of ``s`` samples aligned to the
    carry boundary: the carry (at most ``s`` samples) is the first
    chunk and the block is cut into ``s``-sample pieces.  A window of
    ``s + 1`` samples spans exactly two adjacent chunks, so it is
    ``op(suffix extremum of the earlier chunk, prefix extremum of the
    later one)``.  Rows are independent.  Returns the
    ``carry + block - s`` outputs per row (none during warm-up).
    """
    n = block.shape[1]
    # Windows ending at piece index < lead would start before the carry.
    lead = s - carry.shape[1]
    tail = op.accumulate(carry[:, ::-1], axis=1)[:, ::-1]
    if n <= s:  # one piece: the steady-state case for short pushes
        if n <= lead:
            return block[:, :0]
        return op(tail[:, : n - lead], op.accumulate(block, axis=1)[:, lead:])
    out = np.empty((block.shape[0], n - lead))
    done = 0
    for pos in range(0, n, s):
        piece = block[:, pos : pos + s]
        p = piece.shape[1]
        if p > lead:
            head = op.accumulate(piece, axis=1)[:, lead:]
            op(tail[:, : p - lead], head, out=out[:, done : done + p - lead])
            done += p - lead
        if pos + s < n:
            tail = op.accumulate(piece[:, ::-1], axis=1)[:, ::-1]
            lead = 0
    return out
