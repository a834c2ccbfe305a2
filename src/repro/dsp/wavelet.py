"""À-trous dyadic wavelet transform with quadratic-spline filters.

The peak detector of Rincon et al. (itself derived from the classic
Mallat / Martinez delineator) decomposes the ECG into four dyadic
scales with the quadratic-spline wavelet, whose digital filters are

* low-pass  ``h = (1/8) [1, 3, 3, 1]``
* high-pass ``g = 2 [1, -1]``

The transform is undecimated ("algorithme à trous"): at scale *j* the
filters are upsampled by inserting ``2^(j-1) - 1`` zeros between taps.
With this wavelet, each scale of the transform is proportional to a
smoothed derivative of the input, so QRS complexes appear as
maximum–minimum pairs whose zero crossing marks the R peak.

Each scale's group delay is compensated so that the zero crossing of a
symmetric peak is aligned with the peak sample itself, which keeps the
detector phase-accurate across scales.
"""

from __future__ import annotations

import numpy as np

#: Quadratic-spline analysis filters.
LOWPASS = np.array([1.0, 3.0, 3.0, 1.0]) / 8.0
HIGHPASS = np.array([2.0, -2.0])


def _upsample(filter_taps: np.ndarray, factor: int) -> np.ndarray:
    """Insert ``factor - 1`` zeros between filter taps (à trous)."""
    if factor == 1:
        return filter_taps
    upsampled = np.zeros((filter_taps.size - 1) * factor + 1)
    upsampled[::factor] = filter_taps
    return upsampled


def _filter_same(x: np.ndarray, taps: np.ndarray, counter=None) -> np.ndarray:
    """Convolve and trim to the input length (delay kept, trimmed later)."""
    if counter is not None:
        nonzero = int(np.count_nonzero(taps))
        # A WBSN implementation skips the inserted zeros, and the
        # quadratic-spline taps are power-of-two multiples, so each tap
        # costs one shift-accumulate.
        counter.add("mul", x.size * nonzero)
        counter.add("add", x.size * (nonzero - 1))
        counter.add("load", x.size * nonzero)
        counter.add("store", x.size)
    return np.convolve(x, taps, mode="full")[: x.size]


def scale_delay(scale: int) -> int:
    """Group delay (samples) of the cascade producing wavelet scale ``scale``.

    With the quadratic-spline pair the delay of scale *j* (1-based) is
    ``2^(j-1) + 2^(j-1) - 1 + sum of lowpass delays``; expanding the
    cascade gives the familiar values 1, 3, 7, 15 for scales 1-4 (up to
    the half-sample intrinsic offset of the odd-length equivalent
    filter, absorbed into the integer compensation used here).
    """
    if scale < 1:
        raise ValueError("scale index must be >= 1")
    return (1 << scale) - 1


def dyadic_wavelet(
    x: np.ndarray, n_scales: int = 4, counter=None, compensate_delay: bool = True
) -> np.ndarray:
    """Compute the à-trous dyadic wavelet transform.

    Parameters
    ----------
    x:
        1-D input signal.
    n_scales:
        Number of dyadic scales (the detector uses 4).
    counter:
        Optional op-counter recording the embedded filtering work.
    compensate_delay:
        Shift each scale left by its group delay so wavelet features
        align with the input samples (detectors rely on this).

    Returns
    -------
    np.ndarray
        Array of shape ``(n_scales, len(x))``; row ``j-1`` holds
        :math:`W_{2^j} x`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("dyadic_wavelet expects a 1-D signal")
    if n_scales < 1:
        raise ValueError("n_scales must be >= 1")
    scales = np.empty((n_scales, x.size))
    approximation = x
    for j in range(1, n_scales + 1):
        factor = 1 << (j - 1)
        g = _upsample(HIGHPASS, factor)
        h = _upsample(LOWPASS, factor)
        detail = _filter_same(approximation, g, counter)
        if compensate_delay:
            delay = scale_delay(j)
            detail = np.concatenate([detail[delay:], np.repeat(detail[-1], delay)])
        scales[j - 1] = detail
        approximation = _filter_same(approximation, h, counter)
    return scales


class _StreamingFIR:
    """Causal FIR filter with carried state (exact blockwise convolve).

    Feeding a stream through :meth:`push_rows` block by block reproduces
    ``np.convolve(whole_stream, taps, mode="full")[:n]`` bit for bit.
    The history holds the last ``len(taps) - 1`` *real* samples (never
    zero padding), so every emitted output is produced by a dot product
    over exactly the same operands — and, crucially for pairwise
    summation, the same operand count — as the batch convolution.
    """

    def __init__(self, taps: np.ndarray):
        self.taps = np.asarray(taps, dtype=float)
        self._hist = np.empty(0)

    @property
    def steady(self) -> bool:
        """Whether the history is full (``len(taps) - 1`` samples)."""
        return self._hist.size == self.taps.size - 1

    @staticmethod
    def push_rows(firs: list["_StreamingFIR"], blocks: np.ndarray) -> np.ndarray:
        """Filter one ``(rows, n)`` block per equally-tapped filter.

        The rows' ``[history | block]`` segments are laid end to end
        and go through **one** ``np.convolve``; the outputs that
        straddle two rows are discarded.  With full histories every
        emitted output is a full-overlap dot product over the same
        operands in the same order as a per-row call, so the result is
        bit-exact with filtering each row alone.  Several rows
        therefore need :attr:`steady` filters; a single row may be
        anywhere in its stream.
        """
        rows, n = blocks.shape
        if n == 0:
            return np.empty((rows, 0))
        first = firs[0]
        taps = first.taps
        h = first._hist.size
        if rows == 1:
            flat = np.concatenate([first._hist, blocks[0]])
        elif h < taps.size - 1:
            raise ValueError("multi-row FIR pushes need full filter histories")
        else:
            hists = np.array([f._hist for f in firs])
            flat = np.concatenate([hists, blocks], axis=1).ravel()
        width = h + n
        combined = flat.reshape(rows, width)
        if flat.size < taps.size:
            # np.convolve swaps its arguments when the signal is the
            # shorter one, which reverses the summation order of the
            # boundary dot products.  Right-padding with zeros keeps
            # the batch argument order without touching the emitted
            # outputs (they only depend on samples before the padding).
            flat = np.concatenate([flat, np.zeros(taps.size - flat.size)])
        out = np.convolve(flat, taps, mode="full")[: rows * width].reshape(rows, width)
        keep = min(width, taps.size - 1)
        for fir, row in zip(firs, combined[:, width - keep :]):
            fir._hist = row
        return out[:, h:]


class StreamingWavelet:
    """Stateful à-trous transform emitting delay-compensated columns.

    The batch :func:`dyadic_wavelet` recomputes every filter over the
    whole record; this class carries the FIR state of the filters
    across ``push`` calls so each input sample is filtered exactly
    once, no matter how the stream is blocked.  (The last scale's
    low-pass output feeds nothing, so that filter is not run.)

    ``push(block)`` returns an ``(n_scales, k)`` array of the aligned
    coefficient columns that became complete across *all* scales (the
    deepest scale's group delay, ``2**n_scales - 1`` samples, bounds
    the lag); ``flush()`` emits the remaining columns using the same
    trailing replication the batch transform applies.  Concatenating
    all outputs is **bit-exact** with ``dyadic_wavelet(whole_stream)``
    — the tests assert equality for arbitrary block partitions.
    :meth:`push_rows` advances many :attr:`steady` transforms, one row
    each, with one 2-D pass per filter.
    """

    def __init__(self, n_scales: int = 4):
        if n_scales < 1:
            raise ValueError("n_scales must be >= 1")
        self.n_scales = n_scales
        self._highpass = []
        self._lowpass = []
        for j in range(1, n_scales + 1):
            factor = 1 << (j - 1)
            self._highpass.append(_StreamingFIR(_upsample(HIGHPASS, factor)))
            if j < n_scales:
                self._lowpass.append(_StreamingFIR(_upsample(LOWPASS, factor)))
        self._delays = [scale_delay(j) for j in range(1, n_scales + 1)]
        # Per-scale uncompensated detail samples not yet emitted as
        # aligned columns (plus the last value, kept for the flush
        # replication); the next column of scale j is
        # _details[j][_skip[j]].  _lag counts samples pushed but not
        # yet emitted as columns.  Only relative offsets are kept, so
        # all steady transforms share one state shape.
        self._details = [np.empty(0) for _ in range(n_scales)]
        self._skip = tuple(self._delays)
        self._lag = 0
        self._primed = False  # some column has been emitted

    @property
    def steady(self) -> bool:
        """Whether every filter history is full and the column lag has
        settled, so a push of ``n`` samples emits ``n`` columns and
        every steady transform shares one 2-D pass."""
        return self._primed and all(fir.steady for fir in self._highpass + self._lowpass)

    def push(self, block: np.ndarray) -> np.ndarray:
        """Filter a block; return newly completed aligned columns."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 1:
            raise ValueError("blocks must be 1-D")
        return self.push_rows([self], block[np.newaxis])[0]

    @staticmethod
    def push_rows(wavelets: list["StreamingWavelet"], blocks: np.ndarray) -> np.ndarray:
        """Advance equally-configured transforms by one block each.

        ``blocks`` is ``(rows, n)``; row ``r`` feeds ``wavelets[r]``.
        Several rows must all be :attr:`steady` (their buffers then
        have equal shapes); a single row may be anywhere in its
        stream.  Returns ``(rows, n_scales, k)`` aligned columns.
        """
        first = wavelets[0]
        rows, n = blocks.shape
        if n == 0:
            return np.empty((rows, first.n_scales, 0))
        approximation = blocks
        buffered = []
        for j in range(first.n_scales):
            detail = _StreamingFIR.push_rows([w._highpass[j] for w in wavelets], approximation)
            if rows == 1:
                held = first._details[j][np.newaxis]
            else:
                held = np.array([w._details[j] for w in wavelets])
            buffered.append(np.concatenate([held, detail], axis=1))
            if j < first.n_scales - 1:
                approximation = _StreamingFIR.push_rows(
                    [w._lowpass[j] for w in wavelets], approximation
                )
        # Aligned column i of scale j is detail_j[i + delay_j]; the
        # deepest scale limits how far all rows are complete.
        lag = first._lag + n
        return first._emit_rows(
            wavelets, buffered, lag, max(0, lag - first._delays[-1]), final=False
        )

    def flush(self) -> np.ndarray:
        """Emit the trailing columns (batch-style end replication)."""
        out = self._emit_rows(
            [self], [d[np.newaxis] for d in self._details], self._lag, self._lag, final=True
        )[0]
        self.reset()
        return out

    def reset(self) -> None:
        """Forget all filter state (ready for a fresh stream)."""
        self.__init__(self.n_scales)

    def _emit_rows(
        self, wavelets: list["StreamingWavelet"], buffered: list, lag: int, k: int,
        final: bool,
    ) -> np.ndarray:
        """Cut ``k`` aligned columns per row from the buffered details
        (``buffered[j]`` is ``(rows, size)``) and store what later
        columns still need.  Every row shares this transform's
        offsets."""
        columns = np.empty((len(wavelets), self.n_scales, k))
        skip = list(self._skip)
        for j in range(self.n_scales):
            held = buffered[j]
            lo = skip[j]
            keep = 0
            if k > 0:
                row = held[:, lo : lo + k]
                columns[:, j, : row.shape[1]] = row
                if row.shape[1] < k:
                    # Past the stream end: replicate the last detail
                    # value, exactly like the batch delay compensation.
                    columns[:, j, row.shape[1] :] = held[:, -1:]
                if not final:
                    # Keep what later columns (or flush) still need,
                    # and always the last value.
                    keep = max(0, min(lo + k, held.shape[1] - 1))
                    skip[j] = lo + k - keep
            for wavelet, kept in zip(wavelets, held[:, keep:]):
                wavelet._details[j] = kept
        skip = tuple(skip)
        primed = self._primed or k > 0
        for wavelet in wavelets:
            wavelet._skip = skip
            wavelet._lag = lag - k
            wavelet._primed = primed
        return columns
