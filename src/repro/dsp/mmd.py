"""Multi-scale morphological derivative (MMD) operator.

The delineation stage of Rincon et al. locates wave onsets and ends with
a *multi-scale morphological derivative*: at scale ``s`` the operator

.. math::

    \\mathrm{MMD}_s x(n) = (x \\oplus B_s)(n) + (x \\ominus B_s)(n) - 2 x(n)

(dilation plus erosion minus twice the signal, with a flat structuring
element of ``2 s + 1`` samples) behaves like a second-derivative probe
whose support grows with ``s``: it is strongly positive at concave
corners (wave onsets/ends of positive waves) and strongly negative at
convex corners (the peaks), while staying near zero on straight
segments.  Evaluating it at a few scales and picking extremum locations
yields noise-robust fiducial points with only comparisons and additions
— the reason the operator suits WBSN processors.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.kernels import sliding_extremum
from repro.dsp.morphological import charge_extremum_ops


def charge_mmd_ops(counter, n: int, scale: int) -> None:
    """Charge the op counts :func:`mmd_transform` records over ``n`` samples.

    The count-only mirror of :func:`mmd_transform` (one dilation, one
    erosion, plus the combination arithmetic), used by the batched and
    streaming delineation paths to attribute the reference per-beat
    work without re-running the per-beat operators.
    """
    if counter is None or n <= 0:
        return
    length = 2 * scale + 1
    charge_extremum_ops(counter, n, length)  # dilation
    charge_extremum_ops(counter, n, length)  # erosion
    counter.add("add", n)
    counter.add("sub", n)
    counter.add("shift", n)  # the 2*x term as a left shift


def mmd_transform(x: np.ndarray, scale: int, counter=None) -> np.ndarray:
    """Multi-scale morphological derivative at one scale.

    Parameters
    ----------
    x:
        1-D signal segment.
    scale:
        Half-width ``s`` of the flat structuring element (its length is
        ``2 s + 1`` samples).
    counter:
        Optional op-counter.

    Returns
    -------
    np.ndarray
        ``MMD_s x``, same length as ``x``.
    """
    if scale < 1:
        raise ValueError("MMD scale must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("morphological operators expect 1-D signals")
    charge_mmd_ops(counter, x.size, scale)
    return mmd_rows(x[np.newaxis], scale)[0]


def mmd_rows(rows: np.ndarray, scale: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Columns ``[lo, hi)`` of :func:`mmd_transform` of every row of ``rows``.

    Each row is edge-replicated at its own ends, exactly as
    :func:`mmd_transform` pads a segment, and only the inputs the
    requested columns see are gathered — one clamped column index, one
    take — and scanned: the dilation and erosion run as one 2-D
    sliding-extremum call each.  Min and max are exact, so every
    output row is bit-identical to the same columns of
    ``mmd_transform`` of that row.  Records no op counts (see
    :func:`charge_mmd_ops`).
    """
    n = rows.shape[-1]
    hi = n if hi is None else hi
    columns = np.arange(lo - scale, hi + scale)
    np.maximum(columns, 0, out=columns)
    np.minimum(columns, n - 1, out=columns)
    padded = rows.take(columns, axis=-1)
    length = 2 * scale + 1
    out = sliding_extremum(padded, length, maximum=True)
    out += sliding_extremum(padded, length, maximum=False)
    out -= 2.0 * rows[..., lo:hi]
    return out


def mmd_multiscale(x: np.ndarray, scales: tuple[int, ...], counter=None) -> np.ndarray:
    """Stack of MMD responses at several scales, shape ``(len(scales), n)``."""
    return np.stack([mmd_transform(x, s, counter) for s in scales], axis=0)
