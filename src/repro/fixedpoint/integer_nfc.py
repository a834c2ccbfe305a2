"""Integer NFC: block-normalized fuzzification and division-free defuzz.

Fuzzification (Section III-B): "the membership grades related to the
two first coefficients are multiplied for each of the three classes.
The three resulting numbers are left-shifted to the maximum amount so
that none of them overflow and then the rightmost 16 bits are
discarded.  All subsequent membership grades are then processed in a
similar fashion."  This is block floating point: the shift is *shared*
across classes, so the per-class ratios — the only thing the
defuzzifier consumes — survive to within one truncation LSB per
coefficient, while every product stays inside 32 bits.

Defuzzification compares ``M1 - M2 >= alpha * S`` without dividing:
``alpha`` is carried as a Q0.16 integer and the comparison is evaluated
as ``(M1 - M2) << 16 >= alpha_q16 * S`` in a wide register.

The Python model keeps values in ``int64`` but asserts the 32-bit
envelope the WBSN implementation relies on; property tests exercise
that envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.defuzz import UNKNOWN_LABEL
from repro.fixedpoint.linearize import (
    GRADE_MAX,
    evaluate_linearized,
    evaluate_triangular,
)
from repro.fixedpoint.qformat import ilog2

#: Fractional bits of the embedded alpha representation.
ALPHA_FRAC_BITS = 16

#: Supported embedded membership shapes.
EMBEDDED_SHAPES = ("linear", "triangular")


def block_fuzzify(grades: np.ndarray, counter=None) -> np.ndarray:
    """Integer product of membership grades with block normalization.

    Parameters
    ----------
    grades:
        ``(n, k, L)`` integer grades in ``[0, GRADE_MAX]``.
    counter:
        Optional op-counter.

    Returns
    -------
    np.ndarray
        ``(n, L)`` integer fuzzy values (each < 2^16 after the final
        truncation).  A row is all-zero when every class's product
        collapsed to zero (possible for the triangular shape only).

    Notes
    -----
    The loop mirrors the embedded schedule exactly: multiply (32-bit
    product of two 16-bit operands), find the largest accumulator,
    left-shift all classes so that the largest occupies bit 31, drop
    the low 16 bits.  Because the shift is common, class *ratios* are
    preserved up to truncation.
    """
    grades = np.asarray(grades, dtype=np.int64)
    if grades.ndim != 3:
        raise ValueError("grades must be (n, k, L)")
    if grades.size and (grades.min() < 0 or grades.max() > GRADE_MAX):
        raise ValueError(f"grades must lie in [0, {GRADE_MAX}]")
    n, k, n_classes = grades.shape
    if k < 1:
        raise ValueError("need at least one coefficient")

    acc = grades[:, 0, :].copy()
    for factor in grades.transpose(1, 0, 2)[1:]:
        # Both operands are < 2^16 (grades by definition, acc by the
        # previous truncation), so the product is < 2^32: exactly the
        # 32-bit envelope of the modelled multiplier.
        acc = acc * factor
        # Shared normalization shift: align the per-beat max to bit 31.
        # The max is < 2^32, so the shift is >= 0; an all-zero row
        # (max 0, shift 32) stays zero whatever it is shifted by.
        shift = 31 - ilog2(acc.max(axis=1))
        acc = (acc << shift[:, np.newaxis]) >> 16
    if counter is not None and k > 1:
        steps = (k - 1) * n
        counter.add("mul", steps * n_classes)
        counter.add("cmp", steps * (n_classes - 1))  # max scan
        counter.add("shift", steps * (n_classes + 1))  # clz + normalize
    # 32-bit envelope check of the modelled hardware.
    if acc.size and acc.max() >= (np.int64(1) << 32):
        raise OverflowError("fuzzification accumulator exceeded 32 bits")
    return acc


def block_fuzzify_serial(grades: np.ndarray, counter=None) -> np.ndarray:
    """Per-beat reference loop for :func:`block_fuzzify`.

    Runs the embedded schedule one beat at a time — exactly what the
    node's firmware does — and stacks the results.  The batched
    :func:`block_fuzzify` is bit-exact with this loop in both the
    fuzzy values and the charged op counts (the block-normalization
    shift is derived per beat in either path, and every charge is
    linear in ``n``); the regression suite pins that equivalence.
    """
    grades = np.asarray(grades, dtype=np.int64)
    if grades.ndim != 3:
        raise ValueError("grades must be (n, k, L)")
    n, _, n_classes = grades.shape
    if n == 0:
        # Validate shape/range exactly like the batched path would.
        return block_fuzzify(grades, counter)
    return np.vstack([block_fuzzify(grades[i : i + 1], counter) for i in range(n)])


def integer_defuzzify(
    fuzzy: np.ndarray, alpha_q16: int, counter=None
) -> np.ndarray:
    """Division-free defuzzification on integer fuzzy values.

    Parameters
    ----------
    fuzzy:
        ``(n, L)`` non-negative integer fuzzy values.
    alpha_q16:
        ``alpha`` in Q0.16 (0 .. 65536 for alpha in [0, 1]).
    counter:
        Optional op-counter.

    Returns
    -------
    np.ndarray
        ``(n,)`` labels: argmax class when
        ``(M1 - M2) << 16 >= alpha_q16 * S``, else
        :data:`UNKNOWN_LABEL`.  All-zero rows are Unknown.
    """
    fuzzy = np.asarray(fuzzy, dtype=np.int64)
    if fuzzy.ndim != 2 or fuzzy.shape[1] < 2:
        raise ValueError("fuzzy must be (n, L) with L >= 2")
    if fuzzy.size and fuzzy.min() < 0:
        raise ValueError("fuzzy values must be non-negative")
    if not 0 <= alpha_q16 <= (1 << ALPHA_FRAC_BITS):
        raise ValueError("alpha_q16 must encode an alpha in [0, 1]")
    order = np.sort(fuzzy, axis=1)
    total = np.add.reduce(fuzzy, axis=1)
    confident = ((order[:, -1] - order[:, -2]) << ALPHA_FRAC_BITS) >= alpha_q16 * total
    confident &= total > 0
    labels = np.where(confident, fuzzy.argmax(axis=1), UNKNOWN_LABEL)
    if counter is not None:
        n, n_classes = fuzzy.shape
        counter.add("cmp", n * (2 * n_classes))  # find M1, M2
        counter.add("add", n * n_classes)  # S
        counter.add("mul", n)
        counter.add("shift", n)
        counter.add("sub", n)
    return labels.astype(np.int64)


@dataclass(frozen=True)
class IntegerNFC:
    """Quantized membership layer + integer fuzzification.

    Attributes
    ----------
    centers:
        ``(k, L)`` integer MF centers (coefficient grid).
    s_values:
        ``(k, L)`` integer breakpoint units ``S = 2.35 sigma``.
    slope_inner_q16, slope_outer_q16:
        ``(k, L)`` precomputed Q0.16 segment slopes (linear shape).
    shape:
        ``"linear"`` or ``"triangular"``.
    """

    centers: np.ndarray
    s_values: np.ndarray
    slope_inner_q16: np.ndarray
    slope_outer_q16: np.ndarray
    shape: str = "linear"

    def __post_init__(self) -> None:
        arrays = {
            "centers": self.centers,
            "s_values": self.s_values,
            "slope_inner_q16": self.slope_inner_q16,
            "slope_outer_q16": self.slope_outer_q16,
        }
        reference_shape = np.asarray(self.centers).shape
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.int64)
            if arr.ndim != 2 or arr.shape != reference_shape:
                raise ValueError(f"{name} must be (k, L) and consistent")
            object.__setattr__(self, name, arr)
        if np.any(self.s_values < 1):
            raise ValueError("s_values must be >= 1")
        if self.shape not in EMBEDDED_SHAPES:
            raise ValueError(f"shape must be one of {EMBEDDED_SHAPES}")

    @property
    def n_coefficients(self) -> int:
        """Number of input coefficients k."""
        return int(self.centers.shape[0])

    @property
    def n_classes(self) -> int:
        """Number of classes L."""
        return int(self.centers.shape[1])

    def membership_grades(self, U: np.ndarray, counter=None) -> np.ndarray:
        """Grades of integer coefficients, shape ``(n, k, L)``."""
        U = np.asarray(U, dtype=np.int64)
        if U.ndim != 2 or U.shape[1] != self.n_coefficients:
            raise ValueError("U must be (n, k)")
        x = U[:, :, np.newaxis]
        if self.shape == "linear":
            grades = evaluate_linearized(
                x, self.centers, self.s_values, self.slope_inner_q16, self.slope_outer_q16
            )
        else:
            grades = evaluate_triangular(x, self.centers, self.s_values)
        if counter is not None:
            n = U.shape[0]
            per_mf = n * self.n_coefficients * self.n_classes
            counter.add("sub", per_mf)
            counter.add("abs", per_mf)
            counter.add("cmp", 3 * per_mf)  # segment selection
            counter.add("mul", per_mf)
            counter.add("shift", per_mf)
        return grades

    def fuzzy_values(self, U: np.ndarray, counter=None) -> np.ndarray:
        """Integer fuzzy values ``(n, L)`` via block fuzzification."""
        return block_fuzzify(self.membership_grades(U, counter), counter)

    def fuzzy_values_serial(self, U: np.ndarray, counter=None) -> np.ndarray:
        """Per-beat reference for :meth:`fuzzy_values`.

        Processes one beat at a time, like the firmware's main loop.
        The batched path is bit-exact with this one in values and in
        charged op counts; ``tests/fixedpoint`` pins the equivalence.
        """
        U = np.asarray(U, dtype=np.int64)
        if U.ndim != 2 or U.shape[1] != self.n_coefficients:
            raise ValueError("U must be (n, k)")
        if U.shape[0] == 0:
            return self.fuzzy_values(U, counter)
        return np.vstack(
            [self.fuzzy_values(U[i : i + 1], counter) for i in range(U.shape[0])]
        )

    def memory_bytes(self) -> int:
        """Parameter footprint per (k, L) MF.

        Centers and S values fit 16-bit words on the target (the
        projected-coefficient grid stays well under 2^15 for the
        paper's beat lengths and ADC gain); the two precomputed Q16.16
        slopes need 32-bit words: 2 + 2 + 4 + 4 = 12 bytes per MF.
        """
        return int(12 * self.centers.size)
