"""Low-bit number formats used by Atom and its baselines.

Two families are modelled:

``IntFormat``
    Uniform integer grids (INT2..INT8).  A symmetric *n*-bit integer covers
    ``[-2^(n-1), 2^(n-1)-1]``; the asymmetric variant covers ``[0, 2^n - 1]``
    with a zero point.  These are the formats NVIDIA tensor cores accelerate
    (INT8 on Turing+, INT4 on Ampere/Ada), which is what makes Atom's W4A4
    scheme fast in the first place.

``FloatFormat``
    Non-uniform minifloat grids.  ``FP4_E2M1`` is the 4-bit format evaluated
    in Table 4 of the paper (values ``±{0, .5, 1, 1.5, 2, 3, 4, 6}``);
    ``FP8_E4M3`` is the 8-bit format the paper mentions as an alternative
    outlier container.  Rounding onto the grid is round-to-nearest-even on
    the representable values.

The MX (microscaling) variant of the paper's §6 is not a format here: it
is an integer grid whose scales are powers of two (``fmt="mx"`` in
:mod:`repro.core.linear` and :mod:`repro.core.gptq`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IntFormat",
    "FloatFormat",
    "FP4_E2M1",
    "FP8_E4M3",
]


@dataclass(frozen=True)
class IntFormat:
    """A uniform signed/unsigned integer grid of ``bits`` bits."""

    bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 16:
            raise ValueError(f"unsupported integer bit-width: {self.bits}")

    @property
    def name(self) -> str:
        return f"INT{self.bits}"

    # Symmetric (signed) range, e.g. INT4 -> [-8, 7].
    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    # Asymmetric (unsigned) range, e.g. INT4 -> [0, 15].
    @property
    def umin(self) -> int:
        return 0

    @property
    def umax(self) -> int:
        return (1 << self.bits) - 1

    @property
    def n_levels(self) -> int:
        return 1 << self.bits

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _minifloat_grid(exp_bits: int, man_bits: int, *, has_inf: bool = False) -> np.ndarray:
    """Enumerate the non-negative representable values of a minifloat format.

    Uses the OCP-style convention: no infinities (for E4M3 / E2M1), a single
    NaN encoding is excluded from the grid, subnormals included.
    """
    bias = (1 << (exp_bits - 1)) - 1
    values = [0.0]
    # Subnormals: exponent field 0 -> value = mantissa/2^man_bits * 2^(1-bias)
    for m in range(1, 1 << man_bits):
        values.append((m / (1 << man_bits)) * 2.0 ** (1 - bias))
    # Normals.
    max_exp_field = (1 << exp_bits) - 1 if not has_inf else (1 << exp_bits) - 2
    for e in range(1, max_exp_field + 1):
        for m in range(1 << man_bits):
            # E4M3 OCP reserves exponent=max, mantissa=all-ones for NaN.
            if e == max_exp_field and m == (1 << man_bits) - 1 and exp_bits == 4:
                continue
            values.append((1.0 + m / (1 << man_bits)) * 2.0 ** (e - bias))
    return np.asarray(sorted(set(values)), dtype=np.float64)


@dataclass(frozen=True)
class FloatFormat:
    """A minifloat grid defined by exponent/mantissa widths.

    Rounding onto the grid is round-to-nearest with ties broken toward the
    even-indexed grid value, and saturation at ``max_value``.
    """

    name: str
    exp_bits: int
    man_bits: int

    @property
    def bits(self) -> int:
        return 1 + self.exp_bits + self.man_bits

    @property
    def grid(self) -> np.ndarray:
        """Non-negative representable magnitudes, ascending."""
        return _grid_cache(self.exp_bits, self.man_bits)

    @property
    def max_value(self) -> float:
        return float(self.grid[-1])

    def round(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` elementwise onto the signed grid (with saturation)."""
        x = np.asarray(x, dtype=np.float64)
        mag = np.minimum(np.abs(x), self.max_value)
        grid = self.grid
        # Nearest-value rounding via midpoint bisection.
        mids = (grid[1:] + grid[:-1]) / 2.0
        idx = np.searchsorted(mids, mag, side="right")
        return np.sign(x) * grid[idx]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@lru_cache(maxsize=None)
def _grid_cache(exp_bits: int, man_bits: int) -> np.ndarray:
    return _minifloat_grid(exp_bits, man_bits)


FP4_E2M1 = FloatFormat("FP4_E2M1", exp_bits=2, man_bits=1)
FP8_E4M3 = FloatFormat("FP8_E4M3", exp_bits=4, man_bits=3)
