"""The input domain: the one range of each value that enters the program.

A file reader (``io``), ``pipeline.load_config`` or a dataclass a Python caller
builds checks each value it takes against its range stated here, once, and refuses
one outside it, NaN too, by its own error naming the value and the range.  Inside
the domain no geometry, displacement, HU or law overflows float64 (README)."""

import math

import numpy as np

__all__ = ["within", "direction"]

COORD_MM = 1e6                  # |x| of a coordinate, a length or the pivot
LENGTH_MIN_MM = 1e-6            # a positive length or spacing lies in [this, COORD_MM]
DISP_MM = 1e3                   # |u| of a displacement read or configured
OFFSET_MAX = 1.0                # |loading.offset_fraction|: the pivot within a disc depth
HU_MAX = 1e6                    # |HU|
LINEAR_MAX = 1e3                # calibration slope and correction, and |intercept|
COEFF_MAX = 1e9                 # density-elasticity coefficient
EXPONENT_MAX = 10.0             # density-elasticity exponent


def within(values, name: str, lo: float, hi: float, error: type[Exception] = ValueError):
    """Raise ``error`` naming the first of ``values`` (a number or an array) outside
    [lo, hi], if any; ``{i}`` in ``name`` is its index, or its row in a 2-D array."""
    a = np.asarray(values)
    if a.size and not (a.min() >= lo and a.max() <= hi):
        k = int(np.flatnonzero(~((a >= lo) & (a <= hi)))[0])
        name = name.replace("{i}", str(k // a.shape[1] if a.ndim == 2 else k))
        raise error(f"{name} is {a.flat[k]:.10g}, not a finite number in [{lo:g}, {hi:g}]")


def direction(axis, name: str, error: type[Exception] = ValueError) -> np.ndarray:
    """``axis`` as a unit (3,) vector, at any finite scale: no square overflows or
    underflows, as its largest component divides it first.  Zero or non-finite is ``error``."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    big = np.abs(axis).max()
    if not 0.0 < big < math.inf:
        raise error(f"{name} must be nonzero and finite")
    axis = axis / big
    return axis / math.hypot(*axis)
