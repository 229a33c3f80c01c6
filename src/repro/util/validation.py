"""Lightweight argument validation with informative errors."""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

__all__ = [
    "check_finite",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_count",
]


def check_finite(value: float, name: str) -> float:
    """Return ``value`` if finite, else raise ``ValueError`` naming the argument."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive and finite."""
    v = check_finite(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_nonnegative(value: float, name: str) -> float:
    """Return ``value`` if nonnegative and finite."""
    v = check_finite(value, name)
    if v < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_in_range(
    value: float,
    name: str,
    lo: float,
    hi: float,
    *,
    inclusive: tuple[bool, bool] = (True, True),
) -> float:
    """Return ``value`` if it lies within [lo, hi] (bounds per ``inclusive``)."""
    v = check_finite(value, name)
    lo_ok = v >= lo if inclusive[0] else v > lo
    hi_ok = v <= hi if inclusive[1] else v < hi
    if not (lo_ok and hi_ok):
        lob = "[" if inclusive[0] else "("
        hib = "]" if inclusive[1] else ")"
        raise ValueError(f"{name} must be in {lob}{lo}, {hi}{hib}, got {value!r}")
    return v


def check_count(value, name: str, lo: int) -> int:
    """Return ``value`` if it is an integer (not a bool) ``>= lo``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value!r}")
    return value


def check_array_1d(data, name: str) -> np.ndarray:
    """Coerce ``data`` to a 1-D float array, rejecting empties and NaNs."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr
