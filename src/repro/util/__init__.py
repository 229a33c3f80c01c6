"""Shared utilities: RNG plumbing, scratch statistics, validation, tables,
strict JSON.

These helpers are deliberately dependency-light (NumPy only) so every other
subpackage can import them without cycles.
"""

from repro.util.jsonsafe import sanitise
from repro.util.rng import as_generator, spawn
from repro.util.stats import (
    erf,
    mean_and_std,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    sample_kurtosis,
    sample_skewness,
    weighted_mean_and_std,
)
from repro.util.tables import format_table
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
)

__all__ = [
    "as_generator",
    "spawn",
    "erf",
    "mean_and_std",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "sample_kurtosis",
    "sample_skewness",
    "weighted_mean_and_std",
    "format_table",
    "sanitise",
    "check_finite",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
]
