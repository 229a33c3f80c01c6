"""From-scratch statistical primitives.

The library keeps its hot paths free of SciPy: the normal PDF/CDF/quantile
and moment statistics used throughout the stochastic-value machinery are
implemented here with NumPy only.  (SciPy is still available for tests to
cross-check against.)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "erf",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "mean_and_std",
    "sorted_quantile",
    "row_quantile",
    "ragged_summary",
    "weighted_mean_and_std",
    "sample_skewness",
    "sample_kurtosis",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# math.erf broadcast over arrays: exact to double precision on every
# element, so scalar and array inputs agree bit-for-bit.  (An earlier
# version used the A&S 7.1.26 rational approximation for arrays, which
# made erf(0.5) and erf([0.5])[0] differ by up to ~1.5e-7 — enough to
# make normal_cdf input-shape-dependent.)
_erf_elementwise = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """Error function, vectorised and exact to double precision.

    Scalar and array inputs take the same per-element :func:`math.erf`
    path, so ``erf(v) == erf([v])[0]`` exactly — callers like
    :func:`normal_cdf` are not input-shape-dependent.
    """
    if np.isscalar(x):
        return math.erf(float(x))
    x = np.asarray(x, dtype=float)
    # frompyfunc returns a bare Python float for 0-d input; normalise.
    return np.asarray(_erf_elementwise(x), dtype=float)


def normal_pdf(x, mean: float = 0.0, std: float = 1.0):
    """Probability density of N(mean, std**2) at ``x``."""
    if std <= 0:
        raise ValueError(f"std must be > 0, got {std}")
    z = (np.asarray(x, dtype=float) - mean) / std
    out = np.exp(-0.5 * z * z) / (std * _SQRT2PI)
    return float(out) if np.isscalar(x) else out


def normal_cdf(x, mean: float = 0.0, std: float = 1.0):
    """Cumulative distribution of N(mean, std**2) at ``x``.

    ``std == 0`` degenerates to a step function at ``mean`` (used for point
    values viewed as zero-spread stochastic values).
    """
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    if std == 0:
        arr = (np.asarray(x, dtype=float) >= mean).astype(float)
        return float(arr) if np.isscalar(x) else arr
    z = (np.asarray(x, dtype=float) - mean) / (std * _SQRT2)
    out = 0.5 * (1.0 + erf(z))
    return float(out) if np.isscalar(x) else out


def normal_quantile(p, mean: float = 0.0, std: float = 1.0):
    """Inverse CDF of N(mean, std**2).

    Uses the Acklam rational approximation refined with one Halley step
    against the exact scalar CDF; accurate to ~1e-9 over (0, 1).
    """
    scalar = np.isscalar(p)
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile probabilities must lie strictly in (0, 1)")
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")

    # Acklam coefficients.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425

    z = np.empty_like(p)
    lo = p < p_low
    hi = p > 1.0 - p_low
    mid = ~(lo | hi)

    if np.any(lo):
        q = np.sqrt(-2.0 * np.log(p[lo]))
        z[lo] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if np.any(hi):
        q = np.sqrt(-2.0 * np.log(1.0 - p[hi]))
        z[hi] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        z[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )

    # One Halley refinement step against the exact CDF.
    e = 0.5 * (1.0 + np.asarray(_erf_elementwise(z / _SQRT2), dtype=float)) - p
    u = e * _SQRT2PI * np.exp(0.5 * z * z)
    z = z - u / (1.0 + 0.5 * z * u)

    out = mean + std * z
    return float(out) if scalar else out


def mean_and_std(data, ddof: int = 1) -> tuple[float, float]:
    """Sample mean and standard deviation (``ddof=1`` by default)."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise empty data")
    if arr.size <= ddof:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=ddof))


def _linear_neighbours(n: int, q: float) -> tuple[int, int, float]:
    """``(below, above, gamma)`` of ``np.quantile``'s linear method over
    ``n`` values: virtual index ``(n-1)*q``, both neighbours the last
    value (``-1``) at or past it."""
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return -1, -1, virtual + 1
    below = math.floor(virtual)
    return below, below + 1, virtual - below


def _lerp_rows(rows: np.ndarray, below: int, above: int, gamma: float) -> np.ndarray:
    """numpy's ``_lerp`` between columns ``below`` and ``above`` of rows
    whose order statistics sit in place there and in the last column:
    interpolation from the upper neighbour when ``gamma >= 0.5``, and NaN
    for a row whose last value is NaN."""
    a, b = rows[:, below], rows[:, above]
    diff = b - a
    out = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    last = rows[:, -1]
    nan = np.isnan(last)
    if nan.any():
        out[nan] = last[nan]
    return out


def sorted_quantile(sorted_rows: np.ndarray, q: float) -> np.ndarray:
    """Each row's linear-method ``q``-quantile, read off a (rows × n)
    matrix sorted along ``axis=1``; bit-equal to
    ``np.quantile(rows, q, axis=1)``."""
    return _lerp_rows(sorted_rows, *_linear_neighbours(sorted_rows.shape[1], q))


def row_quantile(rows: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(rows, q, axis=1)`` of a (rows × n) matrix through one
    ``np.partition`` along its rows, bit-equal to it (NaN rows
    included: NaN sorts last, and the last position is partitioned too).
    """
    n = rows.shape[1]
    below, above, gamma = _linear_neighbours(n, q)
    part = np.partition(rows, sorted({below % n, above % n, n - 1}), axis=1)
    return _lerp_rows(part, below, above, gamma)


def ragged_summary(arrays, q: float | None = None) -> tuple:
    """Per-row mean, ``std(ddof=1)`` and (with ``q``) ``q``-quantile of
    1-D arrays of differing lengths: ``(mean, std, quantile or None)``.

    Rows are grouped by length and each group is reduced along
    ``axis=1`` of its stacked matrix, so a batch costs one reduction per
    distinct length instead of one per row.  Each value is bit-equal to
    the row's own ``a.mean()``, ``a.std(ddof=1)`` and
    ``np.quantile(a, q)``; a row of fewer than 2 values has std 0.0.
    """
    n = len(arrays)
    lengths = np.fromiter((a.size for a in arrays), dtype=np.int64, count=n)
    mean, std = np.empty(n), np.zeros(n)
    quantile = None if q is None else np.empty(n)
    for size in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == size)
        mat = np.stack([arrays[i] for i in rows.tolist()])
        mean[rows] = mat.mean(axis=1)
        if size >= 2:
            std[rows] = mat.std(axis=1, ddof=1)
        if q is not None:
            quantile[rows] = row_quantile(mat, q)
    return mean, std, quantile


def weighted_mean_and_std(values, weights) -> tuple[float, float]:
    """Weighted mean and the weighted population standard deviation."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: values {v.shape} vs weights {w.shape}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    mean = float((w * v).sum() / total)
    var = float((w * (v - mean) ** 2).sum() / total)
    return mean, math.sqrt(var)


def sample_skewness(data) -> float:
    """Adjusted Fisher–Pearson sample skewness (g1 with bias correction)."""
    arr = np.asarray(data, dtype=float)
    n = arr.size
    if n < 3:
        raise ValueError("skewness needs at least 3 samples")
    m = arr.mean()
    s = arr.std(ddof=0)
    if s == 0:
        return 0.0
    g1 = float(((arr - m) ** 3).mean() / s**3)
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def sample_kurtosis(data) -> float:
    """Excess sample kurtosis (0 for a normal distribution)."""
    arr = np.asarray(data, dtype=float)
    n = arr.size
    if n < 4:
        raise ValueError("kurtosis needs at least 4 samples")
    m = arr.mean()
    s = arr.std(ddof=0)
    if s == 0:
        return 0.0
    return float(((arr - m) ** 4).mean() / s**4) - 3.0
