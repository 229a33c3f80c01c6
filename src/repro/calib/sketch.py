"""A deterministic, mergeable quantile sketch over Monte Carlo draws.

The serving layer summarises every propagated sample cloud as
``mean ± 2σ`` plus a p95 — two moments and one tail point.  PAPERS.md
(Xu et al., Saldanha) argues production predictions should carry the
*whole* distribution.  This module provides the data structure that
makes that affordable: a DDSketch-style log-bucket quantile sketch with

* a **relative value-error guarantee**: every quantile estimate is
  within ``alpha`` (default 1%) of a sample holding that rank;
* **exact mergeability**: merging is bucket-count addition, so it is
  exactly associative, commutative, and insert-order independent —
  per-worker sketches fold into one cluster view with no approximation
  beyond the per-bucket resolution already paid;
* **determinism**: no randomness anywhere; the same multiset of values
  yields bit-identical state regardless of insertion order or grouping,
  which is what lets seeded serving runs stay bit-reproducible with
  calibration enabled.

Values are mapped to geometric buckets ``index = ceil(log_gamma |x|)``
with ``gamma = (1 + alpha) / (1 - alpha)``; a bucket's representative
value ``2 * gamma^i / (gamma + 1)`` is within ``alpha`` relative error
of every value the bucket can hold.  Negative values use a mirrored
store and near-zero values (|x| < 1e-12) a dedicated counter, so the
sketch accepts any finite float.

Each sign's buckets live in one dense store ``(lo, counts)``:
``counts[j]`` is the count of bucket ``lo + j``, zeros included.  A
store is never written in place — :func:`build_sketches` hands each
sketch a row view of its batch's shared count grid — so inserts and
merges build a new array over the union of the two bucket windows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.columns import REQUIRED, Columns

__all__ = ["QuantileSketch", "SketchRows", "build_sketches", "DEFAULT_SKETCH_ALPHA"]

#: Default relative accuracy of quantile estimates.
DEFAULT_SKETCH_ALPHA = 0.01

#: Magnitudes below this are collapsed into the zero bucket.
_MIN_MAG = 1e-12

#: A store holding no buckets.
_EMPTY = (0, np.zeros(0, dtype=np.int64))


def _combined(a, b) -> tuple[int, np.ndarray]:
    """Bucket-wise sum of two stores, as a new array over the union of
    their windows (either may be a view of a shared batch grid)."""
    (la, ca), (lb, cb) = a, b
    if not cb.size:
        return a
    if not ca.size:
        return b
    lo = min(la, lb)
    out = np.zeros(max(la + ca.size, lb + cb.size) - lo, dtype=np.int64)
    out[la - lo : la - lo + ca.size] += ca
    out[lb - lo : lb - lo + cb.size] += cb
    return lo, out


def _occupied(store) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, counts)`` of a store's non-empty buckets."""
    lo, counts = store
    nz = np.flatnonzero(counts)
    return nz + lo, counts[nz]


class QuantileSketch:
    """DDSketch-style quantile sketch with exact merge semantics.

    Parameters
    ----------
    alpha:
        Relative accuracy: ``quantile(q)`` is within ``alpha`` relative
        error of a sample at the queried rank.  Smaller alpha means more
        buckets (roughly ``log(max/min) / (2 * alpha)`` for positive
        data spanning ``[min, max]``).
    """

    __slots__ = (
        "alpha",
        "_gamma",
        "_log_gamma",
        "_pos",
        "_neg",
        "_zero",
        "_count",
        "_min",
        "_max",
    )

    def __init__(self, alpha: float = DEFAULT_SKETCH_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._pos = self._neg = _EMPTY
        self._zero = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def extend(self, values) -> "QuantileSketch":
        """Insert a batch of finite values; returns ``self``."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return self
        if not np.all(np.isfinite(arr)):
            raise ValueError("sketch values must be finite")
        self._count += int(arr.size)
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        mags = np.abs(arr)
        self._zero += int(np.count_nonzero(mags < _MIN_MAG))
        self._pos = _combined(self._pos, self._store(mags[arr >= _MIN_MAG]))
        self._neg = _combined(self._neg, self._store(mags[arr <= -_MIN_MAG]))
        return self

    def _store(self, mags: np.ndarray) -> tuple[int, np.ndarray]:
        """The dense store counting magnitudes ``mags`` (all >= 1e-12)."""
        if not mags.size:
            return _EMPTY
        idx = np.ceil(np.log(mags) / self._log_gamma).astype(np.int64)
        lo = int(idx.min())
        return lo, np.bincount(idx - lo)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (exact: bucket-count addition)."""
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"can only merge QuantileSketch, got {type(other).__name__}")
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with different alpha ({self.alpha} vs {other.alpha})"
            )
        self._pos = _combined(self._pos, other._pos)
        self._neg = _combined(self._neg, other._neg)
        self._zero += other._zero
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @classmethod
    def merged(cls, sketches) -> "QuantileSketch":
        """A new sketch holding the union of ``sketches``."""
        sketches = list(sketches)
        if not sketches:
            raise ValueError("merged() needs at least one sketch")
        out = cls(sketches[0].alpha)
        for s in sketches:
            out.merge(s)
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of inserted values."""
        return self._count

    @property
    def min(self) -> float:
        """Smallest inserted value (exact)."""
        if self._count == 0:
            raise ValueError("empty sketch has no min")
        return self._min

    @property
    def max(self) -> float:
        """Largest inserted value (exact)."""
        if self._count == 0:
            raise ValueError("empty sketch has no max")
        return self._max

    @property
    def n_buckets(self) -> int:
        """Number of occupied buckets (memory footprint proxy)."""
        occupied = np.count_nonzero(self._pos[1]) + np.count_nonzero(self._neg[1])
        return int(occupied) + (1 if self._zero else 0)

    def _ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """Bucket representatives in ascending value order + cumulative counts.

        A bucket ``i`` is represented by ``2 * gamma^i / (gamma + 1)``,
        within ``alpha`` relative error of every magnitude in
        ``(gamma^(i-1), gamma^i]``.  Empty buckets stay in the output as
        zero-mass flat runs of the cumulative counts; rank searches with
        ``side="right"`` skip past them to an occupied bucket.
        """
        g = self._gamma
        coef = 2.0 / (g + 1.0)
        parts_v: list[np.ndarray] = []
        parts_c: list[np.ndarray] = []
        lo, c = self._neg
        if c.size:
            # Descending index = ascending value.
            k = np.arange(lo + c.size - 1, lo - 1, -1, dtype=np.int64)
            parts_v.append(-coef * g ** k.astype(float))
            parts_c.append(c[::-1])
        if self._zero:
            parts_v.append(np.zeros(1))
            parts_c.append(np.asarray([self._zero]))
        lo, c = self._pos
        if c.size:
            parts_v.append(coef * g ** np.arange(lo, lo + c.size, dtype=np.int64).astype(float))
            parts_c.append(c)
        vals = np.concatenate(parts_v) if len(parts_v) > 1 else parts_v[0]
        counts = np.concatenate(parts_c) if len(parts_c) > 1 else parts_c[0]
        return vals, np.cumsum(counts)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``alpha`` relative error.

        The estimate is the representative of the bucket holding the
        sample of rank ``floor(q * (count - 1))``, clamped to the exact
        observed ``[min, max]`` (clamping only ever moves the estimate
        toward the true sample, so the error bound survives).
        """
        return float(self.quantiles([q])[0])

    def quantiles(self, levels) -> np.ndarray:
        """Vectorised :meth:`quantile` over ``levels`` (one bucket walk)."""
        qs = np.asarray(levels, dtype=float).ravel()
        if qs.size and (qs.min() < 0.0 or qs.max() > 1.0):
            raise ValueError(f"quantile levels must be in [0, 1], got {levels}")
        if self._count == 0:
            raise ValueError("cannot query quantiles of an empty sketch")
        vals, cum = self._ordered()
        ranks = np.floor(qs * (self._count - 1)).astype(np.int64)
        idx = np.searchsorted(cum, ranks, side="right")
        return np.clip(vals[idx], self._min, self._max)

    def cdf(self, x: float) -> float:
        """Estimated fraction of inserted values ``<= x``.

        Within-bucket mass is interpolated linearly across the bucket's
        value interval, so the estimate is continuous in ``x`` — the
        property the PIT histogram needs to distinguish "just inside"
        from "far inside" the distribution body.
        """
        if self._count == 0:
            raise ValueError("cannot query cdf of an empty sketch")
        if x >= self._max:
            return 1.0
        if x < self._min:
            return 0.0
        neg_total = float(self._neg[1].sum())
        if x >= 0.0:
            acc = neg_total + self._zero + self._mass_upto(self._pos, x)
        else:
            # Negative values <= x are the ones with magnitude >= -x.
            acc = neg_total - self._mass_upto(self._neg, -x)
        return min(max(acc / self._count, 0.0), 1.0)

    def _mass_upto(self, store, mag: float) -> float:
        """Count of ``store``'s magnitudes ``<= mag``, interpolating
        linearly across the bucket ``(gamma^(i-1), gamma^i]`` holding it."""
        first, counts = store
        if mag < _MIN_MAG or not counts.size:
            return 0.0
        i = math.ceil(math.log(mag) / self._log_gamma)
        lo, hi = self._gamma ** (i - 1), self._gamma**i
        j = i - first
        acc = float(counts[: max(j, 0)].sum())
        if 0 <= j < counts.size:
            acc += min(max((mag - lo) / (hi - lo), 0.0), 1.0) * counts[j]
        return acc

    # ------------------------------------------------------------------
    # Equality / serialisation
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and self._count == other._count
            and self._zero == other._zero
            and self._min == other._min
            and self._max == other._max
            and all(
                np.array_equal(x, y)
                for mine, theirs in ((self._pos, other._pos), (self._neg, other._neg))
                for x, y in zip(_occupied(mine), _occupied(theirs))
            )
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self._count}, "
            f"buckets={self.n_buckets})"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable state (exact round trip via :meth:`from_dict`)."""
        doc = {
            "alpha": self.alpha,
            "count": self._count,
            "zero": self._zero,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }
        for sign, store in (("pos", self._pos), ("neg", self._neg)):
            idx, counts = _occupied(store)
            doc[sign] = {str(i): c for i, c in zip(idx.tolist(), counts.tolist())}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantileSketch":
        """Rebuild a sketch serialised by :meth:`to_dict`."""
        out = cls(doc["alpha"])
        out._count = int(doc["count"])
        out._zero = int(doc["zero"])
        if out._count:
            out._min = float(doc["min"])
            out._max = float(doc["max"])
        for sign in ("pos", "neg"):
            buckets = {int(i): int(c) for i, c in doc.get(sign, {}).items()}
            if buckets:
                lo = min(buckets)
                counts = np.zeros(max(buckets) + 1 - lo, dtype=np.int64)
                counts[np.asarray(list(buckets)) - lo] = list(buckets.values())
                setattr(out, f"_{sign}", (lo, counts))
        return out


def build_sketches(
    samples_list, alpha: float = DEFAULT_SKETCH_ALPHA, *, levels=None
):
    """One sketch per sample array, sharing a single vectorised pass.

    The serving hot path builds one sketch (and one quantile grid) per
    request per batch; doing it one :meth:`QuantileSketch.extend` /
    :meth:`QuantileSketch.quantiles` call at a time pays ~20 small
    NumPy dispatches per request.  This constructor maps the whole
    batch's draws to bucket indices in one concatenated pass, counts
    buckets with a single composite ``np.bincount`` (bucket index keyed
    by owning array), and evaluates all bucket representatives with one
    vectorised power.  State is bit-identical to per-request ``extend``
    — same log, same ceil, same buckets — which the property suite
    asserts.

    ``samples_list`` is a sequence of sample arrays or a ``(k, n)``
    matrix of ``k`` equal-sized ones.  The sketches come back as a
    sequence: a :class:`SketchRows` that builds each on read, or (for
    zero, negative or very wide-ranging values) a list.  With
    ``levels`` given, returns ``(sketches, quantile_matrix)`` where row
    ``i`` equals ``sketches[i].quantiles(levels)`` bit for bit (same
    representative association, same cumulative counts, same rank
    search); without it, returns just the sketches.
    """
    lv = None if levels is None else np.asarray(levels, dtype=float).ravel()
    if isinstance(samples_list, np.ndarray) and samples_list.ndim == 2:
        arrays = np.ascontiguousarray(samples_list, dtype=float)
        szs = [arrays.shape[1]] * arrays.shape[0]
        cat = arrays.ravel()
    else:
        arrays = [np.asarray(s, dtype=float).ravel() for s in samples_list]
        szs = [a.size for a in arrays]
        cat = None
    if not len(arrays):
        return [] if lv is None else ([], np.empty((0, lv.size)))
    sizes = np.asarray(szs, dtype=np.int64)
    if not all(szs):
        raise ValueError("sketch values must be non-empty")
    if cat is None:
        cat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    k_arr = len(arrays)
    n0 = szs[0]
    equal = all(s == n0 for s in szs)
    if equal:
        starts = np.arange(k_arr, dtype=np.int64) * n0
    else:
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    mins = np.minimum.reduceat(cat, starts)
    maxs = np.maximum.reduceat(cat, starts)
    m_lo = float(mins.min())  # NaN propagates through min
    m_hi = float(maxs.max())
    if not (math.isfinite(m_lo) and math.isfinite(m_hi)):
        raise ValueError("sketch values must be finite")
    probe = QuantileSketch(alpha)
    gamma, log_gamma = probe._gamma, probe._log_gamma
    # Bucket range from the scalar extremes, padded by one on each side
    # in case scalar and vector log round differently at a boundary
    # (the pad only widens the bincount key space, never the state).
    if m_lo >= _MIN_MAG:
        bmin = math.ceil(math.log(m_lo) / log_gamma) - 1
        span = math.ceil(math.log(m_hi) / log_gamma) + 2 - bmin
    else:
        bmin = span = 0
    if m_lo < _MIN_MAG or k_arr * span > (cat.size << 4) + 4096:
        # Zero/negative values present, or a dynamic range so wide the
        # dense composite grid would dwarf the draw count (neither is
        # the serving hot path): build per array through the general
        # insert.
        out = [QuantileSketch(alpha).extend(arr) for arr in arrays]
        if lv is None:
            return out
        return out, np.vstack([sk.quantiles(lv) for sk in out])
    # Pure-positive fast path (execution times): no masks needed.  The
    # composite key is the bucket index ``ceil(log x / log gamma)``
    # shifted into the owning array's block of the dense grid.
    key = np.log(cat)
    key /= log_gamma
    idx = np.empty(cat.size, dtype=np.int64)
    np.ceil(key, out=idx, casting="unsafe")
    offsets = np.arange(k_arr, dtype=np.int64) * span
    if equal:
        combined = (idx.reshape(k_arr, -1) + (offsets - bmin)[:, None]).ravel()
    else:
        combined = idx + np.repeat(offsets - bmin, sizes)
    # One O(n) histogram over the composite key counts every sketch at
    # once; the counts stay as a dense (k_arr, span) grid, one row view
    # per sketch.
    counts_all = np.bincount(combined, minlength=k_arr * span)
    sketches = SketchRows(
        alpha=alpha, bmin=bmin, counts=counts_all.reshape(k_arr, span), sizes=sizes, mins=mins,
        maxs=maxs,
    )
    if lv is None:
        return sketches
    # All quantile grids in one rank search: the flat cumulative count
    # is monotone with array i's block spanning ``[base_i, base_i +
    # count_i]`` (``base_i`` = total draws of arrays before i), so
    # searching ``base_i + rank`` with side="right" lands on the same
    # occupied bucket the per-sketch search finds — empty buckets are
    # zero-mass flat runs the right-bisection skips past.
    if equal:
        ranks = np.floor((n0 - 1) * lv).astype(np.int64)[None, :]
    else:
        ranks = np.floor(np.multiply.outer(sizes - 1, lv)).astype(np.int64)
    j = np.searchsorted(np.cumsum(counts_all), starts[:, None] + ranks, side="right")
    # Representatives of the window's buckets, in the association of
    # QuantileSketch._ordered.
    reps = 2.0 / (gamma + 1.0) * gamma ** np.arange(bmin, bmin + span).astype(float)
    qmat = np.minimum(np.maximum(reps[j - offsets[:, None]], mins[:, None]), maxs[:, None])
    return sketches, qmat


class SketchRows(Columns):
    """The sketches of one :func:`build_sketches` batch, built on read.

    Row ``i``'s bucket counts are row ``i`` of one dense ``(k, span)``
    count grid over the batch's shared bucket window starting at index
    ``bmin``.  Indexing builds the :class:`QuantileSketch` whose
    positive store is a view of that row (never written: inserts and
    merges build new arrays); :meth:`take` keeps rows as another
    :class:`SketchRows`.  The serving hot path builds thousands of
    sketches whose state is seldom read at all.
    """

    _ROWS = {"counts": None, "sizes": None, "mins": None, "maxs": None}
    _SHARED = {"alpha": REQUIRED, "bmin": REQUIRED}
    __slots__ = (*_ROWS, *_SHARED)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> QuantileSketch:
        sk = QuantileSketch(self.alpha)
        sk._count = int(self.sizes[i])
        sk._min = float(self.mins[i])
        sk._max = float(self.maxs[i])
        sk._pos = (self.bmin, self.counts[i])
        return sk
