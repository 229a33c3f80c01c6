"""Serving metrics: counters, gauges and latency histograms.

A :class:`MetricsRegistry` is the server's single sink for operational
numbers — requests admitted and shed, batch sizes, answer latency,
staleness at answer time, plan-cache hit rate.  Everything is plain
Python (no wall clocks, no background threads): metrics advance only
when the server observes something, so a seeded run produces a
bit-identical snapshot.

``snapshot()`` returns a JSON-serialisable dict.  A :class:`Histogram`
keeps exact counts, min, max, mean and bucket counts for an
at-a-glance distribution shape, and serves p50/p90/p99 from a
:class:`~repro.calib.sketch.QuantileSketch` (1% relative error), so its
memory does not grow with the number of requests served.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.calib.sketch import DEFAULT_SKETCH_ALPHA, QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Default latency bucket upper bounds in seconds (plus a +inf overflow).
DEFAULT_LATENCY_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, registered models)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Bounded-memory histogram: exact counts and shape, α-relative quantiles.

    ``bounds`` are bucket upper edges, plus an implicit +inf overflow
    bucket.  The state is exact bucket counts, min and max, the sum of
    finite observations, a count of ``-inf`` ones and one
    :class:`~repro.calib.sketch.QuantileSketch` of the finite ones, which
    serves nearest-rank quantiles within ``DEFAULT_SKETCH_ALPHA`` (1%)
    relative error.  ``observe``/``observe_many`` append to short buffers,
    folded in once they hold ``_FOLD_AT`` values or the histogram is read.

    NaN is rejected outright: it would poison ``min``/``max``/quantiles
    and fall outside every bucket.  ``+inf`` is a valid observation — an
    unbounded latency, e.g. a ``retry_after`` hint with zero drain — and
    lands in the overflow bucket.
    """

    __slots__ = (
        "name", "bounds", "_singles", "_chunks", "_buffered",
        "_buckets", "_sketch", "_sum", "_min", "_max", "_neg_inf",
    )  # fmt: skip

    #: Buffered observations that trigger a fold.
    _FOLD_AT = 4096

    def __init__(self, name: str, bounds: tuple = DEFAULT_LATENCY_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._singles: list[float] = []  # buffered ``observe`` values
        self._chunks: list[np.ndarray] = []  # buffered ``observe_many`` batches
        self._buffered = 0
        self._buckets = np.zeros(len(self.bounds) + 1, dtype=np.int64)
        self._sketch = QuantileSketch(DEFAULT_SKETCH_ALPHA)
        self._sum, self._min, self._max, self._neg_inf = 0.0, math.inf, -math.inf, 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self._singles.append(value)
        self._buffered += 1
        if self._buffered >= self._FOLD_AT:
            self._fold()

    def observe_many(self, values) -> None:
        """Record a batch of observations (one NaN check)."""
        arr = np.array(values, dtype=float).ravel()
        if np.isnan(arr).any():
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        if arr.size:
            self._chunks.append(arr)
            self._buffered += arr.size
            if self._buffered >= self._FOLD_AT:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffered observations into the counts and the sketch."""
        if not self._buffered:
            return
        arr = np.sort(np.concatenate([np.array(self._singles, dtype=float), *self._chunks]))
        self._singles, self._chunks, self._buffered = [], [], 0
        # Cuts after the -inf run, at each bound (bucket j holds [bounds[j-1],
        # bounds[j]), as np.histogram bins it) and before the +inf run.
        cuts = np.searchsorted(arr, (-np.finfo(float).max, *self.bounds, math.inf))
        self._buckets += np.diff(cuts[1:-1], prepend=0, append=arr.size)
        self._min, self._max = min(self._min, float(arr[0])), max(self._max, float(arr[-1]))
        self._neg_inf += int(cuts[0])
        finite = arr[cuts[0] : cuts[-1]]
        self._sum += float(finite.sum())
        self._sketch.extend(finite)

    @property
    def count(self) -> int:
        return int(self._buckets.sum()) + self._buffered

    @classmethod
    def merged(cls, name: str, histograms) -> "Histogram":
        """One histogram over the union of ``histograms``' observations,
        which must share bucket bounds (a per-worker metric's cluster-wide
        view).  Counts add and sketches merge by bucket-count addition, so
        the result equals one histogram built over the union, whatever
        the split (its sum, and so its mean, up to summation order)."""
        histograms = list(histograms)
        out = cls(name, histograms[0].bounds if histograms else DEFAULT_LATENCY_BUCKETS)
        if len(bounds := sorted({h.bounds for h in histograms})) > 1:
            raise ValueError(f"cannot merge histograms with differing bounds: {bounds}")
        for h in histograms:
            h._fold()
            out._buckets += h._buckets
            out._sketch.merge(h._sketch)
            out._min, out._max = min(out._min, h._min), max(out._max, h._max)
            out._sum, out._neg_inf = out._sum + h._sum, out._neg_inf + h._neg_inf
        return out

    def quantile(self, q: float) -> float:
        """The nearest-rank quantile within α relative error (an infinite
        one exactly); NaN with no observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        return self._quantiles([q])[0] if self.count else float("nan")

    def _quantiles(self, qs) -> list[float]:
        """The observations of rank ``round(q * (count - 1))`` (half to
        even, as ``np.quantile``'s ``"nearest"``) for each level in
        ``qs``, finite ones within α, with one sketch walk."""
        self._fold()
        n = self._sketch.count
        ranks = np.array([round(q * (self.count - 1)) for q in qs]) - self._neg_inf
        found = self._sketch.at_ranks(ranks.clip(0, n - 1)) if n else math.inf
        return np.where(ranks < 0, -math.inf, np.where(ranks < n, found, math.inf)).tolist()

    def stats(self) -> dict:
        """Summary: exact count/mean/min/max and bucket counts,
        α-relative p50/p90/p99."""
        if not self.count:
            return {"count": 0}
        quantiles = dict(zip(("p50", "p90", "p99"), self._quantiles([0.50, 0.90, 0.99])))
        return {
            "count": self.count,
            "mean": self._sum / self._sketch.count if self._sketch.count else math.inf,
            "min": self._min,
            "max": self._max,
            **quantiles,
            "buckets": {
                (f"le_{edge:g}" if np.isfinite(edge) else "overflow"): int(c)
                for edge, c in zip((*self.bounds, np.inf), self._buckets)
            },
        }


class MetricsRegistry:
    """Named metrics, created on first touch, snapshotable as JSON."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_fresh(name)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_fresh(name)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, bounds: tuple = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """The histogram registered under ``name``, created on first touch.

        Re-fetching an existing histogram requires the *same* bounds:
        silently returning it under different bounds would let two call
        sites disagree about the bucket layout while sharing one metric.
        """
        existing = self._histograms.get(name)
        if existing is None:
            self._check_fresh(name)
            existing = self._histograms[name] = Histogram(name, bounds)
        elif tuple(bounds) != existing.bounds:  # no copy of a tuple ``bounds``
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{existing.bounds}, not {tuple(map(float, bounds))}"
            )
        return existing

    def peek_histogram(self, name: str) -> Histogram | None:
        """The histogram under ``name`` if it exists, else ``None``.

        Peeking, unlike :meth:`histogram`, never creates the metric:
        aggregation code (a cluster summing per-worker views) must not
        conjure empty metrics on instances that never observed them.
        """
        return self._histograms.get(name)

    def peek_counter(self, name: str) -> Counter | None:
        """The counter under ``name`` if it exists, else ``None``."""
        return self._counters.get(name)

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric name {name!r} already registered with another type")

    def snapshot(self) -> dict:
        """All metrics as a JSON-serialisable dict (sorted names)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.stats() for n, h in sorted(self._histograms.items())},
        }

    def to_json(self, **kwargs) -> str:
        """The snapshot rendered as a strict JSON document."""
        return json.dumps(_sanitise(self.snapshot()), allow_nan=False, **kwargs)


def _sanitise(obj):
    """Replace non-finite floats with strings so ``json`` stays strict."""
    if isinstance(obj, dict):
        return {k: _sanitise(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitise(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return obj
