"""Serving metrics: counters, gauges and latency histograms.

A :class:`MetricsRegistry` is the server's single sink for operational
numbers — requests admitted and shed, batch sizes, answer latency,
staleness at answer time, plan-cache hit rate.  Everything is plain
Python (no wall clocks, no background threads): metrics advance only
when the server observes something, so a seeded run produces a
bit-identical snapshot.

``snapshot()`` returns a JSON-serialisable dict; :class:`Histogram`
keeps every observation so the snapshot's p50/p90/p99 are exact order
statistics, and additionally buckets observations for an at-a-glance
distribution shape.  The store grows with every request served (a
million-request soak holds millions of float64 values, 8 bytes each);
bounding it is ROADMAP item 5.
"""

from __future__ import annotations

import json
import math

import numpy as np

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
    """Exact-quantile histogram with fixed overview buckets.

    Observations are retained in full (quantiles in the snapshot are
    exact) as float64 array chunks, in arrival order; single
    observations collect in a short list that becomes a chunk when it
    fills or the values are read.  ``bounds`` define cumulative-style
    bucket upper edges for a compact shape overview, with an implicit
    +inf overflow bucket.
    """

    __slots__ = ("name", "bounds", "_chunks", "_pending", "_count")

    #: Single observations buffered before they become one chunk.
    _PENDING_MAX = 1024

    def __init__(self, name: str, bounds: tuple = DEFAULT_LATENCY_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._chunks: list[np.ndarray] = []
        self._pending: list[float] = []
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation.

        NaN is rejected outright: a single NaN observation would poison
        ``min``/``max``/quantiles and silently fall outside every bucket
        (counts would no longer sum to ``count``).  ``+inf`` is a valid
        observation — an unbounded latency, e.g. a ``retry_after`` hint
        with zero drain — and lands in the overflow bucket.
        """
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self._pending.append(value)
        self._count += 1
        if len(self._pending) >= self._PENDING_MAX:
            self._flush()

    def observe_many(self, values) -> None:
        """Record a batch of observations in order (one NaN check)."""
        arr = np.array(values, dtype=float).ravel()
        if np.isnan(arr).any():
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        if arr.size:
            self._flush()
            self._chunks.append(arr)
            self._count += arr.size

    def _flush(self) -> None:
        if self._pending:
            self._chunks.append(np.array(self._pending, dtype=float))
            self._pending = []

    def _array(self) -> np.ndarray:
        """Every observation as one array (chunks are joined in place)."""
        self._flush()
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0] if self._chunks else np.empty(0)

    @property
    def count(self) -> int:
        return self._count

    @property
    def values(self) -> tuple:
        """Every observation, in arrival order (read-only view)."""
        return tuple(self._array().tolist())

    @classmethod
    def merged(cls, name: str, histograms) -> "Histogram":
        """One histogram holding every observation of ``histograms``.

        The cluster-wide view of a per-worker metric: because
        observations are retained in full, quantiles of the merged
        histogram are *exact* over the union — not an approximation
        stitched from per-worker quantiles.  All inputs must share
        bucket bounds (they come from the same metric name).
        """
        histograms = list(histograms)
        if not histograms:
            return cls(name)
        bounds = histograms[0].bounds
        for h in histograms[1:]:
            if h.bounds != bounds:
                raise ValueError(
                    f"cannot merge histograms with differing bounds: "
                    f"{bounds} vs {h.bounds}"
                )
        out = cls(name, bounds)
        joined = np.concatenate([h._array() for h in histograms])
        out._chunks, out._count = [joined], joined.size
        return out

    def quantile(self, q: float) -> float:
        """Exact order-statistic quantile; NaN with no observations.

        ``method="nearest"`` returns an actual observation rather than
        interpolating, so a histogram containing ``+inf`` still yields a
        meaningful quantile instead of ``inf - inf`` artefacts.
        """
        if not self._count:
            return float("nan")
        return float(np.quantile(self._array(), q, method="nearest"))

    def stats(self) -> dict:
        """Summary: count/mean/min/max, exact p50/p90/p99, bucket counts."""
        if not self._count:
            return {"count": 0}
        arr = self._array()
        finite = arr[np.isfinite(arr)]
        edges = np.concatenate([self.bounds, [np.inf]])
        counts = np.histogram(arr, bins=np.concatenate([[-np.inf], edges]))[0]
        # method="nearest" returns actual observations (no interpolation
        # arithmetic), which keeps quantiles exact and inf-safe.
        return {
            "count": int(arr.size),
            "mean": float(np.mean(finite)) if finite.size else float("inf"),
            "min": float(np.min(arr)),
            "max": float(np.max(arr)),
            "p50": float(np.quantile(arr, 0.50, method="nearest")),
            "p90": float(np.quantile(arr, 0.90, method="nearest")),
            "p99": float(np.quantile(arr, 0.99, method="nearest")),
            "buckets": {
                (f"le_{edge:g}" if np.isfinite(edge) else "overflow"): int(c)
                for edge, c in zip(edges, counts)
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
        if existing is not None:
            requested = tuple(float(b) for b in bounds)
            if requested != existing.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}, not {requested}"
                )
            return existing
        self._check_fresh(name)
        self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    def peek_histogram(self, name: str) -> Histogram | None:
        """The histogram under ``name`` if it exists, else ``None``.

        Unlike :meth:`histogram`, peeking never creates the metric — the
        accessor for aggregation code (e.g. a cluster merging per-worker
        views) that must not conjure empty metrics on instances that
        never observed the phenomenon.
        """
        return self._histograms.get(name)

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
        """The snapshot rendered as a JSON document."""

        def _default(o):
            if isinstance(o, float) and not np.isfinite(o):  # pragma: no cover
                return str(o)
            raise TypeError(f"not JSON-serialisable: {o!r}")

        payload = _sanitise(self.snapshot())
        return json.dumps(payload, default=_default, **kwargs)


def _sanitise(obj):
    """Replace non-finite floats with strings so ``json`` stays strict."""
    if isinstance(obj, dict):
        return {k: _sanitise(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitise(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return obj
