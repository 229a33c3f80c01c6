"""Rolling per-resource forecasts with staleness-aware refresh.

The serving hot path consults NWS forecasts on every request; running
the full forecaster tournament per request would make telemetry the
bottleneck.  A :class:`ForecastCache` sits between the server and the
:class:`~repro.nws.service.NetworkWeatherService`: each resource's
qualified forecast is computed at most once per ``refresh_interval`` of
simulated time (default: the 5-second NWS measurement cadence — a
forecast cannot change between measurements), and *invalidated early*
when telemetry ingestion delivers new samples, so a refresh is never
served stale relative to the data.

The cache preserves degradation semantics exactly: what it stores is the
full :class:`~repro.nws.service.QualifiedForecast` (value + quality tag
+ staleness), so a cached answer carries the same ``fresh`` / ``stale``
/ ``fallback`` tag the service would have produced at the refresh
instant.

When several caches share one NWS — cluster workers holding replicas of
the same shard — each refresh used to run the full qualified query once
*per cache*, so a two-replica shard paid for every forecast twice.  A
:class:`SharedRefreshLedger` fixes the double refresh: caches
constructed with the same ledger publish each computed forecast (keyed
by resource, refresh instant and delivered-measurement count) and reuse
a peer's publication instead of re-running the query, as long as it is
younger than their own refresh interval and no telemetry has arrived
since.  Degradation semantics are unchanged — the reused object is the
exact :class:`~repro.nws.service.QualifiedForecast` a fresh query at
that instant produced.
"""

from __future__ import annotations

from repro.nws.sensors import NWS_DEFAULT_PERIOD
from repro.nws.service import NetworkWeatherService, QualifiedForecast
from repro.obs.tracer import STAGE_NWS, as_tracer
from repro.util.validation import check_positive

__all__ = ["ForecastCache", "SharedRefreshLedger"]


class SharedRefreshLedger:
    """Cross-cache memo of freshly computed qualified forecasts.

    One ledger is shared by every :class:`ForecastCache` of a serving
    cluster.  Entries record ``(computed_at, delivered, forecast)`` per
    resource; a peer cache may adopt an entry only while it is younger
    than that cache's own refresh interval *and* the resource's sensor
    has delivered no measurement since — the same two conditions under
    which the cache would have trusted its private entry.
    """

    def __init__(self):
        self._entries: dict[str, tuple[float, int, QualifiedForecast]] = {}
        self.shared_hits = 0
        self.publishes = 0

    def lookup(
        self, resource: str, now: float, max_age: float, delivered: int
    ) -> QualifiedForecast | None:
        """A peer's forecast for ``resource``, if still trustworthy."""
        entry = self._entries.get(resource)
        if entry is None:
            return None
        computed_at, seen, forecast = entry
        if delivered != seen or not (0.0 <= now - computed_at < max_age):
            return None
        self.shared_hits += 1
        return forecast

    def publish(
        self, resource: str, computed_at: float, delivered: int, forecast: QualifiedForecast
    ) -> None:
        """Record a freshly computed forecast for peers to adopt."""
        self._entries[resource] = (computed_at, delivered, forecast)
        self.publishes += 1

    def stats(self) -> dict:
        """Ledger diagnostics: publishes, cross-cache hits, live entries."""
        return {
            "publishes": self.publishes,
            "shared_hits": self.shared_hits,
            "entries": len(self._entries),
        }


class ForecastCache:
    """Staleness-aware memoisation of qualified NWS queries.

    Parameters
    ----------
    nws:
        The live weather service (telemetry is ingested through
        :meth:`ingest_to`, which also drives invalidation).
    refresh_interval:
        Maximum simulated age of a cached forecast before it is
        recomputed on next access.
    ledger:
        Optional :class:`SharedRefreshLedger` shared with peer caches
        over the same NWS; a refresh first tries to adopt a peer's
        publication before running the qualified query itself.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; each lookup then
        records a span with its outcome (``hit`` / ``adopt`` /
        ``refresh``) so a request's trace shows exactly where its
        forecasts came from.  ``None`` (default) traces nothing.
    """

    def __init__(
        self,
        nws: NetworkWeatherService,
        *,
        refresh_interval: float = NWS_DEFAULT_PERIOD,
        ledger: SharedRefreshLedger | None = None,
        tracer=None,
    ):
        check_positive(refresh_interval, "refresh_interval")
        self.nws = nws
        self.refresh_interval = refresh_interval
        self.ledger = ledger
        self.tracer = as_tracer(tracer)
        self._cached: dict[str, tuple[float, QualifiedForecast]] = {}
        self._delivered: dict[str, int] = {}
        self.hits = 0
        self.refreshes = 0
        self.shared_hits = 0

    def ingest_to(self, t: float) -> int:
        """Advance the weather service to ``t`` and invalidate on news.

        Returns the number of resources whose sensors delivered at least
        one new measurement — those entries are dropped so the next
        :meth:`get` recomputes from the fresh series instead of waiting
        out the refresh interval.
        """
        if t > self.nws.now:
            self.nws.advance_to(t)
        invalidated = 0
        for resource in self.nws.resources:
            delivered = len(self.nws.sensor(resource).series)
            if delivered != self._delivered.get(resource, 0):
                self._delivered[resource] = delivered
                if self._cached.pop(resource, None) is not None:
                    invalidated += 1
        if invalidated and self.tracer.enabled:
            self.tracer.event("forecast.invalidated", t, count=invalidated)
        return invalidated

    def get(self, resource: str, now: float) -> QualifiedForecast:
        """The qualified forecast for ``resource``, cached when young.

        A cached entry is reused while it is younger than
        ``refresh_interval`` *and* no new telemetry arrived for the
        resource (see :meth:`ingest_to`); otherwise the underlying
        qualified query runs again.

        With a tracer installed each lookup records a span (stage
        ``nws``) whose ``outcome`` attribute says what happened:
        ``"hit"`` (private entry reused), ``"adopt"`` (a peer's ledger
        publication reused) or ``"refresh"`` (qualified query re-run —
        its own span nests underneath when the NWS shares the tracer).
        """
        if not self.tracer.enabled:
            return self._lookup(resource, now)[0]
        forecast = self._hit(resource, now)
        if forecast is not None:
            # Nothing nests under a hit, so its span needs no context.
            self.tracer.instant(
                "forecast.lookup",
                now,
                stage=STAGE_NWS,
                resource=resource,
                outcome="hit",
                quality=forecast.quality,
                staleness=forecast.staleness,
            )
            return forecast
        with self.tracer.span(
            "forecast.lookup", now, stage=STAGE_NWS, resource=resource
        ) as sp:
            forecast, outcome = self._lookup(resource, now)
            sp.set(outcome=outcome, quality=forecast.quality, staleness=forecast.staleness)
        return forecast

    def _lookup(self, resource: str, now: float) -> tuple[QualifiedForecast, str]:
        """The refresh-vs-adopt decision: ``(forecast, outcome)``."""
        forecast = self._hit(resource, now)
        if forecast is not None:
            return forecast, "hit"
        if self.ledger is not None:
            delivered = len(self.nws.sensor(resource).series)
            forecast = self.ledger.lookup(resource, now, self.refresh_interval, delivered)
            if forecast is not None:
                self.shared_hits += 1
                self._cached[resource] = (now, forecast)
                self._delivered[resource] = delivered
                return forecast, "adopt"
            forecast = self.nws.query_qualified(resource)
            self.ledger.publish(resource, now, delivered, forecast)
        else:
            forecast = self.nws.query_qualified(resource)
        self._cached[resource] = (now, forecast)
        self.refreshes += 1
        return forecast, "refresh"

    def _hit(self, resource: str, now: float) -> QualifiedForecast | None:
        """The private entry for ``resource`` while it is young, else
        ``None``."""
        entry = self._cached.get(resource)
        if entry is not None:
            cached_at, forecast = entry
            if now - cached_at < self.refresh_interval:
                self.hits += 1
                return forecast
        return None

    def invalidate(self, resource: str | None = None) -> None:
        """Drop one resource's cached forecast, or all of them."""
        if resource is None:
            self._cached.clear()
        else:
            self._cached.pop(resource, None)

    def stats(self) -> dict:
        """Cache diagnostics: hits, refreshes, hit rate, live entries."""
        lookups = self.hits + self.shared_hits + self.refreshes
        return {
            "hits": self.hits,
            "shared_hits": self.shared_hits,
            "refreshes": self.refreshes,
            "hit_rate": (self.hits + self.shared_hits) / lookups if lookups else 0.0,
            "entries": len(self._cached),
        }
