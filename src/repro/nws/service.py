"""The Network Weather Service facade.

Register resources (name + ground-truth trace), advance simulated time,
and query a stochastic forecast for any resource — the two numbers the
paper's run-time predictions consume: "a value generated by the Network
Weather Service at runtime" with "the variance of those values at 5
second intervals".

The service also owns the *graceful degradation* semantics for an
unhealthy deployment (sensor dropouts, late/corrupted telemetry; see
:mod:`repro.faults`): per-resource staleness is tracked, a stale
forecast's interval widens monotonically with staleness, and a resource
that has been silent past a configurable horizon falls back to a prior
(or last-known-good) forecast instead of raising.  Qualified queries tag
every answer ``fresh`` / ``stale`` / ``fallback`` so consumers can see
what they are standing on.  Without a :class:`DegradationPolicy` the
service behaves exactly like the fault-free original.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stochastic import StochasticValue
from repro.faults.plan import FaultPlan
from repro.nws.forecasters import Forecaster
from repro.nws.predictor import AdaptivePredictor
from repro.nws.sensors import NWS_DEFAULT_PERIOD, Sensor
from repro.obs.tracer import STAGE_NWS, as_tracer
from repro.util.validation import check_nonnegative
from repro.workload.traces import Trace

__all__ = [
    "DegradationPolicy",
    "QualifiedForecast",
    "NetworkWeatherService",
    "LAST_RESORT_FORECAST",
]

#: Quality tags a qualified query can carry.
QUALITIES = ("fresh", "stale", "fallback")

#: The forecast of last resort: an uninformative availability prior whose
#: interval spans the whole (0, 1] availability range.  Qualified queries
#: return it (tagged ``"fallback"``) for a resource that has never
#: delivered a single usable measurement — every sample NaN-rejected, or
#: a sensor that has been down since registration — when no explicit
#: prior is configured.  A serving layer must receive *an* answer it can
#: divide by rather than an exception.
LAST_RESORT_FORECAST = StochasticValue(0.5, 0.5)


@dataclass(frozen=True)
class DegradationPolicy:
    """How forecasts degrade as measurements go stale.

    Attributes
    ----------
    staleness_threshold:
        Seconds of silence before a forecast stops counting as fresh
        (default: three of the paper's 5-second measurement cadences).
    staleness_penalty:
        Fractional interval widening per second of staleness beyond the
        threshold: the reported spread grows by ``penalty * excess``
        times the forecast's scale (``max(spread, |mean|)``), so
        intervals widen *monotonically* with staleness.
    fallback_after:
        Seconds of silence after which the forecast mean is no longer
        trusted either: the query returns the ``prior`` (when given)
        or the last-known-good forecast, tagged ``"fallback"``.
    prior:
        Optional prior-based forecast used when a resource has been
        silent past ``fallback_after`` — or has never reported at all.
    """

    staleness_threshold: float = 3 * NWS_DEFAULT_PERIOD
    staleness_penalty: float = 0.02
    fallback_after: float = 300.0
    prior: StochasticValue | None = None

    def __post_init__(self) -> None:
        check_nonnegative(self.staleness_threshold, "staleness_threshold")
        check_nonnegative(self.staleness_penalty, "staleness_penalty")
        if self.fallback_after < self.staleness_threshold:
            raise ValueError(
                f"fallback_after ({self.fallback_after}) must be >= "
                f"staleness_threshold ({self.staleness_threshold})"
            )

    def widen(self, base: StochasticValue, staleness: float) -> StochasticValue:
        """``base`` with its interval widened for ``staleness`` seconds.

        The widening is linear in excess staleness and scales with the
        forecast's own magnitude, so wider is always the direction of
        more staleness (the monotonicity the chaos tests assert).
        """
        excess = max(0.0, staleness - self.staleness_threshold)
        if excess == 0.0:
            return base
        scale = max(base.spread, abs(base.mean))
        return StochasticValue(base.mean, base.spread + self.staleness_penalty * excess * scale)


@dataclass(frozen=True)
class QualifiedForecast:
    """A stochastic forecast plus the degradation context it carries.

    Attributes
    ----------
    value:
        The (possibly widened) stochastic forecast.
    quality:
        ``"fresh"`` (recent data), ``"stale"`` (gap: interval widened),
        or ``"fallback"`` (mean replaced by prior/last-known-good).
    staleness:
        Seconds since the resource last delivered a measurement
        (``inf`` when it never has).
    resource:
        The queried resource name.
    at:
        Simulated time of the query.
    """

    value: StochasticValue
    quality: str
    staleness: float
    resource: str
    at: float

    def __post_init__(self) -> None:
        if self.quality not in QUALITIES:
            raise ValueError(f"quality must be one of {QUALITIES}, got {self.quality!r}")

    @property
    def is_degraded(self) -> bool:
        """True unless the forecast is backed by fresh measurements."""
        return self.quality != "fresh"


class NetworkWeatherService:
    """A simulated NWS deployment over a set of resource traces.

    Parameters
    ----------
    period:
        Measurement cadence for every sensor.
    degradation:
        Staleness/fallback policy; ``None`` (default) preserves the
        strict fault-free behaviour (queries raise rather than degrade).
    faults:
        Fault schedule threaded into every registered sensor; ``None``
        (default) is the empty plan, :meth:`FaultPlan.none`.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; qualified queries
        then record a span per answer (resource, quality, staleness).
        ``None`` (default) traces nothing and changes nothing.
    """

    def __init__(
        self,
        *,
        period: float = NWS_DEFAULT_PERIOD,
        degradation: DegradationPolicy | None = None,
        faults: FaultPlan | None = None,
        tracer=None,
    ):
        self._sensors: dict[str, Sensor] = {}
        self._period = period
        self._now = 0.0
        self._degradation = degradation
        self._faults = faults if faults is not None else FaultPlan.none()
        self.tracer = as_tracer(tracer)

    @property
    def now(self) -> float:
        """Time up to which measurements have been taken."""
        return self._now

    @property
    def resources(self) -> list[str]:
        """Registered resource names."""
        return sorted(self._sensors)

    @property
    def degradation(self) -> DegradationPolicy | None:
        """The active degradation policy, if any."""
        return self._degradation

    def register(
        self,
        resource: str,
        trace: Trace,
        *,
        forecasters: list[Forecaster] | None = None,
        replace: bool = False,
    ) -> Sensor:
        """Attach a sensor to a resource's ground-truth trace.

        With ``replace=True`` an existing registration is detached first
        — the re-register path for a resource whose host crashed and
        came back (the fresh sensor starts a clean history; the old
        sensor is simply discarded).
        """
        if resource in self._sensors:
            if not replace:
                raise ValueError(f"resource {resource!r} already registered")
            self.unregister(resource)
        predictor = (
            AdaptivePredictor(forecasters) if forecasters is not None else AdaptivePredictor()
        )
        sensor = Sensor(
            resource=resource,
            trace=trace,
            period=self._period,
            predictor=predictor,
            faults=self._faults,
        )
        self._sensors[resource] = sensor
        return sensor

    def unregister(self, resource: str) -> Sensor:
        """Detach and return the sensor for ``resource``.

        The resource name becomes free for :meth:`register` again, so a
        crashed-and-restarted host can be re-attached without rebuilding
        the whole service.  The detached sensor (with its history and
        health counters) is returned for post-mortem inspection.
        """
        try:
            return self._sensors.pop(resource)
        except KeyError:
            raise KeyError(
                f"unknown resource {resource!r}; registered: {self.resources}"
            ) from None

    def sensor(self, resource: str) -> Sensor:
        """The sensor attached to ``resource``."""
        try:
            return self._sensors[resource]
        except KeyError:
            raise KeyError(
                f"unknown resource {resource!r}; registered: {self.resources}"
            ) from None

    def advance_to(self, t: float) -> None:
        """Take all due measurements on every sensor up to time ``t``."""
        if t < self._now:
            raise ValueError(f"cannot rewind the service from {self._now} to {t}")
        for sensor in self._sensors.values():
            sensor.advance_to(t)
        self._now = t

    def staleness(self, resource: str, t: float | None = None) -> float:
        """Seconds since ``resource`` last delivered a measurement."""
        at = self._now if t is None else t
        return self.sensor(resource).staleness(at)

    def query(self, resource: str, t: float | None = None) -> StochasticValue:
        """Stochastic forecast for ``resource`` using data up to ``t``.

        ``t`` defaults to the current service time; passing a later ``t``
        first advances all sensors (measurements are never taken out of
        order across resources).  With a degradation policy installed
        this is :meth:`query_qualified` without the quality tag; without
        one it retains the strict behaviour (raises on a silent
        resource, never widens).
        """
        if self._degradation is not None:
            return self.query_qualified(resource, t).value
        if t is not None and t > self._now:
            self.advance_to(t)
        sensor = self.sensor(resource)
        if not sensor.series:
            raise RuntimeError(f"no measurements yet for {resource!r}")
        return sensor.predictor.forecast()

    def query_qualified(self, resource: str, t: float | None = None) -> QualifiedForecast:
        """Degradation-aware forecast: value + quality tag + staleness.

        Semantics (policy = the installed :class:`DegradationPolicy`, or
        the default one when none is installed):

        * staleness <= threshold — ``fresh``: the tournament forecast,
          untouched.
        * threshold < staleness <= fallback_after — ``stale``: same
          forecast with the interval widened monotonically in staleness.
        * beyond fallback_after (or never measured) — ``fallback``: the
          policy prior when given, else the last-known-good forecast,
          widened the same way.

        A resource with no delivered measurements at all (for example one
        whose every reading was NaN-rejected by the sensor) answers with
        the policy prior, or :data:`LAST_RESORT_FORECAST` when no prior
        is configured — tagged ``"fallback"``, never an exception.  A
        long-running serving layer must always get a typed degraded
        answer out of a qualified query.

        With a tracer installed, every answer records an instant span
        (stage ``nws``) carrying the resource, quality tag, staleness
        and the number of delivered measurements it stood on.
        """
        out = self._query_qualified(resource, t)
        if self.tracer.enabled:
            self.tracer.start_span(
                "nws.query_qualified",
                out.at,
                stage=STAGE_NWS,
                resource=resource,
                quality=out.quality,
                staleness=out.staleness,
                delivered=len(self.sensor(resource).series),
            ).finish(out.at)
        return out

    def _query_qualified(self, resource: str, t: float | None = None) -> QualifiedForecast:
        if t is not None and t > self._now:
            self.advance_to(t)
        policy = self._degradation if self._degradation is not None else DegradationPolicy()
        sensor = self.sensor(resource)
        at = self._now
        stale_for = sensor.staleness(at)

        if not sensor.series:
            anchor = policy.prior if policy.prior is not None else LAST_RESORT_FORECAST
            return QualifiedForecast(
                value=anchor,
                quality="fallback",
                staleness=stale_for,
                resource=resource,
                at=at,
            )

        base = sensor.predictor.forecast()
        if stale_for <= policy.staleness_threshold:
            return QualifiedForecast(
                value=base, quality="fresh", staleness=stale_for, resource=resource, at=at
            )
        if stale_for <= policy.fallback_after:
            return QualifiedForecast(
                value=policy.widen(base, stale_for),
                quality="stale",
                staleness=stale_for,
                resource=resource,
                at=at,
            )
        anchor = policy.prior if policy.prior is not None else base
        return QualifiedForecast(
            value=policy.widen(anchor, stale_for),
            quality="fallback",
            staleness=stale_for,
            resource=resource,
            at=at,
        )

    def query_window(self, resource: str, window_seconds: float) -> StochasticValue:
        """Windowed stochastic summary: mean +/- 2*std of recent samples.

        This is the run-horizon form of an NWS query — "the CPU load on
        our machines as well as the variance of those values": the sample
        mean and two sample standard deviations over the trailing
        ``window_seconds``.  Prefer it over :meth:`query` when the
        prediction must hold over an interval comparable to (or longer
        than) the resource's burst time scale; the one-step tournament
        forecast is sharper but goes stale over long executions.

        With a degradation policy installed the summary's interval is
        widened for staleness exactly like :meth:`query_qualified`.
        """
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        sensor = self.sensor(resource)
        if not sensor.series:
            if self._degradation is not None and self._degradation.prior is not None:
                return self._degradation.prior
            raise RuntimeError(f"no measurements yet for {resource!r}")
        values = sensor.series.values_since(self._now - window_seconds)
        if values.size == 0:
            values = sensor.series.values(1)
        summary = StochasticValue.from_samples(values)
        if self._degradation is not None:
            summary = self._degradation.widen(summary, sensor.staleness(self._now))
        return summary

    def query_modal(
        self,
        resource: str,
        window_seconds: float,
        *,
        characterizer=None,
    ) -> StochasticValue:
        """Section 2.1.2 modal summary of the trailing window.

        Detects the modes of the recent measurements (BIC-selected
        Gaussian mixture) and combines them weighted by occupancy — the
        paper's prescription for long-running applications whose
        execution spans several load modes.
        """
        from repro.nws.modal import ModalLoadCharacterizer

        sensor = self.sensor(resource)
        c = characterizer if characterizer is not None else ModalLoadCharacterizer()
        return c.from_sensor(sensor, window_seconds)

    def last_measurement(self, resource: str) -> tuple[float, float]:
        """The latest raw (time, value) sample for ``resource``."""
        sensor = self.sensor(resource)
        if not sensor.series:
            raise RuntimeError(f"no measurements yet for {resource!r}")
        return sensor.series.last_time, sensor.series.last_value

    def health(self) -> dict[str, dict[str, float]]:
        """Per-resource health counters and staleness at the current time."""
        return {
            name: {
                "staleness": sensor.staleness(self._now),
                "missed": float(sensor.missed_samples),
                "corrupt": float(sensor.corrupt_samples),
                "duplicates": float(sensor.duplicate_samples),
                "late": float(sensor.late_samples),
                "delivered": float(len(sensor.series)),
            }
            for name, sensor in sorted(self._sensors.items())
        }
