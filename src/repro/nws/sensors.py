"""Sensors: periodic sampling of simulated resources.

A sensor reads a resource's availability trace on a fixed cadence (the
paper's NWS deployment measured CPU load at 5-second intervals) and
feeds an :class:`~repro.nws.predictor.AdaptivePredictor` plus a raw
:class:`~repro.nws.series.MeasurementSeries`.

Every sample goes through the sensor's
:class:`~repro.faults.plan.FaultPlan`, which models an unreliable
deployment: samples inside a dropout window are missed outright,
corruption events can turn a reading into NaN (rejected and counted),
duplicate it, or delay its delivery.  Late samples are held in a pending
heap and appended when simulated time reaches their delivery instant, so
the series stays ordered by *delivery* time — which is also what
staleness is measured against.  The default plan,
:meth:`FaultPlan.none() <repro.faults.plan.FaultPlan.none>`, schedules
nothing: every sample is delivered at its measurement instant.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan
from repro.nws.predictor import AdaptivePredictor
from repro.nws.series import MeasurementSeries
from repro.util.validation import check_positive
from repro.workload.traces import Trace

__all__ = ["Sensor", "NWS_DEFAULT_PERIOD"]

#: The paper's measurement cadence in seconds.
NWS_DEFAULT_PERIOD = 5.0


@dataclass
class Sensor:
    """Periodic monitor of one resource trace.

    Attributes
    ----------
    resource:
        Name of the monitored resource ("cpu:sparc2-a", "net:ethernet").
    trace:
        The ground-truth availability trace being sampled.
    period:
        Sampling period in seconds.
    faults:
        The fault schedule; the default empty plan is a healthy sensor.
    missed_samples, corrupt_samples, duplicate_samples, late_samples:
        Health counters: measurement windows lost to dropouts, readings
        rejected as non-finite, samples delivered twice, and samples
        delivered after their measurement instant.
    """

    resource: str
    trace: Trace
    period: float = NWS_DEFAULT_PERIOD
    series: MeasurementSeries = field(default_factory=MeasurementSeries)
    predictor: AdaptivePredictor = field(default_factory=AdaptivePredictor)
    faults: FaultPlan = field(default_factory=FaultPlan.none)
    missed_samples: int = 0
    corrupt_samples: int = 0
    duplicate_samples: int = 0
    late_samples: int = 0
    _next_sample: float | None = field(default=None, repr=False)
    _pending: list = field(default_factory=list, repr=False)
    _pending_seq: int = field(default=0, repr=False)
    _corruption_idx: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_positive(self.period, "period")

    def advance_to(self, t: float) -> int:
        """Take every due sample up to time ``t``; returns samples delivered.

        The first sample lands at the trace start (or wherever the sensor
        was created); subsequent samples every ``period`` seconds.
        """
        if self._next_sample is None:
            self._next_sample = self.trace.start
        events = self.faults.corruptions_for(self.resource)
        while self._next_sample <= t:
            ts = self._next_sample
            self._next_sample = ts + self.period
            if self.faults.sensor_down(self.resource, ts):
                self.missed_samples += 1
                continue
            value = self.trace.value_at(ts)
            deliver_at = ts
            duplicate = False
            if self._corruption_idx < len(events) and events[self._corruption_idx].time <= ts:
                ev = events[self._corruption_idx]
                self._corruption_idx += 1
                if ev.kind == "nan":
                    value = float("nan")
                elif ev.kind == "duplicate":
                    duplicate = True
                elif ev.kind == "late":
                    deliver_at = ts + ev.delay
            if not math.isfinite(value):
                # Graceful rejection: the corrupted reading never reaches
                # the series or the forecasters; the gap shows up as
                # staleness instead of a poisoned forecast.
                self.corrupt_samples += 1
                continue
            self._push(deliver_at, value)
            if duplicate:
                self.duplicate_samples += 1
                self._push(deliver_at, value)
            if deliver_at > ts:
                self.late_samples += 1
        return self._flush(t)

    def _push(self, deliver_at: float, value: float) -> None:
        heapq.heappush(self._pending, (deliver_at, self._pending_seq, value))
        self._pending_seq += 1

    def _flush(self, t: float) -> int:
        delivered = 0
        while self._pending and self._pending[0][0] <= t:
            deliver_at, _, value = heapq.heappop(self._pending)
            self.series.append(deliver_at, value)
            self.predictor.observe(value)
            delivered += 1
        return delivered

    @property
    def last_measurement_time(self) -> float | None:
        """Delivery timestamp of the latest sample, or None before any."""
        return self.series.last_time if self.series else None

    def staleness(self, t: float) -> float:
        """Seconds since the last delivered measurement (inf before any)."""
        last = self.last_measurement_time
        return float("inf") if last is None else max(0.0, t - last)
