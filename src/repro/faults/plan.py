"""Seeded fault schedules for the simulated production environment.

A production deployment is never perfectly healthy: sensors miss
measurement windows, machines crash and restart, network links drop out,
and telemetry arrives corrupted or late.  A :class:`FaultPlan` is a
*pre-computed, deterministic schedule* of such events against simulated
time — generated once from a seed (:meth:`FaultPlan.generate`) or built
explicitly — that every consumer (NWS sensors, the cluster simulator,
the batch scheduler) reads but never mutates.  Pre-computing the
schedule keeps chaos experiments reproducible bit-for-bit from a single
integer, exactly like every other random path in the library.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import as_generator
from repro.util.validation import check_finite, check_nonnegative, check_positive

__all__ = [
    "Outage",
    "Corruption",
    "CORRUPTION_KINDS",
    "FaultPlanConfig",
    "FaultPlan",
    "ALL_LINKS",
]

#: Recognised trace-corruption kinds: a NaN reading, a duplicated sample,
#: and a sample delivered late.
CORRUPTION_KINDS = ("nan", "duplicate", "late")

#: Link-outage key that applies to every machine pair (a partition of the
#: shared segment rather than one point-to-point link).
ALL_LINKS = ("*", "*")


@dataclass(frozen=True)
class Outage:
    """A half-open unavailability window ``[start, end)`` in simulated time."""

    start: float
    end: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", check_finite(self.start, "start"))
        object.__setattr__(self, "end", check_finite(self.end, "end"))
        if self.end <= self.start:
            raise ValueError(f"outage must have end > start, got [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        """Length of the window in seconds."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """True when ``t`` falls inside the window."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """True when the window intersects the open interval ``(t0, t1)``."""
        return self.start < t1 and t0 < self.end

    def overlap_seconds(self, t0: float, t1: float) -> float:
        """Length of the intersection with ``[t0, t1]``."""
        return max(0.0, min(self.end, t1) - max(self.start, t0))


@dataclass(frozen=True)
class Corruption:
    """One telemetry-corruption event applied to the next due sample.

    Attributes
    ----------
    time:
        Simulated time of the event; it corrupts the first sample taken
        at or after this time.
    kind:
        One of :data:`CORRUPTION_KINDS`: ``"nan"`` (the reading is
        non-finite and must be rejected), ``"duplicate"`` (the sample is
        delivered twice), ``"late"`` (delivery is delayed by ``delay``).
    delay:
        Delivery delay in seconds; only meaningful for ``"late"``.
    """

    time: float
    kind: str
    delay: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", check_finite(self.time, "time"))
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"kind must be one of {CORRUPTION_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "delay", check_nonnegative(self.delay, "delay"))


@dataclass(frozen=True)
class FaultPlanConfig:
    """Rates and shapes for seeded fault-plan generation.

    All rates are Poisson arrival rates (events per simulated second per
    resource/machine/link); durations and delays are exponential with the
    given means.  Every rate defaults to zero, so the default config
    generates an empty plan — the fault layer is strictly opt-in.
    """

    sensor_dropout_rate: float = 0.0
    sensor_dropout_mean_duration: float = 30.0
    machine_crash_rate: float = 0.0
    machine_restart_mean: float = 120.0
    link_outage_rate: float = 0.0
    link_outage_mean_duration: float = 15.0
    corruption_rate: float = 0.0
    corruption_kinds: tuple[str, ...] = CORRUPTION_KINDS
    late_delay_mean: float = 10.0

    def __post_init__(self) -> None:
        for name in (
            "sensor_dropout_rate",
            "machine_crash_rate",
            "link_outage_rate",
            "corruption_rate",
        ):
            check_nonnegative(getattr(self, name), name)
        for name in (
            "sensor_dropout_mean_duration",
            "machine_restart_mean",
            "link_outage_mean_duration",
            "late_delay_mean",
        ):
            check_positive(getattr(self, name), name)
        if not self.corruption_kinds:
            raise ValueError("corruption_kinds must not be empty")
        for kind in self.corruption_kinds:
            if kind not in CORRUPTION_KINDS:
                raise ValueError(f"unknown corruption kind {kind!r}")

    @property
    def is_null(self) -> bool:
        """True when every rate is zero (the plan will be empty)."""
        return (
            self.sensor_dropout_rate == 0.0
            and self.machine_crash_rate == 0.0
            and self.link_outage_rate == 0.0
            and self.corruption_rate == 0.0
        )


def _poisson_outages(
    rate: float, mean_duration: float, horizon: float, gen: np.random.Generator
) -> tuple[Outage, ...]:
    """Non-overlapping outage windows from a Poisson arrival process."""
    if rate <= 0.0:
        return ()
    out: list[Outage] = []
    t = 0.0
    while True:
        t += float(gen.exponential(1.0 / rate))
        if t >= horizon:
            break
        duration = max(float(gen.exponential(mean_duration)), 1e-9)
        out.append(Outage(start=t, end=t + duration))
        t += duration  # windows never overlap on one resource
    return tuple(out)


def _poisson_corruptions(
    config: FaultPlanConfig, horizon: float, gen: np.random.Generator
) -> tuple[Corruption, ...]:
    """Corruption events from a Poisson arrival process."""
    if config.corruption_rate <= 0.0:
        return ()
    out: list[Corruption] = []
    t = 0.0
    while True:
        t += float(gen.exponential(1.0 / config.corruption_rate))
        if t >= horizon:
            break
        kind = str(gen.choice(np.asarray(config.corruption_kinds, dtype=object)))
        delay = float(gen.exponential(config.late_delay_mean)) if kind == "late" else 0.0
        out.append(Corruption(time=t, kind=kind, delay=delay))
    return tuple(out)


class FaultPlan:
    """A deterministic schedule of faults against simulated time.

    Parameters
    ----------
    sensor_dropouts:
        Per-resource windows in which the sensor takes no measurement.
    machine_crashes:
        Per-machine crash/restart windows; a machine delivers no compute
        and accepts no messages while down.
    link_outages:
        Per-link (unordered machine-name pair) outage windows; the key
        :data:`ALL_LINKS` partitions every pair at once.
    corruptions:
        Per-resource telemetry-corruption events, sorted by time.
    """

    def __init__(
        self,
        *,
        sensor_dropouts: dict[str, tuple[Outage, ...]] | None = None,
        machine_crashes: dict[str, tuple[Outage, ...]] | None = None,
        link_outages: dict[tuple[str, str], tuple[Outage, ...]] | None = None,
        corruptions: dict[str, tuple[Corruption, ...]] | None = None,
    ):
        self.sensor_dropouts = {
            k: tuple(sorted(v, key=lambda o: o.start))
            for k, v in (sensor_dropouts or {}).items()
            if v
        }
        self.machine_crashes = {
            k: tuple(sorted(v, key=lambda o: o.start))
            for k, v in (machine_crashes or {}).items()
            if v
        }
        self.link_outages = {
            self._link_key(*k): tuple(sorted(v, key=lambda o: o.start))
            for k, v in (link_outages or {}).items()
            if v
        }
        self.corruptions = {
            k: tuple(sorted(v, key=lambda c: c.time))
            for k, v in (corruptions or {}).items()
            if v
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: a perfectly healthy deployment."""
        return cls()

    @classmethod
    def crashes(cls, windows: dict) -> "FaultPlan":
        """A plan of machine crash/restart windows and nothing else.

        ``windows`` maps machine (or serving-cluster worker) name to an
        iterable of ``(start, end)`` pairs or :class:`Outage` objects —
        the explicit-schedule shorthand the cluster chaos tests and
        ``repro serve --workers N --crash`` use to crash one worker
        mid-load.
        """
        return cls(
            machine_crashes={
                name: tuple(
                    o if isinstance(o, Outage) else Outage(start=o[0], end=o[1])
                    for o in spans
                )
                for name, spans in windows.items()
            }
        )

    @classmethod
    def generate(
        cls,
        config: FaultPlanConfig,
        *,
        resources: list[str] | tuple[str, ...] = (),
        machines: list[str] | tuple[str, ...] = (),
        links: list[tuple[str, str]] | tuple[tuple[str, str], ...] = (),
        horizon: float,
        rng=None,
    ) -> "FaultPlan":
        """Draw a seeded schedule over ``[0, horizon)``.

        Entities are processed in sorted order with one child generator
        each (via ``Generator.spawn``), so the schedule for any one
        entity is independent of which others are present — and the
        whole plan is byte-identical across runs with the same seed.
        """
        check_positive(horizon, "horizon")
        gen = as_generator(rng)
        resources = sorted(set(resources))
        machines = sorted(set(machines))
        links = sorted({cls._link_key(a, b) for a, b in links})
        children = gen.spawn(2 * len(resources) + len(machines) + len(links))
        it = iter(children)

        sensor_dropouts = {
            r: _poisson_outages(
                config.sensor_dropout_rate, config.sensor_dropout_mean_duration, horizon, next(it)
            )
            for r in resources
        }
        corruptions = {r: _poisson_corruptions(config, horizon, next(it)) for r in resources}
        machine_crashes = {
            m: _poisson_outages(
                config.machine_crash_rate, config.machine_restart_mean, horizon, next(it)
            )
            for m in machines
        }
        link_outages = {
            pair: _poisson_outages(
                config.link_outage_rate, config.link_outage_mean_duration, horizon, next(it)
            )
            for pair in links
        }
        return cls(
            sensor_dropouts=sensor_dropouts,
            machine_crashes=machine_crashes,
            link_outages=link_outages,
            corruptions=corruptions,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan schedules no fault of any kind."""
        return not (
            self.sensor_dropouts or self.machine_crashes or self.link_outages or self.corruptions
        )

    def sensor_down(self, resource: str, t: float) -> bool:
        """True when ``resource``'s sensor misses its measurement at ``t``."""
        return self._covered(self.sensor_dropouts.get(resource, ()), t)

    def machine_down(self, name: str, t: float) -> bool:
        """True when machine ``name`` is crashed at ``t``."""
        return self._covered(self.machine_crashes.get(name, ()), t)

    def link_down(self, a: str, b: str, t: float) -> bool:
        """True when the ``{a, b}`` link (or the whole segment) is out at ``t``."""
        if self._covered(self.link_outages.get(ALL_LINKS, ()), t):
            return True
        return self._covered(self.link_outages.get(self._link_key(a, b), ()), t)

    def link_outage_overlapping(self, a: str, b: str, t0: float, t1: float) -> Outage | None:
        """The first outage on ``{a, b}`` intersecting ``(t0, t1)``, if any."""
        candidates = self.link_outages.get(ALL_LINKS, ()) + self.link_outages.get(
            self._link_key(a, b), ()
        )
        hits = [o for o in candidates if o.overlaps(t0, t1)]
        return min(hits, key=lambda o: o.start) if hits else None

    def first_crash_overlapping(self, name: str, t0: float, t1: float) -> Outage | None:
        """The first crash of ``name`` intersecting ``(t0, t1)``, if any."""
        for o in self.machine_crashes.get(name, ()):
            if o.overlaps(t0, t1):
                return o
            if o.start >= t1:
                break
        return None

    def next_machine_up(self, name: str, t: float) -> float:
        """Earliest time ``>= t`` at which machine ``name`` is up."""
        cur = t
        for o in self.machine_crashes.get(name, ()):
            if o.contains(cur):
                cur = o.end
        return cur

    def machine_downtime(self, name: str, t0: float, t1: float) -> float:
        """Seconds machine ``name`` spends down within ``[t0, t1]``."""
        return sum(o.overlap_seconds(t0, t1) for o in self.machine_crashes.get(name, ()))

    def corruptions_for(self, resource: str) -> tuple[Corruption, ...]:
        """All corruption events scheduled for ``resource``, time-sorted."""
        return self.corruptions.get(resource, ())

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical(self) -> str:
        """A canonical text rendering of the whole schedule."""
        lines: list[str] = []
        for resource in sorted(self.sensor_dropouts):
            for o in self.sensor_dropouts[resource]:
                lines.append(f"dropout {resource} {o.start!r} {o.end!r}")
        for name in sorted(self.machine_crashes):
            for o in self.machine_crashes[name]:
                lines.append(f"crash {name} {o.start!r} {o.end!r}")
        for pair in sorted(self.link_outages):
            for o in self.link_outages[pair]:
                lines.append(f"linkdown {pair[0]}|{pair[1]} {o.start!r} {o.end!r}")
        for resource in sorted(self.corruptions):
            for c in self.corruptions[resource]:
                lines.append(f"corrupt {resource} {c.time!r} {c.kind} {c.delay!r}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """SHA-256 digest of the canonical schedule (byte-identity check)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        n_windows = sum(len(v) for v in self.sensor_dropouts.values())
        n_crashes = sum(len(v) for v in self.machine_crashes.values())
        n_links = sum(len(v) for v in self.link_outages.values())
        n_corrupt = sum(len(v) for v in self.corruptions.values())
        return (
            f"FaultPlan(dropout_windows={n_windows}, crashes={n_crashes}, "
            f"link_outages={n_links}, corruptions={n_corrupt})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @staticmethod
    def _covered(windows: tuple[Outage, ...], t: float) -> bool:
        if not windows:
            return False
        # Windows are sorted and non-overlapping: check the last one
        # starting at or before t.
        idx = bisect_right([w.start for w in windows], t) - 1
        return idx >= 0 and windows[idx].contains(t)
