"""Seeded, YAML-driven chaos scenarios with graceful-degradation gates.

A *scenario* is a reproducible stress story for the elastic serving
cluster: an arrival-rate shape (diurnal wave, flash crowd, skewed keys,
plain constant), an optional correlated-failure plan, a fleet
configuration, and the invariants a gracefully degrading system must
hold under that stress.  Scenarios live as YAML files — the four canned
ones ship in ``repro/serving/scenario_data/`` — so new chaos stories
are data, not code.

:func:`run_scenario` plays one scenario against one routing/placement
policy (``static`` runs the plain fixed-fleet cluster, ``reactive`` and
``forecast`` install the corresponding autoscaler policy) and returns a
:class:`ScenarioReport` that has already evaluated the invariants:

* **zero lost requests** — every submission gets exactly one typed
  response; a crash or migration may shed or degrade, never drop or
  double-deliver;
* **monotone quality** — an answer that took a failover hop is tagged
  ``stale`` or worse, never presented as ``fresh``;
* **bounded p99** — answered latency stays under the scenario's bound
  (deadline shedding converts unbounded waits into typed sheds);
* **recovery** — after the disturbance ends, the last degraded response
  (a shed, or an answer over the latency SLO) arrives within
  ``recovery_within`` seconds.

Everything is seeded: the same scenario + policy + seed reproduces the
same report, so these run as regression tests and as the
``BENCH_scenarios`` policy bake-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

try:  # pragma: no cover - exercised only where PyYAML is absent
    import yaml
except ImportError:  # pragma: no cover
    yaml = None

from repro.faults.plan import FaultPlan
from repro.serving.admission import DEFAULT_PRECISION_LADDER
from repro.serving.cluster import ClusterConfig
from repro.serving.demo import demo_cluster
from repro.serving.driver import DriveReport, LoadDriver, OpenLoop
from repro.serving.elastic import ElasticConfig, policy_by_name
from repro.serving.schedules import RateSchedule, schedule_from_spec
from repro.serving.server import ServerConfig
from repro.structural.repeaters import PrecisionTarget

__all__ = [
    "Scenario",
    "ScenarioReport",
    "SCENARIO_WORKER",
    "builtin_scenarios",
    "load_scenario",
    "run_scenario",
    "POLICIES",
]

#: The policies a bake-off compares, in reporting order.
POLICIES = ("static", "reactive", "forecast")

#: The deliberately slow worker scenarios run against (service-bound,
#: ~133 req/s at full batching), matching the cluster benchmark's
#: scaling configuration so per-worker capacity is the bottleneck.
SCENARIO_WORKER = ServerConfig(
    service_time_base=0.02, service_time_per_request=0.005, batch_max=8
)

_DATA_DIR = Path(__file__).resolve().parent / "scenario_data"

#: Model sizes scenarios register by default: ten shards, so a ring
#: rebalance can move load in ~1/10 increments (the three demo sizes
#: make scale-out far too coarse to matter).
SCENARIO_SIZES = (400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000, 2200)

_TOP_KEYS = {
    "name",
    "description",
    "seed",
    "duration",
    "warmup",
    "clients",
    "deadline",
    "arrival",
    "models",
    "model_weights",
    "cluster",
    "elastic",
    "faults",
    "invariants",
    "surge",
}


@dataclass(frozen=True)
class Invariants:
    """The graceful-degradation gates a scenario run must pass.

    Times are relative to the drive start (like every other scenario
    time): ``disturbance_end`` marks when the stress is over — surge
    decayed, crashes healed, or simply end-of-submissions for constant
    pressure — and recovery is measured from there.
    """

    max_p99: float
    latency_slo: float
    disturbance_end: float
    recovery_within: float


@dataclass(frozen=True)
class Scenario:
    """One reproducible chaos story, loaded from YAML."""

    name: str
    description: str
    seed: int
    duration: float
    warmup: float
    clients: int
    deadline: float
    arrival: RateSchedule
    invariants: Invariants
    model_weights: dict | None = None
    sizes: tuple = SCENARIO_SIZES
    workers: int = 2
    replication: int = 2
    elastic_spec: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    surge: tuple[float, float] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """Validate and build a scenario from a parsed YAML mapping."""
        extra = set(raw) - _TOP_KEYS
        if extra:
            raise ValueError(f"scenario has unknown keys {sorted(extra)}")
        for key in ("name", "seed", "duration", "arrival", "invariants"):
            if key not in raw:
                raise ValueError(f"scenario is missing required key {key!r}")
        inv = raw["invariants"]
        cluster = raw.get("cluster", {})
        surge = raw.get("surge")
        faults = {
            worker: [(float(a), float(b)) for a, b in windows]
            for worker, windows in (raw.get("faults") or {}).items()
        }
        return cls(
            name=raw["name"],
            description=raw.get("description", ""),
            seed=int(raw["seed"]),
            duration=float(raw["duration"]),
            warmup=float(raw.get("warmup", 60.0)),
            clients=int(raw.get("clients", 64)),
            deadline=float(raw.get("deadline", 5.0)),
            arrival=schedule_from_spec(raw["arrival"]),
            invariants=Invariants(
                max_p99=float(inv["max_p99"]),
                latency_slo=float(inv["latency_slo"]),
                disturbance_end=float(inv["disturbance_end"]),
                recovery_within=float(inv["recovery_within"]),
            ),
            model_weights=raw.get("model_weights"),
            sizes=tuple(int(s) for s in raw.get("models", SCENARIO_SIZES)),
            workers=int(cluster.get("workers", 2)),
            replication=int(cluster.get("replication", 2)),
            elastic_spec=dict(raw.get("elastic", {})),
            faults=faults,
            surge=None if surge is None else (float(surge[0]), float(surge[1])),
        )

    @classmethod
    def from_yaml(cls, path) -> "Scenario":
        """Load one scenario from a YAML file."""
        if yaml is None:  # pragma: no cover
            raise RuntimeError("scenario files need PyYAML, which is not installed")
        raw = yaml.safe_load(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path} does not contain a YAML mapping")
        return cls.from_dict(raw)

    def elastic_config(self, policy: str) -> ElasticConfig | None:
        """The autoscaler config for ``policy`` (``None`` for static).

        ``static`` deliberately returns ``None`` rather than installing
        :class:`~repro.serving.elastic.StaticPolicy`: the bake-off's
        baseline is the cluster with *no elastic code on its event loop
        at all* — the exact configuration the golden traces pin down.
        """
        if policy == "static":
            return None
        spec = self.elastic_spec
        control = float(spec.get("control_interval", 1.0))
        provision = float(spec.get("provision_time", 2.0))
        kwargs = {}
        if policy == "forecast":
            # Plan exactly one provisioning delay ahead: a worker
            # ordered on this forecast is routable when the load lands.
            kwargs["lead_time"] = float(spec.get("lead_time", provision + control))
        return ElasticConfig(
            policy=policy_by_name(policy, **kwargs),
            min_workers=int(spec.get("min_workers", self.workers)),
            max_workers=int(spec.get("max_workers", max(8, self.workers))),
            control_interval=control,
            provision_time=provision,
            drain_grace=float(spec.get("drain_grace", 3.0)),
            cooldown=float(spec.get("cooldown", 5.0)),
        )

    def fault_plan(self, offset: float) -> FaultPlan | None:
        """The scenario's crash schedule shifted to absolute time.

        Scenario fault windows are relative to the drive start; the
        runner passes ``offset`` = warmup so crashes land mid-drive.
        """
        if not self.faults:
            return None
        return FaultPlan.crashes(
            {
                worker: [(offset + a, offset + b) for a, b in windows]
                for worker, windows in self.faults.items()
            }
        )


def builtin_scenarios() -> list[str]:
    """Names of the canned scenarios shipped with the package."""
    return sorted(p.stem.replace("_", "-") for p in _DATA_DIR.glob("*.yaml"))


def load_scenario(name_or_path: str) -> Scenario:
    """Load a scenario by built-in name or by YAML file path."""
    candidate = _DATA_DIR / f"{str(name_or_path).replace('-', '_')}.yaml"
    if candidate.exists():
        return Scenario.from_yaml(candidate)
    path = Path(name_or_path)
    if path.exists():
        return Scenario.from_yaml(path)
    raise ValueError(
        f"unknown scenario {name_or_path!r}; built-ins: {builtin_scenarios()}"
    )


@dataclass
class ScenarioReport:
    """One scenario x policy run, with its invariants already judged."""

    scenario: str
    policy: str
    submitted: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    latency_p50: float = float("nan")
    latency_p99: float = float("nan")
    surge_p99: float = float("nan")
    recovery_time: float = 0.0
    scale_ups: int = 0
    scale_downs: int = 0
    failovers: int = 0
    peak_workers: int = 0
    qualities: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    #: Adaptive-sampling stats — zero when the run was fixed-budget.
    precision_degraded: int = 0
    draws_saved_fraction: float = 0.0

    @property
    def passed(self) -> bool:
        """True when every graceful-degradation invariant held."""
        return not self.violations

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["passed"] = self.passed
        return out

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL " + "; ".join(self.violations)
        return (
            f"{self.scenario} [{self.policy}] submitted={self.submitted} ok={self.ok} "
            f"shed={self.shed} p99={self.latency_p99:.3f}s surge_p99={self.surge_p99:.3f}s "
            f"recovery={self.recovery_time:.1f}s scale_ups={self.scale_ups} "
            f"scale_downs={self.scale_downs} -> {verdict}"
        )


def _check_invariants(
    scenario: Scenario, report: ScenarioReport, drive: DriveReport, start: float
) -> None:
    """Evaluate the graceful-degradation gates into ``report.violations``."""
    inv = scenario.invariants

    # Zero lost requests: one typed response per submission, no errors,
    # no duplicate identities (a drain/crash race would show up here as
    # a double delivery).
    if drive.lost:
        report.violations.append(
            f"lost responses: {drive.submitted} submitted, {drive.lost} never answered"
        )
    if drive.duplicates:
        report.violations.append("duplicate deliveries detected")
    if drive.errors:
        report.violations.append(f"{drive.errors} error responses")

    # Monotone quality: failover answers never claim freshness.
    lying = sum(
        1 for r in drive.responses if r.ok and r.failover and r.quality == "fresh"
    )
    if lying:
        report.violations.append(f"{lying} failover answers tagged fresh")

    # Bounded p99 over answered requests.
    if drive.ok and drive.latency_p99 > inv.max_p99:
        report.violations.append(
            f"p99 {drive.latency_p99:.3f}s exceeds bound {inv.max_p99:.3f}s"
        )

    # Recovery: after the disturbance, degraded responses stop arriving
    # within the allowance.  "Degraded" is policy-agnostic — a shed, or
    # an answer over the latency SLO.
    disturbance_end = start + inv.disturbance_end
    bad_times = [
        r.completed
        for r in drive.responses
        if (not r.ok) or (r.ok and r.latency > inv.latency_slo)
    ]
    last_bad = max((t for t in bad_times if t > disturbance_end), default=disturbance_end)
    report.recovery_time = last_bad - disturbance_end
    if report.recovery_time > inv.recovery_within:
        report.violations.append(
            f"recovery took {report.recovery_time:.1f}s "
            f"(allowed {inv.recovery_within:.1f}s)"
        )


def run_scenario(
    scenario: Scenario | str,
    policy: str = "forecast",
    *,
    tracer=None,
    precision: PrecisionTarget | str | None = None,
) -> ScenarioReport:
    """Play ``scenario`` under ``policy`` and judge its invariants.

    ``scenario`` is a :class:`Scenario` or a name/path for
    :func:`load_scenario`; ``policy`` is one of :data:`POLICIES`.  The
    run is fully seeded from the scenario — identical inputs produce an
    identical report.

    ``precision`` (a
    :class:`~repro.structural.repeaters.PrecisionTarget` or a
    ``"p95:2%"``-style string) turns on adaptive sampling: every worker
    gets the target as its server-wide default *and* the
    :data:`~repro.serving.admission.DEFAULT_PRECISION_LADDER`, so under
    overload the cluster loosens tolerances (tagged on responses) before
    shedding requests.  The report then carries ``precision_degraded``
    and ``draws_saved_fraction``.
    """
    if isinstance(scenario, str):
        scenario = load_scenario(scenario)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if isinstance(precision, str):
        precision = PrecisionTarget.parse(precision)
    worker = SCENARIO_WORKER
    if precision is not None:
        worker = replace(
            worker,
            precision=precision,
            admission=replace(
                worker.admission, precision_ladder=DEFAULT_PRECISION_LADDER
            ),
        )

    faults = scenario.fault_plan(scenario.warmup)
    cluster, _, _ = demo_cluster(
        duration=scenario.warmup + scenario.duration + 120.0,
        sizes=scenario.sizes,
        config=ClusterConfig(
            n_workers=scenario.workers,
            replication=scenario.replication,
            worker=worker,
        ),
        faults=faults,
        warmup=scenario.warmup,
        rng=scenario.seed,
        tracer=tracer,
        elastic=scenario.elastic_config(policy),
    )
    start = cluster.now
    driver = LoadDriver(
        cluster,
        cluster.models,
        OpenLoop(scenario.arrival, clients=scenario.clients),
        duration=scenario.duration,
        deadline=scenario.deadline,
        rng=scenario.seed,
        model_weights=scenario.model_weights,
    )
    drive = driver.run()

    snap = cluster.snapshot()
    counters = snap["cluster"]["counters"]
    report = ScenarioReport(
        scenario=scenario.name,
        policy=policy,
        submitted=drive.submitted,
        ok=drive.ok,
        shed=drive.shed,
        errors=drive.errors,
        latency_p50=drive.latency_p50,
        latency_p99=drive.latency_p99,
        failovers=int(counters.get("failovers_total", 0)),
        qualities=dict(drive.qualities),
    )
    if precision is not None:
        report.precision_degraded = sum(
            1
            for r in drive.responses
            if r.ok and r.precision is not None and r.precision.degraded
        )
        used = snap["aggregated"].get("draws_used_total", 0)
        budget = snap["aggregated"].get("draws_budget_total", 0)
        report.draws_saved_fraction = 1.0 - used / budget if budget else 0.0
    if snap["elastic"] is not None:
        report.scale_ups = int(counters.get("scale_ups_total", 0))
        report.scale_downs = int(counters.get("scale_downs_total", 0))
        timeline = cluster.autoscaler.timeline
        report.peak_workers = max(
            (e["active"] + e["pending"] for e in timeline), default=scenario.workers
        )
    else:
        report.peak_workers = scenario.workers

    if scenario.surge is not None:
        lo, hi = (start + scenario.surge[0], start + scenario.surge[1])
        surge_lat = sorted(
            r.latency
            for r in drive.responses
            if r.ok and lo <= (r.completed - r.latency) <= hi
        )
        if surge_lat:
            report.surge_p99 = surge_lat[min(len(surge_lat) - 1, int(0.99 * len(surge_lat)))]

    _check_invariants(scenario, report, drive, start)
    return report
