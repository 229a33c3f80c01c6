"""A sharded multi-worker serving cluster with failover.

One :class:`~repro.serving.server.PredictionServer` batches well, but a
production deployment scales *out*: N workers, each owning a share of
the registered models, standing in for each other when hosts crash.
:class:`ServingCluster` is that layer, driven entirely in simulated time
with the same two calls as a single server (``submit`` / ``step``), so
the seeded :class:`~repro.serving.driver.LoadDriver` drives a cluster
unchanged.

**Sharding.**  Every registered model is a shard, keyed by its name plus
a fingerprint of its bindings, placed on a consistent-hash ring
(:class:`~repro.serving.router.ClusterRouter`).  A shard has one primary
worker and ``replication - 1`` standby replicas; requests normally go to
the primary, so each worker's plan and forecast caches stay hot for its
own shards rather than every worker paging through every model.

**Failover.**  A seeded :class:`~repro.faults.plan.FaultPlan` (the
``machine_crashes`` schedule, keyed by worker name) crashes and restarts
workers.  The cluster's event loop processes crash boundaries exactly:
at a crash instant the dead worker is drained — its queued and
in-flight requests are re-routed to the shard's replicas from the
cluster's own in-flight registry — and routing skips it until the
restart instant, when it re-registers cold (forecast cache invalidated,
clock jumped over the downtime).  A replica's answer is *never silent*
about the transition: it is delivered with ``failover=True`` and a
quality tag degraded to at least ``stale``, because a standby serves the
migrated shard from standby-grade state.  The worst a client ever sees
is a typed :class:`~repro.serving.protocol.OverloadedResponse` — a
crash never surfaces as an error.

**Admission.**  A global token bucket meters the whole cluster before
per-worker queues apply their own bounds, so an aggregate overload sheds
at the front door with a ``retry_after`` hint instead of filling N
queues first.

**Elasticity.**  With an :class:`~repro.serving.elastic.ElasticConfig`
installed, an :class:`~repro.serving.elastic.Autoscaler` runs inside the
event loop at control-interval boundaries: its placement policy (static,
load-adaptive, or forecast-aware over an internal NWS load feed) votes a
fleet size, and the cluster orders new workers (live after a
``provision_time`` cold start, joining the ring with a sticky-primary
rebalance) or gracefully drains existing ones (off the ring first so new
arrivals route elsewhere, then a grace period to finish the queue, then
forced migration of the remainder through the same failover machinery a
crash uses — so a migrated answer is tagged and degraded, never silently
wrong).  A worker that *crashes while draining* is migrated once by the
crash path and retired on the spot, so it can neither double-deliver nor
resurrect at the fault window's end.  With ``elastic=None`` (the
default) none of this code runs and the cluster is bit-identical to the
fixed-fleet version, golden traces included.

**Observability.**  The cluster keeps its own metrics registry
(cluster-wide latency/queue-depth exact-quantile histograms, failover /
shard-migration / crash counters) and ``snapshot()`` merges per-worker
histograms into exact cluster-wide views
(:meth:`~repro.serving.metrics.Histogram.merged`), all JSON-ready.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.plan import FaultPlan
from repro.nws.service import QUALITIES, NetworkWeatherService
from repro.obs.tracer import STAGE_CLUSTER, STAGE_ELASTIC, as_tracer
from repro.serving.admission import TokenBucket
from repro.serving.columnar import RequestBatch, ResponseBatch
from repro.serving.elastic import Autoscaler, ElasticConfig
from repro.serving.forecasts import SharedRefreshLedger
from repro.serving.metrics import Histogram, MetricsRegistry, _sanitise
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_THROTTLED,
    SHED_UNAVAILABLE,
    ErrorResponse,
    OverloadedResponse,
    PredictRequest,
    PredictResponse,
    Response,
)
from repro.serving.router import ClusterRouter, bindings_fingerprint
from repro.serving.server import _BATCH_BUCKETS, ModelSpec, PredictionServer, ServerConfig
from repro.structural.engine import plan_cache_stats
from repro.util.rng import as_generator

__all__ = ["ClusterConfig", "ServingCluster"]

#: Queue-depth histogram bucket bounds (requests waiting per worker).
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _degraded(quality: str, floor: str = "stale") -> str:
    """``quality`` degraded to at least ``floor`` (never upgraded)."""
    return QUALITIES[max(QUALITIES.index(quality), QUALITIES.index(floor))]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level knobs (per-worker knobs live in ``worker``).

    Attributes
    ----------
    n_workers:
        Number of :class:`~repro.serving.server.PredictionServer`
        workers.
    replication:
        Owners per shard: the primary plus standby replicas that take
        the shard over when the primary crashes.
    vnodes:
        Virtual nodes per worker on the consistent-hash ring.
    cluster_rate, cluster_burst:
        Global token bucket over the whole cluster, metered in requests
        per simulated second; ``cluster_rate=0`` disables it (the
        default — per-worker queue bounds still apply).
    worker:
        The :class:`~repro.serving.server.ServerConfig` every worker
        runs with.
    """

    n_workers: int = 4
    replication: int = 2
    vnodes: int = 64
    cluster_rate: float = 0.0
    cluster_burst: float = 64.0
    worker: ServerConfig = field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.cluster_rate < 0.0:
            raise ValueError(f"cluster_rate must be >= 0, got {self.cluster_rate}")
        if self.cluster_burst < 1.0:
            raise ValueError(f"cluster_burst must be >= 1, got {self.cluster_burst}")


@dataclass
class _InFlight:
    """Where an admitted request currently lives."""

    request: PredictRequest
    worker: str
    failover: bool


class ServingCluster:
    """N sharded prediction workers behind one submit/step surface.

    Parameters
    ----------
    nws:
        The shared live weather service all workers consult (telemetry
        is a deployment-wide substrate; what is per-worker is the
        *cache view* of it).
    config:
        Cluster and per-worker knobs.
    faults:
        Optional fault schedule; ``machine_crashes`` entries keyed by
        worker name (``worker-0`` ... ``worker-N-1``) crash and restart
        workers.  ``None`` runs a perfectly healthy cluster.
    rng:
        Seed; each worker draws from an independent child generator so
        per-worker sampling is stable under cluster-size changes.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`, shared with every
        worker: routing decisions, failover migrations and deliveries
        then record spans (stage ``cluster``) alongside the workers'
        serving spans, so a failover hop is visible end to end.
        ``None`` (default) traces nothing and changes nothing.
    elastic:
        Optional :class:`~repro.serving.elastic.ElasticConfig`; installs
        an autoscaler that adds and drains workers at runtime under the
        configured placement policy.  ``None`` (default) keeps the fleet
        fixed — the event loop then takes no elastic branches and stays
        bit-identical to the pre-elastic cluster.
    """

    def __init__(
        self,
        nws: NetworkWeatherService,
        *,
        config: ClusterConfig | None = None,
        faults: FaultPlan | None = None,
        rng=None,
        tracer=None,
        elastic: ElasticConfig | None = None,
    ):
        self.nws = nws
        self.config = config if config is not None else ClusterConfig()
        self.faults = faults if faults is not None else FaultPlan.none()
        self.ledger = SharedRefreshLedger()
        self.metrics = MetricsRegistry()
        self.tracer = as_tracer(tracer)

        gen = as_generator(rng)
        children = gen.spawn(self.config.n_workers)
        # Kept for elastic scale-ups: each new worker draws the next
        # child stream, so the first n_workers draws above — and with
        # them every seeded golden — are untouched by elasticity.
        self._gen = gen
        self.workers: dict[str, PredictionServer] = {}
        for i in range(self.config.n_workers):
            self.workers[f"worker-{i}"] = PredictionServer(
                nws,
                config=self.config.worker,
                rng=children[i],
                forecast_ledger=self.ledger,
                tracer=self.tracer,
            )
        self.router = ClusterRouter(
            self.workers, replication=self.config.replication, vnodes=self.config.vnodes
        )

        self._clock = nws.now
        self._up = {name: not self.faults.machine_down(name, self._clock) for name in self.workers}
        self._bucket = (
            TokenBucket(self.config.cluster_rate, self.config.cluster_burst, now=self._clock)
            if self.config.cluster_rate > 0.0
            else None
        )
        self._shards: dict[str, str] = {}  # model name -> shard key
        self._inflight: dict[tuple[str, int], _InFlight] = {}

        # Elastic state.  All empty/inert when elasticity is off.
        self.elastic = elastic
        self._specs: list[tuple[ModelSpec, ModelSpec | None]] = []
        self._next_worker_idx = self.config.n_workers
        self._provisioning: list[tuple[str, PredictionServer, float]] = []
        self._draining: dict[str, float] = {}  # name -> force deadline
        self.shard_arrivals: dict[str, int] = {}
        self.autoscaler = Autoscaler(self, elastic) if elastic is not None else None

        for name in (
            "requests_total",
            "responses_ok",
            "shed_total",
            "errors_total",
            "failovers_total",
            "requeued_total",
            "shard_migrations_total",
            "worker_crashes_total",
            "worker_recoveries_total",
            "scale_ups_total",
            "scale_downs_total",
            "workers_retired_total",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("latency_s")
        self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS)
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_model(self, spec: ModelSpec, *, truth: ModelSpec | None = None) -> None:
        """Register ``spec`` cluster-wide and place its shard.

        Every worker registers the model (any of them may have to stand
        in as a replica), but routing sends its traffic to the shard's
        owners, so only they keep its working set hot.  ``truth`` is
        forwarded to each worker's calibration loop (see
        :meth:`PredictionServer.register_model`).
        """
        if spec.name in self._shards:
            raise ValueError(f"model {spec.name!r} already registered")
        for worker in self.workers.values():
            worker.register_model(spec, truth=truth)
        for _, server, _ in self._provisioning:
            server.register_model(spec, truth=truth)
        self._specs.append((spec, truth))
        shard = f"{spec.name}|{bindings_fingerprint(spec.bindings)}"
        self._shards[spec.name] = shard
        self.router.owners(shard)  # place eagerly, in registration order
        self.metrics.gauge("models_registered").set(len(self._shards))

    @property
    def models(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._shards)

    @property
    def now(self) -> float:
        """Simulated time the cluster event loop has been stepped to."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting across all workers."""
        return sum(w.queue_depth for w in self.workers.values())

    @property
    def healthy_workers(self) -> list[str]:
        """Names of workers currently up, sorted."""
        return sorted(name for name, up in self._up.items() if up)

    @property
    def routable_workers(self) -> list[str]:
        """Workers both on the ring and up — the real serving capacity.

        Excludes crashed workers (on the ring, not serving) and
        draining ones (serving their remainder, off the ring); this is
        the count autoscaling policies size against.
        """
        return [n for n in self.router.workers if self._up.get(n, False)]

    def owners(self, model: str) -> tuple[str, ...]:
        """The owner list (primary first) of ``model``'s shard."""
        return self.router.owners(self._shards[model])

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> Response | None:
        """Admit and route ``request``, or answer it immediately.

        Mirrors :meth:`PredictionServer.submit`: ``None`` means admitted
        (a later :meth:`step` answers it); anything else is the final
        typed response.
        """
        now = max(self._clock, request.submitted)
        self.metrics.counter("requests_total").inc()

        shard = self._shards.get(request.model)
        if shard is None:
            self.metrics.counter("errors_total").inc()
            return ErrorResponse(
                request_id=request.request_id,
                client_id=request.client_id,
                completed=now,
                message=f"unknown model {request.model!r}; registered: {self.models}",
            )
        self.shard_arrivals[shard] = self.shard_arrivals.get(shard, 0) + 1
        if self._bucket is not None and not self._bucket.allow(now):
            return self._shed(request, SHED_THROTTLED, now)

        target, failover = self.router.route(shard, self._healthy_set())
        if target is None:
            return self._shed(request, SHED_UNAVAILABLE, now)
        if self.tracer.enabled:
            self.tracer.start_span(
                "cluster.route",
                now,
                stage=STAGE_CLUSTER,
                new_trace=True,
                request_id=request.request_id,
                client_id=request.client_id,
                shard=shard,
                target=target,
                failover=failover,
            ).finish(now)
        return self._place(request, target, failover)

    def _place(self, request: PredictRequest, target: str, failover: bool) -> Response | None:
        """Hand ``request`` to ``target``; track it while in flight."""
        immediate = self.workers[target].submit(request)
        if immediate is not None:
            return self._account(replace(immediate, worker=target))
        self._inflight[(request.client_id, request.request_id)] = _InFlight(
            request=request, worker=target, failover=failover
        )
        return None

    def _shed(self, request: PredictRequest, reason: str, at: float) -> OverloadedResponse:
        drain = sum(
            self.workers[n].config.drain_rate() for n in self.workers if self._up[n]
        )
        return self._account(
            OverloadedResponse(
                request_id=request.request_id,
                client_id=request.client_id,
                completed=at,
                reason=reason,
                retry_after=(self.queue_depth / drain) if drain > 0.0 else float("inf"),
            )
        )

    def _healthy_set(self) -> set:
        return {name for name, up in self._up.items() if up}

    # ------------------------------------------------------------------
    # Columnar hot path (see docs/serving.md, "The columnar hot path")
    # ------------------------------------------------------------------
    @property
    def columnar_fast_path(self) -> bool:
        """True when whole batches can route without per-request objects.

        Anything that makes routing or delivery stateful per request —
        a fault schedule (crash migration needs the in-flight
        registry), elasticity, the cluster token bucket or tracing —
        falls back to the scalar submit/step surface.  Worker features
        (precision, calibration) never do: every worker serves every
        config on its columnar core.
        """
        return (
            not self.faults.machine_crashes
            and self.autoscaler is None
            and not self._provisioning
            and not self._draining
            and self._bucket is None
            and not self.tracer.enabled
        )

    def submit_batch(self, batch: RequestBatch) -> ResponseBatch:
        """Route a whole :class:`RequestBatch` to its shard owners.

        The columnar twin of :meth:`submit`: rows are routed per model
        (one routing decision per *distinct* model in the batch, not per
        row), handed to each target worker as one sub-batch, and the
        immediate responses come back as one :class:`ResponseBatch`.
        On the fast path no in-flight registry entries are kept — with
        no faults and no elasticity nothing can strand a request, which
        is exactly what makes the hot path allocation-free.
        """
        if len(batch) == 0:
            return ResponseBatch.empty()
        if not self.columnar_fast_path:
            return ResponseBatch.from_responses(
                [r for r in map(self.submit, batch) if r is not None]
            )
        n = len(batch)
        self.metrics.counter("requests_total").inc(n)
        model_counts = np.bincount(batch.model, minlength=len(batch.models))

        parts: list[ResponseBatch] = []
        healthy = self._healthy_set()
        target_of: dict[int, str] = {}
        unknown: list[int] = []
        for code, model in enumerate(batch.models):
            if not model_counts[code]:
                continue
            shard = self._shards.get(model)
            if shard is None:
                unknown.append(code)
                continue
            self.shard_arrivals[shard] = (
                self.shard_arrivals.get(shard, 0) + int(model_counts[code])
            )
            # Healthy fleet, no failover possible: the primary serves.
            target_of[code] = self.router.route(shard, healthy)[0]

        if unknown:
            bad = np.isin(batch.model, unknown)
            sub = batch.select(bad)
            self.metrics.counter("errors_total").inc(len(sub))
            now = np.maximum(sub.submitted, self._clock)
            parts.append(
                ResponseBatch.from_responses(
                    [
                        ErrorResponse(
                            request_id=req.request_id,
                            client_id=req.client_id,
                            completed=float(at),
                            message=(
                                f"unknown model {req.model!r}; "
                                f"registered: {self.models}"
                            ),
                        )
                        for req, at in zip(sub, now)
                    ]
                )
            )
            batch = batch.select(~bad)

        targets = sorted(set(target_of.values()))
        for name in targets:
            codes = [c for c, t in target_of.items() if t == name]
            group = (
                batch
                if len(targets) == 1 and not len(parts)
                else batch.select(np.isin(batch.model, codes))
            )
            if not len(group):
                continue
            immediate = self.workers[name].submit_batch(group)
            if len(immediate):
                parts.append(self._account_batch(immediate.with_worker(name)))
        return ResponseBatch.concat(parts)

    def step_batch(self, to: float) -> ResponseBatch:
        """Columnar event loop: step every worker, deliver in one pass.

        With no faults and no elasticity the window has no boundaries to
        cut, so each worker steps straight to ``to`` through its own
        columnar loop; deliveries are stamped with worker attribution
        batch-wise and returned in completion order.
        """
        if not self.columnar_fast_path:
            return ResponseBatch.from_responses(self.step(to))
        if to < self._clock:
            raise ValueError(f"cannot step the cluster backwards from {self._clock} to {to}")
        parts: list[ResponseBatch] = []
        for name in sorted(self.workers):
            delivered = self.workers[name].step_batch(to)
            if len(delivered):
                if self._inflight:
                    # Requests admitted through the scalar surface keep
                    # registry entries; pop them so mixed use stays sane.
                    for i in range(len(delivered)):
                        self._inflight.pop(
                            (
                                delivered.clients[delivered.client[i]],
                                int(delivered.request_id[i]),
                            ),
                            None,
                        )
                parts.append(self._account_batch(delivered.with_worker(name)))
        self._clock = to
        depth_hist = self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS)
        for worker in self.workers.values():
            depth_hist.observe(worker.queue_depth)
        return ResponseBatch.concat(parts).sorted_by_completion()

    def _account_batch(self, rb: ResponseBatch) -> ResponseBatch:
        """Vectorised mirror of :meth:`_account` for a response batch."""
        counts = rb.status_counts()
        if counts["ok"]:
            self.metrics.counter("responses_ok").inc(counts["ok"])
            for quality, c in rb.quality_counts().items():
                self.metrics.counter(f"quality_{quality}").inc(c)
            self.metrics.histogram("latency_s").observe_many(rb.latency[rb.ok_mask])
        if counts["overloaded"]:
            self.metrics.counter("shed_total").inc(counts["overloaded"])
            for reason, c in rb.reason_counts().items():
                self.metrics.counter(f"shed_{reason}").inc(c)
        if counts["error"]:
            self.metrics.counter("errors_total").inc(counts["error"])
        return rb

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step(self, to: float) -> list[Response]:
        """Run every worker's event loop up to ``to``, with failover.

        Crash and restart instants inside the window are processed
        exactly: workers are stepped segment by segment between fault
        boundaries, a worker crossing into a crash window is drained
        (its unanswered requests re-route to replicas), and one crossing
        out is restarted cold.  Responses are returned in completion
        order with worker attribution and failover tagging applied.
        """
        if to < self._clock:
            raise ValueError(f"cannot step the cluster backwards from {self._clock} to {to}")
        out: list[Response] = []
        controls = (
            set(self.autoscaler.control_times(self._clock, to))
            if self.autoscaler is not None
            else ()
        )
        for t in self._boundaries(self._clock, to, controls):
            for name in list(self.workers):
                if self._up[name]:
                    for resp in self.workers[name].step(t):
                        out.append(self._deliver(name, resp))
            if self._provisioning:
                self._commission_ready(t)
            self._apply_transitions(t, out)
            if self._draining:
                self._finalize_drains(t, out)
            if self.autoscaler is not None and t in controls:
                self.autoscaler.control(t)
            self._clock = t
        for name, worker in self.workers.items():
            if self._up[name]:
                self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS).observe(
                    worker.queue_depth
                )
        out.sort(key=lambda r: r.completed)
        return out

    def _boundaries(self, t0: float, t1: float, extra=()) -> list[float]:
        """Event instants in ``(t0, t1]``, ending with ``t1``.

        Fault edges always cut; with elasticity enabled, autoscaler
        control ticks (``extra``), worker ready times and drain
        deadlines cut too, so commissions, retirements and scaling
        decisions all land at their exact simulated instants.
        """
        cuts = set()
        for name in self.workers:
            for outage in self.faults.machine_crashes.get(name, ()):
                for edge in (outage.start, outage.end):
                    if t0 < edge <= t1:
                        cuts.add(edge)
        cuts.update(e for e in extra if t0 < e <= t1)
        cuts.update(r for _, _, r in self._provisioning if t0 < r <= t1)
        cuts.update(d for d in self._draining.values() if t0 < d <= t1)
        out = sorted(cuts)
        if not out or out[-1] != t1:
            out.append(t1)
        return out

    def _apply_transitions(self, t: float, out: list[Response]) -> None:
        """Crash/restart workers whose fault state flips at ``t``.

        A worker that crashes *while draining* is a special case: the
        crash path migrates its unanswered work exactly once (requeue
        pops the in-flight registry, so the drain finalizer cannot see
        those requests again), and the worker is retired immediately —
        it is already off the ring, and letting the fault window's end
        "restart" a retired worker would resurrect a ghost no request
        can ever route to.
        """
        for name, worker in list(self.workers.items()):
            down_now = self.faults.machine_down(name, t)
            if down_now and self._up[name]:
                self._up[name] = False
                self.metrics.counter("worker_crashes_total").inc()
                self._migrate(name, worker, t, out)
                if name in self._draining:
                    self._retire(name, t, reason="crashed_while_draining")
            elif not down_now and not self._up[name]:
                worker.restart(t)
                self._up[name] = True
                self.metrics.counter("worker_recoveries_total").inc()
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def _migrate(self, dead: str, worker: PredictionServer, t: float, out: list[Response]) -> None:
        """Re-route everything the crashed worker had not answered."""
        worker.drain()
        healthy = self._healthy_set()
        stranded = [
            key for key, entry in self._inflight.items() if entry.worker == dead
        ]
        if not self.tracer.enabled:
            self._requeue(stranded, t, healthy, out)
            return
        with self.tracer.span(
            "cluster.failover",
            t,
            stage=STAGE_CLUSTER,
            new_trace=True,
            worker=dead,
            stranded=len(stranded),
        ) as sp:
            requeued, shed = self._requeue(stranded, t, healthy, out)
            sp.set(requeued=requeued, shed=shed)

    def _requeue(
        self, stranded: list, t: float, healthy: set, out: list[Response]
    ) -> tuple[int, int]:
        """Re-route ``stranded`` in-flight requests onto ``healthy`` workers.

        Returns ``(requeued, shed)`` counts.  With tracing enabled each
        re-routed request records a ``cluster.route`` span tagged
        ``failover=True`` — the hop a replica's answer must carry.
        """
        requeued = shed = 0
        moved_shards = set()
        for key in stranded:
            entry = self._inflight.pop(key)
            deadline = entry.request.deadline
            if deadline is not None and deadline < t:
                # Same inclusive boundary as worker-side shedding
                # (PredictRequest.deadline): a deadline equal to the
                # migration instant is still servable; a strictly
                # earlier one is dead on arrival, so re-routing it
                # would only have a replica shed it later with a
                # misleading timestamp.
                out.append(self._shed(entry.request, SHED_DEADLINE, t))
                shed += 1
                continue
            shard = self._shards[entry.request.model]
            target, failover = self.router.route(shard, healthy)
            if target is None:
                out.append(self._shed(entry.request, SHED_UNAVAILABLE, t))
                shed += 1
                continue
            moved_shards.add(shard)
            self.metrics.counter("requeued_total").inc()
            requeued += 1
            if self.tracer.enabled:
                self.tracer.start_span(
                    "cluster.route",
                    t,
                    stage=STAGE_CLUSTER,
                    request_id=entry.request.request_id,
                    client_id=entry.request.client_id,
                    shard=shard,
                    target=target,
                    failover=True,
                ).finish(t)
            immediate = self.workers[target].submit(entry.request)
            if immediate is not None:
                out.append(self._account(replace(immediate, worker=target)))
            else:
                self._inflight[key] = _InFlight(
                    request=entry.request, worker=target, failover=True
                )
        self.metrics.counter("shard_migrations_total").inc(len(moved_shards))
        return requeued, shed

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    @property
    def provisioning_count(self) -> int:
        """Workers ordered but not yet routable."""
        return len(self._provisioning)

    @property
    def draining_workers(self) -> list[str]:
        """Names of workers currently draining toward retirement, sorted."""
        return sorted(self._draining)

    def order_worker(self, t: float, *, provenance: dict | None = None) -> str:
        """Order one new worker at time ``t``; it joins the ring after
        the configured provision time.

        The newcomer draws the *next* child generator from the cluster's
        seed stream — the original ``n_workers`` draws are untouched, so
        enabling elasticity never perturbs the seeded behaviour of the
        starting fleet.  Returns the new worker's name.
        """
        if self.elastic is None:
            raise RuntimeError("order_worker needs an ElasticConfig installed")
        name = f"worker-{self._next_worker_idx}"
        self._next_worker_idx += 1
        ready = t + self.elastic.provision_time
        server = PredictionServer(
            self.nws,
            config=self.config.worker,
            rng=self._gen.spawn(1)[0],
            forecast_ledger=self.ledger,
            tracer=self.tracer,
            clock=ready,
        )
        for spec, truth in self._specs:
            server.register_model(spec, truth=truth)
        self._provisioning.append((name, server, ready))
        self.metrics.counter("scale_ups_total").inc()
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.scale_up",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                ready_at=ready,
                **(provenance or {}),
            ).finish(t)
        return name

    def _commission_ready(self, t: float) -> None:
        """Join every provisioned worker whose ready time has arrived."""
        ready_now = [p for p in self._provisioning if p[2] <= t]
        if not ready_now:
            return
        self._provisioning = [p for p in self._provisioning if p[2] > t]
        for name, server, _ in ready_now:
            self.workers[name] = server
            self._up[name] = not self.faults.machine_down(name, t)
            moves = self.router.add_worker(name)
            primaries_moved = sum(1 for m in moves if m.primary_moved)
            self.metrics.counter("shard_migrations_total").inc(primaries_moved)
            if self.tracer.enabled:
                self.tracer.start_span(
                    "elastic.rebalance",
                    t,
                    stage=STAGE_ELASTIC,
                    new_trace=True,
                    worker=name,
                    joined=True,
                    shards_moved=len(moves),
                    primaries_moved=primaries_moved,
                ).finish(t)
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def drain_candidate(self) -> str | None:
        """The worker a scale-down should retire, or ``None``.

        Candidates are up, routable, and not already draining; among
        them the one holding the fewest primaries goes first (least
        traffic to migrate), with the highest worker index breaking
        ties (retire the newest).  ``None`` when at most one routable
        worker remains — the ring never empties.
        """
        candidates = [
            name
            for name in self.router.workers
            if name in self.workers and self._up[name] and name not in self._draining
        ]
        if len(candidates) < 2:
            return None
        counts = self.router.primary_counts()

        def rank(name: str) -> tuple:
            return (counts.get(name, 0), -int(name.rsplit("-", 1)[1]))

        return min(candidates, key=rank)

    def begin_drain(
        self, name: str, t: float, *, grace: float | None = None, provenance: dict | None = None
    ) -> None:
        """Start retiring ``name`` gracefully at time ``t``.

        The worker leaves the ring immediately — new arrivals route to
        the rebalanced owners — but keeps serving its queue for
        ``grace`` seconds (default: the elastic config's
        ``drain_grace``).  Whatever it has not answered by the deadline
        is force-migrated through the failover machinery, tagged and
        degraded like any other migrated answer.
        """
        if name not in self.workers or name not in self.router.workers:
            raise ValueError(f"worker {name!r} is not a routable cluster member")
        if name in self._draining:
            raise ValueError(f"worker {name!r} is already draining")
        if not self._up[name]:
            raise ValueError(f"worker {name!r} is down; crash migration already covers it")
        if grace is None:
            if self.elastic is None:
                raise ValueError("grace is required when no ElasticConfig is installed")
            grace = self.elastic.drain_grace
        moves = self.router.remove_worker(name)
        primaries_moved = sum(1 for m in moves if m.primary_moved)
        self.metrics.counter("shard_migrations_total").inc(primaries_moved)
        self.metrics.counter("scale_downs_total").inc()
        self._draining[name] = t + grace
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.scale_down",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                deadline=t + grace,
                shards_moved=len(moves),
                primaries_moved=primaries_moved,
                **(provenance or {}),
            ).finish(t)

    def _finalize_drains(self, t: float, out: list[Response]) -> None:
        """Retire draining workers that emptied out or hit their deadline.

        Pending work is read from the *live* in-flight registry at the
        moment of retirement — never from a snapshot taken at drain
        start — so a request the worker answered during the grace
        period can never also be re-routed (the delivery already popped
        its registry entry), and one it did not answer is re-routed
        exactly once (the requeue pops it).
        """
        for name in list(self._draining):
            worker = self.workers[name]
            pending = [key for key, entry in self._inflight.items() if entry.worker == name]
            if not pending:
                self._retire(name, t, reason="drained_clean")
            elif t >= self._draining[name]:
                worker.drain()
                healthy = self._healthy_set() - {name}
                if self.tracer.enabled:
                    with self.tracer.span(
                        "cluster.failover",
                        t,
                        stage=STAGE_CLUSTER,
                        new_trace=True,
                        worker=name,
                        stranded=len(pending),
                        drain_deadline=True,
                    ) as sp:
                        requeued, shed = self._requeue(pending, t, healthy, out)
                        sp.set(requeued=requeued, shed=shed)
                else:
                    self._requeue(pending, t, healthy, out)
                self._retire(name, t, reason="drain_deadline")

    def _retire(self, name: str, t: float, *, reason: str) -> None:
        """Remove a drained (or crashed-while-draining) worker for good."""
        self.workers.pop(name)
        self._up.pop(name, None)
        self._draining.pop(name, None)
        self.metrics.counter("workers_retired_total").inc()
        self.metrics.gauge("workers_up").set(sum(self._up.values()))
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.retire",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                reason=reason,
            ).finish(t)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, name: str, resp: Response) -> Response:
        """Stamp worker attribution and failover degradation on ``resp``."""
        entry = self._inflight.pop((resp.client_id, resp.request_id), None)
        failover = entry.failover if entry is not None else False
        if isinstance(resp, PredictResponse) and failover:
            resp = replace(
                resp, worker=name, failover=True, quality=_degraded(resp.quality)
            )
            self.metrics.counter("failovers_total").inc()
        else:
            resp = replace(resp, worker=name)
        if self.tracer.enabled:
            attrs = {"quality": resp.quality} if isinstance(resp, PredictResponse) else {}
            self.tracer.start_span(
                "cluster.deliver",
                resp.completed,
                stage=STAGE_CLUSTER,
                new_trace=True,
                request_id=resp.request_id,
                client_id=resp.client_id,
                worker=name,
                failover=failover,
                status=resp.status,
                **attrs,
            ).finish(resp.completed)
        return self._account(resp)

    def _account(self, resp: Response) -> Response:
        if resp.status == "ok":
            self.metrics.counter("responses_ok").inc()
            self.metrics.counter(f"quality_{resp.quality}").inc()
            self.metrics.histogram("latency_s").observe(resp.latency)
        elif resp.status == "overloaded":
            self.metrics.counter("shed_total").inc()
            self.metrics.counter(f"shed_{resp.reason}").inc()
        else:
            self.metrics.counter("errors_total").inc()
        return resp

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calibration_summary(self) -> dict | None:
        """Cluster-wide calibration scores, merged across workers.

        Per-model scores fold exactly (counts add; rolling windows
        concatenate in worker-name order); recalibration scales are
        reported per worker — each worker controls its own shard
        traffic — alongside the worst (widest) scale per model, and
        events carry their originating ``worker``.  Any answers still
        queued for deferred scoring are flushed first, so end-of-run
        reports cover everything that was served.  Returns ``None``
        when calibration is off.
        """
        from repro.calib.scorer import CalibrationScorer

        loops = {
            name: w.calib for name, w in sorted(self.workers.items()) if w.calib is not None
        }
        scorers = []
        for lp in loops.values():
            lp.flush()
            if lp.scorer is not None:
                scorers.append(lp.scorer)
        if not scorers:
            return None
        doc: dict = {
            "scores": CalibrationScorer.merged(scorers).summary(),
            "truth_spread_scale": next(iter(loops.values())).config.truth_spread_scale,
        }
        scales: dict[str, float] = {}
        flagged: set[str] = set()
        events: list[dict] = []
        for name, lp in loops.items():
            if lp.recalibrator is None:
                continue
            summary = lp.recalibrator.summary()
            events.extend({**e, "worker": name} for e in summary["events"])
            flagged.update(summary["flagged"])
            for model, scale in summary["scales"].items():
                scales[model] = max(scales.get(model, 1.0), scale)
        doc["recalibration"] = {
            "scales": dict(sorted(scales.items())),
            "flagged": sorted(flagged),
            "events": events,
            "per_worker": {
                name: lp.recalibrator.summary()["scales"]
                for name, lp in loops.items()
                if lp.recalibrator is not None
            },
        }
        return doc

    def snapshot(self) -> dict:
        """Cluster-wide operational state, JSON-serialisable.

        Includes per-worker snapshots, the cluster's own metrics, shard
        placement, the shared-refresh ledger, and *exact* cluster-wide
        latency / batch-size quantiles merged from worker histograms.
        """
        merged_latency = Histogram.merged(
            "latency_s", (w.metrics.histogram("latency_s") for w in self.workers.values())
        )
        merged_batch = Histogram.merged(
            "batch_size",
            (w.metrics.histogram("batch_size", _BATCH_BUCKETS) for w in self.workers.values()),
        )
        aggregated = {
            "latency_s": merged_latency.stats(),
            "batch_size": merged_batch.stats(),
        }
        # Adaptive-sampling metrics exist only on workers that actually
        # served an adaptive batch; peek so the merge neither creates
        # empty histograms nor adds snapshot keys to fixed-budget runs.
        draws_hists = [
            h
            for w in self.workers.values()
            if (h := w.metrics.peek_histogram("draws_used")) is not None
        ]
        if draws_hists:
            aggregated["draws_used"] = Histogram.merged("draws_used", draws_hists).stats()
        calibration = self.calibration_summary()
        if calibration is not None:
            aggregated["calibration"] = calibration
        return _sanitise(
            {
                "now": self._clock,
                "workers": {
                    name: {
                        "up": self._up[name],
                        "queue_depth": worker.queue_depth,
                        "metrics": worker.metrics.snapshot(),
                        "forecast_cache": worker.forecasts.stats(),
                    }
                    for name, worker in self.workers.items()
                },
                "cluster": self.metrics.snapshot(),
                "aggregated": aggregated,
                "shards": self.router.placement(self._shards.values()),
                "forecast_ledger": self.ledger.stats(),
                "plan_cache": plan_cache_stats(),
                "in_flight": len(self._inflight),
                "elastic": None
                if self.autoscaler is None
                else {
                    **self.autoscaler.snapshot(),
                    "provisioning": [name for name, _, _ in self._provisioning],
                    "draining": sorted(self._draining),
                },
            }
        )
