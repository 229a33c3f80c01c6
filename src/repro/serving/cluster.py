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
at a crash instant the dead worker is drained — every request it had
not answered, queued or served but undelivered, comes back in
admission order and is re-routed to the shard's replicas — and routing
skips it until the restart instant, when it re-registers cold
(forecast cache invalidated, clock jumped over the downtime).  A
replica's answer is *never silent* about the transition: it is
delivered with ``failover=True`` and a quality tag degraded to at least
``stale``, because a standby serves the migrated shard from
standby-grade state.  The worst a client ever sees is a typed
:class:`~repro.serving.protocol.OverloadedResponse` — a crash never
surfaces as an error.

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

**One path.**  Every config runs on columns: ``submit_batch`` routes
one decision per distinct model, meters the cluster bucket in one loop
and hands each target worker one sub-batch; ``step_batch`` steps the
workers between fault and elastic boundaries and stamps deliveries
batch-wise.  The workers are the in-flight registry, and a ``failover``
column rides from the request rows to the answers, so the healthy path
keeps no per-request state.  ``submit``/``step`` are one-row views.

**Calibration.**  With ``worker.calibration`` set, the cluster builds
one :class:`~repro.calib.loop.CalibrationLoop` and hands it to every
worker it creates, as it shares the NWS, the refresh ledger and the
tracer.  A model's scale, scores and deferred queue therefore belong to
the deployment, not to whichever worker served it: a standby, a
rebalanced owner or a newcomer serves at the learned scale, and a
retired worker's answers stay scored.

**Observability.**  The cluster keeps its own metrics registry
(latency and queue-depth histograms, failover / migration / crash
counters, the calibration loop's ``calib_*`` metrics), and
``snapshot()`` sums the workers' batch-size and draw histograms and draw
counters, retired workers' included, into cluster-wide views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.calib.loop import CalibrationLoop
from repro.faults.plan import FaultPlan
from repro.nws.service import QUALITIES, NetworkWeatherService
from repro.obs.tracer import STAGE_CLUSTER, STAGE_ELASTIC, as_tracer
from repro.serving.admission import TokenBucket
from repro.serving.columnar import REASONS, STATUSES, RequestBatch, ResponseBatch
from repro.serving.elastic import Autoscaler, ElasticConfig
from repro.serving.forecasts import SharedRefreshLedger
from repro.serving.metrics import Histogram, MetricsRegistry
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_THROTTLED,
    SHED_UNAVAILABLE,
    PredictRequest,
    Response,
)
from repro.serving.router import ClusterRouter, bindings_fingerprint
from repro.serving.server import (
    _QUALITY_NAMES,
    _STATUS_NAMES,
    ModelSpec,
    PredictionServer,
    ServerConfig,
    _account,
    _answers,
    _names,
)
from repro.structural.engine import plan_cache_stats
from repro.util.jsonsafe import sanitise
from repro.util.rng import as_generator

__all__ = ["ClusterConfig", "ServingCluster"]

#: Queue-depth histogram bucket bounds (requests waiting per worker).
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Columnar codes the cluster stamps.
_ST_OK = STATUSES.index("ok")
_ST_OVERLOADED = STATUSES.index("overloaded")
_ST_ERROR = STATUSES.index("error")
_RE_THROTTLED = REASONS.index(SHED_THROTTLED)
_RE_DEADLINE = REASONS.index(SHED_DEADLINE)
_RE_UNAVAILABLE = REASONS.index(SHED_UNAVAILABLE)
_STALE = QUALITIES.index("stale")


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
        # One calibration loop for the deployment, on the child stream
        # after the workers'; its metrics are the cluster's.
        calibration = self.config.worker.calibration
        self.calib = (
            CalibrationLoop(calibration, gen, tracer=self.tracer, metrics=self.metrics)
            if calibration is not None
            else None
        )
        self.workers: dict[str, PredictionServer] = {}
        for i in range(self.config.n_workers):
            self.workers[f"worker-{i}"] = PredictionServer(
                nws,
                config=self.config.worker,
                rng=children[i],
                forecast_ledger=self.ledger,
                tracer=self.tracer,
                calib=self.calib,
            )
        self.router = ClusterRouter(self.workers, replication=self.config.replication)

        self._clock = nws.now
        self._up = {name: not self.faults.machine_down(name, self._clock) for name in self.workers}
        self._bucket = (
            TokenBucket(self.config.cluster_rate, self.config.cluster_burst, now=self._clock)
            if self.config.cluster_rate > 0.0
            else None
        )
        self._shards: dict[str, str] = {}  # model name -> shard key

        # Elastic state.  All empty/inert when elasticity is off.
        self.elastic = elastic
        self._specs: list[ModelSpec] = []
        self._next_worker_idx = self.config.n_workers
        self._provisioning: list[tuple[str, PredictionServer, float]] = []
        self._draining: dict[str, float] = {}  # name -> force deadline
        # Retired workers' summed metrics (see _summed).
        self._retired: dict = {}
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
        registered once, on the cluster's calibration loop (see
        :meth:`PredictionServer.register_model`).
        """
        if spec.name in self._shards:
            raise ValueError(f"model {spec.name!r} already registered")
        for worker in self.workers.values():
            worker.register_model(spec)
        for _, server, _ in self._provisioning:
            server.register_model(spec)
        if self.calib is not None:
            self.calib.register(spec, truth)
        self._specs.append(spec)
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
    @property
    def columnar_fast_path(self) -> bool:
        """Always ``True``: every config is served on the columnar path.

        Kept read-only for callers that record which path served them.
        """
        return True

    def submit(self, request: PredictRequest) -> Response | None:
        """Admit and route ``request``, or answer it immediately.

        The one-row view of :meth:`submit_batch`: ``None`` means admitted
        (a later :meth:`step` answers it); anything else is the final
        typed response.
        """
        rb = self.submit_batch(RequestBatch.from_requests([request]))
        return rb.response(0) if len(rb) else None

    def submit_batch(self, batch: RequestBatch) -> ResponseBatch:
        """Route a whole :class:`RequestBatch` to its shard owners.

        Rows naming an unknown model are answered with an error; the
        rest pass the cluster token bucket (one grant per row, in row
        order) and are routed with one decision per *distinct* model,
        each target worker receiving its rows as one sub-batch.  The
        immediate responses — errors, cluster sheds and the workers'
        own admission sheds — come back in row order, with the verdicts
        and bucket state of submitting the rows one at a time.
        """
        n = len(batch)
        if n == 0:
            return ResponseBatch.empty()
        self.metrics.counter("requests_total").inc(n)
        now = np.maximum(batch.submitted, self._clock)
        known = np.fromiter(
            (m in self._shards for m in batch.models), dtype=bool, count=len(batch.models)
        )[batch.model]
        if known.all():
            return self._admit(batch, now)[1]
        bad, rows = np.flatnonzero(~known), np.flatnonzero(known)
        errors = _answers(
            batch.select(bad),
            status=np.full(bad.size, _ST_ERROR, np.int8),
            completed=now[bad],
            messages=tuple(
                f"unknown model {batch.models[c]!r}; registered: {self.models}"
                for c in batch.model[bad].tolist()
            ),
        )
        _account(self.metrics, errors)
        if not rows.size:
            return errors
        idx, admitted = self._admit(batch.select(rows), now[rows])
        order = np.argsort(np.concatenate([bad, rows[idx]]), kind="stable")
        return ResponseBatch.concat([errors, admitted]).select(order)

    def _admit(self, batch: RequestBatch, now: np.ndarray) -> tuple[np.ndarray, ResponseBatch]:
        """Known-model rows through the front door: count shard
        arrivals, meter the cluster bucket, route (see :meth:`_dispatch`)."""
        codes, first = np.unique(batch.model, return_index=True)
        counts = np.bincount(batch.model, minlength=len(batch.models))
        for code in codes[np.argsort(first)].tolist():
            shard = self._shards[batch.models[code]]
            self.shard_arrivals[shard] = self.shard_arrivals.get(shard, 0) + int(counts[code])
        reason = np.zeros(len(batch), dtype=np.int8)
        if self._bucket is not None:
            reason[~self._bucket.allow_many(now)] = _RE_THROTTLED
        return self._dispatch(batch, reason, now, set(self.healthy_workers))[:2]

    def _dispatch(
        self,
        batch: RequestBatch,
        reason: np.ndarray,
        at: np.ndarray,
        healthy: set,
        *,
        migrating: bool = False,
    ) -> tuple[np.ndarray, ResponseBatch, np.ndarray]:
        """Route rows to their shard owners; shed the ones that cannot go.

        ``reason`` holds each row's cluster-level shed reason decided
        upstream (a :data:`REASONS` code; 0 routes the row), ``at`` the
        instant each row is routed or shed.  Rows whose every owner is
        down are shed ``unavailable``.  The rest go to their target as
        one submission per worker, tagged ``failover`` when the target
        is a standby — always, when ``migrating``.  Each cluster shed's
        ``retry_after`` reads the cluster queue depth at its own row:
        the depth before the call plus the rows admitted ahead of it.

        Returns ``(rows, responses, routed)``: the immediate responses
        in row order with the row index each answers, and the mask of
        rows handed to a worker.
        """
        n = len(batch)
        reason = reason.copy()
        depth0 = self.queue_depth
        targets: list[str] = []
        target_of = np.full(len(batch.models), -1)
        standby = np.zeros(len(batch.models), dtype=bool)
        for code in np.unique(batch.model[reason == 0]).tolist():
            name, failover = self.router.route(self._shards[batch.models[code]], healthy)
            if name is None:
                continue
            if name not in targets:
                targets.append(name)
            target_of[code] = targets.index(name)
            standby[code] = failover
        target = target_of[batch.model]
        reason[(reason == 0) & (target < 0)] = _RE_UNAVAILABLE
        routed = reason == 0
        failover = np.ones(n, dtype=bool) if migrating else standby[batch.model]
        if self.tracer.enabled and routed.any():
            r = np.flatnonzero(routed)
            shards = np.array([self._shards.get(m) for m in batch.models], dtype=object)
            self.tracer.start_rows(
                "cluster.route",
                at[r],
                stage=STAGE_CLUSTER,
                new_trace=not migrating,
                instant=True,
                request_id=batch.request_id[r],
                client_id=_names(batch.clients)[batch.client[r]],
                shard=shards[batch.model[r]],
                target=np.array(targets, dtype=object)[target[r]],
                failover=failover[r],
            )

        admitted = np.zeros(n, dtype=bool)
        parts: list[ResponseBatch] = []
        rows_of: list[np.ndarray] = []
        for j, name in enumerate(targets):
            rows = np.flatnonzero(routed & (target == j))
            flags = failover[rows]
            flags = flags if flags.any() else None
            if rows.size == n and flags is None and batch.failover is None:
                sub = batch
            else:
                sub = batch.select(rows)
                sub.failover = flags
            immediate, ok = self.workers[name]._submit(sub)
            admitted[rows[ok]] = True
            if len(immediate):
                parts.append(immediate.with_worker(name))
                rows_of.append(rows[~ok])
        shed = np.flatnonzero(~routed)
        if shed.size:
            drain = sum(
                self.workers[w].config.drain_rate() for w in self.workers if self._up[w]
            )
            depth = (depth0 + np.cumsum(admitted) - admitted)[shed]
            parts.append(
                _answers(
                    batch.select(shed),
                    status=np.full(shed.size, _ST_OVERLOADED, np.int8),
                    reason=reason[shed],
                    completed=at[shed],
                    retry_after=depth / drain if drain > 0.0 else np.full(shed.size, np.inf),
                )
            )
            rows_of.append(shed)
        if not parts:
            return np.zeros(0, dtype=np.int64), ResponseBatch.empty(), routed
        idx = np.concatenate(rows_of)
        order = np.argsort(idx, kind="stable")
        out = _account(self.metrics, ResponseBatch.concat(parts).select(order))
        return idx[order], out, routed

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step(self, to: float) -> list[Response]:
        """Run the event loop up to ``to``: the one-row view of
        :meth:`step_batch`, returning each response as its dataclass."""
        return self.step_batch(to).to_responses()

    def step_batch(self, to: float) -> ResponseBatch:
        """Run every worker's event loop up to ``to``, with failover.

        Crash and restart instants inside the window are processed
        exactly: workers are stepped segment by segment between fault
        (and, with elasticity, control, ready and drain-deadline)
        boundaries, a worker crossing into a crash window is drained
        (its unanswered rows re-route to replicas), and one crossing out
        is restarted cold.  Each worker's deliveries are stamped with
        worker attribution and failover tagging batch-wise; everything
        comes back in completion order.
        """
        if to < self._clock:
            raise ValueError(f"cannot step the cluster backwards from {self._clock} to {to}")
        parts: list[ResponseBatch] = []
        controls = (
            set(self.autoscaler.control_times(self._clock, to))
            if self.autoscaler is not None
            else ()
        )
        for t in self._boundaries(self._clock, to, controls):
            for name, worker in self.workers.items():
                if self._up[name]:
                    delivered = worker.step_batch(t)
                    if len(delivered):
                        parts.append(self._delivered(name, delivered))
            if self._provisioning:
                self._commission_ready(t)
            self._apply_transitions(t, parts)
            if self._draining:
                self._finalize_drains(t, parts)
            if self.autoscaler is not None and t in controls:
                self.autoscaler.control(t)
            self._clock = t
        depth_hist = self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS)
        for name, worker in self.workers.items():
            if self._up[name]:
                depth_hist.observe(worker.queue_depth)
        return ResponseBatch.concat(parts).sorted_by_completion()

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

    def _apply_transitions(self, t: float, parts: list[ResponseBatch]) -> None:
        """Crash/restart workers whose fault state flips at ``t``.

        A worker that crashes *while draining* is a special case: the
        crash path migrates its unanswered work exactly once (drain
        empties the worker, so the drain finalizer cannot see those
        requests again), and the worker is retired immediately — it is
        already off the ring, and letting the fault window's end
        "restart" a retired worker would resurrect a ghost no request
        can ever route to.
        """
        for name, worker in list(self.workers.items()):
            down_now = self.faults.machine_down(name, t)
            if down_now and self._up[name]:
                self._up[name] = False
                self.metrics.counter("worker_crashes_total").inc()
                parts.append(self._migrate(name, t, set(self.healthy_workers)))
                if name in self._draining:
                    self._retire(name, t, reason="crashed_while_draining")
            elif not down_now and not self._up[name]:
                worker.restart(t)
                self._up[name] = True
                self.metrics.counter("worker_recoveries_total").inc()
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def _migrate(self, name: str, t: float, healthy: set, **attrs) -> ResponseBatch:
        """Re-route everything worker ``name`` had not answered onto
        ``healthy`` workers; the immediate responses come back."""
        rows = self.workers[name].drain()
        if not self.tracer.enabled:
            return self._requeue(rows, t, healthy)[0]
        with self.tracer.span(
            "cluster.failover",
            t,
            stage=STAGE_CLUSTER,
            new_trace=True,
            worker=name,
            stranded=len(rows),
            **attrs,
        ) as sp:
            out, requeued, shed = self._requeue(rows, t, healthy)
            sp.set(requeued=requeued, shed=shed)
        return out

    def _requeue(
        self, rows: RequestBatch, t: float, healthy: set
    ) -> tuple[ResponseBatch, int, int]:
        """Re-route stranded ``rows`` (in admission order) at ``t``.

        Returns ``(immediate responses, requeued, shed)``.  A deadline
        strictly before ``t`` sheds on the spot — the same inclusive
        boundary as worker-side shedding (``PredictRequest.deadline``):
        re-routing it would only have a replica shed it later with a
        misleading timestamp.  With tracing enabled each re-routed row
        records a ``cluster.route`` span tagged ``failover=True`` — the
        hop a replica's answer must carry.
        """
        n = len(rows)
        reason = np.where(rows.deadline < t, _RE_DEADLINE, 0).astype(np.int8)
        _, out, routed = self._dispatch(rows, reason, np.full(n, t), healthy, migrating=True)
        requeued = int(np.count_nonzero(routed))
        self.metrics.counter("requeued_total").inc(requeued)
        self.metrics.counter("shard_migrations_total").inc(np.unique(rows.model[routed]).size)
        return out, requeued, n - requeued

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
        starting fleet — and serves on the cluster's calibration loop.
        Returns the new worker's name.
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
            calib=self.calib,
        )
        for spec in self._specs:
            server.register_model(spec)
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

    def _finalize_drains(self, t: float, parts: list[ResponseBatch]) -> None:
        """Retire draining workers that emptied out or hit their deadline.

        Pending work is read from the worker itself at the moment of
        retirement — never from a snapshot taken at drain start — so a
        request it answered during the grace period can never also be
        re-routed, and one it did not answer is re-routed exactly once
        (drain empties the worker).
        """
        for name in list(self._draining):
            if not self.workers[name].in_flight:
                self._retire(name, t, reason="drained_clean")
            elif t >= self._draining[name]:
                healthy = set(self.healthy_workers) - {name}
                parts.append(self._migrate(name, t, healthy, drain_deadline=True))
                self._retire(name, t, reason="drain_deadline")

    def _retire(self, name: str, t: float, *, reason: str) -> None:
        """Remove a drained (or crashed-while-draining) worker for good;
        its histograms stay in the cluster-wide views."""
        self._retired = self._summed([self.workers.pop(name).metrics])
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
    def _delivered(self, name: str, rb: ResponseBatch) -> ResponseBatch:
        """Stamp worker attribution and failover degradation on worker
        ``name``'s deliveries, then account them.

        An answer a standby served (its row's ``failover`` flag) is
        tagged ``failover=True`` and degraded to at least ``stale``.
        """
        rb = rb.with_worker(name)
        flags = rb.failover
        if flags is not None:
            hit = flags & rb.ok_mask
            if hit.any():
                rb.quality = np.where(hit, np.maximum(rb.quality, _STALE), rb.quality)
                self.metrics.counter("failovers_total").inc(int(np.count_nonzero(hit)))
        if self.tracer.enabled and len(rb):
            ok = np.flatnonzero(rb.status == _ST_OK)
            self.tracer.start_rows(
                "cluster.deliver",
                rb.completed,
                stage=STAGE_CLUSTER,
                new_trace=True,
                instant=True,
                request_id=rb.request_id,
                client_id=_names(rb.clients)[rb.client],
                worker=name,
                failover=False if flags is None else flags,
                status=_STATUS_NAMES[rb.status],
            ).set(ok, quality=_QUALITY_NAMES[rb.quality[ok]])
        return _account(self.metrics, rb)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calibration_summary(self) -> dict | None:
        """The deployment's calibration scores and recalibration state
        (:meth:`~repro.calib.loop.CalibrationLoop.summary`, which scores
        every queued answer first), or ``None`` when calibration is off."""
        return None if self.calib is None else self.calib.summary()

    def _summed(self, registries) -> dict:
        """The workers' batch-size and draw histograms merged and draw
        counters added over ``registries`` and every retired worker; a
        metric none has (adaptive ones, on fixed-budget runs) is absent."""
        out = dict(self._retired)
        for reg in registries:
            for name in ("batch_size", "draws_used"):
                if (h := reg.peek_histogram(name)) is not None:
                    out[name] = Histogram.merged(name, [h, out[name]]) if name in out else h
            for name in ("draws_used_total", "draws_budget_total"):
                if (c := reg.peek_counter(name)) is not None:
                    out[name] = out.get(name, 0.0) + c.value
        return out

    def snapshot(self) -> dict:
        """Cluster-wide operational state, JSON-serialisable.

        Includes per-worker snapshots, the cluster's own metrics, shard
        placement, the shared-refresh ledger, and cluster-wide views:
        latency from the cluster's own histogram of every delivery, and
        the workers' metrics of :meth:`_summed`.
        """
        aggregated = {"latency_s": self.metrics.histogram("latency_s").stats()}
        for name, metric in self._summed(w.metrics for w in self.workers.values()).items():
            aggregated[name] = metric.stats() if isinstance(metric, Histogram) else metric
        calibration = self.calibration_summary()
        if calibration is not None:
            aggregated["calibration"] = calibration
        return sanitise(
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
                "in_flight": sum(w.in_flight for w in self.workers.values()),
                "elastic": None
                if self.autoscaler is None
                else {
                    **self.autoscaler.snapshot(),
                    "provisioning": [name for name, _, _ in self._provisioning],
                    "draining": sorted(self._draining),
                },
            }
        )
