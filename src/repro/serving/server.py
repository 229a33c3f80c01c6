"""The prediction server: a synchronous-core, event-loop service.

:class:`PredictionServer` is the first component that exercises the
whole NWS -> structural-engine -> scheduler pipeline *as a service*
rather than a script.  It is driven entirely in simulated time by two
calls, each with a one-request view:

``submit_batch(batch)`` / ``submit(request)``
    Validation and admission control (bounded queue, per-client token
    bucket).  Shed or malformed rows get their typed responses
    immediately; admitted rows join the FIFO queue.

``step_batch(to)`` / ``step(to)``
    The event loop body: while the server has capacity before ``to``,
    it ingests telemetry up to the service instant, sheds queued
    requests whose deadline has passed, forms a **batch** of queued
    requests against the same model, and answers it with one chunk-wise
    vectorised Monte Carlo evaluation on the model's cached compiled
    plan.  Completed responses are returned in completion order.

One queue, one store of undelivered answers and one evaluation routine
serve every config.  Per-request variation lives in the *run-time*
parameters, so a batch of K requests concatenates its per-request draw
arrays and flows through the compiled plan in one array pass.

Capacity is modelled in simulated time: a batch of K requests occupies
the server for ``service_time_base + K * service_time_per_request``
simulated seconds.  When arrivals outpace that, the queue grows, the
admission bound sheds, and deadline-aware shedding drops answers nobody
is waiting for — graceful degradation in the same spirit as the NWS
quality tags every answer carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from repro.calib.loop import CalibrationConfig, CalibrationLoop
from repro.core.stochastic import StochasticValue, as_stochastic
from repro.nws.service import QUALITIES, NetworkWeatherService
from repro.obs.tracer import STAGE_SERVING, STAGE_STRUCTURAL, as_tracer
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.columnar import (
    ADMIT,
    REASONS,
    STATUSES,
    RequestBatch,
    ResponseBatch,
    admit_batch,
)
from repro.serving.forecasts import ForecastCache, SharedRefreshLedger
from repro.serving.metrics import MetricsRegistry
from repro.serving.protocol import (
    DEGRADED_QUEUE_PRESSURE,
    SHED_DEADLINE,
    PrecisionInfo,
    PredictRequest,
    Response,
)
from repro.structural.engine import (
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
    plan_cache_stats,
)
from repro.structural.expr import EvalPolicy, Expr
from repro.structural.parameters import Bindings
from repro.structural.repeaters import PrecisionTarget, SequentialProbe, chunk_schedule
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = ["ModelSpec", "ServerConfig", "PredictionServer"]

#: Batch-size histogram bucket bounds.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Staleness-at-answer histogram bucket bounds (seconds).
_STALENESS_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 1800.0)

#: Draws-per-request histogram bucket bounds (adaptive sampling).
_DRAWS_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

#: Columnar status / reason codes (indexes into the protocol tables).
_ST_OVERLOADED = STATUSES.index("overloaded")
_ST_ERROR = STATUSES.index("error")
_RE_DEADLINE = REASONS.index(SHED_DEADLINE)


@dataclass(frozen=True)
class ModelSpec:
    """A servable structural model.

    Attributes
    ----------
    name:
        The handle requests address (``request.model``).
    expression:
        The structural-model expression to evaluate.
    bindings:
        Full parameter environment: compile-time parameters plus
        defaults for every run-time parameter.  Several specs may share
        one expression with different bindings — they share one compiled
        plan, because plans key on the expression, not the bindings.
    resources:
        Map of run-time parameter name to NWS resource name; at service
        time each mapped parameter is rebound to the resource's current
        qualified forecast.  Unmapped run-time parameters keep their
        bound defaults (unless a request overrides them).
    clip:
        Optional per-parameter ``(lo, hi)`` draw bounds (availability
        parameters must stay positive to be divisible).
    policy:
        Evaluation policy for residual stochastic values; ``None`` uses
        the Monte Carlo point policy.
    """

    name: str
    expression: Expr
    bindings: Bindings
    resources: dict = field(default_factory=dict)
    clip: dict | None = None
    policy: EvalPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        runtime = set(self.bindings.runtime_names())
        unknown = set(self.resources) - runtime
        if unknown:
            raise ValueError(
                f"resources map non-runtime parameters {sorted(unknown)}; "
                f"runtime parameters: {sorted(runtime)}"
            )

    @property
    def sampled(self) -> tuple[str, ...]:
        """Run-time parameters referenced by the expression, sorted.

        These are the per-draw axes of the vectorised plan; treating
        *all* of them as sampled (point-valued ones become constant draw
        arrays) keeps the plan-cache key independent of which parameters
        happen to vary at any instant.
        """
        referenced = set(self.expression.params())
        return tuple(n for n in self.bindings.runtime_names() if n in referenced)


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs.

    Attributes
    ----------
    n_samples:
        Monte Carlo draws per request.
    batch_max:
        Maximum requests answered by one vectorised evaluation.
    service_time_base, service_time_per_request:
        Simulated seconds one evaluation occupies the server:
        ``base + per_request * batch_size``.  This is what creates
        backpressure in simulated time; wall-clock speed is measured
        separately by the benchmark.
    refresh_interval:
        Maximum simulated age of a cached NWS forecast
        (:class:`~repro.serving.forecasts.ForecastCache`).
    admission:
        Queue bound, per-client token-bucket policy, and (optionally)
        the precision-shedding ladder.
    precision:
        Server-wide default
        :class:`~repro.structural.repeaters.PrecisionTarget` applied to
        requests that do not carry their own; ``None`` (default) keeps
        such requests on the fixed ``n_samples`` budget, bit-identical
        to previous releases.
    min_rel_tol:
        Server-side clamp on per-request relative tolerances: a client
        asking for a tighter (smaller) ``rel_tol`` is served at this
        floor instead (and can read the clamped contract back from the
        response's ``precision.requested``).  Per-request ``max_samples``
        is likewise clamped to ``n_samples``.
    calibration:
        Optional :class:`~repro.calib.loop.CalibrationConfig`.  When
        set, every answer carries a full predictive distribution
        (quantile sketch over its Monte Carlo draws) and the server
        runs the online calibration loop: realised outcomes are
        simulated from each model's truth distribution, scored (CRPS,
        PIT, rolling 2σ-coverage), and drifting models are widened by
        the conformal recalibrator — every adjustment tagged on the
        response.  ``None`` (default) is byte-identical to previous
        releases (see ``docs/calibration.md``).
    """

    n_samples: int = 400
    batch_max: int = 64
    service_time_base: float = 0.004
    service_time_per_request: float = 0.001
    refresh_interval: float = 5.0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    precision: PrecisionTarget | None = None
    min_rel_tol: float = 0.001
    calibration: CalibrationConfig | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        check_positive(self.service_time_base, "service_time_base")
        check_positive(self.service_time_per_request, "service_time_per_request")
        check_positive(self.refresh_interval, "refresh_interval")
        check_positive(self.min_rel_tol, "min_rel_tol")
        if self.precision is not None and not isinstance(self.precision, PrecisionTarget):
            raise TypeError(
                f"precision must be a PrecisionTarget or None, got {self.precision!r}"
            )
        if self.calibration is not None and not isinstance(
            self.calibration, CalibrationConfig
        ):
            raise TypeError(
                f"calibration must be a CalibrationConfig or None, got {self.calibration!r}"
            )

    def service_time(self, batch_size: int) -> float:
        """Simulated seconds one evaluation of ``batch_size`` occupies."""
        return self.service_time_base + self.service_time_per_request * batch_size

    def adaptive_service_time(self, total_draws: int) -> float:
        """Simulated seconds a chunk-wise adaptive evaluation occupies.

        The per-request term scales with draws actually evaluated
        relative to the fixed budget, so a batch whose requests converge
        early occupies the server for a fraction of the fixed-path time
        — this is what lets precision shedding drain an overloaded
        queue.  At full budget (``total_draws == batch_size *
        n_samples``) it equals :meth:`service_time` exactly.
        """
        return self.service_time_base + (
            self.service_time_per_request * total_draws / self.n_samples
        )

    def drain_rate(self) -> float:
        """Service capacity in requests per simulated second."""
        return self.batch_max / self.service_time(self.batch_max)


def _worst_quality(qualities) -> str:
    """The most degraded tag in ``qualities`` (``fresh`` when empty)."""
    worst = 0
    for q in qualities:
        worst = max(worst, QUALITIES.index(q))
    return QUALITIES[worst]


def _answers(batch: RequestBatch, **columns) -> ResponseBatch:
    """Responses for every row of ``batch``: the given columns, zeros
    (``ok`` status, no shed reason) for the others."""
    n = len(batch)
    z, z8 = np.zeros(n), np.zeros(n, np.int8)
    cols = dict(status=z8, reason=z8, completed=z, mean=z, spread=z, p95=z, quality=z8)
    cols.update(staleness=z, latency=z, batch_size=np.zeros(n, np.int32), retry_after=z)
    cols.update(columns)
    return ResponseBatch(
        request_id=batch.request_id,
        client=batch.client,
        clients=batch.clients,
        model=batch.model,
        models=batch.models,
        failover=batch.failover,
        **cols,
    )


class PredictionServer:
    """Online stochastic-prediction service over a live NWS deployment."""

    def __init__(
        self,
        nws: NetworkWeatherService,
        *,
        config: ServerConfig | None = None,
        rng=None,
        forecast_ledger: SharedRefreshLedger | None = None,
        tracer=None,
        clock: float | None = None,
    ):
        self.nws = nws
        self.config = config if config is not None else ServerConfig()
        self.tracer = as_tracer(tracer)
        self.forecasts = ForecastCache(
            nws,
            refresh_interval=self.config.refresh_interval,
            ledger=forecast_ledger,
            tracer=self.tracer,
        )
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(self.config.admission)
        self._models: dict[str, ModelSpec] = {}
        # Admitted rows awaiting service, as RequestBatch segments in
        # arrival order (coalesced into one segment before each batch is
        # formed) with each row's admission number alongside; served rows
        # whose answers are not yet delivered, as (rows, numbers,
        # completion instant); and those computed answers.  Together the
        # first two are every unanswered row, which drain() hands back
        # in admission order.
        self._queue: list[RequestBatch] = []
        self._qseq: list[np.ndarray] = []
        self._qlen = 0
        self._seq = 0
        self._served: list[tuple[RequestBatch, np.ndarray, float]] = []
        self._pending: list[ResponseBatch] = []
        # Per-model compiled plan (or the compile error of a plan that
        # does not lower).  The engine's own plan cache already dedupes
        # compilation, but a cache *hit* still hashes the whole
        # expression tree.  Safe to key by name: register_model refuses
        # re-registration.
        self._plans: dict[str, object] = {}
        # ``clock`` lets an elastic cluster commission a worker mid-run:
        # the newcomer's event loop starts at its ready instant instead
        # of wherever the shared NWS clock happens to stand.
        self._clock = nws.now if clock is None else float(clock)
        self._busy_until = self._clock
        self._rng = as_generator(rng)
        # The calibration loop scores answers against simulated realised
        # outcomes on an RNG child *spawned* from the serving generator,
        # so enabling it never shifts the serving draw sequence; its
        # metrics are likewise created lazily on the first scored batch.
        self.calib: CalibrationLoop | None = None
        if self.config.calibration is not None:
            self.calib = CalibrationLoop(
                self.config.calibration,
                self._rng,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        # Open per-request trace spans, keyed (client_id, request_id);
        # only populated when a live tracer is installed.
        self._req_spans: dict[tuple[str, int], object] = {}
        # Touch the headline metrics so an idle snapshot shows them at 0.
        for name in (
            "requests_total",
            "responses_ok",
            "shed_total",
            "errors_total",
            "batches_total",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("latency_s")
        self.metrics.histogram("batch_size", _BATCH_BUCKETS)
        self.metrics.histogram("staleness_at_answer_s", _STALENESS_BUCKETS)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_model(self, spec: ModelSpec, *, truth: ModelSpec | None = None) -> None:
        """Make ``spec`` addressable; resources must exist in the NWS.

        ``truth`` (calibration only) is the model realised outcomes are
        simulated from — defaults to ``spec`` itself; a different spec
        stages a model-is-wrong chaos scenario.
        """
        if spec.name in self._models:
            raise ValueError(f"model {spec.name!r} already registered")
        known = set(self.nws.resources)
        missing = {r for r in spec.resources.values() if r not in known}
        if missing:
            raise ValueError(
                f"model {spec.name!r} maps unregistered NWS resources {sorted(missing)}"
            )
        self._models[spec.name] = spec
        if self.calib is not None:
            self.calib.register(spec, truth)
        self.metrics.gauge("models_registered").set(len(self._models))

    @property
    def models(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._models)

    @property
    def now(self) -> float:
        """Simulated time the event loop has been stepped to."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for service."""
        return self._qlen

    @property
    def in_flight(self) -> int:
        """Rows admitted and not yet answered: queued, or served with the
        answer still awaiting its delivery instant."""
        return self._qlen + sum(len(rows) for rows, _, _ in self._served)

    @property
    def columnar_fast_path(self) -> bool:
        """Always ``True``: every config is served by the columnar core.

        Kept read-only for callers that record which path served them.
        """
        return True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> Response | None:
        """Admit ``request`` (returns ``None``) or answer it immediately.

        The one-row view of :meth:`submit_batch`: an immediate response
        is either :class:`~repro.serving.protocol.OverloadedResponse`
        (admission shed) or :class:`~repro.serving.protocol.ErrorResponse`
        (unknown model / override).  Admitted requests are answered by a
        later :meth:`step`.
        """
        rb = self.submit_batch(RequestBatch.from_requests([request]))
        return rb.response(0) if len(rb) else None

    def submit_batch(self, batch: RequestBatch) -> ResponseBatch:
        """Validate and admit a whole :class:`RequestBatch` in row order.

        Returns the *immediate* responses (validation errors and
        admission sheds) as a :class:`ResponseBatch`, in row order;
        admitted rows queue, with their override and precision
        sidecars, for :meth:`step_batch`.  Verdicts — and the
        token-bucket state left behind — are those of submitting the
        rows one at a time.

        With a tracer installed, every admitted row opens a ``request``
        span (its own trace) that stays open until the answer is
        delivered; rejected rows record an instant ``serving.reject``
        span instead.
        """
        return self._submit(batch)[0]

    def _submit(self, batch: RequestBatch) -> tuple[ResponseBatch, np.ndarray]:
        """:meth:`submit_batch`, also returning the mask of admitted rows
        (a cluster needs to know which of the rows it placed stayed)."""
        n = len(batch)
        if n == 0:
            return ResponseBatch.empty(), np.zeros(0, dtype=bool)
        self.metrics.counter("requests_total").inc(n)
        depth0 = self._qlen
        errors = self._invalid_rows(batch)
        if errors:
            # Invalid rows never reach admission: no token, no queue slot.
            self.metrics.counter("errors_total").inc(len(errors))
            valid = np.ones(n, dtype=bool)
            valid[list(errors)] = False
            verdict = np.full(n, -1, dtype=np.int8)
            verdict[valid] = admit_batch(
                self.admission, batch.select(valid), depth0, self._clock
            )
        else:
            verdict = admit_batch(self.admission, batch, depth0, self._clock)
        admitted = verdict == ADMIT
        n_admitted = int(np.count_nonzero(admitted))
        if n_admitted + len(errors) < n:
            reason_counts = np.bincount(verdict[verdict > 0], minlength=len(REASONS))
            self.metrics.counter("shed_total").inc(int(reason_counts.sum()))
            for code, name in enumerate(REASONS):
                if name and reason_counts[code]:
                    self.metrics.counter(f"shed_{name}").inc(int(reason_counts[code]))
        if n_admitted:
            self._queue.append(batch if n_admitted == n else batch.select(admitted))
            self._qseq.append(np.arange(self._seq, self._seq + n_admitted))
            self._seq += n_admitted
            self._qlen += n_admitted
            self.metrics.gauge("queue_depth").set(self._qlen)
        if self.tracer.enabled:
            self._trace_submissions(batch, errors, verdict)
        if n_admitted == n:
            return ResponseBatch.empty(), admitted

        # Each shed row's retry hint reads the queue depth at its own
        # instant in the submission order.
        retry = (depth0 + np.cumsum(admitted) - admitted) / self.config.drain_rate()
        rejected = ~admitted
        sub = batch.select(rejected)
        status = np.full(len(sub), _ST_OVERLOADED, np.int8)
        messages = None
        if errors:
            rows = np.flatnonzero(rejected).tolist()
            messages = tuple(errors[i][1] if i in errors else None for i in rows)
            status[[i in errors for i in rows]] = _ST_ERROR
        immediate = _answers(
            sub,
            status=status,
            reason=np.maximum(verdict[rejected], 0),
            completed=np.maximum(sub.submitted, self._clock),
            retry_after=retry[rejected],
            messages=messages,
        )
        return immediate, admitted

    def _invalid_rows(self, batch: RequestBatch) -> dict[int, tuple[str, str]]:
        """``{row: (why, message)}`` for rows naming an unknown model or
        overriding a parameter that is not one of the model's run-time
        parameters."""
        if batch.overrides is None and all(m in self._models for m in batch.models):
            return {}
        errors: dict[int, tuple[str, str]] = {}
        known = np.fromiter(
            (m in self._models for m in batch.models), dtype=bool, count=len(batch.models)
        )
        for i in np.flatnonzero(~known[batch.model]).tolist():
            name = batch.models[batch.model[i]]
            errors[i] = (
                "unknown_model",
                f"unknown model {name!r}; registered: {self.models}",
            )
        if batch.overrides is not None:
            for i, overrides in enumerate(batch.overrides):
                if not overrides or i in errors:
                    continue
                name = batch.models[batch.model[i]]
                sampled = self._models[name].sampled
                bad = set(overrides) - set(sampled)
                if bad:
                    errors[i] = (
                        "bad_override",
                        f"overrides {sorted(bad)} are not run-time parameters of "
                        f"{name!r} (run-time: {list(sampled)})",
                    )
        return errors

    def _trace_submissions(self, batch, errors, verdict) -> None:
        """Open ``request`` spans for admitted rows, reject spans for the
        rest, in row order."""
        now = np.maximum(batch.submitted, self._clock)
        for i in range(len(batch)):
            key = (batch.clients[batch.client[i]], int(batch.request_id[i]))
            attrs = dict(
                request_id=key[1], client_id=key[0], model=batch.models[batch.model[i]]
            )
            t = float(now[i])
            if verdict[i] == ADMIT:
                self._req_spans[key] = self.tracer.start_span(
                    "request", t, stage=STAGE_SERVING, new_trace=True, **attrs
                )
                continue
            outcome = (
                f"error:{errors[i][0]}" if i in errors else f"shed:{REASONS[verdict[i]]}"
            )
            self.tracer.start_span(
                "serving.reject", t, stage=STAGE_SERVING, new_trace=True, **attrs, outcome=outcome
            ).finish(t)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step(self, to: float) -> list[Response]:
        """Run the event loop up to ``to``: the one-row view of
        :meth:`step_batch`, returning each response as its dataclass."""
        return self.step_batch(to).to_responses()

    def step_batch(self, to: float) -> ResponseBatch:
        """Run the event loop up to simulated time ``to``.

        Serves as many batches as *start* before ``to`` (the server
        stays busy for each evaluation's service time; a backlog carries
        over to the next step) and returns every response whose
        completion time has been reached, in completion order — a batch
        still in service at ``to`` is delivered by a later step.  Never
        raises on a request's behalf: an evaluation failure becomes an
        error response.
        """
        if to < self._clock:
            raise ValueError(f"cannot step the server backwards from {self._clock} to {to}")
        while self._qlen:
            if len(self._queue) > 1:
                self._queue = [RequestBatch.concat(self._queue)]
                self._qseq = [np.concatenate(self._qseq)]
            t_start = max(self._busy_until, self._clock, float(self._queue[0].submitted[0]))
            if t_start > to:
                break
            self._expire(t_start)
            if not self._qlen:
                break
            batch, seq = self._next_batch()
            t_start = max(t_start, float(batch.submitted.max()))
            self._pending.append(self._serve(batch, t_start))
            self._served.append((batch, seq, self._busy_until))
            self.metrics.counter("batches_total").inc()
            self.metrics.histogram("batch_size", _BATCH_BUCKETS).observe(len(batch))
        self._clock = to
        self.forecasts.ingest_to(to)
        self.metrics.gauge("queue_depth").set(self._qlen)
        if self._served:
            self._served = [s for s in self._served if s[2] > to]
        return self._deliver(to)

    def _expire(self, t: float) -> None:
        """Shed queued rows whose deadline passed before service at ``t``.

        The boundary is inclusive: only a deadline *strictly before* the
        service instant sheds.
        """
        queue = self._queue[0]
        expired = queue.deadline < t
        if not expired.any():
            return
        retry = self.admission.retry_after(self._qlen, self.config.drain_rate())
        sub = queue.select(expired)
        n = len(sub)
        self.metrics.counter("shed_total").inc(n)
        self.metrics.counter(f"shed_{SHED_DEADLINE}").inc(n)
        self._pending.append(
            _answers(
                sub,
                status=np.full(n, _ST_OVERLOADED, np.int8),
                reason=np.full(n, _RE_DEADLINE, np.int8),
                completed=np.full(n, t),
                retry_after=np.full(n, retry),
            )
        )
        if self.tracer.enabled:
            for i in range(n):
                sp = self._req_spans.pop((sub.clients[sub.client[i]], int(sub.request_id[i])), None)
                if sp is not None:
                    sp.set(outcome=f"shed:{SHED_DEADLINE}").finish(t)
        rest = queue.select(~expired)
        self._queue = [rest] if len(rest) else []
        self._qseq = [self._qseq[0][~expired]] if len(rest) else []
        self._qlen = len(rest)

    def _next_batch(self) -> tuple[RequestBatch, np.ndarray]:
        """Head-of-queue model's rows, FIFO up to ``batch_max``, with
        their admission numbers."""
        queue, seq = self._queue[0], self._qseq[0]
        idx = np.flatnonzero(queue.model == queue.model[0])[: self.config.batch_max]
        if idx.size == len(queue):
            self._queue, self._qseq, self._qlen = [], [], 0
            return queue, seq
        keep = np.ones(len(queue), dtype=bool)
        keep[idx] = False
        rest = queue.select(keep)
        self._queue, self._qseq, self._qlen = [rest], [seq[keep]], len(rest)
        return queue.select(idx), seq[idx]

    def _deliver(self, to: float) -> ResponseBatch:
        """Computed answers whose completion instant has been reached,
        stably in completion order, with delivery-time metrics."""
        if not self._pending:
            return ResponseBatch.empty()
        pending = ResponseBatch.concat(self._pending)
        ready = pending.completed <= to
        if not ready.any():
            self._pending = [pending]
            return ResponseBatch.empty()
        if ready.all():
            self._pending = []
            out = pending
        else:
            self._pending = [pending.select(~ready)]
            out = pending.select(ready)
        out = out.sorted_by_completion()
        # Answer metrics are observed at *delivery*, not at compute time,
        # so work computed by a worker that crashes before delivering
        # (discarded by drain()) never appears as a served answer.
        ok = out.ok_mask
        n_ok = int(ok.sum())
        if n_ok:
            self.metrics.counter("responses_ok").inc(n_ok)
            for q, c in out.quality_counts().items():
                self.metrics.counter(f"quality_{q}").inc(c)
            self.metrics.histogram("latency_s").observe_many(out.latency[ok])
            self.metrics.histogram("staleness_at_answer_s", _STALENESS_BUCKETS).observe_many(
                np.minimum(out.staleness[ok], 1e9)
            )
        if self.tracer.enabled:
            for i in range(len(out)):
                sp = self._req_spans.pop((out.clients[out.client[i]], int(out.request_id[i])), None)
                if sp is None:
                    continue
                if ok[i]:
                    sp.set(
                        outcome="ok",
                        quality=QUALITIES[out.quality[i]],
                        staleness=float(out.staleness[i]),
                        latency=float(out.latency[i]),
                        batch_size=int(out.batch_size[i]),
                    )
                else:
                    sp.set(outcome=STATUSES[out.status[i]])
                sp.finish(float(out.completed[i]))
        return out

    # ------------------------------------------------------------------
    # Cluster lifecycle hooks
    # ------------------------------------------------------------------
    def drain(self) -> RequestBatch:
        """Crash hook: abandon all pending work, return every unanswered row.

        Called by a serving cluster the instant this worker's host
        crashes, or a drain's grace runs out.  The queued rows and the
        rows of batches served but not yet delivered come back as one
        :class:`RequestBatch` in admission order, for the cluster to
        re-route; the undelivered answers are discarded — a dead worker
        cannot deliver — and the in-service window is cancelled so a
        later restart does not resume a half-finished batch.
        """
        parts = self._queue + [rows for rows, _, _ in self._served]
        seqs = self._qseq + [seq for _, seq, _ in self._served]
        self._queue, self._qseq, self._qlen = [], [], 0
        self._served.clear()
        self._pending.clear()
        self._busy_until = self._clock
        self.metrics.gauge("queue_depth").set(0)
        if self.tracer.enabled:
            for sp in self._req_spans.values():
                sp.set(outcome="drained").finish(self._clock)
            self._req_spans.clear()
        if not parts:
            return RequestBatch.from_requests(())
        order = np.argsort(np.concatenate(seqs), kind="stable")
        return RequestBatch.concat(parts).select(order)

    def restart(self, at: float) -> None:
        """Recovery hook: bring a crashed worker back cold at time ``at``.

        The event-loop clock jumps over the downtime (nothing was
        served during it), and the forecast cache is invalidated — a
        restarted host holds no telemetry view, so its first answers
        recompute every consulted forecast from the live NWS instead of
        trusting pre-crash entries.
        """
        if at < self._clock:
            raise ValueError(f"cannot restart at {at}, before the clock ({self._clock})")
        self._queue, self._qseq, self._qlen = [], [], 0
        self._served.clear()
        self._pending.clear()
        self._clock = at
        self._busy_until = at
        self.forecasts.invalidate()
        self.metrics.counter("restarts_total").inc()
        if self.tracer.enabled:
            for sp in self._req_spans.values():
                sp.set(outcome="lost_in_restart").finish(at)
            self._req_spans.clear()
            self.tracer.event("worker.restart", at)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _serve(self, batch: RequestBatch, t_start: float) -> ResponseBatch:
        """Answer one single-model batch; the server is busy until done.

        With a live tracer the batch gets a ``serving.batch`` span of its
        own trace (it serves several request traces at once); request
        spans link to it through their ``batch_span`` attribute.
        """
        targets = self._precision_targets(batch)
        if not self.tracer.enabled:
            rb, t_done, _ = self._answer(batch, t_start, targets)
        else:
            extra = {} if targets is None else {"adaptive": True}
            with self.tracer.span(
                "serving.batch",
                t_start,
                stage=STAGE_SERVING,
                new_trace=True,
                model=batch.models[batch.model[0]],
                batch_size=len(batch),
                request_ids=batch.request_id.tolist(),
                **extra,
            ) as sp:
                rb, t_done, draws = self._answer(batch, t_start, targets)
                if targets is not None:
                    sp.set(draws=draws)
                sp.finish(t_done)
            for key in zip(
                (batch.clients[c] for c in batch.client), batch.request_id.tolist()
            ):
                rsp = self._req_spans.get(key)
                if rsp is not None:
                    rsp.set(batch_span=sp.span_id)
        self._busy_until = t_done
        return rb

    def _answer(
        self, batch: RequestBatch, t_start: float, targets: list | None
    ) -> tuple[ResponseBatch, float, int]:
        """Evaluate ``batch``: ``(answers, t_done, draws evaluated)``.

        ``targets`` holds each row's clamped precision target (``None``
        for a fixed-budget row), or is ``None`` when no row has one; the
        batch then occupies the server for ``service_time(k)``, else for
        ``adaptive_service_time(draws)``.  Precision shedding happens
        here: the queue depth left behind sets a tolerance multiplier
        from the admission ladder, applied to every target *before*
        sampling and tagged on every answer — the server never silently
        loosens a contract.
        """
        cfg = self.config
        spec = self._models[batch.models[batch.model[0]]]
        k = len(batch)
        factor = 1.0
        effective = None
        if targets is not None:
            factor = self.admission.precision_factor(self._qlen)
            effective = [None if t is None else t.degraded(factor) for t in targets]
        try:
            self.forecasts.ingest_to(t_start)
            shared = {
                param: self.forecasts.get(resource, t_start)
                for param, resource in sorted(spec.resources.items())
                if param in spec.sampled
            }
            base = {
                p: shared[p].value if p in shared else spec.bindings.resolve(p)
                for p in spec.sampled
            }
            samples, outcomes, draws = self._propagate(spec, batch, base, effective)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self.metrics.counter("errors_total").inc(k)
            t_done = t_start + cfg.service_time(k)
            rb = _answers(
                batch,
                status=np.full(k, _ST_ERROR, np.int8),
                completed=np.full(k, t_done),
                messages=(f"evaluation failed: {type(exc).__name__}: {exc}",) * k,
            )
            return rb, t_done, 0

        if targets is None:
            t_done = t_start + cfg.service_time(k)
        else:
            t_done = t_start + cfg.adaptive_service_time(draws)
            self.metrics.counter("adaptive_batches_total").inc()
            self.metrics.counter("draws_used_total").inc(draws)
            self.metrics.counter("draws_budget_total").inc(k * cfg.n_samples)
            if factor > 1.0:
                self.metrics.counter("precision_degraded_total").inc(
                    sum(1 for t in targets if t is not None)
                )

        # The summary formulas of EmpiricalValue.to_stochastic/quantile.
        if isinstance(samples, np.ndarray):
            mean = samples.mean(axis=1)
            spread = 2.0 * samples.std(axis=1, ddof=1)
            p95 = np.quantile(samples, 0.95, axis=1)
        else:
            mean = np.array([s.mean() for s in samples])
            spread = np.array([2.0 * s.std(ddof=1) if s.size >= 2 else 0.0 for s in samples])
            p95 = np.array([np.quantile(s, 0.95) for s in samples])

        scale, dists = 1.0, None
        if self.calib is not None:
            # Annotation failures never break serving: the batch is then
            # answered un-annotated and calib_errors_total counts it.
            try:
                scale = self.calib.scale(spec.name)
                dists = self.calib.distributions(samples)
                if scale != 1.0:
                    dists = dists.widened(scale)
            except Exception:  # noqa: BLE001 - scoring must never break serving
                self.metrics.counter("calib_errors_total").inc()
                scale, dists = 1.0, None
        if dists is not None and scale != 1.0:
            spread = spread * scale
            p95 = mean + (p95 - mean) * scale

        consulted = list(shared.values())
        quality = np.full(k, QUALITIES.index(_worst_quality(f.quality for f in consulted)), np.int8)
        staleness = np.full(k, max((f.staleness for f in consulted), default=0.0))
        overrides = batch.overrides
        if overrides is not None:
            for i, o in enumerate(overrides):
                if o:
                    own = [f for p, f in shared.items() if p not in o]
                    quality[i] = QUALITIES.index(_worst_quality(f.quality for f in own))
                    staleness[i] = max((f.staleness for f in own), default=0.0)
        latency = t_done - batch.submitted

        rich = None
        if dists is not None or targets is not None:
            rich = self._blocks(
                spec, batch, t_done, quality, targets, outcomes, factor, dists, base
            )
        rb = _answers(
            batch,
            completed=np.full(k, t_done),
            mean=mean,
            spread=spread,
            p95=p95,
            quality=quality,
            staleness=staleness,
            latency=latency,
            batch_size=np.full(k, k, np.int32),
            messages=rich,
        )
        return rb, t_done, draws

    def _blocks(
        self, spec, batch, t_done, quality, targets, outcomes, factor, dists, base
    ) -> tuple | None:
        """The answers' precision and distribution blocks, which do not
        columnise: row ``i``'s sidecar entry is ``(precision,
        distributions, i)`` and its response view builds the blocks on
        read (``None`` where a row has neither).  The distributions are
        queued for calibration scoring in one call."""
        k = len(batch)
        infos: list = [None] * k
        if targets is not None:
            degraded = factor > 1.0
            draws_hist = self.metrics.histogram("draws_used", _DRAWS_BUCKETS)
            for i, outcome in enumerate(outcomes):
                if outcome is None:
                    continue
                draws_hist.observe(outcome.draws)
                infos[i] = PrecisionInfo(
                    metric=outcome.target.metric,
                    rule=outcome.target.rule,
                    requested=targets[i].describe(),
                    effective=outcome.target.describe(),
                    draws=outcome.draws,
                    budget=outcome.budget,
                    half_width=outcome.half_width,
                    tolerance=outcome.tolerance,
                    converged=outcome.converged,
                    degraded=degraded,
                    shed_factor=factor,
                    reason=DEGRADED_QUEUE_PRESSURE if degraded else "",
                )
        if dists is not None:
            effective = (
                [base] * k
                if batch.overrides is None
                else [self._row_values(batch, i, base) for i in range(k)]
            )
            qualities = [QUALITIES[q] for q in quality.tolist()]
            self.calib.enqueue(spec.name, qualities, dists, effective, t_done)
            return tuple(zip(infos, repeat(dists), range(k)))
        if all(info is None for info in infos):
            return None
        return tuple(None if info is None else (info, None, i) for i, info in enumerate(infos))

    @staticmethod
    def _row_values(batch: RequestBatch, i: int, base: dict) -> dict:
        """The parameter values row ``i`` is evaluated at: the shared
        ``base`` dict itself unless the row overrides some of them."""
        overrides = batch.overrides[i] if batch.overrides is not None else None
        if not overrides:
            return base
        return {
            p: as_stochastic(overrides[p]) if p in overrides else sv for p, sv in base.items()
        }

    # ------------------------------------------------------------------
    # Precision targets
    # ------------------------------------------------------------------
    def _precision_targets(self, batch: RequestBatch) -> list | None:
        """Clamped per-row precision targets, or ``None`` for fixed.

        A row's own target wins over the server default
        (``config.precision``); each is clamped to the server's limits.
        ``None`` means *no* row in the batch is adaptive — the batch is
        served at the fixed budget.  Adaptive serving needs a sane draw
        budget; below it targets are ignored and answers simply lack a
        ``precision`` block.
        """
        cfg = self.config
        if cfg.n_samples < 8:
            return None
        if batch.precision is None:
            if cfg.precision is None:
                return None
            return [self._clamp_target(cfg.precision)] * len(batch)
        targets = [cfg.precision if t is None else t for t in batch.precision]
        if all(t is None for t in targets):
            return None
        return [None if t is None else self._clamp_target(t) for t in targets]

    def _clamp_target(self, target: PrecisionTarget) -> PrecisionTarget:
        """Apply server-side limits to a client's precision target."""
        cfg = self.config
        changes: dict = {}
        if target.max_samples > cfg.n_samples:
            changes["max_samples"] = cfg.n_samples
        max_samples = changes.get("max_samples", target.max_samples)
        if target.min_samples > max_samples:
            changes["min_samples"] = max_samples
        if target.rel_tol is not None and target.rel_tol < cfg.min_rel_tol:
            changes["rel_tol"] = cfg.min_rel_tol
        return replace(target, **changes) if changes else target

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _plan(self, spec: ModelSpec):
        """The model's compiled plan, or the error of one that does not
        lower (compiled once per model)."""
        plan = self._plans.get(spec.name)
        if plan is None:
            try:
                plan = compile_expr(
                    spec.expression, spec.sampled, policy=spec.policy, tracer=self.tracer
                )
            except (UnsupportedPolicyError, UnsupportedExpressionError) as exc:
                plan = exc.with_traceback(None)
            self._plans[spec.name] = plan
        return plan

    def _propagate(
        self, spec: ModelSpec, batch: RequestBatch, base: dict, targets: list | None
    ) -> tuple:
        """Chunk-wise fused evaluation with shrinking index masks.

        All rows advance through one shared geometric chunk schedule;
        each chunk draws fresh samples for the *still-active* rows only
        (parameter-major, rows in order, one RNG call per run of rows
        that share a value), flows once through the compiled plan, and
        scatters back into per-row sample buffers.  A row leaves the
        active set when its stopping rule converges or its cap fills;
        rows without a target ride along at the fixed budget, and a
        batch with no target at all is one chunk at the cap.

        Returns ``(samples, outcomes, total draws)``: samples as a
        ``(rows, draws)`` matrix when every row drew the same count,
        else one array per row; outcomes per row (``None`` without a
        target), or ``None`` for a fixed-budget batch.
        """
        n_budget = self.config.n_samples
        k = len(batch)
        probes = None
        if targets is not None:
            probes = [None if t is None else SequentialProbe(t, self._rng) for t in targets]
        plan = self._plan(spec)
        if isinstance(plan, Exception):
            return self._propagate_per_row(spec, batch, base, probes, plan)
        if self.tracer.enabled:
            self.tracer.active.set(engine="vectorised")

        if targets is None:
            caps = np.full(k, n_budget)
            totals = [n_budget]
        else:
            caps = np.array([n_budget if t is None else t.max_samples for t in targets])
            adaptive = [t for t in targets if t is not None]
            first = min(t.min_samples for t in adaptive)
            growth = min(t.growth for t in adaptive)
            totals = sorted(
                set(chunk_schedule(first, int(caps.max()), growth)) | set(caps.tolist())
            )
        buf = None
        filled = np.zeros(k, dtype=np.int64)
        active = np.arange(k)
        total_draws = 0
        for total in totals:
            need = np.minimum(caps[active], total) - filled[active]
            members, counts = active[need > 0], need[need > 0]
            if not members.size:
                continue
            m = int(counts.sum())
            draws = self._chunk_draws(spec, batch.overrides, base, members, counts, m)
            out = plan.evaluate(draws, spec.bindings, n_samples=m)
            total_draws += m
            c0 = int(counts[0])
            uniform = bool((counts == c0).all()) and bool(
                (filled[members] == filled[members[0]]).all()
            )
            if buf is None and members.size == k and uniform and bool((caps == c0).all()):
                buf = out.reshape(k, c0)  # one chunk fills every row
            else:
                if buf is None:
                    buf = np.empty((k, int(caps.max())))
                if uniform:
                    f0 = int(filled[members[0]])
                    buf[members, f0 : f0 + c0] = out.reshape(members.size, c0)
                else:
                    off = 0
                    for i, c in zip(members.tolist(), counts.tolist()):
                        buf[i, filled[i] : filled[i] + c] = out[off : off + c]
                        off += c
            filled[members] += counts
            if probes is None:
                continue

            still = []
            for i in active.tolist():
                target, probe = targets[i], probes[i]
                done = filled[i] >= caps[i]
                if probe is not None and filled[i] >= target.min_samples:
                    record = probe.assess(buf[i, : filled[i]])
                    if record.converged:
                        done = True
                    if done and self.tracer.enabled:
                        self.tracer.start_span(
                            "mc.converged",
                            stage=STAGE_STRUCTURAL,
                            request_id=int(batch.request_id[i]),
                            metric=target.metric,
                            rule=target.rule,
                            draws=record.draws,
                            budget=n_budget,
                            converged=record.converged,
                            half_width=record.half_width,
                            tolerance=record.tolerance,
                            votes={v.rule: v.converged for v in record.votes},
                        ).finish()
                if not done:
                    still.append(i)
            if self.tracer.enabled:
                self.tracer.start_span(
                    "mc.chunk",
                    stage=STAGE_STRUCTURAL,
                    draws=total,
                    chunk=m,
                    batch_size=k,
                    active=len(still),
                ).finish()
            active = np.array(still, dtype=np.int64)
            if not still:
                break

        outcomes = None
        if probes is not None:
            outcomes = [None if p is None else p.outcome(budget=n_budget) for p in probes]
        if (filled == filled[0]).all():
            f = int(filled[0])
            samples = buf if buf.shape[1] == f else np.ascontiguousarray(buf[:, :f])
        else:
            samples = [buf[i, : filled[i]] for i in range(k)]
        return samples, outcomes, total_draws

    def _chunk_draws(self, spec, overrides, base, members, counts, m) -> dict:
        """One chunk's draw arrays, parameter-major, rows in order.

        Consecutive rows that share a parameter's value draw it in one
        RNG call; the stream is the same as drawing row by row.
        """
        pinned = []
        if overrides is not None:
            pinned = [(j, overrides[i]) for j, i in enumerate(members.tolist()) if overrides[i]]
        offsets = np.concatenate(([0], np.cumsum(counts))) if pinned else None
        draws: dict[str, np.ndarray] = {}
        for param in spec.sampled:
            bounds = spec.clip.get(param) if spec.clip else None
            rows = [(j, o[param]) for j, o in pinned if param in o]
            if not rows:
                draws[param] = self._draw(base[param], m, bounds)
                continue
            arr = np.empty(m)
            start = 0
            for j, value in rows:
                lo, hi = offsets[start], offsets[j]
                if hi > lo:
                    arr[lo:hi] = self._draw(base[param], hi - lo, bounds)
                arr[hi : offsets[j + 1]] = self._draw(as_stochastic(value), counts[j], bounds)
                start = j + 1
            if offsets[start] < m:
                arr[offsets[start] :] = self._draw(base[param], m - offsets[start], bounds)
            draws[param] = arr
        return draws

    def _propagate_per_row(self, spec, batch, base, probes, error) -> tuple:
        """No compiled plan: one ``monte_carlo_predict`` per row at the
        full budget, assessed once so provenance stays truthful (draws
        == budget, no savings)."""
        from repro.structural.montecarlo import monte_carlo_predict

        if self.tracer.enabled:
            self.tracer.active.set(fallback=type(error).__name__, engine="reference")
        n = self.config.n_samples
        samples = np.stack(
            [
                monte_carlo_predict(
                    spec.expression,
                    spec.bindings.overlaid(self._row_values(batch, i, base)),
                    n_samples=n,
                    rng=self._rng,
                    clip=spec.clip,
                    engine="reference",
                ).samples
                for i in range(len(batch))
            ]
        )
        outcomes = None
        if probes is not None:
            for row, probe in zip(samples, probes):
                if probe is not None:
                    probe.assess(row)
            outcomes = [None if p is None else p.outcome(budget=n) for p in probes]
        return samples, outcomes, len(batch) * n

    def _draw(self, sv: StochasticValue, n: int, clip_bounds) -> np.ndarray:
        if sv.is_point:
            seg = np.full(n, sv.mean)
        else:
            seg = sv.sample(n, self._rng)
        if clip_bounds is not None:
            seg = np.clip(seg, *clip_bounds)
        return seg

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calibration_summary(self) -> dict | None:
        """Per-model calibration scores + recalibration state (or ``None``)."""
        if self.calib is None:
            return None
        return self.calib.summary()

    def snapshot(self) -> dict:
        """Operational state: metrics + caches, JSON-serialisable."""
        from repro.serving.metrics import _sanitise

        doc = {
            "now": self._clock,
            "queue_depth": self.queue_depth,
            "models": self.models,
            "metrics": self.metrics.snapshot(),
            "forecast_cache": self.forecasts.stats(),
            "plan_cache": plan_cache_stats(),
        }
        if self.calib is not None:
            doc["calibration"] = self.calib.summary()
        return _sanitise(doc)
