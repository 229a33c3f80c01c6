"""The serving benchmark's workloads, its load generator and one pass.

A *pass* builds one deployment from the public ``repro.serving`` API,
drives one seeded open-loop request stream through its
``submit_batch``/``step_batch`` surface and checks every answer.  The
load generator is the benchmark's own (not ``ColumnarLoadDriver``), so
a change to the library's drivers cannot move these numbers.

Only the request stream depends on the seed: Poisson arrivals, a uniform
choice over the demo models and round-robin client identities, built
directly as ``RequestBatch`` columns.  The deployment itself (platform
telemetry, server sampling streams) always uses :data:`DEPLOYMENT_SEED`,
so a seed picks traffic, not a different system.  Everything a client
sees is simulated and identical on every pass of a seed; wall time is
only observed.
"""

from __future__ import annotations

import hashlib
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.calib.loop import CalibrationConfig
from repro.faults.plan import FaultPlan
from repro.nws.service import QUALITIES
from repro.obs import Tracer
from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionPolicy,
    ClusterConfig,
    ElasticConfig,
    ForecastAwarePolicy,
    RequestBatch,
    ResponseBatch,
    ServerConfig,
    demo_cluster,
    demo_server,
)
from repro.serving.columnar import REASONS
from repro.serving.demo import DEMO_SIZES
from repro.serving.protocol import SHED_QUEUE_FULL, SHED_THROTTLED
from repro.structural.engine import plan_cache_stats
from repro.structural.repeaters import PrecisionTarget

#: Seed of the deployment (telemetry traces, sampling streams).
DEPLOYMENT_SEED = 11

#: Simulated seconds of telemetry ingested before the drive starts; the
#: drive therefore starts at this simulated instant.
WARMUP = 60.0

#: Simulated seconds between ``submit_batch``/``step_batch`` calls.
WINDOW = 0.25

#: Round-robin client identities.
CLIENTS = 8
CLIENT_IDS = tuple(f"client-{c}" for c in range(CLIENTS))

#: The demo models traffic chooses from, uniformly.
MODELS = tuple(f"sor-{size}" for size in DEMO_SIZES)

#: ``chaos-cluster`` crashes these workers together for this window,
#: in simulated seconds after the drive starts.
CHAOS_CRASHED = ("worker-0", "worker-1")
CHAOS_WINDOW = (10.0, 20.0)

#: Every ``full-feature`` answer at a multiple of this row index is
#: materialised to check its precision and distribution blocks.
BLOCK_CHECK_EVERY = 97


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment.

    ``requests`` is the stream length of one pass; ``rate`` its Poisson
    arrival rate in requests per simulated second; ``build`` makes a
    fresh deployment, ``(target, tracer)`` with ``tracer`` ``None``
    unless the workload traces; ``deadline`` is the relative deadline
    stamped on every request (``None``: wait forever).
    """

    name: str
    why: str
    config: str
    requests: int
    rate: float
    build: Callable[[], tuple]
    deadline: float | None = None


def _bare_soak():
    config = ClusterConfig(
        n_workers=4,
        replication=2,
        worker=ServerConfig(
            n_samples=16, batch_max=512, admission=AdmissionPolicy(max_queue=8192)
        ),
    )
    cluster, _, _ = demo_cluster(config=config, warmup=WARMUP, rng=DEPLOYMENT_SEED)
    return cluster, None


def _draws_2000():
    config = ServerConfig(
        n_samples=2000, batch_max=64, admission=AdmissionPolicy(max_queue=4096)
    )
    server, _, _ = demo_server(config=config, warmup=WARMUP, rng=DEPLOYMENT_SEED)
    return server, None


def _full_feature():
    tracer = Tracer()
    config = ServerConfig(
        n_samples=2000,
        precision=PrecisionTarget.parse("p95:2%", min_samples=64, max_samples=2000),
        admission=AdmissionPolicy(precision_ladder=DEFAULT_PRECISION_LADDER),
        calibration=CalibrationConfig(truth_spread_scale=2.0),
    )
    server, _, _ = demo_server(
        config=config, warmup=WARMUP, rng=DEPLOYMENT_SEED, tracer=tracer
    )
    return server, tracer


def _chaos_cluster():
    a, b = CHAOS_WINDOW
    faults = FaultPlan.crashes(
        {name: [(WARMUP + a, WARMUP + b)] for name in CHAOS_CRASHED}
    )
    elastic = ElasticConfig(
        # Plan one provisioning delay plus one control tick ahead, as
        # the scenario suite does.
        policy=ForecastAwarePolicy(lead_time=3.0),
        min_workers=3,
        max_workers=6,
    )
    config = ClusterConfig(
        n_workers=3,
        replication=2,
        cluster_rate=2500.0,
        cluster_burst=256.0,
        worker=ServerConfig(n_samples=400, admission=AdmissionPolicy(max_queue=256)),
    )
    cluster, _, _ = demo_cluster(
        config=config,
        faults=faults,
        elastic=elastic,
        warmup=WARMUP,
        rng=DEPLOYMENT_SEED,
    )
    return cluster, None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bare-soak",
            why="every feature off on a 4-worker columnar cluster at 2500 req/s: per-request plumbing and tiny 16-draw evaluations dominate",
            config="4-worker cluster, replication 2, n_samples=16, batch_max=512, max_queue=8192, no deadline",
            requests=1_000_000,
            rate=2500.0,
            build=_bare_soak,
        ),
        Workload(
            name="draws-2000",
            why="the 2000-draw default on one columnar server at 85% load: draw generation and plan evaluation dominate",
            config="single server, n_samples=2000, batch_max=64, max_queue=4096",
            requests=20_000,
            rate=800.0,
            build=_draws_2000,
        ),
        Workload(
            name="full-feature",
            why="precision targets with shedding, calibration under 2x truth spread and tracing all on: the scalar path, early stopping, scoring",
            config="single server, 2000-draw cap, precision p95:2% (min_samples=64), DEFAULT_PRECISION_LADDER, calibration truth_spread_scale=2.0, Tracer",
            requests=40_000,
            rate=800.0,
            build=_full_feature,
        ),
        Workload(
            name="chaos-cluster",
            why="two of three workers crash together under a cluster bucket and an elastic fleet: shedding, failover, scaling, cold caches",
            config="3-worker cluster, replication 2, n_samples=400, max_queue=256, cluster bucket 2500/s burst 256, forecast-aware elastic fleet 3-6, worker-0 and worker-1 down for drive seconds [10, 20)",
            requests=48_000,
            rate=1500.0,
            build=_chaos_cluster,
            deadline=2.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stream:
    """A whole seeded request stream as columns."""

    request_id: np.ndarray
    client: np.ndarray
    model: np.ndarray
    submitted: np.ndarray
    deadline: np.ndarray

    def __len__(self) -> int:
        return int(self.request_id.shape[0])

    def rows(self, lo: int, hi: int) -> RequestBatch:
        """Rows ``[lo, hi)`` as one ``RequestBatch`` (array views)."""
        return RequestBatch(
            request_id=self.request_id[lo:hi],
            client=self.client[lo:hi],
            clients=CLIENT_IDS,
            model=self.model[lo:hi],
            models=MODELS,
            submitted=self.submitted[lo:hi],
            deadline=self.deadline[lo:hi],
        )


def make_stream(workload: Workload, seed: int, n: int | None = None) -> Stream:
    """The seeded open-loop stream of ``n`` requests (default: the
    workload's pass size), arriving from :data:`WARMUP` on."""
    n = workload.requests if n is None else n
    rng = np.random.default_rng(seed)
    submitted = WARMUP + np.cumsum(rng.exponential(1.0 / workload.rate, size=n))
    model = rng.integers(0, len(MODELS), size=n).astype(np.int32)
    request_id = np.arange(n, dtype=np.int64)
    deadline = (
        np.full(n, np.inf)
        if workload.deadline is None
        else submitted + workload.deadline
    )
    return Stream(
        request_id=request_id,
        client=(request_id % CLIENTS).astype(np.int32),
        model=model,
        submitted=submitted,
        deadline=deadline,
    )


#: Drain cap after the last submission, in windows: a stuck deployment
#: ends the pass (and fails its lost-id check) instead of hanging.
DRAIN_WINDOWS = 4_000


def drive(target, stream: Stream):
    """Play ``stream`` through ``target``; every response plus timings.

    Returns ``(responses, first_submit, wall, step_ms)``: the delivered
    :class:`ResponseBatch` parts in order, the ``time.monotonic()``
    instant of the first submission, the wall seconds from it to the
    last delivery, and the wall milliseconds of every ``step_batch``.
    """
    n = len(stream)
    parts: list[ResponseBatch] = []
    step_ms: list[float] = []
    answered = 0
    pos = 0
    now = float(target.now)
    idle = 0
    first_submit = time.monotonic()
    wall0 = time.perf_counter()
    while answered < n and idle <= DRAIN_WINDOWS:
        now += WINDOW
        j = int(np.searchsorted(stream.submitted, now, side="right"))
        if j > pos:
            immediate = target.submit_batch(stream.rows(pos, j))
            pos = j
            answered += len(immediate)
            parts.append(immediate)
        t = time.perf_counter()
        delivered = target.step_batch(now)
        step_ms.append((time.perf_counter() - t) * 1e3)
        answered += len(delivered)
        parts.append(delivered)
        if pos >= n:
            idle += 1
    wall = time.perf_counter() - wall0
    return parts, first_submit, wall, step_ms


# ----------------------------------------------------------------------
# Checks and per-pass results
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """A pass produced output the benchmark cannot accept."""


def check_answers(rb: ResponseBatch, n: int, *, blocks: bool) -> None:
    """Validate every answer of a pass of ``n`` requests.

    Raises :class:`CheckFailed` on a lost or duplicated request id, an
    id outside the stream, a non-finite or negative-spread answer, an
    unknown quality tag, or (``blocks``) a sampled answer missing its
    precision or distribution block.
    """
    ids = rb.request_id
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise CheckFailed("response carries a request id outside the stream")
    seen = np.bincount(ids, minlength=n)
    lost = int(np.count_nonzero(seen == 0))
    duplicates = int(np.sum(seen[seen > 1] - 1))
    if lost or duplicates:
        raise CheckFailed(f"delivery is not exactly-once: lost={lost} duplicates={duplicates}")
    ok = rb.ok_mask
    for name in ("mean", "spread", "p95", "latency"):
        if not np.isfinite(getattr(rb, name)[ok]).all():
            raise CheckFailed(f"non-finite {name} in an ok answer")
    if (rb.spread[ok] < 0.0).any():
        raise CheckFailed("negative spread in an ok answer")
    if (rb.latency[ok] < 0.0).any():
        raise CheckFailed("negative latency in an ok answer")
    quality = rb.quality[ok]
    if ((quality < 0) | (quality >= len(QUALITIES))).any():
        raise CheckFailed("ok answer carries an unknown quality tag")
    if blocks:
        for i in np.flatnonzero(ok)[::BLOCK_CHECK_EVERY]:
            resp = rb.response(int(i))
            if resp.precision is None or resp.distribution is None:
                raise CheckFailed(
                    f"answer {resp.request_id} lacks its precision or distribution block"
                )


def digest(rb: ResponseBatch) -> str:
    """sha256 over (request id, status, mean), ordered by request id."""
    order = np.argsort(rb.request_id, kind="stable")
    h = hashlib.sha256()
    for column in (rb.request_id, rb.status, rb.mean):
        h.update(np.ascontiguousarray(column[order]).tobytes())
    return h.hexdigest()


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """The order statistic the library's drivers report at level ``q``."""
    return float(sorted_values[min(sorted_values.size - 1, int(q * sorted_values.size))])


def _coverage(calibration: dict | None) -> float:
    """n-weighted 2-sigma coverage over every model (0 without calibration)."""
    if calibration is None:
        return 0.0
    models = calibration["scores"]["models"].values()
    n = sum(m["n"] for m in models)
    return sum(m["n"] * m["coverage"] for m in models) / n if n else 0.0


def diagnostics(target, tracer, rb: ResponseBatch, step_ms: list) -> dict:
    """Behaviour counts and ratios read from the target's public snapshot."""
    snap = target.snapshot()
    if "workers" in snap:  # a cluster
        workers = list(snap["workers"].values())
        counters = [w["metrics"]["counters"] for w in workers]
        caches = [w["forecast_cache"] for w in workers]
        batch_sizes = snap["aggregated"]["batch_size"]
        calibration = snap["aggregated"].get("calibration")
        cluster = snap["cluster"]["counters"]
    else:
        counters = [snap["metrics"]["counters"]]
        caches = [snap["forecast_cache"]]
        batch_sizes = snap["metrics"]["histograms"]["batch_size"]
        calibration = snap.get("calibration")
        cluster = {}

    def total(name: str) -> float:
        return float(sum(c.get(name, 0) for c in counters))

    lookups = sum(c["hits"] + c["shared_hits"] + c["refreshes"] for c in caches)
    hits = sum(c["hits"] + c["shared_hits"] for c in caches)
    budget = total("draws_budget_total")
    shed_at_admission = int(
        np.isin(
            rb.reason[rb.overloaded_mask],
            [REASONS.index(SHED_QUEUE_FULL), REASONS.index(SHED_THROTTLED)],
        ).sum()
    )
    return {
        "serving.server.batch_size_mean": float(batch_sizes.get("mean", 0.0)),
        "serving.server.step_batch_ms_p99": float(np.quantile(step_ms, 0.99)),
        "serving.admission.admit_frac": 1.0 - shed_at_admission / len(rb),
        "serving.forecasts.hit_rate": hits / lookups if lookups else 0.0,
        "structural.engine.plan_cache_hit_rate": plan_cache_stats()["hit_rate"],
        # A fixed-budget answer spends its whole budget by construction.
        "structural.repeaters.draws_frac": (
            total("draws_used_total") / budget if budget else 1.0
        ),
        "calib.recalibrations": total("calib_recalibrations_total"),
        "calib.coverage_2sigma": _coverage(calibration),
        "serving.cluster.failovers": float(cluster.get("failovers_total", 0)),
        "serving.elastic.scale_actions": float(
            cluster.get("scale_ups_total", 0) + cluster.get("scale_downs_total", 0)
        ),
        "obs.spans": float(len(tracer.spans)) if tracer is not None else 0.0,
    }


def setup(workload: Workload, seed: int, requests: int | None = None) -> tuple:
    """Everything a pass does before its first submission:
    ``(stream, target, tracer)``."""
    stream = make_stream(workload, seed, requests)
    target, tracer = workload.build()
    return stream, target, tracer


def run_pass(
    workload: Workload, seed: int, *, requests: int | None = None, timer=None
) -> dict:
    """One pass: build, drive, check.  Returns the pass record.

    ``requests`` overrides the workload's pass size.  ``timer`` is an
    installed :class:`layers.LayerTimer`; with one, the record also
    carries the per-layer profile of the drive.
    """
    stream, target, tracer = setup(workload, seed, requests)
    columnar = bool(target.columnar_fast_path)
    if timer is not None:
        timer.reset()
    parts, first_submit, wall, step_ms = drive(target, stream)
    if timer is not None:
        # Read the profile before any further wrapped call runs.
        ok = sum(int(np.count_nonzero(p.ok_mask)) for p in parts)
        layers = timer.profile(wall, max(ok, 1))
    rb = ResponseBatch.concat(parts)
    n = len(stream)
    # The one workload that calibrates and answers with precision blocks.
    full = workload.name == "full-feature"
    check_answers(rb, n, blocks=full)
    counts = rb.status_counts()
    lat = np.sort(rb.latency[rb.ok_mask])
    if lat.size == 0:
        raise CheckFailed("no ok answers")
    record = {
        "workload": workload.name,
        "seed": seed,
        "submitted": n,
        "ok": counts["ok"],
        "shed": counts["overloaded"],
        "errors": counts["error"],
        "columnar_fast_path": columnar,
        "first_submit": first_submit,
        "wall_s": wall,
        "qps_wall": counts["ok"] / wall,
        "latency_p50_s": _percentile(lat, 0.50),
        "latency_p99_s": _percentile(lat, 0.99),
        "ok_frac": counts["ok"] / n,
        "shed_frac": counts["overloaded"] / n,
        "error_frac": counts["error"] / n,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(rb),
        "diagnostics": diagnostics(target, tracer, rb, step_ms),
    }
    if full:
        record["coverage_2sigma"] = record["diagnostics"]["calib.coverage_2sigma"]
    if timer is not None:
        record["layers"] = layers
    return record
