"""The cluster feature matrix, frozen: one golden per config, both APIs.

Each config drives a seeded stream of 240 requests through a fresh demo
cluster and records everything a client or an operator can observe:
every response field (worker attribution, failover tag and the
precision/distribution blocks included), the cluster's counters and
gauges, every worker's counters, and — for the traced config — every
span that names a request, keyed by request id, plus the shape of each
``cluster.failover`` migration.  A sha256 over the raw float64 answer
columns makes equality bit-exact; the golden comparison itself allows
only arithmetic noise.

The configs cover what the cluster adds on top of its workers:

* ``crash`` — a crash mid-window with in-flight work requeued to the
  replicas, a deadline shed on migration, and an unavailable shed while
  every owner of a shard is down (at submission and on migration);
* ``cold_restart`` — a short outage: the replica serves the shard
  tagged ``failover``, then the primary restarts cold and takes it back;
* ``bucket`` — the cluster token bucket throttles, with ``retry_after``
  read from the cluster queue at each shed row;
* ``elastic`` — a manual scale-up, a drain whose grace runs out (forced
  migration), and a worker that crashes while draining;
* ``elastic_auto`` — the reactive autoscaler sizing the fleet up and
  back down from the counters it reads at control ticks;
* ``precision_calibration`` — workers answering with precision and
  distribution blocks, failover-stamped after a crash;
* ``traced`` — crash, restart and bucket under a tracer.

Every stream also carries rows naming an unknown model.

The stream is driven window by window, either one request at a time
through ``submit``/``step`` or one ``RequestBatch`` per window through
``submit_batch``/``step_batch``.  Both must reproduce the same golden.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.calib.loop import CalibrationConfig
from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionPolicy,
    ClusterConfig,
    ElasticConfig,
    LoadAdaptivePolicy,
    RequestBatch,
    ServerConfig,
    StaticPolicy,
    demo_cluster,
)
from repro.serving.protocol import PredictRequest
from repro.structural.repeaters import PrecisionTarget

SEED = 5
CLIENTS = ("ann", "bob", "cyd", "dee")
SIZES = (400, 600, 800, 1000, 1200, 1400)

#: Simulated start of the drive (the demo's telemetry warm-up).
T0 = 60.0

#: Simulated seconds between submission windows.
WINDOW = 0.1

#: Windows per drive: long enough for every answer and, in
#: ``elastic_auto``, for the fleet to shrink again once traffic stops.
WINDOWS = 60

#: Requests per config.
N = 240

#: Requests ``BURST`` all arrive at one instant from distinct clients,
#: just before the first crash, so queues are deep when it hits.
BURST = range(90, 130)
BURST_AT = 0.45

P95 = PrecisionTarget.parse("p95:2%", min_samples=16)


def _worker(**kw) -> ServerConfig:
    fields = dict(
        n_samples=32,
        batch_max=8,
        service_time_base=0.01,
        service_time_per_request=0.003,
        admission=AdmissionPolicy(max_queue=24, client_rate=60.0, client_burst=6.0),
    )
    fields.update(kw)
    return ServerConfig(**fields)


def _crashes(**windows) -> FaultPlan:
    """Crash windows in seconds after :data:`T0`, keyed ``worker_N``."""
    return FaultPlan.crashes(
        {
            name.replace("_", "-"): [(T0 + a, T0 + b) for a, b in spans]
            for name, spans in windows.items()
        }
    )


def _stream(models, decorate=None) -> list[PredictRequest]:
    """The seeded request stream, optionally decorated per row."""
    reqs = []
    for i in range(N):
        if i in BURST:
            t, client = T0 + BURST_AT, f"burst-{i}"
        else:
            t, client = T0 + 0.005 * i, CLIENTS[i % len(CLIENTS)]
        deadline = None
        if i % 7 == 3:
            deadline = t + 0.015  # tight: expires in a queue or on migration
        elif i % 7 == 5:
            deadline = t + 30.0
        fields = dict(
            request_id=i,
            client_id=client,
            model=models[i % len(models)],
            submitted=t,
            deadline=deadline,
        )
        if i % 31 == 6:
            fields["model"] = "no-such-model"
        if decorate is not None:
            decorate(i, fields)
        reqs.append(PredictRequest(**fields))
    return reqs


def _some_precise(i, fields):
    if i % 3 == 0:
        fields["precision"] = P95


def _scale_by_hand(cluster, window: int) -> None:
    """Order a worker, drain one past its grace, drain a doomed one."""
    t = cluster.now
    if window == 2:
        cluster.order_worker(t)
    elif window == 5:
        cluster.begin_drain("worker-1", t)
        cluster.begin_drain("worker-2", t, grace=1.0)


#: name -> (ClusterConfig, faults, ElasticConfig, traced, decorate, hook).
CONFIGS = {
    "crash": (
        ClusterConfig(n_workers=3, worker=_worker()),
        _crashes(worker_0=[(0.47, 30.0)], worker_2=[(0.73, 30.0)]),
        None,
        False,
        None,
        None,
    ),
    "cold_restart": (
        ClusterConfig(n_workers=3, worker=_worker()),
        _crashes(worker_1=[(0.32, 0.66)]),
        None,
        False,
        None,
        None,
    ),
    "bucket": (
        ClusterConfig(n_workers=3, cluster_rate=150.0, cluster_burst=12.0, worker=_worker()),
        _crashes(worker_2=[(0.6, 0.9)]),
        None,
        False,
        None,
        None,
    ),
    "elastic": (
        ClusterConfig(
            n_workers=3,
            worker=_worker(service_time_base=0.02, service_time_per_request=0.006),
        ),
        _crashes(worker_2=[(0.52, 30.0)]),
        ElasticConfig(
            policy=StaticPolicy(),
            min_workers=1,
            max_workers=6,
            control_interval=0.2,
            provision_time=0.25,
            drain_grace=0.05,
        ),
        False,
        None,
        _scale_by_hand,
    ),
    "elastic_auto": (
        ClusterConfig(
            n_workers=2,
            worker=_worker(service_time_base=0.02, service_time_per_request=0.006),
        ),
        _crashes(worker_0=[(0.55, 1.5)]),
        ElasticConfig(
            policy=LoadAdaptivePolicy(backlog_drain_s=0.5),
            min_workers=2,
            max_workers=5,
            control_interval=0.2,
            provision_time=0.3,
            drain_grace=0.15,
            cooldown=0.6,
        ),
        False,
        None,
        None,
    ),
    "precision_calibration": (
        ClusterConfig(
            n_workers=3,
            worker=_worker(
                n_samples=128,
                precision=P95,
                admission=AdmissionPolicy(
                    max_queue=24,
                    client_rate=60.0,
                    client_burst=6.0,
                    precision_ladder=DEFAULT_PRECISION_LADDER,
                ),
                calibration=CalibrationConfig(truth_spread_scale=2.0, flush_every=16),
            ),
        ),
        _crashes(worker_0=[(0.47, 30.0)]),
        None,
        False,
        None,
        None,
    ),
    "traced": (
        ClusterConfig(n_workers=3, cluster_rate=200.0, cluster_burst=30.0, worker=_worker()),
        _crashes(worker_0=[(0.47, 0.9)], worker_2=[(0.73, 30.0)]),
        None,
        True,
        _some_precise,
        None,
    ),
}


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def _windows(cluster, reqs, hook):
    """``(to, rows)`` per window, running ``hook`` at each window start."""
    pos = 0
    to = cluster.now
    for window in range(WINDOWS):
        if hook is not None:
            hook(cluster, window)
        to += WINDOW
        rows = []
        while pos < len(reqs) and reqs[pos].submitted <= to:
            rows.append(reqs[pos])
            pos += 1
        yield to, rows


def _drive_scalar(cluster, reqs, hook):
    out = []
    for to, rows in _windows(cluster, reqs, hook):
        for r in rows:
            immediate = cluster.submit(r)
            if immediate is not None:
                out.append(immediate)
        out.extend(cluster.step(to))
    return out


def _drive_batch(cluster, reqs, hook):
    out = []
    for to, rows in _windows(cluster, reqs, hook):
        if rows:
            out.extend(cluster.submit_batch(RequestBatch.from_requests(rows)).to_responses())
        out.extend(cluster.step_batch(to).to_responses())
    return out


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _response(r) -> dict:
    doc = {
        "request_id": r.request_id,
        "client_id": r.client_id,
        "status": r.status,
        "completed": r.completed,
        "worker": r.worker,
    }
    if r.status == "ok":
        doc.update(
            mean=r.value.mean,
            spread=r.value.spread,
            p95=r.p95,
            quality=r.quality,
            staleness=r.staleness,
            latency=r.latency,
            batch_size=r.batch_size,
            failover=r.failover,
            model=r.model,
            precision=None if r.precision is None else r.precision.to_dict(),
            distribution=None if r.distribution is None else r.distribution.to_dict(),
        )
    elif r.status == "overloaded":
        doc.update(reason=r.reason, retry_after=r.retry_after)
    else:
        doc["message"] = r.message
    return doc


def _float_columns(responses) -> str:
    """sha256 over every float an answer carries, in request-id order."""
    h = hashlib.sha256()
    for r in sorted(responses, key=lambda r: r.request_id):
        vals = [r.completed]
        if r.status == "ok":
            vals += [r.value.mean, r.value.spread, r.p95, r.staleness, r.latency]
            if r.precision is not None:
                vals += [r.precision.half_width, r.precision.tolerance]
            if r.distribution is not None:
                d = r.distribution
                vals += [d.mean, d.std, d.scale, *d.quantiles]
        elif r.status == "overloaded":
            vals.append(r.retry_after)
        h.update(np.asarray(vals, dtype=np.float64).tobytes())
    return h.hexdigest()


#: Span attributes recorded per request (whichever a span carries).
_SPAN_ATTRS = ("outcome", "status", "target", "worker", "failover", "quality", "shard")


def _spans(tracer) -> dict:
    """Spans that name a request, keyed by request id and sorted within
    it, so the record does not depend on the order spans were opened."""
    by_request: dict[str, list] = {}
    for sp in tracer.spans:
        rid = sp.attrs.get("request_id")
        if rid is None or sp.name == "mc.converged":
            continue
        by_request.setdefault(str(rid), []).append(
            [sp.name, sp.start, sp.end, {k: sp.attrs[k] for k in _SPAN_ATTRS if k in sp.attrs}]
        )
    for records in by_request.values():
        records.sort(key=lambda rec: (rec[1], rec[0], rec[2], repr(rec[3])))
    failovers = sorted(
        (
            {
                "t": sp.start,
                "worker": sp.attrs["worker"],
                "stranded": sp.attrs["stranded"],
                "requeued": sp.attrs["requeued"],
                "shed": sp.attrs["shed"],
                "drain_deadline": sp.attrs.get("drain_deadline", False),
                "hops": sum(1 for c in tracer.spans if c.parent_id == sp.span_id),
            }
            for sp in tracer.spans
            if sp.name == "cluster.failover"
        ),
        key=lambda d: (d["t"], d["worker"]),
    )
    return {"requests": dict(sorted(by_request.items())), "failovers": failovers}


def run_config(name: str, api: str) -> dict:
    """One config's observable record, driven through ``api``."""
    config, faults, elastic, traced, decorate, hook = CONFIGS[name]
    tracer = Tracer() if traced else None
    cluster, _, _ = demo_cluster(
        duration=600.0,
        sizes=SIZES,
        config=config,
        faults=faults,
        rng=SEED,
        tracer=tracer,
        elastic=elastic,
    )
    reqs = _stream(cluster.models, decorate)
    drive = _drive_scalar if api == "scalar" else _drive_batch
    responses = drive(cluster, reqs, hook)
    assert sorted(r.request_id for r in responses) == list(range(N))
    snap = cluster.snapshot()
    doc = {
        "responses": [_response(r) for r in responses],
        "sha256": _float_columns(responses),
        "cluster": {
            "counters": snap["cluster"]["counters"],
            "gauges": snap["cluster"]["gauges"],
        },
        "workers": {
            w: {"up": s["up"], "counters": s["metrics"]["counters"]}
            for w, s in sorted(snap["workers"].items())
        },
        "in_flight": snap["in_flight"],
    }
    if tracer is not None:
        doc["spans"] = _spans(tracer)
    return doc


@pytest.mark.parametrize("api", ["scalar", "batch"])
def test_cluster_matrix_is_frozen(golden, api):
    golden("cluster_matrix_seed5", {name: run_config(name, api) for name in CONFIGS})
