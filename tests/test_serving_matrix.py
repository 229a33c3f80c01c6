"""The serving feature matrix, frozen: one golden per config, both APIs.

Each config drives a seeded stream of about 200 requests through a
fresh demo server and records everything a client or an operator can
observe: every response field (precision and distribution blocks
included), the counters and gauges, and — for the traced configs — the
outcome of every ``request`` span and the shape of every
``serving.batch`` span.  A sha256 over the raw float64 answer columns
makes equality bit-exact; the golden comparison itself allows only
arithmetic noise.

The stream is driven window by window, either one request at a time
through ``submit``/``step`` or one ``RequestBatch`` per window through
``submit_batch``/``step_batch``.  Both must reproduce the same golden:
a scalar request is a one-row batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.calib.loop import CalibrationConfig
from repro.core.stochastic import StochasticValue
from repro.obs import Tracer
from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionPolicy,
    RequestBatch,
    ServerConfig,
    demo_server,
)
from repro.serving.protocol import PredictRequest
from repro.structural.expr import EvalPolicy, MaxStrategy
from repro.structural.repeaters import PrecisionTarget

SEED = 5
CLIENTS = ("ann", "bob", "cyd", "dee")

#: Simulated seconds between submission windows.
WINDOW = 0.1

#: Requests per config.
N = 200

#: Requests ``BURST`` all arrive at one instant from distinct clients,
#: so the queue bound (not the token buckets) sheds them.
BURST = range(100, 140)

P95 = PrecisionTarget.parse("p95:2%", min_samples=32)
MEAN_COMPOSITE = PrecisionTarget.parse("mean:1%:composite", min_samples=32)
LOOSE = PrecisionTarget.parse("p95:5%", min_samples=8)


def _admission(**kw) -> AdmissionPolicy:
    return AdmissionPolicy(max_queue=48, client_rate=40.0, client_burst=4.0, **kw)


def _stream(models, t0, decorate=None) -> list[PredictRequest]:
    """The seeded request stream, optionally decorated per row."""
    reqs = []
    for i in range(N):
        if i in BURST:
            t, client = t0 + 0.5, f"burst-{i}"
        else:
            t, client = t0 + 0.005 * i, CLIENTS[i % len(CLIENTS)]
        deadline = None
        if i % 7 == 3:
            deadline = t + 0.02  # tight: some expire in the queue
        elif i % 7 == 5:
            deadline = t + 30.0
        fields = dict(
            request_id=i,
            client_id=client,
            model=models[i % len(models)],
            submitted=t,
            deadline=deadline,
        )
        if decorate is not None:
            decorate(i, fields)
        reqs.append(PredictRequest(**fields))
    return reqs


def _with_overrides(i, fields):
    if i % 5 == 1:
        fields["overrides"] = {"bw_avail": 0.5}
    elif i % 5 == 2:
        fields["overrides"] = {"load[1]": StochasticValue(0.6, 0.1), "bw_avail": 0.8}
    elif i % 23 == 4:
        fields["overrides"] = {"n_procs": 3.0}  # not a run-time parameter: error
    if i % 31 == 6:
        fields["model"] = "no-such-model"


def _mixed_precision(i, fields):
    if i % 3 == 0:
        fields["precision"] = P95
    elif i % 11 == 1:
        fields["precision"] = MEAN_COMPOSITE
    if i % 9 == 4:
        fields["overrides"] = {"bw_avail": 0.6}


def _some_loose(i, fields):
    if i % 4 == 0:
        fields["precision"] = LOOSE


def _unsupported(server) -> list[str]:
    """Register a model whose max strategy has no compiled plan."""
    spec = server._models["sor-600"]  # noqa: SLF001 - reuse the demo bindings
    server.register_model(
        replace(
            spec,
            name="sor-600-mc",
            policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO),
        )
    )
    return ["sor-600", "sor-600-mc"]


#: name -> (ServerConfig, traced, stream decoration, model setup).
CONFIGS = {
    "fixed": (
        ServerConfig(n_samples=32, batch_max=16, admission=_admission()),
        False,
        None,
        None,
    ),
    "fixed_overrides": (
        ServerConfig(n_samples=32, batch_max=16, admission=_admission()),
        False,
        _with_overrides,
        None,
    ),
    "precision_mixed": (
        ServerConfig(
            n_samples=256,
            batch_max=16,
            service_time_base=0.01,
            admission=_admission(precision_ladder=DEFAULT_PRECISION_LADDER),
        ),
        False,
        _mixed_precision,
        None,
    ),
    "precision_default": (
        ServerConfig(
            n_samples=256,
            batch_max=16,
            precision=P95,
            admission=_admission(precision_ladder=DEFAULT_PRECISION_LADDER),
        ),
        False,
        None,
        None,
    ),
    "calibration": (
        ServerConfig(
            n_samples=64,
            batch_max=16,
            admission=_admission(),
            calibration=CalibrationConfig(truth_spread_scale=2.0, flush_every=8),
        ),
        False,
        _with_overrides,
        None,
    ),
    "traced_full": (
        ServerConfig(
            n_samples=256,
            batch_max=16,
            precision=P95,
            admission=_admission(precision_ladder=DEFAULT_PRECISION_LADDER),
            calibration=CalibrationConfig(truth_spread_scale=2.0, flush_every=16),
        ),
        True,
        _mixed_precision,
        None,
    ),
    "unsupported_plan": (
        ServerConfig(n_samples=16, batch_max=16, admission=_admission()),
        True,
        _some_loose,
        _unsupported,
    ),
}


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def _windows(reqs, t0):
    """``(to, rows)`` per window until every request has been answered."""
    pos = 0
    to = t0
    while True:
        to += WINDOW
        rows = []
        while pos < len(reqs) and reqs[pos].submitted <= to:
            rows.append(reqs[pos])
            pos += 1
        yield to, rows


def _drive_scalar(server, reqs):
    out = []
    for to, rows in _windows(reqs, server.now):
        for r in rows:
            immediate = server.submit(r)
            if immediate is not None:
                out.append(immediate)
        out.extend(server.step(to))
        if len(out) >= len(reqs):
            return out


def _drive_batch(server, reqs):
    out = []
    for to, rows in _windows(reqs, server.now):
        if rows:
            out.extend(server.submit_batch(RequestBatch.from_requests(rows)).to_responses())
        out.extend(server.step_batch(to).to_responses())
        if len(out) >= len(reqs):
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


def _spans(tracer) -> dict:
    return {
        "request": [
            {
                "request_id": sp.attrs["request_id"],
                "outcome": sp.attrs.get("outcome"),
                "batch_size": sp.attrs.get("batch_size"),
                "quality": sp.attrs.get("quality"),
            }
            for sp in tracer.spans
            if sp.name == "request"
        ],
        "serving.batch": [
            {
                "request_ids": list(sp.attrs["request_ids"]),
                "batch_size": sp.attrs["batch_size"],
                "adaptive": sp.attrs.get("adaptive", False),
                "draws": sp.attrs.get("draws"),
                "engine": sp.attrs.get("engine"),
            }
            for sp in tracer.spans
            if sp.name == "serving.batch"
        ],
        "serving.reject": [
            sp.attrs["outcome"] for sp in tracer.spans if sp.name == "serving.reject"
        ],
    }


def run_config(name: str, api: str) -> dict:
    """One config's observable record, driven through ``api``."""
    config, traced, decorate, setup = CONFIGS[name]
    tracer = Tracer() if traced else None
    server, _, _ = demo_server(duration=600.0, config=config, rng=SEED, tracer=tracer)
    models = setup(server) if setup is not None else server.models
    reqs = _stream(models, server.now, decorate)
    drive = _drive_scalar if api == "scalar" else _drive_batch
    responses = drive(server, reqs)
    assert sorted(r.request_id for r in responses) == list(range(N))
    snap = server.metrics.snapshot()
    doc = {
        "responses": [_response(r) for r in responses],
        "sha256": _float_columns(responses),
        "metrics": {"counters": snap["counters"], "gauges": snap["gauges"]},
    }
    if tracer is not None:
        doc["spans"] = _spans(tracer)
    return doc


@pytest.mark.parametrize("api", ["scalar", "batch"])
def test_serving_matrix_is_frozen(golden, api):
    golden("serving_matrix_seed5", {name: run_config(name, api) for name in CONFIGS})
