"""The load-driver matrix, frozen: every drive shape the driver offers.

Each case plays one seeded drive through :class:`~repro.serving.LoadDriver`
and records everything the drive reports: every response field (precision
blocks included), the report's counts, shed reasons, qualities and
latency percentiles, and a sha256 over the raw float64 answer columns so
equality is bit-exact (the golden comparison itself allows only
arithmetic noise).  The cases cover the driver's load shapes:

* ``closed_shed`` — closed-loop clients with think time against a small
  queue, so shed clients back off by the server's ``retry_after``;
* ``closed_cluster_crash`` — closed-loop clients on a 4-worker cluster
  whose busiest worker crashes mid-drive (failover answers, requeues);
* ``open_duration`` — constant-rate Poisson arrivals bounded by
  ``duration`` (the last draw overshoots the horizon);
* ``open_requests`` — constant-rate arrivals bounded by ``max_requests``
  with per-request deadlines and an adaptive precision target;

plus ``scenario``: :func:`~repro.serving.scenarios.run_scenario` on a small
flash crowd (Lewis–Shedler thinning) with skewed ``model_weights`` under
the ``forecast`` policy, recorded as :meth:`ScenarioReport.to_dict`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import pytest

from repro.core.stochastic import StochasticValue
from repro.faults import FaultPlan
from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    ClusterConfig,
    LoadDriver,
    OpenLoop,
    ServerConfig,
    demo_cluster,
    demo_server,
)
from repro.serving.scenarios import Scenario, run_scenario
from repro.structural.repeaters import PrecisionTarget

SEED = 5

#: Float fields hashed bit-exactly, in this order, when a response has them.
FLOAT_FIELDS = ("completed", "p95", "staleness", "latency", "retry_after")


def _field(value):
    if isinstance(value, StochasticValue):
        return {"mean": value.mean, "spread": value.spread}
    if dataclasses.is_dataclass(value):
        return {f.name: _field(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _response(r) -> dict:
    out = _field(r)
    out["type"] = type(r).__name__
    return out


def _float_digest(responses) -> str:
    h = hashlib.sha256()
    for r in responses:
        vals = [getattr(r, name) for name in FLOAT_FIELDS if hasattr(r, name)]
        if hasattr(r, "value"):
            vals += [r.value.mean, r.value.spread]
        h.update(struct.pack(f"<{len(vals)}d", *vals))
    return h.hexdigest()


def _record(report) -> dict:
    responses = list(report.responses)
    return {
        "responses": [_response(r) for r in responses],
        "float_sha256": _float_digest(responses),
        "report": {
            "n_responses": len(report.responses),
            "submitted": report.submitted,
            "ok": report.ok,
            "shed": report.shed,
            "errors": report.errors,
            "shed_reasons": dict(report.shed_reasons),
            "qualities": dict(report.qualities),
            "sim_duration": report.sim_duration,
            "latency_p50": report.latency_p50,
            "latency_p99": report.latency_p99,
            "latency_max": report.latency_max,
            "lost": report.lost,
            "duplicates": report.duplicates,
        },
    }


def _closed_shed() -> dict:
    config = ServerConfig(
        n_samples=64,
        batch_max=4,
        service_time_base=0.02,
        service_time_per_request=0.01,
        admission=AdmissionPolicy(max_queue=4),
    )
    server, _, _ = demo_server(config=config, rng=SEED)
    report = LoadDriver(
        server,
        server.models,
        ClosedLoop(clients=12, think_time=0.05),
        max_requests=200,
        rng=SEED,
    ).run()
    return _record(report)


def _closed_cluster_crash() -> dict:
    config = ClusterConfig(n_workers=4, replication=2, worker=ServerConfig(n_samples=64))
    probe, _, _ = demo_cluster(config=config, rng=SEED)
    victim = probe.owners(probe.models[0])[0]
    cluster, _, _ = demo_cluster(
        config=config, faults=FaultPlan.crashes({victim: [(60.4, 61.2)]}), rng=SEED
    )
    report = LoadDriver(
        cluster,
        cluster.models,
        ClosedLoop(clients=16),
        max_requests=600,
        rng=SEED,
    ).run()
    return _record(report)


def _open_duration() -> dict:
    server, _, _ = demo_server(config=ServerConfig(n_samples=64), rng=SEED)
    report = LoadDriver(
        server, server.models, OpenLoop(rate=120.0, clients=5), duration=3.0, rng=SEED
    ).run()
    return _record(report)


def _open_requests() -> dict:
    config = ServerConfig(
        n_samples=256,
        batch_max=16,
        admission=AdmissionPolicy(max_queue=48),
    )
    server, _, _ = demo_server(config=config, rng=SEED)
    report = LoadDriver(
        server,
        server.models,
        OpenLoop(rate=1500.0, clients=3),
        max_requests=250,
        deadline=0.03,
        precision=PrecisionTarget.parse("p95:5%", min_samples=16),
        rng=SEED,
    ).run()
    return _record(report)


def _scenario() -> dict:
    scenario = Scenario.from_dict(
        {
            "name": "tiny-flash",
            "description": "small skewed flash crowd for the drive matrix",
            "seed": SEED,
            "duration": 6.0,
            "warmup": 60.0,
            "clients": 6,
            "deadline": 4.0,
            "arrival": {
                "kind": "flash",
                "base": 25.0,
                "peak": 160.0,
                "start": 1.0,
                "rise": 1.0,
                "hold": 1.5,
                "fall": 1.0,
            },
            "model_weights": {"sor-400": 4.0, "sor-800": 1.0, "sor-1200": 1.0},
            "models": [400, 800, 1200],
            "cluster": {"workers": 2, "replication": 2},
            "elastic": {"min_workers": 1, "max_workers": 4, "provision_time": 1.0},
            "invariants": {
                "max_p99": 6.0,
                "latency_slo": 2.0,
                "disturbance_end": 4.5,
                "recovery_within": 15.0,
            },
            "surge": [1.0, 4.5],
        }
    )
    return run_scenario(scenario, "forecast").to_dict()


DRIVES = {
    "closed_shed": _closed_shed,
    "closed_cluster_crash": _closed_cluster_crash,
    "open_duration": _open_duration,
    "open_requests": _open_requests,
    "scenario": _scenario,
}


@pytest.fixture(scope="module")
def matrix() -> dict:
    return {name: drive() for name, drive in DRIVES.items()}


def test_drive_matrix_is_frozen(golden, matrix):
    golden("drive_matrix_seed5", matrix)


@pytest.mark.parametrize("name", [n for n in DRIVES if n != "scenario"])
def test_every_drive_is_lossless(matrix, name):
    drive = matrix[name]
    report = drive["report"]
    assert report["n_responses"] == report["submitted"]
    assert report["ok"] + report["shed"] + report["errors"] == report["submitted"]
    ids = sorted(r["request_id"] for r in drive["responses"])
    assert ids == list(range(report["submitted"]))


def test_the_matrix_exercises_every_shape(matrix):
    closed = matrix["closed_shed"]["report"]
    assert closed["shed_reasons"].get("queue_full", 0) > 0
    crash = matrix["closed_cluster_crash"]["responses"]
    assert any(r.get("failover") for r in crash)
    timed = matrix["open_requests"]
    assert timed["report"]["shed_reasons"].get("deadline", 0) > 0
    assert any(r.get("precision") for r in timed["responses"])
    assert matrix["scenario"]["submitted"] > 0
