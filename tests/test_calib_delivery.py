"""Calibration scores what was delivered, and only that.

Each prediction is checked against the one run it predicted, so an
answer a client never received has no outcome to be scored against.  A
server computes an answer before it delivers it, and ``drain()`` (a
crash, or a drain whose grace ran out) or ``restart()`` discards the
answers computed but not yet delivered.  In each configuration below,
one of those discards happens mid-load, and the loop's
``calib_observations_total`` must equal the ok answers delivered, with
the forecaster cohorts summing to the same count.
"""

import numpy as np
import pytest

from repro.calib import CalibrationConfig
from repro.faults import FaultPlan
from repro.serving import (
    ClusterConfig,
    ElasticConfig,
    PredictRequest,
    RequestBatch,
    ServerConfig,
    StaticPolicy,
    demo_cluster,
    demo_server,
)

#: Calibrated workers under a 2x truth spread; small flushes so the loop
#: scores (and recalibrates) many times within the drive.
_WORKER = ServerConfig(
    n_samples=64,
    service_time_base=0.004,
    service_time_per_request=0.002,
    calibration=CalibrationConfig(truth_spread_scale=2.0, flush_every=16),
)

#: Simulated seconds per load window.
_WINDOW = 0.05


def _drive(target, windows, *, per_window=24, hook=None):
    """Offer ``per_window`` requests per window over ``windows`` windows
    and return the ok answers delivered.  ``hook(target, w, t)`` runs
    after window ``w`` has been stepped to ``t``."""
    models, ok, t0 = target.models, 0, target.now
    for w in range(windows):
        to = t0 + _WINDOW * (w + 1)
        rows = [
            PredictRequest(
                request_id=w * 1000 + i,
                client_id=f"c{i % 8}",
                model=models[i % len(models)],
                submitted=to - _WINDOW + _WINDOW * i / per_window,
            )
            for i in range(per_window)
        ]
        ok += int(target.submit_batch(RequestBatch.from_requests(rows)).ok_mask.sum())
        ok += int(target.step_batch(to).ok_mask.sum())
        if hook is not None:
            hook(target, w, to)
    return ok


def _lone_server():
    server, _, _ = demo_server(duration=600.0, sizes=(600, 1000), config=_WORKER, rng=7)

    def restart(server, w, t):
        if w == 10:
            # A batch is in service: its computed answers die with the host.
            assert server.in_flight > server.queue_depth
            server.restart(t)

    # The drive also ends with a batch still in service.
    return server, server.metrics, _drive(server, 20, hook=restart)


def _crashed_cluster():
    t0 = 60.0  # demo warm-up
    cluster, _, _ = demo_cluster(
        duration=600.0,
        sizes=(600, 1000, 1600),
        config=ClusterConfig(n_workers=3, worker=_WORKER),
        faults=FaultPlan.crashes({"worker-0": [(t0 + 0.41, t0 + 0.73)]}),
        rng=7,
    )
    ok = _drive(cluster, 20)
    counters = cluster.snapshot()["cluster"]["counters"]
    assert counters["worker_crashes_total"] == 1
    assert counters["requeued_total"] > 0
    assert counters["failovers_total"] > 0
    return cluster, cluster.metrics, ok


def _draining_cluster():
    cluster, _, _ = demo_cluster(
        duration=600.0,
        sizes=(600, 1000, 1600),
        config=ClusterConfig(n_workers=3, worker=_WORKER),
        rng=7,
        elastic=ElasticConfig(
            policy=StaticPolicy(), min_workers=1, max_workers=4, drain_grace=0.01
        ),
    )

    def drain(cluster, w, t):
        if w == 8:
            name = max(cluster.workers, key=lambda n: cluster.workers[n].in_flight)
            cluster.begin_drain(name, t)

    ok = _drive(cluster, 20, hook=drain)
    counters = cluster.snapshot()["cluster"]["counters"]
    assert counters["workers_retired_total"] == 1
    assert counters["requeued_total"] > 0  # the grace ran out mid-load
    return cluster, cluster.metrics, ok


@pytest.mark.parametrize(
    "build", [_lone_server, _crashed_cluster, _draining_cluster], ids=lambda f: f.__name__[1:]
)
def test_scored_answers_are_the_delivered_ones(build):
    target, metrics, ok = build()
    summary = target.calibration_summary()  # flushes every queued answer
    scored = metrics.peek_counter("calib_observations_total").value
    cohorts = summary["scores"]["cohorts"]
    assert ok > 0
    assert scored == ok
    assert summary["scores"]["n"] == ok
    assert sum(c["n"] for c in cohorts.values()) == ok
    assert np.isfinite(summary["scores"]["models"][target.models[0]]["coverage"])
