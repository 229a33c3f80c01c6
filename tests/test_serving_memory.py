"""Serving memory is bounded: a drive that keeps none of its answers
retains next to nothing per request served.

The drive is the soak configuration (four workers, 16 draws per answer,
2,500 requests per simulated second) through ``submit_batch`` /
``step_batch``, answers dropped as they arrive.  Every histogram is read
(``snapshot()``) before each measurement, so no pending observation
buffer is counted.  A store that kept every observation would retain
8 bytes per request for each of the worker latency, worker staleness
and cluster latency histograms (24 B in all); what remains here is
interpreter free lists, which fill up and stop growing.
"""

import gc
import tracemalloc

import numpy as np

from repro.serving import (
    AdmissionPolicy,
    ClusterConfig,
    RequestBatch,
    ServerConfig,
    demo_cluster,
)

CLIENTS = tuple(f"client-{c}" for c in range(8))

#: Requests per 0.25 simulated seconds at 2,500 req/s.
WINDOW_ROWS = 625

#: Retained bytes allowed per measured request.
BYTES_PER_REQUEST = 8


def _soak_cluster():
    config = ClusterConfig(
        n_workers=4,
        replication=2,
        worker=ServerConfig(
            n_samples=16, batch_max=512, admission=AdmissionPolicy(max_queue=8192)
        ),
    )
    return demo_cluster(config=config, rng=11)[0]


def _drive(cluster, rng, first_id: int, n: int) -> int:
    """Submit ``n`` requests from ``first_id`` on, one window at a time,
    dropping every answer; returns the number of answers seen."""
    models = tuple(cluster.models)
    now = float(cluster.now)
    answered = 0
    for lo in range(first_id, first_id + n, WINDOW_ROWS):
        ids = np.arange(lo, lo + WINDOW_ROWS, dtype=np.int64)
        batch = RequestBatch(
            request_id=ids,
            client=(ids % len(CLIENTS)).astype(np.int32),
            clients=CLIENTS,
            model=rng.integers(0, len(models), WINDOW_ROWS).astype(np.int32),
            models=models,
            submitted=now + np.sort(rng.uniform(0.0, 0.25, WINDOW_ROWS)),
            deadline=np.full(WINDOW_ROWS, np.inf),
        )
        answered += len(cluster.submit_batch(batch))
        now += 0.25
        answered += len(cluster.step_batch(now))
    return answered


def test_soak_retains_no_per_request_state():
    cluster = _soak_cluster()
    rng = np.random.default_rng(0)
    warmup, measured = 20 * WINDOW_ROWS, 96 * WINDOW_ROWS  # 12.5k, 60k
    seen = _drive(cluster, rng, 0, warmup)
    cluster.snapshot()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        answered = _drive(cluster, rng, warmup, measured)
        snap = cluster.snapshot()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert seen + answered >= warmup + measured - 2 * WINDOW_ROWS  # it kept up
    assert snap["aggregated"]["latency_s"]["count"] == seen + answered  # all ok
    assert grown < BYTES_PER_REQUEST * measured, f"retained {grown} B over {measured} requests"
