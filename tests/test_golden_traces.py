"""Golden-trace regression tests for the end-to-end pipelines.

Each test replays one seeded end-to-end run — Platform 1, Platform 2,
and a served drive over the Platform 1 demo deployment — and compares
the full output trace (predictions, quality tags, metrics) against a
frozen JSON golden under ``tests/goldens/``.  A mismatch means observed
behaviour changed: either a regression, or an intentional change to be
reviewed and re-frozen with ``pytest --update-goldens``.

The runs are deliberately small (a few sizes / runs / hundred
requests): goldens gate *behaviour drift*, not statistical quality —
the platform experiment tests assert the paper's quality bars.
"""

from repro.experiments.platform1 import run_platform1
from repro.experiments.platform2 import run_platform2
from repro.serving import ClosedLoop, LoadDriver, demo_server


def stochastic_payload(sv) -> dict:
    return {"mean": sv.mean, "spread": sv.spread}


def quality_payload(q) -> dict:
    return {
        "capture": q.capture,
        "max_range_error": q.max_range_error,
        "mean_range_error": q.mean_range_error,
        "max_mean_error": q.max_mean_error,
        "mean_mean_error": q.mean_mean_error,
        "n": q.n,
    }


def test_platform1_trace_is_frozen(golden):
    result = run_platform1(sizes=(600, 800, 1000), iterations=10, rng=11)
    golden(
        "platform1_seed11",
        {
            "stochastic_load": stochastic_payload(result.stochastic_load),
            "points": [
                {
                    "problem_size": p.problem_size,
                    "prediction": stochastic_payload(p.prediction),
                    "actual": p.actual,
                }
                for p in result.points
            ],
            "quality": quality_payload(result.quality),
        },
    )


def test_platform2_trace_is_frozen(golden):
    result = run_platform2(600, n_runs=5, iterations=10, rng=42)
    golden(
        "platform2_seed42",
        {
            "problem_size": result.problem_size,
            "points": [
                {
                    "timestamp": p.timestamp,
                    "prediction": stochastic_payload(p.prediction),
                    "actual": p.actual,
                    "loads": [stochastic_payload(v) for v in p.loads],
                }
                for p in result.points
            ],
            "quality": quality_payload(result.quality),
        },
    )


def serving_trace_payload() -> dict:
    """The served drive's observable record (the ``serving_seed7`` golden)."""
    server, _, _ = demo_server(duration=600.0, rng=7)
    driver = LoadDriver(
        server,
        server.models,
        ClosedLoop(clients=4, think_time=0.5),
        max_requests=120,
        rng=7,
    )
    report = driver.run()
    snapshot = server.metrics.snapshot()
    return {
        "responses": [
            {
                "request_id": r.request_id,
                "client_id": r.client_id,
                "model": r.model,
                "completed": r.completed,
                "latency": r.latency,
                "quality": r.quality,
                "staleness": r.staleness,
                "batch_size": r.batch_size,
                "value": stochastic_payload(r.value),
                "p95": r.p95,
            }
            for r in report.responses
            if r.ok
        ],
        "summary": {
            "submitted": report.submitted,
            "ok": report.ok,
            "shed": report.shed,
            "errors": report.errors,
            "qualities": report.qualities,
        },
        "metrics": {
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
        },
    }


def test_serving_trace_is_frozen(golden):
    golden("serving_seed7", serving_trace_payload())
