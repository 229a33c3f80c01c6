"""A server counts the responses it returns, and only those.

``responses_ok``, ``quality_*``, ``latency_s``, ``shed_*`` and
``errors_total`` count an answer when it is returned: an immediate one
when ``submit_batch`` returns it, a computed one when ``step_batch``
delivers it.  ``drain()`` (a crash) and ``restart()`` discard answers a
server computed but had not delivered, so those are never counted; the
replica that recomputes a drained row counts its own answer.
"""

from repro.core.stochastic import StochasticValue
from repro.faults import FaultPlan
from repro.nws.service import NetworkWeatherService
from repro.serving import (
    AdmissionPolicy,
    ClusterConfig,
    ModelSpec,
    PredictionServer,
    PredictRequest,
    RequestBatch,
    ServerConfig,
    ServingCluster,
)
from repro.structural.expr import Param
from repro.structural.parameters import Bindings
from repro.workload.traces import Trace

T0 = 60.0


def _nws():
    nws = NetworkWeatherService()
    nws.register("cpu:a", Trace.constant(0.5))
    nws.advance_to(T0)
    return nws


def _spec():
    """Model ``m`` = a / b; a request overriding ``b=0`` fails to evaluate."""
    bindings = Bindings()
    bindings.bind_runtime("a", StochasticValue(1.0, 0.1))
    bindings.bind_runtime("b", StochasticValue(0.5, 0.1))
    return ModelSpec(
        name="m", expression=Param("a") / Param("b"), bindings=bindings, resources={"b": "cpu:a"}
    )


def _failing_rows(n=3):
    return RequestBatch.from_requests(
        [
            PredictRequest(
                request_id=i, client_id=f"c{i}", model="m", submitted=T0, overrides={"b": 0.0}
            )
            for i in range(n)
        ]
    )


def _cluster(faults):
    cluster = ServingCluster(_nws(), config=ClusterConfig(n_workers=2), faults=faults, rng=1)
    cluster.register_model(_spec())
    return cluster


def test_a_crashed_primary_counts_no_undelivered_error():
    # The default worker serves 3 rows in 4 + 3 * 1 = 7 ms; the primary
    # crashes 2 ms in, and the replica delivers the 3 error answers.
    primary = _cluster(None).owners("m")[0]
    cluster = _cluster(FaultPlan.crashes({primary: [(T0 + 0.002, T0 + 1.0)]}))
    assert not len(cluster.submit_batch(_failing_rows()))
    out = cluster.step_batch(T0 + 0.1)
    assert out.status_counts() == {"ok": 0, "overloaded": 0, "error": 3}
    snap = cluster.snapshot()
    assert snap["cluster"]["counters"]["worker_crashes_total"] == 1
    assert snap["cluster"]["counters"]["errors_total"] == 3
    workers = {name: w["metrics"]["counters"] for name, w in snap["workers"].items()}
    workers = {name: counters["errors_total"] for name, counters in workers.items()}
    assert workers[primary] == 0
    assert sum(workers.values()) == 3


def test_a_restarted_server_counts_no_undelivered_error():
    server = PredictionServer(_nws(), rng=1)
    server.register_model(_spec())
    assert not len(server.submit_batch(_failing_rows()))
    assert not len(server.step_batch(T0 + 0.002))
    assert server.in_flight == 3 and server.queue_depth == 0  # in service
    server.restart(T0 + 0.003)
    assert not len(server.step_batch(T0 + 0.1))
    assert server.metrics.counter("errors_total").value == 0


def test_counters_match_the_returned_responses():
    # Queue-bound and deadline sheds, validation errors, evaluation
    # errors and ok answers, each counted once, when returned.
    config = ServerConfig(admission=AdmissionPolicy(max_queue=6))
    server = PredictionServer(_nws(), config=config, rng=1)
    server.register_model(_spec())
    returned = []
    for w in range(6):
        t = T0 + 0.006 * w
        rows = [
            PredictRequest(
                request_id=100 * w + i,
                client_id=f"c{i % 3}",
                model="nope" if i == 7 else "m",
                submitted=t,
                deadline=t + 0.003 if i % 4 == 1 else None,
                overrides={"b": 0.0} if i == 5 and w % 2 else None,
            )
            for i in range(9)
        ]
        returned.append(server.submit_batch(RequestBatch.from_requests(rows)))
        returned.append(server.step_batch(t + 0.006))
    statuses = {"ok": 0, "overloaded": 0, "error": 0}
    sheds: dict = {}
    for rb in returned:
        for name, c in rb.status_counts().items():
            statuses[name] += c
        for name, c in rb.reason_counts().items():
            sheds[name] = sheds.get(name, 0) + c
    counters = server.metrics.snapshot()["counters"]
    assert min(statuses.values()) > 0 and set(sheds) == {"queue_full", "deadline"}
    assert counters["responses_ok"] == statuses["ok"]
    assert counters["shed_total"] == statuses["overloaded"]
    assert counters["errors_total"] == statuses["error"]
    shed_counters = {k[5:]: v for k, v in counters.items() if k.startswith("shed_")}
    assert shed_counters == {"total": statuses["overloaded"], **sheds}
    assert server.metrics.histogram("latency_s").count == statuses["ok"]
