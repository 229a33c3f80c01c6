"""Integration tests: tracing threaded through the serving pipeline.

Three properties the ISSUE demands of the tracing layer:

* **Determinism** — the same seeded workload against a fresh tracer
  exports a byte-identical trace (both formats).
* **No-op equivalence** — tracing observes, never perturbs: a traced
  run answers every request with exactly the values of an untraced run
  (the goldens in ``tests/goldens/`` separately pin the untraced path).
* **Provenance** — a cluster trace contains all four pipeline stages,
  and a replica's answer after a worker crash carries the failover hop.
* **The request-span rule** — over a cluster drive with a crash, an
  elastic drain and deadline sheds, every ``request`` span ends exactly
  once with one outcome, links the batch that served it, and a row that
  failed over opens a fresh span on its replica.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.obs import (
    STAGE_CLUSTER,
    STAGE_NWS,
    STAGE_SERVING,
    STAGE_STRUCTURAL,
    Tracer,
    trace_to_chrome,
    trace_to_dict,
    traced_cluster_run,
    traced_server_run,
)
from repro.faults import FaultPlan
from repro.serving import (
    ClosedLoop,
    ClusterConfig,
    ElasticConfig,
    LoadDriver,
    PredictRequest,
    RequestBatch,
    ServerConfig,
    StaticPolicy,
    demo_cluster,
    demo_server,
)
from repro.structural.engine import clear_plan_cache

SEED = 7


@pytest.fixture(scope="module")
def server_run():
    return traced_server_run(rng=SEED)


@pytest.fixture(scope="module")
def cluster_run():
    return traced_cluster_run(rng=SEED)


class TestSeededDeterminism:
    def test_server_trace_exports_are_bit_identical(self, server_run):
        tracer, _, _ = server_run
        replay, _, _ = traced_server_run(rng=SEED)
        assert json.dumps(trace_to_dict(tracer), sort_keys=True) == json.dumps(
            trace_to_dict(replay), sort_keys=True
        )
        assert json.dumps(trace_to_chrome(tracer), sort_keys=True) == json.dumps(
            trace_to_chrome(replay), sort_keys=True
        )

    def test_different_seed_different_trace(self, server_run):
        tracer, _, _ = server_run
        other, _, _ = traced_server_run(rng=SEED + 1)
        assert json.dumps(trace_to_dict(tracer), sort_keys=True) != json.dumps(
            trace_to_dict(other), sort_keys=True
        )


class TestNoOpEquivalence:
    def test_traced_run_answers_exactly_like_an_untraced_run(self, server_run):
        _, traced_report, _ = server_run
        clear_plan_cache()
        server, _, _ = demo_server(duration=600.0, rng=SEED)  # null tracer
        untraced = LoadDriver(
            server,
            server.models,
            ClosedLoop(clients=4, think_time=0.5),
            max_requests=120,
            rng=SEED,
        ).run()
        assert [
            (r.request_id, r.client_id, r.completed, r.value, r.quality)
            for r in traced_report.responses
        ] == [
            (r.request_id, r.client_id, r.completed, r.value, r.quality)
            for r in untraced.responses
        ]

    def test_untraced_server_allocates_no_spans(self):
        server, _, _ = demo_server(duration=300.0, rng=SEED)
        assert not server.tracer.enabled
        assert len(server.tracer) == 0


class TestStageCoverage:
    def test_server_trace_covers_nws_structural_and_serving(self, server_run):
        tracer, report, _ = server_run
        counts = tracer.stage_counts()
        for stage in (STAGE_NWS, STAGE_STRUCTURAL, STAGE_SERVING):
            assert counts.get(stage, 0) > 0, f"no spans from stage {stage}"
        # One request span per answered request, each resolved.
        requests = tracer.find(name="request", stage=STAGE_SERVING)
        assert len(requests) == report.ok
        assert all(sp.attrs.get("outcome") == "ok" for sp in requests)
        assert all(sp.end is not None for sp in requests)

    def test_cluster_trace_covers_all_four_stages(self, cluster_run):
        tracer, _, _ = cluster_run
        counts = tracer.stage_counts()
        for stage in (STAGE_NWS, STAGE_STRUCTURAL, STAGE_SERVING, STAGE_CLUSTER):
            assert counts.get(stage, 0) > 0, f"no spans from stage {stage}"

    def test_forecast_lookups_record_their_outcome(self, server_run):
        tracer, _, _ = server_run
        lookups = tracer.find(name="forecast.lookup", stage=STAGE_NWS)
        assert lookups
        outcomes = {sp.attrs["outcome"] for sp in lookups}
        assert outcomes <= {"hit", "adopt", "refresh"}
        assert "refresh" in outcomes and "hit" in outcomes
        # A refresh runs the qualified query, nested under the lookup.
        refresh = next(sp for sp in lookups if sp.attrs["outcome"] == "refresh")
        children = [s for s in tracer.spans if s.parent_id == refresh.span_id]
        assert any(s.name == "nws.query_qualified" for s in children)

    def test_plan_compilation_traces_cache_hits_and_misses(self, server_run):
        tracer, _, _ = server_run
        compiles = tracer.find(name="plan.compile", stage=STAGE_STRUCTURAL)
        assert compiles
        # Demo models share one expression: exactly one miss, rest hits.
        misses = [sp for sp in compiles if not sp.attrs["cache_hit"]]
        assert len(misses) == 1
        assert len(compiles) > 1
        assert all(sp.attrs["cache_hit"] for sp in compiles if sp is not misses[0])

    def test_batch_spans_link_their_requests(self, server_run):
        tracer, _, _ = server_run
        batches = tracer.find(name="serving.batch", stage=STAGE_SERVING)
        assert batches
        assert all(sp.attrs["engine"] == "vectorised" for sp in batches)
        by_id = {sp.span_id: sp for sp in batches}
        for req in tracer.find(name="request", outcome="ok"):
            batch = by_id[req.attrs["batch_span"]]
            assert req.attrs["request_id"] in batch.attrs["request_ids"]
            assert req.attrs["batch_size"] == batch.attrs["batch_size"]


class TestFailoverProvenance:
    def test_failover_hop_is_in_the_trace(self, cluster_run):
        tracer, report, _ = cluster_run
        failover_answers = [r for r in report.responses if r.ok and r.failover]
        assert failover_answers, "the crash produced no failover answers"

        migrations = tracer.find(name="cluster.failover", stage=STAGE_CLUSTER)
        assert len(migrations) == 1
        migration = migrations[0]
        assert migration.attrs["requeued"] > 0

        # Every failover-tagged answer has a failover-tagged route span.
        hops = tracer.find(name="cluster.route", stage=STAGE_CLUSTER, failover=True)
        hop_requests = {(sp.attrs["client_id"], sp.attrs["request_id"]) for sp in hops}
        for resp in failover_answers:
            assert (resp.client_id, resp.request_id) in hop_requests

        # Requeued hops nest under the migration span, away from the victim.
        nested = [sp for sp in hops if sp.parent_id == migration.span_id]
        assert len(nested) == migration.attrs["requeued"]
        assert all(sp.attrs["target"] != migration.attrs["worker"] for sp in nested)

    def test_deliveries_tag_failover_and_quality(self, cluster_run):
        tracer, report, _ = cluster_run
        deliveries = tracer.find(name="cluster.deliver", stage=STAGE_CLUSTER)
        assert len(deliveries) == len(report.responses)
        flagged = [sp for sp in deliveries if sp.attrs["failover"]]
        assert flagged
        assert all(
            sp.attrs["quality"] in ("stale", "fallback")
            for sp in flagged
            if sp.attrs["status"] == "ok"
        )

    def test_victim_request_spans_end_as_drained(self, cluster_run):
        tracer, _, _ = cluster_run
        drained = tracer.find(name="request", stage=STAGE_SERVING, outcome="drained")
        assert drained, "the crash drained no in-flight request spans"
        restarts = [e for e in tracer.events if e.name == "worker.restart"]
        assert len(restarts) == 1


class TestTracedRunShape:
    def test_traced_cluster_run_is_deterministic(self, cluster_run):
        tracer, report, _ = cluster_run
        replay_tracer, replay_report, _ = traced_cluster_run(rng=SEED)
        assert json.dumps(trace_to_dict(tracer), sort_keys=True) == json.dumps(
            trace_to_dict(replay_tracer), sort_keys=True
        )
        assert [r.value for r in report.responses] == [
            r.value for r in replay_report.responses
        ]

    def test_explicit_tracer_is_used(self):
        tr = Tracer()
        out, _, _ = traced_server_run(rng=SEED, max_requests=10, tracer=tr)
        assert out is tr and len(tr) > 0


class _UpdateLog(Tracer):
    """A tracer that counts, per span id, the row updates that end it
    and those that set its ``outcome`` (request spans close only there)."""

    def __init__(self):
        super().__init__()
        self.ends = Counter()
        self.outcomes = Counter()

    def update_rows(self, ids, t=None, **columns):
        ids_list = np.asarray(ids, dtype=np.int64).tolist()
        if t is not None:
            self.ends.update(ids_list)
        if "outcome" in columns:
            self.outcomes.update(ids_list)
        super().update_rows(ids, t, **columns)


@pytest.fixture(scope="module")
def churn_run():
    """A traced 3-worker cluster under deadline pressure: worker-0
    crashes mid-load, and the busiest worker left is drained with a
    grace too short to finish its work.  ``(tracer, answers)``."""
    clear_plan_cache()
    tracer = _UpdateLog()
    t0 = 60.0  # demo warm-up
    cluster, _, _ = demo_cluster(
        duration=600.0,
        sizes=(600, 1000, 1600),
        config=ClusterConfig(
            n_workers=3,
            worker=ServerConfig(
                n_samples=64, service_time_base=0.004, service_time_per_request=0.002
            ),
        ),
        faults=FaultPlan.crashes({"worker-0": [(t0 + 0.41, t0 + 0.73)]}),
        rng=SEED,
        tracer=tracer,
        elastic=ElasticConfig(
            policy=StaticPolicy(), min_workers=1, max_workers=4, drain_grace=0.01
        ),
    )
    answers, models, window = [], cluster.models, 0.05
    for w in range(24):
        to = t0 + window * (w + 1)
        rows = [
            PredictRequest(
                request_id=w * 1000 + i,
                client_id=f"c{i % 8}",
                model=models[i % len(models)],
                submitted=to - window + window * i / 36,
                deadline=to - window + window * i / 36 + 0.06,
            )
            for i in range(36)
        ]
        answers.append(cluster.submit_batch(RequestBatch.from_requests(rows)))
        answers.append(cluster.step_batch(to))
        if w == 12:
            name = max(cluster.healthy_workers, key=lambda n: cluster.workers[n].in_flight)
            cluster.begin_drain(name, to)
    answers.append(cluster.step_batch(to + 5.0))  # answer everything in flight
    # Span ids are serving state: no delivered answer carries them out.
    assert all(rb.span is None and rb.batch_span is None for rb in answers)
    return tracer, [r for rb in answers for r in rb.to_responses()]


class TestRequestSpanRule:
    def test_the_drive_crashes_drains_and_sheds(self, churn_run):
        tracer, _ = churn_run
        migrations = tracer.find(name="cluster.failover", stage=STAGE_CLUSTER)
        assert sorted(m.attrs.get("drain_deadline", False) for m in migrations) == [False, True]
        assert all(m.attrs["stranded"] > 0 for m in migrations)
        assert tracer.find(name="request", outcome="shed:deadline")
        # Some drained rows had been served: their answers died undelivered.
        drained = tracer.find(name="request", outcome="drained")
        assert any("batch_span" in sp.attrs for sp in drained)

    def test_every_request_span_ends_once_with_one_outcome(self, churn_run):
        tracer, _ = churn_run
        requests = tracer.find(name="request", stage=STAGE_SERVING)
        assert requests
        for sp in requests:
            assert sp.end is not None and "outcome" in sp.attrs
            assert tracer.ends[sp.span_id] == 1, sp
            assert tracer.outcomes[sp.span_id] == 1, sp

    def test_every_served_row_links_its_batch(self, churn_run):
        tracer, _ = churn_run
        batches = {sp.span_id: sp for sp in tracer.find(name="serving.batch")}
        requests = tracer.find(name="request", stage=STAGE_SERVING)
        for sp in requests:
            if sp.attrs["outcome"] == "ok":
                assert sp.attrs["batch_span"] in batches, sp
        # Each row a batch served, delivered or drained, names that batch.
        linked = Counter(
            (sp.attrs["request_id"], sp.attrs["batch_span"])
            for sp in requests
            if "batch_span" in sp.attrs
        )
        for batch in batches.values():
            for rid in batch.attrs["request_ids"]:
                assert linked[(rid, batch.span_id)] == 1, (rid, batch.span_id)

    def test_a_failed_over_row_opens_a_fresh_span_on_its_replica(self, churn_run):
        tracer, answers = churn_run
        by_request: dict = {}
        for sp in tracer.find(name="request", stage=STAGE_SERVING):
            by_request.setdefault(sp.attrs["request_id"], []).append(sp)
        ok = {r.request_id: r for r in answers if r.ok}
        moved = 0
        for rid, spans in by_request.items():
            assert [sp.attrs["outcome"] for sp in spans].count("ok") == (rid in ok)
            for old in (sp for sp in spans if sp.attrs["outcome"] == "drained"):
                if rid not in ok:
                    continue
                (fresh,) = [sp for sp in spans if sp.attrs["outcome"] == "ok"]
                assert fresh.span_id > old.span_id
                assert fresh.trace_id != old.trace_id
                assert fresh.start >= old.end
                assert ok[rid].failover
                moved += 1
        assert moved > 0
