"""Unit tests for the sharded serving cluster and its router.

Covers the pieces the chaos soak exercises only implicitly: consistent
hashing and balanced primary election, health-aware routing, cluster
admission (global token bucket, no-healthy-owner shedding), the worker
drain/restart hooks, exact histogram merging, and the JSON snapshot.
"""

import json

import pytest

from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    ClusterConfig,
    Histogram,
    LoadDriver,
    PredictRequest,
    RequestBatch,
    ServerConfig,
    demo_cluster,
    demo_server,
)
from repro.serving.protocol import SHED_QUEUE_FULL, SHED_THROTTLED, SHED_UNAVAILABLE
from repro.serving.router import ClusterRouter, HashRing, bindings_fingerprint, stable_hash
from repro.structural.parameters import Bindings

WORKERS = [f"worker-{i}" for i in range(4)]


def request(model: str, request_id: int = 0, submitted: float = 60.0) -> PredictRequest:
    return PredictRequest(
        request_id=request_id, client_id="c0", model=model, submitted=submitted
    )


class TestHashing:
    def test_stable_hash_is_deterministic_and_64_bit(self):
        assert stable_hash("sor-1000") == stable_hash("sor-1000")
        assert 0 <= stable_hash("sor-1000") < 2**64
        assert stable_hash("sor-1000") != stable_hash("sor-1001")

    def test_bindings_fingerprint_separates_platforms(self):
        a = Bindings({"w": 2.0, "n": 600})
        b = Bindings({"w": 2.5, "n": 600})
        assert bindings_fingerprint(a) == bindings_fingerprint(Bindings({"w": 2.0, "n": 600}))
        assert bindings_fingerprint(a) != bindings_fingerprint(b)


class TestHashRing:
    def test_owners_are_distinct_and_capped(self):
        ring = HashRing(WORKERS, vnodes=32)
        owners = ring.owners("sor-1000", 3)
        assert len(owners) == len(set(owners)) == 3
        assert ring.owners("sor-1000", 10) == ring.owners("sor-1000", 4)

    def test_placement_is_deterministic(self):
        a = HashRing(WORKERS, vnodes=32)
        b = HashRing(list(reversed(WORKERS)), vnodes=32)
        for key in ("sor-600", "sor-1000", "sor-1600"):
            assert a.owners(key, 2) == b.owners(key, 2)

    def test_removing_a_node_only_moves_its_keys(self):
        full = HashRing(WORKERS, vnodes=64)
        reduced = HashRing(WORKERS[:-1], vnodes=64)
        keys = [f"shard-{i}" for i in range(200)]
        moved = sum(
            1
            for k in keys
            if full.owners(k, 1) != reduced.owners(k, 1)
            and full.owners(k, 1)[0] != WORKERS[-1]
        )
        # Keys not owned by the removed node overwhelmingly stay put.
        assert moved == 0

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(WORKERS, vnodes=0)


class TestClusterRouter:
    def test_primary_election_balances_load(self):
        router = ClusterRouter(WORKERS, replication=2, vnodes=64)
        for i in range(16):
            router.owners(f"shard-{i}")
        primaries = [len(router.shards_of(w, (f"shard-{i}" for i in range(16)))) for w in WORKERS]
        assert sum(primaries) == 16
        # A raw ring can put half the shards on one worker; balanced
        # election keeps the spread tight.
        assert max(primaries) - min(primaries) <= 2

    def test_route_prefers_the_primary(self):
        router = ClusterRouter(WORKERS, replication=2)
        owners = router.owners("shard-0")
        assert router.route("shard-0", set(WORKERS)) == (owners[0], False)

    def test_route_fails_over_in_owner_order(self):
        router = ClusterRouter(WORKERS, replication=3)
        owners = router.owners("shard-0")
        healthy = set(WORKERS) - {owners[0]}
        assert router.route("shard-0", healthy) == (owners[1], True)
        assert router.route("shard-0", healthy - {owners[1]}) == (owners[2], True)

    def test_route_with_no_healthy_owner(self):
        router = ClusterRouter(WORKERS, replication=2)
        owners = router.owners("shard-0")
        assert router.route("shard-0", set(WORKERS) - set(owners)) == (None, True)

    def test_replication_capped_at_worker_count(self):
        router = ClusterRouter(WORKERS[:2], replication=5)
        assert router.replication == 2
        assert len(router.owners("shard-0")) == 2

    def test_placement_lists_every_shard(self):
        router = ClusterRouter(WORKERS, replication=2)
        keys = [f"shard-{i}" for i in range(6)]
        placement = router.placement(keys)
        assert sorted(placement) == sorted(keys)
        assert all(len(owners) == 2 for owners in placement.values())


@pytest.fixture(scope="module")
def quiet_cluster():
    """A short-warmup 4-worker cluster, not yet driven."""
    cluster, _, _ = demo_cluster(
        duration=600.0,
        config=ClusterConfig(n_workers=4, replication=2),
        rng=3,
    )
    return cluster


class TestClusterSurface:
    def test_models_and_owners(self, quiet_cluster):
        assert quiet_cluster.models == ["sor-1000", "sor-1600", "sor-600"]
        for model in quiet_cluster.models:
            owners = quiet_cluster.owners(model)
            assert len(owners) == 2
            assert set(owners) <= set(quiet_cluster.workers)

    def test_duplicate_registration_rejected(self, quiet_cluster):
        spec = quiet_cluster.workers["worker-0"]._models["sor-600"]  # noqa: SLF001
        with pytest.raises(ValueError, match="already registered"):
            quiet_cluster.register_model(spec)

    def test_unknown_model_is_a_typed_error(self, quiet_cluster):
        resp = quiet_cluster.submit(request("sor-9999"))
        assert resp is not None and resp.status == "error"
        assert "sor-9999" in resp.message
        assert quiet_cluster.metrics.counter("errors_total").value >= 1

    def test_step_backwards_rejected(self, quiet_cluster):
        with pytest.raises(ValueError, match="backwards"):
            quiet_cluster.step(quiet_cluster.now - 1.0)


class TestClusterAdmission:
    def test_global_token_bucket_sheds_with_retry_advice(self):
        cluster, _, _ = demo_cluster(
            duration=300.0,
            config=ClusterConfig(n_workers=2, cluster_rate=0.5, cluster_burst=1.0),
            rng=3,
        )
        first = cluster.submit(request("sor-600", request_id=0))
        second = cluster.submit(request("sor-600", request_id=1))
        assert first is None  # admitted
        assert second is not None and second.status == "overloaded"
        assert second.reason == SHED_THROTTLED
        assert second.retry_after >= 0.0
        assert cluster.metrics.counter("shed_total").value == 1

    def test_all_owners_down_sheds_unavailable(self):
        faults = FaultPlan.crashes(
            {name: [(0.0, 10_000.0)] for name in (f"worker-{i}" for i in range(4))}
        )
        cluster, _, _ = demo_cluster(
            duration=300.0,
            config=ClusterConfig(n_workers=4, replication=2),
            faults=faults,
            rng=3,
        )
        assert cluster.healthy_workers == []
        resp = cluster.submit(request("sor-600"))
        assert resp is not None and resp.status == "overloaded"
        assert resp.reason == SHED_UNAVAILABLE
        assert resp.retry_after == float("inf")


class TestWorkerHooks:
    def test_drain_returns_queued_requests_and_empties_the_worker(self):
        server, _, _ = demo_server(duration=300.0, rng=3)
        for i in range(5):
            assert server.submit(request("sor-600", request_id=i)) is None
        assert server.queue_depth == 5
        dropped = server.drain()
        assert isinstance(dropped, RequestBatch)
        assert dropped.request_id.tolist() == [0, 1, 2, 3, 4]
        assert server.queue_depth == 0 and server.in_flight == 0
        assert server.step(server.now + 5.0) == []

    def test_drain_returns_served_undelivered_rows_in_admission_order(self):
        # Rows 0 and 2 share a model, so they are served together ahead
        # of row 1; their answers are still in service when the worker
        # is drained, and every row comes back in admission order.
        server, _, _ = demo_server(
            duration=300.0, config=ServerConfig(service_time_base=5.0), rng=3
        )
        t0 = server.now
        for rid, model in enumerate(("sor-600", "sor-1000", "sor-600")):
            assert server.submit(request(model, request_id=rid, submitted=t0)) is None
        assert server.step(t0 + 1.0) == []
        assert server.queue_depth == 1 and server.in_flight == 3
        dropped = server.drain()
        assert dropped.request_id.tolist() == [0, 1, 2]
        assert [r.model for r in dropped] == ["sor-600", "sor-1000", "sor-600"]
        assert server.in_flight == 0
        assert server.step(t0 + 30.0) == []

    def test_restart_jumps_the_clock_and_colds_the_cache(self):
        server, _, _ = demo_server(duration=300.0, rng=3)
        server.submit(request("sor-600"))
        server.step(server.now + 1.0)
        assert server.forecasts.stats()["entries"] > 0
        server.restart(server.now + 42.0)
        assert server.forecasts.stats()["entries"] == 0
        assert server.queue_depth == 0
        assert server.metrics.counter("restarts_total").value == 1

    def test_restart_cannot_go_backwards(self):
        server, _, _ = demo_server(duration=300.0, rng=3)
        with pytest.raises(ValueError):
            server.restart(server.now - 1.0)


class TestHistogramMerging:
    def test_merged_quantiles_are_exact_over_the_union(self):
        a, b = Histogram("latency_s"), Histogram("latency_s")
        for v in (0.010, 0.020, 0.030):
            a.observe(v)
        for v in (0.040, 0.050):
            b.observe(v)
        merged = Histogram.merged("latency_s", [a, b])
        assert merged.count == 5
        assert merged.quantile(0.5) == 0.030
        assert sorted(merged.values) == [0.010, 0.020, 0.030, 0.040, 0.050]

    def test_merged_rejects_mismatched_bounds(self):
        a = Histogram("x", bounds=(1.0, 2.0))
        b = Histogram("x", bounds=(1.0, 3.0))
        with pytest.raises(ValueError, match="differing bounds"):
            Histogram.merged("x", [a, b])

    def test_merging_nothing_is_empty(self):
        merged = Histogram.merged("x", [])
        assert merged.count == 0


class TestDrivenCluster:
    @pytest.fixture(scope="class")
    def driven(self):
        cluster, _, _ = demo_cluster(
            duration=600.0,
            config=ClusterConfig(n_workers=4, replication=2),
            rng=5,
        )
        driver = LoadDriver(
            cluster, cluster.models, ClosedLoop(clients=8), max_requests=200, rng=5
        )
        return cluster, driver.run()

    def test_healthy_drive_routes_to_primaries_only(self, driven):
        cluster, report = driven
        assert report.ok == 200 and report.errors == 0
        for resp in report.responses:
            assert resp.worker == cluster.owners(resp.model)[0]
            assert not resp.failover

    def test_snapshot_is_json_and_aggregates_exactly(self, driven):
        cluster, report = driven
        snap = cluster.snapshot()
        json.dumps(snap)  # must be serialisable as-is
        per_worker = sum(
            w["metrics"]["histograms"]["latency_s"].get("count", 0)
            for w in snap["workers"].values()
        )
        assert snap["aggregated"]["latency_s"]["count"] == per_worker == report.ok
        assert snap["cluster"]["counters"]["responses_ok"] == report.ok
        assert snap["cluster"]["gauges"]["workers_up"] == 4
        assert snap["in_flight"] == 0
        assert sorted(snap["shards"]) == sorted(cluster._shards.values())  # noqa: SLF001

    def test_drive_is_bit_reproducible(self, driven):
        _, report = driven
        cluster2, _, _ = demo_cluster(
            duration=600.0,
            config=ClusterConfig(n_workers=4, replication=2),
            rng=5,
        )
        driver2 = LoadDriver(
            cluster2, cluster2.models, ClosedLoop(clients=8), max_requests=200, rng=5
        )
        replay = driver2.run()
        assert [
            (r.request_id, r.client_id, r.worker, r.completed, r.quality)
            for r in replay.responses
        ] == [
            (r.request_id, r.client_id, r.worker, r.completed, r.quality)
            for r in report.responses
        ]
        assert [r.value for r in replay.responses] == [r.value for r in report.responses]


class TestRequeueOrder:
    """A crash re-routes a worker's unanswered rows in admission order,
    not served-first: rows A1, B1, A2 with A1 and A2 served together but
    undelivered reach the replica as A1, B1, A2."""

    def test_replica_receives_rows_in_admission_order(self):
        config = ClusterConfig(
            n_workers=2,
            replication=2,
            worker=ServerConfig(
                service_time_base=5.0, admission=AdmissionPolicy(max_queue=3)
            ),
        )
        probe, _, _ = demo_cluster(duration=300.0, config=config, rng=5)
        by_primary: dict = {}
        for m in probe.models:
            by_primary.setdefault(probe.owners(m)[0], []).append(m)
        victim = next(w for w, ms in by_primary.items() if len(ms) >= 2)
        (replica,) = set(probe.workers) - {victim}
        model_a, model_b = by_primary[victim][:2]
        model_c = by_primary[replica][0]
        crash = probe.now + 1.0
        tracer = Tracer()
        cluster, _, _ = demo_cluster(
            duration=300.0,
            config=config,
            faults=FaultPlan.crashes({victim: [(crash, 200.0)]}),
            rng=5,
            tracer=tracer,
        )
        t0 = cluster.now

        def submit(at, *rows):
            return cluster.submit_batch(
                RequestBatch.from_requests(
                    [
                        PredictRequest(request_id=rid, client_id=name, model=model, submitted=at)
                        for rid, model, name in rows
                    ]
                )
            )

        # The replica starts serving C1 while the victim serves A1+A2
        # together and queues B1; C2 then queues behind C1.
        rows = [(10, model_c, "C1"), (1, model_a, "A1"), (2, model_b, "B1"), (3, model_a, "A2")]
        assert len(submit(t0, *rows)) == 0
        assert cluster.step(t0 + 0.5) == []
        assert len(submit(t0 + 0.5, (11, model_c, "C2"))) == 0
        names = {rid: name for rid, _, name in rows}
        out = {r.request_id: r for r in cluster.step(t0 + 60.0)}
        assert len(out) == len(rows) + 1

        # The trace: the hops nested under the migration, in order.
        (migration,) = tracer.find(name="cluster.failover")
        hops = [
            names[sp.attrs["request_id"]]
            for sp in tracer.find(name="cluster.route", failover=True)
            if sp.parent_id == migration.span_id
        ]
        assert hops == ["A1", "B1", "A2"]
        # The answers: the replica's queue (bound 3, C2 already waiting)
        # takes A1 and B1 and sheds A2, the last row to arrive.
        assert out[3].status == "overloaded" and out[3].reason == SHED_QUEUE_FULL
        for rid in (1, 2):
            assert out[rid].status == "ok"
            assert out[rid].failover and out[rid].worker == replica


class TestInFlight:
    def test_snapshot_counts_the_workers_unanswered_rows(self):
        cluster, _, _ = demo_cluster(rng=5)
        t0 = cluster.now
        immediate = cluster.submit_batch(
            RequestBatch.from_requests(
                [
                    PredictRequest(
                        request_id=i,
                        client_id=f"c{i % 8}",
                        model=cluster.models[i % len(cluster.models)],
                        submitted=t0,
                    )
                    for i in range(2000)
                ]
            )
        )
        admitted = 2000 - len(immediate)
        assert admitted > 0
        snap = cluster.snapshot()
        assert snap["in_flight"] == cluster.queue_depth == admitted
        cluster.step(t0 + 0.01)  # some batches served, answers pending
        snap = cluster.snapshot()
        assert snap["in_flight"] > cluster.queue_depth
        cluster.step(t0 + 60.0)
        assert cluster.snapshot()["in_flight"] == 0
