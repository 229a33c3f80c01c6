"""Tests for the seeded load driver (open/closed loop) and its report."""

import math

import numpy as np

import pytest

from repro.faults import FaultPlan
from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    ClusterConfig,
    LoadDriver,
    OpenLoop,
    ResponseBatch,
    ServerConfig,
    demo_cluster,
    demo_server,
)


def make_server(**kw):
    server, _, _ = demo_server(rng=11, **kw)
    return server


class TestWorkloadConfigs:
    def test_open_loop_validation(self):
        with pytest.raises(ValueError):
            OpenLoop(rate=0.0)
        with pytest.raises(ValueError):
            OpenLoop(rate=10.0, clients=0)

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError):
            ClosedLoop(clients=0)
        with pytest.raises(ValueError):
            ClosedLoop(clients=1, think_time=-1.0)

    def test_driver_needs_a_bound(self):
        server = make_server()
        with pytest.raises(ValueError, match="bound the drive"):
            LoadDriver(server, server.models, ClosedLoop(clients=2))

    def test_driver_rejects_unknown_workload(self):
        server = make_server()
        with pytest.raises(TypeError):
            LoadDriver(server, server.models, "poisson", max_requests=5)


class TestClosedLoop:
    def test_every_request_answered(self):
        server = make_server()
        drv = LoadDriver(server, server.models, ClosedLoop(clients=4), max_requests=40, rng=2)
        rep = drv.run()
        assert rep.submitted == 40
        assert rep.ok + rep.shed + rep.errors == 40
        assert rep.errors == 0
        assert rep.ok > 0

    def test_one_in_flight_per_client(self):
        server = make_server()
        drv = LoadDriver(server, server.models, ClosedLoop(clients=3), max_requests=30, rng=2)
        rep = drv.run()
        # A client never has two outstanding requests: its responses'
        # completion times are non-decreasing and spaced by >= one
        # service interval.
        by_client = {}
        for r in rep.responses:
            by_client.setdefault(r.client_id, []).append(r.completed)
        assert set(by_client) == {"client-0", "client-1", "client-2"}
        for times in by_client.values():
            assert times == sorted(times)

    def test_latency_stats_populated(self):
        server = make_server()
        rep = LoadDriver(
            server, server.models, ClosedLoop(clients=4), max_requests=20, rng=2
        ).run()
        assert rep.latency_p50 > 0.0
        assert rep.latency_p99 >= rep.latency_p50
        assert rep.latency_max >= rep.latency_p99
        assert rep.qps_sim > 0.0 and rep.qps_wall > 0.0
        assert "throughput" in rep.summary()


class TestOpenLoop:
    def test_bounded_by_duration(self):
        server = make_server()
        drv = LoadDriver(
            server, server.models, OpenLoop(rate=20.0), duration=10.0, rng=4
        )
        rep = drv.run()
        # Poisson with rate 20 over 10 s: ~200 arrivals, all answered.
        assert 140 < rep.submitted < 280
        assert rep.ok + rep.shed + rep.errors == rep.submitted

    def test_overload_sheds_not_raises(self):
        cfg = ServerConfig(admission=AdmissionPolicy(max_queue=32))
        server = make_server(config=cfg)
        drv = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=5000.0, clients=8),
            max_requests=500,
            duration=5.0,
            rng=4,
        )
        rep = drv.run()
        assert rep.shed > 0
        assert rep.shed_reasons.get("queue_full", 0) > 0
        assert rep.errors == 0
        assert rep.ok + rep.shed == rep.submitted

    def test_deterministic_given_seed(self):
        def drive():
            server = make_server()
            rep = LoadDriver(
                server, server.models, OpenLoop(rate=50.0), duration=4.0, rng=13
            ).run()
            return [(r.request_id, r.status, r.completed) for r in rep.responses]

        assert drive() == drive()

    def test_different_seeds_differ(self):
        def drive(seed):
            server = make_server()
            rep = LoadDriver(
                server, server.models, OpenLoop(rate=50.0), duration=4.0, rng=seed
            ).run()
            return [(r.request_id, r.status, r.completed) for r in rep.responses]

        assert drive(1) != drive(2)


class TestThrottling:
    def test_token_bucket_limits_one_client(self):
        cfg = ServerConfig(
            admission=AdmissionPolicy(max_queue=1000, client_rate=2.0, client_burst=4.0)
        )
        server = make_server(config=cfg)
        drv = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=200.0, clients=1),  # one chatty client
            duration=5.0,
            rng=4,
        )
        rep = drv.run()
        assert rep.shed_reasons.get("throttled", 0) > 0
        # The bucket admits roughly burst + rate * duration requests.
        assert rep.ok <= 4 + 2.0 * (rep.sim_duration + 1.0)
        assert all(math.isfinite(r.completed) for r in rep.responses)


class TestColumnarDriver:
    """Soak-style drives: every answer stays a column, and the report
    proves delivery from one count over the request ids."""

    def test_every_request_answered_losslessly(self):
        server = make_server()
        rep = LoadDriver(
            server, server.models, OpenLoop(rate=200.0), max_requests=2000, tick=0.25, rng=3
        ).run()
        assert rep.submitted == 2000
        assert rep.ok + rep.shed + rep.errors == 2000
        assert rep.lost == 0 and rep.duplicates == 0
        assert isinstance(rep.responses, ResponseBatch) and len(rep.responses) == 2000
        assert sorted(rep.responses.request_id.tolist()) == list(range(2000))

    def test_deadlines_and_queue_bounds_shed(self):
        cfg = ServerConfig(admission=AdmissionPolicy(max_queue=32))
        server = make_server(config=cfg)
        rep = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=2000.0),  # far over capacity
            max_requests=3000,
            deadline=1.0,
            tick=0.25,
            rng=3,
        ).run()
        assert rep.shed > 0
        assert set(rep.shed_reasons) <= {"queue_full", "deadline", "throttled"}
        assert rep.lost == 0 and rep.duplicates == 0
        assert rep.ok + rep.shed == 3000

    def test_counts_come_from_the_answer_batches(self):
        """Counts and percentiles come from the answer batches the
        server returned; ``responses`` joins them once, on first read."""
        server = make_server(config=ServerConfig(admission=AdmissionPolicy(max_queue=32)))
        rep = LoadDriver(
            server,
            [*server.models, "unknown"],
            OpenLoop(rate=2000.0),
            max_requests=3000,
            deadline=1.0,
            tick=0.25,
            rng=3,
        ).run()
        assert len(rep.parts) > 1
        rb = rep.responses
        assert rep.parts == [rb] and rep.responses is rb
        assert rep.errors > 0 and rep.shed > 0
        assert (rep.ok, rep.shed, rep.errors) == tuple(rb.status_counts().values())
        assert rep.shed_reasons == rb.reason_counts()
        assert rep.qualities == rb.quality_counts()
        lat = np.sort(rb.latency[rb.ok_mask])
        assert (rep.latency_p50, rep.latency_max) == (lat[lat.size // 2], lat[-1])

    def test_seeded_runs_reproduce_and_seeds_differ(self):
        def drive(seed):
            server = make_server()
            rep = LoadDriver(
                server, server.models, OpenLoop(rate=100.0), duration=5.0, tick=0.25, rng=seed
            ).run()
            return (rep.submitted, rep.ok, rep.shed, rep.latency_p50, rep.latency_p99)

        assert drive(1) == drive(1)
        assert drive(1) != drive(2)

    def test_progress_marks_fire(self):
        server = make_server()
        marks = []
        LoadDriver(
            server,
            server.models,
            OpenLoop(rate=200.0),
            max_requests=1000,
            rng=3,
            progress=lambda answered, wall: marks.append(answered),
            progress_every=250,
        ).run()
        assert marks[-1] == 1000
        assert all(b >= a for a, b in zip(marks, marks[1:]))
        assert marks[0] >= 250

    def test_model_weights_skew_traffic(self):
        server = make_server()
        hot = server.models[0]
        drv = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=100.0),
            max_requests=400,
            rng=3,
            model_weights={hot: 1.0},
        )
        rep = drv.run()
        assert rep.ok == 400  # all answered, all on the hot model
        assert {r.model for r in rep.responses} == {hot}
        counters = server.metrics.snapshot()["counters"]
        assert counters["responses_ok"] == 400

    def test_validation(self):
        server = make_server()
        with pytest.raises(ValueError, match="bound the drive"):
            LoadDriver(server, server.models, OpenLoop(rate=10.0))
        with pytest.raises(ValueError):
            LoadDriver(server, server.models, OpenLoop(rate=10.0), max_requests=5, tick=0.0)
        with pytest.raises(ValueError, match="model_weights"):
            LoadDriver(
                server, server.models, OpenLoop(rate=10.0), max_requests=5,
                model_weights={"nope": 1.0},
            )
        with pytest.raises(ValueError, match="progress_every"):
            LoadDriver(
                server, server.models, OpenLoop(rate=10.0), max_requests=5, progress_every=0
            )

    def test_cluster_soak_is_lossless(self):
        worker = ServerConfig(
            n_samples=16, batch_max=512, admission=AdmissionPolicy(max_queue=8192)
        )
        cluster, _, _ = demo_cluster(config=ClusterConfig(worker=worker), rng=11)
        rep = LoadDriver(
            cluster, cluster.models, OpenLoop(rate=2500.0), max_requests=20_000, tick=0.25, rng=11
        ).run()
        assert rep.submitted == 20_000
        assert rep.lost == 0 and rep.duplicates == 0
        assert rep.errors == 0 and rep.shed == 0


class TestCrashingCluster:
    def test_closed_loop_is_lossless_through_a_crash(self):
        config = ClusterConfig(n_workers=4, replication=2, worker=ServerConfig(n_samples=32))
        probe, _, _ = demo_cluster(config=config, rng=11)
        victim = probe.owners(probe.models[0])[0]
        cluster, _, _ = demo_cluster(
            config=config, faults=FaultPlan.crashes({victim: [(60.2, 60.9)]}), rng=11
        )
        rep = LoadDriver(
            cluster, cluster.models, ClosedLoop(clients=24), max_requests=800, rng=11
        ).run()
        assert rep.submitted == 800
        assert rep.lost == 0 and rep.duplicates == 0
        assert rep.errors == 0
        assert cluster.metrics.snapshot()["counters"]["worker_crashes_total"] == 1
        assert any(r.ok and r.failover for r in rep.responses)
