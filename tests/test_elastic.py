"""Unit and chaos tests for elastic autoscaling.

Covers the pieces the scenario suite exercises only end to end: rate
schedules and their bit-reproducible arrival processes, the three
placement policies behind one interface, autoscaler control mechanics
(clamps, cooldown, the never-drain-against-provisioning guard), the
cluster's elastic membership operations, the crash-during-drain
exactly-once regression, and byte-identical seeded traces carrying
elastic decision spans with forecast provenance.
"""

import json
import math

import pytest

from repro.faults import FaultPlan
from repro.obs import Tracer, trace_to_dict
from repro.serving import (
    ClusterConfig,
    ConstantRate,
    DiurnalRate,
    ElasticConfig,
    FlashCrowdRate,
    ForecastAwarePolicy,
    LoadAdaptivePolicy,
    LoadDriver,
    OpenLoop,
    PiecewiseRate,
    ServerConfig,
    StaticPolicy,
    demo_cluster,
    policy_by_name,
    schedule_from_spec,
)
from repro.serving.elastic import ClusterSignals

FAST_WORKER = ServerConfig(service_time_base=0.002, service_time_per_request=0.0005)


def signals(**overrides) -> ClusterSignals:
    base = dict(
        t=10.0,
        arrival_rate=100.0,
        shed_rate=0.0,
        queue_depth=0,
        active=2,
        pending=0,
        capacity_per_worker=100.0,
        per_shard_rate={},
    )
    base.update(overrides)
    return ClusterSignals(**base)


class TestSchedules:
    def test_constant_is_flat(self):
        s = ConstantRate(rate=50.0)
        assert s.rate_at(0.0) == s.rate_at(1e6) == s.max_rate == 50.0

    def test_diurnal_peaks_and_troughs(self):
        s = DiurnalRate(base=100.0, amplitude=60.0, period=40.0)
        assert s.rate_at(10.0) == pytest.approx(160.0)  # quarter period: crest
        assert s.rate_at(30.0) == pytest.approx(40.0)  # three quarters: trough
        assert s.max_rate == 160.0

    def test_diurnal_trough_must_stay_positive(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalRate(base=50.0, amplitude=50.0, period=60.0)

    def test_flash_crowd_trapezoid(self):
        s = FlashCrowdRate(base=10.0, peak=110.0, start=5.0, rise=4.0, hold=6.0, fall=5.0)
        assert s.rate_at(0.0) == 10.0
        assert s.rate_at(7.0) == pytest.approx(60.0)  # halfway up the ramp
        assert s.rate_at(12.0) == 110.0  # holding
        assert s.rate_at(s.surge_end) == 10.0
        assert s.max_rate == 110.0

    def test_piecewise_steps_and_validation(self):
        s = PiecewiseRate(segments=((0.0, 10.0), (5.0, 40.0)))
        assert s.rate_at(4.9) == 10.0 and s.rate_at(5.0) == 40.0
        assert s.max_rate == 40.0
        with pytest.raises(ValueError, match="t=0"):
            PiecewiseRate(segments=((1.0, 10.0),))
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseRate(segments=((0.0, 10.0), (0.0, 20.0)))

    def test_spec_round_trip_and_errors(self):
        s = schedule_from_spec({"kind": "flash", "base": 10, "peak": 100,
                               "start": 5, "rise": 2, "hold": 3, "fall": 2})
        assert isinstance(s, FlashCrowdRate)
        with pytest.raises(ValueError, match="kind"):
            schedule_from_spec({"rate": 10})
        with pytest.raises(ValueError, match="unknown arrival kind"):
            schedule_from_spec({"kind": "sawtooth"})
        with pytest.raises(ValueError, match="does not accept"):
            schedule_from_spec({"kind": "constant", "rate": 10, "peak": 20})


class TestArrivalReproducibility:
    """Satellite: schedules must be bit-reproducible from a seed."""

    def make_driver(self, rate, seed):
        cluster, _, _ = demo_cluster(
            duration=300.0,
            sizes=(600,),
            config=ClusterConfig(n_workers=2, worker=FAST_WORKER),
            rng=3,
        )
        return LoadDriver(
            cluster, cluster.models, OpenLoop(rate, clients=4), duration=20.0, rng=seed
        )

    @pytest.mark.parametrize(
        "rate",
        [
            DiurnalRate(base=40.0, amplitude=20.0, period=10.0),
            FlashCrowdRate(base=10.0, peak=80.0, start=5.0, rise=2.0, hold=4.0, fall=2.0),
        ],
        ids=["diurnal", "flash"],
    )
    def test_thinned_arrivals_are_bit_identical(self, rate):
        a = self.make_driver(rate, seed=5)
        b = self.make_driver(rate, seed=5)
        ta, tb = a._arrival_times(60.0).tolist(), b._arrival_times(60.0).tolist()
        assert ta == tb and len(ta) > 50
        c = self.make_driver(rate, seed=6)
        assert c._arrival_times(60.0).tolist() != ta

    def test_constant_schedule_replays_plain_rate_draws(self):
        # ConstantRate goes through the thinning loop, so it is not
        # draw-for-draw identical to the plain-float path — but the
        # process itself must still be seed-stable.
        sched = self.make_driver(ConstantRate(rate=30.0), seed=9)
        again = self.make_driver(ConstantRate(rate=30.0), seed=9)
        assert sched._arrival_times(60.0).tolist() == again._arrival_times(60.0).tolist()

    def test_scheduled_drive_is_reproducible_end_to_end(self):
        rate = DiurnalRate(base=60.0, amplitude=30.0, period=10.0)
        runs = []
        for _ in range(2):
            driver = self.make_driver(rate, seed=7)
            report = driver.run()
            runs.append(
                [(r.client_id, r.request_id, r.completed, r.status) for r in report.responses]
            )
        assert runs[0] == runs[1] and len(runs[0]) > 100


class TestPolicies:
    def test_policy_by_name(self):
        assert isinstance(policy_by_name("static"), StaticPolicy)
        assert isinstance(policy_by_name("reactive"), LoadAdaptivePolicy)
        assert isinstance(policy_by_name("forecast"), ForecastAwarePolicy)
        with pytest.raises(ValueError, match="unknown policy"):
            policy_by_name("oracle")

    def test_static_votes_the_current_fleet(self):
        p = StaticPolicy()
        assert p.desired_workers(signals(active=3, pending=1, arrival_rate=1e6)) == 4

    def test_reactive_sizes_from_rate_and_backlog(self):
        p = LoadAdaptivePolicy(target_utilisation=0.5, backlog_drain_s=2.0)
        # 100 req/s at 50 usable req/s/worker -> 2 workers.
        assert p.desired_workers(signals(arrival_rate=100.0)) == 2
        # A backlog of 100 demands 50 req/s more -> 3 workers.
        assert p.desired_workers(signals(arrival_rate=100.0, queue_depth=100)) == 3

    def test_reactive_validation(self):
        with pytest.raises(ValueError, match="target_utilisation"):
            LoadAdaptivePolicy(target_utilisation=0.0)
        with pytest.raises(ValueError):
            LoadAdaptivePolicy(backlog_drain_s=0.0)

    def test_forecast_floors_at_measured_rate(self):
        p = ForecastAwarePolicy(lead_time=2.0)
        assert p.planning_rate(signals(arrival_rate=80.0)) == 80.0  # no observations yet
        for i, r in enumerate([50.0, 50.0, 50.0]):
            p.observe(signals(t=float(i), arrival_rate=r))
        # Forecast near 50 cannot talk the policy below the measured 80.
        assert p.planning_rate(signals(t=3.0, arrival_rate=80.0)) == 80.0

    def test_forecast_leads_a_rising_trend(self):
        p = ForecastAwarePolicy(lead_time=5.0, headroom=0.0)
        for i in range(12):
            p.observe(signals(t=float(i), arrival_rate=100.0 + 10.0 * i))
        last = 100.0 + 10.0 * 11
        planned = p.planning_rate(signals(t=12.0, arrival_rate=last))
        assert planned > last  # projected ahead of the newest measurement
        prov = p.provenance()
        assert prov["policy"] == "forecast"
        assert prov["planned_rate"] == planned
        assert "forecast_mean" in prov

    def test_forecast_snapshot_carries_shard_feeds(self):
        p = ForecastAwarePolicy()
        p.observe(signals(t=1.0, arrival_rate=10.0, per_shard_rate={"s1": 7.0, "s2": 3.0}))
        snap = p.snapshot()
        assert set(snap["shards"]) == {"s1", "s2"}


class TestElasticConfig:
    def test_validation(self):
        policy = StaticPolicy()
        with pytest.raises(TypeError, match="PlacementPolicy"):
            ElasticConfig(policy="reactive")
        with pytest.raises(ValueError, match="min_workers"):
            ElasticConfig(policy=policy, min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            ElasticConfig(policy=policy, min_workers=4, max_workers=2)
        with pytest.raises(ValueError):
            ElasticConfig(policy=policy, control_interval=0.0)


def elastic_cluster(policy="reactive", *, n_workers=2, faults=None, tracer=None,
                    seed=3, worker=FAST_WORKER, **elastic_kwargs):
    kwargs = dict(
        min_workers=1, max_workers=6, control_interval=1.0,
        provision_time=2.0, drain_grace=3.0, cooldown=5.0,
    )
    kwargs.update(elastic_kwargs)
    cluster, _, _ = demo_cluster(
        duration=600.0,
        sizes=(400, 600, 800, 1000, 1200, 1400),
        config=ClusterConfig(n_workers=n_workers, replication=2, worker=worker),
        faults=faults,
        rng=seed,
        tracer=tracer,
        elastic=ElasticConfig(policy=policy_by_name(policy), **kwargs),
    )
    return cluster


class TestAutoscaler:
    def test_control_times_are_interval_multiples(self):
        cluster = elastic_cluster(control_interval=0.5)
        assert cluster.autoscaler.control_times(60.0, 62.0) == [60.5, 61.0, 61.5, 62.0]
        assert cluster.autoscaler.control_times(60.0, 60.2) == []

    def test_scale_up_orders_and_commissions_workers(self):
        cluster = elastic_cluster()
        t = cluster.now
        cluster.order_worker(t)
        assert cluster.provisioning_count == 1
        assert "worker-2" not in cluster.workers
        cluster.step(t + 2.5)
        assert cluster.provisioning_count == 0
        assert "worker-2" in cluster.workers
        assert "worker-2" in cluster.router.workers
        snap = cluster.snapshot()
        assert snap["cluster"]["counters"]["scale_ups_total"] == 1

    def test_order_worker_requires_elastic(self):
        cluster, _, _ = demo_cluster(duration=120.0, sizes=(600,), rng=3)
        with pytest.raises(RuntimeError, match="ElasticConfig"):
            cluster.order_worker(cluster.now)
        assert cluster.snapshot()["elastic"] is None

    def test_never_drains_below_min_or_above_max(self):
        cluster = elastic_cluster("reactive", n_workers=2, min_workers=2, max_workers=3)
        # No traffic at all: the policy wants 1 worker, the floor says 2.
        cluster.step(cluster.now + 20.0)
        assert len(cluster.routable_workers) == 2
        timeline = cluster.autoscaler.timeline
        assert all(e["desired"] >= 2 for e in timeline)
        assert all(e["active"] + e["pending"] <= 3 for e in timeline)

    def test_scale_down_waits_for_cooldown(self):
        cluster = elastic_cluster("reactive", n_workers=4, min_workers=1, cooldown=10.0)
        cluster.step(cluster.now + 15.0)  # idle: policy wants 1 worker
        downs = [e["t"] for e in cluster.autoscaler.timeline if e["action"] == "scale_down"]
        assert len(downs) >= 2
        assert min(b - a for a, b in zip(downs, downs[1:])) >= 10.0

    def test_scale_down_never_fires_against_provisioning_capacity(self):
        # Regression: draining a live worker while replacements are
        # still provisioning collapses the ring exactly when the load
        # that prompted the order arrives.
        cluster = elastic_cluster("reactive", n_workers=2, min_workers=1, cooldown=0.0)
        t = cluster.now
        cluster.order_worker(t)  # a worker is pending for 2 s
        cluster.step(t + 1.0)  # idle control tick: desired=1 < current=3
        tick = cluster.autoscaler.timeline[-1]
        assert tick["pending"] == 1
        assert tick["action"] == "hold"
        cluster.step(t + 4.0)  # commissioned; pending==0 frees the drain
        assert any(e["action"] == "scale_down" for e in cluster.autoscaler.timeline)

    def test_static_policy_autoscaler_never_acts(self):
        cluster = elastic_cluster("static", n_workers=2, min_workers=1)
        driver = LoadDriver(
            cluster, cluster.models, OpenLoop(rate=200.0, clients=8), duration=8.0, rng=5
        )
        driver.run()
        assert all(e["action"] == "hold" for e in cluster.autoscaler.timeline)
        assert sorted(cluster.workers) == ["worker-0", "worker-1"]


class TestDrain:
    def test_drain_candidate_prefers_fewest_primaries_then_newest(self):
        cluster = elastic_cluster(n_workers=3)
        counts = cluster.router.primary_counts()
        victim = cluster.drain_candidate()
        low = min(counts.values())
        lightest = [n for n, c in counts.items() if c == low]
        assert victim == max(lightest, key=lambda n: int(n.rsplit("-", 1)[1]))

    def test_drain_candidate_never_empties_the_ring(self):
        cluster = elastic_cluster(n_workers=1)
        assert cluster.drain_candidate() is None

    def test_begin_drain_validation(self):
        cluster = elastic_cluster(n_workers=2)
        t = cluster.now
        with pytest.raises(ValueError, match="not a routable"):
            cluster.begin_drain("worker-9", t)
        cluster.begin_drain("worker-1", t)
        with pytest.raises(ValueError, match="not a routable"):
            cluster.begin_drain("worker-1", t)  # already off the ring

    def test_clean_drain_retires_without_migration(self):
        cluster = elastic_cluster(n_workers=2)
        t = cluster.now
        cluster.begin_drain("worker-1", t, grace=5.0)
        assert cluster.draining_workers == ["worker-1"]
        out = cluster.step(t + 1.0)  # empty queue: retires immediately
        assert out == []
        assert "worker-1" not in cluster.workers
        counters = cluster.snapshot()["cluster"]["counters"]
        assert counters["workers_retired_total"] == 1
        assert counters["requeued_total"] == 0


class DrainChaosHarness:
    """Fill one worker's queue, then drain (and maybe crash) it."""

    #: Slow enough that admitted work is still queued when chaos hits.
    SLOW = ServerConfig(service_time_base=0.5, service_time_per_request=0.1, batch_max=2)

    def build(self, faults=None):
        cluster, _, _ = demo_cluster(
            duration=600.0,
            sizes=(400, 600, 800, 1000, 1200, 1400),
            config=ClusterConfig(n_workers=3, replication=2, worker=self.SLOW),
            faults=faults,
            rng=3,
            elastic=ElasticConfig(
                policy=StaticPolicy(), min_workers=1, max_workers=6, drain_grace=3.0
            ),
        )
        return cluster

    def flood(self, cluster, victim: str, n: int = 24):
        """Submit ``n`` requests whose shard primaries are ``victim``."""
        from repro.serving.protocol import PredictRequest

        t = cluster.now
        owned = [m for m in cluster.models if cluster.owners(m)[0] == victim]
        assert owned, "victim owns no shards; pick a different seed"
        responses = []
        for i in range(n):
            r = cluster.submit(
                PredictRequest(
                    request_id=i, client_id="chaos", model=owned[i % len(owned)], submitted=t
                )
            )
            if r is not None:
                responses.append(r)
        return n, responses


class TestCrashDuringDrain(DrainChaosHarness):
    """Satellite regression: a worker that crashes *while draining* is
    migrated exactly once and never resurrected."""

    def test_exactly_once_and_no_resurrection(self):
        start = 60.0  # demo warmup
        faults = FaultPlan.crashes({"worker-0": [(start + 1.0, start + 5.0)]})
        cluster = self.build(faults=faults)
        submitted, responses = self.flood(cluster, "worker-0")
        cluster.begin_drain("worker-0", cluster.now, grace=10.0)

        # Crash hits at +1 s (inside the grace window), fault window
        # "ends" at +5 s — which must NOT restart the retired worker.
        responses += cluster.step(start + 30.0)

        assert "worker-0" not in cluster.workers  # retired, not restarted
        assert "worker-0" not in cluster.router.workers
        assert cluster.draining_workers == []

        # Zero lost, zero duplicated.
        assert len(responses) == submitted
        ids = [(r.client_id, r.request_id) for r in responses]
        assert len(set(ids)) == len(ids)
        assert all(r.status in ("ok", "overloaded") for r in responses)
        # Every migrated answer is tagged and degraded, never fresh.
        for r in responses:
            if r.status == "ok" and r.failover:
                assert r.quality != "fresh"

        counters = cluster.snapshot()["cluster"]["counters"]
        assert counters["worker_crashes_total"] == 1
        assert counters["worker_recoveries_total"] == 0  # no ghost revival
        assert counters["workers_retired_total"] == 1

    def test_forced_drain_migrates_remainder_exactly_once(self):
        cluster = self.build()
        submitted, responses = self.flood(cluster, "worker-0")
        cluster.begin_drain("worker-0", cluster.now, grace=0.5)
        responses += cluster.step(cluster.now + 30.0)
        assert len(responses) == submitted
        ids = [(r.client_id, r.request_id) for r in responses]
        assert len(set(ids)) == len(ids)
        counters = cluster.snapshot()["cluster"]["counters"]
        assert counters["workers_retired_total"] == 1
        assert counters["requeued_total"] > 0  # the deadline actually forced moves


class TestElasticTracing:
    """Satellite: seeded elastic runs export byte-identical traces whose
    decision spans carry forecast provenance."""

    def traced_run(self):
        tracer = Tracer()
        # Service-bound workers (~133 req/s each) so the 400 req/s peak
        # genuinely forces scale-ups.
        cluster = elastic_cluster(
            "forecast",
            n_workers=2,
            min_workers=1,
            tracer=tracer,
            cooldown=2.0,
            worker=ServerConfig(
                service_time_base=0.02, service_time_per_request=0.005, batch_max=8
            ),
        )
        LoadDriver(
            cluster,
            cluster.models,
            OpenLoop(
                FlashCrowdRate(base=20.0, peak=400.0, start=2.0, rise=2.0, hold=4.0, fall=2.0),
                clients=8,
            ),
            duration=12.0,
            deadline=5.0,
            rng=5,
        ).run()
        return tracer, cluster

    def test_exports_are_bit_identical_and_carry_provenance(self):
        tracer, cluster = self.traced_run()
        replay, _ = self.traced_run()
        assert json.dumps(trace_to_dict(tracer), sort_keys=True) == json.dumps(
            trace_to_dict(replay), sort_keys=True
        )

        spans = [s for s in trace_to_dict(tracer)["spans"] if s["stage"] == "elastic"]
        names = {s["name"] for s in spans}
        assert "elastic.decision" in names and "elastic.scale_up" in names
        assert "elastic.rebalance" in names and "elastic.retire" in names
        ups = [
            s for s in spans
            if s["name"] == "elastic.decision" and s["attrs"]["action"] == "scale_up"
        ]
        assert ups, "the flash crowd must force at least one scale-up decision"
        for span in ups:
            attrs = span["attrs"]
            assert attrs["policy"] == "forecast"
            assert "forecast_mean" in attrs and "planned_rate" in attrs
        # The fleet actually breathed under the surge.
        assert cluster.snapshot()["cluster"]["counters"]["scale_ups_total"] >= 1


class TestDisabledPathDeterminism:
    def test_elastic_none_is_seed_stable(self):
        runs = []
        for _ in range(2):
            cluster, _, _ = demo_cluster(
                duration=300.0,
                sizes=(600, 1000),
                config=ClusterConfig(n_workers=2, worker=FAST_WORKER),
                rng=3,
            )
            report = LoadDriver(
                cluster, cluster.models, OpenLoop(rate=80.0, clients=4),
                duration=10.0, rng=5,
            ).run()
            runs.append(
                [(r.client_id, r.request_id, r.completed, r.status, getattr(r, "value", None))
                 for r in report.responses]
            )
        assert runs[0] == runs[1]
