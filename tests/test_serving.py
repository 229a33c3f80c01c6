"""Unit tests for the serving subsystem: protocol, metrics, admission,
forecast cache and the prediction server's event loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib.sketch import DEFAULT_SKETCH_ALPHA
from repro.core.stochastic import StochasticValue
from repro.nws.service import DegradationPolicy, NetworkWeatherService
from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    ForecastCache,
    Histogram,
    LoadDriver,
    MetricsRegistry,
    ModelSpec,
    OverloadedResponse,
    PredictRequest,
    PredictionServer,
    ServerConfig,
    TokenBucket,
    demo_server,
)
from repro.serving.admission import SPEND_EPS
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_THROTTLED,
    ErrorResponse,
    PredictResponse,
)
from repro.structural.engine import clear_plan_cache, plan_cache_stats
from repro.structural.expr import Param
from repro.structural.parameters import Bindings
from repro.workload.traces import Trace


def _nearest_rank(got: float, values, q: float) -> bool:
    """A histogram quantile's contract: the nearest-rank order statistic
    of ``values`` (``np.quantile``'s ``"nearest"``), an infinite one
    exactly and a finite one within the sketch's relative error."""
    exact = float(np.quantile(values, q, method="nearest"))
    if math.isinf(exact):
        return got == exact
    return abs(got - exact) <= DEFAULT_SKETCH_ALPHA * abs(exact) + 1e-12


def _request(i=0, client="c0", model="m", submitted=0.0, **kw):
    return PredictRequest(
        request_id=i, client_id=client, model=model, submitted=submitted, **kw
    )


def tiny_server(*, config=None, degradation=True):
    """A minimal one-resource server: model `m` = load * 10."""
    nws = NetworkWeatherService(
        degradation=DegradationPolicy(prior=StochasticValue(0.5, 0.4)) if degradation else None
    )
    nws.register("cpu:a", Trace.constant(0.5))
    nws.advance_to(60.0)
    server = PredictionServer(nws, config=config, rng=3)
    bindings = Bindings({"scale": 10.0})
    bindings.bind_runtime("load", StochasticValue(0.5, 0.1))
    spec = ModelSpec(
        name="m",
        expression=Param("scale") * Param("load"),
        bindings=bindings,
        resources={"load": "cpu:a"},
    )
    server.register_model(spec)
    return server


class TestProtocol:
    def test_deadline_before_submission_rejected(self):
        with pytest.raises(ValueError):
            _request(submitted=10.0, deadline=5.0)

    def test_response_statuses(self):
        ok = PredictResponse(request_id=1, client_id="c", completed=1.0)
        shed = OverloadedResponse(request_id=2, client_id="c", completed=1.0)
        err = ErrorResponse(request_id=3, client_id="c", completed=1.0, message="x")
        assert ok.ok and ok.status == "ok"
        assert not shed.ok and shed.status == "overloaded"
        assert not err.ok and err.status == "error"

    def test_bad_quality_rejected(self):
        with pytest.raises(ValueError):
            PredictResponse(request_id=1, client_id="c", completed=1.0, quality="great")

    def test_bad_shed_reason_rejected(self):
        with pytest.raises(ValueError):
            OverloadedResponse(request_id=1, client_id="c", completed=1.0, reason="tired")


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_name_collision_across_types_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_exact_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (1.0, 10.0))
        for v in [0.5, 2.0, 3.0, 20.0]:
            h.observe(v)
        s = h.stats()
        assert s["count"] == 4
        assert s["buckets"]["le_1"] == 1
        assert s["buckets"]["le_10"] == 2
        assert s["buckets"]["overflow"] == 1
        assert s["max"] == 20.0

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.5)
        reg.histogram("c").observe(float("inf"))
        payload = json.loads(reg.to_json())
        assert payload["counters"]["a"] == 1.0
        assert payload["gauges"]["b"] == 2.5
        assert payload["histograms"]["c"]["count"] == 1

    def test_histogram_refetch_with_different_bounds_rejected(self):
        # Regression: histogram(name, other_bounds) silently returned
        # the existing histogram, letting two call sites disagree about
        # the bucket layout of one shared metric.
        reg = MetricsRegistry()
        reg.histogram("lat", (1.0, 10.0))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("lat", (1.0, 5.0))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("lat")  # default bounds differ too
        # Same bounds re-fetch the same object (int/float-equal counts).
        assert reg.histogram("lat", (1, 10)) is reg.histogram("lat", (1.0, 10.0))

    def test_histogram_rejects_nan(self):
        # Regression: one NaN observation made min/max/quantiles NaN and
        # fell outside every bucket, so counts stopped summing to count.
        h = MetricsRegistry().histogram("lat", (1.0, 10.0))
        with pytest.raises(ValueError, match="NaN"):
            h.observe(float("nan"))
        assert h.count == 0

    def test_histogram_inf_stays_consistent(self):
        h = MetricsRegistry().histogram("lat", (1.0, 10.0))
        for v in (0.5, 2.0, float("inf")):
            h.observe(v)
        s = h.stats()
        assert s["count"] == 3
        assert sum(s["buckets"].values()) == s["count"]
        assert s["buckets"]["overflow"] == 1
        assert s["min"] == 0.5 and s["max"] == float("inf")
        assert math.isfinite(s["mean"])  # mean over finite observations
        # The nearest-rank observation within alpha, inf-safe.
        assert _nearest_rank(s["p50"], [0.5, 2.0, float("inf")], 0.5)
        assert h.quantile(0.5) == s["p50"]
        assert h.quantile(1.0) == float("inf")

    def test_merged_histogram_with_inf_stays_consistent(self):
        a = Histogram("lat", (1.0, 10.0))
        b = Histogram("lat", (1.0, 10.0))
        a.observe(0.5)
        a.observe(float("inf"))
        b.observe(3.0)
        merged = Histogram.merged("lat", [a, b])
        s = merged.stats()
        assert s["count"] == 3
        assert sum(s["buckets"].values()) == 3
        assert _nearest_rank(s["p50"], [0.5, 3.0, float("inf")], 0.5)
        assert merged.quantile(0.9) == float("inf")
        with pytest.raises(ValueError, match="NaN"):
            merged.observe(float("nan"))

    def test_chunked_store_matches_a_flat_list(self):
        # Single and batched observations interleave across the pending
        # buffer's fold size; the stats equal those of one flat array of
        # the same floats (quantiles within alpha, the mean up to
        # summation order).
        rng = np.random.default_rng(0)
        h = Histogram("lat", (0.1, 1.0))
        flat = []
        for k in range(6):
            batch = rng.exponential(0.3, size=400 * k)
            h.observe_many(batch)
            flat.extend(batch.tolist())
            for v in rng.exponential(0.3, size=700):
                h.observe(v)
                flat.append(float(v))
        # The observed batch is copied: mutating it changes nothing.
        batch[:] = -1.0
        assert h.count == len(flat)
        arr = np.asarray(flat)
        s = h.stats()
        assert s["mean"] == pytest.approx(float(np.mean(arr)), rel=1e-12)
        assert (s["min"], s["max"]) == (float(arr.min()), float(arr.max()))
        for q in (0.5, 0.9, 0.99):
            assert _nearest_rank(h.quantile(q), arr, q)
        half = Histogram("lat", (0.1, 1.0))
        half.observe_many(arr[:1000])
        rest = Histogram("lat", (0.1, 1.0))
        rest.observe_many(arr[1000:])
        merged = Histogram.merged("lat", [half, rest]).stats()
        assert merged.pop("mean") == pytest.approx(s.pop("mean"), rel=1e-12)
        assert merged == s

    @given(
        st.lists(
            st.one_of(st.floats(-1e4, 1e4), st.sampled_from([-math.inf, math.inf])),
            min_size=1,
            max_size=80,
        ),
        st.lists(st.integers(0, 80), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_of_any_split_equals_the_union(self, values, cuts):
        # Each part through observe_many, the union one value at a time.
        bounds = (-1.0, 0.1, 1.0, 10.0)
        parts = []
        for part in np.split(np.asarray(values), sorted(cuts)):
            parts.append(Histogram("lat", bounds))
            parts[-1].observe_many(part)
        merged = Histogram.merged("lat", parts)
        union = Histogram("lat", bounds)
        for v in values:
            union.observe(v)
        got, want = merged.stats(), union.stats()
        assert got.pop("mean") == pytest.approx(want.pop("mean"), rel=1e-9, abs=1e-9)
        assert got == want  # count, min, max, buckets, p50/p90/p99
        edges = [-math.inf, *bounds, math.inf]
        assert list(got["buckets"].values()) == np.histogram(values, edges)[0].tolist()
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == union.quantile(q)
            assert _nearest_rank(merged.quantile(q), values, q)


class TestAdmission:
    def test_token_bucket_spends_and_refills(self):
        b = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert b.allow(0.0) and b.allow(0.0)
        assert not b.allow(0.0)
        assert b.allow(2.0)  # refilled

    def test_bucket_caps_at_burst(self):
        b = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert b.tokens(100.0) == 2.0

    def test_bucket_exact_at_rate_boundary_cadence(self):
        # Float-drift regression: a client submitting at *exactly* its
        # allowed rate must never be shed.  The old implementation
        # accumulated `tokens += rate * dt` per call, so cadences whose
        # step is not exactly representable (1/3 s here) under-refilled
        # by ulps — e.g. 3 * (1/3) == 0.9999999999999998 < 1 — and
        # spuriously throttled the well-behaved client.
        b = TokenBucket(rate=3.0, burst=1.0, now=0.0)
        step = 1.0 / 3.0
        for k in range(1, 1000):
            assert b.allow(k * step), f"shed at cadence step {k}"

    def test_bucket_denied_poll_does_not_drift(self):
        # A denied request must leave the bucket state untouched, so
        # rapid polling between grants cannot erode the refill.
        b = TokenBucket(rate=1.0, burst=1.0, now=0.0)
        assert b.allow(0.0)
        for i in range(100):
            assert not b.allow(0.5 + i * 1e-3)
        assert b.allow(1.0)  # exactly one second after the spend

    def test_allow_many_matches_one_spend_per_instant(self):
        # Reference: the per-call arithmetic, spelt out with the pure
        # tokens() read — grants and the state left behind must agree,
        # across consecutive calls too.
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.exponential(0.05, size=400))
        times[::7] = times[::7] - 0.2  # stale instants behind the anchor
        bucket = TokenBucket(rate=12.0, burst=4.0, now=0.0)
        ref = TokenBucket(rate=12.0, burst=4.0, now=0.0)
        expected = []
        for now in times.tolist():
            avail = ref.tokens(now)
            ok = avail >= 1.0 - SPEND_EPS
            if ok:
                ref._tokens, ref._anchor = max(0.0, avail - 1.0), max(ref._anchor, now)
            expected.append(ok)
        granted = np.concatenate([bucket.allow_many(times[:150]), bucket.allow_many(times[150:])])
        assert granted.tolist() == expected
        assert 0 < sum(expected) < len(expected)
        assert (bucket._tokens, bucket._anchor) == (ref._tokens, ref._anchor)

    def test_queue_full_shed(self):
        server = tiny_server(
            config=ServerConfig(admission=AdmissionPolicy(max_queue=2))
        )
        assert server.submit(_request(0)) is None
        assert server.submit(_request(1)) is None
        resp = server.submit(_request(2))
        assert isinstance(resp, OverloadedResponse) and resp.reason == SHED_QUEUE_FULL
        assert resp.retry_after > 0.0

    def test_per_client_throttle(self):
        server = tiny_server(
            config=ServerConfig(
                admission=AdmissionPolicy(max_queue=100, client_rate=0.1, client_burst=2.0)
            )
        )
        assert server.submit(_request(0, submitted=60.0)) is None
        assert server.submit(_request(1, submitted=60.0)) is None
        resp = server.submit(_request(2, submitted=60.0))
        assert isinstance(resp, OverloadedResponse) and resp.reason == SHED_THROTTLED
        # A different client is not throttled.
        assert server.submit(_request(3, client="c1", submitted=60.0)) is None

    def test_deadline_shedding(self):
        # The first request occupies the server past the second's
        # deadline; the second is shed at dequeue time, not evaluated.
        server = tiny_server(config=ServerConfig(batch_max=1, service_time_base=5.0))
        assert server.submit(_request(0, submitted=60.0)) is None
        assert server.submit(_request(1, client="c1", submitted=60.0, deadline=62.0)) is None
        out = server.step(90.0)
        assert len(out) == 2
        assert out[0].ok
        assert isinstance(out[1], OverloadedResponse) and out[1].reason == SHED_DEADLINE
        assert server.metrics.counter("shed_deadline").value == 1.0


class TestForecastCache:
    def make(self):
        nws = NetworkWeatherService(
            degradation=DegradationPolicy(prior=StochasticValue(0.5, 0.4))
        )
        nws.register("cpu:a", Trace.constant(0.5))
        return ForecastCache(nws, refresh_interval=5.0)

    def test_reuses_young_forecast(self):
        cache = self.make()
        cache.ingest_to(60.0)
        a = cache.get("cpu:a", 60.0)
        b = cache.get("cpu:a", 62.0)
        assert a is b
        assert cache.stats()["hits"] == 1

    def test_refreshes_old_forecast(self):
        cache = self.make()
        cache.ingest_to(60.0)
        cache.get("cpu:a", 60.0)
        cache.get("cpu:a", 66.0)
        assert cache.stats()["refreshes"] == 2

    def test_new_telemetry_invalidates(self):
        cache = self.make()
        cache.ingest_to(60.0)
        cache.get("cpu:a", 60.0)
        invalidated = cache.ingest_to(70.0)  # two new 5 s samples land
        assert invalidated == 1
        cache.get("cpu:a", 61.0)
        assert cache.stats()["refreshes"] == 2


class TestServerConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_samples": 400.5}, "n_samples must be an integer"),
            ({"n_samples": 400.0}, "n_samples must be an integer"),
            ({"n_samples": 1}, "n_samples must be >= 2"),
            ({"batch_max": 8.5}, "batch_max must be an integer"),
            ({"batch_max": True}, "batch_max must be an integer"),
            ({"batch_max": 0}, "batch_max must be >= 1"),
        ],
    )
    def test_sizes_are_integers_checked_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize("max_queue", [8.5, 0])
    def test_queue_bound_is_an_integer_checked_at_construction(self, max_queue):
        with pytest.raises(ValueError, match="max_queue must be"):
            AdmissionPolicy(max_queue=max_queue)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = ServerConfig(n_samples=np.int64(400), batch_max=np.int32(8))
        assert cfg.n_samples == 400 and cfg.batch_max == 8


class TestServer:
    def test_single_request_round_trip(self):
        server = tiny_server()
        assert server.submit(_request(0, submitted=60.0)) is None
        out = server.step(61.0)
        assert len(out) == 1
        r = out[0]
        assert r.ok and r.request_id == 0 and r.quality == "fresh"
        # load ~0.5 with small forecast error: prediction near 5.0
        assert r.value.mean == pytest.approx(5.0, rel=0.1)
        assert r.latency > 0.0

    def test_unknown_model_is_typed_error(self):
        server = tiny_server()
        resp = server.submit(_request(0, model="nope", submitted=60.0))
        assert isinstance(resp, ErrorResponse) and "unknown model" in resp.message

    def test_unknown_override_is_typed_error(self):
        server = tiny_server()
        resp = server.submit(_request(0, submitted=60.0, overrides={"zz": 1.0}))
        assert isinstance(resp, ErrorResponse) and "zz" in resp.message

    def test_override_pins_parameter(self):
        server = tiny_server()
        server.submit(_request(0, submitted=60.0, overrides={"load": 1.0}))
        (r,) = server.step(61.0)
        assert r.value.mean == pytest.approx(10.0, rel=1e-6)
        assert r.value.spread == pytest.approx(0.0, abs=1e-9)

    def test_batching_answers_concurrent_requests_together(self):
        server = tiny_server()
        for i in range(10):
            assert server.submit(_request(i, client=f"c{i}", submitted=60.0)) is None
        out = server.step(61.0)
        assert len(out) == 10
        assert all(r.ok and r.batch_size == 10 for r in out)
        assert server.metrics.counter("batches_total").value == 1.0

    def test_step_backwards_rejected(self):
        server = tiny_server()
        server.step(70.0)
        with pytest.raises(ValueError):
            server.step(60.0)

    def test_busy_time_creates_backpressure(self):
        cfg = ServerConfig(
            batch_max=4, service_time_base=1.0, service_time_per_request=0.1
        )
        server = tiny_server(config=cfg)
        for i in range(8):
            server.submit(_request(i, client=f"c{i}", submitted=60.0))
        # The first batch (1.4 s) completes by t=61.5; the second starts
        # at 61.4, completes at 62.8 and is delivered by the later step.
        first = server.step(61.5)
        assert len(first) == 4
        rest = server.step(100.0)
        assert len(rest) == 4
        assert rest[0].latency > first[0].latency

    def test_quality_tag_degrades_with_stale_telemetry(self):
        from repro.faults.plan import FaultPlan, Outage

        nws = NetworkWeatherService(
            degradation=DegradationPolicy(
                staleness_threshold=10.0, fallback_after=1e6,
                prior=StochasticValue(0.5, 0.4),
            ),
            faults=FaultPlan(sensor_dropouts={"cpu:a": (Outage(95.0, 1e6),)}),
        )
        nws.register("cpu:a", Trace.constant(0.5))
        nws.advance_to(60.0)
        server = PredictionServer(nws, rng=3)
        b = Bindings({"scale": 10.0})
        b.bind_runtime("load", StochasticValue(0.5, 0.1))
        server.register_model(
            ModelSpec(
                name="m",
                expression=Param("scale") * Param("load"),
                bindings=b,
                resources={"load": "cpu:a"},
            )
        )
        server.step(90.0)
        server.submit(_request(0, submitted=90.0))
        (fresh,) = server.step(91.0)
        assert fresh.quality == "fresh"
        # Past the trace end the sensor goes silent; forecasts go stale.
        server.step(300.0)
        server.submit(_request(1, submitted=300.0))
        (stale,) = server.step(301.0)
        assert stale.quality == "stale"
        assert stale.staleness > 10.0
        assert stale.value.spread > fresh.value.spread

    def test_snapshot_json_round_trip(self):
        server = tiny_server()
        server.submit(_request(0, submitted=60.0))
        server.step(61.0)
        snap = server.snapshot()
        payload = json.loads(json.dumps(snap))
        assert payload["metrics"]["counters"]["responses_ok"] == 1.0
        assert "plan_cache" in payload and "forecast_cache" in payload

    def test_duplicate_model_rejected(self):
        server = tiny_server()
        with pytest.raises(ValueError, match="already registered"):
            server.register_model(
                ModelSpec(
                    name="m",
                    expression=Param("x"),
                    bindings=Bindings({"x": 1.0}),
                )
            )

    def test_model_with_unknown_resource_rejected(self):
        server = tiny_server()
        b = Bindings()
        b.bind_runtime("load", 0.5)
        with pytest.raises(ValueError, match="unregistered NWS resources"):
            server.register_model(
                ModelSpec(
                    name="m2",
                    expression=Param("load"),
                    bindings=b,
                    resources={"load": "cpu:nope"},
                )
            )

    def test_resources_must_be_runtime_params(self):
        with pytest.raises(ValueError, match="non-runtime"):
            ModelSpec(
                name="m",
                expression=Param("x"),
                bindings=Bindings({"x": 1.0}),
                resources={"x": "cpu:a"},
            )


class TestDemoServing:
    def test_models_share_one_compiled_plan(self):
        clear_plan_cache()
        server, _, _ = demo_server(rng=11)
        drv = LoadDriver(server, server.models, ClosedLoop(clients=6), max_requests=30, rng=5)
        rep = drv.run()
        assert rep.ok == 30 and rep.errors == 0
        stats = plan_cache_stats()
        assert stats["misses"] == 1  # one expression, three models
        assert stats["hits"] >= 1
        assert stats["evictions"] == 0

    def test_deterministic_given_seed(self):
        def drive():
            server, _, _ = demo_server(rng=11)
            drv = LoadDriver(
                server, server.models, ClosedLoop(clients=4), max_requests=24, rng=9
            )
            rep = drv.run()
            return [
                (r.request_id, r.status, getattr(r, "value", None)) for r in rep.responses
            ]

        a, b = drive(), drive()
        assert a == b

    def test_predictions_track_direct_evaluation(self):
        server, plat, nws = demo_server(rng=11)
        server.submit(_request(0, model="sor-1000", submitted=60.0))
        (r,) = server.step(61.0)
        assert r.ok
        assert math.isfinite(r.value.mean) and r.value.mean > 0
        assert r.p95 > r.value.mean
