"""Tests for per-request precision targets in the serving stack."""

from collections import Counter

import numpy as np
import pytest

import repro.serving.server as server_module
from repro.calib.loop import CalibrationConfig
from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionController,
    AdmissionPolicy,
    ClosedLoop,
    ClusterConfig,
    LoadDriver,
    PrecisionBlock,
    PrecisionInfo,
    RequestBatch,
    ServerConfig,
    demo_cluster,
    demo_server,
)
from repro.serving.protocol import DEGRADED_QUEUE_PRESSURE, PredictRequest
from repro.structural.repeaters import (
    AdaptiveOutcome,
    ChunkRecord,
    PrecisionTarget,
    RuleVote,
)

TARGET = PrecisionTarget.parse("p95:2%", min_samples=64)


def _submit(server, n, *, precision=None, model="sor-1000", t=60.0, client="c"):
    for i in range(n):
        resp = server.submit(
            PredictRequest(
                request_id=i,
                client_id=client if isinstance(client, str) else client(i),
                model=model,
                submitted=t,
                precision=precision,
            )
        )
        assert resp is None, resp


class TestPrecisionProtocol:
    def test_request_rejects_non_target_precision(self):
        with pytest.raises(TypeError):
            PredictRequest(
                request_id=0, client_id="c", model="m", submitted=0.0, precision="p95:2%"
            )

    def test_degraded_info_requires_factor_and_reason(self):
        with pytest.raises(ValueError):
            PrecisionInfo(degraded=True, shed_factor=1.0, reason="x")
        with pytest.raises(ValueError):
            PrecisionInfo(degraded=True, shed_factor=2.0, reason="")
        info = PrecisionInfo(
            draws=100, budget=400, degraded=True, shed_factor=2.0, reason="queue_pressure"
        )
        assert info.saved_fraction == pytest.approx(0.75)
        assert info.to_dict()["reason"] == "queue_pressure"

    def test_degraded_block_requires_factor_and_reason(self):
        # The batch-level block enforces the never-silent rule when the
        # batch is served, not when a row is read.
        codes = np.zeros(1, np.intp)
        with pytest.raises(ValueError, match="shed_factor > 1"):
            PrecisionBlock([TARGET], codes, None, degraded=True, shed_factor=1.0, reason="x")
        with pytest.raises(ValueError, match="never silent"):
            PrecisionBlock([TARGET], codes, None, degraded=True, shed_factor=2.0, reason="")


class TestPrecisionLadder:
    def test_policy_validates_ladder(self):
        AdmissionPolicy(precision_ladder=DEFAULT_PRECISION_LADDER)  # ok
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((0.5, 2.0), (0.4, 4.0)))
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((0.5, 2.0), (0.75, 2.0)))
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((1.5, 2.0),))
        # An infinite factor would loosen a tolerance past what a
        # PrecisionTarget accepts, so it fails here, not while serving.
        with pytest.raises(ValueError, match="ladder factor must be finite"):
            AdmissionPolicy(precision_ladder=((0.5, 2.0), (0.9, float("inf"))))

    def test_factor_steps_with_queue_depth(self):
        ctl = AdmissionController(
            AdmissionPolicy(max_queue=100, precision_ladder=DEFAULT_PRECISION_LADDER)
        )
        assert ctl.precision_factor(0) == 1.0
        assert ctl.precision_factor(49) == 1.0
        assert ctl.precision_factor(50) == 2.0
        assert ctl.precision_factor(75) == 4.0
        assert ctl.precision_factor(95) == 8.0

    def test_no_ladder_means_no_degradation(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue=10))
        assert ctl.precision_factor(10) == 1.0


class TestAdaptiveServer:
    def test_adaptive_response_carries_precision_info(self):
        server, _, _ = demo_server(duration=300.0)
        _submit(server, 4, precision=TARGET)
        out = server.step(70.0)
        assert len(out) == 4
        for resp in out:
            info = resp.precision
            assert info is not None
            assert 0 < info.draws <= info.budget == server.config.n_samples
            assert info.requested == info.effective == TARGET.describe()
            assert not info.degraded and info.reason == ""

    def test_fixed_requests_have_no_precision_block(self):
        server, _, _ = demo_server(duration=300.0)
        _submit(server, 4)
        assert all(r.precision is None for r in server.step(70.0))

    def test_mixed_batch_serves_both_kinds(self):
        server, _, _ = demo_server(duration=300.0)
        for i in range(4):
            server.submit(
                PredictRequest(
                    request_id=i,
                    client_id="c",
                    model="sor-1000",
                    submitted=60.0,
                    precision=TARGET if i % 2 == 0 else None,
                )
            )
        out = sorted(server.step(70.0), key=lambda r: r.request_id)
        assert [r.precision is not None for r in out] == [True, False, True, False]
        # Fixed riders in an adaptive batch still get full-budget clouds.
        assert all(r.ok for r in out)

    def test_server_default_target_applies_to_bare_requests(self):
        server, _, _ = demo_server(
            duration=300.0, config=ServerConfig(precision=TARGET)
        )
        _submit(server, 2)
        out = server.step(70.0)
        assert all(r.precision is not None and r.precision.draws > 0 for r in out)

    def test_clamps_cap_and_tolerance_to_server_limits(self):
        server, _, _ = demo_server(duration=300.0, config=ServerConfig(n_samples=200))
        # Tighter than the 0.1% floor (MIN_REL_TOL).
        greedy = PrecisionTarget.parse(
            "p95:0.001%", min_samples=64, max_samples=1_000_000
        )
        _submit(server, 1, precision=greedy)
        (resp,) = server.step(70.0)
        info = resp.precision
        assert info.budget == 200 and info.draws <= 200
        # The clamped contract is reported back, never silently applied.
        assert "±0.1%" in info.requested

    def test_adaptive_run_is_deterministic(self):
        def run():
            server, _, _ = demo_server(duration=300.0)
            _submit(server, 4, precision=TARGET)
            return [
                (r.p95, r.precision.draws, r.precision.half_width)
                for r in sorted(server.step(70.0), key=lambda r: r.request_id)
            ]

        assert run() == run()

    def test_adaptive_batch_finishes_faster_than_fixed(self):
        cfg = ServerConfig()
        server, _, _ = demo_server(duration=300.0, config=cfg)
        _submit(server, 4, precision=TARGET)
        (adaptive,) = {r.completed for r in server.step(70.0)}

        server2, _, _ = demo_server(duration=300.0, config=cfg)
        _submit(server2, 4)
        (fixed,) = {r.completed for r in server2.step(70.0)}
        assert adaptive < fixed

    def test_draws_metrics_created_lazily(self):
        server, _, _ = demo_server(duration=300.0)
        _submit(server, 2)
        server.step(70.0)
        counters = server.metrics.snapshot()["counters"]
        assert "draws_used_total" not in counters
        _submit(server, 2, precision=TARGET)
        server.step(80.0)
        counters = server.metrics.snapshot()["counters"]
        assert counters["draws_used_total"] > 0
        assert counters["draws_budget_total"] == 2 * server.config.n_samples


class TestPrecisionShedding:
    def _flooded_server(self):
        cfg = ServerConfig(
            batch_max=4,
            admission=AdmissionPolicy(
                max_queue=16, precision_ladder=DEFAULT_PRECISION_LADDER
            ),
        )
        server, _, _ = demo_server(duration=600.0, config=cfg)
        _submit(server, 16, precision=TARGET, client=lambda i: f"c{i}")
        return server

    def test_degradation_under_pressure_is_tagged_and_recovers(self):
        server = self._flooded_server()
        out = sorted(server.step(200.0), key=lambda r: r.request_id)
        assert len(out) == 16
        degraded = [r for r in out if r.precision.degraded]
        assert degraded, "expected precision shedding under a flooded queue"
        for resp in degraded:
            assert resp.precision.shed_factor > 1.0
            assert resp.precision.reason == DEGRADED_QUEUE_PRESSURE
            assert resp.precision.effective != resp.precision.requested
        # Once the queue drains the tail of the run is served at full
        # contract again.
        assert not out[-1].precision.degraded

    def test_degraded_count_lands_in_metrics(self):
        server = self._flooded_server()
        out = server.step(200.0)
        counters = server.metrics.snapshot()["counters"]
        assert counters["precision_degraded_total"] == sum(
            1 for r in out if r.precision.degraded
        )


class TestDriverPrecision:
    def test_driver_stamps_targets_on_every_request(self):
        server, _, _ = demo_server(duration=600.0)
        driver = LoadDriver(
            server,
            server.models,
            ClosedLoop(clients=4),
            max_requests=20,
            rng=11,
            precision=TARGET,
        )
        report = driver.run()
        assert report.ok == 20
        assert all(r.precision is not None for r in report.responses if r.ok)

    def test_driver_without_precision_is_unchanged(self):
        def drive(precision):
            server, _, _ = demo_server(duration=600.0)
            driver = LoadDriver(
                server,
                server.models,
                ClosedLoop(clients=4),
                max_requests=20,
                rng=11,
                precision=precision,
            )
            return [
                (r.request_id, r.p95) for r in driver.run().responses if r.ok
            ]

        assert drive(None) == drive(None)


class TestClusterAdaptive:
    def test_cluster_preserves_precision_block_and_merges_draws(self):
        config = ClusterConfig(n_workers=2, replication=2)
        cluster, _, _ = demo_cluster(duration=600.0, config=config)
        driver = LoadDriver(
            cluster,
            cluster.models,
            ClosedLoop(clients=4),
            max_requests=16,
            rng=11,
            precision=TARGET,
        )
        report = driver.run()
        assert report.ok == 16
        oks = [r for r in report.responses if r.ok]
        assert all(r.precision is not None and r.worker for r in oks)
        snap = cluster.snapshot()
        assert snap["aggregated"]["draws_used"]["count"] == 16

    def test_fixed_cluster_snapshot_has_no_draws_key(self):
        config = ClusterConfig(n_workers=2, replication=2)
        cluster, _, _ = demo_cluster(duration=600.0, config=config)
        driver = LoadDriver(
            cluster, cluster.models, ClosedLoop(clients=4), max_requests=8, rng=11
        )
        driver.run()
        snap = cluster.snapshot()
        assert "draws_used" not in snap["aggregated"]
        assert set(snap["aggregated"]) == {"latency_s", "batch_size"}


class TestBuiltOnRead:
    """The adaptive path keeps provenance as columns while serving and
    builds the per-row objects only when a response is read."""

    CONFIG = ServerConfig(
        batch_max=8,
        precision=TARGET,
        calibration=CalibrationConfig(),
        admission=AdmissionPolicy(max_queue=32, precision_ladder=DEFAULT_PRECISION_LADDER),
    )

    @staticmethod
    def _drive(server, n=32):
        batch = RequestBatch.from_requests(
            [
                PredictRequest(request_id=i, client_id=f"c{i}", model="sor-1000", submitted=60.0)
                for i in range(n)
            ]
        )
        assert len(server.submit_batch(batch)) == 0
        return server.step_batch(200.0)

    def test_no_provenance_objects_are_built_while_serving(self, monkeypatch):
        built = Counter()
        for cls in (PrecisionInfo, AdaptiveOutcome, ChunkRecord, RuleVote):

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        server, _, _ = demo_server(duration=600.0, config=self.CONFIG)
        rb = self._drive(server)
        assert len(rb) == 32 and rb.ok_mask.all()
        assert not built, f"built during step_batch: {dict(built)}"

        requested = server._clamp_target(TARGET).describe()
        degraded = 0
        for i in range(len(rb)):
            block, dists, j = rb.messages[i]
            assert dists is not None
            outcome = block.outcomes[j]
            info = rb.response(i).precision
            assert info == PrecisionInfo(
                metric=outcome.target.metric,
                rule=outcome.target.rule,
                requested=requested,
                effective=outcome.target.describe(),
                draws=outcome.draws,
                budget=outcome.budget,
                half_width=outcome.half_width,
                tolerance=outcome.tolerance,
                converged=outcome.converged,
                degraded=block.degraded,
                shed_factor=block.shed_factor,
                reason=DEGRADED_QUEUE_PRESSURE if block.degraded else "",
            )
            degraded += info.degraded
        assert degraded, "expected precision-shed batches under the flooded queue"
        assert built["PrecisionInfo"] == 2 * len(rb)
        assert built["AdaptiveOutcome"] == len(rb)

    def test_inconsistent_degradation_raises_at_serve_time(self, monkeypatch):
        monkeypatch.setattr(server_module, "DEGRADED_QUEUE_PRESSURE", "")
        server, _, _ = demo_server(duration=600.0, config=self.CONFIG)
        with pytest.raises(ValueError, match="never silent"):
            self._drive(server)
