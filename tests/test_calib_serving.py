"""Integration tests for calibration-aware serving.

The contract under test (see ``docs/calibration.md``):

* with ``ServerConfig(calibration=CalibrationConfig())`` every OK
  answer carries a :class:`DistributionInfo` block whose moments agree
  with the response's ``value`` summary;
* with ``calibration=None`` responses are byte-identical to previous
  releases (the loop draws outcomes from a *spawned* RNG child, so
  enabling it never shifts the serving draw sequence either);
* an active recalibration scale widens ``value``/``p95``/the grid about
  the mean and tags the block — never silently;
* deferred scoring queues answers per model and flushes at
  ``flush_every`` (and at ``summary()``), emitting ``calib.score``
  spans;
* the cluster merges worker scorers and tags events with their worker.
"""

import json

import numpy as np
import pytest

from repro.calib import (
    CalibrationConfig,
    CalibrationLoop,
    DistributionInfo,
    grid_levels,
)
from repro.core.stochastic import StochasticValue
from repro.nws.service import DegradationPolicy, NetworkWeatherService
from repro.obs import Tracer
from repro.obs.tracer import STAGE_CALIB
from repro.serving import (
    ClosedLoop,
    ClusterConfig,
    LoadDriver,
    ModelSpec,
    PredictRequest,
    PredictionServer,
    ServerConfig,
    demo_cluster,
)
from repro.structural.expr import Param
from repro.structural.parameters import Bindings
from repro.workload.traces import Trace


def _request(i=0, client="c0", model="m", submitted=60.0, **kw):
    return PredictRequest(
        request_id=i, client_id=client, model=model, submitted=submitted, **kw
    )


def calib_server(calibration=None, *, config_kw=None, tracer=None):
    """The one-model tiny server, optionally with a calibration loop."""
    nws = NetworkWeatherService(
        degradation=DegradationPolicy(prior=StochasticValue(0.5, 0.4))
    )
    nws.register("cpu:a", Trace.constant(0.5))
    nws.advance_to(60.0)
    cfg = ServerConfig(calibration=calibration, **(config_kw or {}))
    server = PredictionServer(nws, config=cfg, rng=3, tracer=tracer)
    bindings = Bindings({"scale": 10.0})
    bindings.bind_runtime("load", StochasticValue(0.5, 0.1))
    server.register_model(
        ModelSpec(
            name="m",
            expression=Param("scale") * Param("load"),
            bindings=bindings,
            resources={"load": "cpu:a"},
        )
    )
    return server


def drive(server, n=6, submitted=60.0, t_done=61.0):
    for i in range(n):
        assert server.submit(_request(i, client=f"c{i}", submitted=submitted)) is None
    return server.step(t_done)


class TestDistributionBlocks:
    def test_every_ok_answer_carries_a_distribution(self):
        server = calib_server(CalibrationConfig())
        out = drive(server)
        assert len(out) == 6
        for r in out:
            d = r.distribution
            assert isinstance(d, DistributionInfo)
            assert d.count == server.config.n_samples
            assert d.levels == grid_levels(server.config.calibration.grid)
            assert len(d.quantiles) == len(d.levels)
            # The block's moments ARE the response's value summary.
            assert d.mean == pytest.approx(r.value.mean, rel=1e-12)
            assert d.spread == pytest.approx(r.value.spread, rel=1e-12)
            assert not d.recalibrated and d.scale == 1.0
            assert d.sketch is not None and d.sketch.count == d.count
            assert d.modes == ()

    def test_off_means_no_block(self):
        (r,) = drive(calib_server(None), n=1)
        assert r.distribution is None

    def test_keep_sketch_false_drops_only_the_sketch(self):
        (r,) = drive(calib_server(CalibrationConfig(keep_sketch=False)), n=1)
        assert r.distribution is not None
        assert r.distribution.sketch is None
        assert len(r.distribution.quantiles) >= 2

    def test_mixture_modes_when_requested(self):
        (r,) = drive(calib_server(CalibrationConfig(mixture_components=2)), n=1)
        modes = r.distribution.modes
        assert len(modes) == 2
        assert sum(m.weight for m in modes) == pytest.approx(1.0)
        assert all(m.std >= 0.0 for m in modes)

    def test_quantile_grid_brackets_the_mean(self):
        (r,) = drive(calib_server(CalibrationConfig()), n=1)
        d = r.distribution
        qs = np.asarray(d.quantiles)
        assert np.all(np.diff(qs) >= 0.0)
        assert qs[0] <= d.mean <= qs[-1]
        # The grid's median should sit near the MC cloud's median.
        assert d.quantile(0.5) == pytest.approx(d.mean, rel=0.1)


class TestBitIdentity:
    def test_calibration_on_leaves_answers_bit_identical(self):
        """The loop's RNG child is spawned, not drawn: enabling
        calibration (unscaled) must not move a single served float."""
        off = drive(calib_server(None))
        on = drive(calib_server(CalibrationConfig()))
        for a, b in zip(off, on):
            assert a.value.mean == b.value.mean
            assert a.value.spread == b.value.spread
            assert a.p95 == b.p95
            assert (a.quality, a.staleness, a.latency) == (
                b.quality,
                b.staleness,
                b.latency,
            )

    def test_initial_scale_widens_and_tags(self):
        off = drive(calib_server(None))
        on = drive(
            calib_server(
                CalibrationConfig(initial_scale=2.0, recalibrate=False)
            )
        )
        for a, b in zip(off, on):
            assert b.value.mean == a.value.mean
            assert b.value.spread == a.value.spread * 2.0
            assert b.p95 == a.value.mean + (a.p95 - a.value.mean) * 2.0
            d = b.distribution
            assert d.recalibrated and d.scale == 2.0
            assert d.std == pytest.approx(a.value.spread, rel=1e-12)  # 2 * raw std
            # The sketch stays raw evidence: its median is unscaled.
            med_claim = d.quantile(0.5)
            med_raw = d.sketch.quantile(0.5)
            assert abs(med_claim - d.mean) == pytest.approx(
                2.0 * abs(med_raw - d.mean), rel=0.2
            )

    def test_seeded_summary_is_reproducible(self):
        def run():
            server = calib_server(CalibrationConfig(truth_spread_scale=1.5))
            drive(server, n=12)
            return server.calibration_summary()

        assert json.dumps(run(), sort_keys=True) == json.dumps(run(), sort_keys=True)


class TestDeferredScoring:
    def test_answers_queue_until_flush(self):
        server = calib_server(CalibrationConfig())  # flush_every=256
        drive(server, n=8)
        assert server.calib.pending() == 8
        assert server.calib.pending("m") == 8
        assert server.calib.scorer.n == 0
        summary = server.calibration_summary()
        assert server.calib.pending() == 0
        assert summary["scores"]["models"]["m"]["n"] == 8
        assert sum(c["n"] for c in summary["scores"]["cohorts"].values()) == 8

    def test_flush_every_triggers_automatically(self):
        server = calib_server(CalibrationConfig(flush_every=4))
        drive(server, n=4)
        assert server.calib.pending() == 0
        assert server.calib.scorer.n == 4

    def test_summary_shape(self):
        server = calib_server(CalibrationConfig(truth_spread_scale=1.5))
        drive(server, n=4)
        doc = server.calibration_summary()
        assert doc["enabled"] is True
        assert doc["truth_spread_scale"] == 1.5
        model = doc["scores"]["models"]["m"]
        assert set(model) >= {"n", "coverage", "rolling_coverage", "crps", "pit"}
        assert set(doc["recalibration"]) == {"scales", "flagged", "events"}
        json.dumps(doc)  # JSON-serialisable as-is

    def test_off_summary_is_none(self):
        assert calib_server(None).calibration_summary() is None

    def test_calib_score_spans_emitted_on_flush(self):
        tr = Tracer()
        server = calib_server(CalibrationConfig(), tracer=tr)
        drive(server, n=5)
        server.calibration_summary()
        spans = [s for s in tr.spans if s.name == "calib.score"]
        assert len(spans) == 1
        assert spans[0].stage == STAGE_CALIB
        assert spans[0].attrs["model"] == "m"
        assert spans[0].attrs["batch_size"] == 5
        assert 0 <= spans[0].attrs["covered"] <= 5

    def test_batch_enqueue_flushes_where_one_row_at_a_time_would(self):
        """A batch crossing a ``flush_every`` boundary is split at it, so
        queueing whole batches scores, controls and recalibrates exactly
        like queueing the same answers one at a time."""
        cfg = CalibrationConfig(truth_spread_scale=3.0, flush_every=16)
        spec = calib_server(CalibrationConfig()).calib._truth["m"]
        samples = np.random.default_rng(5).normal(5.0, 0.1, size=(120, 64))
        effective = [{"load": StochasticValue(0.5, 0.1)}] * 120
        loops = []
        for sizes in ([5, 37, 11, 50, 17], [1] * 120):
            loop = CalibrationLoop(cfg, np.random.default_rng(0))
            loop.register(spec)
            dists = loop.distributions(samples)
            lo = 0
            for k in sizes:
                rows = slice(lo, lo + k)
                loop.enqueue("m", ["fresh"] * k, dists.select(rows), effective[rows], 60.0)
                lo += k
            assert loop.pending() == 120 % 16
            loops.append(loop.summary())
        batched, one_by_one = loops
        assert batched["recalibration"]["events"]
        assert batched == one_by_one

    def test_distribution_batch_rows_match_the_eager_blocks(self):
        loop = CalibrationLoop(CalibrationConfig(), np.random.default_rng(0))
        samples = np.random.default_rng(1).normal(5.0, 0.3, size=(6, 50))
        dists = loop.distributions(samples)
        assert len(dists) == 6
        for j in range(6):
            eager = loop.distribution(samples[j])
            assert dists[j].quantiles == eager.quantiles
            assert dists[j].sketch == eager.sketch
            assert dists[j].count == eager.count
            assert dists[j].mean == pytest.approx(eager.mean, rel=1e-12)
        wide = dists.widened(1.5)
        std, quantiles, scale = wide.served()
        for j in range(6):
            assert wide[j] == dists[j].widened(1.5)
            assert wide[j].std == std[j] and wide[j].quantiles == tuple(quantiles[j])
        assert (scale == 1.5).all()
        assert dists.select(slice(2, 4))[1] == dists[3]

    def test_loop_scale_without_recalibrator_is_initial_scale(self):
        loop = CalibrationLoop(
            CalibrationConfig(recalibrate=False, initial_scale=1.5),
            np.random.default_rng(0),
        )
        assert loop.scale("anything") == 1.5

    def test_scoring_failure_never_breaks_serving(self):
        """An unregistered truth model fails the flush, not the serve."""
        server = calib_server(CalibrationConfig(flush_every=2))
        server.calib._truth.clear()  # simulate a wedged truth registry
        out = drive(server, n=4)
        assert all(r.ok and r.distribution is not None for r in out)
        assert server.metrics.counter("calib_errors_total").value >= 1.0


class TestClusterCalibration:
    @pytest.fixture(scope="class")
    def driven(self):
        cluster, _, _ = demo_cluster(
            duration=600.0,
            config=ClusterConfig(
                n_workers=2,
                worker=ServerConfig(
                    calibration=CalibrationConfig(truth_spread_scale=1.5)
                ),
            ),
            rng=5,
        )
        driver = LoadDriver(
            cluster, cluster.models, ClosedLoop(clients=8), max_requests=120, rng=5
        )
        return cluster, driver.run()

    def test_merged_summary_covers_every_answer(self, driven):
        cluster, report = driven
        assert report.errors == 0
        doc = cluster.calibration_summary()
        assert doc is not None
        assert doc["truth_spread_scale"] == 1.5
        assert doc["scores"]["n"] == report.ok
        per_worker = sum(
            w.calib.scorer.n for w in cluster.workers.values() if w.calib is not None
        )
        assert per_worker == report.ok

    def test_events_are_worker_tagged(self, driven):
        cluster, _ = driven
        doc = cluster.calibration_summary()
        for event in doc["recalibration"]["events"]:
            assert event["worker"] in cluster.workers
        json.dumps(doc)

    def test_cluster_responses_carry_distributions(self, driven):
        _, report = driven
        assert all(r.distribution is not None for r in report.responses if r.ok)

    def test_off_cluster_summary_is_none(self):
        cluster, _, _ = demo_cluster(
            duration=300.0, config=ClusterConfig(n_workers=2), rng=5
        )
        assert cluster.calibration_summary() is None
