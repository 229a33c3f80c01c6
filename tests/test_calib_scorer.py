"""Unit tests for the online calibration scorer and recalibrator.

Covers the three layers of :mod:`repro.calib.scorer`:

* :func:`score_pairs` / :class:`CalibrationReport` — the batch API the
  NWS evaluation layer re-exports;
* :class:`ModelScore` — streaming CRPS/PIT/coverage state, the
  vectorised ``ingest_many`` path;
* :class:`CalibrationScorer` — the keyed model/cohort registry;

plus the conformal control law in :mod:`repro.calib.recalibrate`:
widen below the SLO band, shrink above it, flag for re-fit when the
required scale exceeds the honest maximum.
"""

import numpy as np
import pytest

from repro.calib.distribution import DistributionInfo
from repro.calib.recalibrate import (
    REASON_REFIT,
    REASON_SHRINK,
    REASON_WIDEN,
    RecalibrationPolicy,
    Recalibrator,
)
from repro.calib.scorer import (
    DEFAULT_WINDOW,
    PIT_BINS,
    CalibrationScorer,
    ModelScore,
    score_pairs,
)
from repro.core.normal import TWO_SIGMA_COVERAGE
from repro.core.stochastic import StochasticValue


def _dist(mean=10.0, sigma=1.0, n=200, seed=0):
    rng = np.random.default_rng(seed)
    return DistributionInfo.from_samples(mean + sigma * rng.standard_normal(n))


def _score_one(dist, outcome):
    """The exact per-pair arithmetic ``ModelScore.observe`` performs."""
    covered = dist.contains(outcome)
    crps = dist.crps(outcome)
    pit = dist.pit(outcome)
    sigma_base = max(dist.std / dist.scale, 1e-12)
    z = abs(outcome - dist.mean) / sigma_base
    return covered, crps, pit, z


class TestScorePairs:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            score_pairs([])

    def test_known_batch(self):
        pairs = [
            (StochasticValue(10.0, 2.0), 11.0),  # inside mean +- spread
            (StochasticValue(10.0, 2.0), 15.0),  # outside
        ]
        rep = score_pairs(pairs)
        assert rep.n == 2
        assert rep.coverage == 0.5
        assert rep.nominal == TWO_SIGMA_COVERAGE
        assert rep.mae == pytest.approx((1.0 + 5.0) / 2.0)
        assert rep.sharpness == pytest.approx((4.0 / 11.0 + 4.0 / 15.0) / 2.0)

    def test_calibration_gap_sign(self):
        perfect = score_pairs([(StochasticValue(0.0, 1.0), 0.0)])
        assert perfect.calibration_gap == pytest.approx(1.0 - TWO_SIGMA_COVERAGE)
        missed = score_pairs([(StochasticValue(0.0, 1.0), 9.0)])
        assert missed.calibration_gap < 0.0

    def test_summary_is_one_line(self):
        rep = score_pairs([(StochasticValue(1.0, 1.0), 1.0)])
        text = rep.summary()
        assert "\n" not in text
        assert "coverage" in text and "n=1" in text


class TestModelScore:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelScore("m", nominal=0.0)
        with pytest.raises(ValueError):
            ModelScore("m", nominal=1.0)
        with pytest.raises(ValueError):
            ModelScore("m", window=1)

    def test_observe_returns_coverage_and_updates_state(self):
        sc = ModelScore("m")
        d = _dist()
        inside = d.mean + 0.5 * d.std
        outside = d.mean + 5.0 * d.std
        assert sc.observe(d, inside) is True
        assert sc.observe(d, outside) is False
        assert sc.n == 2
        assert sc.covered_n == 1
        assert sc.coverage == 0.5
        assert sc.mae == pytest.approx((0.5 * d.std + 5.0 * d.std) / 2.0)
        assert sc.rolling_n == 2

    def test_z_uses_prerecalibration_sigma(self):
        """Widening the served claim must not shrink the recorded z:
        the recalibrator solves for an absolute scale, not a relative one."""
        raw = _dist()
        wide = raw.widened(2.0)
        outcome = raw.mean + 3.0 * raw.std
        raw_score, wide_score = ModelScore("a"), ModelScore("b")
        raw_score.observe(raw, outcome)
        wide_score.observe(wide, outcome)
        assert wide_score.z_quantile(1.0) == pytest.approx(
            raw_score.z_quantile(1.0)
        )
        assert raw_score.z_quantile(1.0) == pytest.approx(3.0)

    def test_rolling_window_bounded(self):
        sc = ModelScore("m", window=4)
        d = _dist()
        for i in range(10):
            sc.observe(d, d.mean + (5.0 if i < 6 else 0.0) * d.std)
        assert sc.rolling_n == 4
        assert sc.n == 10
        # Window holds only the last four (covered) observations.
        assert sc.rolling_coverage == 1.0
        assert sc.coverage == pytest.approx(0.4)

    def test_pit_histogram_sums_to_one(self):
        sc = ModelScore("m")
        d = _dist()
        for outcome in np.linspace(d.mean - 3 * d.std, d.mean + 3 * d.std, 17):
            sc.observe(d, float(outcome))
        hist = sc.pit_histogram()
        assert len(hist) == PIT_BINS
        assert sum(hist) == pytest.approx(1.0)

    def test_empty_views(self):
        sc = ModelScore("m")
        assert sc.coverage == 0.0
        assert sc.rolling_coverage == 0.0
        assert sc.mean_crps == 0.0
        assert sc.pit_histogram() == [0.0] * PIT_BINS
        with pytest.raises(ValueError):
            sc.z_quantile(0.5)
        with pytest.raises(ValueError):
            sc.report()

    def test_z_quantile_is_conservative_order_statistic(self):
        sc = ModelScore("m")
        d = _dist(mean=0.0, sigma=1.0)
        for z in (1.0, 2.0, 3.0, 4.0):
            sc.observe(d, d.mean + z * d.std)
        # method="higher": rank 0.5 * 3 = 1.5 rounds up to index 2.
        assert sc.z_quantile(0.5) == pytest.approx(3.0)
        assert sc.z_quantile(0.0) == pytest.approx(1.0)
        assert sc.z_quantile(1.0) == pytest.approx(4.0)

    def test_report_matches_cumulative_state(self):
        sc = ModelScore("m")
        d = _dist()
        for outcome in (d.mean, d.mean + 3 * d.std):
            sc.observe(d, outcome)
        rep = sc.report()
        assert rep.n == 2
        assert rep.coverage == sc.coverage
        assert rep.mae == sc.mae
        assert rep.sharpness == sc.sharpness
        assert rep.nominal == sc.nominal


class TestIngestMany:
    def test_matches_sequential_observe(self):
        dists = [_dist(mean=5.0 + i, sigma=0.5 + 0.1 * i, seed=i) for i in range(6)]
        outcomes = [d.mean + (i - 2.5) * d.std for i, d in enumerate(dists)]

        seq = ModelScore("m", window=4)
        for d, y in zip(dists, outcomes):
            seq.observe(d, y)

        scored = [_score_one(d, y) for d, y in zip(dists, outcomes)]
        covered = np.asarray([s[0] for s in scored], dtype=bool)
        crps = np.asarray([s[1] for s in scored])
        pit_bins = np.asarray(
            [min(int(s[2] * PIT_BINS), PIT_BINS - 1) for s in scored]
        )
        z = np.asarray([s[3] for s in scored])
        mae = np.asarray([abs(y - d.mean) for d, y in zip(dists, outcomes)])
        sharp = np.asarray(
            [2.0 * d.spread / max(abs(y), 1e-12) for d, y in zip(dists, outcomes)]
        )
        batch = ModelScore("m", window=4)
        batch.ingest_many(covered, crps, pit_bins, z, mae, sharp)

        assert batch.n == seq.n
        assert batch.covered_n == seq.covered_n
        assert batch.pit_counts == seq.pit_counts
        # Totals use pairwise summation: equal to within float noise.
        assert batch.crps_total == pytest.approx(seq.crps_total, rel=1e-12)
        assert batch.mae_total == pytest.approx(seq.mae_total, rel=1e-12)
        assert batch.sharp_total == pytest.approx(seq.sharp_total, rel=1e-12)
        # Rolling windows are order-exact (newest `window` entries).
        assert list(batch._cover_win) == list(seq._cover_win)
        assert list(batch._crps_win) == list(seq._crps_win)
        assert list(batch._z_win) == list(seq._z_win)


class TestCalibrationScorer:
    def test_observe_updates_model_and_cohort_identically(self):
        scorer = CalibrationScorer()
        d = _dist()
        scorer.observe("m1", "fresh", d, d.mean + 0.1)
        scorer.observe("m1", "stale", d, d.mean + 9.0 * d.std)
        scorer.observe("m2", "fresh", d, d.mean)
        assert scorer.n == 3
        assert scorer.score("m1").n == 2
        assert scorer.score("m2").n == 1
        assert scorer.cohort("fresh").n == 2
        assert scorer.cohort("stale").n == 1
        assert scorer.cohort("stale").coverage == 0.0

    def test_summary_shape(self):
        scorer = CalibrationScorer()
        d = _dist()
        scorer.observe("m", "fresh", d, d.mean)
        doc = scorer.summary()
        assert set(doc) == {"n", "nominal", "models", "cohorts"}
        assert set(doc["models"]) == {"m"}
        assert set(doc["cohorts"]) == {"fresh"}
        assert doc["models"]["m"]["n"] == 1
        assert len(doc["models"]["m"]["pit"]) == PIT_BINS


class TestRecalibrator:
    POLICY = RecalibrationPolicy(
        control_interval=10, min_observations=10, window=DEFAULT_WINDOW
    )

    def _drive(self, recal, score, dist, z_values, model="m"):
        """Feed outcomes at the given base z offsets, running the control
        check after every observation exactly as the serving loop does."""
        events = []
        for z in z_values:
            score.observe(dist, dist.mean + z * dist.std)
            ev = recal.control(model, score)
            if ev is not None:
                events.append(ev)
        return events

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RecalibrationPolicy(slo_low=0.97, nominal=0.95)
        with pytest.raises(ValueError):
            RecalibrationPolicy(slo_high=0.5)
        with pytest.raises(ValueError):
            RecalibrationPolicy(max_scale=1.0)
        with pytest.raises(ValueError):
            RecalibrationPolicy(control_interval=0)

    def test_initial_scale(self):
        assert Recalibrator().scale("any") == 1.0
        assert Recalibrator(initial_scale=1.5).scale("any") == 1.5
        with pytest.raises(ValueError):
            Recalibrator(initial_scale=0.5)

    def test_no_action_before_min_observations(self):
        recal = Recalibrator(self.POLICY)
        score = ModelScore("m")
        d = _dist()
        events = self._drive(recal, score, d, [5.0] * 9)
        assert events == []
        assert recal.scale("m") == 1.0

    def test_widen_when_coverage_below_slo(self):
        recal = Recalibrator(self.POLICY)
        score = ModelScore("m")
        d = _dist()
        # Every outcome at 3 base sigma: uncovered, required scale 1.5.
        events = self._drive(recal, score, d, [3.0] * 10)
        assert len(events) == 1
        ev = events[0]
        assert ev.reason == REASON_WIDEN
        assert ev.at_observation == 10
        assert ev.old_scale == 1.0
        assert ev.new_scale == pytest.approx(1.5)
        assert ev.rolling_coverage == 0.0
        assert recal.scale("m") == pytest.approx(1.5)
        assert not recal.flagged("m")
        assert recal.events == events

    def test_control_only_at_cadence(self):
        recal = Recalibrator(self.POLICY)
        score = ModelScore("m")
        d = _dist()
        events = self._drive(recal, score, d, [3.0] * 19)
        # Only the n=10 boundary fires within 19 observations.
        assert [e.at_observation for e in events] == [10]

    def test_refit_flag_when_required_exceeds_max_scale(self):
        recal = Recalibrator(self.POLICY)
        score = ModelScore("m")
        d = _dist()
        events = self._drive(recal, score, d, [10.0] * 10)
        assert len(events) == 1
        ev = events[0]
        assert ev.reason == REASON_REFIT
        assert ev.required_scale == pytest.approx(5.0)
        assert ev.new_scale == self.POLICY.max_scale
        assert recal.flagged("m")
        assert "m" in recal.summary()["flagged"]

    def test_shrink_when_coverage_overshoots(self):
        policy = RecalibrationPolicy(control_interval=10, min_observations=10)
        recal = Recalibrator(policy)
        # Small score window so the bad z's age out of the rolling state.
        score = ModelScore("m", window=10)
        d = _dist()
        widened = self._drive(recal, score, d, [3.0] * 10)
        assert [e.reason for e in widened] == [REASON_WIDEN]
        # Ten well-covered, low-z observations flush the window:
        # rolling coverage 1.0 > slo_high and required 0.05 < scale.
        shrunk = self._drive(recal, score, d, [0.1] * 10)
        assert [e.reason for e in shrunk] == [REASON_SHRINK]
        assert shrunk[0].old_scale == pytest.approx(1.5)
        assert recal.scale("m") == pytest.approx(1.0)

    def test_scale_never_shrinks_below_one(self):
        policy = RecalibrationPolicy(control_interval=10, min_observations=10)
        recal = Recalibrator(policy, initial_scale=1.2)
        score = ModelScore("m", window=10)
        d = _dist()
        events = self._drive(recal, score, d, [0.1] * 10)
        assert [e.reason for e in events] == [REASON_SHRINK]
        assert recal.scale("m") == 1.0

    def test_summary_round_trips_events(self):
        recal = Recalibrator(self.POLICY)
        score = ModelScore("m")
        d = _dist()
        self._drive(recal, score, d, [3.0] * 10)
        doc = recal.summary()
        assert doc["scales"] == {"m": pytest.approx(1.5)}
        assert doc["flagged"] == []
        assert len(doc["events"]) == 1
        assert doc["events"][0]["reason"] == REASON_WIDEN
        assert doc["events"][0] == recal.events[0].to_dict()
