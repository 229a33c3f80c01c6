"""Online calibration scoring: CRPS, PIT, and rolling coverage.

This module is the single home of calibration scoring for the whole
repo (the window study in :mod:`repro.experiments.calibration` and the
online serving loop both use it):

* :class:`CalibrationReport` + :func:`score_pairs` — the batch scorer
  the NWS evaluation layer has always exposed (coverage vs nominal,
  sharpness, MAE over ``(forecast, outcome)`` pairs), relocated here
  verbatim and re-exported from :mod:`repro.nws.evaluation`;
* :func:`score_rows` — the one scoring function for served
  distributions: coverage, CRPS, PIT, z, MAE and sharpness of a block
  of ``(distribution, outcome)`` rows as arrays.  The serving loop
  calls it once per flush; ``observe`` calls it on one row;
* :class:`ModelScore` — streaming state for one scoring key: online
  CRPS, a PIT histogram, cumulative and rolling 2σ-coverage, and the
  rolling z-score window the conformal
  :class:`~repro.calib.recalibrate.Recalibrator` reads its widening
  quantile from;
* :class:`CalibrationScorer` — a keyed registry of scores per model
  and per forecast-quality cohort (``fresh``/``stale``/``fallback`` —
  the NWS forecaster tournament's output grade).  A cluster keeps one
  for the whole deployment.
"""

from __future__ import annotations

import math

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.calib.distribution import DistributionInfo
from repro.core.normal import TWO_SIGMA_COVERAGE
from repro.core.stochastic import StochasticValue

__all__ = [
    "CalibrationReport",
    "score_pairs",
    "score_rows",
    "ModelScore",
    "CalibrationScorer",
    "PIT_BINS",
    "DEFAULT_WINDOW",
]

#: Bins of the probability-integral-transform histogram.
PIT_BINS = 10

#: Default rolling-window length (observations) for coverage/CRPS/z.
DEFAULT_WINDOW = 160


@dataclass(frozen=True)
class CalibrationReport:
    """How well claimed intervals match observed behaviour.

    Attributes
    ----------
    coverage:
        Fraction of outcomes inside the claimed ranges.
    nominal:
        Coverage the ranges claim (~0.954 for 2-sigma normals).
    sharpness:
        Mean interval width relative to the outcome magnitude (smaller
        is more informative, all else equal).
    mae:
        Mean absolute error of the forecast means.
    n:
        Number of scored forecasts.
    """

    coverage: float
    nominal: float
    sharpness: float
    mae: float
    n: int

    @property
    def calibration_gap(self) -> float:
        """``coverage - nominal``: positive = conservative, negative = overconfident."""
        return self.coverage - self.nominal

    def summary(self) -> str:
        """One-line report."""
        return (
            f"coverage={self.coverage:.1%} (nominal {self.nominal:.1%})  "
            f"sharpness={self.sharpness:.2f}  MAE={self.mae:.4f}  n={self.n}"
        )


def score_pairs(pairs: list[tuple[StochasticValue, float]]) -> CalibrationReport:
    """Score a batch of ``(forecast, outcome)`` pairs.

    Coverage counts outcomes inside each forecast's claimed ~95% range;
    sharpness is the mean interval width relative to the outcome.
    """
    if not pairs:
        raise ValueError("no forecasts were scored")
    hits = sum(1 for f, v in pairs if f.contains(v))
    widths = [2.0 * f.spread / max(abs(v), 1e-12) for f, v in pairs]
    errs = [abs(f.mean - v) for f, v in pairs]
    return CalibrationReport(
        coverage=hits / len(pairs),
        nominal=TWO_SIGMA_COVERAGE,
        sharpness=float(np.mean(widths)),
        mae=float(np.mean(errs)),
        n=len(pairs),
    )


def score_rows(means, stds, quantiles, scales, levels, y):
    """Score served distributions against realised outcomes, one row each.

    Row ``i`` is a distribution served with mean ``means[i]``, standard
    deviation ``stds[i]`` and quantile grid ``quantiles[i]`` on
    ``levels`` (all as served, i.e. widened by ``scales[i]``), scored
    against outcome ``y[i]``; scalars with a flat grid score one row.
    Returns the arguments of :meth:`ModelScore.ingest_many`, as arrays:
    ``(covered, crps, pit_bins, z, mae, sharp)``.  Per row this is the
    arithmetic of
    :meth:`~repro.calib.distribution.DistributionInfo.contains`,
    ``.crps`` and ``.pit`` (CRPS bit-identical; the PIT may differ from
    ``np.interp`` in the last ulp at exact grid ties); ``z`` is measured
    against the pre-recalibration spread ``stds / scales``.
    """
    taus = np.asarray(levels, dtype=float)
    q_mat = np.atleast_2d(np.asarray(quantiles, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dev = np.abs(y - means)
    covered = dev <= 2.0 * stds
    yc = y[:, None]
    below = yc < q_mat
    crps = np.mean(2.0 * (taus - below) * (yc - q_mat), axis=1)
    # Piecewise-linear CDF inversion (the vector form of
    # DistributionInfo.cdf), clamped to the grid's edge levels.
    k = taus.size
    jj = np.clip((yc >= q_mat).sum(axis=1) - 1, 0, k - 2)
    rows = np.arange(len(y))
    x0 = q_mat[rows, jj]
    dx = q_mat[rows, jj + 1] - x0
    safe = dx > 0.0
    frac = np.where(safe, (y - x0) / np.where(safe, dx, 1.0), 0.0)
    pit = np.clip(taus[jj] + (taus[jj + 1] - taus[jj]) * frac, taus[0], taus[-1])
    pit_bins = np.minimum((pit * PIT_BINS).astype(np.int64), PIT_BINS - 1)
    # z relative to the pre-recalibration spread: |y - mean| in units
    # of the *raw* predictive sigma.
    z = dev / np.maximum(stds / scales, 1e-12)
    sharp = 4.0 * stds / np.maximum(np.abs(y), 1e-12)
    return covered, crps, pit_bins, z, dev, sharp


class ModelScore:
    """Streaming calibration state for one scoring key.

    Maintains O(window) state: cumulative totals (coverage, CRPS, MAE,
    sharpness, PIT bin counts) plus bounded rolling windows of
    coverage, CRPS, and base z-scores.  ``observe`` scores the *served*
    distribution (post-recalibration — the claim the client saw) while
    the z-score is recorded against the *unscaled* spread, so the
    recalibrator can solve for the absolute scale that would restore
    nominal coverage rather than compounding its own corrections.
    """

    __slots__ = (
        "key",
        "nominal",
        "window",
        "n",
        "covered_n",
        "crps_total",
        "mae_total",
        "sharp_total",
        "pit_counts",
        "_cover_win",
        "_crps_win",
        "_z_win",
    )

    def __init__(
        self,
        key: str,
        *,
        nominal: float = TWO_SIGMA_COVERAGE,
        window: int = DEFAULT_WINDOW,
    ):
        if not 0.0 < nominal < 1.0:
            raise ValueError(f"nominal must be in (0, 1), got {nominal}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.key = key
        self.nominal = float(nominal)
        self.window = int(window)
        self.n = 0
        self.covered_n = 0
        self.crps_total = 0.0
        self.mae_total = 0.0
        self.sharp_total = 0.0
        self.pit_counts = [0] * PIT_BINS
        self._cover_win: deque[bool] = deque(maxlen=window)
        self._crps_win: deque[float] = deque(maxlen=window)
        self._z_win: deque[float] = deque(maxlen=window)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, dist: DistributionInfo, outcome: float) -> bool:
        """Score one ``(served distribution, realised outcome)`` pair.

        Returns whether the outcome fell inside the served ``mean ± 2σ``.
        """
        scored = score_rows(dist.mean, dist.std, dist.quantiles, dist.scale, dist.levels, outcome)
        self.ingest_many(*scored)
        return bool(scored[0][0])

    def ingest_many(self, covered, crps, pit_bins, z, mae, sharp) -> None:
        """Fold a batch scored by :func:`score_rows` into the streaming state.

        One call updates totals with array sums and extends the rolling
        windows in order (``deque(maxlen=...)`` keeps the newest
        entries, exactly as sequential appends would).  Totals use
        NumPy's pairwise summation, so they can differ from ingesting
        the rows one at a time in the last float ulp.
        """
        self.n += len(crps)
        self.covered_n += int(np.count_nonzero(covered))
        self.crps_total += float(crps.sum())
        self.mae_total += float(mae.sum())
        self.sharp_total += float(sharp.sum())
        counts = np.bincount(pit_bins, minlength=PIT_BINS).tolist()
        self.pit_counts = [a + b for a, b in zip(self.pit_counts, counts)]
        self._cover_win.extend(covered.tolist())
        self._crps_win.extend(crps.tolist())
        self._z_win.extend(z.tolist())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Cumulative fraction of outcomes inside the served ranges."""
        return self.covered_n / self.n if self.n else 0.0

    @property
    def rolling_coverage(self) -> float:
        """Coverage over the last ``window`` observations."""
        if not self._cover_win:
            return 0.0
        return sum(self._cover_win) / len(self._cover_win)

    @property
    def mean_crps(self) -> float:
        """Cumulative mean CRPS (lower is better)."""
        return self.crps_total / self.n if self.n else 0.0

    @property
    def rolling_crps(self) -> float:
        """Mean CRPS over the last ``window`` observations."""
        if not self._crps_win:
            return 0.0
        return sum(self._crps_win) / len(self._crps_win)

    @property
    def last_crps(self) -> float:
        """CRPS of the most recent observation (0 before any)."""
        return self._crps_win[-1] if self._crps_win else 0.0

    @property
    def mae(self) -> float:
        """Cumulative mean absolute error of the served means."""
        return self.mae_total / self.n if self.n else 0.0

    @property
    def sharpness(self) -> float:
        """Cumulative mean relative interval width (served claims)."""
        return self.sharp_total / self.n if self.n else 0.0

    @property
    def rolling_n(self) -> int:
        """Observations currently inside the rolling window."""
        return len(self._cover_win)

    def z_quantile(self, q: float) -> float:
        """Empirical quantile of the rolling base z-scores.

        ``method="higher"`` gives the conservative (never-too-narrow)
        order statistic conformal recalibration wants.
        """
        if not self._z_win:
            raise ValueError(f"no z-scores observed for {self.key!r}")
        # np.quantile(z, q, method="higher") without its set-up: the same
        # index, the same partition, NaN when the window holds one.
        z = np.array(self._z_win)
        i = math.ceil((z.size - 1) * q)
        z.partition((i, -1))
        return math.nan if math.isnan(z[-1]) else float(z[i])

    def pit_histogram(self) -> list[float]:
        """PIT bin fractions (sums to 1 once observations exist)."""
        if not self.n:
            return [0.0] * PIT_BINS
        return [c / self.n for c in self.pit_counts]

    def report(self) -> CalibrationReport:
        """The cumulative state as a shared :class:`CalibrationReport`."""
        if not self.n:
            raise ValueError(f"no observations for {self.key!r}")
        return CalibrationReport(
            coverage=self.coverage,
            nominal=self.nominal,
            sharpness=self.sharpness,
            mae=self.mae,
            n=self.n,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary."""
        return {
            "n": self.n,
            "coverage": self.coverage,
            "rolling_coverage": self.rolling_coverage,
            "nominal": self.nominal,
            "crps": self.mean_crps,
            "rolling_crps": self.rolling_crps,
            "mae": self.mae,
            "sharpness": self.sharpness,
            "pit": self.pit_histogram(),
        }


class CalibrationScorer:
    """Keyed calibration scores per model and per forecast-quality cohort."""

    def __init__(
        self,
        *,
        nominal: float = TWO_SIGMA_COVERAGE,
        window: int = DEFAULT_WINDOW,
    ):
        self.nominal = float(nominal)
        self.window = int(window)
        self.by_model: dict[str, ModelScore] = {}
        self.by_cohort: dict[str, ModelScore] = {}

    def score(self, model: str) -> ModelScore:
        """The (created-on-first-use) score for ``model``."""
        sc = self.by_model.get(model)
        if sc is None:
            sc = self.by_model[model] = ModelScore(
                model, nominal=self.nominal, window=self.window
            )
        return sc

    def cohort(self, quality: str) -> ModelScore:
        """The (created-on-first-use) score for a forecast-quality cohort."""
        sc = self.by_cohort.get(quality)
        if sc is None:
            sc = self.by_cohort[quality] = ModelScore(
                quality, nominal=self.nominal, window=self.window
            )
        return sc

    def observe(
        self, model: str, quality: str, dist: DistributionInfo, outcome: float
    ) -> ModelScore:
        """Score one served answer; returns the model's updated score.

        The pair is scored once and ingested into both the per-model
        and the per-forecast-quality cohort state.
        """
        scored = score_rows(dist.mean, dist.std, dist.quantiles, dist.scale, dist.levels, outcome)
        sc = self.score(model)
        sc.ingest_many(*scored)
        self.cohort(quality).ingest_many(*scored)
        return sc

    @property
    def n(self) -> int:
        """Total observations scored across models."""
        return sum(sc.n for sc in self.by_model.values())

    def summary(self) -> dict:
        """JSON-serialisable per-model and per-cohort summaries."""
        return {
            "n": self.n,
            "nominal": self.nominal,
            "models": {k: sc.to_dict() for k, sc in sorted(self.by_model.items())},
            "cohorts": {k: sc.to_dict() for k, sc in sorted(self.by_cohort.items())},
        }
