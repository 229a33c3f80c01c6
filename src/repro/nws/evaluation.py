"""Calibration assessment for stochastic forecasts.

A stochastic value claims "~95% of behaviour falls in my range"; whether
a *forecasting pipeline* actually delivers that is an empirical question.
This module replays a measurement series through a query function and
scores the claimed intervals: observed coverage vs nominal, sharpness
(mean relative width), and the mean absolute forecast error — the
numbers behind choosing a query horizon in the Platform 2 experiments.

The scoring itself lives in :mod:`repro.calib.scorer` (one shared
implementation for this offline window study and the online serving
loop), which returns a :class:`~repro.calib.scorer.CalibrationReport`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.calib.scorer import CalibrationReport, score_pairs
from repro.core.stochastic import StochasticValue
from repro.nws.predictor import AdaptivePredictor
from repro.util.validation import check_array_1d

__all__ = ["calibrate_one_step", "calibrate_query"]


def calibrate_one_step(
    values,
    predictor: AdaptivePredictor | None = None,
    *,
    burn_in: int = 50,
) -> CalibrationReport:
    """Calibration of one-step-ahead tournament forecasts on a series."""
    arr = check_array_1d(values, "values")
    if burn_in < 1:
        raise ValueError(f"burn_in must be >= 1, got {burn_in}")
    p = predictor if predictor is not None else AdaptivePredictor()
    pairs: list[tuple[StochasticValue, float]] = []
    for v in arr:
        if p.n_observations >= burn_in:
            pairs.append((p.forecast(), float(v)))
        p.observe(float(v))
    return score_pairs(pairs)


def calibrate_query(
    values,
    query: Callable[[np.ndarray], StochasticValue],
    *,
    history: int = 60,
    horizon: int = 12,
) -> CalibrationReport:
    """Calibration of a windowed query against run-horizon outcomes.

    ``query(history_window)`` produces the stochastic value (e.g. a
    windowed mean +/- 2*std); the outcome it is scored against is the
    *mean of the next* ``horizon`` measurements — the quantity a
    run-length prediction effectively bets on.
    """
    arr = check_array_1d(values, "values")
    if history < 2 or horizon < 1:
        raise ValueError("history must be >= 2 and horizon >= 1")
    pairs: list[tuple[StochasticValue, float]] = []
    for t in range(history, arr.size - horizon):
        forecast = query(arr[t - history : t])
        outcome = float(arr[t : t + horizon].mean())
        pairs.append((forecast, outcome))
    return score_pairs(pairs)
