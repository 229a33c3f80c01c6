"""A from-scratch Network Weather Service (Wolski et al.) reimplementation.

The paper's run-time stochastic load values come from the NWS: sensors
measure CPU availability every 5 seconds, a tournament of simple
forecasters tracks the series, and queries return the best forecaster's
prediction together with an empirical error bar — a stochastic value.
"""

from repro.nws.forecasters import (
    AdaptiveMedian,
    AutoRegressive,
    ExponentialSmoothing,
    Forecaster,
    LastValue,
    RunningMean,
    SlidingWindowMean,
    SlidingWindowMedian,
    default_forecasters,
)
from repro.nws.evaluation import calibrate_one_step, calibrate_query
from repro.nws.feedback import FeedBank, LoadFeed
from repro.nws.modal import ModalCombination, ModalLoadCharacterizer, select_n_modes_bic
from repro.nws.predictor import AdaptivePredictor, ForecasterScore
from repro.nws.sensors import NWS_DEFAULT_PERIOD, Sensor
from repro.nws.series import MeasurementSeries
from repro.nws.service import DegradationPolicy, NetworkWeatherService, QualifiedForecast

__all__ = [
    "FeedBank",
    "LoadFeed",
    "calibrate_one_step",
    "calibrate_query",
    "ModalCombination",
    "ModalLoadCharacterizer",
    "select_n_modes_bic",
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "ExponentialSmoothing",
    "SlidingWindowMedian",
    "AdaptiveMedian",
    "AutoRegressive",
    "default_forecasters",
    "AdaptivePredictor",
    "ForecasterScore",
    "MeasurementSeries",
    "Sensor",
    "NWS_DEFAULT_PERIOD",
    "NetworkWeatherService",
    "DegradationPolicy",
    "QualifiedForecast",
]
