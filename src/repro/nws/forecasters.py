"""The Network Weather Service forecaster family.

Wolski's NWS [Wol96, Wol97, WSP97] maintains a set of simple,
constant-time forecasting methods and, for each prediction, reports the
output of whichever method has accumulated the lowest error so far.  This
module implements the family; :mod:`repro.nws.predictor` implements the
adaptive selection.

Every forecaster follows the same protocol: ``predict()`` returns the
forecast for the *next* measurement (None until it has enough history),
``observe(value)`` feeds the measurement in.  The predictor always calls
``predict`` before ``observe`` so accumulated errors are honest
(out-of-sample, one step ahead).
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "ExponentialSmoothing",
    "SlidingWindowMedian",
    "AdaptiveMedian",
    "AutoRegressive",
    "default_forecasters",
]


class Forecaster:
    """Base class: one-step-ahead forecasting over a scalar series."""

    #: Display name; subclasses set something descriptive.
    name: str = "base"

    def predict(self) -> float | None:
        """Forecast of the next measurement, or None without history."""
        raise NotImplementedError

    def observe(self, value: float) -> None:
        """Feed one measurement."""
        raise NotImplementedError


class LastValue(Forecaster):
    """Predicts the most recent measurement."""

    name = "last_value"

    def __init__(self) -> None:
        self._last: float | None = None

    def predict(self) -> float | None:
        return self._last

    def observe(self, value: float) -> None:
        self._last = float(value)


class RunningMean(Forecaster):
    """Predicts the mean of the entire history."""

    name = "running_mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def predict(self) -> float | None:
        if self._n == 0:
            return None
        return self._sum / self._n

    def observe(self, value: float) -> None:
        self._sum += float(value)
        self._n += 1


class SlidingWindowMean(Forecaster):
    """Predicts the mean of the last ``window`` measurements."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.name = f"mean_w{window}"
        self._buf: deque[float] = deque(maxlen=window)

    def predict(self) -> float | None:
        if not self._buf:
            return None
        return float(np.mean(self._buf))

    def observe(self, value: float) -> None:
        self._buf.append(float(value))


class ExponentialSmoothing(Forecaster):
    """Exponentially smoothed estimate with gain ``g``.

    ``estimate <- (1 - g) * estimate + g * value``; the NWS runs several
    gains in parallel and lets the error tournament choose.
    """

    def __init__(self, gain: float):
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        self.gain = gain
        self.name = f"exp_g{gain:g}"
        self._estimate: float | None = None

    def predict(self) -> float | None:
        return self._estimate

    def observe(self, value: float) -> None:
        if self._estimate is None:
            self._estimate = float(value)
        else:
            self._estimate = (1.0 - self.gain) * self._estimate + self.gain * float(value)


class SlidingWindowMedian(Forecaster):
    """Predicts the median of the last ``window`` measurements.

    Medians track modal load data better than means: an occasional burst
    sample does not drag the forecast off the resident mode.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.name = f"median_w{window}"
        self._buf: deque[float] = deque(maxlen=window)

    def predict(self) -> float | None:
        if not self._buf:
            return None
        return float(np.median(self._buf))

    def observe(self, value: float) -> None:
        self._buf.append(float(value))


class AdaptiveMedian(Forecaster):
    """Median over a window that shrinks when the series jumps.

    When a new measurement deviates from the current median by more than
    ``jump_factor`` times the window's interquartile spread, history is
    flushed — the series has probably switched modes, and old samples
    would bias the forecast toward the dead mode.
    """

    def __init__(self, max_window: int = 32, jump_factor: float = 3.0):
        if max_window < 2:
            raise ValueError(f"max_window must be >= 2, got {max_window}")
        if jump_factor <= 0:
            raise ValueError(f"jump_factor must be > 0, got {jump_factor}")
        self.max_window = max_window
        self.jump_factor = jump_factor
        self.name = f"adaptive_median_w{max_window}"
        self._buf: deque[float] = deque(maxlen=max_window)

    def predict(self) -> float | None:
        if not self._buf:
            return None
        return float(np.median(self._buf))

    def observe(self, value: float) -> None:
        value = float(value)
        if len(self._buf) >= 4:
            arr = np.asarray(self._buf)
            med = float(np.median(arr))
            q75, q25 = np.percentile(arr, [75, 25])
            iqr = max(float(q75 - q25), 1e-6)
            if abs(value - med) > self.jump_factor * iqr:
                self._buf.clear()
        self._buf.append(value)


class AutoRegressive(Forecaster):
    """AR(1) forecast fit over a sliding window by least squares.

    ``x[t+1] ~ mean + phi * (x[t] - mean)`` with ``phi`` estimated from
    the window's lag-1 autocovariance.  Falls back to the window mean
    until the window holds enough points or the variance is degenerate.
    """

    def __init__(self, window: int = 32):
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        self.window = window
        self.name = f"ar1_w{window}"
        self._buf: deque[float] = deque(maxlen=window)

    def predict(self) -> float | None:
        if not self._buf:
            return None
        arr = np.asarray(self._buf)
        if arr.size < 4:
            return float(arr.mean())
        mean = arr.mean()
        centered = arr - mean
        denom = float(centered[:-1] @ centered[:-1])
        if denom < 1e-12:
            return float(mean)
        phi = float(centered[1:] @ centered[:-1]) / denom
        phi = float(np.clip(phi, -0.999, 0.999))
        return float(mean + phi * centered[-1])

    def observe(self, value: float) -> None:
        self._buf.append(float(value))


def default_forecasters() -> list[Forecaster]:
    """The standard NWS-style tournament entry list."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(4),
        SlidingWindowMean(16),
        SlidingWindowMean(64),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.6),
        SlidingWindowMedian(5),
        SlidingWindowMedian(21),
        AdaptiveMedian(32),
        AutoRegressive(32),
    ]
