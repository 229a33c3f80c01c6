"""Modal load characterisation from NWS measurement history.

Section 2.1.2's prescription for long-running applications under
mode-switching load: "we can calculate an approximate stochastic value by
averaging the modal distributions based on the percentage of time the
application executes in each mode" —

    P1 (M1 +/- SD1) + P2 (M2 +/- SD2) + P3 (M3 +/- SD3).

:class:`ModalLoadCharacterizer` implements the full path: fit a Gaussian
mixture to the measurement history (the modes ``M_i +/- SD_i`` and their
occupancies ``P_i``), then combine them — either with the paper's literal
linear formula or with moment matching of the mode *mixture* (which keeps
the between-mode variance; see :mod:`repro.distributions.mixture`).

Model-selection note: the number of modes is chosen by BIC over a small
candidate range, so callers do not need to know the platform's modality
in advance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.stochastic import StochasticValue
from repro.distributions.mixture import combine_modes_linear, combine_modes_mixture
from repro.distributions.modal import GaussianMixture1D, fit_gaussian_mixture
from repro.util.validation import check_array_1d

__all__ = ["ModalCombination", "ModalLoadCharacterizer", "select_n_modes_bic"]


class ModalCombination(enum.Enum):
    """How detected modes are folded into one stochastic value."""

    #: The paper's literal formula: ``sum P_i (M_i +/- SD_i)``.
    LINEAR = "linear"
    #: Moment matching of the mode mixture (adds between-mode variance).
    MIXTURE = "mixture"


def _bic(gmm: GaussianMixture1D, n_samples: int) -> float:
    """Bayesian information criterion of a fitted 1-D mixture."""
    k = 3 * gmm.n_components - 1  # weights (k-1) + means (k) + stds (k)
    return k * math.log(n_samples) - 2.0 * gmm.log_likelihood


def select_n_modes_bic(data, max_modes: int = 5) -> GaussianMixture1D:
    """Fit mixtures with 1..max_modes components and return the BIC winner."""
    arr = check_array_1d(data, "data")
    if max_modes < 1:
        raise ValueError(f"max_modes must be >= 1, got {max_modes}")
    best: GaussianMixture1D | None = None
    best_bic = math.inf
    for k in range(1, max_modes + 1):
        if arr.size < 2 * k:
            break
        gmm = fit_gaussian_mixture(arr, k)
        score = _bic(gmm, arr.size)
        if score < best_bic:
            best, best_bic = gmm, score
    assert best is not None  # max_modes >= 1 and data non-empty
    return best


@dataclass(frozen=True)
class ModalLoadCharacterizer:
    """Derives a Section 2.1.2 stochastic load value from measurements.

    Attributes
    ----------
    combination:
        LINEAR (the paper's formula) or MIXTURE (moment-matched).
    max_modes:
        Upper bound for BIC mode selection.
    min_history:
        Minimum measurements before modal analysis; shorter histories
        fall back to the plain ``mean +/- 2*std`` summary.
    """

    combination: ModalCombination = ModalCombination.MIXTURE
    max_modes: int = 5
    min_history: int = 30

    def characterize(self, measurements) -> StochasticValue:
        """The combined stochastic value for a measurement history."""
        arr = check_array_1d(measurements, "measurements")
        if arr.size < self.min_history or float(arr.std()) < 1e-9:
            return StochasticValue.from_samples(arr) if arr.size > 1 else StochasticValue.point(
                float(arr[0])
            )
        gmm = select_n_modes_bic(arr, self.max_modes)
        modes = gmm.modes()
        if self.combination is ModalCombination.LINEAR:
            return combine_modes_linear(modes)
        return combine_modes_mixture(modes)

    def from_sensor(self, sensor, window_seconds: float) -> StochasticValue:
        """Characterise a sensor's trailing measurement window."""
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if not sensor.series:
            raise RuntimeError(f"no measurements yet for {sensor.resource!r}")
        values = sensor.series.values_since(sensor.series.last_time - window_seconds)
        return self.characterize(values)
