"""The full predictive distribution carried on a served answer.

:class:`DistributionInfo` is the serving protocol's distribution block:
a deterministic quantile-grid summary of the Monte Carlo draw cloud a
prediction was computed from (plus the mergeable sketch it came from,
and optionally a fitted Gaussian-mixture summary reusing
:mod:`repro.distributions.modal`).  It follows the repo's never-silent
rule: a distribution whose spread was widened by the
:class:`~repro.calib.recalibrate.Recalibrator` must carry
``recalibrated=True`` and its ``scale``; a scale without the tag (or a
tag without a scale) is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.calib.sketch import QuantileSketch, SketchRows
from repro.core.stochastic import StochasticValue
from repro.distributions.modal import fit_gaussian_mixture
from repro.util.columns import REQUIRED, Columns

__all__ = ["DistributionInfo", "DistributionBatch", "DEFAULT_GRID_SIZE", "grid_levels"]

#: Default number of quantile-grid points on a served distribution.
DEFAULT_GRID_SIZE = 32


def grid_levels(size: int) -> tuple[float, ...]:
    """Canonical uniform quantile levels ``(k + 0.5) / size``.

    Centered levels make the grid usable directly as the CRPS
    quantile-decomposition nodes (each level is the midpoint of an
    equal-probability band).
    """
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    return tuple((k + 0.5) / size for k in range(size))


def fit_modes(samples: np.ndarray, components: int) -> tuple:
    """The fitted Gaussian-mixture modes of one draw cloud: none unless
    ``components >= 2`` and there are two draws per component."""
    if components < 2 or samples.size < 2 * components:
        return ()
    # rng=None keeps the quantile-based EM init deterministic.
    return tuple(fit_gaussian_mixture(samples, components, rng=None).modes())


@dataclass(frozen=True)
class DistributionInfo:
    """A served predictive distribution.

    Attributes
    ----------
    count:
        Monte Carlo draws the distribution summarises.
    mean, std:
        Moments of the draw cloud, including any recalibration scaling.
        On a served answer they are the response's ``value`` summary
        (``value.mean``, ``value.spread / 2``) bit for bit: the server
        computes the moments once per evaluation and both read them.
    levels, quantiles:
        The quantile grid: ``quantiles[k]`` estimates the ``levels[k]``
        quantile of the predictive distribution (within the sketch's
        ``alpha`` relative error, scaled about the mean when
        recalibrated).
    sketch:
        The mergeable :class:`~repro.calib.sketch.QuantileSketch` over
        the *raw* draws.  Always pre-recalibration: the sketch is the
        evidence, the grid is the (possibly widened) claim.
    modes:
        Optional fitted Gaussian-mixture summary (weight/mean/std per
        mode) of the raw draws; empty unless the calibration config
        requested mixture fitting.
    recalibrated, scale:
        Whether — and by how much — the online
        :class:`~repro.calib.recalibrate.Recalibrator` widened this
        answer's spread about its mean.  Never silent: ``scale != 1``
        requires the tag and vice versa.
    """

    count: int
    mean: float
    std: float
    levels: tuple
    quantiles: tuple
    sketch: QuantileSketch
    modes: tuple = ()
    recalibrated: bool = False
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.std < 0.0:
            raise ValueError(f"std must be >= 0, got {self.std}")
        if len(self.levels) != len(self.quantiles) or len(self.levels) < 2:
            raise ValueError(
                f"levels/quantiles must be equal-length (>= 2), got "
                f"{len(self.levels)}/{len(self.quantiles)}"
            )
        if self.scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.recalibrated and self.scale == 1.0:
            raise ValueError(
                "a recalibrated distribution must carry its scale (never silent)"
            )
        if not self.recalibrated and self.scale != 1.0:
            raise ValueError(
                f"scale {self.scale} without the recalibrated tag (never silent)"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples,
        *,
        mixture_components: int = 0,
    ) -> "DistributionInfo":
        """Summarise a draw cloud (deterministic: no randomness consumed).

        The sketch has relative accuracy
        :data:`~repro.calib.sketch.DEFAULT_SKETCH_ALPHA` and the grid
        :data:`DEFAULT_GRID_SIZE` points, as on every served answer.
        ``mean``/``std`` use the same estimators as
        :class:`~repro.core.empirical.EmpiricalValue` (``ddof=1``), so
        the block agrees bit-for-bit with the response's ``value``.
        """
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size < 1:
            raise ValueError("need at least one sample")
        lv = grid_levels(DEFAULT_GRID_SIZE)
        sketch = QuantileSketch().extend(arr)
        qs = tuple(float(v) for v in sketch.quantiles(lv))
        std = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=std,
            levels=lv,
            quantiles=qs,
            sketch=sketch,
            modes=fit_modes(arr, mixture_components),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def spread(self) -> float:
        """Two standard deviations — the paper's ``a``."""
        return 2.0 * self.std

    def to_stochastic(self) -> StochasticValue:
        """The ``mean ± 2σ`` summary (post-recalibration)."""
        return StochasticValue(self.mean, self.spread)

    def contains(self, value: float) -> bool:
        """True when ``value`` falls inside ``mean ± 2σ`` (the paper's claim)."""
        return abs(value - self.mean) <= self.spread

    def quantile(self, q: float) -> float:
        """Grid-interpolated quantile at ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.interp(q, self.levels, self.quantiles))

    def cdf(self, x: float) -> float:
        """P(X <= x) by piecewise-linear inversion of the quantile grid.

        Clamped to ``[levels[0], levels[-1]]`` outside the grid — exact
        tail mass below the first grid point is not resolvable from the
        grid, and the PIT histogram's edge bins absorb the clamp.
        """
        return float(np.interp(x, self.quantiles, self.levels))

    def pit(self, outcome: float) -> float:
        """Probability integral transform of a realised outcome.

        Uniform on [0, 1] exactly when the served distribution matches
        the outcome's true distribution — the basis of the PIT
        histogram (see ``docs/calibration.md``).
        """
        return self.cdf(outcome)

    def crps(self, outcome: float) -> float:
        """Continuous ranked probability score against ``outcome``.

        Quantile (pinball-loss) decomposition over the grid:
        ``CRPS ≈ (2/K) Σ_k ρ_{τ_k}(outcome - q_k)`` — exact as the grid
        refines, proper for any predictive shape, and lower is better.
        """
        qs = np.asarray(self.quantiles)
        taus = np.asarray(self.levels)
        below = (outcome < qs).astype(float)
        return float(np.mean(2.0 * (taus - below) * (outcome - qs)))

    def widened(self, factor: float) -> "DistributionInfo":
        """A copy with spread scaled by ``factor`` about the mean.

        The quantile grid and ``std`` scale; the sketch and ``modes``
        stay raw (they are the evidence the widening was applied *to*).
        The copy is tagged ``recalibrated`` with the cumulative scale.
        """
        if factor <= 0.0:
            raise ValueError(f"widening factor must be > 0, got {factor}")
        if factor == 1.0:
            return self
        scale = self.scale * factor
        return replace(
            self,
            std=self.std * factor,
            quantiles=tuple(self.mean + (q - self.mean) * factor for q in self.quantiles),
            recalibrated=scale != 1.0,
            scale=scale,
        )

    def to_dict(self, *, include_sketch: bool = False) -> dict:
        """JSON-serialisable summary."""
        doc = {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "levels": list(self.levels),
            "quantiles": list(self.quantiles),
            "recalibrated": self.recalibrated,
            "scale": self.scale,
        }
        if self.modes:
            doc["modes"] = [
                {"weight": m.weight, "mean": m.mean, "std": m.std} for m in self.modes
            ]
        if include_sketch:
            doc["sketch"] = self.sketch.to_dict()
        return doc


class DistributionBatch(Columns):
    """The distribution blocks of one evaluated batch, as columns.

    The serving hot path keeps a batch's draw counts, moments, quantile
    grids and sketches as arrays, scores them as arrays, and builds a
    row's :class:`DistributionInfo` only when it is read (``batch[j]``).
    ``sketches`` holds the rows' raw-draw sketches (a :class:`SketchRows`
    or a list) and ``modes`` their fitted mixtures (``None``: none
    fitted).  The columns stay raw; ``scale`` is the recalibration
    widening every row carries (``1.0``: none), applied to a read row by
    :meth:`DistributionInfo.widened` — so ``batch[j]`` equals the block
    an eager build would have served, field for field.
    """

    _ROWS = {"count": np.int64, "mean": float, "std": float, "quantiles": float}
    _SIDECARS = {"sketches": None, "modes": ()}
    _SHARED = {"levels": REQUIRED, "scale": 1.0}
    __slots__ = (*_ROWS, *_SIDECARS, *_SHARED)

    def __getitem__(self, j: int) -> DistributionInfo:
        sketch = self.sketches[j]
        if not isinstance(self.sketches, SketchRows):
            # Rows of one evaluation group share a sketch object; each
            # read gets its own, as SketchRows reads do.
            sketch = QuantileSketch.merged([sketch])
        info = DistributionInfo(
            count=int(self.count[j]),
            mean=float(self.mean[j]),
            std=float(self.std[j]),
            levels=self.levels,
            quantiles=tuple(self.quantiles[j].tolist()),
            sketch=sketch,
            modes=() if self.modes is None else self.modes[j],
        )
        return info.widened(self.scale) if self.scale != 1.0 else info

    def widened(self, factor: float) -> "DistributionBatch":
        """Every row widened by ``factor`` (see :meth:`DistributionInfo.widened`)."""
        if factor <= 0.0:
            raise ValueError(f"widening factor must be > 0, got {factor}")
        return self._with(scale=self.scale * factor)

    def served(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(std, quantiles, scale)`` as served: the columns widened
        about the mean by ``scale`` with the arithmetic of
        :meth:`DistributionInfo.widened`, and the scale per row."""
        scale = np.full(len(self), self.scale)
        if self.scale == 1.0:
            return self.std, self.quantiles, scale
        mean = self.mean[:, None]
        return self.std * self.scale, mean + (self.quantiles - mean) * self.scale, scale
