"""Conformal-style online recalibration of served spreads.

When a model's rolling 2σ-coverage drifts below the SLO band, the
:class:`Recalibrator` widens every subsequent answer's spread by a
multiplicative scale solved from the evidence itself: the empirical
``nominal``-quantile of the rolling base z-scores (``|outcome - mean|``
in units of the *unscaled* predictive σ) is the spread the world
actually needed; dividing by 2 (the claim is ``mean ± 2σ``) gives the
scale that would have covered exactly ``nominal`` of the window.  This
is split-conformal calibration run continuously: distribution-free,
model-agnostic, and driven only by realised residuals.

Control runs at a fixed observation cadence (``control_interval``), so
a burst of bad luck can't thrash the scale, and it is symmetric:
scales shrink back toward 1 when coverage overshoots the band.  A
model whose required scale exceeds ``max_scale`` is *flagged for
re-fit* — at that point the structural model is wrong in a way a wider
interval cannot honestly paper over.  Every adjustment is recorded as
a :class:`RecalibrationEvent` and tagged on every affected response
(``DistributionInfo.recalibrated``) — never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calib.scorer import DEFAULT_WINDOW, ModelScore
from repro.core.normal import TWO_SIGMA_COVERAGE

__all__ = [
    "RecalibrationPolicy",
    "RecalibrationEvent",
    "Recalibrator",
    "REASON_WIDEN",
    "REASON_SHRINK",
    "REASON_REFIT",
]

#: Event reasons.
REASON_WIDEN = "widen"
REASON_SHRINK = "shrink"
REASON_REFIT = "refit_flag"


@dataclass(frozen=True)
class RecalibrationPolicy:
    """When and how the recalibrator acts.

    Attributes
    ----------
    nominal:
        Target coverage of the served ``mean ± 2σ`` claim.
    slo_low, slo_high:
        The acceptable rolling-coverage band.  Below ``slo_low`` the
        recalibrator widens; above ``slo_high`` (with an active scale)
        it shrinks back toward 1.
    window:
        Rolling-window length the coverage and z-quantile read from.
    control_interval:
        Observations between control decisions per model.
    min_observations:
        Observations required before the first decision (a cold model's
        coverage estimate is noise).
    max_scale:
        Widest honest correction.  A required scale beyond this flags
        the model for re-fit instead of widening further.

    Over-coverage always relaxes an active scale, but never below 1:
    narrowing a model's own claimed spread is the modeller's call, not
    the recalibrator's.
    """

    nominal: float = TWO_SIGMA_COVERAGE
    slo_low: float = 0.90
    slo_high: float = 0.99
    window: int = DEFAULT_WINDOW
    control_interval: int = 40
    min_observations: int = 40
    max_scale: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.slo_low < self.nominal < 1.0:
            raise ValueError(
                f"need 0 < slo_low < nominal < 1, got slo_low={self.slo_low}, "
                f"nominal={self.nominal}"
            )
        if not self.nominal <= self.slo_high <= 1.0:
            raise ValueError(f"slo_high must be in [nominal, 1], got {self.slo_high}")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.control_interval < 1:
            raise ValueError(f"control_interval must be >= 1, got {self.control_interval}")
        if self.min_observations < 2:
            raise ValueError(f"min_observations must be >= 2, got {self.min_observations}")
        if self.max_scale <= 1.0:
            raise ValueError(f"max_scale must be > 1, got {self.max_scale}")


@dataclass(frozen=True)
class RecalibrationEvent:
    """One control decision that changed (or flagged) a model's scale."""

    model: str
    at_observation: int
    reason: str
    old_scale: float
    new_scale: float
    rolling_coverage: float
    required_scale: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "at_observation": self.at_observation,
            "reason": self.reason,
            "old_scale": self.old_scale,
            "new_scale": self.new_scale,
            "rolling_coverage": self.rolling_coverage,
            "required_scale": self.required_scale,
        }


@dataclass
class _ModelControl:
    scale: float = 1.0
    flagged: bool = False
    decisions: int = 0


class Recalibrator:
    """Per-model multiplicative spread correction under an SLO band."""

    def __init__(self, policy: RecalibrationPolicy | None = None, *, initial_scale: float = 1.0):
        self.policy = policy if policy is not None else RecalibrationPolicy()
        if initial_scale < 1.0:
            raise ValueError(f"initial_scale must be >= 1, got {initial_scale}")
        self._initial = float(initial_scale)
        self._models: dict[str, _ModelControl] = {}
        self.events: list[RecalibrationEvent] = []

    def _control(self, model: str) -> _ModelControl:
        ctl = self._models.get(model)
        if ctl is None:
            ctl = self._models[model] = _ModelControl(scale=self._initial)
        return ctl

    def scale(self, model: str) -> float:
        """The multiplicative spread correction currently applied."""
        return self._control(model).scale

    def flagged(self, model: str) -> bool:
        """True when the model needs re-fitting (scale alone can't fix it)."""
        return self._control(model).flagged

    def control(self, model: str, score: ModelScore) -> RecalibrationEvent | None:
        """Run one control check for ``model`` against its live score.

        Called once per scored observation; acts only every
        ``control_interval`` observations once ``min_observations`` have
        accrued.  Returns the event when the scale changed or the model
        was flagged, else ``None``.
        """
        pol = self.policy
        if score.n < pol.min_observations or score.n % pol.control_interval != 0:
            return None
        ctl = self._control(model)
        ctl.decisions += 1
        rolling = score.rolling_coverage
        # The spread the evidence demands: the nominal quantile of the
        # base z-scores, in units of the raw claim's 2σ half-width.
        required = score.z_quantile(pol.nominal) / 2.0
        event: RecalibrationEvent | None = None
        if rolling < pol.slo_low and required > ctl.scale:
            new_scale = min(required, pol.max_scale)
            reason = REASON_WIDEN
            if required > pol.max_scale and not ctl.flagged:
                # Widening to the cap is still applied, but a correction
                # this large means the model itself is wrong: flag it.
                ctl.flagged = True
                reason = REASON_REFIT
            event = RecalibrationEvent(
                model=model,
                at_observation=score.n,
                reason=reason,
                old_scale=ctl.scale,
                new_scale=new_scale,
                rolling_coverage=rolling,
                required_scale=required,
            )
            ctl.scale = new_scale
        elif ctl.scale > 1.0 and rolling > pol.slo_high and required < ctl.scale:
            new_scale = max(required, 1.0)
            event = RecalibrationEvent(
                model=model,
                at_observation=score.n,
                reason=REASON_SHRINK,
                old_scale=ctl.scale,
                new_scale=new_scale,
                rolling_coverage=rolling,
                required_scale=required,
            )
            ctl.scale = new_scale
        if event is not None:
            self.events.append(event)
        return event

    def summary(self) -> dict:
        """JSON-serialisable control state."""
        return {
            "scales": {m: c.scale for m, c in sorted(self._models.items())},
            "flagged": sorted(m for m, c in self._models.items() if c.flagged),
            "events": [e.to_dict() for e in self.events],
        }
