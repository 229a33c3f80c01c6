"""The closed calibration loop a prediction server runs in-process.

:class:`CalibrationLoop` owns everything the serving layer needs to
turn answers into distributions and distributions into scores:

* build the :class:`~repro.calib.distribution.DistributionBatch` of each
  served batch's Monte Carlo draw clouds (captured before
  summarisation) in one vectorised pass, mixture fits included;
* simulate the **realised outcome** for each answered request by
  drawing once from the model's *truth* distribution — by default the
  served model itself (a well-calibrated world), optionally a different
  :class:`~repro.serving.server.ModelSpec` or a spread-distorted copy
  (``truth_spread_scale``) to stage miscalibration chaos scenarios;
* score ``(served distribution, outcome)`` rows with
  :func:`~repro.calib.scorer.score_rows`, fold them into the shared
  :class:`~repro.calib.scorer.CalibrationScorer` and run the
  :class:`~repro.calib.recalibrate.Recalibrator` control law, emitting
  ``calib.score`` / ``calib.recalibrate`` spans and lazy metrics.

Scoring is *deferred*: answered requests queue on the loop and are
scored in per-model flushes of ``flush_every`` answers (and at
``summary()``), which amortises the truth-model evaluation across many
requests — mirroring production, where realised outcomes arrive well
after the answer was served.  Control decisions therefore take effect
at flush boundaries.

Determinism: the loop draws outcomes from an RNG child *spawned* from
the server's generator (spawning never consumes the parent bit stream),
so enabling calibration leaves the serving draw sequence untouched and
seeded runs stay bit-reproducible.  With ``calibration=None`` the
server never constructs a loop and behaviour is byte-identical to
previous releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.calib.distribution import (
    DEFAULT_GRID_SIZE,
    DistributionBatch,
    fit_modes,
    grid_levels,
)
from repro.calib.recalibrate import RecalibrationEvent, RecalibrationPolicy, Recalibrator
from repro.calib.scorer import CalibrationScorer, score_rows
from repro.calib.sketch import DEFAULT_SKETCH_ALPHA, build_sketches
from repro.core.stochastic import StochasticValue
from repro.nws.service import QUALITIES
from repro.obs.tracer import STAGE_CALIB, as_tracer
from repro.structural.engine import (
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
)
from repro.structural.montecarlo import _reference_loop

__all__ = ["CalibrationConfig", "CalibrationLoop"]

#: Seed for the stand-alone fallback outcome stream when the serving
#: generator cannot spawn children (mirrors SequentialProbe's fallback).
_FALLBACK_SEED = 0x5EED_CA11B

#: CRPS histogram bucket bounds (seconds of execution-time error mass).
_CRPS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for the in-server calibration loop.

    Every answer carries its raw-draw sketch and quantile grid (see
    :meth:`~repro.calib.distribution.DistributionInfo.from_samples`) and
    is scored.

    Attributes
    ----------
    mixture_components:
        0, or >= 2: each answer also carries a fitted Gaussian-mixture
        summary with this many components (deterministic EM init).
    recalibrate:
        Run the conformal recalibration control law.
    policy:
        The :class:`~repro.calib.recalibrate.RecalibrationPolicy` SLO
        band and cadence.
    initial_scale:
        Spread scale every model starts at (finite, >= 1).  Mostly for
        benchmarks that need an oracle-widened baseline in a distorted
        world.
    flush_every:
        Answers queued per model before outcomes are simulated and
        scored in one deferred flush (amortises the truth-model
        evaluation; outcomes in production arrive after the answer
        anyway).  ``summary()`` flushes any remainder.
    truth_spread_scale:
        Chaos knob: realised outcomes are drawn with every stochastic
        parameter's spread multiplied by this finite factor.  ``2.0``
        stages the "structural spread deliberately halved" scenario —
        the world is twice as variable as the model claims.
    """

    mixture_components: int = 0
    recalibrate: bool = True
    policy: RecalibrationPolicy = field(default_factory=RecalibrationPolicy)
    initial_scale: float = 1.0
    flush_every: int = 256
    truth_spread_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mixture_components < 0 or self.mixture_components == 1:
            raise ValueError(
                f"mixture_components must be 0 or >= 2, got {self.mixture_components}"
            )
        if not (math.isfinite(self.initial_scale) and self.initial_scale >= 1.0):
            raise ValueError(f"initial_scale must be finite and >= 1, got {self.initial_scale}")
        if self.flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {self.flush_every}")
        if not (math.isfinite(self.truth_spread_scale) and self.truth_spread_scale > 0.0):
            raise ValueError(
                f"truth_spread_scale must be finite and > 0, got {self.truth_spread_scale}"
            )


def _spawn_child(source) -> np.random.Generator:
    """An independent child stream that leaves ``source`` untouched."""
    try:
        return source.spawn(1)[0]
    except (TypeError, ValueError, AttributeError):
        # Generators built without a SeedSequence cannot spawn; a
        # stand-alone stream keeps the loop deterministic per process.
        return np.random.default_rng(_FALLBACK_SEED)


class CalibrationLoop:
    """Distribution building, outcome simulation, scoring, recalibration."""

    def __init__(self, config: CalibrationConfig, rng, *, tracer=None, metrics=None):
        self.config = config
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self._rng = _spawn_child(rng)
        self._truth: dict[str, object] = {}
        self.scorer = CalibrationScorer(nominal=config.policy.nominal, window=config.policy.window)
        self.recalibrator = (
            Recalibrator(config.policy, initial_scale=config.initial_scale)
            if config.recalibrate
            else None
        )
        self._levels = grid_levels(DEFAULT_GRID_SIZE)
        self._levels_arr = np.asarray(self._levels, dtype=float)
        # Deferred-scoring queue: per model, (quality codes, dists,
        # group values, group codes) chunks of served batches awaiting
        # outcome simulation.
        self._pending: dict[str, list[tuple]] = {}
        self._queued: dict[str, int] = {}  # rows in each model's queue
        self._last_t = 0.0
        # Compiled truth plans (None = reference fallback), keyed by
        # model; avoids re-hashing the expression every flush.
        self._plans: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec, truth=None) -> None:
        """Declare the truth model outcomes for ``spec`` are drawn from.

        ``truth=None`` uses the served spec itself (a well-calibrated
        world up to ``truth_spread_scale``); a different spec stages a
        model-is-wrong scenario.
        """
        self._truth[spec.name] = truth if truth is not None else spec
        self._plans.pop(spec.name, None)

    # ------------------------------------------------------------------
    # Distribution building
    # ------------------------------------------------------------------
    def distributions(self, samples, mean, std) -> DistributionBatch:
        """Distribution blocks for a whole batch of draw clouds.

        ``samples`` is a ``(rows, draws)`` matrix or a list of per-row
        draw arrays, and ``mean``/``std`` their moments as the caller
        summarised them (the server's answer summary: the blocks do not
        recompute them).  Row ``j`` of the result reads as
        ``DistributionInfo.from_samples(samples[j], mixture_components=...)``,
        field for field, but sketches and quantile grids come from one
        fused vectorised pass (:func:`~repro.calib.sketch.build_sketches`)
        — the serving hot path.  With ``mixture_components`` set, each
        row's fitted mixture goes into the batch's ``modes`` column.
        """
        if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] >= 2:
            # A matrix iterates as its rows, like the ragged list below.
            arrays = np.ascontiguousarray(samples, dtype=float)
            counts = np.full(arrays.shape[0], arrays.shape[1])
        else:
            arrays = [np.asarray(s, dtype=float).ravel() for s in samples]
            counts = [a.size for a in arrays]
        sketches, qmat = build_sketches(arrays, DEFAULT_SKETCH_ALPHA, levels=self._levels_arr)
        k = self.config.mixture_components
        modes = [fit_modes(a, k) for a in arrays] if k else None
        return DistributionBatch(
            count=counts, mean=mean, std=std, quantiles=qmat, sketches=sketches, modes=modes,
            levels=self._levels,
        )

    def scale(self, model: str) -> float:
        """The recalibration spread scale currently applied to ``model``.

        Without a recalibrator the configured ``initial_scale`` still
        applies (a fixed oracle widening, e.g. the benchmark baseline
        that knows the world's true spread).
        """
        if self.recalibrator is None:
            return self.config.initial_scale
        return self.recalibrator.scale(model)

    def flagged(self, model: str) -> bool:
        """True when ``model`` has been flagged for re-fit."""
        return self.recalibrator is not None and self.recalibrator.flagged(model)

    # ------------------------------------------------------------------
    # Outcome simulation
    # ------------------------------------------------------------------
    def realise(self, model: str, values: list[dict], codes) -> np.ndarray:
        """One realised outcome per request, drawn from the truth model.

        Request ``i`` stood on ``values[codes[i]]``: the resolved
        :class:`~repro.core.stochastic.StochasticValue` of every run-time
        parameter (live forecast or override), one dict per evaluation
        group — the same values the served answer stood on, so
        prediction and outcome disagree only by sampling noise and any
        configured truth distortion.  Per parameter, requests that share
        a value draw theirs in one RNG call (in request order, distinct
        values in sorted order), and one vectorised plan evaluation
        covers the batch (each "draw" is one request's realisation).
        """
        truth = self._truth.get(model)
        if truth is None:
            raise KeyError(f"no truth model registered for {model!r}")
        codes = np.asarray(codes, dtype=np.intp)
        k_total = codes.size
        draws: dict[str, np.ndarray] = {}
        for param in truth.sampled:
            bounds = truth.clip.get(param) if truth.clip else None
            default = truth.bindings.resolve(param)
            pairs = [(sv.mean, sv.spread) for sv in (v.get(param, default) for v in values)]
            distinct = sorted(set(pairs))
            if len(distinct) == 1:
                arr = self._outcomes(*distinct[0], k_total)
            else:
                slot = {pair: g for g, pair in enumerate(distinct)}
                row = np.fromiter(map(slot.__getitem__, pairs), np.intp, len(pairs))[codes]
                arr = np.empty(k_total)
                for g, (mean, spread) in enumerate(distinct):
                    idxs = np.flatnonzero(row == g)
                    arr[idxs] = self._outcomes(mean, spread, idxs.size)
            if bounds is not None:
                arr = np.clip(arr, *bounds)
            draws[param] = arr
        if model not in self._plans:
            try:
                self._plans[model] = compile_expr(
                    truth.expression, truth.sampled, policy=truth.policy, tracer=self.tracer
                )
            except (UnsupportedPolicyError, UnsupportedExpressionError):
                self._plans[model] = None
        plan = self._plans[model]
        if plan is None:
            # Reference fallback: one tree walk per request on the
            # already-drawn parameter realisations.
            return _reference_loop(truth.expression, truth.bindings, truth.sampled, draws, k_total)
        return plan.evaluate(draws, truth.bindings, n_samples=k_total)

    def _outcomes(self, mean: float, spread: float, n: int) -> np.ndarray:
        """``n`` realisations of one parameter value, spread distorted."""
        spread *= self.config.truth_spread_scale
        if spread == 0.0:
            return np.full(n, mean)
        return StochasticValue(mean, spread).sample(n, self._rng)

    # ------------------------------------------------------------------
    # Scoring + control
    # ------------------------------------------------------------------
    def enqueue(
        self,
        model: str,
        quality: np.ndarray,
        dists: DistributionBatch,
        values: list[dict],
        codes: np.ndarray,
        t: float,
    ) -> None:
        """Queue one batch of served answers for deferred outcome scoring.

        Row ``j`` is an answer of forecast quality
        ``QUALITIES[quality[j]]`` serving ``dists[j]``; ``values`` holds
        the resolved per-parameter
        :class:`~repro.core.stochastic.StochasticValue` forecasts of each
        evaluation group (the values an answer stood on) and ``codes[j]``
        row ``j``'s group.  Each time ``flush_every`` answers are queued
        for ``model`` they are realised and scored in one flush — at the
        same answer a one-at-a-time queue would flush at; ``summary()``
        drains any remainder.
        """
        self._last_t = t
        quality = np.asarray(quality, dtype=np.int8)
        codes = np.asarray(codes, dtype=np.intp)
        k, lo = len(dists), 0
        while lo < k:
            room = self.config.flush_every - self._queued.get(model, 0)
            hi = min(k, lo + room)
            rows = slice(lo, hi)
            chunk = (quality[rows], dists.take(rows), values, codes[rows])
            self._pending.setdefault(model, []).append(chunk)
            self._queued[model] = self._queued.get(model, 0) + hi - lo
            if hi - lo == room:
                self._flush(model, t)
            lo = hi

    def pending(self, model: str | None = None) -> int:
        """Queued-but-unscored answers (for ``model``, or in total)."""
        if model is None:
            return sum(self._queued.values())
        return self._queued.get(model, 0)

    def flush(self, t: float | None = None) -> None:
        """Score every queued answer now (sorted by model for determinism)."""
        at = self._last_t if t is None else t
        for model in sorted(self._pending):
            self._flush(model, at)

    def _flush(self, model: str, t: float) -> None:
        """Realise outcomes for one model's queue and score them.

        Failures never break serving: on any exception the queue is
        dropped, the span (if any) is finished with an error outcome
        and ``calib_errors_total`` counts it.
        """
        queue = self._pending.pop(model, [])
        self._queued.pop(model, None)
        if not queue:
            return
        span = None
        try:
            scale = self.scale(model)
            quality = np.concatenate([chunk[0] for chunk in queue])
            served = [chunk[1].served() for chunk in queue]
            if self.tracer.enabled:
                span = self.tracer.start_span(
                    "calib.score",
                    t,
                    stage=STAGE_CALIB,
                    new_trace=True,
                    model=model,
                    batch_size=len(quality),
                    scale=scale,
                )
            values, codes, base = [], [], 0
            for chunk in queue:
                values += chunk[2]
                codes.append(chunk[3] + base)
                base += len(chunk[2])
            y = np.asarray(self.realise(model, values, np.concatenate(codes)), dtype=float)
            covered_a, crps_a, pit_bins, z_a, mae_a, sharp_a = score_rows(
                np.concatenate([chunk[1].mean for chunk in queue]),
                *(np.concatenate(col) for col in zip(*served)),
                self._levels_arr,
                y,
            )
            k = len(quality)
            sc = self.scorer.score(model)
            # Ingest in chunks split at the control cadence: control()
            # acts only when score.n hits a multiple of its interval, so
            # running it once per chunk boundary is decision-for-decision
            # identical to running it after every observation.
            if self.recalibrator is not None:
                interval = self.recalibrator.policy.control_interval
                cuts = list(range(interval - sc.n % interval, k + 1, interval))
            else:
                cuts = []
            if not cuts or cuts[-1] != k:
                cuts.append(k)
            lo = 0
            for hi in cuts:
                sl = slice(lo, hi)
                sc.ingest_many(
                    covered_a[sl], crps_a[sl], pit_bins[sl], z_a[sl], mae_a[sl], sharp_a[sl]
                )
                if self.recalibrator is not None:
                    event = self.recalibrator.control(model, sc)
                    if event is not None:
                        self._note_event(event, t)
                lo = hi
            for q in np.unique(quality).tolist():
                ii = np.flatnonzero(quality == q)
                self.scorer.cohort(QUALITIES[q]).ingest_many(
                    covered_a[ii], crps_a[ii], pit_bins[ii], z_a[ii], mae_a[ii], sharp_a[ii]
                )
            covered = int(covered_a.sum())
            m = self.metrics
            if m is not None:
                m.histogram("calib_crps", _CRPS_BUCKETS).observe_many(crps_a)
                m.counter("calib_observations_total").inc(k)
                m.counter("calib_covered_total").inc(covered)
                m.gauge(f"calib_coverage_{model}").set(sc.rolling_coverage)
            if span is not None:
                span.set(covered=covered)
                span.finish(t)
                span = None
        except Exception:  # noqa: BLE001 - scoring must never break serving
            if span is not None:
                span.set(outcome="error").finish(t)
            if self.metrics is not None:
                self.metrics.counter("calib_errors_total").inc()

    def _note_event(self, event: RecalibrationEvent, t: float) -> None:
        """Metrics + span for one recalibration event (never silent)."""
        m = self.metrics
        if m is not None:
            m.counter("calib_recalibrations_total").inc()
            if event.reason == "refit_flag":
                m.counter("calib_refit_flags_total").inc()
            m.gauge(f"calib_scale_{event.model}").set(event.new_scale)
        if self.tracer.enabled:
            self.tracer.start_span(
                "calib.recalibrate",
                t,
                stage=STAGE_CALIB,
                new_trace=True,
                model=event.model,
                reason=event.reason,
                old_scale=event.old_scale,
                new_scale=event.new_scale,
                rolling_coverage=event.rolling_coverage,
                required_scale=event.required_scale,
                at_observation=event.at_observation,
            ).finish(t)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-serialisable loop state (scores + control).

        Flushes any queued answers first, so end-of-run reports cover
        everything that was served.
        """
        self.flush()
        doc: dict = {
            "enabled": True,
            "truth_spread_scale": self.config.truth_spread_scale,
            "scores": self.scorer.summary(),
        }
        if self.recalibrator is not None:
            doc["recalibration"] = self.recalibrator.summary()
        return doc
