"""The closed calibration loop a prediction server runs in-process.

:class:`CalibrationLoop` owns everything the serving layer needs to
turn answers into distributions and distributions into scores:

* build a :class:`~repro.calib.distribution.DistributionInfo` from each
  request's Monte Carlo draw cloud (captured before summarisation);
* simulate the **realised outcome** for each answered request by
  drawing once from the model's *truth* distribution — by default the
  served model itself (a well-calibrated world), optionally a different
  :class:`~repro.serving.server.ModelSpec` or a spread-distorted copy
  (``truth_spread_scale``) to stage miscalibration chaos scenarios;
* feed ``(served distribution, outcome)`` pairs to the shared
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

from dataclasses import dataclass, field

import numpy as np

from repro.calib.distribution import (
    DEFAULT_GRID_SIZE,
    DistributionBatch,
    DistributionInfo,
    grid_levels,
)
from repro.calib.recalibrate import RecalibrationEvent, RecalibrationPolicy, Recalibrator
from repro.calib.scorer import PIT_BINS, CalibrationScorer
from repro.calib.sketch import DEFAULT_SKETCH_ALPHA, build_sketches
from repro.core.stochastic import StochasticValue
from repro.obs.tracer import STAGE_CALIB, as_tracer
from repro.structural.engine import (
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
)

__all__ = ["CalibrationConfig", "CalibrationLoop"]

#: Seed for the stand-alone fallback outcome stream when the serving
#: generator cannot spawn children (mirrors SequentialProbe's fallback).
_FALLBACK_SEED = 0x5EED_CA11B

#: CRPS histogram bucket bounds (seconds of execution-time error mass).
_CRPS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs for the in-server calibration loop.

    Attributes
    ----------
    alpha:
        Relative accuracy of the per-answer quantile sketch.
    grid:
        Number of quantile-grid points carried on each answer.
    mixture_components:
        When >= 2, each answer also carries a fitted Gaussian-mixture
        summary with this many components (deterministic EM init).
    keep_sketch:
        Whether responses keep the full mergeable sketch object (on by
        default; turn off to shed per-response memory when only the
        grid is wanted).
    score:
        Maintain online CRPS/PIT/coverage scores against simulated
        realised outcomes.
    recalibrate:
        Run the conformal recalibration control law (requires
        ``score``).
    policy:
        The :class:`~repro.calib.recalibrate.RecalibrationPolicy` SLO
        band and cadence.
    initial_scale:
        Spread scale every model starts at (>= 1).  Mostly for
        benchmarks that need an oracle-widened baseline in a distorted
        world.
    flush_every:
        Answers queued per model before outcomes are simulated and
        scored in one deferred flush (amortises the truth-model
        evaluation; outcomes in production arrive after the answer
        anyway).  ``summary()`` flushes any remainder.
    truth_spread_scale:
        Chaos knob: realised outcomes are drawn with every stochastic
        parameter's spread multiplied by this factor.  ``2.0`` stages
        the "structural spread deliberately halved" scenario — the
        world is twice as variable as the model claims.
    """

    alpha: float = DEFAULT_SKETCH_ALPHA
    grid: int = DEFAULT_GRID_SIZE
    mixture_components: int = 0
    keep_sketch: bool = True
    score: bool = True
    recalibrate: bool = True
    policy: RecalibrationPolicy = field(default_factory=RecalibrationPolicy)
    initial_scale: float = 1.0
    flush_every: int = 256
    truth_spread_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid}")
        if self.mixture_components < 0:
            raise ValueError(
                f"mixture_components must be >= 0, got {self.mixture_components}"
            )
        if self.recalibrate and not self.score:
            raise ValueError("recalibrate=True requires score=True (no scores, no control)")
        if self.initial_scale < 1.0:
            raise ValueError(f"initial_scale must be >= 1, got {self.initial_scale}")
        if self.flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {self.flush_every}")
        if self.truth_spread_scale <= 0.0:
            raise ValueError(
                f"truth_spread_scale must be > 0, got {self.truth_spread_scale}"
            )

    @property
    def levels(self) -> tuple[float, ...]:
        """The canonical quantile levels of the configured grid."""
        return grid_levels(self.grid)


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
        self.scorer = CalibrationScorer(
            nominal=config.policy.nominal, window=config.policy.window
        ) if config.score else None
        self.recalibrator = (
            Recalibrator(config.policy, initial_scale=config.initial_scale)
            if config.recalibrate
            else None
        )
        self._levels = config.levels
        self._levels_arr = np.asarray(self._levels, dtype=float)
        # Deferred-scoring queue: per model, (qualities, dists,
        # effective) chunks of served batches awaiting outcome
        # simulation.
        self._pending: dict[str, list[tuple]] = {}
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
    def distribution(self, samples) -> DistributionInfo:
        """The served distribution block for one request's draw cloud."""
        cfg = self.config
        return DistributionInfo.from_samples(
            samples,
            alpha=cfg.alpha,
            levels=self._levels,
            mixture_components=cfg.mixture_components,
            keep_sketch=cfg.keep_sketch,
        )

    def distributions(self, samples) -> DistributionBatch:
        """Distribution blocks for a whole batch of draw clouds.

        ``samples`` is a ``(rows, draws)`` matrix or a list of per-row
        draw arrays.  Row ``j`` of the result reads as
        ``self.distribution(samples[j])``, but sketches and quantile
        grids come from one fused vectorised pass
        (:func:`~repro.calib.sketch.build_sketches`) and a matrix's
        moments from one axis reduction — the serving hot path.
        Quantile grids are bit-equal to the one-at-a-time path; moments
        may differ by float reduction order only.
        """
        cfg = self.config
        if cfg.mixture_components >= 2:
            # Mixture fitting dominates anyway; take the simple path.
            return DistributionBatch.from_infos(self.distribution(s) for s in samples)
        if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.shape[1] >= 2:
            mat = np.ascontiguousarray(samples, dtype=float)
            sketches, qmat = build_sketches(mat, cfg.alpha, levels=self._levels_arr)
            counts = np.full(mat.shape[0], mat.shape[1])
            mean = mat.mean(axis=1)
            dev = mat - mean[:, None]
            std = np.sqrt(np.einsum("ij,ij->i", dev, dev) / (mat.shape[1] - 1))
        else:
            arrays = [np.asarray(s, dtype=float).ravel() for s in samples]
            sketches, qmat = build_sketches(arrays, cfg.alpha, levels=self._levels_arr)
            counts = [a.size for a in arrays]
            mean = [a.mean() for a in arrays]
            std = [a.std(ddof=1) if a.size >= 2 else 0.0 for a in arrays]
        return DistributionBatch(
            counts, mean, std, self._levels, qmat, sketches if cfg.keep_sketch else None
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
    def realise(self, model: str, effective: list[dict]) -> np.ndarray:
        """One realised outcome per request, drawn from the truth model.

        ``effective`` carries, per request, the resolved
        :class:`~repro.core.stochastic.StochasticValue` of every
        run-time parameter (live forecast or override) — the same
        values the served answer stood on, so prediction and outcome
        disagree only by sampling noise and any configured truth
        distortion.  One vectorised plan evaluation covers the batch
        (each "draw" is one request's realisation).
        """
        truth = self._truth.get(model)
        if truth is None:
            raise KeyError(f"no truth model registered for {model!r}")
        k_total = len(effective)
        w = self.config.truth_spread_scale
        # The serving layer shares one resolved-forecast dict across all
        # override-free requests of a batch, so collapsing by object
        # identity first reduces the per-parameter grouping work from
        # one pass over requests to one pass over distinct dicts.
        uniq_effs: list[dict] = []
        members: list[list[int]] = []
        slot_of: dict[int, int] = {}
        for j, values in enumerate(effective):
            slot = slot_of.get(id(values))
            if slot is None:
                slot_of[id(values)] = len(uniq_effs)
                uniq_effs.append(values)
                members.append([j])
            else:
                members[slot].append(j)
        draws: dict[str, np.ndarray] = {}
        for param in truth.sampled:
            bounds = truth.clip.get(param) if truth.clip else None
            arr = np.empty(k_total)
            # Group identical parameter values so the whole batch costs
            # one RNG call per distinct forecast, not one per request.
            groups: dict[tuple[float, float], list[int]] = {}
            for slot, values in enumerate(uniq_effs):
                sv = values.get(param)
                if sv is None:
                    sv = truth.bindings.resolve(param)
                key = (sv.mean, sv.spread)
                got = groups.get(key)
                if got is None:
                    groups[key] = list(members[slot])
                else:
                    got.extend(members[slot])
            for (mean, spread), idxs in sorted(groups.items()):
                spread *= w
                if spread == 0.0:
                    arr[idxs] = mean
                else:
                    arr[idxs] = StochasticValue(mean, spread).sample(len(idxs), self._rng)
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
            from repro.structural.montecarlo import monte_carlo_predict

            out = np.empty(k_total)
            for j in range(k_total):
                overlay = {
                    param: StochasticValue.point(float(draws[param][j]))
                    for param in truth.sampled
                }
                emp = monte_carlo_predict(
                    truth.expression,
                    truth.bindings.overlaid(overlay),
                    n_samples=2,
                    rng=self._rng,
                    engine="reference",
                )
                out[j] = emp.samples[0]
            return out
        return plan.evaluate(draws, truth.bindings, n_samples=k_total)

    # ------------------------------------------------------------------
    # Scoring + control
    # ------------------------------------------------------------------
    def enqueue(
        self,
        model: str,
        qualities: list[str],
        dists: DistributionBatch,
        effective: list[dict],
        t: float,
    ) -> None:
        """Queue one batch of served answers for deferred outcome scoring.

        Row ``j`` is an answer of forecast quality ``qualities[j]``
        serving ``dists[j]``; ``effective[j]`` carries its resolved
        per-parameter :class:`~repro.core.stochastic.StochasticValue`
        forecasts (the values the answer stood on).  Each time
        ``flush_every`` answers are queued for ``model`` they are
        realised and scored in one flush — at the same answer a
        one-at-a-time queue would flush at; ``summary()`` drains any
        remainder.
        """
        if self.scorer is None:
            return
        self._last_t = t
        k, lo = len(dists), 0
        while lo < k:
            room = self.config.flush_every - self.pending(model)
            hi = min(k, lo + room)
            rows = slice(lo, hi)
            chunk = (qualities[rows], dists.select(rows), effective[rows])
            self._pending.setdefault(model, []).append(chunk)
            if hi - lo == room:
                self._flush(model, t)
            lo = hi

    def pending(self, model: str | None = None) -> int:
        """Queued-but-unscored answers (for ``model``, or in total)."""
        models = list(self._pending) if model is None else [model]
        return sum(len(chunk[1]) for m in models for chunk in self._pending.get(m, ()))

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
        if not queue:
            return
        span = None
        try:
            scale = self.scale(model)
            qualities = [q for chunk in queue for q in chunk[0]]
            served = [chunk[1].served() for chunk in queue]
            if self.tracer.enabled:
                span = self.tracer.start_span(
                    "calib.score",
                    t,
                    stage=STAGE_CALIB,
                    new_trace=True,
                    model=model,
                    batch_size=len(qualities),
                    scale=scale,
                )
            y = np.asarray(
                self.realise(model, [e for chunk in queue for e in chunk[2]]), dtype=float
            )
            covered_a, crps_a, pit_a, z_a, mae_a, sharp_a = self._score_arrays(
                np.concatenate([chunk[1].mean for chunk in queue]),
                *(np.concatenate(col) for col in zip(*served)),
                y,
            )
            pit_bins = np.minimum(
                (pit_a * PIT_BINS).astype(np.int64), PIT_BINS - 1
            )
            k = len(qualities)
            sc = self.scorer.score(model)
            # Ingest in chunks split at the control cadence: control()
            # acts only when score.n hits a multiple of its interval, so
            # running it once per chunk boundary is decision-for-decision
            # identical to running it after every observation.
            if self.recalibrator is not None:
                interval = self.recalibrator.policy.control_interval
                n0 = sc.n
                cuts = [i for i in range(1, k + 1) if (n0 + i) % interval == 0]
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
            by_quality: dict[str, list[int]] = {}
            for i, quality in enumerate(qualities):
                by_quality.setdefault(quality, []).append(i)
            for quality, idxs in sorted(by_quality.items()):
                ii = np.asarray(idxs, dtype=np.int64)
                self.scorer.cohort(quality).ingest_many(
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

    def _score_arrays(
        self,
        means: np.ndarray,
        stds: np.ndarray,
        q_mat: np.ndarray,
        scales: np.ndarray,
        y: np.ndarray,
    ):
        """Coverage / CRPS / PIT / base-z / MAE / sharpness for a flush
        queue, vectorised.

        Takes the queue's served columns — means, (widened) stds and
        quantile grids on this loop's grid, and the scale each row was
        widened by — and scores the whole queue in a handful of array
        operations: the same arithmetic as
        :meth:`~repro.calib.scorer.ModelScore.observe` (CRPS rows are
        bit-identical; PIT interpolation may differ from ``np.interp``
        in the last ulp at exact grid ties).
        """
        n = len(means)
        taus = self._levels_arr
        dev = np.abs(y - means)
        covered = dev <= 2.0 * stds
        yc = y[:, None]
        below = yc < q_mat
        crps = np.mean(2.0 * (taus - below) * (yc - q_mat), axis=1)
        # Piecewise-linear CDF inversion (the vector form of
        # DistributionInfo.cdf), clamped to the grid's edge levels.
        k = taus.size
        jj = np.clip((yc >= q_mat).sum(axis=1) - 1, 0, k - 2)
        rows = np.arange(n)
        x0 = q_mat[rows, jj]
        dx = q_mat[rows, jj + 1] - x0
        safe = dx > 0.0
        frac = np.where(safe, (y - x0) / np.where(safe, dx, 1.0), 0.0)
        pit = np.clip(taus[jj] + (taus[jj + 1] - taus[jj]) * frac, taus[0], taus[-1])
        z = dev / np.maximum(stds / scales, 1e-12)
        sharp = 4.0 * stds / np.maximum(np.abs(y), 1e-12)
        return covered, crps, pit, z, dev, sharp

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
        }
        if self.scorer is not None:
            doc["scores"] = self.scorer.summary()
        if self.recalibrator is not None:
            doc["recalibration"] = self.recalibrator.summary()
        return doc
