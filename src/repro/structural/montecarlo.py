"""Monte Carlo propagation through structural models.

The Table 2 rules are first-order closed forms; for a whole model (sums
of maxima of products of stochastic parameters) the exact output
distribution has no closed form.  This module computes it by sampling:
draw every *run-time* stochastic parameter from its associated normal,
evaluate the expression with those point values, and collect the
resulting execution times into an
:class:`~repro.core.empirical.EmpiricalValue`.

Two propagation engines share identical draws (so seeded results agree):

``vectorised`` (default)
    The expression is compiled once into a flat NumPy plan
    (:mod:`repro.structural.engine`) and the whole sample batch flows
    through each AST node in one array pass — one tree lowering instead
    of ``n_samples`` tree walks, with compiled plans cached across calls.

``reference``
    The original per-sample loop: one point-value ``Bindings`` overlay
    and one AST walk per draw.  Kept as the semantic baseline the
    vectorised engine is tested against (``tests/test_engine.py``), and
    as the fallback for policies that cannot be vectorised
    (``MaxStrategy.MONTE_CARLO``).

Uses: validating that the closed-form stochastic prediction tracks the
exact propagation (``tests/test_montecarlo.py`` does this for the SOR
model), and producing faithful tail quantiles for QoS contracts when the
first-order spread is not trusted (:mod:`repro.scheduling.qos`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.empirical import EmpiricalValue
from repro.core.group_ops import MaxStrategy
from repro.core.stochastic import StochasticValue
from repro.obs.tracer import STAGE_STRUCTURAL, as_tracer
from repro.structural.engine import (
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
)
from repro.structural.expr import DEFAULT_MC_SAMPLES, EvalPolicy, Expr
from repro.structural.parameters import Bindings
from repro.structural.repeaters import (
    AdaptiveOutcome,
    PrecisionTarget,
    SampleBufferPool,
    SequentialProbe,
    chunk_schedule,
)

__all__ = [
    "monte_carlo_predict",
    "monte_carlo_predict_reference",
    "compare_with_closed_form",
    "AdaptiveEmpirical",
    "ClipSaturationWarning",
    "adaptive_pool_stats",
]

#: Point-evaluation policy: with every parameter a point value, the
#: relatedness and Max-strategy choices are irrelevant (all rules agree),
#: so any policy yields the exact arithmetic.
_POINT_POLICY = EvalPolicy(max_strategy=MaxStrategy.BY_MEAN)


#: Shared scratch-buffer pool for adaptive (chunked) evaluation — after
#: warm-up, repeated adaptive predictions at the same ``max_samples``
#: reuse the same accumulation buffers and allocate nothing.
_ADAPTIVE_POOL = SampleBufferPool()


def adaptive_pool_stats() -> dict:
    """Buffer-pool reuse diagnostics for the adaptive evaluation path."""
    return _ADAPTIVE_POOL.stats()


@dataclass(frozen=True)
class AdaptiveEmpirical(EmpiricalValue):
    """An :class:`~repro.core.empirical.EmpiricalValue` with provenance.

    What :func:`monte_carlo_predict` returns when a ``precision`` target
    is given: the usual sample-cloud value plus the
    :class:`~repro.structural.repeaters.AdaptiveOutcome` recording draws
    used, the achieved half-width, and every chunk's rule votes.
    """

    outcome: AdaptiveOutcome = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.outcome is None:
            raise ValueError("AdaptiveEmpirical requires an AdaptiveOutcome")


class ClipSaturationWarning(UserWarning):
    """More than half of a parameter's draws hit a clip bound.

    Clipping after normal sampling silently piles probability mass on the
    bound; past 50% saturation the sampled parameter has effectively
    collapsed to a constant and the propagated distribution no longer
    reflects the bound parameter's spread.  Widen the bounds or shrink
    the parameter's spread.
    """


def _sampled_names(expression: Expr, bindings: Bindings) -> list[str]:
    """Run-time, nonzero-spread parameters referenced by the expression."""
    referenced = expression.params()
    return [
        name
        for name in bindings.runtime_names()
        if name in bindings and not bindings.resolve(name).is_point and name in referenced
    ]


def _draw_samples(
    sampled_names: list[str],
    bindings: Bindings,
    n_samples: int,
    gen: np.random.Generator,
    clip: dict[str, tuple[float, float]] | None,
) -> dict[str, np.ndarray]:
    """Draw per-parameter sample arrays (shared by both engines).

    Draw order follows ``sampled_names`` so both engines consume the RNG
    identically; clipping warns via :class:`ClipSaturationWarning` when
    more than half the draws of a parameter land outside its bounds.
    """
    draws: dict[str, np.ndarray] = {}
    for name in sampled_names:
        sv = bindings.resolve(name)
        values = sv.sample(n_samples, gen)
        if clip and name in clip:
            lo, hi = clip[name]
            n_clipped = int(np.count_nonzero((values < lo) | (values > hi)))
            if 2 * n_clipped > n_samples:
                warnings.warn(
                    f"clip bounds ({lo}, {hi}) saturate {n_clipped}/{n_samples} draws "
                    f"of parameter {name!r} ({sv}); the clipped distribution has "
                    "collapsed onto the bound",
                    ClipSaturationWarning,
                    stacklevel=4,
                )
            values = np.clip(values, lo, hi)
        draws[name] = values
    return draws


def _reference_loop(
    expression: Expr,
    bindings: Bindings,
    sampled_names: list[str],
    draws: dict[str, np.ndarray],
    n_samples: int,
    policy: EvalPolicy,
) -> np.ndarray:
    """The per-sample loop: one bindings overlay and tree walk per draw."""
    out = np.empty(n_samples)
    for k in range(n_samples):
        overlay = {name: StochasticValue.point(float(draws[name][k])) for name in sampled_names}
        point_bindings = bindings.overlaid(overlay)
        out[k] = expression.evaluate(point_bindings, policy).mean
    return out


def monte_carlo_predict(
    expression: Expr,
    bindings: Bindings,
    *,
    n_samples: int = DEFAULT_MC_SAMPLES,
    rng=None,
    clip: dict[str, tuple[float, float]] | None = None,
    policy: EvalPolicy | None = None,
    engine: str = "vectorised",
    precision: PrecisionTarget | None = None,
    tracer=None,
) -> EmpiricalValue:
    """Sample the run-time parameters and propagate exactly.

    Parameters
    ----------
    expression:
        The model expression (e.g. ``SORModel(...).expression()``).
    bindings:
        Parameter environment; only parameters declared run-time (via
        ``bind_runtime``) and carrying nonzero spread are sampled — the
        rest stay at their bound values.
    n_samples:
        Monte Carlo draws (fixed budget; ignored when ``precision`` is
        given — the target's ``max_samples`` is the cap then).
    clip:
        Optional per-parameter ``(lo, hi)`` bounds applied to draws
        (availability parameters must stay positive to be divisible).
        Emits :class:`ClipSaturationWarning` when more than half of a
        parameter's draws hit a bound.
    policy:
        Evaluation policy applied to residual (non-sampled) stochastic
        parameters during propagation; defaults to the point policy
        (related sums, by-mean Max), under which it is irrelevant when
        every stochastic parameter is sampled.
    engine:
        ``"vectorised"`` (default) compiles the expression once and
        evaluates the whole batch array-parallel; ``"reference"`` runs
        the original per-sample loop.  Both produce elementwise-equal
        seeded results; the vectorised engine transparently falls back
        to the loop for policies it cannot compile
        (``MaxStrategy.MONTE_CARLO``).
    precision:
        Optional :class:`~repro.structural.repeaters.PrecisionTarget`.
        When given, evaluation proceeds in geometrically growing chunks
        and stops at the first chunk boundary where the target's
        stopping rule reports the requested metric converged (hard cap:
        ``precision.max_samples``), and the return value is an
        :class:`AdaptiveEmpirical` carrying draws-used and achieved
        half-width provenance.  ``None`` (default) runs the fixed-budget
        path, bit-identical to previous releases.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; the adaptive path
        then emits one ``mc.chunk`` span per chunk boundary (with every
        rule vote) and a closing ``mc.converged`` span.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if engine not in ("vectorised", "reference"):
        raise ValueError(f"engine must be 'vectorised' or 'reference', got {engine!r}")
    gen = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    pol = policy if policy is not None else _POINT_POLICY

    if precision is not None:
        return _monte_carlo_adaptive(
            expression, bindings, precision, gen, clip, pol, engine, tracer
        )

    sampled_names = _sampled_names(expression, bindings)
    draws = _draw_samples(sampled_names, bindings, n_samples, gen, clip)

    if engine == "vectorised":
        try:
            plan = compile_expr(expression, tuple(sampled_names), policy=pol)
        except (UnsupportedPolicyError, UnsupportedExpressionError):
            plan = None
        if plan is not None:
            out = plan.evaluate(draws, bindings, n_samples=n_samples)
            return EmpiricalValue(out)

    out = _reference_loop(expression, bindings, sampled_names, draws, n_samples, pol)
    return EmpiricalValue(out)


def _monte_carlo_adaptive(
    expression: Expr,
    bindings: Bindings,
    precision: PrecisionTarget,
    gen: np.random.Generator,
    clip: dict[str, tuple[float, float]] | None,
    pol: EvalPolicy,
    engine: str,
    tracer,
) -> AdaptiveEmpirical:
    """Chunked evaluation with sequential stopping (one RNG stream).

    Draws flow chunk by chunk through the same compiled plan (or the
    reference loop) and accumulate in a pooled buffer; after each chunk
    the :class:`~repro.structural.repeaters.SequentialProbe` votes.  The
    draw stream is a strict prefix of what a fixed ``max_samples`` run
    with the same seed would consume, so results are bit-reproducible.
    """
    trc = as_tracer(tracer)
    sampled_names = _sampled_names(expression, bindings)
    plan = None
    if engine == "vectorised":
        try:
            plan = compile_expr(expression, tuple(sampled_names), policy=pol)
        except (UnsupportedPolicyError, UnsupportedExpressionError):
            plan = None

    probe = SequentialProbe(precision, gen)
    out = _ADAPTIVE_POOL.acquire(precision.max_samples)
    try:
        filled = 0
        for total in chunk_schedule(
            precision.min_samples, precision.max_samples, precision.growth
        ):
            need = total - filled
            draws = _draw_samples(sampled_names, bindings, need, gen, clip)
            if plan is not None:
                chunk = plan.evaluate(draws, bindings, n_samples=need)
            else:
                chunk = _reference_loop(
                    expression, bindings, sampled_names, draws, need, pol
                )
            out[filled:total] = chunk
            filled = total
            record = probe.assess(out[:filled])
            if trc.enabled:
                trc.start_span(
                    "mc.chunk",
                    stage=STAGE_STRUCTURAL,
                    draws=record.draws,
                    chunk=need,
                    metric=precision.metric,
                    estimate=record.estimate,
                    half_width=record.half_width,
                    tolerance=record.tolerance,
                    converged=record.converged,
                    votes={v.rule: v.converged for v in record.votes},
                ).finish()
            if record.converged:
                break
        samples = out[:filled].copy()
    finally:
        _ADAPTIVE_POOL.release(out)

    outcome = probe.outcome()
    if trc.enabled:
        trc.start_span(
            "mc.converged",
            stage=STAGE_STRUCTURAL,
            metric=precision.metric,
            rule=precision.rule,
            draws=outcome.draws,
            budget=outcome.budget,
            converged=outcome.converged,
            estimate=outcome.estimate,
            half_width=outcome.half_width,
            tolerance=outcome.tolerance,
            saved_fraction=outcome.saved_fraction,
            votes={v.rule: v.to_dict() for v in outcome.votes},
        ).finish()
    return AdaptiveEmpirical(samples, outcome)


def monte_carlo_predict_reference(
    expression: Expr,
    bindings: Bindings,
    *,
    n_samples: int = DEFAULT_MC_SAMPLES,
    rng=None,
    clip: dict[str, tuple[float, float]] | None = None,
    policy: EvalPolicy | None = None,
) -> EmpiricalValue:
    """Per-sample reference propagation (one tree walk per draw).

    Semantically the pre-engine implementation; seeded results are
    elementwise equal to :func:`monte_carlo_predict`'s vectorised path.
    Use it to cross-check the engine or to time the speedup
    (``benchmarks/bench_montecarlo.py``).
    """
    return monte_carlo_predict(
        expression,
        bindings,
        n_samples=n_samples,
        rng=rng,
        clip=clip,
        policy=policy,
        engine="reference",
    )


def compare_with_closed_form(
    expression: Expr,
    bindings: Bindings,
    policy: EvalPolicy | None = None,
    *,
    n_samples: int = DEFAULT_MC_SAMPLES,
    rng=None,
    clip: dict[str, tuple[float, float]] | None = None,
    engine: str = "vectorised",
) -> dict[str, float]:
    """Closed-form prediction vs Monte Carlo truth, summarised.

    Returns mean/spread of both paths plus relative gaps — the per-model
    analogue of the Table 2 benchmark.  ``policy`` steers the closed-form
    evaluation; the Monte Carlo truth always propagates point draws.
    """
    closed = expression.evaluate(bindings, policy)
    mc = monte_carlo_predict(
        expression, bindings, n_samples=n_samples, rng=rng, clip=clip, engine=engine
    )
    denom_mean = max(abs(mc.mean), 1e-12)
    denom_spread = max(mc.spread, 1e-12)
    return {
        "closed_mean": closed.mean,
        "closed_spread": closed.spread,
        "mc_mean": mc.mean,
        "mc_spread": mc.spread,
        "mean_gap": abs(closed.mean - mc.mean) / denom_mean,
        "spread_ratio": closed.spread / denom_spread,
    }
