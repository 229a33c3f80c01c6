"""Monte Carlo propagation through structural models.

The Table 2 rules are first-order closed forms; for a whole model (sums
of maxima of products of stochastic parameters) the exact output
distribution has no closed form.  This module computes it by sampling:
draw every *run-time* stochastic parameter from its associated normal,
evaluate the expression with those point values, and collect the
resulting execution times into an
:class:`~repro.core.empirical.EmpiricalValue`.

One routine, :func:`propagate`, draws and evaluates for every caller:
it advances any number of rows through one geometric chunk schedule,
stopping each row at its precision target or its cap.  A fixed budget
is one chunk at the cap; :func:`monte_carlo_predict` is a one-row call
and the prediction server a many-row one.  Evaluation runs on one of
two engines that consume identical draws (so seeded results agree):

``vectorised`` (default)
    The expression is compiled once into a flat NumPy plan
    (:mod:`repro.structural.engine`): one instruction per distinct
    subexpression, run over cache-sized blocks of the sample batch — one
    tree lowering instead of ``n_samples`` tree walks, with compiled
    plans cached across calls.

``reference``
    The original per-sample loop: one point-value ``Bindings`` overlay
    and one AST walk per draw.  Kept as the semantic baseline the
    vectorised engine is tested against (``tests/test_engine.py``), and
    as the fallback for policies that cannot be vectorised
    (``MaxStrategy.MONTE_CARLO``).  Without a plan every row draws its
    whole cap and a precision target is assessed once, at the cap.

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
from repro.core.stochastic import StochasticValue, as_stochastic
from repro.obs.tracer import STAGE_STRUCTURAL, as_tracer
from repro.structural.engine import (
    CompiledExpr,
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
)
from repro.structural.expr import DEFAULT_MC_SAMPLES, EvalPolicy, Expr
from repro.structural.parameters import Bindings
from repro.structural.repeaters import (
    AdaptiveOutcome,
    PrecisionTarget,
    SequentialProbe,
    chunk_schedule,
)

__all__ = [
    "monte_carlo_predict",
    "monte_carlo_predict_reference",
    "compare_with_closed_form",
    "propagate",
    "AdaptiveEmpirical",
    "ClipSaturationWarning",
]

#: Point-evaluation policy: with every parameter a point value, the
#: relatedness and Max-strategy choices are irrelevant (all rules agree),
#: so any policy yields the exact arithmetic.
_POINT_POLICY = EvalPolicy(max_strategy=MaxStrategy.BY_MEAN)


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
    """More than half of a parameter's normal mass lies outside its clip.

    Clipping after normal sampling silently piles probability mass on the
    bound; past 50% saturation the sampled parameter has effectively
    collapsed to a constant and the propagated distribution no longer
    reflects the bound parameter's spread.  Widen the bounds or shrink
    the parameter's spread.
    """


def _sampled_names(expression: Expr, bindings: Bindings) -> list[str]:
    """Run-time, nonzero-spread parameters referenced by the expression."""
    referenced = expression.params()
    runtime = [n for n in bindings.runtime_names() if n in referenced]
    return [n for n in runtime if not bindings.resolve(n).is_point]


def _warn_clip_saturation(bindings: Bindings, names: list[str], clip: dict) -> None:
    """Warn once per parameter whose clip bounds hold less than half of
    its normal's mass."""
    for name in names:
        if name not in clip:
            continue
        lo, hi = clip[name]
        sv = bindings.resolve(name)
        outside = float(sv.cdf(lo) + 1.0 - sv.cdf(hi))
        if outside > 0.5:
            warnings.warn(
                f"clip bounds ({lo}, {hi}) cut off {outside:.0%} of parameter "
                f"{name!r} ({sv}); the clipped distribution collapses onto the bound",
                ClipSaturationWarning,
                stacklevel=3,
            )


def _reference_loop(
    expression: Expr,
    bindings: Bindings,
    sampled_names,
    draws: dict[str, np.ndarray],
    n_samples: int,
    policy: EvalPolicy = _POINT_POLICY,
) -> np.ndarray:
    """The per-sample loop: one bindings overlay and tree walk per draw."""
    out = np.empty(n_samples)
    for k in range(n_samples):
        overlay = {name: StochasticValue.point(float(draws[name][k])) for name in sampled_names}
        point_bindings = bindings.overlaid(overlay)
        out[k] = expression.evaluate(point_bindings, policy).mean
    return out


def _row_values(base: dict, overrides: dict | None) -> dict:
    """The parameter values one row is evaluated at: ``base`` itself
    unless the row overrides some of them."""
    if not overrides:
        return base
    return {p: as_stochastic(overrides[p]) if p in overrides else sv for p, sv in base.items()}


def _draw(sv: StochasticValue, n: int, bounds, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of ``sv`` (a point value draws nothing), clipped in
    place: the array is fresh."""
    seg = np.full(n, sv.mean) if sv.is_point else sv.sample(n, rng)
    if bounds is not None:
        np.clip(seg, *bounds, out=seg)
    return seg


def _chunk_draws(sampled, base, clip, overrides, members, counts, m, rng) -> dict:
    """One chunk's draw arrays, parameter-major, rows in order.

    Consecutive rows that share a parameter's value draw it in one RNG
    call; the stream is the same as drawing row by row.
    """
    pinned = []
    if overrides is not None:
        pinned = [(j, overrides[i]) for j, i in enumerate(members.tolist()) if overrides[i]]
    offsets = np.concatenate(([0], np.cumsum(counts))) if pinned else None
    draws: dict[str, np.ndarray] = {}
    for param in sampled:
        bounds = clip.get(param) if clip else None
        rows = [(j, o[param]) for j, o in pinned if param in o]
        if not rows:
            draws[param] = _draw(base[param], m, bounds, rng)
            continue
        arr = np.empty(m)
        start = 0
        for j, value in rows:
            lo, hi = offsets[start], offsets[j]
            if hi > lo:
                arr[lo:hi] = _draw(base[param], hi - lo, bounds, rng)
            arr[hi : offsets[j + 1]] = _draw(as_stochastic(value), counts[j], bounds, rng)
            start = j + 1
        if offsets[start] < m:
            arr[offsets[start] :] = _draw(base[param], m - offsets[start], bounds, rng)
        draws[param] = arr
    return draws


def propagate(
    plan,
    expression: Expr,
    bindings: Bindings,
    sampled,
    base: dict,
    rng: np.random.Generator,
    *,
    budget: int,
    rows: int = 1,
    targets: list | None = None,
    overrides=None,
    clip: dict | None = None,
    policy: EvalPolicy = _POINT_POLICY,
    request_ids=None,
    tracer=None,
) -> tuple:
    """Draw and evaluate ``rows`` rows of one model, chunk by chunk.

    ``plan`` is the caller's compiled plan over ``sampled``, or ``None``
    or its compile error when there is none.  Row ``i`` stands on
    ``base`` (one :class:`~repro.core.stochastic.StochasticValue` per
    sampled name) with ``overrides[i]`` applied, and is capped at its
    target's ``max_samples`` or, without one, at ``budget``.

    All rows advance through one shared geometric chunk schedule; each
    chunk draws fresh samples for the *still-active* rows only
    (parameter-major, rows in order), flows once through the plan, and
    scatters back into per-row buffers.  A row leaves when its stopping
    rule converges or its cap fills; ``targets=None`` is one chunk at
    the cap.  Without a plan each row draws ``budget`` samples on the
    reference loop (under ``policy``) and its target is assessed once.

    Returns ``(samples, outcomes, total draws)``: samples as a ``(rows,
    draws)`` matrix when every row drew the same count, else one array
    per row; outcomes per row (``None`` without a target), or ``None``
    when ``targets`` is.
    """
    trc = as_tracer(tracer)
    probe = None if targets is None else SequentialProbe(targets, rng)
    if not isinstance(plan, CompiledExpr):
        if trc.enabled and trc.active is not None:
            why = {} if plan is None else {"fallback": type(plan).__name__}
            trc.active.set(engine="reference", **why)
        samples = np.empty((rows, budget))
        for i in range(rows):
            values = _row_values(base, None if overrides is None else overrides[i])
            names = [p for p in sampled if not values[p].is_point]
            draws = {p: _draw(values[p], budget, clip.get(p) if clip else None, rng) for p in names}
            samples[i] = _reference_loop(
                expression, bindings.overlaid(values), names, draws, budget, policy
            )
        outcomes = None
        if probe is not None:
            due = [i for i, t in enumerate(targets) if t is not None]
            probe.assess(samples[due], due)
            outcomes = probe.outcomes(budget)
        return samples, outcomes, rows * budget
    if trc.enabled and trc.active is not None:
        trc.active.set(engine="vectorised")

    if targets is None:
        caps = np.full(rows, budget)
        totals = [budget]
    else:
        caps = np.array([budget if t is None else t.max_samples for t in targets])
        mins = np.array([np.inf if t is None else t.min_samples for t in targets])
        adaptive = [t for t in targets if t is not None]
        first = min(t.min_samples for t in adaptive)
        growth = min(t.growth for t in adaptive)
        totals = sorted(set(chunk_schedule(first, int(caps.max()), growth)) | set(caps.tolist()))
    buf = None
    filled = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    total_draws = 0
    for total in totals:
        need = np.minimum(caps[active], total) - filled[active]
        members, counts = active[need > 0], need[need > 0]
        if not members.size:
            continue
        m = int(counts.sum())
        draws = _chunk_draws(sampled, base, clip, overrides, members, counts, m, rng)
        out = plan.evaluate(draws, bindings, n_samples=m)
        total_draws += m
        c0 = int(counts[0])
        uniform = bool((counts == c0).all()) and bool(
            (filled[members] == filled[members[0]]).all()
        )
        if buf is None and members.size == rows and uniform and bool((caps == c0).all()):
            buf = out.reshape(rows, c0)  # one chunk fills every row
        else:
            if buf is None:
                buf = np.empty((rows, int(caps.max())))
            if uniform:
                f0 = int(filled[members[0]])
                buf[members, f0 : f0 + c0] = out.reshape(members.size, c0)
            else:
                off = 0
                for i, c in zip(members.tolist(), counts.tolist()):
                    buf[i, filled[i] : filled[i] + c] = out[off : off + c]
                    off += c
        filled[members] += counts
        if probe is None:
            continue

        # Every active row has drawn to this chunk's total, so the rows
        # due for a check form one equally-filled block.
        due = active[mins[active] <= filled[active]]
        converged = np.zeros(rows, dtype=bool)
        records = {}
        if due.size:
            records = dict(zip(due.tolist(), probe.assess(buf[due, :total], due)))
            converged[due] = [r.converged for r in records.values()]
        done = (filled[active] >= caps[active]) | converged[active]
        if trc.enabled:
            # One block for the rows that finished at this chunk after a
            # check (a row never checked leaves without a span).
            ended = active[done & (mins[active] <= filled[active])]
            if ended.size:
                idx = ended.tolist()
                done_records = [records[i] for i in idx]
                trc.start_rows(
                    "mc.converged",
                    stage=STAGE_STRUCTURAL,
                    request_id=None if request_ids is None else np.asarray(request_ids)[ended],
                    metric=[targets[i].metric for i in idx],
                    rule=[targets[i].rule for i in idx],
                    draws=[r.draws for r in done_records],
                    budget=budget,
                    converged=[r.converged for r in done_records],
                    half_width=[r.half_width for r in done_records],
                    tolerance=[r.tolerance for r in done_records],
                    votes=[{v.rule: v.converged for v in r.votes} for r in done_records],
                ).finish(slice(None))
        active = active[~done]
        if trc.enabled:
            trc.start_span(
                "mc.chunk",
                stage=STAGE_STRUCTURAL,
                draws=total,
                chunk=m,
                batch_size=rows,
                active=len(active),
            ).finish()
        if not active.size:
            break

    outcomes = None if probe is None else probe.outcomes(budget)
    if (filled == filled[0]).all():
        f = int(filled[0])
        samples = buf if buf.shape[1] == f else np.ascontiguousarray(buf[:, :f])
    else:
        samples = [buf[i, : filled[i]] for i in range(rows)]
    return samples, outcomes, total_draws


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

    A one-row call of :func:`propagate`.

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
        parameter's normal mass lies outside its bounds.
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
        half-width provenance.  The reference loop has no chunks: it
        spends the whole cap and assesses the target once.  ``None``
        (default) runs the fixed budget.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; an adaptive
        evaluation then emits the same ``mc.chunk`` and ``mc.converged``
        spans a prediction server does.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if engine not in ("vectorised", "reference"):
        raise ValueError(f"engine must be 'vectorised' or 'reference', got {engine!r}")
    gen = np.random.default_rng(rng)  # a Generator passes through unchanged
    pol = policy if policy is not None else _POINT_POLICY
    names = _sampled_names(expression, bindings)
    if clip:
        _warn_clip_saturation(bindings, names, clip)
    plan = None
    if engine == "vectorised":
        try:
            plan = compile_expr(expression, tuple(names), policy=pol)
        except (UnsupportedPolicyError, UnsupportedExpressionError) as exc:
            plan = exc
    samples, outcomes, _ = propagate(
        plan,
        expression,
        bindings,
        names,
        {name: bindings.resolve(name) for name in names},
        gen,
        budget=n_samples if precision is None else precision.max_samples,
        targets=None if precision is None else [precision],
        clip=clip,
        policy=pol,
        tracer=tracer,
    )
    if precision is None:
        return EmpiricalValue(samples[0])
    return AdaptiveEmpirical(samples[0], outcomes[0])


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
