"""Vectorised batch evaluation of structural-model expressions.

Monte Carlo propagation (:mod:`repro.structural.montecarlo`) evaluates a
model expression once per draw.  The per-sample reference path walks the
AST ``n_samples`` times, building a fresh :class:`Bindings` overlay and a
cloud of intermediate :class:`StochasticValue` objects for every draw —
thousands of Python-level tree walks per prediction.  This module
replaces those walks with a **compile-once, evaluate-many** plan: the
expression is lowered *once* into a flat, topologically ordered list of
instructions over numbered slots, and a whole sample batch flows through
each instruction in one vectorised pass over ``(n,)`` arrays (one array
per sampled run-time parameter).

Plan shape
----------
* **One slot per distinct subexpression.**  Nodes are keyed by their
  structure with :class:`ComponentModel` wrappers stripped, so repeated
  subtrees are computed once per evaluation.  The SOR model repeats
  itself by design (``RedComp_p = BlackComp_p``, ``RedComm_p =
  BlackComm_p``, and each ``PtToPt(x, y)`` sits in one strip's
  ``SendLR`` and its neighbour's ``ReceLR``): on four processes an
  evaluation makes 10 divisions instead of 32.
* **Prelude and body.**  Instructions that read no sampled parameter
  (products of compile-time parameters, say) run once per
  :meth:`CompiledExpr.evaluate` on scalars; the rest form the body.
* **Cache-sized blocks.**  The body runs over slices of at most
  ``_BLOCK`` draws, each written into one preallocated output, and a
  slot is dropped after its last reader so the registers live at once
  stay in cache.  Every operation is elementwise, so blocking changes no
  bit of the result.
* **Scalar zero spreads.**  A spread that is statically zero stays the
  Python scalar ``0.0`` through every rule, Max/Min folds included, so
  the point-value shortcut rows skip their array work.

Semantics
---------
A compiled plan reproduces the per-sample reference path exactly (up to
ULP-level differences between ``math.*`` and ``numpy`` transcendentals):
each slot carries a ``(mean, spread)`` pair — scalars, or arrays over
the block — and every operation applies the Table 2 combination rules
elementwise, including the point-value shortcut rows.  Sampled
parameters enter as per-draw point values (zero spread); parameters left
unsampled (compile-time stochastic values, zero-spread run-time values)
keep their bound spread, exactly as the reference path's
``Bindings.overlaid`` leaves them stochastic.

Supported :class:`~repro.structural.expr.EvalPolicy` choices: both
relatedness regimes, both reciprocal rules, and the ``BY_MEAN``,
``BY_ENDPOINT`` and ``CLARK`` Max strategies.  ``MONTE_CARLO`` Max nodes
draw fresh samples *per evaluation* in an RNG-consumption order that
cannot be reproduced array-parallel, so :func:`compile_expr` raises
:class:`UnsupportedPolicyError` and callers fall back to the reference
path.

Plan caching
------------
``compile_expr`` memoises plans keyed on ``(expression, sampled
parameter set, policy)`` — expression nodes are frozen dataclasses, so
structurally equal expressions share one plan.  Constant subtrees
(``Const``-only) are folded at compile time via the reference evaluator;
parameters bound in the environment but not sampled are fetched per
``evaluate`` call, so one cached plan serves any number of re-bound
prediction instants (the Platform 2 loop re-binds NWS forecasts at every
run and hits the cache after the first).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict

import numpy as np

from repro.core.arithmetic import Relatedness, ReciprocalRule
from repro.core.group_ops import MaxStrategy
from repro.obs.tracer import STAGE_STRUCTURAL
from repro.structural.components import ComponentModel
from repro.structural.expr import (
    Add,
    Const,
    Div,
    EvalPolicy,
    Expr,
    Max,
    Min,
    Mul,
    Param,
    Sub,
    Sum,
)
from repro.structural.parameters import Bindings

__all__ = [
    "CompiledExpr",
    "compile_expr",
    "clear_plan_cache",
    "plan_cache_stats",
    "UnsupportedPolicyError",
    "UnsupportedExpressionError",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

#: Maximum number of cached evaluation plans (LRU eviction: hits move a
#: plan to the back of the queue, the front is evicted when full).
_PLAN_CACHE_MAX = 256

_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_HITS = 0
_PLAN_CACHE_MISSES = 0
_PLAN_CACHE_EVICTIONS = 0


class UnsupportedPolicyError(ValueError):
    """The evaluation policy cannot be compiled to a vectorised plan.

    Raised for ``MaxStrategy.MONTE_CARLO`` on expressions containing
    ``Max``/``Min`` nodes: its per-draw RNG consumption order cannot be
    reproduced array-parallel.  Callers fall back to the per-sample
    reference path.
    """


class UnsupportedExpressionError(ValueError):
    """The expression contains a node type the compiler cannot lower."""


def _is_zero(s) -> bool:
    """True when a spread is the statically-known scalar zero."""
    return isinstance(s, float) and s == 0.0


def _check_nonzero_mean(m, what: str) -> None:
    """Reject zero denominators (0.0 and -0.0; NaN is not zero) exactly
    as the scalar rules do."""
    if isinstance(m, np.ndarray) and m.ndim:
        if not m.all():
            raise ZeroDivisionError(what)
    elif float(m) == 0.0:
        raise ZeroDivisionError(what)


# ---------------------------------------------------------------------------
# Elementwise Table 2 combination rules over (mean, spread) pairs
# ---------------------------------------------------------------------------


def _add(x, y, related: bool):
    (mx, sx), (my, sy) = x, y
    m = mx + my
    if _is_zero(sx):
        return m, sy
    if _is_zero(sy):
        return m, sx
    if related:
        return m, sx + sy
    return m, np.hypot(sx, sy)


def _sub(x, y, related: bool):
    (mx, sx), (my, sy) = x, y
    m = mx - my
    if _is_zero(sx):
        return m, sy
    if _is_zero(sy):
        return m, sx
    if related:
        return m, sx + sy
    return m, np.hypot(sx, sy)


def _mul(x, y, related: bool):
    (mx, sx), (my, sy) = x, y
    if _is_zero(sx) and _is_zero(sy):
        return mx * my, 0.0
    if _is_zero(sx):
        return mx * my, np.abs(mx) * sy
    if _is_zero(sy):
        return mx * my, np.abs(my) * sx
    if related:
        return mx * my, np.abs(sx * my) + np.abs(sy * mx) + np.abs(sx * sy)
    # Unrelated: elementwise point shortcuts, then the zero-mean
    # convention for two genuinely stochastic operands.
    px = np.equal(sx, 0.0)
    py = np.equal(sy, 0.0)
    both = ~px & ~py
    zero = np.equal(mx, 0.0) | np.equal(my, 0.0)
    m = np.where(both & zero, 0.0, mx * my)
    s_shortcut = np.where(px, np.abs(mx) * sy, np.abs(my) * sx)
    s_both = np.hypot(sx * my, sy * mx)
    s = np.where(both, np.where(zero, 0.0, s_both), s_shortcut)
    return m, s


def _div(x, y, related: bool, rule: ReciprocalRule):
    (mx, sx), (my, sy) = x, y
    _check_nonzero_mean(my, "division by a zero-mean stochastic value")
    inv = 1.0 / my
    if _is_zero(sy):
        # Point denominator: scale by the reciprocal (exact rule).
        if _is_zero(sx):
            return inv * mx, 0.0
        return inv * mx, np.abs(inv) * sx
    if rule is ReciprocalRule.PAPER_LITERAL:
        sy_arr = np.asarray(sy, dtype=float)
        s_inv = np.divide(
            1.0, sy_arr, out=np.zeros_like(sy_arr), where=sy_arr != 0.0
        )
        if np.ndim(sy) == 0:
            s_inv = float(s_inv)
    else:
        s_inv = np.where(np.equal(sy, 0.0), 0.0, sy / (my * my))
        if np.ndim(s_inv) == 0:
            s_inv = float(s_inv)
    return _mul(x, (inv, s_inv), related)


# ---------------------------------------------------------------------------
# Group Max/Min strategies
# ---------------------------------------------------------------------------


def _fold_select(values, key, better):
    """First-win strict-``better`` fold, mirroring Python's ``max(key=...)``.

    ``key=None`` keys on the mean itself (``BY_MEAN``), which the fold
    already selects.  A spread that is the scalar zero on both sides
    stays scalar.
    """
    m, s = values[0]
    k = m if key is None else key(m, s)
    for vm, vs in values[1:]:
        vk = vm if key is None else key(vm, vs)
        take = better(vk, k)
        if np.ndim(take) == 0:
            if take:
                m, s, k = vm, vs, vk
            continue
        m = np.where(take, vm, m)
        if not (_is_zero(s) and _is_zero(vs)):
            s = np.where(take, vs, s)
        k = m if key is None else np.where(take, vk, k)
    return m, s


def _clark_pair(x, y):
    """Vectorised Clark (1961) max of two normals (zero correlation).

    Mirrors :func:`repro.core.group_ops.clark_max` term by term; the
    normal CDF uses ``math.erf`` per non-degenerate lane so results track
    the scalar reference to ULP level rather than the coarser vectorised
    erf approximation.
    """
    (mx, sx), (my, sy) = x, y
    if np.ndim(mx) == 0 and np.ndim(sx) == 0 and np.ndim(my) == 0 and np.ndim(sy) == 0:
        from repro.core.group_ops import clark_max
        from repro.core.stochastic import StochasticValue

        v = clark_max(StochasticValue(float(mx), float(sx)), StochasticValue(float(my), float(sy)))
        return v.mean, v.spread
    mx, sx, my, sy = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(mx, sx, my, sy))
    s1 = sx / 2.0
    s2 = sy / 2.0
    a2 = s1 * s1 + s2 * s2
    deg = a2 <= 1e-300
    x_wins = mx >= my
    m_out = np.where(x_wins, mx, my)
    s_out = np.where(x_wins, sx, sy)
    nd = ~deg
    if np.any(nd):
        a = np.sqrt(a2[nd])
        alpha = (mx[nd] - my[nd]) / a
        phi = np.exp(-0.5 * alpha * alpha) / _SQRT2PI
        z = alpha / _SQRT2
        big_phi = 0.5 * (1.0 + np.fromiter((math.erf(v) for v in z), dtype=float, count=z.size))
        m1 = mx[nd] * big_phi + my[nd] * (1.0 - big_phi) + a * phi
        m2 = (
            (mx[nd] * mx[nd] + s1[nd] * s1[nd]) * big_phi
            + (my[nd] * my[nd] + s2[nd] * s2[nd]) * (1.0 - big_phi)
            + (mx[nd] + my[nd]) * a * phi
        )
        var = np.maximum(m2 - m1 * m1, 0.0)
        m_out[nd] = m1
        s_out[nd] = 2.0 * np.sqrt(var)
    return m_out, s_out


def _group_max(values, strategy: MaxStrategy):
    if strategy is MaxStrategy.BY_MEAN:
        return _fold_select(values, None, np.greater)
    if strategy is MaxStrategy.BY_ENDPOINT:
        return _fold_select(values, lambda m, s: m + s, np.greater)
    # CLARK: pairwise left fold, as in the scalar reference.
    out = values[0]
    for v in values[1:]:
        out = _clark_pair(out, v)
    return out


def _group_min(values, strategy: MaxStrategy):
    # The scalar reference computes Min as -Max(-values); negation is
    # exact, so flipped strict comparisons reproduce it bitwise.
    if strategy is MaxStrategy.BY_MEAN:
        return _fold_select(values, None, np.less)
    if strategy is MaxStrategy.BY_ENDPOINT:
        return _fold_select(values, lambda m, s: s - m, np.greater)
    negated = [(-m if np.ndim(m) else -float(m), s) for m, s in values]
    m, s = _group_max(negated, strategy)
    return (-m if np.ndim(m) else -float(m)), s


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

#: Draws per evaluation block.  A 16k-draw float64 slot is 128 KiB, so the
#: few slots live at once stay in cache while the body streams over them.
_BLOCK = 16_384


def _sum(values, related: bool):
    """The n-ary Table 2 sum (not a fold of binary adds)."""
    if related:
        m, s = 0.0, 0.0
        for fm, fs in values:
            m = m + fm
            s = s + fs
        return m, s
    m, ss = 0.0, 0.0
    for fm, fs in values:
        m = m + fm
        ss = ss + fs * fs
    return m, np.sqrt(ss)


def _compile_node(node: Expr, sampled: frozenset, policy: EvalPolicy):
    """Lower ``node`` to a flat program over shared slots.

    Each distinct subexpression gets one slot.  Its key is built
    bottom-up from its node type and its operands' slots (leaves from
    their name or value), so equal subtrees under differently named
    :class:`ComponentModel` wrappers share a slot and building every
    key costs O(1).  Parameter-free subtrees are folded to constants
    through the reference evaluator.

    Returns ``(consts, params, code, varying, result)``: ``consts`` maps
    slot to a folded ``(mean, spread)``, ``params`` lists ``(slot,
    name)`` leaves, ``code`` holds ``(fn, out, ins)`` instructions in
    topological order, ``varying[slot]`` says whether the slot reads a
    sampled parameter, and ``result`` is the root's slot.
    """
    related = policy.relatedness is Relatedness.RELATED
    rule = policy.reciprocal_rule
    strategy = policy.max_strategy
    binary = {
        Add: functools.partial(_add, related=related),
        Sub: functools.partial(_sub, related=related),
        Mul: functools.partial(_mul, related=related),
        Div: functools.partial(_div, related=related, rule=rule),
    }
    nary = {
        Sum: lambda *values: _sum(values, related),
        Max: lambda *values: _group_max(values, strategy),
        Min: lambda *values: _group_min(values, strategy),
    }

    slot_of: dict = {}
    by_id: dict[int, int] = {}
    consts: dict[int, tuple] = {}
    params: list[tuple[int, str]] = []
    code: list[tuple] = []
    varying: list[bool] = []

    def new_slot(key, is_varying: bool) -> int:
        slot_of[key] = len(varying)
        varying.append(is_varying)
        return slot_of[key]

    def lower(n: Expr) -> int:
        while isinstance(n, ComponentModel):
            n = n.expression
        slot = by_id.get(id(n))
        if slot is not None:
            return slot
        if isinstance(n, Const):
            m, s = n.value.mean, n.value.spread
            # hex() tells 0.0 from -0.0, which compare equal.
            key = (Const, float(m).hex(), float(s).hex())
            if key not in slot_of:
                consts[new_slot(key, False)] = (m, s)
        elif isinstance(n, Param):
            key = (Param, n.name)
            if key not in slot_of:
                params.append((new_slot(key, n.name in sampled), n.name))
        else:
            if isinstance(n, (Add, Sub, Mul, Div)):
                fn = binary[type(n)]
                ins = (lower(n.left), lower(n.right))
            elif isinstance(n, (Sum, Max, Min)):
                if not isinstance(n, Sum) and strategy is MaxStrategy.MONTE_CARLO:
                    raise UnsupportedPolicyError(
                        "MaxStrategy.MONTE_CARLO consumes RNG state per draw and "
                        "cannot be vectorised; use the per-sample reference path"
                    )
                fn = nary[type(n)]
                ins = tuple(lower(i) for i in n.items)
            else:
                raise UnsupportedExpressionError(
                    f"cannot compile expression node of type {type(n).__name__}"
                )
            key = (type(n), ins)
            if key not in slot_of:
                if all(i in consts for i in ins):
                    value = n.evaluate(Bindings(), policy)
                    consts[new_slot(key, False)] = (value.mean, value.spread)
                else:
                    code.append((fn, new_slot(key, any(varying[i] for i in ins)), ins))
        slot = by_id[id(n)] = slot_of[key]
        return slot

    result = lower(node)
    return consts, params, code, varying, result


class CompiledExpr:
    """A reusable vectorised evaluation plan for one expression.

    Attributes
    ----------
    expression:
        The source expression.
    sampled:
        Names evaluated from per-draw sample arrays, sorted.
    bound:
        Referenced names resolved from the bindings at each
        :meth:`evaluate` call (compile-time parameters, unsampled
        run-time parameters), sorted.
    policy:
        The :class:`EvalPolicy` the plan was specialised for.
    """

    __slots__ = (
        "expression",
        "sampled",
        "bound",
        "policy",
        "_regs",
        "_leaves",
        "_prelude",
        "_body",
        "_result",
    )

    def __init__(self, expression: Expr, sampled, policy: EvalPolicy):
        self.expression = expression
        self.sampled = tuple(sorted(sampled))
        referenced = expression.params()
        unknown = set(self.sampled) - set(referenced)
        if unknown:
            raise ValueError(
                f"sampled parameters {sorted(unknown)} are not referenced by the expression"
            )
        self.bound = tuple(sorted(set(referenced) - set(self.sampled)))
        self.policy = policy
        consts, params, code, varying, result = _compile_node(
            expression, frozenset(self.sampled), policy
        )
        self._regs = [consts.get(slot) for slot in range(len(varying))]
        self._leaves = {name: slot for slot, name in params}
        self._result = result
        # Scalar work runs once per evaluate; the body once per block.
        self._prelude = [(fn, out, ins) for fn, out, ins in code if not varying[out]]
        body = [(fn, out, ins) for fn, out, ins in code if varying[out]]
        # Drop each body slot after its last reader (the root is kept).
        last = {i: k for k, (_, _, ins) in enumerate(body) for i in ins}
        computed = {out for _, out, _ in body}
        dead: list[list[int]] = [[] for _ in body]
        for slot, k in last.items():
            if slot in computed and slot != result:
                dead[k].append(slot)
        self._body = [(fn, out, ins, tuple(d)) for (fn, out, ins), d in zip(body, dead)]

    def evaluate(
        self,
        draws: dict,
        bindings: Bindings | None = None,
        *,
        n_samples: int | None = None,
    ) -> np.ndarray:
        """Evaluate the whole sample batch, block by block.

        Parameters
        ----------
        draws:
            Mapping of sampled-parameter name to an ``(n,)`` array of
            per-draw point values.
        bindings:
            Environment supplying every referenced-but-unsampled
            parameter (ignored when the plan has none).
        n_samples:
            Batch size, required only when ``sampled`` is empty (the
            result of a constant plan is broadcast to this length).

        Returns
        -------
        ``(n,)`` array of per-draw result means — elementwise equal to
        the per-sample reference path's output.
        """
        arrays = []
        n = None
        for name in self.sampled:
            arr = np.asarray(draws[name], dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"draws[{name!r}] must be 1-D, got shape {arr.shape}")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"inconsistent draw lengths: {name!r} has {arr.shape[0]}, expected {n}"
                )
            arrays.append((self._leaves[name], arr))
        regs = self._regs.copy()
        if self.bound:
            if bindings is None:
                raise ValueError(
                    f"plan references unsampled parameters {list(self.bound)}; "
                    "bindings are required"
                )
            for name in self.bound:
                sv = bindings.resolve(name)
                regs[self._leaves[name]] = (sv.mean, sv.spread)
        for fn, slot, ins in self._prelude:
            regs[slot] = fn(*[regs[i] for i in ins])
        if arrays and n > _BLOCK:
            out = np.empty(n)
            for lo in range(0, n, _BLOCK):
                hi = min(lo + _BLOCK, n)
                out[lo:hi] = self._run(regs, [(slot, arr[lo:hi]) for slot, arr in arrays])
            return out
        out = np.asarray(self._run(regs, arrays), dtype=float)
        if out.ndim == 0:
            if n is None:
                n = n_samples
            if n is None:
                raise ValueError("n_samples is required for a constant plan")
            out = np.full(int(n), float(out))
        return out

    def _run(self, regs: list, leaves) -> object:
        """Run the body over one block of draws; the root's mean."""
        for slot, arr in leaves:
            regs[slot] = (arr, 0.0)
        for fn, out, ins, dead in self._body:
            regs[out] = fn(*[regs[i] for i in ins])
            for i in dead:
                regs[i] = None
        return regs[self._result][0]


def _policy_key(policy: EvalPolicy):
    return (policy.relatedness, policy.reciprocal_rule, policy.max_strategy)


def compile_expr(
    expression: Expr,
    bindings_or_sampled=None,
    *,
    policy: EvalPolicy | None = None,
    tracer=None,
) -> CompiledExpr:
    """Compile (or fetch from cache) a vectorised plan for ``expression``.

    Parameters
    ----------
    expression:
        The structural-model expression to lower.
    bindings_or_sampled:
        Either a :class:`Bindings` environment — the sampled set is then
        derived exactly as Monte Carlo propagation does (run-time,
        nonzero-spread, referenced parameters) — or an explicit iterable
        of parameter names to treat as per-draw sample arrays.  ``None``
        means no sampled parameters (a constant-per-bindings plan).
    policy:
        Evaluation policy applied to residual stochastic values; defaults
        to the Monte Carlo point policy (related sums, by-mean Max).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; each call then
        records an instant span (stage ``structural``) with the
        plan-cache outcome (``cache_hit``) and the sampled-parameter
        count.  Tracing never affects the cache key or its contents.

    Raises
    ------
    UnsupportedPolicyError
        ``MaxStrategy.MONTE_CARLO`` with ``Max``/``Min`` nodes present.
    UnsupportedExpressionError
        The tree contains a node type the compiler cannot lower.
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    if policy is None:
        policy = EvalPolicy()
    if bindings_or_sampled is None:
        sampled: tuple = ()
    elif isinstance(bindings_or_sampled, Bindings):
        b = bindings_or_sampled
        referenced = expression.params()
        sampled = tuple(
            name
            for name in b.runtime_names()
            if name in b and not b.resolve(name).is_point and name in referenced
        )
    else:
        sampled = tuple(sorted(set(bindings_or_sampled)))
    key = (expression, tuple(sorted(sampled)), _policy_key(policy))
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE_HITS += 1
        _PLAN_CACHE.move_to_end(key)
        _trace_compile(tracer, plan, cache_hit=True)
        return plan
    _PLAN_CACHE_MISSES += 1
    plan = CompiledExpr(expression, sampled, policy)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE_EVICTIONS += 1
    _trace_compile(tracer, plan, cache_hit=False)
    return plan


def _trace_compile(tracer, plan: CompiledExpr, *, cache_hit: bool) -> None:
    """Record one ``plan.compile`` span (no-op without a live tracer)."""
    if tracer is None or not tracer.enabled:
        return
    tracer.instant(
        "plan.compile",
        stage=STAGE_STRUCTURAL,
        cache_hit=cache_hit,
        sampled=len(plan.sampled),
        bound=len(plan.bound),
    )


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss/eviction counters."""
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    _PLAN_CACHE.clear()
    _PLAN_CACHE_HITS = 0
    _PLAN_CACHE_MISSES = 0
    _PLAN_CACHE_EVICTIONS = 0


def plan_cache_stats() -> dict:
    """Cache diagnostics.

    Returns ``{"size", "hits", "misses", "evictions", "hit_rate",
    "max_size"}`` — the counters the serving metrics surface as the
    plan-cache hit rate (``hit_rate`` is 0.0 before any lookup).
    """
    lookups = _PLAN_CACHE_HITS + _PLAN_CACHE_MISSES
    return {
        "size": len(_PLAN_CACHE),
        "hits": _PLAN_CACHE_HITS,
        "misses": _PLAN_CACHE_MISSES,
        "evictions": _PLAN_CACHE_EVICTIONS,
        "hit_rate": (_PLAN_CACHE_HITS / lookups) if lookups else 0.0,
        "max_size": _PLAN_CACHE_MAX,
    }
