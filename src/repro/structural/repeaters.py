"""Sequential stopping rules: stop sampling when the answer converged.

Every fixed-budget Monte Carlo prediction burns ``n_samples`` draws even
when the requested statistic converged after a fraction of them.  This
module implements the *adaptive repeater* idea (Mittal et al., "Adaptive
stopping rule for performance measurements", SC'23 Workshops): evaluate
in geometrically growing chunks and, after each chunk, ask a family of
statistical stopping rules whether the accumulated sample cloud already
pins the requested metric to the requested precision.

The request is a :class:`PrecisionTarget` — "give me the p95 to ±2% at
95% confidence" — and the verdict machinery is a :class:`SequentialProbe`
fed the accumulated samples after every chunk.  Five rules:

``ci``
    Closed-form confidence interval: normal-theory for mean/std,
    distribution-free order statistics for quantiles.  Cheapest; the
    default.
``bootstrap``
    Percentile bootstrap over seeded resamples of the metric — no
    distributional assumption, works for any supported metric.
``hdi``
    Width of the narrowest interval holding ``confidence`` mass of the
    bootstrap replicate distribution (highest-density interval) — robust
    when the estimator distribution is skewed.
``ks``
    Two-sample Kolmogorov–Smirnov stability test between the first and
    second chronological halves of the accumulated draws: converged when
    the *whole distribution* has stopped moving, not just the one metric.
``composite``
    All of the above must agree — the conservative production setting.

Everything is seeded and vectorised: rule checks consume a dedicated
child RNG stream (spawned once per probe) so adaptive assessment never
perturbs the draw stream, and re-running with the same seed is
bit-reproducible.  A hard ``max_samples`` cap bounds the worst case.
:func:`repro.structural.montecarlo.propagate` is the one chunk loop that
drives these probes, for library calls and the server alike.

The serving layer threads these targets end to end — see
``repro.serving`` for per-request precision and precision *shedding*
(degrade ``rel_tol`` under overload before shedding requests) and
``docs/adaptive.md`` for the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.structural.expr import DEFAULT_MC_SAMPLES
from repro.util.rng import as_generator
from repro.util.stats import normal_quantile

__all__ = [
    "PrecisionTarget",
    "RuleVote",
    "ChunkRecord",
    "AdaptiveOutcome",
    "SequentialProbe",
    "chunk_schedule",
    "STOPPING_RULES",
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_GROWTH",
    "BOOTSTRAP_REPLICATES",
]

#: Rule names a :class:`PrecisionTarget` may request.
STOPPING_RULES = ("ci", "bootstrap", "hdi", "ks", "composite")

#: Rules whose verdicts the ``composite`` rule ANDs together.
_COMPOSITE_MEMBERS = ("ci", "bootstrap", "hdi", "ks")

#: First chunk size — small enough that an easy target saves most of the
#: budget, large enough that the first verdict is not noise-driven.
DEFAULT_MIN_SAMPLES = 256

#: Geometric chunk growth factor (each assessment doubles the evidence).
DEFAULT_GROWTH = 2.0

#: Bootstrap resamples per rule check (bootstrap/hdi rules).
BOOTSTRAP_REPLICATES = 200

#: Seed for rule-check RNG streams when the caller provides none.
_CHECK_SEED = 0xB007


def _parse_metric(metric: str) -> tuple[str, float]:
    """``metric`` -> (kind, quantile): ``mean``/``std``/``p95``-style."""
    if metric == "mean":
        return "mean", 0.0
    if metric == "std":
        return "std", 0.0
    if metric.startswith("p") and len(metric) > 1:
        try:
            pct = float(metric[1:])
        except ValueError:
            pct = float("nan")
        if 0.0 < pct < 100.0:
            return "quantile", pct / 100.0
    raise ValueError(
        f"metric must be 'mean', 'std' or 'pNN' with 0 < NN < 100, got {metric!r}"
    )


@dataclass(frozen=True)
class PrecisionTarget:
    """A per-request precision contract for Monte Carlo prediction.

    "Give me ``metric`` to within ``rel_tol`` (and/or ``abs_tol``) at
    ``confidence``, judged by ``rule``, spending at most ``max_samples``
    draws."  The sampler stops at the first geometric chunk boundary
    where the rule votes converged; the cap is *hard* — an unconverged
    target is answered at ``max_samples`` with ``converged=False``
    provenance, never silently exceeded.

    Attributes
    ----------
    metric:
        ``"mean"``, ``"std"`` or a percentile like ``"p95"``/``"p99.9"``.
    rel_tol, abs_tol:
        Requested half-width of the confidence interval, relative to the
        estimate (``rel_tol``) or absolute in the metric's units
        (``abs_tol``).  At least one must be set; when both are, the
        *looser* bound wins (converge when the half-width drops below
        ``max(abs_tol, rel_tol * |estimate|)``).
    confidence:
        Coverage level of the interval / KS test, in (0, 1).
    rule:
        One of :data:`STOPPING_RULES`.
    max_samples:
        Hard draw cap (also the fixed budget the savings are quoted
        against).
    min_samples:
        First chunk size.
    growth:
        Geometric chunk growth factor (> 1).
    """

    metric: str = "p95"
    rel_tol: float | None = 0.02
    abs_tol: float | None = None
    confidence: float = 0.95
    rule: str = "ci"
    max_samples: int = DEFAULT_MC_SAMPLES
    min_samples: int = DEFAULT_MIN_SAMPLES
    growth: float = DEFAULT_GROWTH

    def __post_init__(self) -> None:
        _parse_metric(self.metric)  # validates
        if self.rel_tol is None and self.abs_tol is None:
            raise ValueError("at least one of rel_tol/abs_tol must be set")
        if self.rel_tol is not None and not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.abs_tol is not None and not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.rule not in STOPPING_RULES:
            raise ValueError(f"rule must be one of {STOPPING_RULES}, got {self.rule!r}")
        if self.min_samples < 8:
            raise ValueError(f"min_samples must be >= 8, got {self.min_samples}")
        if self.max_samples < self.min_samples:
            raise ValueError(
                f"max_samples ({self.max_samples}) must be >= min_samples "
                f"({self.min_samples})"
            )
        if not self.growth > 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")

    @classmethod
    def parse(cls, text: str, **overrides) -> "PrecisionTarget":
        """Parse a CLI-style target: ``metric:tol[:rule]``.

        A ``%``-suffixed tolerance is relative (``"p95:2%"`` → 2% of the
        estimate); a bare number is absolute in the metric's units
        (``"mean:0.05"`` → ±0.05 s).  An optional third field names the
        rule: ``"p95:2%:composite"``.  Keyword overrides pass through to
        the constructor (``max_samples=...``).
        """
        parts = text.strip().split(":")
        if len(parts) not in (2, 3) or not parts[0]:
            raise ValueError(
                f"precision target must look like 'p95:2%' or 'mean:0.05:composite', "
                f"got {text!r}"
            )
        metric, tol = parts[0], parts[1].strip()
        kwargs: dict = {"metric": metric, "rel_tol": None, "abs_tol": None}
        try:
            if tol.endswith("%"):
                kwargs["rel_tol"] = float(tol[:-1]) / 100.0
            else:
                kwargs["abs_tol"] = float(tol)
        except ValueError:
            raise ValueError(f"unparseable tolerance {tol!r} in target {text!r}") from None
        if len(parts) == 3:
            kwargs["rule"] = parts[2]
        kwargs.update(overrides)
        return cls(**kwargs)

    def tolerance(self, estimate: float) -> float:
        """Converged half-width for ``estimate`` (looser of rel/abs)."""
        bounds = []
        if self.abs_tol is not None:
            bounds.append(self.abs_tol)
        if self.rel_tol is not None:
            bounds.append(self.rel_tol * abs(estimate))
        return max(bounds)

    def degraded(self, factor: float) -> "PrecisionTarget":
        """A looser copy: tolerances scaled by ``factor`` (>= 1).

        This is the precision-shedding knob: under overload the server
        multiplies the tolerance instead of shedding the request.
        ``factor=1`` returns ``self`` unchanged.
        """
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        if factor == 1.0:
            return self
        return replace(
            self,
            rel_tol=None if self.rel_tol is None else self.rel_tol * factor,
            abs_tol=None if self.abs_tol is None else self.abs_tol * factor,
        )

    def describe(self) -> str:
        """Compact human/CLI form, e.g. ``p95±2.0%@0.95/ci``."""
        tol = (
            f"{self.rel_tol * 100:g}%"
            if self.rel_tol is not None
            else f"{self.abs_tol:g}"
        )
        return f"{self.metric}±{tol}@{self.confidence:g}/{self.rule}"

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "metric": self.metric,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "confidence": self.confidence,
            "rule": self.rule,
            "max_samples": self.max_samples,
            "min_samples": self.min_samples,
            "growth": self.growth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PrecisionTarget":
        return cls(**data)


@dataclass(frozen=True)
class RuleVote:
    """One rule's verdict on one chunk boundary.

    ``stat`` is the rule's decision statistic — the achieved CI
    half-width for the width rules, the KS distance ``D`` for ``ks`` —
    and ``threshold`` is what it had to drop below to converge.
    """

    rule: str
    converged: bool
    stat: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "converged": self.converged,
            "stat": self.stat,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class ChunkRecord:
    """Provenance for one chunk boundary assessment.

    ``half_width`` is always the closed-form ``ci`` half-width of the
    target metric — the uniform "achieved precision" number quoted on
    responses — regardless of which rule decides convergence.
    """

    draws: int
    estimate: float
    half_width: float
    tolerance: float
    converged: bool
    votes: tuple[RuleVote, ...]

    def to_dict(self) -> dict:
        return {
            "draws": self.draws,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "votes": [v.to_dict() for v in self.votes],
        }


@dataclass(frozen=True)
class AdaptiveOutcome:
    """How an adaptive evaluation went: draws spent, precision achieved.

    Attached to every adaptive prediction
    (:class:`~repro.structural.montecarlo.AdaptiveEmpirical` and the
    serving ``precision`` response block) so draws-used and the achieved
    half-width are never silent.
    """

    target: PrecisionTarget
    draws: int
    budget: int
    converged: bool
    estimate: float
    half_width: float
    tolerance: float
    chunks: tuple[ChunkRecord, ...] = ()

    @property
    def saved_fraction(self) -> float:
        """Fraction of the fixed budget left unspent."""
        return 1.0 - self.draws / self.budget if self.budget else 0.0

    @property
    def votes(self) -> tuple[RuleVote, ...]:
        """The final chunk's rule votes."""
        return self.chunks[-1].votes if self.chunks else ()

    def to_dict(self) -> dict:
        return {
            "target": self.target.to_dict(),
            "draws": self.draws,
            "budget": self.budget,
            "converged": self.converged,
            "estimate": self.estimate,
            "half_width": self.half_width,
            "tolerance": self.tolerance,
            "saved_fraction": self.saved_fraction,
            "chunks": [c.to_dict() for c in self.chunks],
        }


def chunk_schedule(
    min_samples: int, max_samples: int, growth: float = DEFAULT_GROWTH
) -> list[int]:
    """Cumulative draw totals at each chunk boundary.

    Grows geometrically from ``min_samples`` by ``growth`` and always
    ends exactly at ``max_samples`` (the hard cap): e.g.
    ``chunk_schedule(256, 2000)`` → ``[256, 512, 1024, 2000]``.
    """
    if max_samples < min_samples:
        raise ValueError(
            f"max_samples ({max_samples}) must be >= min_samples ({min_samples})"
        )
    if not growth > 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    totals: list[int] = []
    total = min_samples
    while total < max_samples:
        totals.append(total)
        total = min(max_samples, max(total + 1, int(math.ceil(total * growth))))
    totals.append(max_samples)
    return totals


def _metric_estimate(sorted_samples: np.ndarray, kind: str, q: float) -> float:
    if kind == "mean":
        return float(np.mean(sorted_samples))
    if kind == "std":
        return float(np.std(sorted_samples, ddof=1))
    return float(np.quantile(sorted_samples, q))


def _ci_half_width(
    sorted_samples: np.ndarray, kind: str, q: float, z: float
) -> float:
    """Closed-form CI half-width of the metric estimator.

    mean: normal theory ``z·s/√n``; std: ``z·s/√(2(n-1))``; quantile:
    distribution-free order-statistic interval — the sample values at
    ranks ``nq ± z·√(nq(1-q))`` bracket the true quantile with the
    stated coverage regardless of the underlying distribution.
    """
    n = sorted_samples.size
    if kind == "mean":
        return z * float(np.std(sorted_samples, ddof=1)) / math.sqrt(n)
    if kind == "std":
        return z * float(np.std(sorted_samples, ddof=1)) / math.sqrt(2.0 * (n - 1))
    spread = z * math.sqrt(n * q * (1.0 - q))
    lo = max(0, int(math.floor(n * q - spread)))
    hi = min(n - 1, int(math.ceil(n * q + spread)))
    return (float(sorted_samples[hi]) - float(sorted_samples[lo])) / 2.0


def _bootstrap_replicates(
    samples: np.ndarray, kind: str, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Seeded percentile-bootstrap replicates of the metric."""
    n = samples.size
    idx = rng.integers(0, n, size=(BOOTSTRAP_REPLICATES, n))
    resampled = samples[idx]
    if kind == "mean":
        return np.mean(resampled, axis=1)
    if kind == "std":
        return np.std(resampled, axis=1, ddof=1)
    return np.quantile(resampled, q, axis=1)


def _hdi_half_width(replicates: np.ndarray, confidence: float) -> float:
    """Half-width of the narrowest interval holding ``confidence`` mass."""
    reps = np.sort(replicates)
    b = reps.size
    m = min(b, max(2, int(math.ceil(confidence * b))))
    widths = reps[m - 1 :] - reps[: b - m + 1]
    return float(np.min(widths)) / 2.0


def _ks_distance(first: np.ndarray, second: np.ndarray) -> float:
    """Two-sample KS statistic ``D`` between two sample sets."""
    a = np.sort(first)
    b = np.sort(second)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_critical(n1: int, n2: int, confidence: float) -> float:
    """Critical ``D`` at the target confidence (Smirnov asymptotic)."""
    alpha = 1.0 - confidence
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))


class SequentialProbe:
    """Chunk-boundary convergence assessor for one adaptive evaluation.

    Feed :meth:`assess` the *accumulated* samples after each chunk; it
    returns a :class:`ChunkRecord` with every rule vote, and
    :attr:`converged` flips when the target's rule is satisfied.  Rule
    checks that need randomness (bootstrap/hdi) run on a child stream
    spawned once from ``rng`` at construction, so they are deterministic
    under a fixed seed and never touch the caller's draw stream.
    """

    def __init__(self, target: PrecisionTarget, rng=None):
        self.target = target
        self._kind, self._q = _parse_metric(target.metric)
        self._z = float(normal_quantile((1.0 + target.confidence) / 2.0))
        self.records: list[ChunkRecord] = []
        self._check_rng: np.random.Generator | None = None
        self._rng_source = rng

    def _rng(self) -> np.random.Generator:
        if self._check_rng is None:
            source = self._rng_source
            if isinstance(source, np.random.Generator):
                try:
                    self._check_rng = source.spawn(1)[0]
                except (TypeError, ValueError):
                    self._check_rng = np.random.default_rng(_CHECK_SEED)
            else:
                self._check_rng = as_generator(
                    _CHECK_SEED if source is None else source
                )
        return self._check_rng

    @property
    def converged(self) -> bool:
        return bool(self.records) and self.records[-1].converged

    def assess(self, samples: np.ndarray) -> ChunkRecord:
        """Vote on the accumulated ``samples``; appends to :attr:`records`."""
        n = samples.size
        if n < 8:
            raise ValueError(f"need >= 8 samples to assess convergence, got {n}")
        sorted_samples = np.sort(samples)
        estimate = _metric_estimate(sorted_samples, self._kind, self._q)
        tolerance = self.target.tolerance(estimate)
        ci_hw = _ci_half_width(sorted_samples, self._kind, self._q, self._z)

        votes: list[RuleVote] = []
        wanted = (
            _COMPOSITE_MEMBERS if self.target.rule == "composite" else (self.target.rule,)
        )
        replicates: np.ndarray | None = None
        for rule in wanted:
            if rule == "ci":
                votes.append(RuleVote("ci", ci_hw <= tolerance, ci_hw, tolerance))
            elif rule in ("bootstrap", "hdi"):
                if replicates is None:
                    replicates = _bootstrap_replicates(
                        samples, self._kind, self._q, self._rng()
                    )
                if rule == "bootstrap":
                    lo_p = (1.0 - self.target.confidence) / 2.0
                    lo, hi = np.quantile(replicates, (lo_p, 1.0 - lo_p))
                    hw = (float(hi) - float(lo)) / 2.0
                else:
                    hw = _hdi_half_width(replicates, self.target.confidence)
                votes.append(RuleVote(rule, hw <= tolerance, hw, tolerance))
            else:  # ks
                half = n // 2
                d = _ks_distance(samples[:half], samples[half:])
                crit = _ks_critical(half, n - half, self.target.confidence)
                votes.append(RuleVote("ks", d <= crit, d, crit))

        record = ChunkRecord(
            draws=n,
            estimate=estimate,
            half_width=ci_hw,
            tolerance=tolerance,
            converged=all(v.converged for v in votes),
            votes=tuple(votes),
        )
        self.records.append(record)
        return record

    def outcome(self, budget: int | None = None) -> AdaptiveOutcome:
        """Summarise the run (``budget`` defaults to the target's cap)."""
        if not self.records:
            raise ValueError("outcome() before any assess()")
        last = self.records[-1]
        return AdaptiveOutcome(
            target=self.target,
            draws=last.draws,
            budget=self.target.max_samples if budget is None else budget,
            converged=last.converged,
            estimate=last.estimate,
            half_width=last.half_width,
            tolerance=last.tolerance,
            chunks=tuple(self.records),
        )
