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
holding a block of rows, one target each.  After every chunk it gets one
call with the (rows × n) matrix of the rows due for a check: one sort
along ``axis=1``, then the closed-form ``ci`` statistics as one
reduction per metric over the whole block.  ``bootstrap``, ``hdi`` and
``ks`` (and so ``composite``) votes stay per row inside that call.  The
results stay columns: each call keeps one :class:`ChunkChecks` block
and :meth:`SequentialProbe.outcomes` returns :class:`AdaptiveOutcomes`
columns; :class:`ChunkRecord`, :class:`RuleVote` and
:class:`AdaptiveOutcome` objects are built only when one is read.  Five
rules:

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
child RNG stream per row (spawned at the row's first bootstrap/hdi
check, rows in order) so adaptive assessment never perturbs the draw
stream, and re-running with the same seed is bit-reproducible.  A hard ``max_samples`` cap bounds the worst case.
:func:`repro.structural.montecarlo.propagate` is the one chunk loop that
drives these probes, for library calls and the server alike.

The serving layer threads these targets end to end — see
``repro.serving`` for per-request precision and precision *shedding*
(degrade ``rel_tol`` under overload before shedding requests) and
``docs/adaptive.md`` for the protocol.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.structural.expr import DEFAULT_MC_SAMPLES
from repro.util.rng import as_generator
from repro.util.stats import normal_quantile, sorted_quantile
from repro.util.validation import check_count, check_positive

__all__ = [
    "PrecisionTarget",
    "RuleVote",
    "ChunkRecord",
    "AdaptiveOutcome",
    "AdaptiveOutcomes",
    "ChunkChecks",
    "SequentialProbe",
    "distinct_targets",
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
        if self.rel_tol is not None:
            check_positive(self.rel_tol, "rel_tol")
        if self.abs_tol is not None:
            check_positive(self.abs_tol, "abs_tol")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.rule not in STOPPING_RULES:
            raise ValueError(f"rule must be one of {STOPPING_RULES}, got {self.rule!r}")
        check_count(self.min_samples, "min_samples", 8)
        check_count(self.max_samples, "max_samples", 1)
        if self.max_samples < self.min_samples:
            raise ValueError(
                f"max_samples ({self.max_samples}) must be >= min_samples "
                f"({self.min_samples})"
            )
        if not (self.growth > 1.0 and math.isfinite(self.growth)):
            raise ValueError(f"growth must be finite and > 1, got {self.growth}")

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
    if not (growth > 1.0 and math.isfinite(growth)):
        raise ValueError(f"growth must be finite and > 1, got {growth}")
    totals: list[int] = []
    total = min_samples
    while total < max_samples:
        totals.append(total)
        total = min(max_samples, max(total + 1, int(math.ceil(total * growth))))
    totals.append(max_samples)
    return totals


def _estimate_and_half_width(
    sorted_rows: np.ndarray, kind: str, q: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's metric estimate and closed-form CI half-width.

    ``sorted_rows`` is a (rows × n) matrix sorted along ``axis=1`` and
    ``z`` the rows' normal critical values.  mean: normal theory
    ``z·s/√n``; std: ``z·s/√(2(n-1))``; quantile: distribution-free
    order-statistic interval — the sample values at ranks
    ``nq ± z·√(nq(1-q))`` bracket the true quantile with the stated
    coverage regardless of the underlying distribution.  Reductions run
    along contiguous rows, so each row's numbers equal, bit for bit,
    those of the same reduction over that row alone.
    """
    n = sorted_rows.shape[1]
    if kind == "quantile":
        spread = z * math.sqrt(n * q * (1.0 - q))
        lo = np.maximum(0, np.floor(n * q - spread)).astype(np.intp)
        hi = np.minimum(n - 1, np.ceil(n * q + spread)).astype(np.intp)
        at = np.arange(sorted_rows.shape[0])
        half_width = (sorted_rows[at, hi] - sorted_rows[at, lo]) / 2.0
        return sorted_quantile(sorted_rows, q), half_width
    sd = np.std(sorted_rows, axis=1, ddof=1)
    if kind == "mean":
        return np.mean(sorted_rows, axis=1), z * sd / math.sqrt(n)
    return sd, z * sd / math.sqrt(2.0 * (n - 1))


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


@lru_cache(maxsize=None)
def _critical_z(confidence: float) -> float:
    """Two-sided normal critical value at ``confidence``."""
    return float(normal_quantile((1.0 + confidence) / 2.0))


def distinct_targets(targets) -> tuple[list, np.ndarray]:
    """``(distinct, codes)``: each distinct target object of ``targets``
    once, in order of first appearance (``None`` included), and each
    row's index into them.  Rows share their target objects, so work per
    target runs once per distinct object."""
    ids: dict[int, int] = {}
    codes = np.fromiter(
        (ids.setdefault(id(t), len(ids)) for t in targets), dtype=np.intp, count=len(targets)
    )
    by_id = dict(zip(map(id, targets), targets))
    return [by_id[key] for key in ids], codes


@dataclass(eq=False)
class ChunkChecks(Sequence):
    """One :meth:`SequentialProbe.assess` call's results, as columns.

    Every checked row had drawn ``draws`` samples; ``rows`` names their
    block rows, and ``estimate``, ``half_width`` (the closed-form ``ci``
    half-width), ``tolerance``, ``ci_ok`` and ``converged`` hold one
    value per checked row, in the same order.  A ``ci``-rule row's
    verdict is its ``ci_ok``; ``votes`` keeps every other rule's votes
    by position.  Reading ``[j]`` builds row ``j``'s :class:`ChunkRecord`.
    """

    draws: int
    rows: np.ndarray
    estimate: np.ndarray
    half_width: np.ndarray
    tolerance: np.ndarray
    ci_ok: np.ndarray
    converged: np.ndarray
    votes: dict

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, j: int) -> ChunkRecord:
        j = range(len(self.rows))[j]
        hw, tol = float(self.half_width[j]), float(self.tolerance[j])
        votes = self.votes.get(j) or (RuleVote("ci", bool(self.ci_ok[j]), hw, tol),)
        return ChunkRecord(
            draws=self.draws,
            estimate=float(self.estimate[j]),
            half_width=hw,
            tolerance=tol,
            converged=bool(self.converged[j]),
            votes=votes,
        )

    def vote_flags(self, positions: np.ndarray) -> list[dict]:
        """``{rule: converged}`` for each of ``positions``."""
        return [
            {"ci": ok} if j not in self.votes else {v.rule: v.converged for v in self.votes[j]}
            for j, ok in zip(positions.tolist(), self.ci_ok[positions].tolist())
        ]


def _row_records(checks, row: int) -> tuple[ChunkRecord, ...]:
    """Block row ``row``'s records among ``checks``, in order, built now."""
    return tuple(c[j] for c in checks for j in np.flatnonzero(c.rows == row).tolist())


@dataclass(eq=False)
class AdaptiveOutcomes(Sequence):
    """Every row's last check, as columns (:meth:`SequentialProbe.outcomes`).

    ``targets`` holds the rows' targets and ``live`` marks the rows with
    one; ``draws``, ``estimate``, ``half_width``, ``tolerance``,
    ``converged`` and ``budget`` hold each live row's summary (zeros and
    NaN elsewhere).  Reading ``[i]`` builds row ``i``'s
    :class:`AdaptiveOutcome`, its chunk records rebuilt from ``checks``,
    or ``None`` for a row without a target.
    """

    targets: tuple
    live: np.ndarray
    draws: np.ndarray
    estimate: np.ndarray
    half_width: np.ndarray
    tolerance: np.ndarray
    converged: np.ndarray
    budget: np.ndarray
    checks: tuple

    def __len__(self) -> int:
        return len(self.live)

    def __getitem__(self, i: int) -> AdaptiveOutcome | None:
        i = range(len(self.live))[i]
        target = self.targets[i]
        if target is None:
            return None
        return AdaptiveOutcome(
            target=target,
            draws=int(self.draws[i]),
            budget=int(self.budget[i]),
            converged=bool(self.converged[i]),
            estimate=float(self.estimate[i]),
            half_width=float(self.half_width[i]),
            tolerance=float(self.tolerance[i]),
            chunks=_row_records(self.checks, i),
        )


class SequentialProbe:
    """Chunk-boundary convergence assessor for a block of rows.

    ``targets`` holds one :class:`PrecisionTarget` per row (``None`` for
    a row that is never assessed).  Per-target settings (metric,
    critical ``z``, tolerances, rule) are worked out once per distinct
    target object (``distinct``, with each row's index into it in
    ``codes``).  Feed :meth:`assess` the *accumulated* samples of the
    rows due for a check after each chunk; it returns the check's
    :class:`ChunkChecks` columns.  The closed-form ``ci`` statistics
    come from one sort and one reduction per metric over the whole
    block; ``bootstrap``, ``hdi`` and ``ks`` votes are computed row by
    row inside the same call.  Rule checks that need randomness
    (bootstrap/hdi) run on a child stream per row, spawned from ``rng``
    at that row's first such check (rows in order), so they are
    deterministic under a fixed seed and never touch the caller's draw
    stream.

    The probe keeps every check's columns and each row's last check (two
    index arrays); :class:`ChunkRecord`, :class:`RuleVote` and
    :class:`AdaptiveOutcome` objects are built only when read:
    ``assess(...)[j]``, ``outcomes(...)[i]`` and its ``chunks``.
    """

    def __init__(self, targets, rng=None):
        self.targets = tuple(targets)
        self.distinct, self.codes = distinct, codes = distinct_targets(self.targets)
        metrics = list(dict.fromkeys(t.metric for t in distinct if t is not None))
        self._kinds = [_parse_metric(m) for m in metrics]

        def per_row(fn, missing, dtype=float) -> np.ndarray:
            """``fn(target)`` for every row, computed per distinct target."""
            return np.array([missing if t is None else fn(t) for t in distinct], dtype)[codes]

        nan = math.nan
        self._kind = per_row(lambda t: metrics.index(t.metric), -1, np.intp)
        self._live = per_row(lambda t: True, False, bool)
        self._ci_only = per_row(lambda t: t.rule == "ci", False, bool)
        self._z = per_row(lambda t: _critical_z(t.confidence), nan)
        self._rel = per_row(lambda t: nan if t.rel_tol is None else t.rel_tol, nan)
        self._abs = per_row(lambda t: nan if t.abs_tol is None else t.abs_tol, nan)
        self._max_samples = per_row(lambda t: t.max_samples, 0, np.int64)
        self._checks: list[ChunkChecks] = []
        # Each row's last check: its index in _checks (-1: none yet) and
        # its position there.
        self._last_check = np.full(len(self.targets), -1, dtype=np.intp)
        self._last_pos = np.zeros(len(self.targets), dtype=np.intp)
        self._check_rngs: list[np.random.Generator | None] = [None] * len(self.targets)
        self._rng_source = rng

    def _rng(self, row: int) -> np.random.Generator:
        if self._check_rngs[row] is None:
            source = self._rng_source
            if isinstance(source, np.random.Generator):
                try:
                    self._check_rngs[row] = source.spawn(1)[0]
                except (TypeError, ValueError):
                    self._check_rngs[row] = np.random.default_rng(_CHECK_SEED)
            else:
                self._check_rngs[row] = as_generator(
                    _CHECK_SEED if source is None else source
                )
        return self._check_rngs[row]

    def assess(self, samples: np.ndarray, rows=None):
        """Vote on the accumulated samples of the rows due for a check.

        ``samples`` is a (due rows × n) matrix, every row filled to the
        same ``n``, and ``rows`` names each matrix row's block row
        (default: the block's rows in order).  Keeps and returns the
        check's :class:`ChunkChecks`, whose ``[j]`` is matrix row ``j``'s
        :class:`ChunkRecord`.
        """
        n = samples.shape[1]
        if n < 8:
            raise ValueError(f"need >= 8 samples to assess convergence, got {n}")
        due = np.arange(samples.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
        kind = self._kind[due]
        if (kind < 0).any():
            raise ValueError("cannot assess a row without a precision target")
        sorted_rows = np.sort(samples, axis=1)
        z = self._z[due]
        if kind.size and (kind == kind[0]).all():
            estimate, ci_hw = _estimate_and_half_width(sorted_rows, *self._kinds[kind[0]], z)
        else:
            estimate, ci_hw = np.empty(len(due)), np.empty(len(due))
            for k in np.unique(kind).tolist():
                js = np.flatnonzero(kind == k)
                estimate[js], ci_hw[js] = _estimate_and_half_width(
                    sorted_rows[js], *self._kinds[k], z[js]
                )
        # PrecisionTarget.tolerance per row: the looser of abs/rel wins.
        rel_bound = self._rel[due] * np.abs(estimate)
        abs_tol = self._abs[due]
        tolerance = np.where(
            ~np.isnan(abs_tol) & ~(rel_bound > abs_tol), abs_tol, rel_bound
        )
        ci_ok = ci_hw <= tolerance
        converged = ci_ok.copy()
        votes: dict[int, tuple[RuleVote, ...]] = {}
        for j in np.flatnonzero(~self._ci_only[due]).tolist():
            hw, tol = float(ci_hw[j]), float(tolerance[j])
            ci = RuleVote("ci", bool(ci_ok[j]), hw, tol)
            votes[j] = self._row_votes(int(due[j]), samples[j], tol, ci)
            converged[j] = all(v.converged for v in votes[j])
        checks = ChunkChecks(n, due, estimate, ci_hw, tolerance, ci_ok, converged, votes)
        self._last_check[due] = len(self._checks)
        self._last_pos[due] = np.arange(len(due))
        self._checks.append(checks)
        return checks

    def _row_votes(
        self, row: int, samples: np.ndarray, tolerance: float, ci: RuleVote
    ) -> tuple[RuleVote, ...]:
        """One row's votes under a ``bootstrap``/``hdi``/``ks``/
        ``composite`` rule, on its samples in draw order."""
        target = self.targets[row]
        kind, q = self._kinds[self._kind[row]]
        wanted = _COMPOSITE_MEMBERS if target.rule == "composite" else (target.rule,)
        votes: list[RuleVote] = []
        replicates: np.ndarray | None = None
        for rule in wanted:
            if rule == "ci":
                votes.append(ci)
            elif rule in ("bootstrap", "hdi"):
                if replicates is None:
                    replicates = _bootstrap_replicates(samples, kind, q, self._rng(row))
                if rule == "bootstrap":
                    lo_p = (1.0 - target.confidence) / 2.0
                    lo, hi = np.quantile(replicates, (lo_p, 1.0 - lo_p))
                    hw = (float(hi) - float(lo)) / 2.0
                else:
                    hw = _hdi_half_width(replicates, target.confidence)
                votes.append(RuleVote(rule, hw <= tolerance, hw, tolerance))
            else:  # ks
                n = samples.size
                half = n // 2
                d = _ks_distance(samples[:half], samples[half:])
                crit = _ks_critical(half, n - half, target.confidence)
                votes.append(RuleVote("ks", d <= crit, d, crit))
        return tuple(votes)

    def outcomes(self, budget: int | None = None) -> AdaptiveOutcomes:
        """Every row's last check as :class:`AdaptiveOutcomes` columns;
        ``[i]`` is row ``i``'s :class:`AdaptiveOutcome` (``None`` for a
        row without a target).  ``budget`` defaults to each target's
        cap."""
        n = len(self.targets)
        live, last, pos = self._live, self._last_check, self._last_pos
        if (last[live] < 0).any():
            raise ValueError("outcomes() before any assess()")
        draws = np.zeros(n, dtype=np.int64)
        estimate, half_width, tolerance = np.full((3, n), math.nan)
        converged = np.zeros(n, dtype=bool)
        for b, checks in enumerate(self._checks):
            at = np.flatnonzero(last == b)
            if at.size:
                j = pos[at]
                draws[at] = checks.draws
                estimate[at] = checks.estimate[j]
                half_width[at] = checks.half_width[j]
                tolerance[at] = checks.tolerance[j]
                converged[at] = checks.converged[j]
        caps = self._max_samples if budget is None else budget
        return AdaptiveOutcomes(
            self.targets,
            live.copy(),
            draws,
            estimate,
            half_width,
            tolerance,
            converged,
            np.where(live, caps, 0),
            tuple(self._checks),
        )
