"""Admission control: bounded queue, per-client token buckets, deadlines.

The server's first line of defence against overload.  Three independent
mechanisms, all deterministic in simulated time:

* a **bounded queue** — once ``max_queue`` requests are waiting, new
  arrivals are shed immediately (``queue_full``) instead of growing an
  unbounded backlog whose tail latency is worthless anyway;
* a **per-client token bucket** — each client earns ``rate`` tokens per
  simulated second up to ``burst``; a submission spends one token, and a
  client that has spent its burst is shed (``throttled``) so one chatty
  client cannot starve the rest;
* **deadline-aware shedding** — a queued request whose deadline passes
  before service begins is shed (``deadline``) at dequeue time; spending
  a vectorised evaluation on an answer nobody is waiting for only delays
  the answers somebody *is* waiting for.

A fourth, gentler mechanism rides on adaptive sampling: **precision
shedding**.  When the queue fills past the rungs of a
``precision_ladder``, the server multiplies the tolerance of every
adaptive precision target it serves — cheaper answers drain the backlog
faster — *before* any request is turned away.  Degradation is tagged on
the response's :class:`~repro.serving.protocol.PrecisionInfo` block
(``degraded``/``shed_factor``/``reason``), never silent.

Shedding is a typed :class:`~repro.serving.protocol.OverloadedResponse`,
never an exception — admission is a quality-of-service decision, not an
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import (
    check_count,
    check_finite,
    check_nonnegative,
    check_positive,
)

__all__ = [
    "AdmissionPolicy",
    "TokenBucket",
    "AdmissionController",
    "DEFAULT_PRECISION_LADDER",
    "SPEND_EPS",
]

#: A reasonable precision-shedding ladder: loosen tolerances 2x once the
#: queue is half full, 4x at three quarters, 8x when nearly full.
DEFAULT_PRECISION_LADDER = ((0.5, 2.0), (0.75, 4.0), (0.9, 8.0))


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the admission controller.

    Attributes
    ----------
    max_queue:
        Maximum requests waiting for service; arrivals beyond it shed.
    client_rate:
        Token-bucket refill rate per client in requests per simulated
        second; ``0`` disables per-client throttling.
    client_burst:
        Token-bucket capacity — how many back-to-back requests a client
        may land before the rate limit bites.
    precision_ladder:
        Precision-shedding rungs: ``(queue_fraction, factor)`` pairs,
        ascending in both coordinates.  At batch-formation time the
        highest rung whose fraction the queue has crossed sets the
        tolerance multiplier applied to adaptive precision targets
        (``()`` — the default — disables precision shedding entirely).
        See :data:`DEFAULT_PRECISION_LADDER`.
    """

    max_queue: int = 256
    client_rate: float = 0.0
    client_burst: float = 8.0
    precision_ladder: tuple = ()

    def __post_init__(self) -> None:
        check_count(self.max_queue, "max_queue", 1)
        check_nonnegative(self.client_rate, "client_rate")
        check_positive(self.client_burst, "client_burst")
        ladder = tuple((float(f), float(m)) for f, m in self.precision_ladder)
        object.__setattr__(self, "precision_ladder", ladder)
        prev_frac, prev_mult = 0.0, 1.0
        for frac, mult in ladder:
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"ladder queue fractions must lie in (0, 1], got {frac}")
            if frac <= prev_frac:
                raise ValueError(f"ladder queue fractions must ascend, got {ladder}")
            if mult <= prev_mult:
                raise ValueError(
                    f"ladder factors must ascend and exceed 1, got {ladder}"
                )
            check_finite(mult, "ladder factor")
            prev_frac, prev_mult = frac, mult


#: Spend-check slack absorbing one rounding step of ``rate * dt``: a
#: client submitting at exactly its allowed cadence can compute a refill
#: ulps short of a full token (``3 * (1/3) == 0.9999999999999998``) and
#: must not be shed at its own contract rate for it.
SPEND_EPS = 1e-9


class TokenBucket:
    """A token bucket metered against simulated time, with exact accounting.

    State is an *anchor*: the token balance at a reference instant.  The
    balance at any later ``now`` is one multiply away —
    ``min(burst, tokens + rate * (now - anchor))`` — so one rounding step
    is the worst-case error no matter how often the bucket is consulted.
    The naive alternative (add ``rate * dt`` to a running balance on
    every call) compounds that rounding: each refill of a client
    submitting at exactly its allowed rate lands ulps short, the deficit
    accumulates, and the client is eventually shed at the rate its
    contract allows.  The anchor advances only on a spend and a denied
    probe leaves state untouched, so polling cannot perturb the balance;
    the residual single-multiply rounding at the spend boundary is
    absorbed by :data:`SPEND_EPS`.
    """

    __slots__ = ("rate", "burst", "_tokens", "_anchor")

    def __init__(self, rate: float, burst: float, *, now: float = 0.0):
        check_nonnegative(rate, "rate")
        check_positive(burst, "burst")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._anchor = now

    def tokens(self, now: float) -> float:
        """Tokens available at ``now`` (pure — no state change)."""
        if now <= self._anchor:
            return self._tokens
        return min(self.burst, self._tokens + self.rate * (now - self._anchor))

    def allow(self, now: float) -> bool:
        """Spend one token if available at ``now``."""
        return bool(self.allow_many((now,))[0])

    def allow_many(self, times) -> np.ndarray:
        """Try to spend one token at each instant of ``times`` in turn;
        the grant mask.  One loop over Python floats: the grants and the
        state left behind are those of calling :meth:`allow` per instant.
        """
        tokens, anchor, rate, burst = self._tokens, self._anchor, self.rate, self.burst
        granted = []
        for now in np.asarray(times, dtype=float).tolist():
            avail = tokens if now <= anchor else min(burst, tokens + rate * (now - anchor))
            ok = avail >= 1.0 - SPEND_EPS
            if ok:
                tokens = max(0.0, avail - 1.0)
                anchor = max(anchor, now)
            granted.append(ok)
        self._tokens, self._anchor = tokens, anchor
        return np.array(granted, dtype=bool)


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` to a stream of submissions.

    The controller owns only the decision; the server owns the queue.
    ``admit`` is asked with the current queue depth and returns ``None``
    (admitted) or a shed *reason* string from
    :mod:`repro.serving.protocol`.
    """

    def __init__(self, policy: AdmissionPolicy):
        self.policy = policy
        self._buckets: dict[str, TokenBucket] = {}

    def admit(self, client_id: str, queue_depth: int, now: float) -> str | None:
        """``None`` to admit, else the shed reason."""
        from repro.serving.protocol import SHED_QUEUE_FULL, SHED_THROTTLED

        if queue_depth >= self.policy.max_queue:
            return SHED_QUEUE_FULL
        if self.policy.client_rate > 0.0:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(
                    self.policy.client_rate, self.policy.client_burst, now=now
                )
                self._buckets[client_id] = bucket
            if not bucket.allow(now):
                return SHED_THROTTLED
        return None

    def precision_factor(self, queue_depth: int) -> float:
        """Tolerance multiplier for the current queue pressure.

        ``1.0`` (no degradation) below the first ladder rung or with no
        ladder configured; otherwise the factor of the highest rung the
        queue fraction has reached.
        """
        factor = 1.0
        if not self.policy.precision_ladder:
            return factor
        fraction = queue_depth / self.policy.max_queue
        for rung_fraction, rung_factor in self.policy.precision_ladder:
            if fraction >= rung_fraction:
                factor = rung_factor
        return factor

    def retry_after(self, queue_depth: int, drain_rate: float) -> float:
        """Advice for a shed client: seconds for the backlog to drain.

        ``drain_rate`` is the server's service capacity in requests per
        simulated second at its current batching regime.
        """
        if drain_rate <= 0.0:
            return float("inf")
        return queue_depth / drain_rate
