"""Application of a fault plan to compute and message delivery.

The injector is the bridge between a :class:`~repro.faults.plan.FaultPlan`
and the cluster substrate.  It owns the two degradation semantics the
simulator needs:

* **Paused compute** — a crashed machine delivers no work while down and
  resumes afterwards (a checkpoint/restart model: progress made before
  the crash is retained; the *loss-and-reschedule* model lives in the
  batch layer, see :func:`repro.batch.scheduler.simulate_batch_with_recovery`).
  Implemented exactly by masking the machine's availability trace to
  zero inside crash windows and reusing the closed-form work inversion.
* **Bounded retry/backoff delivery** — a message whose link or endpoint
  is down times out and is retried on an exponential backoff schedule; a
  bounded number of attempts keeps chaos runs terminating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlan
from repro.util.validation import check_positive

__all__ = ["RetryPolicy", "DeliveryError", "FaultInjector"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for message delivery.

    Attributes
    ----------
    timeout:
        Seconds a failed delivery attempt occupies before it is declared
        dead (the sender's timeout).
    backoff:
        Multiplier on the wait between successive attempts; attempt ``k``
        (1-based) waits ``timeout * backoff**(k-1)`` after its failure.
    max_attempts:
        Total attempts (first try included) before delivery fails hard.
    """

    timeout: float = 5.0
    backoff: float = 2.0
    max_attempts: int = 6

    def __post_init__(self) -> None:
        check_positive(self.timeout, "timeout")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def retry_delay(self, attempt: int) -> float:
        """Wall-clock cost of failed ``attempt`` (timeout + backoff wait)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.timeout * self.backoff ** (attempt - 1)

    @property
    def max_retry_horizon(self) -> float:
        """Total seconds of outage the full retry budget can ride out."""
        return sum(self.retry_delay(k) for k in range(1, self.max_attempts))


class DeliveryError(RuntimeError):
    """A message exhausted its retry budget without being delivered."""


class FaultInjector:
    """Applies a :class:`FaultPlan` to machines and message delivery.

    The injector is stateless apart from delivery counters
    (``message_retries``, ``messages_failed``), which accumulate across
    runs so chaos experiments can report how hard the network fought back.
    """

    def __init__(self, plan: FaultPlan, *, retry: RetryPolicy | None = None):
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        self.message_retries = 0
        self.messages_failed = 0

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def compute_finish(self, machine, elements: float, t0: float) -> float:
        """Finish time of ``elements`` on ``machine`` with crash pauses.

        Work pauses while the machine is inside a crash window and
        resumes on restart; with no crash windows this is exactly
        ``machine.compute_finish``.
        """
        crashes = self.plan.machine_crashes.get(machine.name, ())
        if not crashes:
            return machine.compute_finish(elements, t0)
        masked = machine.availability.masked([(o.start, o.end) for o in crashes], 0.0)
        return machine.with_availability(masked).compute_finish(elements, t0)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def deliver(self, network, src: str, dst: str, nbytes: float, begin: float) -> float:
        """Arrival time of a message under outages, with bounded retries.

        An attempt fails when either endpoint machine is down at send
        time, the link is down at send time, an outage opens mid-flight,
        or the receiver is down at arrival.  Each failure costs
        ``retry.retry_delay(attempt)`` seconds; after ``max_attempts``
        failures a :class:`DeliveryError` is raised.
        """
        plan, retry = self.plan, self.retry
        t = begin
        for attempt in range(1, retry.max_attempts + 1):
            healthy = not (
                plan.machine_down(src, t)
                or plan.machine_down(dst, t)
                or plan.link_down(src, dst, t)
            )
            if healthy:
                arrive = network.transfer_finish(src, dst, nbytes, t)
                in_flight_outage = plan.link_outage_overlapping(src, dst, t, arrive)
                if in_flight_outage is None and not plan.machine_down(dst, arrive):
                    return arrive
            if attempt == retry.max_attempts:
                break
            self.message_retries += 1
            t += retry.retry_delay(attempt)
        self.messages_failed += 1
        raise DeliveryError(
            f"message {src} -> {dst} ({nbytes:g} B) undeliverable after "
            f"{retry.max_attempts} attempts starting at t={begin:g}"
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def downtime(self, machine_names, t0: float, t1: float) -> float:
        """Total machine-down seconds across ``machine_names`` in ``[t0, t1]``."""
        return sum((self.plan.machine_downtime(name, t0, t1) for name in machine_names), 0.0)
