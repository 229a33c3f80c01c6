"""Struct-of-arrays request/response core for the serving hot path.

The per-request Python object path — one frozen dataclass per request,
dict shuffles through admission → batch → deliver — tops out around a
couple of thousand wall-QPS: the math stopped being the bottleneck the
moment evaluation was vectorised, and object plumbing took its place.
This module is the array-native core that removes it:

* :class:`RequestBatch` — parallel NumPy arrays (submitted, deadline,
  model code, client code, precision) describing many
  requests at once, with small interning tables for the string-valued
  columns.  The typed protocol survives as a **lazy view**: indexing a
  batch materialises the exact :class:`~repro.serving.protocol.PredictRequest`
  a scalar caller would have built, byte-identical, so goldens, traces
  and tags never see the representation change.
* :class:`ResponseBatch` — the answer-side mirror: status / reason /
  quality codes plus value columns, again with lazy
  :class:`~repro.serving.protocol.PredictResponse` /
  :class:`~repro.serving.protocol.OverloadedResponse` /
  :class:`~repro.serving.protocol.ErrorResponse` views.
* :func:`admit_batch` — vectorised admission control: token-bucket
  refill and spend, queue bounds, all as array ops, with decisions
  *request-for-request identical* to feeding the same stream through
  the scalar :class:`~repro.serving.admission.AdmissionController`
  (property-tested in ``tests/test_columnar.py``).

Ragged per-request payloads (override dicts, precision targets) do not
vectorise; they ride as optional tuple sidecars through the server's
one queue, and the evaluation reads them row by row where it must (see
``docs/serving.md``, "One path").  Rich answer blocks ride back the
same way, in the ``messages`` sidecar, and are built on read: this
module is the one place that builds and reads that sidecar.

Deadlines are stored as ``float64`` with ``+inf`` standing in for
"wait forever", so deadline checks are a single array comparison.  The
boundary convention is **inclusive** (see
:mod:`repro.serving.protocol`): a request is shed only when service
would begin *strictly after* its deadline — ``deadline < t``, never
``<=``.
"""

from __future__ import annotations

from copy import copy
from itertools import repeat

import numpy as np

from repro.core.stochastic import StochasticValue
from repro.nws.service import QUALITIES
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_THROTTLED,
    SHED_UNAVAILABLE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    ErrorResponse,
    OverloadedResponse,
    PredictRequest,
    PredictResponse,
    Response,
)
from repro.util.columns import Columns, intern

__all__ = [
    "NO_DEADLINE",
    "ADMIT",
    "RequestBatch",
    "ResponseBatch",
    "admit_batch",
    "rich_messages",
    "REASONS",
    "STATUSES",
]

#: Column encoding of "no deadline" (``PredictRequest.deadline is None``).
NO_DEADLINE = float("inf")

#: Status codes used by :class:`ResponseBatch` (index into this tuple).
STATUSES = (STATUS_OK, STATUS_OVERLOADED, STATUS_ERROR)

#: Shed-reason codes: index 0 is "no reason" (ok/error rows).
REASONS = ("", SHED_QUEUE_FULL, SHED_THROTTLED, SHED_DEADLINE, SHED_UNAVAILABLE)

#: Admission verdict codes returned by :func:`admit_batch`.
ADMIT = 0
_VERDICT_QUEUE_FULL = REASONS.index(SHED_QUEUE_FULL)
_VERDICT_THROTTLED = REASONS.index(SHED_THROTTLED)

_STATUS_OK = STATUSES.index(STATUS_OK)
_STATUS_OVERLOADED = STATUSES.index(STATUS_OVERLOADED)


class RequestBatch(Columns):
    """Many :class:`~repro.serving.protocol.PredictRequest`\\ s as columns.

    Parameters
    ----------
    request_id, submitted, deadline:
        Parallel arrays; ``deadline`` uses :data:`NO_DEADLINE` (``inf``)
        for requests that wait forever.
    client, clients / model, models:
        Interned string columns: ``client``/``model`` are integer codes
        into the ``clients``/``models`` tables.
    overrides, precision:
        Optional tuple sidecars (one entry per request) for the ragged
        payloads the protocol allows.  ``None`` (the hot-path case)
        means "all empty"/"all None".
    failover:
        Optional bool column marking rows a serving cluster routed to a
        standby owner or migrated off a crashed or drained worker; it
        rides through the worker to the answer, which the cluster then
        tags and degrades.  ``None`` means no row failed over.  Routing
        state, not protocol: :meth:`request` does not carry it.

    Columns are passed by keyword; every row column and table is required.
    """

    _ROWS = {
        "request_id": np.int64,
        "client": np.int32,
        "model": np.int32,
        "submitted": float,
        "deadline": float,
    }
    _TABLES = {"client": "clients", "model": "models"}
    _SIDECARS = {"overrides": {}, "precision": None, "failover": False}
    __slots__ = (*_ROWS, *_TABLES.values(), *_SIDECARS)
    # Bound here rather than inherited: the layer profiler wraps them by
    # class (``benchmarks/perf/layers.py``).
    select = Columns.take
    concat = vars(Columns)["concat"]

    @classmethod
    def from_requests(cls, requests) -> "RequestBatch":
        """Columnise a sequence of :class:`PredictRequest` objects."""
        requests = list(requests)
        n = len(requests)
        client, clients = intern([r.client_id for r in requests])
        model, models = intern([r.model for r in requests])
        overrides = tuple(r.overrides for r in requests)
        precision = tuple(r.precision for r in requests)
        return cls(
            request_id=np.fromiter(
                (r.request_id for r in requests), dtype=np.int64, count=n
            ),
            client=client,
            clients=clients,
            model=model,
            models=models,
            submitted=np.fromiter((r.submitted for r in requests), dtype=float, count=n),
            deadline=np.fromiter(
                (NO_DEADLINE if r.deadline is None else r.deadline for r in requests),
                dtype=float,
                count=n,
            ),
            overrides=None if not any(overrides) else overrides,
            precision=None if all(p is None for p in precision) else precision,
        )

    def request(self, i: int) -> PredictRequest:
        """Materialise row ``i`` as the exact scalar-protocol dataclass."""
        deadline = float(self.deadline[i])
        return PredictRequest(
            request_id=int(self.request_id[i]),
            client_id=self.clients[self.client[i]],
            model=self.models[self.model[i]],
            submitted=float(self.submitted[i]),
            deadline=None if deadline == NO_DEADLINE else deadline,
            overrides=self.overrides[i] if self.overrides is not None else {},
            precision=self.precision[i] if self.precision is not None else None,
        )

    def __iter__(self):
        return (self.request(i) for i in range(len(self)))

    def to_requests(self) -> list[PredictRequest]:
        """Every row materialised, in order (the inverse of :meth:`from_requests`)."""
        return [self.request(i) for i in range(len(self))]


class ResponseBatch(Columns):
    """Many typed responses as columns, with lazy dataclass views.

    Value columns (``mean``/``spread``/``p95``/…) are meaningful only on
    ``ok`` rows; ``retry_after`` only on ``overloaded`` rows.  A column
    left out of the constructor is zeros (``ok``, no shed reason).  The
    ``messages`` sidecar carries what does not columnise: an ``error``
    row's message, or an ``ok`` row's rich blocks as ``(precision block,
    distributions, j)`` shared by its batch (the view builds ``block[j]``
    and reads ``distributions[j]``; either may be ``None``; see
    :func:`rich_messages`).  ``quality`` indexes
    :data:`~repro.nws.service.QUALITIES`; ``status`` indexes
    :data:`STATUSES`; ``reason`` indexes :data:`REASONS`.  The optional
    ``failover`` column (``None``: no row failed over) marks answers a
    standby served; it is carried over from the request rows.
    """

    _ROWS = {
        "request_id": np.int64,
        "client": np.int32,
        "model": np.int32,
        "status": np.int8,
        "reason": np.int8,
        "completed": float,
        "mean": float,
        "spread": float,
        "p95": float,
        "quality": np.int8,
        "staleness": float,
        "latency": float,
        "batch_size": np.int32,
        "retry_after": float,
        "worker": np.int16,
    }
    _TABLES = {"client": "clients", "model": "models", "worker": "workers"}
    _SIDECARS = {"messages": None, "failover": False}
    _ZERO_FILL = True
    __slots__ = (*_ROWS, *_TABLES.values(), *_SIDECARS)
    # Bound here rather than inherited, as on RequestBatch.
    select = Columns.take
    concat = vars(Columns)["concat"]

    @classmethod
    def from_responses(cls, responses) -> "ResponseBatch":
        """Columnise typed responses (the inverse of :meth:`to_responses`)."""
        responses = list(responses)
        n = len(responses)
        client, clients = intern([r.client_id for r in responses])
        worker, workers = intern([r.worker for r in responses])
        model, models = intern(
            [r.model if isinstance(r, PredictResponse) else "" for r in responses]
        )
        out = cls(
            request_id=np.fromiter((r.request_id for r in responses), np.int64, count=n),
            client=client,
            clients=clients,
            model=model,
            models=models,
            status=np.fromiter((STATUSES.index(r.status) for r in responses), np.int8, count=n),
            completed=np.fromiter((r.completed for r in responses), float, count=n),
            worker=worker,
            workers=workers,
        )
        failover = np.zeros(n, dtype=bool)
        messages = [None] * n
        for i, r in enumerate(responses):
            if isinstance(r, PredictResponse):
                out.mean[i] = r.value.mean
                out.spread[i] = r.value.spread
                out.p95[i] = r.p95
                out.quality[i] = QUALITIES.index(r.quality)
                out.staleness[i] = r.staleness
                out.latency[i] = r.latency
                out.batch_size[i] = r.batch_size
                failover[i] = r.failover
                if r.precision is not None or r.distribution is not None:
                    messages[i] = ((r.precision,), (r.distribution,), 0)
            elif isinstance(r, OverloadedResponse):
                out.reason[i] = REASONS.index(r.reason)
                out.retry_after[i] = r.retry_after
            else:
                messages[i] = r.message
        if any(m is not None for m in messages):
            out.messages = tuple(messages)
        if failover.any():
            out.failover = failover
        return out

    def response(self, i: int) -> Response:
        """Materialise row ``i`` as its scalar-protocol dataclass."""
        sidecar = self.messages[i] if self.messages is not None else None
        status = int(self.status[i])
        common = dict(
            request_id=int(self.request_id[i]),
            client_id=self.clients[self.client[i]],
            completed=float(self.completed[i]),
            worker=self.workers[self.worker[i]],
        )
        if status == _STATUS_OK:
            precision = distribution = None
            if sidecar is not None:
                block, dists, j = sidecar
                if block is not None:
                    precision = block[j]
                if dists is not None:
                    distribution = dists[j]
            return PredictResponse(
                **common,
                value=StochasticValue(float(self.mean[i]), float(self.spread[i])),
                p95=float(self.p95[i]),
                quality=QUALITIES[self.quality[i]],
                staleness=float(self.staleness[i]),
                latency=float(self.latency[i]),
                batch_size=int(self.batch_size[i]),
                model=self.models[self.model[i]],
                precision=precision,
                distribution=distribution,
                failover=self.failover is not None and bool(self.failover[i]),
            )
        if status == _STATUS_OVERLOADED:
            return OverloadedResponse(
                **common,
                reason=REASONS[self.reason[i]],
                retry_after=float(self.retry_after[i]),
            )
        return ErrorResponse(**common, message=sidecar or "")

    def __iter__(self):
        return (self.response(i) for i in range(len(self)))

    def to_responses(self) -> list[Response]:
        return [self.response(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    @property
    def ok_mask(self) -> np.ndarray:
        return self.status == _STATUS_OK

    @property
    def overloaded_mask(self) -> np.ndarray:
        return self.status == _STATUS_OVERLOADED

    def status_counts(self) -> dict:
        """``{"ok": n, "overloaded": n, "error": n}``."""
        counts = np.bincount(self.status, minlength=len(STATUSES))
        return {name: int(c) for name, c in zip(STATUSES, counts)}

    def reason_counts(self) -> dict:
        """Shed counts keyed by reason (overloaded rows only)."""
        reasons = self.reason[self.overloaded_mask]
        counts = np.bincount(reasons, minlength=len(REASONS))
        return {name: int(c) for name, c in zip(REASONS, counts) if name and c}

    def quality_counts(self) -> dict:
        """Answer counts keyed by forecast quality (ok rows only)."""
        quality = self.quality[self.ok_mask]
        counts = np.bincount(quality, minlength=len(QUALITIES))
        return {name: int(c) for name, c in zip(QUALITIES, counts) if c}

    def with_worker(self, name: str) -> "ResponseBatch":
        """Stamp one worker's attribution on every row (cluster
        delivery): a shallow copy sharing every other column."""
        return self._with(workers=(name,), worker=np.zeros(len(self), np.int16))

    def sorted_by_completion(self) -> "ResponseBatch":
        """Rows in completion order (stable, so ties keep arrival order)."""
        order = np.argsort(self.completed, kind="stable")
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.select(order)


def rich_messages(block, distributions, codes: np.ndarray) -> tuple:
    """The ``messages`` sidecar of ``ok`` rows that share one batch's
    rich blocks: row ``i`` reads ``block[codes[i]]`` and
    ``distributions[codes[i]]`` (either block may be ``None``)."""
    return tuple(zip(repeat(block), repeat(distributions), codes.tolist()))


# ----------------------------------------------------------------------
# Vectorised admission
# ----------------------------------------------------------------------
def admit_batch(
    controller: AdmissionController,
    batch: RequestBatch,
    queue_depth: int,
    clock: float,
) -> np.ndarray:
    """Admission verdicts for ``batch``, scalar-equivalent, in one pass.

    Returns an ``int8`` array per request: :data:`ADMIT` (0) to admit,
    else the :data:`REASONS` code of the shed
    (``queue_full``/``throttled``).  Feeding the same request stream
    through ``controller.admit`` one at a time yields the same verdicts
    *and* leaves the controller's token buckets in the same state.

    The scalar controller's sequential coupling (queue depth moves as
    requests are admitted; buckets refill lazily per submission) is
    reproduced exactly:

    * With no per-client rate limit the queue bound is a pure prefix
      rule — cumulative-admission arithmetic finds the cutoff.
    * With rate limiting, each client's rows spend from its own bucket
      in row order (:meth:`~repro.serving.admission.TokenBucket.allow_many`;
      distinct clients are independent).  Queue-full interacts with
      throttling only at one point: once the queue fills, *every* later
      request is shed ``queue_full`` before its bucket is consulted (the
      scalar check order).  So the grants are first computed on copies of
      the buckets, and only the spends before the cutoff are kept.
    """
    n = len(batch)
    policy = controller.policy
    verdict = np.zeros(n, dtype=np.int8)
    if n == 0:
        return verdict
    # The scalar server admits at now = max(clock, submitted).
    times = np.maximum(batch.submitted, clock)

    if policy.client_rate <= 0.0:
        room = policy.max_queue - queue_depth
        if room < n:
            verdict[max(room, 0) :] = _VERDICT_QUEUE_FULL
        return verdict

    token_ok, spent = _spend(controller, batch.clients, batch.client, times)
    # Queue depth before request i counts earlier admissions; before the
    # cutoff "admitted" == "token_ok" (queue_full cannot fire yet).
    cum_before = np.cumsum(token_ok) - token_ok
    full = queue_depth + cum_before >= policy.max_queue
    if full.any():
        cutoff = int(np.argmax(full))
        verdict[cutoff:] = _VERDICT_QUEUE_FULL
        verdict[:cutoff][~token_ok[:cutoff]] = _VERDICT_THROTTLED
        # Requests shed queue_full never reach a bucket in the scalar
        # order: keep the spends of the pre-cutoff prefix only.
        _, spent = _spend(controller, batch.clients, batch.client[:cutoff], times[:cutoff])
    else:
        verdict[~token_ok] = _VERDICT_THROTTLED
    controller._buckets.update(spent)
    return verdict


def _spend(
    controller: AdmissionController,
    clients: tuple,
    codes: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Token grants for rows of clients ``clients[codes]`` arriving at
    ``times``, spent from *copies* of the controller's buckets.

    Returns the per-row grant mask and the spent copies by client id
    (including buckets the scalar controller would create on a client's
    first row); the controller itself is left untouched.
    """
    policy = controller.policy
    grant = np.zeros(codes.shape[0], dtype=bool)
    spent: dict[str, TokenBucket] = {}
    if not codes.shape[0]:
        return grant, spent
    order = np.argsort(codes, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        client_id = clients[codes[rows[0]]]
        bucket = controller._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(
                policy.client_rate, policy.client_burst, now=float(times[rows[0]])
            )
        else:
            bucket = copy(bucket)
        grant[rows] = bucket.allow_many(times[rows])
        spent[client_id] = bucket
    return grant, spent
