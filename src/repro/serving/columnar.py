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
same way, in the ``messages`` sidecar, and are built on read.

Deadlines are stored as ``float64`` with ``+inf`` standing in for
"wait forever", so deadline checks are a single array comparison.  The
boundary convention is **inclusive** (see
:mod:`repro.serving.protocol`): a request is shed only when service
would begin *strictly after* its deadline — ``deadline < t``, never
``<=``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace
from itertools import chain

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

__all__ = [
    "NO_DEADLINE",
    "ADMIT",
    "RequestBatch",
    "ResponseBatch",
    "admit_batch",
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
_STATUS_ERROR = STATUSES.index(STATUS_ERROR)


def _intern(values) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode a sequence of strings as ``(codes, table)``."""
    table: list[str] = []
    index: dict[str, int] = {}
    codes = np.empty(len(values), dtype=np.int32)
    for i, v in enumerate(values):
        code = index.get(v)
        if code is None:
            code = index[v] = len(table)
            table.append(v)
        codes[i] = code
    return codes, tuple(table)


class RequestBatch:
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
    """

    __slots__ = (
        "request_id",
        "client",
        "clients",
        "model",
        "models",
        "submitted",
        "deadline",
        "overrides",
        "precision",
        "failover",
    )

    def __init__(
        self,
        request_id: np.ndarray,
        client: np.ndarray,
        clients: tuple,
        model: np.ndarray,
        models: tuple,
        submitted: np.ndarray,
        deadline: np.ndarray,
        overrides: tuple | None = None,
        precision: tuple | None = None,
        failover: np.ndarray | None = None,
    ):
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.client = np.asarray(client, dtype=np.int32)
        self.clients = tuple(clients)
        self.model = np.asarray(model, dtype=np.int32)
        self.models = tuple(models)
        self.submitted = np.asarray(submitted, dtype=float)
        self.deadline = np.asarray(deadline, dtype=float)
        n = self.request_id.shape[0]
        self.overrides = overrides
        self.precision = precision
        self.failover = failover
        for name in ("client", "model", "submitted", "deadline"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {arr.shape}, expected ({n},)"
                )
        for name in ("overrides", "precision", "failover"):
            side = getattr(self, name)
            if side is not None and len(side) != n:
                raise ValueError(f"sidecar {name!r} has {len(side)} entries, expected {n}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.request_id.shape[0])

    @classmethod
    def from_requests(cls, requests) -> "RequestBatch":
        """Columnise a sequence of :class:`PredictRequest` objects."""
        requests = list(requests)
        n = len(requests)
        client, clients = _intern([r.client_id for r in requests])
        model, models = _intern([r.model for r in requests])
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
        """Every row materialised (tests and scalar fallbacks only)."""
        return [self.request(i) for i in range(len(self))]

    def select(self, index) -> "RequestBatch":
        """Row subset by boolean mask or index array (tables shared)."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return RequestBatch(
            request_id=self.request_id[index],
            client=self.client[index],
            clients=self.clients,
            model=self.model[index],
            models=self.models,
            submitted=self.submitted[index],
            deadline=self.deadline[index],
            overrides=None
            if self.overrides is None
            else tuple(self.overrides[i] for i in index),
            precision=None
            if self.precision is None
            else tuple(self.precision[i] for i in index),
            failover=None if self.failover is None else self.failover[index],
        )

    @classmethod
    def concat(cls, batches) -> "RequestBatch":
        """Concatenate batches (string tables re-interned as needed)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            raise ValueError("cannot concatenate zero non-empty batches")
        if len(batches) == 1:
            return batches[0]
        clients, client_cols = _merge_tables(
            [(b.client, b.clients) for b in batches]
        )
        models, model_cols = _merge_tables([(b.model, b.models) for b in batches])
        any_over = any(b.overrides is not None for b in batches)
        any_prec = any(b.precision is not None for b in batches)
        return cls(
            request_id=np.concatenate([b.request_id for b in batches]),
            client=np.concatenate(client_cols),
            clients=clients,
            model=np.concatenate(model_cols),
            models=models,
            submitted=np.concatenate([b.submitted for b in batches]),
            deadline=np.concatenate([b.deadline for b in batches]),
            overrides=None
            if not any_over
            else tuple(
                o for b in batches for o in (b.overrides or ({},) * len(b))
            ),
            precision=None
            if not any_prec
            else tuple(
                p for b in batches for p in (b.precision or (None,) * len(b))
            ),
            failover=_concat_failover(batches),
        )


def _concat_failover(batches) -> np.ndarray | None:
    """The batches' ``failover`` columns joined (``None`` reads as all False)."""
    if all(b.failover is None for b in batches):
        return None
    return np.concatenate(
        [np.zeros(len(b), dtype=bool) if b.failover is None else b.failover for b in batches]
    )


def _merge_tables(columns) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Re-intern several ``(codes, table)`` columns into one table."""
    table: list[str] = []
    index: dict[str, int] = {}
    out_cols: list[np.ndarray] = []
    for codes, tab in columns:
        remap = np.empty(max(len(tab), 1), dtype=np.int32)
        for j, name in enumerate(tab):
            code = index.get(name)
            if code is None:
                code = index[name] = len(table)
                table.append(name)
            remap[j] = code
        out_cols.append(remap[codes])
    return tuple(table), out_cols


class ResponseBatch:
    """Many typed responses as columns, with lazy dataclass views.

    Value columns (``mean``/``spread``/``p95``/…) are meaningful only on
    ``ok`` rows; ``retry_after`` only on ``overloaded`` rows.  The
    ``messages`` sidecar carries what does not columnise: an ``error``
    row's message, an ``ok`` row's rich blocks as ``(precision,
    distributions, j)`` (the view reads ``distributions[j]``), or a
    whole response kept as it came.  ``quality`` indexes
    :data:`~repro.nws.service.QUALITIES`; ``status`` indexes
    :data:`STATUSES`; ``reason`` indexes :data:`REASONS`.  The optional
    ``failover`` column (``None``: no row failed over) marks answers a
    standby served; it is carried over from the request rows.
    """

    __slots__ = (
        "request_id",
        "client",
        "clients",
        "model",
        "models",
        "status",
        "reason",
        "completed",
        "mean",
        "spread",
        "p95",
        "quality",
        "staleness",
        "latency",
        "batch_size",
        "retry_after",
        "worker",
        "workers",
        "messages",
        "failover",
    )

    def __init__(
        self,
        request_id,
        client,
        clients,
        model,
        models,
        status,
        reason,
        completed,
        mean,
        spread,
        p95,
        quality,
        staleness,
        latency,
        batch_size,
        retry_after,
        worker=None,
        workers=("",),
        messages=None,
        failover=None,
    ):
        self.request_id = np.asarray(request_id, dtype=np.int64)
        n = self.request_id.shape[0]
        self.client = np.asarray(client, dtype=np.int32)
        self.clients = tuple(clients)
        self.model = np.asarray(model, dtype=np.int32)
        self.models = tuple(models)
        self.status = np.asarray(status, dtype=np.int8)
        self.reason = np.asarray(reason, dtype=np.int8)
        self.completed = np.asarray(completed, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.spread = np.asarray(spread, dtype=float)
        self.p95 = np.asarray(p95, dtype=float)
        self.quality = np.asarray(quality, dtype=np.int8)
        self.staleness = np.asarray(staleness, dtype=float)
        self.latency = np.asarray(latency, dtype=float)
        self.batch_size = np.asarray(batch_size, dtype=np.int32)
        self.retry_after = np.asarray(retry_after, dtype=float)
        self.worker = (
            np.zeros(n, dtype=np.int16) if worker is None else np.asarray(worker, dtype=np.int16)
        )
        self.workers = tuple(workers)
        self.messages = messages
        if messages is not None and len(messages) != n:
            raise ValueError(f"messages sidecar has {len(messages)} entries, expected {n}")
        self.failover = failover
        if failover is not None and len(failover) != n:
            raise ValueError(f"failover column has {len(failover)} entries, expected {n}")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.request_id.shape[0])

    @classmethod
    def empty(cls) -> "ResponseBatch":
        z = np.empty(0)
        zi = np.empty(0, dtype=np.int64)
        return cls(zi, z, (), z, (), z, z, z, z, z, z, z, z, z, z, z)

    @classmethod
    def from_responses(cls, responses) -> "ResponseBatch":
        """Columnise scalar responses (the scalar-fallback merge path)."""
        responses = list(responses)
        n = len(responses)
        client, clients = _intern([r.client_id for r in responses])
        worker, workers = _intern([r.worker for r in responses])
        model, models = _intern(
            [r.model if isinstance(r, PredictResponse) else "" for r in responses]
        )
        status = np.fromiter(
            (STATUSES.index(r.status) for r in responses), dtype=np.int8, count=n
        )
        reason = np.zeros(n, dtype=np.int8)
        mean = np.zeros(n)
        spread = np.zeros(n)
        p95 = np.zeros(n)
        quality = np.zeros(n, dtype=np.int8)
        staleness = np.zeros(n)
        latency = np.zeros(n)
        batch_size = np.ones(n, dtype=np.int32)
        retry_after = np.zeros(n)
        failover = np.zeros(n, dtype=bool)
        messages = [None] * n
        any_message = False
        for i, r in enumerate(responses):
            if isinstance(r, PredictResponse):
                mean[i] = r.value.mean
                spread[i] = r.value.spread
                p95[i] = r.p95
                quality[i] = QUALITIES.index(r.quality)
                staleness[i] = r.staleness
                latency[i] = r.latency
                batch_size[i] = r.batch_size
                failover[i] = r.failover
                if r.precision is not None or r.distribution is not None or r.failover:
                    # Rich per-answer blocks do not columnise; keep the
                    # original object so the view stays byte-identical.
                    messages[i] = r
                    any_message = True
            elif isinstance(r, OverloadedResponse):
                reason[i] = REASONS.index(r.reason)
                retry_after[i] = r.retry_after
            else:
                messages[i] = r.message
                any_message = True
        return cls(
            request_id=np.fromiter((r.request_id for r in responses), np.int64, count=n),
            client=client,
            clients=clients,
            model=model,
            models=models,
            status=status,
            reason=reason,
            completed=np.fromiter((r.completed for r in responses), float, count=n),
            mean=mean,
            spread=spread,
            p95=p95,
            quality=quality,
            staleness=staleness,
            latency=latency,
            batch_size=batch_size,
            retry_after=retry_after,
            worker=worker,
            workers=workers,
            messages=tuple(messages) if any_message else None,
            failover=failover if failover.any() else None,
        )

    def response(self, i: int) -> Response:
        """Materialise row ``i`` as its scalar-protocol dataclass."""
        sidecar = self.messages[i] if self.messages is not None else None
        if isinstance(sidecar, Response):
            return sidecar
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
                precision, dists, j = sidecar
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

    @property
    def error_mask(self) -> np.ndarray:
        return self.status == _STATUS_ERROR

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

    def select(self, index) -> "ResponseBatch":
        """Row subset by boolean mask or index array (tables shared)."""
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        return ResponseBatch(
            request_id=self.request_id[index],
            client=self.client[index],
            clients=self.clients,
            model=self.model[index],
            models=self.models,
            status=self.status[index],
            reason=self.reason[index],
            completed=self.completed[index],
            mean=self.mean[index],
            spread=self.spread[index],
            p95=self.p95[index],
            quality=self.quality[index],
            staleness=self.staleness[index],
            latency=self.latency[index],
            batch_size=self.batch_size[index],
            retry_after=self.retry_after[index],
            worker=self.worker[index],
            workers=self.workers,
            messages=None
            if self.messages is None
            else tuple(map(self.messages.__getitem__, index.tolist())),
            failover=None if self.failover is None else self.failover[index],
        )

    def with_worker(self, name: str) -> "ResponseBatch":
        """Stamp one worker's attribution on every row (cluster delivery)."""
        out = self.select(np.arange(len(self)))
        out.workers = (name,)
        out.worker = np.zeros(len(out), dtype=np.int16)
        if out.messages is not None:
            # Rows carried as whole Response objects (rich per-answer
            # blocks) must be stamped individually, like the columns.
            out.messages = tuple(
                replace(m, worker=name) if isinstance(m, Response) else m
                for m in out.messages
            )
        return out

    @classmethod
    def concat(cls, batches) -> "ResponseBatch":
        """Concatenate batches, re-interning the string tables."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        clients, client_cols = _merge_tables([(b.client, b.clients) for b in batches])
        models, model_cols = _merge_tables([(b.model, b.models) for b in batches])
        workers, worker_cols = _merge_tables([(b.worker, b.workers) for b in batches])
        any_msg = any(b.messages is not None for b in batches)
        return cls(
            request_id=np.concatenate([b.request_id for b in batches]),
            client=np.concatenate(client_cols),
            clients=clients,
            model=np.concatenate(model_cols),
            models=models,
            status=np.concatenate([b.status for b in batches]),
            reason=np.concatenate([b.reason for b in batches]),
            completed=np.concatenate([b.completed for b in batches]),
            mean=np.concatenate([b.mean for b in batches]),
            spread=np.concatenate([b.spread for b in batches]),
            p95=np.concatenate([b.p95 for b in batches]),
            quality=np.concatenate([b.quality for b in batches]),
            staleness=np.concatenate([b.staleness for b in batches]),
            latency=np.concatenate([b.latency for b in batches]),
            batch_size=np.concatenate([b.batch_size for b in batches]),
            retry_after=np.concatenate([b.retry_after for b in batches]),
            worker=np.concatenate(
                [c.astype(np.int16) for c in worker_cols]
            ),
            workers=workers,
            messages=None
            if not any_msg
            else tuple(chain.from_iterable(b.messages or (None,) * len(b) for b in batches)),
            failover=_concat_failover(batches),
        )

    def sorted_by_completion(self) -> "ResponseBatch":
        """Rows in completion order (stable, so ties keep arrival order)."""
        order = np.argsort(self.completed, kind="stable")
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.select(order)


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
