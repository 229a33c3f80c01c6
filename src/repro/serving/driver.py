"""Deterministic load generation against a prediction server.

A :class:`LoadDriver` plays a population of clients against a
:class:`~repro.serving.server.PredictionServer` on a simulated-time tick
grid, reusing the arrival-process idioms of
:mod:`repro.workload.loadgen` (seeded exponential inter-arrival draws):

* **open loop** (:class:`OpenLoop`) — submissions arrive by a Poisson
  process, indifferent to responses.  The honest way to overload a
  server: arrivals do not slow down when the queue grows.  The rate is
  either a constant or any
  :class:`~repro.serving.schedules.RateSchedule` (diurnal waves, flash
  crowds, explicit segments), realised as a non-homogeneous Poisson
  process by seeded Lewis–Shedler thinning.
* **closed loop** (:class:`ClosedLoop`) — each client keeps exactly one
  request in flight: submit, wait for the response, think, submit
  again.  Shed clients back off by the server's ``retry_after`` advice.

Each tick the due submissions are built straight into one
:class:`~repro.serving.columnar.RequestBatch` and the server is driven
through its batch surface (``submit_batch`` / ``step_batch``); answers
stay columns from server to report.

Every run is bit-reproducible from a seed: arrival draws, model choice
and the server's own sampling all flow from seeded generators, and time
is simulated throughout.  Wall-clock time is measured only as an
*observation* (for throughput reporting); it never feeds back into the
schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.nws.service import QUALITIES
from repro.serving.columnar import NO_DEADLINE, REASONS, STATUSES, RequestBatch, ResponseBatch
from repro.serving.protocol import STATUS_OK, STATUS_OVERLOADED
from repro.serving.schedules import RateSchedule
from repro.util.rng import as_generator
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["OpenLoop", "ClosedLoop", "DriveReport", "LoadDriver"]

#: Exponential draws per vectorised chunk of constant-rate arrivals.
_ARRIVAL_CHUNK = 1 << 16


@dataclass(frozen=True)
class OpenLoop:
    """Poisson arrivals attributed round-robin to ``clients`` identities.

    ``rate`` is either a constant (requests per simulated second — the
    draw sequence is bit-identical to the original constant-rate
    driver) or a :class:`~repro.serving.schedules.RateSchedule`, whose
    time axis is relative to the drive start.
    """

    rate: float | RateSchedule
    clients: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.rate, RateSchedule):
            check_positive(self.rate, "rate")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")

    @property
    def schedule(self) -> RateSchedule | None:
        """The rate schedule, or ``None`` for the constant-rate case."""
        return self.rate if isinstance(self.rate, RateSchedule) else None


@dataclass(frozen=True)
class ClosedLoop:
    """``clients`` concurrent clients, one request in flight each,
    ``think_time`` simulated seconds between response and resubmit."""

    clients: int
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        check_nonnegative(self.think_time, "think_time")


@dataclass
class DriveReport:
    """What a drive produced, summarised for gates and tables.

    ``responses`` holds every answer as one
    :class:`~repro.serving.columnar.ResponseBatch` in completion order
    (iterating it yields the typed responses).  The drive keeps the
    answers as the batches the server returned and joins them on the
    first read of ``responses``; the count/latency fields are derived
    from their columns once at the end of the run, so a drive whose
    caller reads only the counts never pays for the join.
    """

    parts: list = field(default_factory=list, repr=False)
    submitted: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    shed_reasons: dict = field(default_factory=dict)
    qualities: dict = field(default_factory=dict)
    sim_duration: float = 0.0
    wall_seconds: float = 0.0
    latency_p50: float = float("nan")
    latency_p99: float = float("nan")
    latency_max: float = float("nan")
    #: Delivery accounting over request ids: ``duplicates`` counts ids
    #: answered more than once, ``lost`` ids never answered.  A drive is
    #: lossless iff both stay zero.
    duplicates: int = 0
    lost: int = 0

    @property
    def responses(self) -> ResponseBatch:
        """Every answer, as one batch (joined once, on first read)."""
        if len(self.parts) != 1:
            self.parts[:] = [ResponseBatch.concat(self.parts)]
        return self.parts[0]

    @property
    def qps_sim(self) -> float:
        """Answered requests per simulated second."""
        return self.ok / self.sim_duration if self.sim_duration > 0 else 0.0

    @property
    def qps_wall(self) -> float:
        """Answered requests per wall-clock second (engine throughput)."""
        return self.ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        """One paragraph a human can read after a drive."""
        shed = ", ".join(f"{k}={v}" for k, v in sorted(self.shed_reasons.items())) or "none"
        qual = ", ".join(f"{k}={v}" for k, v in sorted(self.qualities.items())) or "none"
        return (
            f"submitted={self.submitted} ok={self.ok} shed={self.shed} errors={self.errors}\n"
            f"shed reasons: {shed}\n"
            f"answer quality: {qual}\n"
            f"sim latency p50={self.latency_p50:.3f} s  p99={self.latency_p99:.3f} s  "
            f"max={self.latency_max:.3f} s\n"
            f"throughput: {self.qps_sim:.1f} q/s simulated, {self.qps_wall:.1f} q/s wall"
        )


class LoadDriver:
    """Drives seeded client load through a server's batch surface.

    Parameters
    ----------
    server:
        The service under test — a
        :class:`~repro.serving.server.PredictionServer` or anything
        sharing its ``submit_batch`` / ``step_batch`` / ``now`` /
        ``queue_depth`` surface, such as a
        :class:`~repro.serving.cluster.ServingCluster`.
    models:
        Model names requests draw from (uniformly, seeded).
    workload:
        An :class:`OpenLoop` or :class:`ClosedLoop` arrival process.
    max_requests:
        Stop submitting after this many requests.
    duration:
        Stop submitting after this much simulated time (the drive then
        drains in-flight work before returning).
    deadline:
        Relative per-request deadline in simulated seconds; ``None``
        submits requests that wait forever.
    tick:
        Event-loop step size in simulated seconds: the due submissions
        of one tick form one batch, and the server is stepped once per
        tick.
    rng:
        Seed for arrival draws and model choice.
    model_weights:
        Optional traffic skew: map of model name to relative weight
        (unlisted models get zero traffic).  ``None`` (default) keeps
        the uniform seeded choice.  This is how the scenario suite
        builds *hot-key* workloads where one shard soaks most of the
        offered load.
    precision:
        Optional :class:`~repro.structural.repeaters.PrecisionTarget`
        stamped on every submitted request — the adaptive-sampling
        workload.  ``None`` (default) submits fixed-budget requests.
    progress / progress_every:
        Optional soak-run instrumentation: ``progress(answered,
        wall_seconds)`` is called each time another ``progress_every``
        answers have arrived (and once at the end), letting a benchmark
        build a wall-QPS step summary from a single run.
    """

    #: Hard cap on drain time after submissions stop, in ticks.
    DRAIN_TICKS = 200_000

    def __init__(
        self,
        server,
        models: list[str],
        workload,
        *,
        max_requests: int | None = None,
        duration: float | None = None,
        deadline: float | None = None,
        tick: float = 0.05,
        rng=None,
        model_weights: dict | None = None,
        precision=None,
        progress=None,
        progress_every: int = 100_000,
    ):
        if not isinstance(workload, (OpenLoop, ClosedLoop)):
            raise TypeError(f"workload must be OpenLoop or ClosedLoop, got {workload!r}")
        if not models:
            raise ValueError("models must be non-empty")
        if max_requests is None and duration is None:
            raise ValueError("need max_requests and/or duration to bound the drive")
        check_positive(tick, "tick")
        if deadline is not None:
            check_positive(deadline, "deadline")
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        self.server = server
        self.models = tuple(models)
        self.workload = workload
        self.max_requests = max_requests
        self.duration = duration
        self.deadline = deadline
        self.precision = precision
        self.tick = tick
        self.progress = progress
        self.progress_every = int(progress_every)
        self._rng = as_generator(rng)
        self._start = server.now
        self._cum_weights = None
        if model_weights is not None:
            unknown = set(model_weights) - set(self.models)
            if unknown:
                raise ValueError(
                    f"model_weights name unknown models {sorted(unknown)}; "
                    f"drive models: {list(self.models)}"
                )
            raw = np.array([float(model_weights.get(m, 0.0)) for m in self.models])
            if np.any(raw < 0.0) or raw.sum() <= 0.0:
                raise ValueError("model_weights must be non-negative with a positive sum")
            self._cum_weights = np.cumsum(raw / raw.sum())

    # ------------------------------------------------------------------
    def _model_codes(self, n: int) -> np.ndarray:
        """``n`` seeded model choices (the same draws as ``n`` scalar ones)."""
        if self._cum_weights is None:
            return self._rng.integers(0, len(self.models), size=n)
        idx = np.searchsorted(self._cum_weights, self._rng.random(n), side="right")
        return np.minimum(idx, len(self.models) - 1)

    def _arrival_times(self, start: float) -> np.ndarray:
        """Seeded open-loop arrival instants, in order.

        A constant rate is a homogeneous Poisson process, drawn in
        vectorised chunks whose running sum reproduces the one-draw-at-
        a-time sequence bit for bit.  When a chunk crosses the
        ``duration`` horizon, the generator is rewound and exactly the
        draws up to the first arrival past the horizon are taken again,
        so model choice continues from the same generator state.  A
        :class:`~repro.serving.schedules.RateSchedule` is realised by
        Lewis–Shedler thinning: candidates arrive at the schedule's
        ``max_rate`` and each survives with probability
        ``rate_at(t) / max_rate`` — an exact non-homogeneous Poisson
        process, still bit-reproducible from the seed.
        """
        horizon = start + (self.duration if self.duration is not None else float("inf"))
        budget = self.max_requests
        schedule = self.workload.schedule
        if schedule is not None:
            out: list[float] = []
            t = start
            lam_max = schedule.max_rate
            while budget is None or len(out) < budget:
                t += float(self._rng.exponential(1.0 / lam_max))
                if t > horizon:
                    break
                if float(self._rng.random()) * lam_max <= schedule.rate_at(t - start):
                    out.append(t)
            return np.array(out, dtype=float)
        scale = 1.0 / self.workload.rate
        chunks: list[np.ndarray] = []
        t = start
        total = 0
        while budget is None or total < budget:
            m = _ARRIVAL_CHUNK if budget is None else min(_ARRIVAL_CHUNK, budget - total)
            state = self._rng.bit_generator.state
            seg = np.cumsum(np.concatenate(([t], self._rng.exponential(scale, size=m))))[1:]
            if seg[-1] > horizon:
                j = int(np.argmax(seg > horizon))
                self._rng.bit_generator.state = state
                self._rng.exponential(scale, size=j + 1)
                chunks.append(seg[:j])
                break
            chunks.append(seg)
            total += m
            t = float(seg[-1])
        return np.concatenate(chunks) if chunks else np.empty(0)

    def _room(self, submitted: int) -> int | None:
        """Submissions the budget still allows: ``None`` when only the
        time bound applies and it has not passed, 0 once either bound
        is spent."""
        if self.duration is not None and self.server.now > self._start + self.duration:
            return 0
        if self.max_requests is None:
            return None
        return max(self.max_requests - submitted, 0)

    def _batch(self, first_id: int, client, clients: tuple, due) -> RequestBatch:
        """The requests of one submission round, as columns."""
        m = len(client)
        submitted = np.maximum(due, self.server.now)
        return RequestBatch(
            request_id=np.arange(first_id, first_id + m),
            client=client,
            clients=clients,
            model=self._model_codes(m),
            models=self.models,
            submitted=submitted,
            deadline=np.full(m, NO_DEADLINE)
            if self.deadline is None
            else submitted + self.deadline,
            precision=None if self.precision is None else (self.precision,) * m,
        )

    def run(self) -> DriveReport:
        """Play the workload to completion and summarise it."""
        server = self.server
        start = self._start = server.now
        wall0 = time.perf_counter()
        n_clients = self.workload.clients
        clients = tuple(f"client-{c}" for c in range(n_clients))
        closed = isinstance(self.workload, ClosedLoop)
        if closed:
            # Each closed-loop client has at most one submission pending:
            # when it falls due, and the order it was scheduled in (ties
            # on the due time go first-scheduled first).
            code_of = {name: c for c, name in enumerate(clients)}
            pending = np.ones(n_clients, dtype=bool)
            due = np.full(n_clients, start)
            order = np.arange(n_clients)
            scheduled = n_clients
        else:
            arrivals = self._arrival_times(start)
            pos = 0
        parts: list[ResponseBatch] = []
        submitted = answered = 0
        next_mark = self.progress_every
        now = start
        ticks_after_stop = 0

        def record(rb: ResponseBatch) -> None:
            nonlocal answered, scheduled
            if not len(rb):
                return
            parts.append(rb)
            answered += len(rb)
            if closed and self._room(submitted) != 0:
                # Rescheduled clients think, and shed ones also back off
                # by the server's retry advice.
                lut = np.array([code_of[name] for name in rb.clients], dtype=np.int64)
                codes = lut[rb.client]
                backoff = np.where(rb.overloaded_mask, rb.retry_after, 0.0)
                due[codes] = np.maximum(now, rb.completed) + self.workload.think_time + backoff
                order[codes] = np.arange(scheduled, scheduled + len(rb))
                pending[codes] = True
                scheduled += len(rb)

        while True:
            now += self.tick
            # Submissions due this tick, one batch per round; a closed
            # loop keeps going while rescheduled clients fall due.
            while True:
                room = self._room(submitted)
                if room == 0:
                    break
                if closed:
                    ready = np.flatnonzero(pending & (due <= now))
                    if not ready.size:
                        break
                    ready = ready[np.lexsort((order[ready], due[ready]))][:room]
                    pending[ready] = False
                    batch = self._batch(submitted, ready, clients, due[ready])
                else:
                    j = int(np.searchsorted(arrivals, now, side="right"))
                    if room is not None:
                        j = min(j, pos + room)
                    if j <= pos:
                        break
                    batch = self._batch(
                        submitted, np.arange(pos, j) % n_clients, clients, arrivals[pos:j]
                    )
                    pos = j
                submitted += len(batch)
                record(server.submit_batch(batch))
                if not closed:
                    break
            record(server.step_batch(now))
            if self.progress is not None and answered >= next_mark:
                self.progress(answered, time.perf_counter() - wall0)
                next_mark += self.progress_every * (
                    1 + (answered - next_mark) // self.progress_every
                )
            backlog = pending.any() if closed else pos < arrivals.shape[0]
            if self._room(submitted) == 0 or not backlog:
                if answered == submitted and server.queue_depth == 0:
                    break
                ticks_after_stop += 1
                if ticks_after_stop > self.DRAIN_TICKS:  # pragma: no cover - safety valve
                    break

        report = DriveReport(parts=parts, submitted=submitted)
        report.sim_duration = now - start
        report.wall_seconds = time.perf_counter() - wall0
        if self.progress is not None and answered:
            self.progress(answered, report.wall_seconds)
        self._account(report)
        return report

    @staticmethod
    def _account(report: DriveReport) -> None:
        """Derive the report's counts and latency percentiles from its
        answer columns, and check every request id off."""
        parts = report.parts or [ResponseBatch.empty()]

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(rb, name) for rb in parts])

        status = column("status")
        ok = status == STATUSES.index(STATUS_OK)
        shed = status == STATUSES.index(STATUS_OVERLOADED)
        report.ok, report.shed, report.errors = (
            np.bincount(status, minlength=len(STATUSES)).tolist()
        )
        reasons = np.bincount(column("reason")[shed], minlength=len(REASONS))
        report.shed_reasons = {n: int(c) for n, c in zip(REASONS, reasons) if n and c}
        quality = np.bincount(column("quality")[ok], minlength=len(QUALITIES))
        report.qualities = {n: int(c) for n, c in zip(QUALITIES, quality) if c}
        hits = np.bincount(column("request_id"), minlength=report.submitted)
        report.lost = int(np.count_nonzero(hits[: report.submitted] == 0))
        report.duplicates = int(np.maximum(hits - 1, 0).sum())
        lat = np.sort(column("latency")[ok])
        if lat.size:
            report.latency_p50 = float(lat[lat.size // 2])
            report.latency_p99 = float(lat[min(lat.size - 1, int(0.99 * lat.size))])
            report.latency_max = float(lat[-1])
