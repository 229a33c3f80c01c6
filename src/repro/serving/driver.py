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

Every run is bit-reproducible from a seed: arrival draws, model choice
and the server's own sampling all flow from seeded generators, and time
is simulated throughout.  Wall-clock time is measured only as an
*observation* (for throughput reporting); it never feeds back into the
schedule.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.columnar import RequestBatch
from repro.serving.protocol import PredictRequest, Response
from repro.serving.schedules import RateSchedule
from repro.util.rng import as_generator
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["OpenLoop", "ClosedLoop", "DriveReport", "LoadDriver", "ColumnarLoadDriver"]


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

    ``responses`` holds every typed response in completion order;
    the count/latency fields are derived once at the end of the run.
    """

    responses: list = field(default_factory=list)
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
    #: Delivery-accounting violations, tracked by the columnar driver:
    #: a drive is lossless iff both stay zero.
    duplicates: int = 0
    lost: int = 0

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
    """Drives seeded client load through a server's event loop.

    Parameters
    ----------
    server:
        The service under test — a
        :class:`~repro.serving.server.PredictionServer` or anything
        sharing its ``submit`` / ``step`` / ``now`` / ``queue_depth`` /
        ``models`` surface, such as a
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
        Event-loop step size in simulated seconds.
    rng:
        Seed for arrival draws and model choice.
    model_weights:
        Optional traffic skew: map of model name to relative weight
        (unlisted models get zero traffic).  ``None`` (default) keeps
        the original uniform seeded choice, draw-for-draw.  This is how
        the scenario suite builds *hot-key* workloads where one shard
        soaks most of the offered load.
    precision:
        Optional :class:`~repro.structural.repeaters.PrecisionTarget`
        stamped on every submitted request — the adaptive-sampling
        workload.  ``None`` (default) submits fixed-budget requests,
        draw-for-draw identical to earlier drivers.
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
        self.server = server
        self.models = list(models)
        self.workload = workload
        self.max_requests = max_requests
        self.duration = duration
        self.deadline = deadline
        self.precision = precision
        self.tick = tick
        self._rng = as_generator(rng)
        self._start = server.now
        self._cum_weights = None
        if model_weights is not None:
            unknown = set(model_weights) - set(self.models)
            if unknown:
                raise ValueError(
                    f"model_weights name unknown models {sorted(unknown)}; "
                    f"drive models: {self.models}"
                )
            raw = np.array([float(model_weights.get(m, 0.0)) for m in self.models])
            if np.any(raw < 0.0) or raw.sum() <= 0.0:
                raise ValueError("model_weights must be non-negative with a positive sum")
            self._cum_weights = np.cumsum(raw / raw.sum())

    # ------------------------------------------------------------------
    def _pick_model(self) -> str:
        if self._cum_weights is None:
            return self.models[int(self._rng.integers(len(self.models)))]
        idx = int(np.searchsorted(self._cum_weights, float(self._rng.random()), side="right"))
        return self.models[min(idx, len(self.models) - 1)]

    def _arrival_times(self, start: float) -> list[float]:
        """Seeded open-loop arrival instants, in order.

        A constant rate replays the original homogeneous draw sequence
        bit-for-bit.  A :class:`~repro.serving.schedules.RateSchedule`
        is realised by Lewis–Shedler thinning: candidates arrive at the
        schedule's ``max_rate`` and each survives with probability
        ``rate_at(t) / max_rate`` — an exact non-homogeneous Poisson
        process, still bit-reproducible from the seed.
        """
        horizon = start + (self.duration if self.duration is not None else float("inf"))
        n_budget = self.max_requests if self.max_requests is not None else float("inf")
        schedule = self.workload.schedule
        out: list[float] = []
        t = start
        if schedule is None:
            while len(out) < n_budget:
                t += float(self._rng.exponential(1.0 / self.workload.rate))
                if t > horizon:
                    break
                out.append(t)
            return out
        lam_max = schedule.max_rate
        while len(out) < n_budget:
            t += float(self._rng.exponential(1.0 / lam_max))
            if t > horizon:
                break
            if float(self._rng.random()) * lam_max <= schedule.rate_at(t - start):
                out.append(t)
        return out

    def _make_request(self, client: str, submitted: float, request_id: int) -> PredictRequest:
        model = self._pick_model()
        deadline = None if self.deadline is None else submitted + self.deadline
        return PredictRequest(
            request_id=request_id,
            client_id=client,
            model=model,
            submitted=submitted,
            deadline=deadline,
            precision=self.precision,
        )

    def run(self) -> DriveReport:
        """Play the workload to completion and summarise it."""
        server = self.server
        report = DriveReport()
        start = server.now
        self._start = start
        wall0 = time.perf_counter()

        # (due_time, seq, client) submission events.
        events: list[tuple[float, int, str]] = []
        seq = 0
        if isinstance(self.workload, ClosedLoop):
            for c in range(self.workload.clients):
                heapq.heappush(events, (start, seq, f"client-{c}"))
                seq += 1
        else:
            for t in self._arrival_times(start):
                heapq.heappush(events, (t, seq, f"client-{seq % self.workload.clients}"))
                seq += 1

        in_flight = 0
        next_id = 0
        now = start
        ticks_after_stop = 0

        def record(resp: Response) -> None:
            nonlocal in_flight, seq
            in_flight -= 1
            report.responses.append(resp)
            if resp.status == "ok":
                report.ok += 1
                report.qualities[resp.quality] = report.qualities.get(resp.quality, 0) + 1
            elif resp.status == "overloaded":
                report.shed += 1
                report.shed_reasons[resp.reason] = report.shed_reasons.get(resp.reason, 0) + 1
            else:
                report.errors += 1
            if isinstance(self.workload, ClosedLoop) and self._submitting(report):
                backoff = resp.retry_after if resp.status == "overloaded" else 0.0
                due = max(now, resp.completed) + self.workload.think_time + backoff
                heapq.heappush(events, (due, seq, resp.client_id))
                seq += 1

        while True:
            now += self.tick
            # Submissions due this tick (skipped once the budget is spent).
            while events and events[0][0] <= now and self._submitting(report):
                due, _, client = heapq.heappop(events)
                req = self._make_request(client, max(due, server.now), next_id)
                next_id += 1
                report.submitted += 1
                in_flight += 1
                immediate = server.submit(req)
                if immediate is not None:
                    record(immediate)
            for resp in server.step(now):
                record(resp)
            if not self._submitting(report) or not events:
                if in_flight == 0 and server.queue_depth == 0:
                    break
                ticks_after_stop += 1
                if ticks_after_stop > self.DRAIN_TICKS:  # pragma: no cover - safety valve
                    break

        report.sim_duration = now - start
        report.wall_seconds = time.perf_counter() - wall0
        lat = sorted(
            r.latency for r in report.responses if r.status == "ok"
        )
        if lat:
            report.latency_p50 = lat[len(lat) // 2]
            report.latency_p99 = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
            report.latency_max = lat[-1]
        return report

    def _submitting(self, report: DriveReport) -> bool:
        """True while the submission budget (count and time) remains."""
        if self.max_requests is not None and report.submitted >= self.max_requests:
            return False
        if self.duration is not None and self.server.now > self._start + self.duration:
            return False
        return True


class ColumnarLoadDriver:
    """Open-loop load through the columnar ``submit_batch`` surface.

    The array-native twin of :class:`LoadDriver`, built for soak runs
    of a million-plus requests where the scalar driver's per-request
    object churn *is* the benchmark noise.  Three things change:

    * Arrival instants are drawn as vectorised exponential cumulative
      sums (chunked, still a plain seeded Poisson process) instead of
      one Python-level draw per request.
    * Requests are built directly as :class:`RequestBatch` columns —
      no :class:`~repro.serving.protocol.PredictRequest` is ever
      materialised on the hot path.  Each simulated ``window`` the
      arrivals that fell due are submitted as one batch and the server
      is stepped once via ``step_batch``.
    * Responses are accounted column-wise (status/reason/quality
      bincounts, latency columns pooled for percentiles), and every
      ``request_id`` is checked off against a bitmap, so the report can
      *prove* the drive was lossless: ``duplicates`` counts ids
      answered twice and ``lost`` counts ids never answered.

    The report's ``responses`` list stays empty — that is the point.
    Works against any server exposing ``submit_batch`` / ``step_batch``
    / ``now`` / ``queue_depth`` (a single
    :class:`~repro.serving.server.PredictionServer` or a
    :class:`~repro.serving.cluster.ServingCluster`); a cluster whose
    columnar path is gated off (crash faults, elasticity, a global
    bucket, tracing) routes row by row inside ``submit_batch``, slower
    but identical in outcome.

    Parameters
    ----------
    server:
        Target exposing the columnar batch surface.
    models:
        Model names traffic draws from (uniformly unless
        ``model_weights`` skews it), seeded.
    rate:
        Constant open-loop arrival rate, requests per simulated second.
    clients:
        Round-robin client-identity population (``client-0`` …).
    max_requests / duration:
        Submission budget — at least one must be given.
    deadline:
        Relative per-request deadline; ``None`` waits forever.
    window:
        Simulated seconds per drive step.  Coarser than the scalar
        driver's ``tick`` because a whole window of arrivals is one
        batch; it bounds how much simulated time can pass between
        server steps, not answer accuracy.
    rng:
        Seed for arrivals and model choice.
    progress / progress_every:
        Optional soak-run instrumentation: ``progress(answered,
        wall_seconds)`` is called each time another ``progress_every``
        responses have been accounted (and once at the end), letting a
        benchmark build a wall-QPS step summary from a single run.
    """

    #: Hard cap on drain windows after submissions stop.
    DRAIN_WINDOWS = 200_000

    def __init__(
        self,
        server,
        models: list[str],
        *,
        rate: float,
        clients: int = 8,
        max_requests: int | None = None,
        duration: float | None = None,
        deadline: float | None = None,
        window: float = 0.25,
        rng=None,
        model_weights: dict | None = None,
        progress=None,
        progress_every: int = 100_000,
    ):
        if not models:
            raise ValueError("models must be non-empty")
        if max_requests is None and duration is None:
            raise ValueError("need max_requests and/or duration to bound the drive")
        check_positive(rate, "rate")
        check_positive(window, "window")
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if deadline is not None:
            check_positive(deadline, "deadline")
        self.server = server
        self.models = tuple(models)
        self.rate = float(rate)
        self.clients = clients
        self.max_requests = max_requests
        self.duration = duration
        self.deadline = deadline
        self.window = float(window)
        self.progress = progress
        self.progress_every = int(progress_every)
        if self.progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        self._rng = as_generator(rng)
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
    def _arrivals(self, start: float) -> np.ndarray:
        """All arrival instants, drawn in vectorised chunks."""
        horizon = start + (self.duration if self.duration is not None else float("inf"))
        budget = self.max_requests
        chunks: list[np.ndarray] = []
        t = start
        total = 0
        chunk = 1 << 16
        while budget is None or total < budget:
            m = chunk if budget is None else min(chunk, budget - total)
            seg = t + np.cumsum(self._rng.exponential(1.0 / self.rate, size=m))
            if seg[-1] > horizon:
                seg = seg[seg <= horizon]
                if seg.size:
                    chunks.append(seg)
                break
            chunks.append(seg)
            total += m
            t = float(seg[-1])
        return np.concatenate(chunks) if chunks else np.empty(0)

    def _model_codes(self, n: int) -> np.ndarray:
        if self._cum_weights is None:
            return self._rng.integers(0, len(self.models), size=n).astype(np.int32)
        idx = np.searchsorted(self._cum_weights, self._rng.random(n), side="right")
        return np.minimum(idx, len(self.models) - 1).astype(np.int32)

    def run(self) -> DriveReport:
        """Play the workload to completion and summarise it."""
        server = self.server
        report = DriveReport()
        wall0 = time.perf_counter()
        start = server.now

        times = self._arrivals(start)
        n = times.shape[0]
        report.submitted = n
        request_id = np.arange(n, dtype=np.int64)
        client = (request_id % self.clients).astype(np.int32)
        clients_table = tuple(f"client-{c}" for c in range(self.clients))
        model = self._model_codes(n)
        deadline = (
            np.full(n, float("inf")) if self.deadline is None else times + self.deadline
        )

        seen = np.zeros(n, dtype=bool)
        lat_parts: list[np.ndarray] = []

        def account(rb) -> int:
            m = len(rb)
            if m == 0:
                return 0
            counts = rb.status_counts()
            report.ok += counts["ok"]
            report.shed += counts["overloaded"]
            report.errors += counts["error"]
            for name, c in rb.reason_counts().items():
                report.shed_reasons[name] = report.shed_reasons.get(name, 0) + c
            for name, c in rb.quality_counts().items():
                report.qualities[name] = report.qualities.get(name, 0) + c
            if counts["ok"]:
                lat_parts.append(rb.latency[rb.ok_mask])
            ids = rb.request_id
            dup = int(np.count_nonzero(seen[ids]))
            if dup:  # pragma: no cover - the invariant under test
                report.duplicates += dup
            seen[ids] = True
            return m

        now = start
        pos = 0
        answered = 0
        next_mark = self.progress_every
        windows_after_stop = 0
        while True:
            now += self.window
            if pos < n:
                j = int(np.searchsorted(times, now, side="right"))
                if j > pos:
                    seg = RequestBatch(
                        request_id=request_id[pos:j],
                        client=client[pos:j],
                        clients=clients_table,
                        model=model[pos:j],
                        models=self.models,
                        submitted=times[pos:j],
                        deadline=deadline[pos:j],
                    )
                    pos = j
                    answered += account(server.submit_batch(seg))
            answered += account(server.step_batch(now))
            if self.progress is not None and answered >= next_mark:
                self.progress(answered, time.perf_counter() - wall0)
                next_mark += self.progress_every * (
                    1 + (answered - next_mark) // self.progress_every
                )
            if pos >= n:
                if answered >= n and server.queue_depth == 0:
                    break
                windows_after_stop += 1
                if windows_after_stop > self.DRAIN_WINDOWS:  # pragma: no cover
                    break

        report.lost = n - int(np.count_nonzero(seen))
        report.sim_duration = now - start
        report.wall_seconds = time.perf_counter() - wall0
        if self.progress is not None and answered:
            self.progress(answered, report.wall_seconds)
        if lat_parts:
            lat = np.sort(np.concatenate(lat_parts))
            report.latency_p50 = float(lat[lat.size // 2])
            report.latency_p99 = float(lat[min(lat.size - 1, int(0.99 * lat.size))])
            report.latency_max = float(lat[-1])
        return report
