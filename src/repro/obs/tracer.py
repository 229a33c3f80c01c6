"""Deterministic simulated-time tracing: spans, events, trace context.

The pipeline this library grew into — NWS telemetry -> structural
engine -> prediction server -> sharded cluster — makes decisions at
every stage that shape a prediction's trustworthiness: which forecast a
cache adopted and how stale it was, whether a compiled plan was a cache
hit, how large the batch an answer rode in was, and whether a cluster
answer took a failover hop through a standby replica.  A
:class:`Tracer` records those decisions as nested :class:`Span` records
plus a flat structured event log, so one request's answer can be read
backwards to the exact evidence it stood on.

Design constraints, both load-bearing:

* **Deterministic.**  Trace and span identifiers come from seeded-run
  counters (no ``uuid``, no wall clocks); span times are *simulated*
  seconds supplied by the instrumented code.  A seeded run therefore
  emits a bit-identical trace, and traces can be golden-tested like any
  other pipeline output.
* **Opt-in and inert by default.**  Every instrumented component takes
  an optional tracer and defaults to :data:`NULL_TRACER`, whose methods
  do nothing and allocate nothing.  With the null tracer the pipeline's
  behaviour — including every golden trace — is bit-identical to the
  untraced code; with a real tracer only *observations* are added (the
  tracer never consumes RNG state and never alters control flow).

Span times are explicit because simulated time is explicit everywhere
in this library: a span starts at the simulated instant the caller
passes and ends when the caller says so (``finish(t)``), defaulting to
an instant (zero-duration) span.  Stages are free-form strings; the
pipeline uses :data:`STAGE_NWS`, :data:`STAGE_STRUCTURAL`,
:data:`STAGE_SERVING` and :data:`STAGE_CLUSTER`.

Per-request spans (one per submitted row, one per converged row) are
recorded as :class:`SpanRows` blocks: consecutive span ids whose times
and attributes are columns, updated many rows per call.  They become
:class:`Span` objects only when :attr:`Tracer.spans` is read, and read
back exactly as the same spans started one at a time would.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

__all__ = [
    "Span",
    "SpanEvent",
    "SpanRows",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
    "STAGE_NWS",
    "STAGE_STRUCTURAL",
    "STAGE_SERVING",
    "STAGE_CLUSTER",
    "STAGE_ELASTIC",
    "STAGE_CALIB",
    "STAGES",
]

#: Pipeline stages, in data-flow order.  Free-form strings are allowed;
#: these are what the built-in instrumentation emits.
STAGE_NWS = "nws"
STAGE_STRUCTURAL = "structural"
STAGE_SERVING = "serving"
STAGE_CLUSTER = "cluster"
STAGE_ELASTIC = "elastic"
STAGE_CALIB = "calib"
STAGES = (STAGE_NWS, STAGE_STRUCTURAL, STAGE_SERVING, STAGE_CLUSTER, STAGE_ELASTIC, STAGE_CALIB)


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (or the global log).

    ``seq`` is the tracer-wide allocation order — the total order of
    everything the tracer recorded, independent of simulated time (two
    events at the same simulated instant still have distinct ``seq``).
    """

    seq: int
    name: str
    t: float
    span_id: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "name": self.name,
            "t": self.t,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }


@dataclass
class Span:
    """One timed operation in one pipeline stage.

    Attributes
    ----------
    trace_id:
        Groups the spans of one logical unit of work (one request, one
        batch).  Allocated from the tracer's counter; children inherit
        their parent's.
    span_id:
        Tracer-unique identifier, allocated in start order.
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` for a root.
    name:
        What the operation is (``"serving.batch"``, ``"nws.query"``...).
    stage:
        Which pipeline stage produced it (see :data:`STAGES`).
    start, end:
        Simulated seconds.  ``end`` is ``None`` while open; an instant
        span ends at its start.
    attrs:
        Structured key/value evidence (resource names, cache outcomes,
        quality tags, failover hops).
    events:
        Point-in-time annotations within this span.
    """

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    stage: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    def set(self, **attrs) -> "Span":
        """Attach structured attributes; later values win."""
        self.attrs.update(attrs)
        return self

    def finish(self, t: float | None = None) -> "Span":
        """Close the span at simulated time ``t`` (default: instant).

        Finishing an already-finished span is a no-op, so delivery paths
        that might see a span twice stay idempotent.
        """
        if self.end is None:
            self.end = self.start if t is None else float(t)
        return self

    @property
    def duration(self) -> float:
        """Simulated seconds the span covers (0.0 while open / instant)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "stage": self.stage,
            "start": self.start,
            "end": self.start if self.end is None else self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }


def _is_rows(value) -> bool:
    """A list or an array holds one value per row; anything else is one
    value for every row."""
    return isinstance(value, (list, np.ndarray))


class SpanRows:
    """A block of ``n`` spans with consecutive ids, kept as columns.

    Row ``i`` is the span ``first_id + i``.  Names, trace ids and start
    and end times are arrays (or one value shared by every row); the
    attributes are a log of :meth:`set` calls, each holding its rows and
    its values as given, replayed row by row only when the block is read
    (:meth:`to_spans`) — so each row reads back exactly as a span that
    received the same ``set`` calls one at a time, attribute order
    included.  :meth:`set` and :meth:`finish` update many rows in one
    call; an index is anything that indexes a 1-D array (positions, a
    mask, a slice).  Values that are lists or arrays hold one value per
    selected row; anything else is one value for every selected row.
    """

    __slots__ = (
        "_tracer",
        "first_id",
        "n",
        "name",
        "stage",
        "trace_id",
        "parent_id",
        "start",
        "end",
        "_log",
    )

    def __init__(self, tracer, first_id, n, name, stage, trace_id, parent_id, start):
        self._tracer = tracer
        self.first_id = first_id
        self.n = n
        self.name = name
        self.stage = stage
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        #: NaN marks a row still open.
        self.end = np.full(n, np.nan)
        self._log: list[tuple[np.ndarray, dict]] = []

    def __len__(self) -> int:
        return self.n

    def set(self, idx, **columns) -> "SpanRows":
        """Attach attributes to rows ``idx``; later values win."""
        rows = np.arange(self.n)[idx]
        values = {}
        for key, value in columns.items():
            if _is_rows(value):
                if len(value) != rows.size:
                    raise ValueError(
                        f"column {key!r} has {len(value)} values for {rows.size} rows"
                    )
                value = value.copy() if isinstance(value, np.ndarray) else list(value)
            values[key] = value
        self._log.append((rows, values))
        self._tracer._built = None
        return self

    def finish(self, idx, t=None) -> "SpanRows":
        """Close the still-open rows among ``idx`` at ``t`` (a value, or
        one per selected row; default: each row's start).  Finishing a
        finished row is a no-op."""
        rows = np.arange(self.n)[idx]
        still = np.isnan(self.end[rows])
        rows = rows[still]
        if t is None:
            t = self.start if np.ndim(self.start) == 0 else self.start[rows]
        elif np.ndim(t):
            t = np.asarray(t, dtype=float)[still]
        self.end[rows] = t
        self._tracer._built = None
        return self

    def open_rows(self) -> np.ndarray:
        """Positions of the rows not yet finished."""
        return np.flatnonzero(np.isnan(self.end))

    def to_spans(self) -> list[Span]:
        """The rows as :class:`Span` objects (new objects, built now)."""
        n = self.n
        attrs: list[dict] = [{} for _ in range(n)]
        for rows, values in self._log:
            positions = rows.tolist()
            for key, value in values.items():
                if _is_rows(value):
                    per_row = value.tolist() if isinstance(value, np.ndarray) else value
                    for i, v in zip(positions, per_row):
                        attrs[i][key] = v
                else:
                    for i in positions:
                        attrs[i][key] = value
        names = self.name.tolist() if isinstance(self.name, np.ndarray) else [self.name] * n
        traces = (
            self.trace_id.tolist() if isinstance(self.trace_id, np.ndarray) else [self.trace_id] * n
        )
        starts = np.broadcast_to(np.asarray(self.start, dtype=float), (n,)).tolist()
        return [
            Span(
                trace_id=traces[i],
                span_id=self.first_id + i,
                parent_id=self.parent_id,
                name=names[i],
                stage=self.stage,
                start=starts[i],
                end=None if end != end else end,
                attrs=attrs[i],
            )
            for i, end in enumerate(self.end.tolist())
        ]


class Tracer:
    """Collects spans and events from a seeded pipeline run.

    All identifiers are small integers from per-tracer counters, so two
    runs of the same seeded workload against fresh tracers produce
    byte-identical exports.  The tracer keeps an *active-span stack* for
    implicit parenting: a span started while another is active becomes
    its child unless an explicit ``parent`` is given.
    """

    enabled = True

    def __init__(self):
        self.events: list[SpanEvent] = []
        self._spans: list[Span] = []
        self._blocks: list[SpanRows] = []
        self._n_rows = 0
        self._built: list[Span] | None = None
        self._next_trace = 1
        self._next_span = 1
        self._next_seq = 1
        self._stack: list[Span] = []

    @property
    def spans(self) -> list[Span]:
        """Every span in id order: those started one at a time (live
        objects) and every :class:`SpanRows` block's rows, built on read.

        The list is rebuilt after any change to the tracer; a row span
        in it is a snapshot of its block, changed through the block.
        """
        if self._built is None:
            out = list(self._spans)
            for block in self._blocks:
                out.extend(block.to_spans())
            if self._blocks:
                out.sort(key=attrgetter("span_id"))
            self._built = out
        return self._built

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        t: float | None = None,
        *,
        stage: str,
        parent: Span | None = None,
        new_trace: bool = False,
        **attrs,
    ) -> Span:
        """Open a span at simulated time ``t``.

        ``t=None`` inherits the active span's start (for instrumented
        code, like plan compilation, that has no clock of its own) and
        falls back to 0.0 at the root.  ``new_trace=True`` forces a
        fresh ``trace_id`` even under an active parent — used for units
        of work (a batch) that serve several request traces at once.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        if t is None:
            t = parent.start if parent is not None else 0.0
        if new_trace or parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
        else:
            trace_id = parent.trace_id
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            stage=stage,
            start=float(t),
            attrs=dict(attrs),
        )
        self._next_span += 1
        self._spans.append(span)
        self._built = None
        return span

    def start_rows(
        self,
        name,
        t=None,
        *,
        stage: str,
        parent: Span | None = None,
        new_trace: bool = False,
        **columns,
    ) -> SpanRows:
        """Open one span per row as a :class:`SpanRows` block.

        Row ``i`` reads back as the ``i``-th of the same spans opened one
        at a time with :meth:`start_span`: ids are consecutive, and each
        row gets the next trace id (``new_trace`` or no parent) or the
        parent's.  ``name``, ``t`` and every column are one value per
        row when a list or an array, else one value for every row; the
        row count is the length of the first per-row one.
        """
        per_row = [v for v in (t, name, *columns.values()) if _is_rows(v)]
        if not per_row:
            raise ValueError("start_rows needs at least one per-row value")
        n = len(per_row[0])
        if parent is None and self._stack:
            parent = self._stack[-1]
        if t is None:
            t = parent.start if parent is not None else 0.0
        if new_trace or parent is None:
            trace_id = np.arange(self._next_trace, self._next_trace + n)
            self._next_trace += n
        else:
            trace_id = parent.trace_id
        block = SpanRows(
            self,
            self._next_span,
            n,
            np.asarray(name, dtype=object) if _is_rows(name) else name,
            stage,
            trace_id,
            None if parent is None else parent.span_id,
            np.array(t, dtype=float) if _is_rows(t) else float(t),
        )
        self._next_span += n
        if n:
            self._blocks.append(block)
            self._n_rows += n
        if columns:
            block.set(slice(None), **columns)
        self._built = None
        return block

    @contextmanager
    def span(
        self,
        name: str,
        t: float | None = None,
        *,
        stage: str,
        new_trace: bool = False,
        **attrs,
    ):
        """Context manager: the span is active (parents children) inside.

        The body may close the span itself with ``sp.finish(t_done)``;
        otherwise it is finished as an instant span on exit.
        """
        sp = self.start_span(name, t, stage=stage, new_trace=new_trace, **attrs)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.finish()

    def event(self, name: str, t: float | None = None, **attrs) -> SpanEvent:
        """Record a structured event, attached to the active span if any.

        Events land both in the owning span (when one is active) and in
        the tracer's flat ``events`` log, which is the chronological
        story of the whole run.
        """
        active = self._stack[-1] if self._stack else None
        if t is None:
            t = active.start if active is not None else 0.0
        ev = SpanEvent(
            seq=self._next_seq,
            name=name,
            t=float(t),
            span_id=None if active is None else active.span_id,
            attrs=dict(attrs),
        )
        self._next_seq += 1
        if active is not None:
            active.events.append(ev)
        self.events.append(ev)
        return ev

    @property
    def active(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def find(self, *, name: str | None = None, stage: str | None = None, **attrs) -> list[Span]:
        """Spans matching every given criterion, in start order."""
        out = []
        for sp in self.spans:
            if name is not None and sp.name != name:
                continue
            if stage is not None and sp.stage != stage:
                continue
            if any(sp.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(sp)
        return out

    def stage_counts(self) -> dict:
        """Number of spans per stage, sorted by stage name."""
        counts: dict = {}
        for sp in self._spans:
            counts[sp.stage] = counts.get(sp.stage, 0) + 1
        for block in self._blocks:
            counts[block.stage] = counts.get(block.stage, 0) + block.n
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self._spans) + self._n_rows


class NullTracer:
    """The inert tracer: same surface as :class:`Tracer`, records nothing.

    Every instrumented component defaults to this, so the untraced
    pipeline allocates no span objects and takes no extra branches
    beyond a cheap ``tracer.enabled`` check on its hot paths.
    """

    enabled = False

    #: Shared inert span handed out by every call.
    class _NullSpan:
        __slots__ = ()
        trace_id = 0
        span_id = 0
        parent_id = None
        name = ""
        stage = ""
        start = 0.0
        end = 0.0
        duration = 0.0
        attrs: dict = {}
        events: list = []

        def set(self, **attrs):
            return self

        def finish(self, t=None):
            return self

        def to_dict(self) -> dict:
            return {}

    _SPAN = _NullSpan()

    #: Shared inert row block handed out by every :meth:`start_rows`.
    class _NullRows:
        __slots__ = ()
        first_id = 0
        n = 0

        def __len__(self) -> int:
            return 0

        def set(self, idx, **columns):
            return self

        def finish(self, idx, t=None):
            return self

    _ROWS = _NullRows()

    spans: tuple = ()
    events: tuple = ()
    active = None

    def start_span(self, name, t=None, *, stage, parent=None, new_trace=False, **attrs):
        return self._SPAN

    def start_rows(self, name, t=None, *, stage, parent=None, new_trace=False, **columns):
        return self._ROWS

    @contextmanager
    def span(self, name, t=None, *, stage, new_trace=False, **attrs):
        yield self._SPAN

    def event(self, name, t=None, **attrs):
        return None

    def find(self, **criteria) -> list:
        return []

    def stage_counts(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


#: The process-wide inert tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


def as_tracer(tracer) -> "Tracer | NullTracer":
    """``tracer`` itself, or :data:`NULL_TRACER` for ``None``."""
    return NULL_TRACER if tracer is None else tracer
