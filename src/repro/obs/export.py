"""Trace export: canonical JSON and Chrome ``chrome://tracing`` files.

Two formats, both deterministic for a seeded run:

* **Canonical JSON** (:func:`trace_to_dict` / :func:`write_json`): the
  full span tree plus the flat event log, sorted by span id, with a
  summary header (span/event counts per stage).  This is the format the
  tests golden-compare and tools post-process.
* **Chrome trace-event format** (:func:`trace_to_chrome` /
  :func:`write_chrome`): a ``{"traceEvents": [...]}`` document loadable
  in ``chrome://tracing`` / Perfetto.  Simulated seconds map to
  microseconds; each pipeline stage renders as its own named thread so
  the four-stage structure of a request is visible at a glance, and
  span attributes travel in ``args``.

Non-finite floats (an ``inf`` staleness on a never-reporting resource)
are stringified by :func:`repro.util.jsonsafe.sanitise`, as in the
metrics snapshots, so the documents stay strict JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import STAGES, Tracer
from repro.util.jsonsafe import sanitise

__all__ = ["trace_to_dict", "trace_to_chrome", "write_json", "write_chrome"]


def trace_to_dict(tracer: Tracer) -> dict:
    """The whole trace as one JSON-serialisable document."""
    return sanitise(
        {
            "format": "repro.obs/v1",
            "summary": {
                "spans": len(tracer.spans),
                "events": len(tracer.events),
                "traces": len({sp.trace_id for sp in tracer.spans}),
                "stages": tracer.stage_counts(),
            },
            "spans": [sp.to_dict() for sp in sorted(tracer.spans, key=lambda s: s.span_id)],
            "events": [ev.to_dict() for ev in tracer.events],
        }
    )


#: Stages render as threads in this fixed order; unknown stages follow.
_STAGE_TIDS = {stage: i + 1 for i, stage in enumerate(STAGES)}


def _tid(stage: str) -> int:
    return _STAGE_TIDS.get(stage, len(_STAGE_TIDS) + 1)


def trace_to_chrome(tracer: Tracer) -> dict:
    """The trace in Chrome trace-event format (JSON object form).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; span events become instant (``"ph": "i"``) events.  The
    process is the pipeline; threads are pipeline stages.
    """
    events: list = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro pipeline (simulated time)"},
        }
    ]
    for stage in STAGES:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": _tid(stage),
                "args": {"name": f"stage: {stage}"},
            }
        )
    for sp in sorted(tracer.spans, key=lambda s: s.span_id):
        end = sp.start if sp.end is None else sp.end
        events.append(
            {
                "name": sp.name,
                "cat": sp.stage,
                "ph": "X",
                "pid": 1,
                "tid": _tid(sp.stage),
                "ts": sp.start * 1e6,
                "dur": (end - sp.start) * 1e6,
                "id": sp.span_id,
                "args": sanitise(
                    {"trace_id": sp.trace_id, "parent_id": sp.parent_id, **sp.attrs}
                ),
            }
        )
    for ev in tracer.events:
        events.append(
            {
                "name": ev.name,
                "cat": "event",
                "ph": "i",
                "s": "p",
                "pid": 1,
                "tid": 0,
                "ts": ev.t * 1e6,
                "args": sanitise({"seq": ev.seq, "span_id": ev.span_id, **ev.attrs}),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(tracer: Tracer, path) -> Path:
    """Write the canonical JSON export to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_dict(tracer), indent=2, sort_keys=True) + "\n")
    return path


def write_chrome(tracer: Tracer, path) -> Path:
    """Write the Chrome trace-event export to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_chrome(tracer), indent=2) + "\n")
    return path
