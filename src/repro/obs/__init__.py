"""Observability: deterministic tracing and provenance for the pipeline.

The paper's thesis is that a production prediction is only as
trustworthy as the evidence under it.  This package makes that evidence
inspectable: a :class:`~repro.obs.tracer.Tracer` threaded through the
four pipeline stages (NWS telemetry -> structural engine -> prediction
server -> sharded cluster) records every consulted forecast, plan-cache
outcome, batch evaluation and failover hop as nested simulated-time
spans, exportable as canonical JSON or Chrome ``chrome://tracing``
files (see ``docs/observability.md``).

Tracing is strictly opt-in: every instrumented component defaults to
:data:`~repro.obs.tracer.NULL_TRACER`, under which behaviour — and
every golden trace — is bit-identical to the uninstrumented code.
"""

from repro.obs.export import trace_to_chrome, trace_to_dict, write_chrome, write_json
from repro.obs.pipeline import traced_adaptive_run, traced_cluster_run, traced_server_run
from repro.obs.tracer import (
    NULL_TRACER,
    STAGE_CALIB,
    STAGE_CLUSTER,
    STAGE_ELASTIC,
    STAGE_NWS,
    STAGE_SERVING,
    STAGE_STRUCTURAL,
    STAGES,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    as_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "as_tracer",
    "STAGES",
    "STAGE_NWS",
    "STAGE_STRUCTURAL",
    "STAGE_SERVING",
    "STAGE_CLUSTER",
    "STAGE_ELASTIC",
    "STAGE_CALIB",
    "trace_to_dict",
    "trace_to_chrome",
    "write_json",
    "write_chrome",
    "traced_server_run",
    "traced_cluster_run",
    "traced_adaptive_run",
]
