"""Perf smoke: tracing overhead on the serving benchmark.

Not a paper artifact — the regression gate for the ``repro.obs``
tracing layer.  The same seeded drive runs with the null tracer (the
default, inert path) and with a real
:class:`~repro.obs.tracer.Tracer` threaded through all stages.  The
drive is the one where tracing costs the most per request:
:func:`~repro.obs.pipeline.traced_adaptive_run`, an open-loop overload
of an adaptive (``p95:2%``), calibrated server, whose every request
records a ``request`` or ``serving.reject`` span and whose every
converged row an ``mc.converged`` span.  Tracing is bookkeeping only —
no RNG draws, no control-flow changes — so its wall-clock overhead must
stay within ``MAX_OVERHEAD`` (10%).

Measurement design: the legs run as ``REPEATS`` interleaved
(null, traced) *pairs*, and the gate takes the minimum traced/null
ratio over the pairs.  Back-to-back pairing cancels slow machine drift
(thermal/co-tenant effects that individually swing run times by more
than the 10% budget), and the minimum is the standard robust estimator
against per-run scheduler noise; a genuine tracing regression inflates
every pair's ratio, so the minimum still catches it.  Each pair starts
with the previous pair's tracer and reports released and garbage
collected, so no drive runs beside another's spans.  Results land in
``benchmarks/out/BENCH_tracing.json``.
"""

import gc
import json
import time

import numpy as np
from conftest import emit

from repro.obs import NULL_TRACER, Tracer, traced_adaptive_run
from repro.util.tables import format_table

SEED = 7
REQUESTS = 8000
REPEATS = 5
MAX_OVERHEAD = 0.10  # enabled tracing may cost at most 10% wall time


def drive(tracer):
    """One timed run: ``(wall_seconds, tracer, report)``."""
    t0 = time.perf_counter()
    tracer, report, _ = traced_adaptive_run(max_requests=REQUESTS, rng=SEED, tracer=tracer)
    return time.perf_counter() - t0, tracer, report


def test_tracing_overhead_within_budget(out_dir):
    drive(NULL_TRACER)  # warm-up: imports, allocator, caches

    pairs = []
    for _ in range(REPEATS):
        tracer = report_on = report_off = None
        gc.collect()
        wall_off, _, report_off = drive(NULL_TRACER)
        wall_on, tracer, report_on = drive(Tracer())
        pairs.append((wall_off, wall_on))
    overhead = min(on / off for off, on in pairs) - 1.0

    emit(
        f"Tracing overhead on {REQUESTS} adaptive, calibrated open-loop requests "
        f"(seed {SEED}, {REPEATS} interleaved pairs)",
        format_table(
            ["pair", "null (s)", "traced (s)", "ratio"],
            [
                [i, f"{off:.3f}", f"{on:.3f}", f"{on / off - 1:+.1%}"]
                for i, (off, on) in enumerate(pairs)
            ],
        )
        + f"\noverhead (min ratio): {overhead:+.1%} (gate: <= {MAX_OVERHEAD:.0%}); "
        f"{len(tracer)} spans per traced run",
    )

    payload = {
        "seed": SEED,
        "requests": REQUESTS,
        "drive": "traced_adaptive_run",
        "repeats": REPEATS,
        "pairs": [{"wall_null_s": off, "wall_traced_s": on} for off, on in pairs],
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "spans": len(tracer),
        "events": len(tracer.events),
        "stages": tracer.stage_counts(),
    }
    (out_dir / "BENCH_tracing.json").write_text(json.dumps(payload, indent=2))

    # Tracing must not change what the pipeline computes, only observe it.
    assert report_on.ok == report_off.ok and report_on.shed == report_off.shed
    on, off = report_on.responses, report_off.responses
    for column in ("request_id", "status", "mean", "spread", "p95", "completed"):
        assert np.array_equal(getattr(on, column), getattr(off, column), equal_nan=True)
    assert len(tracer) > 0

    assert overhead <= MAX_OVERHEAD
