"""Ready-made traced pipeline runs over the Platform 1 serving demo.

Shared by the ``repro trace --pipeline`` CLI mode, the tracing-overhead
benchmark and the tracing tests: a seeded closed-loop drive against the
demo server (or demo cluster, with a mid-window worker crash so the
trace contains a real failover hop), and a seeded open-loop overload of
an adaptive, calibrated demo server (ragged early stopping, queue-full
and deadline sheds), each with one :class:`~repro.obs.tracer.Tracer`
threaded through every stage.

The global plan cache is cleared before each run so the ``plan.compile``
spans' hit/miss pattern — and therefore the exported trace — depends
only on the seed, not on what ran earlier in the process.
"""

from __future__ import annotations

from repro.obs.tracer import Tracer

__all__ = ["traced_server_run", "traced_cluster_run", "traced_adaptive_run"]


def traced_server_run(
    *,
    duration: float = 600.0,
    clients: int = 4,
    think_time: float = 0.5,
    max_requests: int = 120,
    rng=7,
    tracer: Tracer | None = None,
):
    """A traced seeded closed-loop drive: ``(tracer, report, server)``.

    Spans cover three stages — NWS forecast lookups/queries, structural
    plan compilation, and the serving request/batch lifecycle.  With
    ``tracer=None`` a fresh :class:`Tracer` is created; pass
    ``NULL_TRACER`` explicitly to time the untraced baseline.
    """
    from repro.serving import ClosedLoop, LoadDriver, demo_server
    from repro.structural.engine import clear_plan_cache

    clear_plan_cache()
    if tracer is None:
        tracer = Tracer()
    server, _, _ = demo_server(duration=duration, rng=rng, tracer=tracer)
    report = LoadDriver(
        server,
        server.models,
        ClosedLoop(clients=clients, think_time=think_time),
        max_requests=max_requests,
        rng=rng,
    ).run()
    return tracer, report, server


def traced_cluster_run(
    *,
    duration: float = 900.0,
    clients: int = 16,
    max_requests: int = 600,
    crash_window: tuple[float, float] = (60.4, 61.2),
    rng=7,
    tracer: Tracer | None = None,
):
    """A traced cluster drive with a real failover: ``(tracer, report, cluster)``.

    A 4-worker, replication-2 cluster serves the drive while a
    :class:`~repro.faults.plan.FaultPlan` crashes the primary owner of
    at least one shard inside ``crash_window`` — the resulting trace
    contains ``cluster.failover`` and failover-tagged ``cluster.route``
    spans alongside all four pipeline stages.
    """
    from repro.faults import FaultPlan
    from repro.serving import ClosedLoop, ClusterConfig, LoadDriver, demo_cluster
    from repro.structural.engine import clear_plan_cache

    config = ClusterConfig(n_workers=4, replication=2)
    # Pick the crash target from the placement (deterministic in rng):
    # a worker that primary-owns at least one shard, so failover fires.
    probe, _, _ = demo_cluster(duration=duration, config=config, rng=rng)
    victim = probe.owners(probe.models[0])[0]
    faults = FaultPlan.crashes({victim: [crash_window]})

    clear_plan_cache()
    if tracer is None:
        tracer = Tracer()
    cluster, _, _ = demo_cluster(
        duration=duration, config=config, faults=faults, rng=rng, tracer=tracer
    )
    report = LoadDriver(
        cluster,
        cluster.models,
        ClosedLoop(clients=clients),
        max_requests=max_requests,
        rng=rng,
    ).run()
    return tracer, report, cluster


def traced_adaptive_run(
    *,
    max_requests: int = 1500,
    rng=7,
    tracer: Tracer | None = None,
):
    """A traced open-loop overload of the adaptive, calibrated server:
    ``(tracer, report, server)``.

    Requests arrive at 1,500 per simulated second.  The server answers
    ``p95:2%`` precision targets (early stopping leaves most batches
    ragged), scores every answer against a world twice as spread as the
    model, and sheds on a 128-row queue and a 90 ms deadline, so the
    trace holds ``mc.converged`` spans, ``request`` spans of every
    outcome, and ``serving.reject`` spans.
    """
    from repro.calib.loop import CalibrationConfig
    from repro.serving import (
        DEFAULT_PRECISION_LADDER,
        AdmissionPolicy,
        LoadDriver,
        OpenLoop,
        ServerConfig,
        demo_server,
    )
    from repro.structural.engine import clear_plan_cache
    from repro.structural.repeaters import PrecisionTarget

    clear_plan_cache()
    if tracer is None:
        tracer = Tracer()
    config = ServerConfig(
        n_samples=2000,
        precision=PrecisionTarget.parse("p95:2%", min_samples=64, max_samples=2000),
        admission=AdmissionPolicy(max_queue=128, precision_ladder=DEFAULT_PRECISION_LADDER),
        calibration=CalibrationConfig(truth_spread_scale=2.0),
    )
    server, _, _ = demo_server(duration=600.0, config=config, rng=rng, tracer=tracer)
    report = LoadDriver(
        server,
        server.models,
        OpenLoop(rate=1500.0),
        max_requests=max_requests,
        deadline=0.09,
        rng=rng,
    ).run()
    return tracer, report, server
