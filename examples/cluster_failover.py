"""Sharded serving cluster: consistent hashing, crash, failover, recovery.

One prediction server scales *up* by batching; a cluster scales *out* by
sharding the registered models across workers.  This example stands up
the 4-worker Platform 1 demo cluster and walks through its three
behaviours:

1. shard placement — each model lands on a primary plus a standby
   replica via consistent hashing with balanced primary election;
2. a worker crash mid-load — the dead worker's shards fail over to
   their replicas, answers keep flowing but are tagged
   ``failover=True`` with quality degraded to at least ``stale``;
3. recovery — the worker restarts cold, takes its shards back, and
   answers return to ``fresh``.

Run:  python examples/cluster_failover.py
"""

from repro.faults import FaultPlan
from repro.serving import ClosedLoop, ClusterConfig, LoadDriver, demo_cluster

CRASH_START, CRASH_END = 60.4, 61.2


def main() -> None:
    # --- 1. Shard placement --------------------------------------------
    probe, _, _ = demo_cluster(
        duration=900.0, config=ClusterConfig(n_workers=4, replication=2), rng=7
    )
    print("shard placement (primary > replica):")
    for model in probe.models:
        print(f"  {model:<9} {' > '.join(probe.owners(model))}")
    victim = probe.owners(probe.models[0])[0]
    victim_models = [m for m in probe.models if probe.owners(m)[0] == victim]
    print(f"crash target: {victim} (primary of {', '.join(victim_models)})")

    # --- 2. Crash the primary mid-load ---------------------------------
    cluster, _, _ = demo_cluster(
        duration=900.0,
        config=ClusterConfig(n_workers=4, replication=2),
        faults=FaultPlan.crashes({victim: [(CRASH_START, CRASH_END)]}),
        rng=7,
    )
    report = LoadDriver(
        cluster, cluster.models, ClosedLoop(clients=16), max_requests=600, rng=7
    ).run()
    print(f"\n600 requests across the crash window "
          f"[{CRASH_START:.1f}, {CRASH_END:.1f}] s:")
    print("  " + report.summary().replace("\n", "\n  "))

    failover = [r for r in report.responses if r.ok and r.failover]
    counters = cluster.metrics.snapshot()["counters"]
    print(f"\nfailover answers: {len(failover)} "
          f"(all tagged {sorted({r.quality for r in failover})}, never silent)")
    print(f"  shards migrated : {counters['shard_migrations_total']:.0f}")
    print(f"  requests requeued: {counters['requeued_total']:.0f}")
    print(f"  error responses : {counters['errors_total']:.0f}")

    # --- 3. Recovery ----------------------------------------------------
    after = [
        r for r in report.responses
        if r.ok and r.model in victim_models and r.completed > CRASH_END + 0.5
    ]
    qualities = sorted({r.quality for r in after})
    workers = sorted({r.worker for r in after})
    print(f"\nafter {victim} restarts: {len(after)} answers on its shards, "
          f"quality {qualities}, served by {workers}")
    snap = cluster.snapshot()
    print(f"cluster-wide p99 latency: "
          f"{snap['aggregated']['latency_s']['p99'] * 1e3:.1f} ms (within 1%, over every delivery)")
    print(f"shared forecast refreshes saved: "
          f"{snap['forecast_ledger']['shared_hits']}")


if __name__ == "__main__":
    main()
