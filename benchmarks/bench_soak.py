"""Lossless soak gate for the columnar serving hot path.

Not a paper artifact — the delivery contract of the struct-of-arrays
core (``repro.serving.columnar``, ``docs/serving.md``):
:data:`SOAK_REQUESTS` requests (1M by default; CI's ``soak-smoke`` job
scales down via ``REPRO_SOAK_REQUESTS``) flow through a 4-worker sharded
cluster in one run.  Delivery must be *provably lossless*: the driver
counts every answered ``request_id``, and the gate is zero lost and
zero duplicate answers.  A wall-QPS step summary (cumulative throughput
at each progress mark) lands in ``benchmarks/out/BENCH_soak.json``.

Everything runs in simulated time, so shed/latency numbers are
deterministic per seed; only the wall-clock throughput depends on the
machine.
"""

import json
import os

from conftest import emit

from repro.serving import (
    AdmissionPolicy,
    ClusterConfig,
    LoadDriver,
    OpenLoop,
    ServerConfig,
    demo_cluster,
)
from repro.util.tables import format_table

SEED = 11

SOAK_REQUESTS = int(os.environ.get("REPRO_SOAK_REQUESTS", "1000000"))
SOAK_RATE = 2500.0  # 4 workers x ~992/s capacity; comfortable headroom
PROGRESS_EVERY = max(1, SOAK_REQUESTS // 10)


def _server_config() -> ServerConfig:
    # Small fixed draw budget and big batches: the regime where object
    # plumbing, not math, dominates the per-request path.
    return ServerConfig(
        n_samples=16,
        batch_max=512,
        admission=AdmissionPolicy(max_queue=8192),
    )


def test_cluster_soak_lossless(out_dir):
    cluster, _, _ = demo_cluster(
        config=ClusterConfig(worker=_server_config()), rng=SEED
    )
    assert cluster.columnar_fast_path

    steps = []

    def progress(answered: int, wall: float) -> None:
        steps.append(
            {
                "answered": answered,
                "wall_s": round(wall, 3),
                "qps_wall": round(answered / wall) if wall > 0 else None,
            }
        )

    driver = LoadDriver(
        cluster,
        cluster.models,
        OpenLoop(SOAK_RATE),
        max_requests=SOAK_REQUESTS,
        tick=0.25,
        rng=SEED,
        progress=progress,
        progress_every=PROGRESS_EVERY,
    )
    report = driver.run()

    emit(
        f"Cluster soak: {SOAK_REQUESTS:,} requests at {SOAK_RATE:.0f} q/s (seed {SEED})",
        format_table(
            ["answered", "wall (s)", "wall q/s"],
            [[f"{s['answered']:,}", s["wall_s"], f"{s['qps_wall']:,}"] for s in steps],
        )
        + f"\nok={report.ok:,} shed={report.shed:,} errors={report.errors} "
        f"lost={report.lost} duplicates={report.duplicates}\n"
        f"sim latency p50={report.latency_p50:.3f} s  p99={report.latency_p99:.3f} s",
    )

    payload = {
        "seed": SEED,
        "requests": SOAK_REQUESTS,
        "rate": SOAK_RATE,
        "workers": cluster.config.n_workers,
        "ok": report.ok,
        "shed": report.shed,
        "errors": report.errors,
        "lost": report.lost,
        "duplicates": report.duplicates,
        "latency_p50_s": report.latency_p50,
        "latency_p99_s": report.latency_p99,
        "sim_duration_s": report.sim_duration,
        "wall_s": report.wall_seconds,
        "qps_wall": report.qps_wall,
        "qps_sim": report.qps_sim,
        "steps": steps,
    }
    out = out_dir / "BENCH_soak.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["soak"] = payload
    out.write_text(json.dumps(doc, indent=2))

    # The headline gate: a million answers, none lost, none duplicated.
    assert report.submitted == SOAK_REQUESTS
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.errors == 0
    assert report.ok + report.shed == SOAK_REQUESTS
    # Offered load sits under cluster capacity; nothing should shed.
    assert report.shed == 0
