"""Online prediction serving: batching, backpressure, degraded answers.

The paper's predictions are consumed at run time — a scheduler asks
"how long will SOR take *right now*?" while telemetry streams in.  This
example stands up the Platform 1 prediction server and walks through its
three serving behaviours:

1. a single request answered from live NWS forecasts, with a quality tag;
2. 64 concurrent closed-loop clients fused into vectorised batches that
   share one compiled evaluation plan across all three model sizes;
3. an open-loop overload that the admission controller sheds with typed
   ``overloaded`` responses instead of errors.

Run:  python examples/serve_demo.py
"""

from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    LoadDriver,
    OpenLoop,
    PredictRequest,
    ServerConfig,
    demo_server,
)
from repro.serving.server import _BATCH_BUCKETS
from repro.structural.engine import plan_cache_stats


def main() -> None:
    # --- 1. One request against the live server -------------------------
    server, _, _ = demo_server(rng=11)
    request = PredictRequest(
        request_id=1, client_id="scheduler", model="sor-1600",
        submitted=server.now,
    )
    server.submit(request)
    (response,) = server.step(server.now + 1.0)
    print("single request:")
    print(f"  sor-1600 runtime = {response.value} s  (p95 {response.p95:.1f} s)")
    print(f"  quality={response.quality}  staleness={response.staleness:.1f} s  "
          f"latency={response.latency * 1e3:.1f} ms")

    # --- 2. 64 concurrent clients, batched onto one compiled plan ------
    server, _, _ = demo_server(rng=11)
    report = LoadDriver(
        server, server.models, ClosedLoop(clients=64), max_requests=1000, rng=11
    ).run()
    cache = plan_cache_stats()
    print("\n64 closed-loop clients, 1000 requests:")
    print("  " + report.summary().replace("\n", "\n  "))
    batch_p50 = server.metrics.histogram("batch_size", _BATCH_BUCKETS).quantile(0.50)
    print(f"  median batch size: {batch_p50:.0f}")
    print(f"  compiled plans: {cache['misses']} (3 model sizes share one "
          "expression)")

    # --- 3. Open-loop overload: shed, don't fail ------------------------
    server, _, _ = demo_server(
        config=ServerConfig(admission=AdmissionPolicy(max_queue=64)), rng=11
    )
    report = LoadDriver(
        server, server.models, OpenLoop(rate=3000.0, clients=16),
        duration=3.0, rng=11,
    ).run()
    print("\nopen loop at 3000 req/s against ~900 req/s of capacity:")
    print("  " + report.summary().replace("\n", "\n  "))
    shed = [r for r in report.responses if r.status == "overloaded"]
    print(f"  first shed response: reason={shed[0].reason} "
          f"retry_after={shed[0].retry_after:.3f} s")


if __name__ == "__main__":
    main()
