"""Online serving of stochastic predictions.

The paper's predictions are *run-time* artifacts: the NWS feeds live
CPU-load stochastic values into structural models while applications
wait for placement decisions.  This package turns the library's batch
pipeline into a long-running service:

* :mod:`repro.serving.protocol` — typed request/response dataclasses;
* :mod:`repro.serving.forecasts` — rolling per-resource forecasts with
  staleness-aware refresh over the live NWS;
* :mod:`repro.serving.server` — the event-loop server: request
  batching onto cached compiled plans, one vectorised Monte Carlo
  evaluation per batch, quality tags on every answer; batches with
  per-request precision targets evaluate chunk-wise with early
  stopping (see ``docs/adaptive.md``);
* :mod:`repro.serving.admission` — bounded queue, per-client token
  buckets, deadline-aware shedding, and the precision-shedding ladder
  (degrade tolerances before turning requests away);
* :mod:`repro.serving.columnar` — struct-of-arrays request/response
  batches with lazy protocol views and vectorised admission: the
  array-native hot path behind ``submit_batch``/``step_batch`` (see
  ``docs/serving.md``);
* :mod:`repro.serving.metrics` — counters/gauges/histograms snapshotable
  as JSON;
* :mod:`repro.serving.driver` — seeded open/closed-loop load generation;
* :mod:`repro.serving.schedules` — time-varying arrival-rate schedules
  (diurnal waves, flash crowds) realised by seeded thinning;
* :mod:`repro.serving.router` — consistent-hash shard placement with
  elastic membership (sticky-primary rebalance on add/remove);
* :mod:`repro.serving.cluster` — the sharded multi-worker cluster with
  replica failover over crashing workers (see ``docs/cluster.md``);
* :mod:`repro.serving.elastic` — the autoscaler and its placement
  policies (static / load-adaptive / forecast-aware over an internal
  NWS load feed);
* :mod:`repro.serving.scenarios` — the seeded YAML-driven chaos
  scenario suite asserting graceful-degradation invariants;
* :mod:`repro.serving.demo` — ready-made Platform 1 deployments (one
  server or a whole cluster).

With ``ServerConfig(calibration=...)`` (:mod:`repro.calib`) every
answer additionally carries its full predictive distribution (a
mergeable quantile sketch over the Monte Carlo draws) and the server
scores itself online — CRPS, PIT histograms, rolling 2σ-coverage per
model — widening drifting models via the conformal recalibrator, with
every adjustment tagged on the response (see ``docs/calibration.md``).

Every serving component accepts an optional ``tracer``
(:mod:`repro.obs`): with one installed, a request's admission, batch,
forecast lookups and failover hops are recorded as deterministic
simulated-time spans (see ``docs/observability.md``); without one the
behaviour is bit-identical to untraced code.
"""

from repro.calib.distribution import DistributionInfo
from repro.calib.loop import CalibrationConfig
from repro.serving.admission import (
    DEFAULT_PRECISION_LADDER,
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.serving.cluster import ClusterConfig, ServingCluster
from repro.serving.columnar import RequestBatch, ResponseBatch, admit_batch
from repro.serving.demo import demo_cluster, demo_server
from repro.serving.driver import (
    ClosedLoop,
    DriveReport,
    LoadDriver,
    OpenLoop,
)
from repro.serving.elastic import (
    Autoscaler,
    ElasticConfig,
    ForecastAwarePolicy,
    LoadAdaptivePolicy,
    PlacementPolicy,
    StaticPolicy,
    policy_by_name,
)
from repro.serving.forecasts import ForecastCache, SharedRefreshLedger
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.schedules import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    PiecewiseRate,
    RateSchedule,
    schedule_from_spec,
)
from repro.serving.protocol import (
    DEGRADED_QUEUE_PRESSURE,
    ErrorResponse,
    OverloadedResponse,
    PrecisionInfo,
    PredictRequest,
    PredictResponse,
    Response,
)
from repro.serving.router import ClusterRouter, HashRing
from repro.serving.server import ModelSpec, PredictionServer, ServerConfig

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "TokenBucket",
    "ClusterConfig",
    "ServingCluster",
    "ClusterRouter",
    "HashRing",
    "Autoscaler",
    "ElasticConfig",
    "PlacementPolicy",
    "StaticPolicy",
    "LoadAdaptivePolicy",
    "ForecastAwarePolicy",
    "policy_by_name",
    "RateSchedule",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "PiecewiseRate",
    "schedule_from_spec",
    "SharedRefreshLedger",
    "demo_cluster",
    "ClosedLoop",
    "OpenLoop",
    "DriveReport",
    "LoadDriver",
    "ForecastCache",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PredictRequest",
    "PredictResponse",
    "PrecisionInfo",
    "DistributionInfo",
    "CalibrationConfig",
    "OverloadedResponse",
    "ErrorResponse",
    "Response",
    "DEFAULT_PRECISION_LADDER",
    "DEGRADED_QUEUE_PRESSURE",
    "ModelSpec",
    "PredictionServer",
    "RequestBatch",
    "ResponseBatch",
    "admit_batch",
    "ServerConfig",
    "demo_server",
]
