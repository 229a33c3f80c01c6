"""``monte_carlo_predict`` frozen: samples and provenance, bit for bit.

One golden per seed records, for every case, a sha256 over the raw
float64 samples and the full ``AdaptiveOutcome.to_dict()`` (``None``
for a fixed budget).  The cases cover fixed budgets (plain, clipped,
with point-valued run-time parameters, on the reference engine and on
a policy that does not compile), every stopping rule and metric at two
caps, and :func:`compare_with_closed_form`.  A refactor of the draw
and evaluation code must reproduce every hash.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.cluster.network import Network, SharedEthernet
from repro.core.group_ops import MaxStrategy
from repro.core.stochastic import StochasticValue
from repro.sor.decomposition import equal_strips
from repro.structural.expr import EvalPolicy, Param
from repro.structural.montecarlo import compare_with_closed_form, monte_carlo_predict
from repro.structural.parameters import Bindings
from repro.structural.repeaters import STOPPING_RULES, PrecisionTarget
from repro.structural.sor_model import SORModel, bindings_for_platform

SEEDS = (1, 2, 3)
METRICS = ("mean", "std", "p95", "p99")


def _simple():
    b = Bindings()
    b.bind("c", 10.0)
    b.bind_runtime("load", StochasticValue(0.5, 0.05))
    return Param("c") / Param("load"), b


def _with_points():
    """Two sampled run-time parameters and one point-valued one."""
    b = Bindings()
    b.bind("c", 10.0)
    b.bind_runtime("load", StochasticValue(0.5, 0.05))
    b.bind_runtime("fixed", StochasticValue.point(2.0))
    b.bind_runtime("net", StochasticValue(3.0, 0.6))
    return Param("c") / Param("load") + Param("fixed") * Param("net"), b


def _sor():
    """The 3-process SOR model with clipped availabilities."""
    machines = [Machine(f"m{i}", 1e5) for i in range(3)]
    network = Network(SharedEthernet(dedicated_bytes_per_sec=1.25e6, latency=0.0))
    loads = {i: StochasticValue(0.5, 0.08 + 0.02 * i) for i in range(3)}
    bindings = bindings_for_platform(
        machines, network, equal_strips(302, 3), loads=loads, bw_avail=StochasticValue(0.6, 0.1)
    )
    clip = {f"load[{i}]": (0.02, 1.0) for i in range(3)}
    clip["bw_avail"] = (0.02, 1.0)
    return SORModel(n_procs=3, iterations=10).expression(), bindings, clip


def _record(value) -> dict:
    outcome = getattr(value, "outcome", None)
    return {
        "draws": int(value.samples.size),
        "sha256": hashlib.sha256(np.ascontiguousarray(value.samples).tobytes()).hexdigest(),
        "outcome": None if outcome is None else outcome.to_dict(),
    }


def run_cases(seed: int) -> dict:
    simple, simple_b = _simple()
    points, points_b = _with_points()
    sor, sor_b, clip = _sor()
    mc_max = EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO)
    out = {
        "fixed/simple": _record(monte_carlo_predict(simple, simple_b, n_samples=2000, rng=seed)),
        "fixed/simple-777": _record(
            monte_carlo_predict(simple, simple_b, n_samples=777, rng=seed)
        ),
        "fixed/points": _record(monte_carlo_predict(points, points_b, n_samples=2000, rng=seed)),
        "fixed/sor": _record(monte_carlo_predict(sor, sor_b, n_samples=2000, rng=seed)),
        "fixed/sor-clip": _record(
            monte_carlo_predict(sor, sor_b, n_samples=2000, rng=seed, clip=clip)
        ),
        "fixed/reference": _record(
            monte_carlo_predict(
                sor, sor_b, n_samples=200, rng=seed, clip=clip, engine="reference"
            )
        ),
        "fixed/points-reference": _record(
            monte_carlo_predict(points, points_b, n_samples=300, rng=seed, engine="reference")
        ),
        "fixed/uncompiled-policy": _record(
            monte_carlo_predict(sor, sor_b, n_samples=200, rng=seed, clip=clip, policy=mc_max)
        ),
    }
    for rule in STOPPING_RULES:
        for metric in METRICS:
            target = PrecisionTarget(metric=metric, rel_tol=0.01, rule=rule, min_samples=64)
            out[f"adaptive/{rule}/{metric}"] = _record(
                monte_carlo_predict(simple, simple_b, rng=seed, precision=target)
            )
    for cap in (2000, 777):
        for spec in ("p95:2%", "p99:1%:composite", "mean:0.05", "std:5%:bootstrap"):
            target = PrecisionTarget.parse(spec, min_samples=64, max_samples=cap)
            out[f"adaptive/sor-clip/{spec}/{cap}"] = _record(
                monte_carlo_predict(sor, sor_b, rng=seed, clip=clip, precision=target)
            )
        target = PrecisionTarget.parse("p95:1%:hdi", min_samples=100, max_samples=cap)
        out[f"adaptive/points/hdi/{cap}"] = _record(
            monte_carlo_predict(points, points_b, rng=seed, precision=target)
        )
    out["closed-form/sor-clip"] = compare_with_closed_form(
        sor, sor_b, n_samples=2000, rng=seed, clip=clip
    )
    out["closed-form/points-reference"] = compare_with_closed_form(
        points, points_b, n_samples=300, rng=seed, engine="reference"
    )
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_monte_carlo_is_frozen(golden, seed):
    golden(f"montecarlo_seed{seed}", run_cases(seed))
