"""Platform 1 experiment (Section 3.1, Figures 8 and 9).

Production system of two Sparc-2s, a Sparc-5 and a Sparc-10; the load is
tri-modal but stays within a single mode during execution.  The
representative experiment:

* the slowest machines sit in the center mode; "two standard deviations
  of the preliminary data gave us a stochastic load value of
  0.48 +/- 0.05";
* all other model parameters are point values;
* predictions and measurements are compared across problem sizes that
  fit in main memory (Figure 9).

Paper results to match in shape: all measured times inside the
stochastic interval (0% interval discrepancy); means off by at most
~9.7%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.intervals import PredictionQuality, assess_predictions
from repro.core.stochastic import StochasticValue
from repro.sor.decomposition import equal_strips
from repro.sor.distributed import simulate_sor
from repro.structural.sor_model import SORModel, bindings_for_platform
from repro.util.rng import as_generator
from repro.workload.platforms import PlatformPreset, platform1
from repro.workload.traces import Trace

__all__ = ["Platform1Point", "Platform1Result", "run_platform1"]

#: Preliminary-observation window (seconds) used to fit the stochastic
#: load value before the timed runs begin, as in the paper's set-up.
PRELIMINARY_WINDOW = 600.0

@dataclass(frozen=True)
class Platform1Point:
    """One problem size's prediction and measurement (a Figure 9 point).

    Attributes
    ----------
    problem_size:
        Grid side length N.
    prediction:
        Stochastic execution-time prediction.
    actual:
        Simulated execution time under the production traces.
    """

    problem_size: int
    prediction: StochasticValue
    actual: float


@dataclass(frozen=True)
class Platform1Result:
    """Full experiment output.

    Attributes
    ----------
    points:
        One entry per problem size (the Figure 9 series).
    quality:
        Aggregate paper metrics (capture, interval error, mean error).
    stochastic_load:
        The fitted preliminary load value (paper: 0.48 +/- 0.05).
    load_trace_times, load_trace_values:
        The slowest machine's load series during the experiment window
        (the Figure 8 series).
    """

    points: tuple[Platform1Point, ...]
    quality: PredictionQuality
    stochastic_load: StochasticValue
    load_trace_times: np.ndarray
    load_trace_values: np.ndarray


def _preliminary_load(trace: Trace, window: float) -> StochasticValue:
    """Summarise the preliminary window as ``mean +/- 2*std``."""
    mask = trace.edges[:-1] < trace.start + window
    return StochasticValue.from_samples(trace.values[mask])


def run_platform1(
    sizes=(1000, 1200, 1400, 1600, 1800, 2000),
    *,
    iterations: int = 20,
    rng=None,
    platform: PlatformPreset | None = None,
    run_spacing: float = 300.0,
) -> Platform1Result:
    """Run the Platform 1 experiment across ``sizes``.

    Each size is executed once, at successive start times along the
    production trace (the paper's runs are spread over wall-clock time).
    Predictions use the preliminary stochastic load for the slow
    (Sparc-2) machines and point loads for the others, and evaluate the
    Table 2 closed forms of one model expression built before the loop.
    """
    gen = as_generator(rng)
    duration = PRELIMINARY_WINDOW + run_spacing * (len(sizes) + 1)
    plat = platform if platform is not None else platform1(duration=duration, rng=gen)
    nprocs = len(plat.machines)

    # Preliminary analysis: stochastic value for the slow machines'
    # resident mode, point values (window means) for the rest.
    slow_rate = min(m.elements_per_sec for m in plat.machines)
    loads: dict[int, object] = {}
    stochastic_load = None
    for i, m in enumerate(plat.machines):
        prelim = _preliminary_load(m.availability, PRELIMINARY_WINDOW)
        if m.elements_per_sec == slow_rate:
            loads[i] = prelim
            stochastic_load = prelim if stochastic_load is None else stochastic_load
        else:
            loads[i] = StochasticValue.point(prelim.mean)
    assert stochastic_load is not None

    bw_point = plat.network.default_segment.availability.mean(0.0, PRELIMINARY_WINDOW)

    model = SORModel(n_procs=nprocs, iterations=iterations)
    expr = model.expression()

    points = []
    for k, n in enumerate(sizes):
        start = PRELIMINARY_WINDOW + k * run_spacing
        dec = equal_strips(int(n), nprocs)
        bindings = bindings_for_platform(
            plat.machines, plat.network, dec, loads=loads, bw_avail=bw_point
        )
        prediction = expr.evaluate(bindings)
        actual = simulate_sor(
            plat.machines, plat.network, int(n), iterations, decomposition=dec, start_time=start
        )
        points.append(
            Platform1Point(problem_size=int(n), prediction=prediction, actual=actual.elapsed)
        )

    quality = assess_predictions([p.prediction for p in points], [p.actual for p in points])
    slow_idx = plat.slowest_index()
    trace = plat.machines[slow_idx].availability
    return Platform1Result(
        points=tuple(points),
        quality=quality,
        stochastic_load=stochastic_load,
        load_trace_times=trace.edges[:-1].copy(),
        load_trace_values=trace.values.copy(),
    )
