"""Platform 2 experiments (Section 3.2, Figures 10-17).

Production system of a Sparc-5, a Sparc-10 and two UltraSparcs whose
load is 4-modal and *bursty*.  Because the load no longer stays in one
mode, preliminary summaries are not enough: "we use a stochastic value
for load from the Network Weather Service" at run time.

The experiment schedule mirrors the paper's: the NWS monitors every
machine (5-second cadence); at each run's start time the model is
parameterised with the NWS forecast (a stochastic value) per machine and
the run is executed under the real traces; Figures 12/14/16 plot actual
times against the stochastic predictions for problem sizes 1600/1000/
2000, Figures 13/15/17 the accompanying load.

Paper results to match in shape: ~80% of actuals inside the stochastic
range, out-of-range errors <= ~14%, while the means alone err by up to
~38.6%.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.intervals import PredictionQuality, assess_predictions
from repro.core.stochastic import StochasticValue
from repro.nws.service import NetworkWeatherService
from repro.sor.decomposition import equal_strips
from repro.sor.distributed import simulate_sor
from repro.structural.sor_model import SORModel, bindings_for_platform
from repro.util.rng import as_generator
from repro.workload.platforms import PlatformPreset, platform2

__all__ = ["Platform2Point", "Platform2Result", "run_platform2", "platform2_load_study"]

#: NWS training period before the first timed run, seconds.
DEFAULT_WARMUP = 600.0

#: Trailing window (seconds) for the run-horizon NWS query.  Comparable
#: to an execution (a couple of burst dwells), so the reported mean and
#: variance describe the load regime the run will actually sample.
DEFAULT_QUERY_WINDOW = 90.0


@dataclass(frozen=True)
class Platform2Point:
    """One execution: its start time, prediction, and measurement.

    Attributes
    ----------
    timestamp:
        Simulated start time of the run (the Figures 12-17 x-axis).
    prediction:
        Stochastic execution-time prediction from NWS forecasts.
    actual:
        Simulated execution time under the bursty traces.
    loads:
        The per-machine NWS load forecasts used for the prediction.
    """

    timestamp: float
    prediction: StochasticValue
    actual: float
    loads: tuple[StochasticValue, ...]


@dataclass(frozen=True)
class Platform2Result:
    """Full bursty-platform experiment output.

    Attributes
    ----------
    problem_size:
        Grid side length N of every run in the series.
    points:
        The run series (Figure 12/14/16 data).
    quality:
        Aggregate paper metrics.
    load_times, load_values:
        A representative machine's load trace over the experiment window
        (Figure 13/15/17 data).
    """

    problem_size: int
    points: tuple[Platform2Point, ...]
    quality: PredictionQuality
    load_times: np.ndarray
    load_values: np.ndarray


def run_platform2(
    problem_size: int = 1600,
    *,
    n_runs: int = 25,
    iterations: int = 20,
    run_spacing: float = 120.0,
    warmup: float = DEFAULT_WARMUP,
    query_window: float = DEFAULT_QUERY_WINDOW,
    rng=None,
    platform: PlatformPreset | None = None,
    representative_machine: int = 0,
) -> Platform2Result:
    """Run the bursty-platform experiment for one problem size.

    ``query_window`` selects the NWS query horizon: each prediction uses
    windowed load statistics (mean +/- 2*std over the trailing window)
    rather than the one-step tournament forecast, because a run spans
    multiple load bursts (see :meth:`NetworkWeatherService.query_window`).
    Each prediction evaluates the Table 2 closed forms of one model
    expression built before the run loop; only the NWS forecast bindings
    change between runs.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    gen = as_generator(rng)
    duration = warmup + run_spacing * (n_runs + 2)
    plat = platform if platform is not None else platform2(duration=duration, rng=gen)
    nprocs = len(plat.machines)

    nws = NetworkWeatherService()
    for m in plat.machines:
        nws.register(f"cpu:{m.name}", m.availability)
    nws.register("net:ethernet", plat.network.default_segment.availability)

    nws.advance_to(warmup)

    dec = equal_strips(problem_size, nprocs)
    model = SORModel(n_procs=nprocs, iterations=iterations)
    expr = model.expression()

    points = []
    for k in range(n_runs):
        start = warmup + k * run_spacing
        nws.advance_to(start)
        loads = tuple(nws.query_window(f"cpu:{m.name}", query_window) for m in plat.machines)
        bw = nws.query_window("net:ethernet", query_window)
        bindings = bindings_for_platform(
            plat.machines,
            plat.network,
            dec,
            loads={i: _clamped(load) for i, load in enumerate(loads)},
            bw_avail=_clamped(bw),
        )
        prediction = expr.evaluate(bindings)
        actual = simulate_sor(
            plat.machines,
            plat.network,
            problem_size,
            iterations,
            decomposition=dec,
            start_time=start,
        )
        points.append(
            Platform2Point(
                timestamp=start, prediction=prediction, actual=actual.elapsed, loads=loads
            )
        )

    quality = assess_predictions([p.prediction for p in points], [p.actual for p in points])
    trace = plat.machines[representative_machine].availability
    t0, t1 = warmup, warmup + n_runs * run_spacing
    window = trace.window(t0, t1)
    return Platform2Result(
        problem_size=int(problem_size),
        points=tuple(points),
        quality=quality,
        load_times=window.edges[:-1].copy(),
        load_values=window.values.copy(),
    )


def _clamped(value: StochasticValue) -> StochasticValue:
    """Keep NWS availability forecasts physically meaningful.

    Forecast means are clipped into (0, 1]; the spread is kept.  Without
    this, a forecaster chasing a burst could report a nonpositive mean
    availability, which has no physical interpretation as a divisor.
    """
    mean = min(max(value.mean, 0.02), 1.0)
    return StochasticValue(mean, value.spread)


def platform2_load_study(
    *, duration: float = 3600.0, rng=None, machine: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth load series for Figures 10 (histogram) and 11 (trace)."""
    plat = platform2(duration=duration, rng=rng)
    trace = plat.machines[machine].availability
    return trace.edges[:-1].copy(), trace.values.copy()
