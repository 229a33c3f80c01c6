"""Dedicated-mode benchmark harnesses.

Two benchmark sources parameterise the structural models:

* a **sorting benchmark** (paper Figure 1/2): repeated runs of an in-core
  sort on a dedicated machine produce near-normally distributed runtimes.
  We provide both a *real* wall-clock harness (:func:`time_sort`) and a
  *synthetic dedicated runtime* model (:func:`dedicated_sort_runtimes`)
  whose noise floor is documented — the figure benchmarks use the
  synthetic model so they are deterministic under a seed, per the
  substitution notes in DESIGN.md.
* a **per-element SOR benchmark** (the paper's ``BM(Elt)``,
  Section 2.2.1): times the real NumPy red/black update kernel and
  divides by the number of updated elements.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.stochastic import StochasticValue
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = [
    "time_sort",
    "dedicated_sort_runtimes",
    "measure_sor_element_time",
    "benchmark_value",
]


def time_sort(n_elements: int, repeats: int = 5, rng=None) -> np.ndarray:
    """Wall-clock runtimes (seconds) of a real in-core sort, ``repeats`` times."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    gen = as_generator(rng)
    out = np.empty(repeats)
    for i in range(repeats):
        data = gen.random(n_elements)
        t0 = time.perf_counter()
        np.sort(data, kind="mergesort")
        out[i] = time.perf_counter() - t0
    return out


def dedicated_sort_runtimes(
    n_runs: int,
    *,
    base: float = 11.0,
    rel_std: float = 0.125,
    rng=None,
) -> np.ndarray:
    """Synthetic dedicated-machine sort runtimes (Figure 1 regime).

    Dedicated runtimes are modelled as ``N(base, (rel_std * base)**2)``:
    the paper's Figure 1 histogram spans roughly 6-16 s around an 11 s
    center with a near-normal shape.  Negative draws are re-centred by
    clipping at 10% of the base (never triggered at the defaults).
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    check_positive(base, "base")
    check_positive(rel_std, "rel_std")
    gen = as_generator(rng)
    samples = gen.normal(base, rel_std * base, size=n_runs)
    return np.maximum(samples, 0.1 * base)


def measure_sor_element_time(n: int = 400, iterations: int = 5) -> float:
    """Measure seconds-per-element of the real red/black SOR kernel.

    Runs the vectorised kernel from :mod:`repro.sor.kernel` on an ``n x n``
    grid and returns wall time divided by total updated elements.  This is
    the measured ``BM(Elt)`` a real deployment would feed the model; the
    simulated platforms use calibrated per-machine constants instead.
    """
    from repro.sor.grid import SORGrid
    from repro.sor.kernel import sor_iteration

    grid = SORGrid.laplace_problem(n)
    u = grid.initial_field()
    # Warm-up pass so allocation effects do not pollute the measurement.
    sor_iteration(u, grid.omega)
    t0 = time.perf_counter()
    for _ in range(iterations):
        sor_iteration(u, grid.omega)
    elapsed = time.perf_counter() - t0
    updated = iterations * (n - 2) * (n - 2)
    return elapsed / updated


def benchmark_value(samples) -> StochasticValue:
    """Summarise benchmark runtimes as a stochastic value ``mean +/- 2*std``."""
    return StochasticValue.from_samples(samples)
