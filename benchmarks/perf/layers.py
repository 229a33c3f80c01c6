"""An outside-in wall-clock profile of the serving stack, by layer.

:class:`LayerTimer` wraps the public entry points listed in
:data:`TARGETS` (nothing under ``src/`` changes) and charges each call's
wall time to its layer.  A stack of active wrappers turns inclusive
times into self times: a call's self time is its duration minus the
time spent in wrapped calls it made, so the layers' self times plus the
uncovered remainder (``driver``) sum to the drive's wall time exactly.

Module-level functions are wrapped where their caller looks them up
(``admit_batch`` in ``repro.serving.server``, ``compile_expr`` in the
server and the calibration loop), since that is the name the hot path
resolves at call time.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(layer, module, attribute)`` for every timed public call.
TARGETS = (
    ("serving.cluster", "repro.serving.cluster", "ServingCluster.submit_batch"),
    ("serving.cluster", "repro.serving.cluster", "ServingCluster.step_batch"),
    ("serving.cluster", "repro.serving.cluster", "ServingCluster.submit"),
    ("serving.cluster", "repro.serving.cluster", "ServingCluster.step"),
    ("serving.router", "repro.serving.router", "ClusterRouter.route"),
    ("serving.admission", "repro.serving.server", "admit_batch"),
    ("serving.admission", "repro.serving.admission", "AdmissionController.admit"),
    ("serving.server", "repro.serving.server", "PredictionServer.submit_batch"),
    ("serving.server", "repro.serving.server", "PredictionServer.step_batch"),
    ("serving.server", "repro.serving.server", "PredictionServer.submit"),
    ("serving.server", "repro.serving.server", "PredictionServer.step"),
    ("serving.columnar", "repro.serving.columnar", "RequestBatch.concat"),
    ("serving.columnar", "repro.serving.columnar", "RequestBatch.select"),
    ("serving.columnar", "repro.serving.columnar", "RequestBatch.to_requests"),
    ("serving.columnar", "repro.serving.columnar", "ResponseBatch.concat"),
    ("serving.columnar", "repro.serving.columnar", "ResponseBatch.select"),
    ("serving.columnar", "repro.serving.columnar", "ResponseBatch.sorted_by_completion"),
    ("serving.columnar", "repro.serving.columnar", "ResponseBatch.from_responses"),
    ("serving.forecasts", "repro.serving.forecasts", "ForecastCache.get"),
    ("serving.forecasts", "repro.serving.forecasts", "ForecastCache.ingest_to"),
    ("nws", "repro.nws.service", "NetworkWeatherService.advance_to"),
    ("nws", "repro.nws.service", "NetworkWeatherService.query_qualified"),
    ("core.stochastic", "repro.core.stochastic", "StochasticValue.sample"),
    ("structural.engine", "repro.structural.engine", "CompiledExpr.evaluate"),
    ("structural.engine", "repro.serving.server", "compile_expr"),
    ("structural.engine", "repro.calib.loop", "compile_expr"),
    ("structural.repeaters", "repro.structural.repeaters", "SequentialProbe.assess"),
    ("calib", "repro.calib.loop", "CalibrationLoop.distributions"),
    ("calib", "repro.calib.loop", "CalibrationLoop.enqueue"),
    ("calib", "repro.calib.loop", "CalibrationLoop.flush"),
    ("serving.elastic", "repro.serving.elastic", "Autoscaler.control"),
    ("obs", "repro.obs.tracer", "Tracer.start_span"),
    ("serving.metrics", "repro.serving.metrics", "Histogram.observe"),
    ("serving.metrics", "repro.serving.metrics", "Histogram.observe_many"),
)

#: Layer names in report order; ``driver`` is the wall time no wrapper
#: covers (the benchmark's own loop).
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: The call whose returned array length counts Monte Carlo draws.
DRAW_TARGET = ("repro.core.stochastic", "StochasticValue.sample")


class MissingTarget(Exception):
    """A registered attribute no longer exists in the library."""


def _resolve(module_name: str, attribute: str):
    """``(owner, name, raw)`` for a dotted attribute, or raise."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{attribute}: no {part!r}")
    raw = vars(owner).get(name)
    if raw is None:
        raise MissingTarget(f"{module_name}.{attribute} no longer exists")
    return owner, name, raw


class LayerTimer:
    """Self-time accounting over :data:`TARGETS`.

    Use :meth:`install` once before building the deployment,
    :meth:`reset` before the timed drive and :meth:`profile` after it;
    :meth:`uninstall` restores every original attribute.
    """

    def __init__(self):
        self._self_s = [0.0] * len(LAYERS)
        self._calls = [0] * len(LAYERS)
        self._draws = [0]
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        """Zero every accumulator (in place: the wrappers hold them)."""
        for i in range(len(LAYERS)):
            self._self_s[i] = 0.0
            self._calls[i] = 0
        self._draws[0] = 0
        self._stack.clear()

    def _wrap(self, index: int, fn, count_draws: bool):
        stack, self_s, calls, draws = self._stack, self._self_s, self._calls, self._draws
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[index] += dt - stack.pop()
                calls[index] += 1
                if stack:
                    stack[-1] += dt
            if count_draws:
                draws[0] += len(out)
            return out

        return timed

    def install(self) -> None:
        """Wrap every target; raises :class:`MissingTarget` (wrapping
        nothing) when any registered attribute is gone."""
        resolved = [(layer, *_resolve(mod, attr), (mod, attr) == DRAW_TARGET)
                    for layer, mod, attr in TARGETS]
        for layer, owner, name, raw, count_draws in resolved:
            index = LAYERS.index(layer)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(index, raw.__func__, count_draws))
            else:
                wrapped = self._wrap(index, raw, count_draws)
            setattr(owner, name, wrapped)
            self._saved.append((owner, name, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def profile(self, wall: float, ok: int) -> dict:
        """Per-layer calls and self µs per ok answer for a drive of
        ``wall`` seconds, plus the uncovered ``driver`` remainder."""
        out: dict = {}
        for layer, calls, self_s in zip(LAYERS, self._calls, self._self_s):
            out[f"{layer}.calls"] = float(calls)
            out[f"{layer}.self_us_per_req"] = self_s * 1e6 / ok
        driver = wall - sum(self._self_s)
        out["driver.self_us_per_req"] = driver * 1e6 / ok
        out["driver.wall_frac"] = driver / wall
        out["core.stochastic.draws_per_req"] = self._draws[0] / ok
        return out
