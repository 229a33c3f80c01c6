"""One evaluation per distinct input: the server's evaluation groups.

A served batch is split by evaluation key (override values plus clamped
precision target) before it is evaluated: each group draws, evaluates
and summarises once, and its rows read the group's answer through one
code array.  Adaptive rows stay one group each, and the simulated charge
stays per answered row.  These tests pin the contract:

* rows whose keys all differ are evaluated exactly as before, one
  propagated row each, bit for bit;
* rows that share a key share every summary and distribution field;
* a mixed fixed/adaptive batch is charged the draws of every row's group;
* ``DistributionBatch.take`` broadcasts group rows to batch rows.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import CalibrationConfig, CalibrationLoop
from repro.core.stochastic import StochasticValue
from repro.serving import PredictRequest, RequestBatch, ServerConfig, demo_server
from repro.structural.montecarlo import propagate
from repro.structural.repeaters import PrecisionTarget
from repro.util.stats import ragged_summary

SEED = 5


def _server(**config):
    server, _, _ = demo_server(duration=600.0, config=ServerConfig(**config), rng=SEED)
    return server


def _batch(server, rows) -> RequestBatch:
    """One single-model batch, all rows submitted now; ``rows`` holds
    each row's extra ``PredictRequest`` fields."""
    model = server.models[0]
    return RequestBatch.from_requests(
        [
            PredictRequest(
                request_id=i, client_id=f"c{i}", model=model, submitted=server.now, **kw
            )
            for i, kw in enumerate(rows)
        ]
    )


def _serve(server, batch):
    assert len(server.submit_batch(batch)) == 0
    out = server.step_batch(server.now + 5.0)
    assert len(out) == len(batch) and bool(out.ok_mask.all())
    return out.select(np.argsort(out.request_id))


def test_distinct_keys_evaluate_like_one_propagate_call():
    server = _server(n_samples=64, batch_max=16)
    overrides = [{"bw_avail": 0.3 + 0.05 * i} for i in range(6)]
    overrides[2] = {"load[1]": StochasticValue(0.6, 0.1)}
    batch = _batch(server, [{"overrides": o} for o in overrides])
    spec = server._models[server.models[0]]  # noqa: SLF001 - the model served
    rng = copy.deepcopy(server._rng)  # noqa: SLF001 - the generator state before serving
    # The forecasts the batch is served on (the server's own lookups hit
    # these cache entries).
    base = {
        p: server.forecasts.get(spec.resources[p], server.now).value
        if p in spec.resources
        else spec.bindings.resolve(p)
        for p in spec.sampled
    }
    out = _serve(server, batch)
    samples, _, _ = propagate(
        server._plan(spec),  # noqa: SLF001
        spec.expression,
        spec.bindings,
        spec.sampled,
        base,
        rng,
        budget=64,
        rows=len(overrides),
        overrides=tuple(overrides),
        clip=spec.clip,
    )
    assert out.mean.tobytes() == samples.mean(axis=1).tobytes()
    assert out.spread.tobytes() == (2.0 * samples.std(axis=1, ddof=1)).tobytes()
    assert out.p95.tobytes() == np.quantile(samples, 0.95, axis=1).tobytes()


def test_rows_that_share_a_key_share_the_answer():
    server = _server(n_samples=64, batch_max=16, calibration=CalibrationConfig())
    a, b = {"bw_avail": 0.5}, {"bw_avail": 0.7}
    keys = [None, a, None, b, dict(a), None, b, {"bw_avail": -0.0}, {"bw_avail": 0.0}]
    batch = _batch(server, [{} if o is None else {"overrides": o} for o in keys])
    out = _serve(server, batch)
    groups = {}
    for i, o in enumerate(keys):
        groups.setdefault(repr(o), []).append(i)
    assert len(groups) == 5
    answers = out.to_responses()
    firsts = []
    for rows in groups.values():
        first = answers[rows[0]]
        firsts.append(first)
        for i in rows[1:]:
            r = answers[i]
            assert (r.value, r.p95, r.quality, r.staleness) == (
                first.value,
                first.p95,
                first.quality,
                first.staleness,
            )
            assert r.distribution == first.distribution
            # Each read is a block of its own.
            assert r.distribution.sketch is not first.distribution.sketch
    # Distinct keys draw distinct clouds, -0.0 and 0.0 included.
    assert len({r.value.mean for r in firsts}) == len(firsts)
    # Every row's answer is scored, once.
    server.calib.flush()
    assert server.calib.scorer.score(server.models[0]).n == len(keys)


def test_mixed_batch_is_charged_the_draws_of_every_rows_group():
    server = _server(n_samples=256, batch_max=16)
    target = PrecisionTarget.parse("p95:5%", min_samples=16)
    precise, pinned = {"precision": target}, {"overrides": {"bw_avail": 0.5}}
    rows = [{}, precise, {}, pinned, precise, {}]
    batch = _batch(server, rows)
    t = server.now
    out = _serve(server, batch)
    answers = out.to_responses()
    adaptive = [answers[i].precision.draws for i in (1, 4)]
    assert all(d < 256 for d in adaptive)
    draws = 4 * 256 + sum(adaptive)
    assert np.all(out.completed == t + server.config.adaptive_service_time(draws))
    counters = server.metrics.snapshot()["counters"]
    assert counters["draws_used_total"] == draws
    assert counters["draws_budget_total"] == len(rows) * 256


def test_override_free_fixed_batch_is_one_group():
    server = _server(n_samples=32, batch_max=64)
    first, codes = server._groups(_batch(server, [{}] * 40), None)  # noqa: SLF001
    assert first.tolist() == [0]
    assert codes.tolist() == [0] * 40


# ----------------------------------------------------------------------
# DistributionBatch.take
# ----------------------------------------------------------------------
_clouds = st.lists(
    st.lists(
        st.floats(min_value=-5.0, max_value=50.0, allow_nan=False, allow_infinity=False),
        min_size=6,
        max_size=40,
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    clouds=_clouds,
    positive=st.booleans(),
    ragged=st.booleans(),
    components=st.sampled_from([0, 2]),
    scale=st.sampled_from([1.0, 1.5]),
    picks=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=12),
)
def test_take_reads_as_indexing(clouds, positive, ragged, components, scale, picks):
    arrays = [np.abs(np.asarray(c)) + 0.5 if positive else np.asarray(c) for c in clouds]
    if not ragged:
        n = min(a.size for a in arrays)
        arrays = np.vstack([a[:n] for a in arrays])
    config = CalibrationConfig(mixture_components=components)
    loop = CalibrationLoop(config, np.random.default_rng(1))
    mean, std, _ = ragged_summary(arrays)
    batch = loop.distributions(arrays, mean, std)
    if scale != 1.0:
        batch = batch.widened(scale)
    codes = np.asarray([p % len(batch) for p in picks])
    taken = batch.take(codes)
    assert len(taken) == codes.size
    for i, c in enumerate(codes.tolist()):
        got, want = taken[i], batch[c]
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        # Rows that share a group never share a mutable sketch.
        assert got.sketch is not want.sketch
