"""One evaluation per distinct input: the server's evaluation groups.

A served batch is split by evaluation key (override values plus clamped
precision target) before it is evaluated: each group draws, evaluates
and summarises once, and its rows read the group's answer through one
code array.  Adaptive rows share too, and the simulated charge stays per
answered row.  These tests pin the contract:

* rows whose keys all differ are evaluated exactly as before, one
  propagated row each, bit for bit;
* rows that share a key share every summary and distribution field,
  adaptive rows their precision block and one ``mc.converged`` row too;
* a batch is charged the draws of every row's group, a shared adaptive
  group once per row;
* distinct targets, distinct overrides and fixed riders stay apart;
* every column class (request rows, answer rows, distribution blocks,
  sketch rows) takes rows by mask, index or slice and joins parts as
  one ``take`` would have, tables and absent sidecars included.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import CalibrationConfig, CalibrationLoop
from repro.calib.distribution import DistributionBatch
from repro.calib.sketch import SketchRows, build_sketches
from repro.core.stochastic import StochasticValue
from repro.obs import Tracer
from repro.nws.service import QUALITIES
from repro.serving import PredictRequest, RequestBatch, ResponseBatch, ServerConfig, demo_server
from repro.serving.columnar import REASONS, STATUSES
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


def test_adaptive_rows_with_one_target_share_one_evaluation():
    tracer = Tracer()
    target = PrecisionTarget.parse("p95:5%", min_samples=16)
    server, _, _ = demo_server(
        duration=600.0,
        config=ServerConfig(
            n_samples=256, batch_max=16, precision=target, calibration=CalibrationConfig()
        ),
        rng=SEED,
        tracer=tracer,
    )
    k = 6
    out = _serve(server, _batch(server, [{}] * k))
    answers = out.to_responses()
    first = answers[0]
    assert first.precision.draws < 256
    for r in answers[1:]:
        assert (r.value, r.p95, r.precision) == (first.value, first.p95, first.precision)
        assert r.distribution == first.distribution
    # One stopping rule ran: one mc.converged row, on the first request.
    converged = tracer.find(name="mc.converged")
    assert [sp.attrs["request_id"] for sp in converged] == [0]
    (batch_span,) = tracer.find(name="serving.batch")
    assert converged[0].parent_id == batch_span.span_id


def test_a_shared_adaptive_group_is_charged_once_per_row():
    server = _server(
        n_samples=256, batch_max=16, precision=PrecisionTarget.parse("p95:5%", min_samples=16)
    )
    k = 5
    t = server.now
    out = _serve(server, _batch(server, [{}] * k))
    draws = {r.precision.draws for r in out.to_responses()}
    assert len(draws) == 1
    (group_draws,) = draws
    assert group_draws < 256
    assert np.all(out.completed == t + server.config.adaptive_service_time(k * group_draws))
    snap = server.metrics.snapshot()
    assert snap["counters"]["draws_used_total"] == k * group_draws
    assert snap["counters"]["draws_budget_total"] == k * 256
    assert snap["histograms"]["draws_used"]["count"] == k


def test_distinct_targets_overrides_and_fixed_riders_stay_apart():
    server = _server(n_samples=256, batch_max=16)
    a = PrecisionTarget.parse("p95:5%", min_samples=16)
    b = PrecisionTarget.parse("p95:3%", min_samples=16)
    rows = [
        {"precision": a},
        {"precision": b},
        {"precision": a, "overrides": {"bw_avail": 0.5}},
        {"precision": a, "overrides": {"bw_avail": 0.6}},
        {},
        {"precision": a},
        {},
        {"precision": a, "overrides": {"bw_avail": 0.5}},
    ]
    batch = _batch(server, rows)
    first, codes = server._groups(batch, server._precision_targets(batch))  # noqa: SLF001
    assert first.tolist() == [0, 1, 2, 3, 4]
    assert codes.tolist() == [0, 1, 2, 3, 4, 0, 4, 2]
    answers = _serve(server, batch).to_responses()
    means = [r.value.mean for r in answers]
    assert len(set(means)) == 5
    assert means[5] == means[0] and means[6] == means[4] and means[7] == means[2]
    assert answers[4].precision is None and answers[6].precision is None
    # Without overrides, the groups are the target codes.
    plain = _batch(server, [{"precision": t} for t in (a, b, a, None, b)])
    first, codes = server._groups(plain, server._precision_targets(plain))  # noqa: SLF001
    assert first.tolist() == [0, 1, 3]
    assert codes.tolist() == [0, 1, 0, 2, 1]


def test_override_free_fixed_batch_is_one_group():
    server = _server(n_samples=32, batch_max=64)
    first, codes = server._groups(_batch(server, [{}] * 40), None)  # noqa: SLF001
    assert first.tolist() == [0]
    assert codes.tolist() == [0] * 40


# ----------------------------------------------------------------------
# One take and one join over every column class
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


@st.composite
def _distributions(draw) -> DistributionBatch:
    """Distribution blocks as served: sketches as SketchRows (positive
    draws) or a list, mixtures fitted or not, widened or not."""
    clouds = draw(_clouds)
    positive = draw(st.booleans())
    arrays = [np.abs(np.asarray(c)) + 0.5 if positive else np.asarray(c) for c in clouds]
    if not draw(st.booleans()):
        n = min(a.size for a in arrays)
        arrays = np.vstack([a[:n] for a in arrays])
    config = CalibrationConfig(mixture_components=draw(st.sampled_from([0, 2])))
    mean, std, _ = ragged_summary(arrays)
    batch = CalibrationLoop(config, np.random.default_rng(1)).distributions(arrays, mean, std)
    scale = draw(st.sampled_from([1.0, 1.5]))
    return batch.widened(scale) if scale != 1.0 else batch


@st.composite
def _sketch_rows(draw) -> SketchRows:
    clouds = [np.abs(np.asarray(c)) + 0.5 for c in draw(_clouds)]
    rows = build_sketches(clouds)
    assert isinstance(rows, SketchRows)
    return rows


@st.composite
def _requests(draw) -> RequestBatch:
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    target = PrecisionTarget.parse("p95:5%")
    side = {
        "overrides": tuple({"bw_avail": 0.1 * k} if k % 2 else {} for k in range(n)),
        "precision": tuple(target if k % 3 else None for k in range(n)),
        "failover": rng.random(n) < 0.5,
    }
    return RequestBatch(
        request_id=np.arange(n),
        client=rng.integers(0, 3, n),
        clients=("ann", "bob", "cyd"),
        model=rng.integers(0, 2, n),
        models=("sor-600", "sor-1000"),
        submitted=rng.random(n),
        deadline=np.where(rng.random(n) < 0.5, np.inf, 5.0),
        **{k: v for k, v in side.items() if draw(st.booleans())},
    )


@st.composite
def _responses(draw) -> ResponseBatch:
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    status = rng.integers(0, len(STATUSES), n)
    side = {
        "messages": tuple(f"error {k}" if s == 2 else None for k, s in enumerate(status)),
        "failover": rng.random(n) < 0.5,
    }
    return ResponseBatch(
        request_id=np.arange(n),
        client=rng.integers(0, 3, n),
        clients=("ann", "bob", "cyd"),
        model=rng.integers(0, 2, n),
        models=("sor-600", "sor-1000"),
        status=status,
        reason=np.where(status == 1, rng.integers(1, len(REASONS), n), 0),
        completed=rng.random(n),
        mean=rng.random(n),
        spread=rng.random(n),
        p95=rng.random(n),
        quality=rng.integers(0, len(QUALITIES), n),
        staleness=rng.random(n),
        latency=rng.random(n),
        batch_size=rng.integers(1, 9, n),
        retry_after=rng.random(n),
        worker=rng.integers(0, 2, n),
        workers=("worker-0", "worker-1"),
        **{k: v for k, v in side.items() if draw(st.booleans())},
    )


_batches = st.one_of(_requests(), _responses(), _distributions(), _sketch_rows())


def _flag(column, k: int) -> bool:
    return column is not None and bool(column[k])


def _rows(batch) -> list:
    """Every row of ``batch`` as a caller reads it."""
    n = len(batch)
    if isinstance(batch, RequestBatch):
        return [(batch.request(k), _flag(batch.failover, k)) for k in range(n)]
    if isinstance(batch, ResponseBatch):
        return [(batch.response(k), _flag(batch.failover, k)) for k in range(n)]
    if isinstance(batch, DistributionBatch):
        infos = [batch[k] for k in range(n)]
        return [[getattr(d, f.name) for f in dataclasses.fields(d)] for d in infos]
    return list(batch)


def _reworded(part):
    """``part`` with every string table reversed and its codes remapped:
    the same rows under a different table."""
    swaps = {}
    for code, name in type(part)._TABLES.items():
        table = getattr(part, name)
        swaps[name] = table[::-1]
        swaps[code] = (len(table) - 1 - getattr(part, code)).astype(getattr(part, code).dtype)
    return part._with(**swaps)


@settings(max_examples=120, deadline=None)
@given(batch=_batches, data=st.data())
def test_take_reads_as_indexing(batch, data):
    n = len(batch)
    rows = _rows(batch)
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="picks")
    mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    lo, hi = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    cases = [
        (np.asarray(picks, dtype=np.intp), picks),
        (mask, np.flatnonzero(mask).tolist()),
        ([], []),
        (slice(lo, hi), list(range(lo, hi))),
    ]
    for index, want in cases:
        taken = batch.take(index)
        assert len(taken) == len(want)
        assert _rows(taken) == [rows[k] for k in want]
    if isinstance(batch, DistributionBatch):
        # Rows that share a group never share a mutable sketch.
        taken = batch.take(picks)
        for i, k in enumerate(picks):
            assert taken[i].sketch is not batch[k].sketch


@settings(max_examples=120, deadline=None)
@given(batch=_batches, data=st.data())
def test_concat_reads_as_one_take(batch, data):
    n = len(batch)
    index = st.lists(st.integers(0, n - 1), max_size=8)
    i, j = data.draw(index, label="i"), data.draw(index, label="j")
    whole = batch.take(np.asarray(i + j, dtype=np.intp))
    joined = type(batch).concat([batch.take(i), batch.take(j)])
    assert len(joined) == len(i) + len(j)
    assert _rows(joined) == _rows(whole)
    # A sidecar absent from one part is its fill value there, and parts
    # under different tables are re-interned into one.
    first, second = batch.take(i), batch.take(j)
    present = [s for s in type(batch)._SIDECARS if getattr(batch, s) is not None]
    if isinstance(batch, DistributionBatch):
        present.remove("sketches")
    if present:
        gone = data.draw(st.lists(st.sampled_from(present), unique=True), label="gone")
        first = first._with(**dict.fromkeys(gone))
    if data.draw(st.booleans(), label="reworded"):
        second = _reworded(second)
    joined = type(batch).concat([first, second])
    assert _rows(joined) == _rows(first) + _rows(second)


@pytest.mark.parametrize("make", [_requests, _responses, _distributions, _sketch_rows])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_constructor_rejects_a_wrong_length_column_or_sidecar(make, data):
    batch = data.draw(make())
    cls = type(batch)
    columns = {name: getattr(batch, name) for name in cls.__slots__}
    for name in (*cls._ROWS, *[s for s in cls._SIDECARS if columns[s] is not None]):
        if name == next(iter(cls._ROWS)):
            continue
        bad = dict(columns)
        value = columns[name]
        bad[name] = value.take(slice(1, None)) if isinstance(value, SketchRows) else value[1:]
        with pytest.raises(ValueError):
            cls(**bad)
    assert _rows(cls(**columns)) == _rows(batch)
