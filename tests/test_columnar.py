"""Columnar serving core: view fidelity, admission parity, path equivalence.

The struct-of-arrays hot path (:mod:`repro.serving.columnar`,
``docs/serving.md``) is only allowed to exist because it is
*observationally identical* to the scalar path.  This file is that
contract:

* **Round-trip fidelity** (hypothesis) — columnising requests/responses
  and materialising the lazy views reproduces the exact protocol
  dataclasses, field for field, including ragged sidecars.
* **Admission parity** (hypothesis) — :func:`admit_batch` returns the
  same verdicts as feeding the stream through the scalar
  :class:`~repro.serving.admission.AdmissionController` one request at
  a time, and leaves the token buckets in the same state.
* **Path equivalence** — the same seeded workload submitted per-request
  vs as one ``RequestBatch`` produces bit-identical responses from a
  cluster (values, tags, sheds, worker attribution), with and without
  precision and calibration on the workers.  A single server has one
  path; ``tests/test_serving_matrix.py`` pins both of its APIs to one
  frozen golden.
* **Bugfix regressions** — delivery preserves stable completion order;
  the deadline boundary is inclusive (equal instant is served) on both
  the server path and cluster re-routing; a batch is admitted and
  served in row order whatever sidecars its rows carry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib.loop import CalibrationConfig
from repro.core.stochastic import StochasticValue
from repro.nws.service import QUALITIES
from repro.serving.admission import (
    DEFAULT_PRECISION_LADDER,
    AdmissionController,
    AdmissionPolicy,
)
from repro.serving.cluster import ClusterConfig
from repro.serving.columnar import (
    ADMIT,
    NO_DEADLINE,
    REASONS,
    RequestBatch,
    ResponseBatch,
    admit_batch,
)
from repro.serving.demo import demo_cluster, demo_server
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    ErrorResponse,
    OverloadedResponse,
    PredictRequest,
    PredictResponse,
)
from repro.serving.server import ServerConfig
from repro.structural.repeaters import PrecisionTarget

CLIENTS = ("ann", "bob", "cyd", "dee")
MODELS = ("sor-600", "sor-1000", "sor-1600")
_PRECISION = PrecisionTarget.parse("p95:2%")


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def request_lists(draw, max_n=40, ragged=True):
    n = draw(st.integers(min_value=0, max_value=max_n))
    reqs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
        rel = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0)))
        overrides = {}
        precision = None
        if ragged and draw(st.booleans()):
            overrides = draw(
                st.dictionaries(
                    st.sampled_from(["n_procs", "bw_avail"]),
                    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                    max_size=2,
                )
            )
            precision = draw(st.sampled_from([None, _PRECISION]))
        reqs.append(
            PredictRequest(
                request_id=i,
                client_id=draw(st.sampled_from(CLIENTS)),
                model=draw(st.sampled_from(MODELS)),
                submitted=t,
                deadline=None if rel is None else t + rel,
                overrides=overrides,
                precision=precision,
            )
        )
    return reqs


@st.composite
def response_lists(draw, max_n=30):
    n = draw(st.integers(min_value=0, max_value=max_n))
    out = []
    for i in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        common = dict(
            request_id=i,
            client_id=draw(st.sampled_from(CLIENTS)),
            completed=draw(st.floats(min_value=0.0, max_value=100.0)),
            worker=draw(st.sampled_from(["", "worker-0", "worker-3"])),
        )
        if kind == 0:
            out.append(
                PredictResponse(
                    **common,
                    value=StochasticValue(
                        draw(st.floats(min_value=-5.0, max_value=5.0)),
                        draw(st.floats(min_value=0.0, max_value=3.0)),
                    ),
                    p95=draw(st.floats(min_value=0.0, max_value=10.0)),
                    quality=draw(st.sampled_from(QUALITIES)),
                    staleness=draw(st.floats(min_value=0.0, max_value=50.0)),
                    latency=draw(st.floats(min_value=0.0, max_value=5.0)),
                    batch_size=draw(st.integers(min_value=1, max_value=64)),
                    model=draw(st.sampled_from(MODELS)),
                )
            )
        elif kind == 1:
            out.append(
                OverloadedResponse(
                    **common,
                    reason=draw(
                        st.sampled_from(
                            ["queue_full", "throttled", "deadline", "unavailable"]
                        )
                    ),
                    retry_after=draw(st.floats(min_value=0.0, max_value=10.0)),
                )
            )
        else:
            out.append(ErrorResponse(**common, message=draw(st.sampled_from(
                ["", "unknown model 'x'", "bad override"]))))
    return out


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(reqs=request_lists())
    def test_requests_survive_columnisation_exactly(self, reqs):
        batch = RequestBatch.from_requests(reqs)
        assert len(batch) == len(reqs)
        assert batch.to_requests() == reqs
        # Lazy views are per-row, not whole-batch.
        for i in (0, len(reqs) - 1):
            if reqs:
                assert batch.request(i) == reqs[i]

    @settings(max_examples=60, deadline=None)
    @given(reqs=request_lists())
    def test_select_and_concat_preserve_views(self, reqs):
        batch = RequestBatch.from_requests(reqs)
        evens = batch.select(np.arange(0, len(batch), 2))
        odds = batch.select(np.arange(1, len(batch), 2))
        assert evens.to_requests() == reqs[::2]
        assert odds.to_requests() == reqs[1::2]
        if len(evens) and len(odds):
            both = RequestBatch.concat([evens, odds])
            assert both.to_requests() == reqs[::2] + reqs[1::2]

    @settings(max_examples=60, deadline=None)
    @given(resps=response_lists())
    def test_responses_survive_columnisation_exactly(self, resps):
        batch = ResponseBatch.from_responses(resps)
        assert batch.to_responses() == resps
        counts = batch.status_counts()
        assert counts["ok"] == sum(1 for r in resps if r.status == "ok")
        assert counts["overloaded"] == sum(
            1 for r in resps if r.status == "overloaded"
        )
        assert counts["error"] == sum(1 for r in resps if r.status == "error")

    def test_no_deadline_encodes_as_inf(self):
        req = PredictRequest(request_id=1, client_id="ann", model="m", submitted=3.0)
        batch = RequestBatch.from_requests([req])
        assert batch.deadline[0] == NO_DEADLINE
        assert batch.request(0).deadline is None

    def test_rich_response_blocks_ride_verbatim(self):
        # precision / distribution / failover blocks don't columnise;
        # the view must hand back the original object untouched.
        rich = PredictResponse(
            request_id=9,
            client_id="ann",
            completed=4.0,
            value=StochasticValue(1.0, 0.2),
            p95=1.5,
            failover=True,
            quality="stale",
            model="sor-600",
        )
        batch = ResponseBatch.from_responses([rich])
        assert batch.response(0) is rich
        stamped = batch.with_worker("worker-7")
        assert stamped.response(0).worker == "worker-7"
        assert stamped.response(0).failover is True


# ----------------------------------------------------------------------
# Vectorised admission parity
# ----------------------------------------------------------------------
class TestAdmissionParity:
    @settings(max_examples=80, deadline=None)
    @given(
        reqs=request_lists(ragged=False),
        max_queue=st.integers(min_value=1, max_value=12),
        rate=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        burst=st.floats(min_value=1.0, max_value=4.0),
        queue_depth=st.integers(min_value=0, max_value=6),
        clock=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_verdicts_and_buckets_match_scalar_controller(
        self, reqs, max_queue, rate, burst, queue_depth, clock
    ):
        policy = AdmissionPolicy(
            max_queue=max_queue, client_rate=rate, client_burst=burst
        )
        scalar = AdmissionController(policy)
        vector = AdmissionController(policy)

        depth = queue_depth
        expected = []
        for r in reqs:
            reason = scalar.admit(r.client_id, depth, max(r.submitted, clock))
            expected.append(ADMIT if reason is None else REASONS.index(reason))
            if reason is None:
                depth += 1

        batch = RequestBatch.from_requests(reqs)
        verdicts = admit_batch(vector, batch, queue_depth, clock)
        assert verdicts.tolist() == expected

        # Not just the verdicts: the buckets left behind must be the
        # same buckets, so the *next* batch decides identically too.
        assert set(scalar._buckets) == set(vector._buckets)
        for cid, b in scalar._buckets.items():
            v = vector._buckets[cid]
            assert (b._tokens, b._anchor) == (v._tokens, v._anchor), cid

    @settings(max_examples=30, deadline=None)
    @given(
        streams=st.lists(request_lists(max_n=12, ragged=False), max_size=4),
        clock=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_parity_holds_across_consecutive_batches(self, streams, clock):
        policy = AdmissionPolicy(max_queue=8, client_rate=1.0, client_burst=2.0)
        scalar = AdmissionController(policy)
        vector = AdmissionController(policy)
        depth_s = depth_v = 0
        for reqs in streams:
            expected = []
            for r in reqs:
                reason = scalar.admit(r.client_id, depth_s, max(r.submitted, clock))
                expected.append(ADMIT if reason is None else REASONS.index(reason))
                if reason is None:
                    depth_s += 1
            batch = RequestBatch.from_requests(reqs)
            verdicts = admit_batch(vector, batch, depth_v, clock)
            depth_v += int(np.count_nonzero(verdicts == ADMIT))
            assert verdicts.tolist() == expected
        assert depth_s == depth_v


# ----------------------------------------------------------------------
# Path equivalence: the cluster's per-request vs columnar paths
# ----------------------------------------------------------------------
def _mixed_requests(models, n=240, t0=0.0):
    """A deterministic stream exercising every admission outcome."""
    reqs = []
    for i in range(n):
        t = t0 + 0.01 * i
        deadline = None
        if i % 7 == 3:
            deadline = t + 0.05  # tight: some will expire in queue
        elif i % 7 == 5:
            deadline = t + 30.0
        reqs.append(
            PredictRequest(
                request_id=i,
                client_id=CLIENTS[i % len(CLIENTS)],
                model=models[i % len(models)],
                submitted=t,
                deadline=deadline,
            )
        )
    return reqs


def _equivalence_config():
    return ServerConfig(
        n_samples=32,
        batch_max=16,
        admission=AdmissionPolicy(max_queue=48, client_rate=40.0, client_burst=4.0),
    )


class TestPathEquivalence:
    def test_cluster_columnar_answers_bit_identical(self):
        c_scalar, _, _ = demo_cluster(rng=5)
        c_columnar, _, _ = demo_cluster(rng=5)
        assert c_columnar.columnar_fast_path
        reqs = _mixed_requests(c_scalar.models, n=200)

        out_scalar = []
        for r in reqs:
            immediate = c_scalar.submit(r)
            if immediate is not None:
                out_scalar.append(immediate)
        out_scalar += list(c_scalar.step(120.0))

        batch = RequestBatch.from_requests(reqs)
        rb = c_columnar.submit_batch(batch)
        out_columnar = rb.to_responses() + c_columnar.step_batch(120.0).to_responses()

        by_id_s = {r.request_id: r for r in out_scalar}
        by_id_c = {r.request_id: r for r in out_columnar}
        assert set(by_id_s) == set(by_id_c) == {r.request_id for r in reqs}
        for rid in by_id_s:
            # Includes worker attribution: views must carry the shard
            # owner's name exactly as the scalar path stamps it.
            assert by_id_s[rid] == by_id_c[rid]

    def test_feature_cluster_columnar_answers_bit_identical(self):
        # Precision and calibration on the workers no longer demote the
        # cluster to its per-request path; both surfaces must agree,
        # worker stamps on the rich (precision/distribution) answers
        # included.
        config = ClusterConfig(
            worker=ServerConfig(
                n_samples=256,
                precision=_PRECISION,
                calibration=CalibrationConfig(truth_spread_scale=2.0, flush_every=16),
            )
        )
        c_scalar, _, _ = demo_cluster(config=config, rng=5)
        c_columnar, _, _ = demo_cluster(config=config, rng=5)
        assert c_columnar.columnar_fast_path
        reqs = _mixed_requests(c_scalar.models, n=120)

        out_scalar = [r for r in map(c_scalar.submit, reqs) if r is not None]
        out_scalar += c_scalar.step(120.0)
        rb = c_columnar.submit_batch(RequestBatch.from_requests(reqs))
        out_columnar = rb.to_responses() + c_columnar.step_batch(120.0).to_responses()

        by_id_s = {r.request_id: r for r in out_scalar}
        by_id_c = {r.request_id: r for r in out_columnar}
        assert set(by_id_s) == set(by_id_c) == {r.request_id for r in reqs}
        rich = [r for r in by_id_c.values() if r.ok]
        assert rich and all(
            r.precision is not None and r.distribution is not None and r.worker
            for r in rich
        )
        for rid in by_id_s:
            assert by_id_s[rid] == by_id_c[rid]

    def test_unknown_model_errors_match_scalar_messages(self):
        s_scalar, _, _ = demo_server(rng=5)
        s_columnar, _, _ = demo_server(rng=5)
        bad = PredictRequest(
            request_id=1, client_id="ann", model="nope", submitted=0.0
        )
        scalar_resp = s_scalar.submit(bad)
        rb = s_columnar.submit_batch(RequestBatch.from_requests([bad]))
        assert rb.response(0) == scalar_resp


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------
class TestDeliveryOrder:
    def test_heap_delivery_is_stable_completion_order(self):
        # Regression for the old sort-and-rebuild delivery path:
        # responses parked out of order must come back sorted by
        # completion, ties in park order (the stable-sort contract).
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        parked = []
        for i, rel in enumerate([5.0, 1.0, 3.0, 1.0, 2.0, 3.0, 0.5]):
            parked.append(
                PredictResponse(
                    request_id=i,
                    client_id="ann",
                    completed=t0 + rel,
                    value=StochasticValue(1.0, 0.1),
                    p95=1.0,
                    model=server.models[0],
                )
            )
        server._pending.append(ResponseBatch.from_responses(parked))
        early = server.step(t0 + 2.0)
        late = server.step(t0 + 10.0)
        delivered = early + late
        assert [r.completed - t0 for r in early] == [0.5, 1.0, 1.0, 2.0]
        expected = sorted(parked, key=lambda r: r.completed)  # stable
        assert delivered == expected

    def test_drive_delivers_in_nondecreasing_completion_order(self):
        server, _, _ = demo_server(rng=7)
        t0 = server.now
        reqs = _mixed_requests(server.models, n=120, t0=t0)
        for r in reqs:
            server.submit(r)
        seen = []
        for to in np.arange(t0 + 0.05, t0 + 10.0, 0.05):
            step = server.step(float(to))
            assert all(r.completed <= to for r in step)
            seen.extend(step)
        assert [r.completed for r in seen] == sorted(r.completed for r in seen)


class TestDeadlineBoundary:
    def test_server_serves_deadline_equal_to_service_start(self):
        # With default timing, request A (model 0) occupies the server
        # until service_time(1) = 0.005; request B (model 1) then starts
        # at exactly t = 0.005.  deadline == start must serve.
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        a = PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0)
        b = PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0, deadline=start)
        server.submit(a)
        server.submit(b)
        responses = {r.request_id: r for r in server.step(t0 + 10.0)}
        assert responses[1].status == "ok"

    def test_server_sheds_deadline_strictly_before_service_start(self):
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        a = PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0)
        b = PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0,
                           deadline=start - 1e-4)
        server.submit(a)
        server.submit(b)
        responses = {r.request_id: r for r in server.step(t0 + 10.0)}
        assert responses[1].status == "overloaded"
        assert responses[1].reason == SHED_DEADLINE

    def test_columnar_queue_uses_the_same_boundary(self):
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        reqs = [
            PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0),
            PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0, deadline=start),
            PredictRequest(request_id=2, client_id="cyd",
                           model=server.models[2], submitted=t0,
                           deadline=start - 1e-4),
        ]
        server.submit_batch(RequestBatch.from_requests(reqs))
        out = {r.request_id: r for r in server.step_batch(t0 + 10.0).to_responses()}
        assert out[1].status == "ok"
        assert out[2].status == "overloaded" and out[2].reason == SHED_DEADLINE

    def test_cluster_requeue_uses_the_same_boundary(self):
        # Satellite regression: before the sweep, in-flight migration
        # shed `deadline <= t` while worker-side shedding used
        # `deadline < t`, so the same trace shed different requests
        # depending on whether a crash happened to move it.
        cluster, _, _ = demo_cluster(rng=5)
        healthy = set(cluster.workers)

        served = PredictRequest(request_id=1, client_id="ann",
                                model=cluster.models[0], submitted=0.0,
                                deadline=50.0)
        cluster.submit(served)
        out: list = []
        key = ("ann", 1)
        assert key in cluster._inflight
        requeued, shed = cluster._requeue([key], 50.0, healthy, out)
        assert (requeued, shed) == (1, 0)
        assert not any(r.status == "overloaded" for r in out)

        dead = PredictRequest(request_id=2, client_id="bob",
                              model=cluster.models[0], submitted=0.0,
                              deadline=50.0)
        cluster.submit(dead)
        out = []
        key = ("bob", 2)
        requeued, shed = cluster._requeue([key], 50.0 + 1e-9, healthy, out)
        assert (requeued, shed) == (0, 1)
        assert out[0].status == "overloaded"
        assert out[0].reason == SHED_DEADLINE


class TestRowOrder:
    """A batch is admitted and served in row order, whatever sidecars
    its rows carry — exactly as submitting the rows one at a time."""

    def _rows(self, server, n, **first):
        t0 = server.now
        return [
            PredictRequest(
                request_id=i,
                client_id=f"c{i}",
                model=server.models[0],
                submitted=t0,
                **(first if i == 0 else {}),
            )
            for i in range(n)
        ]

    def test_override_row_is_admitted_in_its_turn(self):
        config = ServerConfig(admission=AdmissionPolicy(max_queue=2))
        s_scalar, _, _ = demo_server(config=config, rng=5)
        s_batch, _, _ = demo_server(config=config, rng=5)
        t0 = s_scalar.now
        reqs = [
            PredictRequest(request_id=i, client_id=f"c{i}",
                           model=s_scalar.models[0], submitted=t0)
            for i in range(2)
        ] + [
            PredictRequest(request_id=2, client_id="c2", model=s_scalar.models[0],
                           submitted=t0, overrides={"bw_avail": 0.5})
        ]
        scalar = [r for r in map(s_scalar.submit, reqs) if r is not None]
        batch = s_batch.submit_batch(RequestBatch.from_requests(reqs)).to_responses()
        assert [(r.request_id, r.reason) for r in scalar] == [(2, SHED_QUEUE_FULL)]
        assert batch == scalar

    def test_precision_row_ahead_of_dense_rows_is_served_first(self):
        config = ServerConfig(
            service_time_base=1.0,
            batch_max=4,
            admission=AdmissionPolicy(
                max_queue=10, precision_ladder=DEFAULT_PRECISION_LADDER
            ),
        )
        server, _, _ = demo_server(config=config, rng=5)
        target = PrecisionTarget.parse("p95:2%", min_samples=64)
        rows = self._rows(server, 9, precision=target)
        assert len(server.submit_batch(RequestBatch.from_requests(rows))) == 0
        out = server.step_batch(server.now + 60.0).to_responses()
        assert [r.request_id for r in out][:4] == [0, 1, 2, 3]
        first = out[0]
        assert first.completed == min(r.completed for r in out)
        assert first.completed < max(r.completed for r in out)
        # The ladder reads the whole queue left behind: 5 of 10 slots.
        assert first.precision.degraded and first.precision.shed_factor == 2.0
