"""Shared evaluations against the per-row answers they replaced.

A served batch evaluates once per evaluation key (model, forecast
snapshot, override values, clamped precision target): rows that share a
key share one propagated draw cloud and one summary.  Before that, every
row drew its own cloud, so the serving, cluster and drive matrices and
the ``serving_seed7`` trace were re-frozen when sharing landed: every
answer value moved, every latency, shed and status stayed.

Adaptive rows came to share evaluations later.  Their charge stays per
row, but a shared group's draw count is one stopping rule's instead of
each row's own, so the simulated occupancy of a batch moves by noise,
and with it which requests beat their deadline or the queue bound.  The
two drives with adaptive batches (:data:`ADAPTIVE_CASES`) are therefore
compared over the requests answered in both runs, and checked to answer
or shed every request exactly once and to lose at most
:data:`MAX_LOST_ANSWERS` of the old answers; every other drive answers
the same requests as before.

This module re-runs those frozen drives and checks that the move is Monte
Carlo noise.  ``goldens/per_row_answers.json`` holds, per drive and
request, what the per-row server answered (taken from the goldens just
before the re-freeze): the raw mean, standard deviation and p95 (before
any recalibration widening) and the draw count.  For each shared
evaluation of the new run, its mean and p95 must lie within
:data:`MAX_Z` Monte Carlo standard errors of the mean of the old
per-row answers to the same requests.  The standard error combines the
new answer's (``sd / sqrt(n)``) and the old answers' mean's, with ``sd``
pooled over the new and old clouds; the p95's uses the normal-theory
quantile factor :data:`P95_SE_FACTOR`.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from tests import test_cluster_matrix, test_drive_matrix, test_serving_matrix
from tests.test_golden_traces import serving_trace_payload

REFERENCE = json.loads(
    (Path(__file__).parent / "goldens" / "per_row_answers.json").read_text()
)

#: Allowed distance, in Monte Carlo standard errors.
MAX_Z = 4.0

#: ``sqrt(q (1 - q)) / phi(z_q)`` at q = 0.95: a sample p95's standard
#: error in units of ``sd / sqrt(n)`` for a normal cloud.
P95_SE_FACTOR = math.sqrt(0.95 * 0.05) / (math.exp(-0.5 * 1.6448536269514722**2) / math.sqrt(2 * math.pi))


#: Drives whose batches hold adaptive rows that share an evaluation:
#: their answered set may move (see the module docstring).
ADAPTIVE_CASES = frozenset({"serving_matrix/precision_default", "serving_matrix/traced_full"})

#: Share of an adaptive drive's old answers that may become sheds (the
#: shared run lost 1 of 175 and 7 of 175).
MAX_LOST_ANSWERS = 0.05


def _responses(case: str) -> list:
    suite, _, name = case.partition("/")
    if suite == "serving_matrix":
        return test_serving_matrix.run_config(name, "batch")["responses"]
    if suite == "cluster_matrix":
        return test_cluster_matrix.run_config(name, "batch")["responses"]
    if suite == "drive_matrix":
        return test_drive_matrix.DRIVES[name]()["responses"]
    return serving_trace_payload()["responses"]


def _answers(responses) -> dict:
    """``{client/request: (mean, sd, p95, draws or None)}`` of the ok
    answers, mean, sd and p95 before recalibration widening."""
    out = {}
    for r in json.loads(json.dumps(responses)):
        if r.get("status", "ok") != "ok" or r.get("type", "PredictResponse") != "PredictResponse":
            continue
        value = r.get("value", r)
        mean, spread = value["mean"], value["spread"]
        dist = r.get("distribution")
        scale = dist["scale"] if dist else 1.0
        prec = r.get("precision")
        out[f"{r['client_id']}/{r['request_id']}"] = (
            mean,
            spread / 2.0 / scale,
            mean + (r["p95"] - mean) / scale,
            prec["draws"] if prec else None,
        )
    return out


@pytest.mark.parametrize("case", sorted(REFERENCE))
def test_shared_answers_are_per_row_answers_up_to_noise(case):
    old = REFERENCE[case]
    responses = _responses(case)
    new = _answers(responses)
    if case in ADAPTIVE_CASES:
        # Every request is answered or shed exactly once; the values are
        # compared over the requests answered in both runs.
        keys = [f"{r['client_id']}/{r['request_id']}" for r in json.loads(json.dumps(responses))]
        assert len(keys) == len(set(keys))
        assert set(old) <= set(keys)
        lost = set(old) - set(new)
        assert len(lost) <= MAX_LOST_ANSWERS * len(old), f"{case}: {len(lost)} answers lost"
        both = set(new) & set(old)
        new = {key: new[key] for key in both}
    else:
        # Sharing moves values only: the same requests are answered.
        assert sorted(new) == sorted(old)
    groups = defaultdict(list)
    for key, (mean, _, p95, _) in new.items():
        groups[(mean, p95)].append(key)
    worst = 0.0
    for (mean, p95), keys in groups.items():
        _, sd, _, draws = new[keys[0]]
        rows = np.array([old[key] for key in keys])
        n_new = draws if draws is not None else rows[0, 3]
        # One spread, pooled over every cloud of this distribution.
        sigma = math.sqrt((sd**2 + float(np.sum(rows[:, 1] ** 2))) / (len(keys) + 1))
        se = sigma * math.sqrt(1.0 / n_new + float(np.sum(1.0 / rows[:, 3])) / len(keys) ** 2)
        worst = max(
            worst,
            abs(mean - rows[:, 0].mean()) / se,
            abs(p95 - rows[:, 2].mean()) / (P95_SE_FACTOR * se),
        )
    assert worst <= MAX_Z, f"{case}: {worst:.2f} standard errors"
