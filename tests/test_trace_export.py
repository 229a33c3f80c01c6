"""The whole trace export of three seeded traced runs, pinned by hash.

``tests/goldens/trace_export_*.json`` hold the sha256 of two
serialisations of each run's trace:

* ``dict`` — ``json.dumps(trace_to_dict(t), sort_keys=True)``, the
  canonical document: every span, attribute and event;
* ``chrome`` — ``json.dumps(trace_to_chrome(t))`` *unsorted*, so the
  order in which each span's attributes were set is pinned too (the
  Chrome export writes them in that order).

The runs: the closed-loop server drive, the cluster drive with a
failover, and an open-loop overload of an adaptive, calibrated server
(ragged early stopping, ``mc.converged`` spans, queue-full and deadline
sheds).  Any change to how spans are recorded must leave these bytes
alone.
"""

import hashlib
import json

import pytest

from repro.obs import (
    trace_to_chrome,
    trace_to_dict,
    traced_adaptive_run,
    traced_cluster_run,
    traced_server_run,
)

RUNS = {
    "server": traced_server_run,
    "cluster": traced_cluster_run,
    "adaptive": traced_adaptive_run,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def export_hashes(tracer) -> dict:
    """sha256 of the sorted canonical export and the unsorted Chrome one."""
    return {
        "dict": _sha256(json.dumps(trace_to_dict(tracer), sort_keys=True)),
        "chrome": _sha256(json.dumps(trace_to_chrome(tracer))),
        "spans": len(tracer),
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_export_is_frozen(golden, run):
    tracer, _, _ = RUNS[run](rng=7)
    golden(f"trace_export_{run}_seed7", export_hashes(tracer))


def test_adaptive_run_covers_ragged_batches_and_both_sheds():
    tracer, report, _ = traced_adaptive_run(rng=7)
    assert report.shed_reasons.get("queue_full", 0) > 0
    assert report.shed_reasons.get("deadline", 0) > 0
    draws = {sp.attrs["draws"] for sp in tracer.find(name="mc.converged")}
    assert len(draws) > 1
    assert tracer.find(name="serving.reject")
