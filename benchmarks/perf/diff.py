"""Compare two full-set results of ``run.py``, metric by metric.

    python benchmarks/perf/diff.py OLD.json NEW.json

Prints one row per end-to-end metric and workload: both sides' medians
and quartiles, the change in the metric's "better" direction, and a
verdict under the metric's regression bound:

* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, on either side) exceeds the bound and the two sides' quartile
  ranges overlap, so the data cannot tell a change from noise;
* ``worse`` / ``better`` — the median moved by more than the bound;
* ``same`` — otherwise;
* ``missing`` — OLD has the workload or metric and NEW does not (the
  workload failed its checks).

The bounds are those of ``BENCHMARK.json``, which must hold across
seeds.  When both sets share a seed, the metrics that are exact
functions of the seed (:data:`EXACT`) are held to the much tighter
bounds there: their spread over one seed is 0, so any move is a change
of behaviour.

Answer-digest changes are printed per workload: a digest change means
the served answers changed, whatever the timings say.  A file holding
several sets of one commit (``{"sets": [...]}``) is compared set by
set.  Exit status 1 when any row is worse or missing, or when NEW failed
its own gates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Same-seed rules, metric -> ``(better, bound, absolute)``: relative
#: bounds on the simulated latencies, absolute ones on the shares and
#: the coverage.
EXACT = {
    "latency_p50_s": ("lower", 0.01, False),
    "latency_p99_s": ("lower", 0.01, False),
    "shed_frac": ("lower", 0.002, True),
    "error_frac": ("lower", 0.0, True),
    "coverage_2sigma": ("higher", 0.01, True),
}

FAILING = ("worse", "missing")


def load_bounds(path: Path = BENCHMARK) -> dict:
    """End-to-end metric name -> ``(better, bound, absolute)``."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["better"], m["bound"], False) for m in spec["end_to_end"]}


def classify(old: dict, new: dict, better: str, bound: float,
             absolute: bool = False) -> tuple[str, float]:
    """``(verdict, change)`` for one metric; ``change`` is the move of
    the median (relative, or in the metric's unit when ``absolute``),
    positive when ``new`` is better."""
    scale = 1.0 if absolute else abs(old["median"])
    change = (new["median"] - old["median"]) / scale
    if better == "lower":
        change = -change
    spread = max((s["q3"] - s["q1"]) / (1.0 if absolute else abs(s["median"]))
                 for s in (old, new))
    overlap = old["q1"] <= new["q3"] and new["q1"] <= old["q3"]
    if spread > bound and overlap:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def seed_of(doc: dict):
    return doc.get("config", {}).get("seed")


def rules_for(old_doc: dict, new_doc: dict, bounds: dict) -> dict:
    """The bounds a comparison uses: ``EXACT`` on top when seeds match."""
    if seed_of(old_doc) is not None and seed_of(old_doc) == seed_of(new_doc):
        return {**bounds, **EXACT}
    return bounds


def compare(old_doc: dict, new_doc: dict, bounds: dict) -> tuple[list, list]:
    """``(rows, digest_changes)``; a row is ``(workload, metric, old,
    new, change, bound, absolute, verdict)``, with ``new`` and ``change``
    ``None`` on a missing row."""
    rows, digests = [], []
    rules = rules_for(old_doc, new_doc, bounds)
    for workload, old_metrics in old_doc["end_to_end"].items():
        new_metrics = new_doc["end_to_end"].get(workload, {})
        old_gate = old_doc["gates"]["workloads"][workload]
        new_gate = new_doc["gates"]["workloads"].get(workload, {})
        if old_gate.get("digest") != new_gate.get("digest"):
            digests.append((workload, old_gate.get("digest"), new_gate.get("digest")))
        for metric, (better, bound, absolute) in rules.items():
            old = old_metrics.get(metric)
            if old is None:
                continue  # a guard this workload does not record
            new = new_metrics.get(metric)
            if new is None:
                rows.append((workload, metric, old, None, None, bound, absolute, "missing"))
                continue
            verdict, change = classify(old, new, better, bound, absolute)
            rows.append((workload, metric, old, new, change, bound, absolute, verdict))
    return rows, digests


def load_sets(path) -> list:
    """The full-set documents in ``path`` (one, or a ``sets`` list)."""
    doc = json.loads(Path(path).read_text())
    return doc["sets"] if "sets" in doc else [doc]


def _side(s: dict | None) -> str:
    return "-" if s is None else f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def _amount(x: float | None, absolute: bool) -> str:
    if x is None:
        return "-"
    return f"{x:+.4f}" if absolute else f"{x:+.2%}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    bounds = load_bounds()
    failing = False
    for old_doc in load_sets(argv[0]):
        for new_doc in load_sets(argv[1]):
            failing |= report(old_doc, new_doc, bounds)
    return 1 if failing else 0


def report(old_doc: dict, new_doc: dict, bounds: dict) -> bool:
    """Print one comparison; True when it fails."""
    rows, digests = compare(old_doc, new_doc, bounds)
    print(f"old {old_doc.get('git_rev', '?')[:12]} seed {seed_of(old_doc)}  "
          f"new {new_doc.get('git_rev', '?')[:12]} seed {seed_of(new_doc)}")
    if rules_for(old_doc, new_doc, bounds) is bounds:
        print("seeds differ: the exact same-seed guards are not applied")
    header = ("workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]",
              "change", "bound", "verdict")
    table = [header] + [
        (w, m, old["unit"], _side(old), _side(new), _amount(change, absolute),
         _amount(bound, absolute).lstrip("+"), v)
        for w, m, old, new, change, bound, absolute, v in rows
    ]
    widths = [max(len(str(r[i])) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(str(c).ljust(width) for c, width in zip(r, widths)))
    for workload, old, new in digests:
        print(f"answer digest changed on {workload}: {old} -> {new}")
    gates = new_doc.get("gates", {})
    gates_failed = gates.get("passed") is False
    if gates_failed:
        failed = [w for w, g in gates.get("workloads", {}).items() if not g.get("passed")]
        print(f"new set failed its gates: workloads {failed}, "
              f"uncalled layers {gates.get('uncalled_layers', [])}")
    return gates_failed or any(r[-1] in FAILING for r in rows)


if __name__ == "__main__":
    sys.exit(main())
