"""The serving benchmark: four workloads, wall-QPS with behaviour guards.

Two ways to run it, from the root of a checkout:

``python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload for about ``S`` seconds.  Every pass is a fresh
    process (imports, NWS warm-up and model registration included) that
    drives the workload's seeded request stream once; passes repeat,
    one at a time, until the time is spent (at least
    :data:`MIN_PASSES`).  The last stdout line is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
    the end-to-end metrics (medians over the passes; ``setup_s`` also
    over :data:`SETUP_PROBES` processes that stop at the first
    submission), with ``--trace 1`` the per-layer profile of timed
    passes, which alternate with untimed ones so ``timing_overhead``
    compares the two.

``python benchmarks/perf/run.py [--seed 11] [--repeats 5] [--out FILE]``
    The full set: every workload, ``--repeats`` untimed passes plus one
    timed pass each, written as ``{bench, git_rev, config, end_to_end,
    layers, gates}`` with medians and quartiles.  Each untimed pass's
    ``setup_s`` is a median over it and :data:`SETUP_PROBES` set-up-only
    processes.  ``diff.py`` compares two such files.

Every latency a client sees is simulated and identical on every pass of
a seed, so code speed shows only as wall throughput (``qps_wall``); the
simulated latencies, the answered, shed and error shares and the
coverage are guards that move only when behaviour changes, and so does
the answer digest, which must be identical across all passes of a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Workload names, in report order (defined in ``workloads.py``, which
#: this parent process does not import: only passes load the library).
WORKLOAD_NAMES = ("bare-soak", "draws-2000", "full-feature", "chaos-cluster")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "qps_wall": ("req/s", "higher"),
    "latency_p50_s": ("sim_s", "lower"),
    "latency_p99_s": ("sim_s", "lower"),
    "ok_frac": ("fraction", "higher"),
    "setup_s": ("s", "lower"),
    "rss_mb": ("MiB", "lower"),
}
UNITS = {name: unit for name, (unit, _) in END_TO_END.items()}

#: Guards recorded by the full set only: exact functions of the seed,
#: judged by ``diff.py`` with absolute bounds when both sets share a
#: seed.  They are not ``BENCHMARK.json`` metrics because the shares
#: read 0 on most workloads and coverage exists only on ``full-feature``.
GUARDS = {"shed_frac": "fraction", "error_frac": "fraction", "coverage_2sigma": "fraction"}

#: Fewest passes a single-workload run makes, whatever ``--seconds`` says
#: (two ``draws-2000`` passes fill a 30 s run).
MIN_PASSES = 2

#: Set-up-only processes a ``--trace 0`` run adds, so ``setup_s`` is a
#: median over at least ``SETUP_PROBES + MIN_PASSES`` set-ups.
SETUP_PROBES = 3

#: Fewest untimed passes per workload in the full set.
MIN_REPEATS = 3

#: Wall-second cap on one pass process (a pass takes under 15 s on an
#: undisturbed 2-core host).
PASS_TIMEOUT = 90.0

#: The per-layer gate: wall time no layer covers, as a share of drive wall.
MAX_DRIVER_FRAC = 0.05

#: Single-threaded passes: one load-generating process, one core.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    from layers import LAYERS

    units: dict = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_us_per_req"] = "us/req"
    units.update(
        {
            "driver.self_us_per_req": "us/req",
            "driver.wall_frac": "fraction",
            "timing_overhead": "fraction",
            "core.stochastic.draws_per_req": "draws/req",
            "serving.server.batch_size_mean": "req",
            "serving.server.step_batch_ms_p99": "ms",
            "serving.admission.admit_frac": "fraction",
            "serving.forecasts.hit_rate": "fraction",
            "structural.engine.plan_cache_hit_rate": "fraction",
            "structural.repeaters.draws_frac": "fraction",
            "calib.recalibrations": "count",
            "calib.coverage_2sigma": "fraction",
            "serving.cluster.failovers": "count",
            "serving.elastic.scale_actions": "count",
            "obs.spans": "count",
        }
    )
    return units


# ----------------------------------------------------------------------
# One pass (child process)
# ----------------------------------------------------------------------
def one_pass(args) -> int:
    """Run a single pass in this process; print its record as JSON."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_only:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed, args.requests)
        print(json.dumps({"first_submit": time.monotonic()}))
        return 0
    timer = None
    if args.timed:
        from layers import LayerTimer

        timer = LayerTimer()
        timer.install()
    try:
        record = workloads.run_pass(
            workloads.WORKLOADS[args.workload], args.seed, requests=args.requests, timer=timer
        )
    except workloads.CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        return 3
    print(json.dumps(record))
    return 0


class PassError(Exception):
    """A pass process crashed or timed out."""


def spawn_pass(
    workload: str, seed: int, *, requests: int | None, timed: bool = False,
    setup_only: bool = False,
) -> dict:
    """Run one pass in a fresh process; its record plus ``setup_s``
    (launch to first submission).  ``setup_only`` stops the pass there."""
    cmd = [sys.executable, str(HERE / "run.py"), "--one-pass", "--workload", workload,
           "--seed", str(seed)]
    if timed:
        cmd.append("--timed")
    if setup_only:
        cmd.append("--setup-only")
    if requests is not None:
        cmd += ["--requests", str(requests)]
    env = {**os.environ, **THREAD_ENV}
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise PassError(
            f"{workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    record = json.loads(lines[-1])
    if "check_failed" not in record:
        record["setup_s"] = record["first_submit"] - launched
    return record


def probe_setups(workload: str, seed: int, requests: int | None) -> list:
    """``setup_s`` of :data:`SETUP_PROBES` set-up-only processes."""
    return [
        spawn_pass(workload, seed, requests=requests, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0]), float(values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def verdict(records: list) -> tuple[bool, list]:
    """``(correct, reasons)`` over a run's pass records."""
    reasons = [r["check_failed"] for r in records if "check_failed" in r]
    digests = {r["digest"] for r in records if "digest" in r}
    if len(digests) > 1:
        reasons.append(f"answer digest differs across passes: {sorted(digests)}")
    return not reasons, reasons


def end_to_end(records: list, units: dict = UNITS) -> dict:
    """Each metric in ``units`` that the passes record, as
    ``{"unit", "median", "q1", "q3", "values"}`` over the passes."""
    out = {}
    for name, unit in units.items():
        if name not in records[0]:
            continue
        values = [float(r[name]) for r in records]
        q1, q2, q3 = quartiles(values)
        out[name] = {"unit": unit, "median": q2, "q1": q1, "q3": q3, "values": values}
    return out


def layer_metrics(timed: list, untimed: list) -> dict:
    """Per-layer medians over timed passes, with ``timing_overhead``
    against the untimed ones."""
    qps = {side: median([r["qps_wall"] for r in records])
           for side, records in (("timed", timed), ("untimed", untimed))}
    out = {"timing_overhead": 1.0 - qps["timed"] / qps["untimed"]}
    for name in per_layer_units():
        if name not in out:
            source = "layers" if name in timed[0]["layers"] else "diagnostics"
            out[name] = median([r[source][name] for r in timed])
    return out


# ----------------------------------------------------------------------
# Single-workload mode: --seconds of passes
# ----------------------------------------------------------------------
def run_timed_budget(args) -> int:
    """Passes until ``--seconds`` is spent; prints the result line."""
    started = time.monotonic()
    setups = [] if args.trace else probe_setups(args.workload, args.seed, args.requests)
    untimed: list = []
    timed: list = []
    pass_wall = 0.0
    while True:
        want_timed = args.trace == 1 and len(timed) < len(untimed)
        t = time.monotonic()
        record = spawn_pass(args.workload, args.seed, timed=want_timed, requests=args.requests)
        pass_wall += time.monotonic() - t
        (timed if want_timed else untimed).append(record)
        done = len(untimed) + len(timed)
        # Traced runs need a pair, untraced ones a median of MIN_PASSES.
        enough = min(len(untimed), len(timed)) >= 1 if args.trace else done >= MIN_PASSES
        if enough and time.monotonic() - started + pass_wall / done > args.seconds:
            break
    records = untimed + timed
    correct, reasons = verdict(records)
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    metrics = {}
    if correct and args.trace == 1:
        values = layer_metrics(timed, untimed)
        metrics = {n: {"value": values[n], "unit": u} for n, u in per_layer_units().items()}
    elif correct:
        values = {n: row["median"] for n, row in end_to_end(records).items()}
        values["setup_s"] = median(setups + [r["setup_s"] for r in records])
        metrics = {n: {"value": values[n], "unit": u} for n, u in UNITS.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.get("submitted", 0) for r in records),
                "failed": sum(r.get("errors", 0) for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Full-set mode: every workload, fixed repeats, one file
# ----------------------------------------------------------------------
def git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_full_set(args) -> int:
    """Repeats plus one timed pass per workload; writes the schema file."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import CLIENTS, DEPLOYMENT_SEED, WINDOW, WORKLOADS

    doc = {
        "bench": "serving",
        "git_rev": git_rev(),
        "config": {
            "seed": args.seed,
            "repeats": args.repeats,
            "window_s": WINDOW,
            "clients": CLIENTS,
            "deployment_seed": DEPLOYMENT_SEED,
            "host": {
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "workloads": {},
        },
        "end_to_end": {},
        "layers": {},
        "gates": {"workloads": {}},
    }
    # Repeats go round the workloads, so a spell of a slow host lands on
    # one repeat of several workloads, not on every repeat of one.
    all_untimed: dict = {name: [] for name in WORKLOAD_NAMES}
    for _ in range(args.repeats):
        for name in WORKLOAD_NAMES:
            record = spawn_pass(name, args.seed, requests=args.requests)
            if "setup_s" in record:
                # As in a single-workload run: a median over several set-ups.
                setups = probe_setups(name, args.seed, args.requests)
                record["setup_s"] = median([record["setup_s"], *setups])
            all_untimed[name].append(record)
    calls: dict = {}
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name]
        untimed = all_untimed[name]
        timed = [spawn_pass(name, args.seed, timed=True, requests=args.requests)]
        correct, reasons = verdict(untimed + timed)
        doc["config"]["workloads"][name] = {
            "config": wl.config,
            "why": wl.why,
            "requests": args.requests or wl.requests,
            "rate": wl.rate,
            "deadline": wl.deadline,
            "columnar_fast_path": untimed[0].get("columnar_fast_path"),
        }
        gate = {"correct": correct, "reasons": reasons, "passed": False}
        doc["gates"]["workloads"][name] = gate
        if correct:
            doc["end_to_end"][name] = end_to_end(untimed, {**UNITS, **GUARDS})
            layers = doc["layers"][name] = layer_metrics(timed, untimed)
            errors = sum(r["errors"] for r in untimed + timed)
            gate.update(
                digest=untimed[0]["digest"],
                errors=errors,
                driver_wall_frac=layers["driver.wall_frac"],
                passed=errors == 0 and layers["driver.wall_frac"] <= MAX_DRIVER_FRAC,
            )
            for metric, value in layers.items():
                if metric.endswith(".calls"):
                    calls[metric] = calls.get(metric, 0.0) + value
        print_workload(name, doc)
    # Each layer must be exercised by some workload; judged on the full set.
    uncalled = sorted(m.removesuffix(".calls") for m, v in calls.items() if v == 0)
    doc["gates"]["uncalled_layers"] = uncalled
    doc["gates"]["passed"] = not uncalled and all(
        g["passed"] for g in doc["gates"]["workloads"].values()
    )
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if uncalled:
        print(f"layers no workload called: {', '.join(uncalled)}")
    print(f"gates passed: {doc['gates']['passed']}")
    return 0 if doc["gates"]["passed"] else 1


def print_workload(name: str, doc: dict) -> None:
    """One readable block per workload: metric, unit, median [q1, q3]."""
    gate = doc["gates"]["workloads"][name]
    print(f"== {name}  (columnar_fast_path="
          f"{doc['config']['workloads'][name]['columnar_fast_path']})")
    if not gate["correct"]:
        for reason in gate["reasons"]:
            print(f"  check failed: {reason}")
        return
    for metric, row in doc["end_to_end"][name].items():
        print(f"  {metric:<16} {row['median']:>14.6g} {row['unit']:<9}"
              f" [{row['q1']:.6g}, {row['q3']:.6g}]")
    layers = doc["layers"][name]
    print(f"  driver share of drive wall {gate['driver_wall_frac']:.2%}"
          f" (gate <= {MAX_DRIVER_FRAC:.0%}), timing overhead "
          f"{layers['timing_overhead']:+.1%}, digest {gate['digest'][:16]}")


# ----------------------------------------------------------------------
def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload for --seconds (default: the full set)")
    p.add_argument("--seed", type=int, default=11, help="request-stream seed")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="wall seconds of passes for one workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer profile instead")
    p.add_argument("--repeats", type=int, default=5,
                   help="untimed passes per workload in the full set")
    p.add_argument("--out", help="full-set result file")
    p.add_argument("--requests", type=int,
                   help="override the pass's request count (smoke runs)")
    p.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--timed", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        p.error(f"--repeats must be >= {MIN_REPEATS}")
    if args.requests is not None and args.requests < 1:
        p.error("--requests must be >= 1")
    if args.one_pass and args.workload is None:
        p.error("--one-pass needs --workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.one_pass:
            return one_pass(args)
        if args.workload is not None:
            return run_timed_budget(args)
        return run_full_set(args)
    except PassError as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
