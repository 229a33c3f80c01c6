"""Command-line interface: regenerate any paper artifact from a shell.

Examples
--------
::

    python -m repro table1
    python -m repro table2
    python -m repro dedicated --sizes 1000 1600 2000
    python -m repro platform1 --seed 11
    python -m repro platform2 --size 1600 --runs 25 --seed 42
    python -m repro figures --which 3 4
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.experiments.dedicated import run_dedicated_validation
from repro.experiments.figures import figure1_2, figure3_4, figure5
from repro.experiments.platform1 import run_platform1
from repro.experiments.platform2 import run_platform2
from repro.experiments.report import prediction_table
from repro.experiments.tables import table1_allocations, table1_rows, table2_checks
from repro.util.tables import format_table

__all__ = ["main", "build_parser"]


def _cmd_table1(args) -> int:
    rows = table1_rows()
    allocs = table1_allocations(args.units)
    print(
        format_table(
            ["setting", "machine A", "machine B", f"split of {args.units}"],
            [
                [
                    r.setting,
                    r.machine_a.describe(as_percent=True),
                    r.machine_b.describe(as_percent=True),
                    f"{allocs[r.setting][0]}/{allocs[r.setting][1]}",
                ]
                for r in rows
            ],
            title="Table 1: unit-of-work execution times",
        )
    )
    return 0


def _cmd_table2(args) -> int:
    checks = table2_checks(rng=args.seed, n_samples=args.samples)
    print(
        format_table(
            ["operation", "rule", "MC mean", "MC 2*std", "mean err"],
            [
                [c.operation, str(c.rule_result), c.mc_mean, c.mc_spread, f"{c.mean_error:.3%}"]
                for c in checks
            ],
            title="Table 2: combination rules vs Monte Carlo",
        )
    )
    return 0


def _cmd_dedicated(args) -> int:
    rows = run_dedicated_validation(sizes=tuple(args.sizes), iterations=args.iterations)
    print(
        format_table(
            ["N", "predicted_s", "actual_s", "error"],
            [[r.problem_size, r.predicted, r.actual, f"{r.error:.2%}"] for r in rows],
            title="Dedicated validation (paper: within 2%)",
        )
    )
    worst = max(r.error for r in rows)
    print(f"\nmax error: {worst:.2%}")
    return 0 if worst < 0.02 else 1


def _cmd_platform1(args) -> int:
    result = run_platform1(sizes=tuple(args.sizes), rng=args.seed)
    print(f"preliminary stochastic load: {result.stochastic_load}")
    print(prediction_table(result.points, x_label="N"))
    print(f"\n{result.quality.summary()}")
    return 0


def _cmd_platform2(args) -> int:
    result = run_platform2(args.size, n_runs=args.runs, rng=args.seed)
    print(prediction_table(result.points))
    print(f"\n{result.quality.summary()}")
    return 0


def _cmd_figures(args) -> int:
    from repro.util.ascii_plot import ascii_histogram

    which = set(args.which)
    if which & {1, 2}:
        fig = figure1_2(rng=args.seed)
        print(f"Figures 1/2: sort runtimes {fig.fit.value}, KS={fig.fit.ks_distance:.3f}, "
              f"looks_normal={fig.fit.looks_normal()}")
        if args.plot:
            print(ascii_histogram(fig.samples, bins=16, label="runtime (s)"))
    if which & {3, 4}:
        fig = figure3_4(rng=args.seed)
        print(f"Figures 3/4: bandwidth {fig.fit.value}, "
              f"2-sigma coverage={fig.coverage.actual_coverage:.1%} "
              f"(nominal {fig.coverage.nominal_coverage:.1%})")
        if args.plot:
            print(ascii_histogram(fig.samples, bins=24, label="bandwidth (Mbit/s)"))
    if 5 in which:
        fig = figure5(rng=args.seed)
        modes = ", ".join(f"{m.mean:.2f} (w={m.weight:.2f})" for m in fig.modes)
        print(f"Figure 5: detected modes {modes}")
        if args.plot:
            print(ascii_histogram(fig.samples, bins=24, label="CPU load"))
    return 0


def _cmd_trace(args) -> int:
    if args.pipeline:
        return _cmd_trace_pipeline(args)
    from repro.util.ascii_plot import ascii_series
    from repro.workload.platforms import platform1, platform2

    make = platform2 if args.platform == 2 else platform1
    plat = make(duration=args.duration, rng=args.seed)
    machine = plat.machines[args.machine]
    print(
        ascii_series(
            machine.availability.values,
            label=f"platform {args.platform} load on {machine.name} "
            f"({args.duration:.0f} s, seed {args.seed})",
        )
    )
    return 0


def _cmd_trace_pipeline(args) -> int:
    """Trace a seeded Platform 1 serving run and export span files."""
    from repro.obs import traced_cluster_run, traced_server_run, write_chrome, write_json

    run = traced_cluster_run if args.cluster else traced_server_run
    tracer, report, _ = run(rng=args.seed)
    kind = "cluster" if args.cluster else "server"
    print(
        f"traced {kind} run (seed {args.seed}): {report.ok} ok / "
        f"{report.shed} shed / {report.errors} errors"
    )
    stages = ", ".join(f"{s}={n}" for s, n in tracer.stage_counts().items())
    print(f"{len(tracer)} spans, {len(tracer.events)} events  ({stages})")
    failovers = tracer.find(name="cluster.route", failover=True)
    if failovers:
        print(f"failover hops: {len(failovers)}")
    if args.json_out:
        print(f"wrote JSON trace: {write_json(tracer, args.json_out)}")
    if args.chrome_out:
        print(f"wrote Chrome trace: {write_chrome(tracer, args.chrome_out)}")
    return 0


def _cmd_memory(args) -> int:
    from repro.experiments.memory import run_memory_limit_study

    rows = run_memory_limit_study(sizes=tuple(args.sizes))
    print(
        format_table(
            ["N", "in core", "actual_s", "naive err", "aware err"],
            [
                [r.problem_size, "yes" if r.in_core else "NO", r.actual,
                 f"{r.naive_error:.1%}", f"{r.aware_error:.1%}"]
                for r in rows
            ],
            title="Memory boundary (naive vs paging-aware model)",
        )
    )
    return 0


def _cmd_calibration(args) -> int:
    from repro.experiments.calibration import run_calibration_study

    rows = run_calibration_study(windows=tuple(args.windows), rng=args.seed)
    print(
        format_table(
            ["regime", "window_s", "coverage", "sharpness", "MAE"],
            [
                [r.regime, r.window_seconds, f"{r.report.coverage:.1%}",
                 f"{r.report.sharpness:.3f}", f"{r.report.mae:.4f}"]
                for r in rows
            ],
            title="NWS query-window calibration",
        )
    )
    return 0


def _cmd_advise(args) -> int:
    from repro.scheduling.sor_advisor import advise_decomposition
    from repro.workload.platforms import platform2

    plat = platform2(duration=args.at + 60.0, rng=args.seed)
    from repro.core.stochastic import StochasticValue

    loads = {
        i: StochasticValue.from_samples(
            m.availability.window(max(0.0, args.at - 90.0), args.at).values
        )
        for i, m in enumerate(plat.machines)
    }
    choice = advise_decomposition(
        plat.machines, plat.network, args.size, args.iterations, loads, lam=args.lam
    )
    print(
        format_table(
            ["candidate", "machines", "prediction", "objective"],
            [
                [
                    c.label,
                    ",".join(plat.machines[i].name for i in c.machine_indices),
                    str(c.prediction),
                    c.objective,
                ]
                for c in choice.candidates
            ],
            title=f"Decomposition advice for {args.size}^2 x {args.iterations} iters "
            f"(lam={args.lam})",
        )
    )
    print(f"\nadvice: {choice.best.label}")
    return 0


def _cmd_chaos(args) -> int:
    import math

    from repro.core.stochastic import StochasticValue
    from repro.faults import FaultPlan, FaultPlanConfig
    from repro.nws.service import DegradationPolicy, NetworkWeatherService
    from repro.sor.decomposition import equal_strips
    from repro.sor.distributed import simulate_sor
    from repro.structural.sor_model import SORModel, bindings_for_platform
    from repro.workload.platforms import platform1

    decision_time = 600.0
    plat = platform1(duration=1800.0, rng=args.seed)
    names = [m.name for m in plat.machines]
    resources = [f"cpu:{n}" for n in names]
    plan = FaultPlan.generate(
        FaultPlanConfig(
            sensor_dropout_rate=args.dropout_rate,
            machine_crash_rate=args.crash_rate,
            machine_restart_mean=30.0,
            link_outage_rate=args.outage_rate,
            link_outage_mean_duration=4.0,
            corruption_rate=args.corruption_rate,
        ),
        resources=resources,
        machines=names,
        links=[(a, b) for i, a in enumerate(names) for b in names[i + 1 :]],
        horizon=1800.0,
        rng=args.seed,
    )
    print(f"fault plan (seed {args.seed}): {plan}")
    print(f"fingerprint: {plan.fingerprint()[:16]}")

    nws = NetworkWeatherService(
        degradation=DegradationPolicy(prior=StochasticValue(0.5, 0.3)), faults=plan
    )
    for m in plat.machines:
        nws.register(f"cpu:{m.name}", m.availability)
    nws.advance_to(decision_time)

    loads = {}
    rows = []
    for i, (m, r) in enumerate(zip(plat.machines, resources)):
        q = nws.query_qualified(r)
        loads[i] = q.value
        h = nws.health()[r]
        rows.append(
            [m.name, q.quality, f"{q.staleness:.0f}", str(q.value),
             int(h["missed"]), int(h["corrupt"]), int(h["late"])]
        )
    print(
        format_table(
            ["machine", "quality", "stale_s", "stochastic load", "missed", "corrupt", "late"],
            rows,
            title=f"NWS under faults at t={decision_time:.0f} s",
        )
    )

    dec = equal_strips(args.size, len(plat.machines))
    model = SORModel(n_procs=len(plat.machines), iterations=args.iterations)
    pred = model.predict(bindings_for_platform(plat.machines, plat.network, dec, loads=loads))
    run = simulate_sor(
        plat.machines, plat.network, args.size, args.iterations,
        decomposition=dec, start_time=decision_time, faults=plan,
    )
    print(f"\ndegraded stochastic prediction: {pred} s")
    print(f"actual execution under faults : {run.elapsed:.1f} s")
    print(f"  message retries   : {run.message_retries}")
    print(f"  machine downtime  : {run.machine_downtime:.1f} s")
    print(f"  inside prediction?: {pred.contains(run.elapsed)}")
    ok = all(math.isfinite(x) for x in (pred.mean, pred.spread, run.elapsed))
    return 0 if ok else 1


def _cmd_predict(args) -> int:
    from repro.core.stochastic import StochasticValue
    from repro.sor.decomposition import equal_strips
    from repro.structural.montecarlo import monte_carlo_predict
    from repro.structural.repeaters import PrecisionTarget
    from repro.structural.sor_model import SORModel, bindings_for_platform
    from repro.workload.platforms import platform1

    plat = platform1(duration=args.at + 60.0, rng=args.seed)
    loads = {
        i: StochasticValue.from_samples(
            m.availability.window(max(0.0, args.at - 90.0), args.at).values
        )
        for i, m in enumerate(plat.machines)
    }
    n_procs = len(plat.machines)
    model = SORModel(n_procs=n_procs, iterations=args.iterations)
    bindings = bindings_for_platform(
        plat.machines, plat.network, equal_strips(args.size, n_procs), loads=loads
    )
    target = None if args.precision is None else PrecisionTarget.parse(
        args.precision, max_samples=args.samples
    )
    emp = monte_carlo_predict(
        model.expression(),
        bindings,
        n_samples=args.samples,
        rng=args.seed,
        precision=target,
    )
    print(
        f"SOR {args.size}^2 x {args.iterations} iters on platform 1 "
        f"at t={args.at:.0f} s (seed {args.seed})"
    )
    print(f"prediction: {emp.to_stochastic()} s   p95={float(emp.quantile(0.95)):.3f} s")
    outcome = getattr(emp, "outcome", None)
    if outcome is None:
        print(f"draws: {emp.samples.size} (fixed budget)")
    else:
        print(
            f"target: {outcome.target.describe()}  ->  "
            f"{'converged' if outcome.converged else 'hit the cap unconverged'}"
        )
        print(
            f"draws: {outcome.draws}/{outcome.budget} "
            f"(saved {outcome.saved_fraction:.0%}); achieved half-width "
            f"{outcome.half_width:.4f} vs tolerance {outcome.tolerance:.4f}"
        )
        for vote in outcome.votes:
            print(
                f"  rule {vote.rule}: {'yes' if vote.converged else 'no'} "
                f"(stat {vote.stat:.4f} vs threshold {vote.threshold:.4f})"
            )
    return 0


def _print_served_distribution(report) -> None:
    """One served distribution, as a quantile grid (calibrated runs)."""
    sample = next((r for r in report.responses if r.ok and r.distribution), None)
    if sample is None:
        return
    d = sample.distribution
    picks = []
    for w in (0.05, 0.25, 0.5, 0.75, 0.95):
        i = min(range(len(d.levels)), key=lambda k: abs(d.levels[k] - w))
        if (d.levels[i], d.quantiles[i]) not in picks:
            picks.append((d.levels[i], d.quantiles[i]))
    grid = "  ".join(f"p{lv * 100:04.1f}={q:.3f}" for lv, q in picks)
    tag = f" [recalibrated x{d.scale:.2f}]" if d.recalibrated else ""
    print(
        f"example served distribution ({sample.model}): "
        f"{d.count} draws, mean {d.mean:.3f} s, std {d.std:.3f} s{tag}\n  {grid}"
    )
    if d.modes:
        mix = ", ".join(f"{m.weight:.0%} N({m.mean:.3f}, {m.std:.3f})" for m in d.modes)
        print(f"  mixture: {mix}")


def _print_shutdown_summary(source, report) -> None:
    """End-of-run operational recap of a ``serve`` run.

    ``source`` is the server or cluster that was driven.  Prints the
    plan-cache hit rate, the draw budget actually spent, and — when the
    calibration loop ran — an example served distribution, per-model
    and per-cohort coverage/CRPS, and every recalibration event.
    """
    from repro.structural.engine import plan_cache_stats

    print("\n--- end-of-run summary ---")
    cache = plan_cache_stats()
    lookups = cache["hits"] + cache["misses"]
    if lookups:
        print(
            f"plan cache: {cache['hit_rate']:.1%} hit rate "
            f"({cache['hits']} hits / {cache['misses']} misses, "
            f"{cache['size']} cached plans)"
        )
    counters = source.metrics.snapshot()["counters"]
    used = counters.get("draws_used_total", 0)
    budget = counters.get("draws_budget_total", 0)
    if budget:
        print(
            f"draw budget: {int(used)}/{int(budget)} draws used "
            f"(saved {1.0 - used / budget:.0%})"
        )
    calib = source.calibration_summary()
    if calib is None:
        return
    _print_served_distribution(report)
    spread = calib.get("truth_spread_scale", 1.0)
    scales = calib.get("recalibration", {}).get("scales", {})
    flagged = set(calib.get("recalibration", {}).get("flagged", ()))

    def score_rows(section):
        return [
            [
                name,
                sc["n"],
                f"{sc['coverage']:.1%}",
                f"{sc['rolling_coverage']:.1%}",
                f"{sc['crps']:.4f}",
                f"{sc['rolling_crps']:.4f}",
                f"{scales[name]:.2f}" if name in scales else "-",
                "refit" if name in flagged else "",
            ]
            for name, sc in sorted(section.items())
        ]

    header = ["model", "n", "coverage", "rolling", "CRPS", "rolling", "scale", "flag"]
    title = f"calibration scores (nominal {calib['scores']['nominal']:.1%}"
    if spread != 1.0:
        title += f", truth spread x{spread:g}"
    print(format_table(header, score_rows(calib["scores"]["models"]), title=title + ")"))
    cohorts = calib["scores"].get("cohorts", {})
    if cohorts:
        print(
            format_table(
                ["cohort", *header[1:]],
                score_rows(cohorts),
                title="forecaster cohorts (answer quality at serve time)",
            )
        )
    events = calib.get("recalibration", {}).get("events", ())
    if events:
        kinds: dict[str, int] = {}
        for e in events:
            kinds[e["reason"]] = kinds.get(e["reason"], 0) + 1
        detail = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
        print(f"recalibration events: {len(events)} ({detail})")
        for e in events:
            print(
                f"  {e['model']}: {e['reason']} at observation "
                f"{e['at_observation']} (scale {e['old_scale']:.2f} -> "
                f"{e['new_scale']:.2f}, rolling coverage "
                f"{e['rolling_coverage']:.1%})"
            )
    elif "recalibration" in calib:
        print("recalibration events: none (coverage stayed inside the SLO band)")


def _serve_target(args):
    """The server (``--workers 1``) or sharded cluster ``serve`` drives."""
    from repro.calib import CalibrationConfig
    from repro.faults import FaultPlan
    from repro.serving import (
        DEFAULT_PRECISION_LADDER,
        AdmissionPolicy,
        ClusterConfig,
        ServerConfig,
        demo_cluster,
        demo_server,
    )

    calibration = None
    if args.calibrate:
        calibration = CalibrationConfig(
            truth_spread_scale=args.truth_spread,
            recalibrate=not args.no_recalibrate,
            mixture_components=args.mixture,
        )
    worker = ServerConfig(
        batch_max=args.batch_max,
        n_samples=args.samples,
        admission=AdmissionPolicy(
            max_queue=args.max_queue,
            precision_ladder=DEFAULT_PRECISION_LADDER if args.precision_shedding else (),
        ),
        precision=args.precision,
        calibration=calibration,
    )
    if args.workers == 1:
        return demo_server(config=worker, rng=args.seed)[0]
    windows: dict = {}
    for name, start, end in args.crash:
        windows.setdefault(name, []).append((float(start), float(end)))
    config = ClusterConfig(
        n_workers=args.workers,
        replication=args.replication,
        cluster_rate=args.cluster_rate,
        worker=worker,
    )
    faults = FaultPlan.crashes(windows) if windows else None
    return demo_cluster(config=config, faults=faults, rng=args.seed)[0]


def _cmd_serve(args) -> int:
    import numpy as np

    from repro.serving import ClosedLoop, LoadDriver, OpenLoop

    target = _serve_target(args)
    if args.rate is not None:
        workload = OpenLoop(rate=args.rate, clients=args.clients)
    else:
        workload = ClosedLoop(clients=args.clients, think_time=args.think_time)
    report = LoadDriver(
        target,
        target.models,
        workload,
        max_requests=args.requests,
        duration=args.duration,
        deadline=args.deadline,
        tick=args.tick,
        rng=args.seed,
    ).run()
    print(report.summary())
    print(f"delivery: lost={report.lost} duplicates={report.duplicates}")
    answers = report.responses
    counters = target.metrics.snapshot()["counters"]
    if args.workers > 1:
        failover = answers.failover
        n = 0 if failover is None else int(np.count_nonzero(failover & answers.ok_mask))
        print(f"failover answers: {n}")
    if args.precision is not None:
        used = counters.get("draws_used_total", 0)
        budget = counters.get("draws_budget_total", 0)
        saved = 1.0 - used / budget if budget else 0.0
        degraded = sum(
            1 for r in answers if r.ok and r.precision is not None and r.precision.degraded
        )
        print(
            f"adaptive sampling [{args.precision.describe()}]: "
            f"{int(used)}/{int(budget)} draws (saved {saved:.0%}), "
            f"{degraded} precision-degraded answers"
        )
    if args.json:
        import json

        print(json.dumps(target.snapshot(), indent=2))
    else:
        title = "server counters"
        if args.workers > 1:
            title = f"cluster counters ({args.workers} workers, replication {args.replication})"
        print(
            format_table(
                ["counter", "value"],
                [[k, int(v)] for k, v in sorted(counters.items())],
                title=title,
            )
        )
        if args.workers > 1:
            print(
                format_table(
                    ["shard", "owners"],
                    [[m, " > ".join(target.owners(m))] for m in target.models],
                    title="shard placement (primary first)",
                )
            )
        _print_shutdown_summary(target, report)
    clean = report.errors == 0 and report.lost == 0 and report.duplicates == 0
    return 0 if clean else 1


def _at_least(lo, kind=int, *, strict=False):
    """argparse type: a ``kind`` number no smaller than ``lo`` (greater
    than it when ``strict``)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not (value > lo if strict else value >= lo):  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {lo}, got {text}")
        return value

    return parse


def _check_serve(parser: argparse.ArgumentParser, args) -> None:
    """Cross-argument checks of ``serve``, which also parse ``--precision``
    and fill in the defaults of flags that depend on others.

    Cluster flags need ``--workers`` >= 2, calibration flags need
    ``--calibrate`` and ``--precision-shedding`` needs ``--precision``; a
    ``--crash`` must name a worker of the cluster and an outage window
    that ends after it starts.  Exits with status 2 and a usage message
    otherwise.
    """
    from repro.structural.repeaters import PrecisionTarget

    needs = (
        ("--crash", bool(args.crash), args.workers > 1, "a cluster (--workers >= 2)"),
        ("--replication", args.replication is not None, args.workers > 1,
         "a cluster (--workers >= 2)"),
        ("--cluster-rate", args.cluster_rate is not None, args.workers > 1,
         "a cluster (--workers >= 2)"),
        ("--truth-spread", args.truth_spread is not None, args.calibrate, "--calibrate"),
        ("--no-recalibrate", args.no_recalibrate, args.calibrate, "--calibrate"),
        ("--mixture", args.mixture is not None, args.calibrate, "--calibrate"),
        ("--precision-shedding", args.precision_shedding, args.precision is not None,
         "--precision"),
    )
    for flag, given, allowed, need in needs:
        if given and not allowed:
            parser.error(f"argument {flag}: needs {need}")
    names = [f"worker-{i}" for i in range(args.workers)]
    for worker, start, end in args.crash:
        if worker not in names:
            parser.error(
                f"argument --crash: unknown worker {worker!r}; this cluster has "
                f"{names[0]} .. {names[-1]}"
            )
        try:
            a, b = float(start), float(end)
        except ValueError:
            parser.error(f"argument --crash: START and END must be numbers, got {start!r} {end!r}")
        if not a < b:
            parser.error(f"argument --crash: START must be before END, got {start} {end}")
    if args.precision is not None:
        try:
            args.precision = PrecisionTarget.parse(args.precision, max_samples=args.samples)
        except ValueError as exc:
            parser.error(f"argument --precision: {exc}")
    args.replication = 2 if args.replication is None else args.replication
    args.cluster_rate = 0.0 if args.cluster_rate is None else args.cluster_rate
    args.truth_spread = 1.0 if args.truth_spread is None else args.truth_spread
    args.mixture = 0 if args.mixture is None else args.mixture


def _cmd_scenarios(args) -> int:
    from repro.serving.scenarios import POLICIES, builtin_scenarios, load_scenario, run_scenario

    if args.list:
        for name in builtin_scenarios():
            scenario = load_scenario(name)
            print(f"{name}: {scenario.description}")
        return 0

    names = [args.scenario] if args.scenario else builtin_scenarios()
    policies = [args.policy] if args.policy else list(POLICIES)
    reports = []
    for name in names:
        scenario = load_scenario(name)
        for policy in policies:
            report = run_scenario(scenario, policy)
            reports.append(report)
            print(report.summary())
    if args.json:
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from 'Performance Prediction in Production Environments'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1 + scheduling splits")
    p.add_argument("--units", type=int, default=120)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="Table 2 rules vs Monte Carlo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200_000)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("dedicated", help="dedicated-model validation")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 1400, 2000])
    p.add_argument("--iterations", type=int, default=20)
    p.set_defaults(func=_cmd_dedicated)

    p = sub.add_parser("platform1", help="Platform 1 experiment (Figures 8/9)")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 1200, 1400, 1600, 1800, 2000])
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_platform1)

    p = sub.add_parser("platform2", help="Platform 2 experiment (Figures 12-17)")
    p.add_argument("--size", type=int, default=1600)
    p.add_argument("--runs", type=int, default=25)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_platform2)

    p = sub.add_parser("figures", help="methodology figures 1-5")
    p.add_argument("--which", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plot", action="store_true", help="render ASCII histograms")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser(
        "trace",
        help="render a platform load trace (Figures 8/11), or trace the "
        "serving pipeline with --pipeline",
    )
    p.add_argument("--platform", type=int, choices=(1, 2), default=2)
    p.add_argument("--machine", type=int, default=0)
    p.add_argument("--duration", type=float, default=1800.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--pipeline",
        action="store_true",
        help="trace a seeded Platform 1 serving run end to end instead",
    )
    p.add_argument(
        "--cluster",
        action="store_true",
        help="with --pipeline: trace the failover cluster drive",
    )
    p.add_argument("--json-out", help="with --pipeline: write canonical JSON trace here")
    p.add_argument("--chrome-out", help="with --pipeline: write chrome://tracing file here")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("memory", help="in-core boundary study")
    p.add_argument("--sizes", type=int, nargs="+", default=[600, 800, 1000, 1200, 1400])
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("calibration", help="NWS query-window calibration study")
    p.add_argument("--windows", type=float, nargs="+", default=[15.0, 45.0, 90.0, 180.0, 360.0])
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=_cmd_calibration)

    p = sub.add_parser("chaos", help="Platform 1 prediction cycle under injected faults")
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=23)
    p.add_argument("--dropout-rate", type=float, default=1 / 120.0)
    p.add_argument("--crash-rate", type=float, default=1 / 900.0)
    p.add_argument("--outage-rate", type=float, default=1 / 600.0)
    p.add_argument("--corruption-rate", type=float, default=1 / 90.0)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "predict",
        help="one SOR prediction on Platform 1, optionally with an "
        "adaptive precision target",
    )
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--at", type=float, default=600.0, help="decision time in the trace")
    p.add_argument("--samples", type=int, default=2000,
                   help="fixed draw budget (the adaptive cap with --precision)")
    p.add_argument("--precision", default=None, metavar="METRIC:TOL[:RULE]",
                   help="stop sampling once METRIC converges to TOL, e.g. "
                   "'p95:2%%', 'mean:0.05', 'p99:1%%:composite'")
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "serve",
        help="drive the Platform 1 prediction server, or the sharded cluster "
        "with --workers > 1, under seeded closed- or open-loop load",
    )
    p.add_argument("--workers", type=_at_least(1), default=1,
                   help="1 serves from one server; more run a sharded cluster")
    p.add_argument("--requests", type=_at_least(1), default=500)
    p.add_argument("--clients", type=_at_least(1), default=8)
    p.add_argument("--rate", type=_at_least(0.0, float, strict=True), default=None,
                   help="open-loop arrival rate in req/s (default: closed loop)")
    p.add_argument("--think-time", type=_at_least(0.0, float), default=0.0)
    p.add_argument("--duration", type=_at_least(0.0, float, strict=True), default=None,
                   help="simulated drive window in seconds")
    p.add_argument("--deadline", type=_at_least(0.0, float, strict=True), default=None,
                   help="relative per-request deadline in simulated seconds")
    p.add_argument("--tick", type=_at_least(0.0, float, strict=True), default=0.05,
                   help="simulated seconds per drive step (one batch per step)")
    p.add_argument("--batch-max", type=_at_least(1), default=64)
    p.add_argument("--samples", type=_at_least(2), default=400)
    p.add_argument("--max-queue", type=_at_least(1), default=256)
    p.add_argument("--precision", default=None, metavar="METRIC:TOL[:RULE]",
                   help="adaptive sampling target for every request, e.g. "
                   "'p95:2%%' or 'mean:0.05:composite'")
    p.add_argument("--precision-shedding", action="store_true",
                   help="with --precision: loosen tolerances under queue "
                   "pressure (tagged on responses) before shedding requests")
    p.add_argument("--replication", type=_at_least(1), default=None,
                   help="with --workers > 1: owners per shard (default 2)")
    p.add_argument("--cluster-rate", type=_at_least(0.0, float), default=None,
                   help="with --workers > 1: global admission rate in req/s "
                   "(default 0: off)")
    p.add_argument("--crash", nargs=3, action="append", default=[],
                   metavar=("WORKER", "START", "END"),
                   help="with --workers > 1: crash WORKER from START to END "
                   "simulated seconds (repeatable)")
    p.add_argument("--calibrate", action="store_true",
                   help="serve distribution-first answers and score them "
                   "against realised outcomes (see docs/calibration.md)")
    p.add_argument("--truth-spread", type=_at_least(0.0, float, strict=True), default=None,
                   help="with --calibrate: chaos knob multiplying the spread "
                   "outcomes are drawn with (default 1; 2.0 = the world is "
                   "twice as variable as the model claims)")
    p.add_argument("--no-recalibrate", action="store_true",
                   help="with --calibrate: score only; leave served spreads untouched")
    p.add_argument("--mixture", type=_at_least(0), default=None,
                   help="with --calibrate: also fit a Gaussian mixture with "
                   "this many components onto every served distribution")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--json", action="store_true",
                   help="dump the full server or cluster snapshot")
    p.set_defaults(func=_cmd_serve, check=functools.partial(_check_serve, p))

    p = sub.add_parser(
        "scenarios", help="run chaos scenarios against the elastic cluster"
    )
    p.add_argument("--list", action="store_true", help="list built-in scenarios and exit")
    p.add_argument("--scenario", default=None,
                   help="built-in name or YAML path (default: all built-ins)")
    p.add_argument("--policy", default=None,
                   choices=["static", "reactive", "forecast"],
                   help="placement policy (default: bake off all three)")
    p.add_argument("--json", action="store_true", help="dump the scenario reports")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("advise", help="SOR decomposition advice on Platform 2")
    p.add_argument("--size", type=int, default=1600)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--at", type=float, default=600.0, help="decision time in the trace")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=17)
    p.set_defaults(func=_cmd_advise)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "check", None) is not None:
        args.check(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
