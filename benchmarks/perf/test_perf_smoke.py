"""Smoke tests for the serving benchmark: ``pytest benchmarks/perf``.

Every workload runs at a small size; the checks the benchmark relies on
(exactly-once delivery, digest stability, the output format, the
layer registry, the diff verdicts) are exercised once each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import diff  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.serving import ResponseBatch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: About 1% of each pass; chaos-cluster needs a simulated second for the
#: autoscaler's first control tick.
SMALL = {"bare-soak": 10_000, "draws-2000": 200, "full-feature": 400, "chaos-cluster": 2_000}
SEED = 5

#: The full set's one pass size: large enough for chaos-cluster's first
#: control tick, so every layer is called.
FULL_SET_REQUESTS = 2_000


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def passes() -> dict:
    """An untimed and a timed small pass per workload, one seed."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        untimed = workloads.run_pass(wl, SEED, requests=SMALL[name])
        timer = layers.LayerTimer()
        timer.install()
        try:
            timed = workloads.run_pass(wl, SEED, requests=SMALL[name], timer=timer)
        finally:
            timer.uninstall()
        out[name] = (untimed, timed)
    return out


def test_every_workload_answers_at_small_size(passes):
    # run_pass raises CheckFailed on any lost or duplicated answer.
    for name, (untimed, _) in passes.items():
        assert untimed["submitted"] == SMALL[name]
        assert untimed["ok"] > 0 and untimed["errors"] == 0, name


def test_timed_pass_serves_the_same_answers(passes):
    for name, (untimed, timed) in passes.items():
        assert timed["digest"] == untimed["digest"], name
        prof = timed["layers"]
        covered = sum(prof[f"{layer}.self_us_per_req"] for layer in layers.LAYERS)
        total = covered + prof["driver.self_us_per_req"]
        assert total == pytest.approx(timed["wall_s"] * 1e6 / timed["ok"])


def test_every_layer_is_called_in_some_workload(passes):
    for layer in layers.LAYERS:
        assert any(t["layers"][f"{layer}.calls"] for _, t in passes.values()), layer


def test_seeded_digest_is_stable_and_follows_the_seed(passes):
    wl = workloads.WORKLOADS["draws-2000"]
    n = SMALL["draws-2000"]
    digest = passes["draws-2000"][0]["digest"]
    assert workloads.run_pass(wl, SEED, requests=n)["digest"] == digest
    assert workloads.run_pass(wl, SEED + 1, requests=n)["digest"] != digest


def test_forged_delivery_fails_the_check():
    wl = workloads.WORKLOADS["draws-2000"]
    stream = workloads.make_stream(wl, SEED, 60)
    target, _ = wl.build()
    parts, *_ = workloads.drive(target, stream)
    rb = ResponseBatch.concat(parts)
    workloads.check_answers(rb, 60, blocks=False)
    with pytest.raises(workloads.CheckFailed, match="duplicates=1"):
        workloads.check_answers(ResponseBatch.concat([rb, rb.select([7])]), 60, blocks=False)
    with pytest.raises(workloads.CheckFailed, match="lost=1"):
        workloads.check_answers(rb.select(list(range(1, len(rb)))), 60, blocks=False)


def test_missing_target_fails_before_wrapping(monkeypatch):
    from repro.obs.tracer import Tracer

    original = vars(Tracer)["start_span"]
    monkeypatch.setattr(
        layers, "TARGETS", layers.TARGETS + (("obs", "repro.obs.tracer", "Tracer.gone"),)
    )
    with pytest.raises(layers.MissingTarget, match="Tracer.gone"):
        layers.LayerTimer().install()
    assert vars(Tracer)["start_span"] is original


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric_with_its_unit(trace, section):
    proc = bench("--workload", "draws-2000", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--requests", "60")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] == 60 * run.MIN_PASSES
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected


def test_benchmark_metric_table_matches_the_code():
    for m in SPEC["end_to_end"]:
        assert run.END_TO_END[m["name"]] == (m["unit"], m["better"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units())
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, wl.why) for name, wl in workloads.WORKLOADS.items()
    ]


def test_benchmark_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "draws-2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def full_set(tmp_path_factory) -> Path:
    """The real full set at a small pass size, written to a file."""
    out = tmp_path_factory.mktemp("full_set") / "set.json"
    proc = bench("--repeats", str(run.MIN_REPEATS), "--requests", str(FULL_SET_REQUESTS),
                 "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def test_full_set_file_has_the_schema_and_diffs_clean(full_set):
    doc = json.loads(full_set.read_text())
    assert set(doc) == {"bench", "git_rev", "config", "end_to_end", "layers", "gates"}
    assert doc["gates"]["passed"] is True and doc["gates"]["uncalled_layers"] == []
    fast = {w: c["columnar_fast_path"] for w, c in doc["config"]["workloads"].items()}
    assert fast == {"bare-soak": True, "draws-2000": True, "full-feature": False,
                    "chaos-cluster": False}
    for workload, metrics in doc["end_to_end"].items():
        assert {"shed_frac", "error_frac"} <= set(metrics), workload
    assert "coverage_2sigma" in doc["end_to_end"]["full-feature"]
    assert diff.main([str(full_set), str(full_set)]) == 0


def test_diff_fails_a_set_with_a_failed_workload(full_set, tmp_path, capsys):
    doc = json.loads(full_set.read_text())
    del doc["end_to_end"]["chaos-cluster"]
    doc["gates"]["workloads"]["chaos-cluster"].update(correct=False, passed=False)
    doc["gates"]["passed"] = False
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert diff.main([str(full_set), str(broken)]) == 1
    out = capsys.readouterr().out
    assert "missing" in out and "failed its gates" in out


def _synthetic(qps_scale: float = 1.0, p50_scale: float = 1.0, seed: int = 11) -> dict:
    e2e = {}
    for name, unit in {**run.UNITS, **run.GUARDS}.items():
        value = 1000.0 * {"qps_wall": qps_scale, "latency_p50_s": p50_scale}.get(name, 1.0)
        # Metrics exact per seed read the same on every pass.
        spread = 0.0 if name in diff.EXACT else 0.01
        e2e[name] = {"unit": unit, "median": value,
                     "q1": value * (1 - spread), "q3": value * (1 + spread)}
    return {
        "git_rev": "synthetic",
        "config": {"seed": seed},
        "end_to_end": {"bare-soak": e2e},
        "gates": {"workloads": {"bare-soak": {"digest": "d"}}},
    }


def test_diff_flags_a_throughput_regression(tmp_path, capsys):
    _, bound, _ = diff.load_bounds()["qps_wall"]
    old, slow = tmp_path / "old.json", tmp_path / "slow.json"
    old.write_text(json.dumps(_synthetic()))
    slow.write_text(json.dumps(_synthetic(qps_scale=1.0 - 1.5 * bound)))
    assert diff.main([str(old), str(old)]) == 0
    assert diff.main([str(old), str(slow)]) == 1
    assert "worse" in capsys.readouterr().out


def test_diff_holds_same_seed_latency_to_the_exact_bound():
    bounds = diff.load_bounds()
    old = _synthetic()
    late = _synthetic(p50_scale=1.02)  # inside BENCHMARK.json's bound
    verdicts = {m: v for _, m, *_, v in diff.compare(old, late, bounds)[0]}
    assert verdicts["latency_p50_s"] == "worse"
    other_seed = {**late, "config": {"seed": 12}}
    verdicts = {m: v for _, m, *_, v in diff.compare(old, other_seed, bounds)[0]}
    assert verdicts["latency_p50_s"] == "same" and "shed_frac" not in verdicts


def test_diff_reports_overlapping_noise_as_unresolved():
    better, bound, _ = diff.load_bounds()["qps_wall"]
    old = {"median": 100.0, "q1": 80.0, "q3": 120.0}
    new = {**old, "median": 85.0}
    assert diff.classify(old, new, better, bound)[0] == "unresolved"
