"""Tests for repro.cli — the artifact-regeneration command line."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["platform2"])
        assert args.size == 1600 and args.runs == 25 and args.seed == 42


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Dedicated" in out and "12 +/- 30%" in out

    def test_table1_custom_units(self, capsys):
        assert main(["table1", "--units", "60"]) == 0
        assert "split of 60" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "add (related)" in out and "paper-literal" in out

    def test_dedicated_exit_code_reflects_claim(self, capsys):
        assert main(["dedicated", "--sizes", "1000", "1600"]) == 0
        out = capsys.readouterr().out
        assert "max error" in out

    def test_figures_selection(self, capsys):
        assert main(["figures", "--which", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figures 3/4" not in out

    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figures 1/2" in out and "Figures 3/4" in out and "Figure 5" in out

    def test_platform1_small(self, capsys):
        assert main(["platform1", "--sizes", "1000", "1400", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "capture=" in out and "preliminary stochastic load" in out

    def test_platform2_small(self, capsys):
        assert main(["platform2", "--size", "1000", "--runs", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "capture=" in out and "in_range" in out

    def test_trace_renders_ascii(self, capsys):
        assert main(["trace", "--platform", "2", "--duration", "600"]) == 0
        out = capsys.readouterr().out
        assert "platform 2 load" in out
        assert "*" in out

    def test_trace_pipeline_exports(self, capsys, tmp_path):
        import json

        json_out = tmp_path / "trace.json"
        chrome_out = tmp_path / "trace_chrome.json"
        assert main([
            "trace", "--pipeline",
            "--json-out", str(json_out),
            "--chrome-out", str(chrome_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "traced server run (seed 7)" in out
        assert "spans" in out
        doc = json.loads(json_out.read_text())
        assert doc["format"] == "repro.obs/v1"
        assert doc["summary"]["spans"] > 0
        chrome = json.loads(chrome_out.read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_figures_plot_flag(self, capsys):
        assert main(["figures", "--which", "5", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "CPU load histogram" in out

    def test_memory_command(self, capsys):
        assert main(["memory", "--sizes", "800", "1200"]) == 0
        out = capsys.readouterr().out
        assert "Memory boundary" in out and "NO" in out

    def test_calibration_command(self, capsys):
        assert main(["calibration", "--windows", "45"]) == 0
        out = capsys.readouterr().out
        assert "bursty" in out and "coverage" in out

    def test_advise_command(self, capsys):
        assert main(["advise", "--size", "800", "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "advice:" in out and "mean-balanced" in out

    def test_chaos_command(self, capsys):
        assert main(["chaos", "--size", "400", "--iterations", "5", "--seed", "23"]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out and "NWS under faults" in out
        assert "degraded stochastic prediction" in out
        assert "quality" in out

    def test_serve_closed_loop(self, capsys):
        assert main(["serve", "--requests", "60", "--clients", "4"]) == 0
        out = capsys.readouterr().out
        assert "submitted=60" in out and "errors=0" in out
        assert "server counters" in out and "responses_ok" in out

    def test_serve_open_loop_overload_sheds(self, capsys):
        assert main([
            "serve", "--rate", "3000", "--duration", "2",
            "--max-queue", "32", "--clients", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "queue_full" in out and "errors=0" in out

    def test_serve_json_snapshot(self, capsys):
        import json

        assert main(["serve", "--requests", "20", "--clients", "2", "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["metrics"]["counters"]["responses_ok"] == 20

    def test_chaos_command_zero_rates_is_healthy(self, capsys):
        assert main([
            "chaos", "--size", "400", "--iterations", "5",
            "--dropout-rate", "0", "--crash-rate", "0",
            "--outage-rate", "0", "--corruption-rate", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "dropout_windows=0" in out
        assert "fresh" in out and "stale" not in out.replace("stale_s", "")

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("diurnal-wave", "flash-crowd", "hot-shard", "rack-failure"):
            assert name in out

    def test_scenarios_custom_yaml_run(self, capsys, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny",
            "seed": 5,
            "duration": 5.0,
            "clients": 4,
            "arrival": {"kind": "constant", "rate": 40.0},
            "cluster": {"workers": 2},
            "invariants": {
                "max_p99": 6.0, "latency_slo": 2.0,
                "disturbance_end": 5.0, "recovery_within": 15.0,
            },
        }))
        assert main(["scenarios", "--scenario", str(path), "--policy", "static"]) == 0
        out = capsys.readouterr().out
        assert "tiny [static]" in out and "PASS" in out


class TestServeClusterArguments:
    """Invalid ``serve`` input — one server or a cluster — exits 2 with a
    usage message, never a traceback from deep inside or a silently
    ignored flag."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "0"], "argument --workers: must be >= 1, got 0"),
            (["--requests", "-3"], "argument --requests: must be >= 1, got -3"),
            (["--samples", "1"], "argument --samples: must be >= 2, got 1"),
            (["--rate", "0"], "argument --rate: must be > 0.0, got 0"),
            (["--cluster-rate", "nan"], "argument --cluster-rate: must be >= 0.0"),
            (["--workers", "two"], "argument --workers: expected int, got 'two'"),
            (
                ["--workers", "4", "--crash", "worker-9", "60", "61"],
                "unknown worker 'worker-9'; this cluster has worker-0 .. worker-3",
            ),
            (["--workers", "4", "--crash", "worker-1", "61", "60"], "START must be before END"),
            (
                ["--workers", "4", "--crash", "worker-1", "soon", "60"],
                "START and END must be numbers",
            ),
            (["--clients", "0"], "argument --clients: must be >= 1, got 0"),
            (["--requests", "0"], "argument --requests: must be >= 1, got 0"),
            (["--precision", "p95:abc"], "argument --precision: unparseable tolerance 'abc'"),
            (["--tick", "0"], "argument --tick: must be > 0.0, got 0"),
            (["--deadline", "-1"], "argument --deadline: must be > 0.0, got -1"),
            (
                ["--crash", "worker-0", "60", "61"],
                "argument --crash: needs a cluster (--workers >= 2)",
            ),
            (["--cluster-rate", "5"], "argument --cluster-rate: needs a cluster (--workers >= 2)"),
            (["--replication", "2"], "argument --replication: needs a cluster (--workers >= 2)"),
            (["--mixture", "2"], "argument --mixture: needs --calibrate"),
            (["--mixture", "0"], "argument --mixture: needs --calibrate"),
            (
                ["--workers", "1", "--cluster-rate", "0"],
                "argument --cluster-rate: needs a cluster (--workers >= 2)",
            ),
            (["--precision-shedding"], "argument --precision-shedding: needs --precision"),
        ],
    )
    def test_invalid_input_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro serve: error:" in err and message in err
        assert "Traceback" not in err

    def test_valid_crash_still_runs(self, capsys):
        argv = [
            "serve", "--workers", "4", "--requests", "60", "--crash", "worker-0", "60.4", "61.2",
        ]
        assert main(argv) == 0
        assert "worker_crashes_total" in capsys.readouterr().out


class TestServe:
    def test_cluster_with_a_crash_fails_over_losslessly(self, capsys):
        argv = [
            "serve", "--workers", "4", "--clients", "16", "--requests", "300",
            "--crash", "worker-0", "60.4", "61.2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cluster counters (4 workers, replication 2)" in out
        assert "delivery: lost=0 duplicates=0" in out
        assert "shard placement (primary first)" in out
        failovers = int(out.split("failover answers: ")[1].split()[0])
        assert failovers > 0

    def test_calibrated_mixture_json_snapshot(self, capsys):
        import json

        argv = ["serve", "--calibrate", "--mixture", "2", "--requests", "120", "--json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        calibration = snapshot["calibration"]
        assert calibration["scores"]["models"]
        assert snapshot["metrics"]["counters"]["responses_ok"] == 120

    def test_calibrated_summary_prints_scores_once(self, capsys):
        argv = [
            "serve", "--calibrate", "--truth-spread", "2", "--requests", "200",
            "--clients", "8", "--think-time", "0.05",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("calibration scores (nominal") == 1
        assert "truth spread x2" in out
        assert "example served distribution" in out

    def test_soak_shape_runs_open_loop_on_a_cluster(self, capsys):
        argv = [
            "serve", "--workers", "4", "--rate", "2500", "--requests", "5000",
            "--batch-max", "512", "--samples", "16", "--max-queue", "8192", "--tick", "0.25",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "submitted=5000 ok=5000 shed=0 errors=0" in out
        assert "delivery: lost=0 duplicates=0" in out
