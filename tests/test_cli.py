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
