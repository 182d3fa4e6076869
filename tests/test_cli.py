from __future__ import annotations

import subprocess
import sys

import pytest

from showersim.cli import main

from conftest import scenario_path


def run_cli(*argv, capsys=None):
    return main([str(a) for a in argv])


class TestValidate:
    def test_good_scenario(self, capsys):
        assert run_cli("validate", scenario_path("fall.scn")) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("at 5 env temp=abc\nat 10 end\n")
        assert run_cli("validate", bad) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("validate", "/nonexistent/x.scn") == 2


class TestRun:
    def test_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", scenario_path("approach.scn"), "--out", out, "--seed", 3)
        assert code == 0
        for name in ("report.csv", "report.jsonl", "report.alerts"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "21 ticks" in stdout
        assert "Shower room empty" in stdout  # the t=0 console block

    def test_rate_limited_posts_are_counted(self, tmp_path, capsys):
        # half-second ticks against the run channel's 1 s post interval
        conf = tmp_path / "fast.conf"
        conf.write_text("tick_s = 0.5\n")
        code = run_cli("run", scenario_path("approach.scn"), "--config", conf, "--out", tmp_path)
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("41 ticks, 21 accepted posts, 20 rejected, 0 dropped, ")

    def test_run_with_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            scenario_path("occupancy_30s.scn"),
            "--config",
            scenario_path("occupancy_30s.conf"),
            "--out",
            out,
        )
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 ticks at 30 s cadence

    def test_run_against_external_server(self, tmp_path, sim_server, capsys):
        ch = sim_server.store.create_channel(
            "shower",
            ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"],
        )
        conf = tmp_path / "server.conf"
        conf.write_text(f"write_key = {ch.write_key}\n")
        out = tmp_path / "out"
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--config",
            conf,
            "--server",
            sim_server.url,
            "--out",
            out,
        )
        assert code == 0
        feed = sim_server.store.read_feed(ch.channel_id, ch.read_key, 100)
        assert len(feed) == 21

    def test_server_without_key_is_config_error(self, tmp_path, capsys):
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--server",
            "http://127.0.0.1:1/",
            "--out",
            tmp_path / "out",
        )
        assert code == 1
        assert "write_key" in capsys.readouterr().err

    def test_config_server_url_honored(self, tmp_path, sim_server, capsys):
        ch = sim_server.store.create_channel(
            "shower",
            ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"],
        )
        conf = tmp_path / "server.conf"
        conf.write_text(f"server_url = {sim_server.url}\nwrite_key = {ch.write_key}\n")
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--config",
            conf,
            "--out",
            tmp_path / "out",
        )
        assert code == 0
        assert len(sim_server.store.read_feed(ch.channel_id, ch.read_key, 100)) == 21

    def test_embedded_flag_overrides_config_server(self, tmp_path, capsys):
        conf = tmp_path / "server.conf"
        conf.write_text("server_url = http://127.0.0.1:1/\nwrite_key = ABCDEFGH12345678\n")
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--config",
            conf,
            "--embedded-server",
            "--out",
            tmp_path / "out",
        )
        assert code == 0
        csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert csv_lines[1].endswith(",1")  # posts landed on the embedded server

    def test_config_server_url_not_http_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "server.conf"
        conf.write_text("server_url = https://127.0.0.1:1/\nwrite_key = ABCDEFGH12345678\n")
        code = run_cli(
            "run", scenario_path("approach.scn"), "--config", conf, "--out", tmp_path / "out"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(conf) in err

    @pytest.mark.parametrize("url", ["localhost:8266", "http://127.0.0.1:port/"])
    def test_malformed_server_flag_is_config_error(self, tmp_path, capsys, url):
        conf = tmp_path / "server.conf"
        conf.write_text("write_key = ABCDEFGH12345678\n")
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--config",
            conf,
            "--server",
            url,
            "--out",
            tmp_path / "out",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --server: ")

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", scenario_path("fall.scn"), "--out", out, "--seed", 11) == 0
            outs.append(out)
        for name in ("report.csv", "report.jsonl", "report.alerts"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestAnalyze:
    def test_feed_analysis(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli(
            "run",
            scenario_path("occupancy_30s.scn"),
            "--config",
            scenario_path("occupancy_30s.conf"),
            "--out",
            out,
        )
        capsys.readouterr()
        assert run_cli("analyze", out / "report.csv") == 0
        stdout = capsys.readouterr().out
        assert stdout == (
            "Shower space occupied\nDistance= 8\nShower space empty\nDistance= 74\n"
        )

    def test_feed_missing_columns(self, tmp_path, capsys):
        feed = tmp_path / "feed.csv"
        feed.write_text("a,b\n1,2\n")
        assert run_cli("analyze", feed) == 1


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "showersim.cli", "validate", str(scenario_path("fall.scn"))],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("ok:")

    def test_cli_import_leaves_requests_unloaded(self):
        code = (
            "import showersim.cli, sys; "
            "assert 'requests' not in sys.modules; assert 'http.server' not in sys.modules"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
