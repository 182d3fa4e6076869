from __future__ import annotations

import subprocess
import sys
import time

import pytest

from showersim import agent as agent_module
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

    def test_impossible_person_action_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("at 0 person enter distance=50\nat 1 person fall\nat 2 person fall\nat 5 end\n")
        assert run_cli("validate", bad) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: line 3: person fall requires a standing person\n"
        assert captured.out == ""

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("validate", "/nonexistent/x.scn") == 2

    @pytest.mark.parametrize(
        "script", ["at nan env temp=20\nat 10 end\n", "at inf end\n", "at 0 env temp=inf\nat 10 end\n"]
    )
    def test_non_finite_number_exits_1(self, tmp_path, capsys, script):
        bad = tmp_path / "bad.scn"
        bad.write_text(script)
        assert run_cli("validate", bad) == 1
        assert "line 1" in capsys.readouterr().err


# config line -> what its error says
BAD_CONFIG_LINES = {
    "tick_s = inf": "not a finite number",
    "max_discharge_c = nan": "not a finite number",
    # both loaded, then crashed the run (exit 2); min_range once noise went below 0
    "sound_threshold = 2": "sound_threshold must lie in [0, 1]",
    "min_range = -10": "min_range must be >= 0",
    # display_every_s / tick_s overflowed to inf, and round(inf) crashed the run (exit 2)
    "tick_s = 1e-320": "display_every_s / tick_s is not a finite number",
    # detect_thud can never see 10 loud samples after a quiet one in a 10-sample window
    "thud_min_ones = 10": "thud_min_ones must be below thud_window_samples",
    "require_thud = maybe": "bad value for require_thud: not a boolean: 'maybe'",
    "tick_s 1": "line 1: expected 'key = value'",
    "preference_mode = sometimes": "preference_mode must be auto or fixed, got 'sometimes'",
}


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

    @pytest.mark.parametrize("line", list(BAD_CONFIG_LINES))
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "out"
        assert run_cli("run", scenario_path("fall.scn"), "--config", conf, "--out", out) == 1
        assert BAD_CONFIG_LINES[line] in capsys.readouterr().err
        assert not out.exists()

    def test_run_over_the_tick_cap_exits_1_at_once(self, tmp_path, capsys):
        # 20 s at 1e-12 s per tick once planned 2e13 ticks and ran until killed
        conf = tmp_path / "tiny.conf"
        conf.write_text("tick_s = 1e-12\ndisplay_every_s = 1e-12\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run_cli("run", scenario_path("fall.scn"), "--config", conf, "--out", out) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: a run to 20 s at tick_s = 1e-12 plans 20,000,000,000,001 ticks, "
            "over the cap of 10,000,000\n"
        )
        assert not out.exists()

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

    def test_refused_posts_are_counted(self, tmp_path, sim_server, capsys):
        sim_server.store.create_channel("shower", ["distance_cm"])
        conf = tmp_path / "server.conf"
        conf.write_text("write_key = WRONGKEY00000000\n")
        code = run_cli(
            "run",
            scenario_path("approach.scn"),
            "--config",
            conf,
            "--server",
            sim_server.url,
            "--out",
            tmp_path / "out",
        )
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("21 ticks, 0 accepted posts, 0 rejected, 0 dropped, 21 refused, ")

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

    def test_embedded_server_flag_is_refused(self, tmp_path, capsys):
        # An empty server_url already means the embedded server: the flag is gone.
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", scenario_path("approach.scn"), "--embedded-server", "--out", tmp_path)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --embedded-server" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_humidity_threshold_key_is_refused(self, tmp_path, capsys):
        # Humidity takes no control action and the log line it drove is gone.
        conf = tmp_path / "humidity.conf"
        conf.write_text("humidity_threshold_pct = 10\n")
        code = run_cli(
            "run", scenario_path("approach.scn"), "--config", conf, "--out", tmp_path / "out"
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {conf} line 1: unknown config key 'humidity_threshold_pct'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_a_thud_window_over_the_cap_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def no_engine(*args, **kwargs):
            raise AssertionError("a safety engine was built")

        monkeypatch.setattr(agent_module, "SafetyEngine", no_engine)
        conf = tmp_path / "window.conf"
        conf.write_text("thud_window_samples = 1000000000000\n")
        code = run_cli(
            "run", scenario_path("approach.scn"), "--config", conf, "--out", tmp_path / "out"
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {conf}: thud_window_samples must be at most 100,000\n"
        )
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "row, column",
        [
            pytest.param("1,nan", "distance_cm", id="nan"),
            pytest.param("1,inf", "distance_cm", id="inf"),
            pytest.param("1,-5", "distance_cm", id="-5"),
            pytest.param("1,abc", "distance_cm", id="abc"),
            pytest.param("1", "distance_cm", id="short-row"),
            pytest.param("nan,10", "time_s", id="time-nan"),
            pytest.param("inf,100", "time_s", id="time-inf"),
            pytest.param("abc,10", "time_s", id="time-abc"),
        ],
    )
    def test_bad_distance_is_an_error_naming_the_row(self, tmp_path, capsys, row, column):
        feed = tmp_path / "feed.csv"
        feed.write_text(f"time_s,distance_cm\n0,100\n{row}\n2,10\n")
        assert run_cli("analyze", feed) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {feed} line 3: {column} ")


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

    def test_the_device_client_needs_no_stdlib_http_client(self):
        # The agent frames its posts and their answers itself.
        code = (
            "import showersim.cli, sys; "
            "assert 'http.client' not in sys.modules; assert 'email.parser' not in sys.modules"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
