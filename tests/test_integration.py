"""Cross-module seams: agent payloads landing in the telemetry feed."""

from __future__ import annotations

from dataclasses import replace

import requests

from showersim.config import default_run_config, load_config, parse_config
from showersim.runner import emit_report, run_scenario
from showersim.scenario import parse_scenario

from conftest import scenario_path
from test_acceptance import GOLDEN_SCENARIOS


def posting_to(server, channel, config):
    """The run config with its agent posting to the server's channel."""
    agent = replace(config.agent, server_url=server.url, write_key=channel.write_key)
    return replace(config, agent=agent)


def run_with_feed(server, name, conf=None, seed=0):
    """Run a golden scenario against a simulation-time HTTP server's "shower" channel."""
    events = parse_scenario(scenario_path(name).read_text())
    config = load_config(scenario_path(conf)) if conf else default_run_config()
    field_map = config.agent.field_map
    channel = server.store.create_channel("shower", [field_map[pos] for pos in sorted(field_map)])
    report = run_scenario(events, posting_to(server, channel, config), seed=seed)
    feeds = requests.get(
        server.url + f"/channels/{channel.channel_id}/feeds.json",
        params={"api_key": channel.read_key, "results": 10_000},
        timeout=5,
    ).json()["feeds"]
    return report, feeds


class TestFeedMirrorsRun:
    def test_fall_alert_code_lands_in_field5(self, sim_server):
        report, feeds = run_with_feed(sim_server, "fall.scn")
        assert len(feeds) == len(report.rows)
        by_time = {f["created_at"]: f for f in feeds}
        assert by_time[14.0]["field5"] == 1  # fall code on the alert tick
        assert by_time[13.0]["field5"] == 0
        assert by_time[15.0]["field5"] == 0  # alert is not re-broadcast

    def test_feed_columns_track_report_rows(self, sim_server):
        report, feeds = run_with_feed(sim_server, "hairdryer.scn")
        for row, feed in zip(report.rows, feeds):
            assert feed["created_at"] == row.time_s
            assert feed["entry_id"] == row.entry_id
            assert feed["field1"] == row.distance_cm
            assert feed["field2"] == row.temp_c
            assert feed["field3"] == row.humidity_pct

    def test_help_code_is_2(self, sim_server):
        report, feeds = run_with_feed(sim_server, "help_gesture.scn")
        by_time = {f["created_at"]: f for f in feeds}
        assert by_time[5.0]["field5"] == 2

    def test_prolonged_hot_code_and_mode_drop(self, sim_server):
        report, feeds = run_with_feed(sim_server, "prolonged_hot.scn", conf="short_safety.conf")
        by_time = {f["created_at"]: f for f in feeds}
        assert by_time[9.0]["field4"] == 1  # hot
        assert by_time[10.0]["field5"] == 3  # prolonged-hot code
        assert by_time[10.0]["field4"] == 0  # water commanded off the same tick
        assert by_time[15.0]["field5"] == 4  # occupancy timeout follows


class TestRunEdges:
    def test_zero_duration_scenario_is_one_tick(self):
        report = run_scenario(parse_scenario("at 0 end\n"))
        assert len(report.rows) == 1
        assert report.rows[0].occupancy == "empty"

    def test_noisy_sensors_replay_identically_per_seed(self):
        config = parse_config("noise_sigma = 3.5\n")
        events = parse_scenario(
            "at 0 env temp=25\nat 0 person enter distance=100\nat 10 end\n"
        )
        first = run_scenario(events, config, seed=21)
        second = run_scenario(events, config, seed=21)
        other = run_scenario(events, config, seed=22)
        assert first.rows == second.rows
        assert first.rows != other.rows  # the seed reaches the noise draw

    def test_subsecond_ticks_hit_the_post_interval(self):
        # ticks faster than the channel interval: every other post rejected,
        # rows record entry 0 for the rejected ones
        config = parse_config("tick_s = 0.5\ndisplay_every_s = 30\n")
        events = parse_scenario("at 0 env temp=25\nat 3 end\n")
        report = run_scenario(events, config, seed=0)
        entries = [row.entry_id for row in report.rows]
        assert entries == [1, 0, 2, 0, 3, 0, 4]
        assert report.posts_accepted == 4


def test_default_run_matches_http_run_byte_for_byte(tmp_path, sim_server):
    """The in-process store path and the HTTP path emit identical reports."""
    for name, conf in GOLDEN_SCENARIOS:
        events = parse_scenario(scenario_path(name).read_text())
        config = load_config(scenario_path(conf)) if conf else default_run_config()
        field_map = config.agent.field_map
        channel = sim_server.store.create_channel(
            name, [field_map[pos] for pos in sorted(field_map)]
        )
        reports = {
            "direct": run_scenario(events, config, seed=5),
            "http": run_scenario(events, posting_to(sim_server, channel, config), seed=5),
        }
        emitted = {}
        for label, report in reports.items():
            out = tmp_path / name / label
            out.mkdir(parents=True)
            emit_report(report, out / "report.csv", "csv")
            emit_report(report, out / "report.jsonl", "jsonl")
            emitted[label] = [
                (out / f"report.{ext}").read_bytes() for ext in ("csv", "jsonl", "alerts")
            ]
        assert emitted["direct"] == emitted["http"], name
