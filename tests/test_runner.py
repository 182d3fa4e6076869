from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
import threading
from collections import namedtuple

import pytest

from showersim import config as config_module
from showersim import runner as runner_module
from showersim.agent import AgentConfig, TickResult
from showersim.config import ConfigError, RunConfig, default_run_config, load_config, parse_config
from showersim.controller import ControllerConfig, PreferenceMode, UserProfile
from showersim.runner import (
    CSV_COLUMNS,
    EMPTY_LABEL,
    OCCUPIED_LABEL,
    Report,
    analyze_occupancy,
    emit_report,
    run_scenario,
)
from showersim.safety import Alert, AlertKind, SafetyConfig
from showersim.scenario import ScenarioValidationError, parse_scenario
from showersim.sensors import default_ultrasonic_array
from showersim.telemetry.server import TelemetryHTTPServer

from conftest import scenario_path
from test_acceptance import GOLDEN_SCENARIOS

DEFAULTS = ControllerConfig()


def run_file(name, conf=None, seed=0):
    events = parse_scenario(scenario_path(name).read_text())
    config = load_config(scenario_path(conf)) if conf else default_run_config()
    return run_scenario(events, config, seed=seed)


class TestAnalyzeOccupancy:
    def test_occupied_then_empty(self):
        intervals = analyze_occupancy([(0, 8), (30, 8), (60, 74)], DEFAULTS)
        assert [(iv.label, iv.entry_distance) for iv in intervals] == [
            (OCCUPIED_LABEL, 8),
            (EMPTY_LABEL, 74),
        ]
        assert intervals[0].start_s == 0 and intervals[0].end_s == 60
        assert intervals[1].start_s == 60 and intervals[1].end_s is None

    def test_one_minute_visit(self):
        series = [(0, 140), (30, 140), (60, 6), (90, 6), (120, 140)]
        intervals = analyze_occupancy(series, DEFAULTS)
        assert [iv.label for iv in intervals] == [EMPTY_LABEL, OCCUPIED_LABEL, EMPTY_LABEL]
        occupied = intervals[1]
        assert occupied.end_s - occupied.start_s == 60

    def test_all_far_is_single_empty_interval(self):
        intervals = analyze_occupancy([(t, 600) for t in range(0, 100, 10)], DEFAULTS)
        assert [iv.label for iv in intervals] == [EMPTY_LABEL]

    def test_empty_series(self):
        assert analyze_occupancy([], DEFAULTS) == []

    def test_boundaries_coincide_with_classifier_transitions(self):
        # cross-module consistency: replaying the same series through the
        # classifier yields changes exactly at interval starts
        from showersim.controller import Occupancy, classify_occupancy

        series = [(float(t), d) for t, d in enumerate([80, 50, 50, 61, 59, 70, 10, 10, 90])]
        intervals = analyze_occupancy(series, DEFAULTS)
        state = Occupancy.EMPTY
        change_times = []
        prev = None
        for t, d in series:
            state = classify_occupancy(d, state, DEFAULTS)
            if prev is None or state is not prev:
                change_times.append(t)
            prev = state
        assert [iv.start_s for iv in intervals] == change_times


class TestRunScenario:
    def test_row_count_matches_clock(self):
        report = run_file("approach.scn")
        assert len(report.rows) == 21  # floor(20 / 1) + 1

    def test_approach_distance_steps_600_to_6(self):
        report = run_file("approach.scn", conf="bench_range.conf")
        distances = {row.distance_cm for row in report.rows}
        assert distances == {600, 6}
        assert report.rows[0].distance_cm == 600
        assert report.rows[-1].distance_cm == 6
        occupancy_changes = [t for t in report.transitions if t[1] == "occupancy"]
        assert occupancy_changes == [(10.0, "occupancy", "empty", "occupied")]

    def test_hairdryer_mode_switch_within_one_tick(self):
        report = run_file("hairdryer.scn")
        assert all(23 <= row.temp_c <= 25 for row in report.rows)
        cold_switches = [
            t for t in report.transitions if t[1] == "mode" and t[3] == "cold"
        ]
        assert len(cold_switches) == 1
        assert cold_switches[0][0] == 60.0  # the tick of the temperature event

    def test_fall_scenario_single_alert(self):
        report = run_file("fall.scn")
        falls = [a for a in report.alerts if a.kind is AlertKind.FALL]
        assert len(falls) == 1
        assert falls[0].timestamp == 14.0  # geometry held for 2 ticks from t=13

    def test_standing_and_vacant_scenarios_quiet(self):
        for name in ("standing.scn", "vacant.scn"):
            report = run_file(name)
            assert [a for a in report.alerts if a.kind is AlertKind.FALL] == []

    def test_help_gesture_then_okay(self):
        report = run_file("help_gesture.scn")
        kinds = [a.kind for a in report.alerts]
        assert kinds == [AlertKind.HELP_GESTURE]
        assert report.alerts[0].timestamp == 5.0

    def test_prolonged_hot_turns_water_off(self):
        report = run_file("prolonged_hot.scn", conf="short_safety.conf")
        hot_alerts = [a for a in report.alerts if a.kind is AlertKind.PROLONGED_HOT]
        assert len(hot_alerts) == 1
        assert hot_alerts[0].timestamp == 10.0
        by_time = {row.time_s: row for row in report.rows}
        assert by_time[9.0].mode == "hot"
        assert by_time[10.0].mode == "off"  # water commanded off on the alert tick
        assert by_time[11.0].mode == "off"  # and stays off while they remain inside
        assert by_time[11.0].occupancy == "occupied"
        timeouts = [a for a in report.alerts if a.kind is AlertKind.OCCUPANCY_TIMEOUT]
        assert [a.timestamp for a in timeouts] == [15.0]

    def test_event_on_tick_boundary_applies_before_that_tick(self):
        events = parse_scenario(
            "at 0 env temp=25\nat 5 person enter distance=10\nat 8 end\n"
        )
        report = run_scenario(events)
        by_time = {row.time_s: row for row in report.rows}
        assert by_time[4.0].occupancy == "empty"
        assert by_time[5.0].occupancy == "occupied"

    def test_entry_ids_match_tick_count_when_paced(self):
        report = run_file("approach.scn")
        assert [row.entry_id for row in report.rows] == list(range(1, 22))
        assert report.posts_accepted == 21
        assert report.posts_dropped == 0

    def test_console_blocks_at_display_boundaries(self):
        report = run_file("approach.scn")
        assert [t for t, _ in report.console] == [0.0]  # 20 s run, one boundary
        report30 = run_file("occupancy_30s.scn", conf="occupancy_30s.conf")
        assert [t for t, _ in report30.console] == [0.0, 30.0, 60.0, 90.0, 120.0]

    def test_default_run_starts_no_server_thread_or_temp_dir(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a default run must stay in-process")

        monkeypatch.setattr(TelemetryHTTPServer, "__init__", forbidden)
        monkeypatch.setattr(threading.Thread, "start", forbidden)
        monkeypatch.setattr(tempfile, "TemporaryDirectory", forbidden)
        threads = threading.active_count()
        report = run_file("fall.scn")
        assert [row.entry_id for row in report.rows] == list(range(1, len(report.rows) + 1))
        assert threading.active_count() == threads

    def test_tick_cap_admits_exactly_max_ticks(self, monkeypatch):
        events = parse_scenario(scenario_path("approach.scn").read_text())  # 21 ticks
        monkeypatch.setattr(runner_module, "MAX_TICKS", 21)
        assert len(run_scenario(events).rows) == 21
        monkeypatch.setattr(runner_module, "MAX_TICKS", 20)
        with pytest.raises(ScenarioValidationError, match="plans 21 ticks, over the cap of 20$"):
            run_scenario(events)

    def test_replay_is_deterministic(self):
        a = run_file("fall.scn", seed=42)
        b = run_file("fall.scn", seed=42)
        assert a.rows == b.rows
        assert a.alerts == b.alerts
        assert a.transitions == b.transitions


class TestOccupancyTrace30s:
    def test_intervals_and_labels(self):
        report = run_file("occupancy_30s.scn", conf="occupancy_30s.conf")
        assert [row.distance_cm for row in report.rows] == [8, 8, 74, 74, 74]
        assert [(iv.label, iv.entry_distance) for iv in report.intervals] == [
            (OCCUPIED_LABEL, 8),
            (EMPTY_LABEL, 74),
        ]
        assert report.intervals[0].end_s == 60.0


class TestRunIntervals:
    def test_intervals_follow_the_run_not_the_rounded_distance(self):
        # 59.6 cm is occupied to the controller but rounds to 60 in the rows,
        # which the occupancy rule alone would call empty
        events = parse_scenario(
            "at 0 env temp=20\nat 2 person enter distance=59.6\nat 6 person leave\nat 9 end\n"
        )
        report = run_scenario(events)
        occupancy = [row.occupancy for row in report.rows]
        assert occupancy == ["empty"] * 2 + ["occupied"] * 4 + ["empty"] * 4
        assert {row.distance_cm for row in report.rows[2:6]} == {60}
        assert [(iv.start_s, iv.end_s, iv.label) for iv in report.intervals] == [
            (0.0, 2.0, EMPTY_LABEL),
            (2.0, 6.0, OCCUPIED_LABEL),
            (6.0, None, EMPTY_LABEL),
        ]
        assert report.intervals[1].entry_distance == 60

    @pytest.mark.parametrize("name,conf", GOLDEN_SCENARIOS)
    def test_intervals_start_at_occupancy_transitions(self, name, conf):
        report = run_file(name, conf=conf)
        changes = [t for t, what, _, _ in report.transitions if what == "occupancy"]
        starts = [iv.start_s for iv in report.intervals]
        assert starts[0] == 0.0
        assert starts[1:] == [t for t in changes if t > 0]


class TestEmitReport:
    def test_csv_shape(self, tmp_path):
        report = run_file("approach.scn")
        emit_report(report, tmp_path / "report.csv", "csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "time_s,distance_cm,temp_c,humidity_pct,occupancy,mode,entry_id"
        assert len(lines) == 22  # header + 21 ticks
        assert lines[1] == "0,600,25,15,empty,off,1"

    def test_alerts_file(self, tmp_path):
        report = run_file("fall.scn")
        emit_report(report, tmp_path / "report.csv", "csv")
        alert_lines = (tmp_path / "report.alerts").read_text().splitlines()
        assert len(alert_lines) == 1
        time_s, kind, evidence = alert_lines[0].split(",", 2)
        assert (time_s, kind) == ("14", "fall")
        assert evidence

    def test_jsonl_mirrors_rows(self, tmp_path):
        report = run_file("approach.scn")
        emit_report(report, tmp_path / "report.jsonl", "jsonl")
        lines = (tmp_path / "report.jsonl").read_text().splitlines()
        assert len(lines) == 21
        first = json.loads(lines[0])
        assert first == {
            "time_s": 0.0,
            "distance_cm": 600,
            "temp_c": 25,
            "humidity_pct": 15,
            "occupancy": "empty",
            "mode": "off",
            "entry_id": 1,
        }

    def test_same_seed_same_bytes(self, tmp_path):
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            report = run_file("fall.scn", seed=7)
            emit_report(report, tmp_path / directory / "report.csv", "csv")
            emit_report(report, tmp_path / directory / "report.jsonl", "jsonl")
        for name in ("report.csv", "report.jsonl", "report.alerts"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_every_column_is_a_tick_record_field(self):
        assert set(CSV_COLUMNS) <= {f.name for f in dataclasses.fields(TickResult)}
        assert {type(row) for row in run_file("approach.scn").rows} == {TickResult}

    def test_plain_string_rows_write_the_same_bytes(self, tmp_path):
        # the duck type a caller's own row may use: plain-string occupancy and mode
        report = run_file("prolonged_hot.scn", conf="short_safety.conf")
        PlainRow = namedtuple("PlainRow", CSV_COLUMNS)
        plain_rows = [
            PlainRow(*(getattr(row, name) for name in CSV_COLUMNS))._replace(
                occupancy=row.occupancy.value, mode=row.mode.value
            )
            for row in report.rows
        ]
        assert {type(row.mode) for row in plain_rows} == {str}
        assert {row.mode for row in plain_rows} == {"off", "hot"}
        plain = Report(rows=plain_rows, alerts=report.alerts)
        for directory, source in (("run", report), ("plain", plain)):
            (tmp_path / directory).mkdir()
            for fmt in ("csv", "jsonl"):
                emit_report(source, tmp_path / directory / f"report.{fmt}", fmt)
        for name in ("report.csv", "report.jsonl", "report.alerts"):
            run_bytes = (tmp_path / "run" / name).read_bytes()
            assert run_bytes == (tmp_path / "plain" / name).read_bytes(), name

    def test_times_keep_their_digits(self, tmp_path):
        # `:g` kept 6 significant digits: 12345.25 printed as 12345.2 and
        # 1000001 as 1e+06. The float noise of k * tick_s still prints short.
        times = (12345.25, 12345.75, 1000001.0, 3 * 0.1)
        rows = [
            TickResult(t, 600, 20, 50, "empty", "off", k + 1, [], None)
            for k, t in enumerate(times)
        ]
        alerts = [Alert(AlertKind.FALL, t, "evidence") for t in times]
        emit_report(Report(rows=rows, alerts=alerts), tmp_path / "report.csv", "csv")
        cells = [line.split(",")[0] for line in (tmp_path / "report.csv").read_text().splitlines()]
        alert_cells = [
            line.split(",")[0] for line in (tmp_path / "report.alerts").read_text().splitlines()
        ]
        for written in (cells[1:], alert_cells):
            assert [float(cell) for cell in written[:3]] == list(times[:3])
            assert written[3] == "0.3"

    def test_unknown_format_rejected(self, tmp_path):
        report = run_file("approach.scn")
        with pytest.raises(ValueError):
            emit_report(report, tmp_path / "report.xml", "xml")


# The first 16 hex digits of the sha256 of report.csv, report.jsonl and
# report.alerts, for each golden scenario (with its own config) under three
# variants: sub-second ticks, whose times have long reprs such as
# 0.30000000000000004, and a noisy ranger with hysteresis and no thud gate.
PINNED_VARIANTS = {
    "tick-0.1": ("", 0.1, 0),  # (extra config lines, tick_s or None, seed)
    "tick-0.5": ("", 0.5, 0),
    "noisy": ("noise_sigma = 10\ndeactivation_cm = 75\nrequire_thud = false\n", None, 6),
}
PINNED_DIGESTS = {
    ("approach.scn", "tick-0.1"): "77df403497e222fe ff4bc60fbd46c36d e3b0c44298fc1c14",
    ("approach.scn", "tick-0.5"): "7df24bc8051eb74c 299c394e20e0108e e3b0c44298fc1c14",
    ("approach.scn", "noisy"): "f719861bfb1a6971 9e646d48e3af181c e3b0c44298fc1c14",
    ("fall.scn", "tick-0.1"): "2c16a782b6c06e25 a312026fcd011965 e3b0c44298fc1c14",
    ("fall.scn", "tick-0.5"): "10c07098e498e47f 650e5cdea1c56d86 bc91b81fcfc55c81",
    ("fall.scn", "noisy"): "c85efcb35dc08a2f e89173fad1ec0c72 5f43ed02f54ec5a2",
    ("hairdryer.scn", "tick-0.1"): "19a02ece933f580b 0814b222c0de8f36 e3b0c44298fc1c14",
    ("hairdryer.scn", "tick-0.5"): "189662f21e85a7aa 9d03080e5d95fc4b e3b0c44298fc1c14",
    ("hairdryer.scn", "noisy"): "380ac5333cb8798e c653669a19d1d7e0 e3b0c44298fc1c14",
    ("help_gesture.scn", "tick-0.1"): "615ee3ebd7d61387 7331ca65d07684cd 25749a8907b04979",
    ("help_gesture.scn", "tick-0.5"): "e080f556a94fb6c5 8ee5f31ad61caa32 25749a8907b04979",
    ("help_gesture.scn", "noisy"): "617e1f73fd893bfb 4f6aaf6baca82c6c 25749a8907b04979",
    ("occupancy_30s.scn", "tick-0.1"): "5ef4fb6830584e45 2f53b95087f78d0e e3b0c44298fc1c14",
    ("occupancy_30s.scn", "tick-0.5"): "037812bccd127ac1 4c1f4e45fb94fa3e e3b0c44298fc1c14",
    ("occupancy_30s.scn", "noisy"): "a6a1f7a8731abdc0 b851f587d2248509 e3b0c44298fc1c14",
    ("prolonged_hot.scn", "tick-0.1"): "cfab7065282fd265 350ce246fa1ebeb1 511673862bd748bd",
    ("prolonged_hot.scn", "tick-0.5"): "492e0e5173dbd9da 0bac6908a752f3ce 511673862bd748bd",
    ("prolonged_hot.scn", "noisy"): "4b30365ba671c990 6b71bd7ec36f12f1 511673862bd748bd",
    ("standing.scn", "tick-0.1"): "37b53190cc585578 32334437d0f922af e3b0c44298fc1c14",
    ("standing.scn", "tick-0.5"): "4d85e461f59eba5c 597e1cf638387b91 e3b0c44298fc1c14",
    ("standing.scn", "noisy"): "7d322d057ab44d4d 8634e4135717ce33 e3b0c44298fc1c14",
    ("vacant.scn", "tick-0.1"): "b3289b8abfa5c391 74690915d185e10c e3b0c44298fc1c14",
    ("vacant.scn", "tick-0.5"): "794c6bd7b75cea30 287c892682a45a61 e3b0c44298fc1c14",
    ("vacant.scn", "noisy"): "65dbba507c05f09a e3f781bab5a14e83 e3b0c44298fc1c14",
}


def _pinned_report(name, variant):
    extra, tick_s, seed = PINNED_VARIANTS[variant]
    conf = dict(GOLDEN_SCENARIOS)[name]
    config = parse_config((scenario_path(conf).read_text() if conf else "") + extra)
    if tick_s is not None:
        config.agent = dataclasses.replace(config.agent, tick_s=tick_s)
    return run_scenario(parse_scenario(scenario_path(name).read_text()), config, seed=seed)


def _report_digests(report, directory):
    directory.mkdir()
    emit_report(report, directory / "report.csv", "csv")
    emit_report(report, directory / "report.jsonl", "jsonl")
    return " ".join(
        hashlib.sha256((directory / f"report.{ext}").read_bytes()).hexdigest()[:16]
        for ext in ("csv", "jsonl", "alerts")
    )


class TestPinnedReportBytes:
    @pytest.mark.parametrize("name,variant", sorted(PINNED_DIGESTS))
    def test_report_bytes_match_the_pinned_digests(self, tmp_path, name, variant):
        report = _pinned_report(name, variant)
        assert _report_digests(report, tmp_path / "run") == PINNED_DIGESTS[name, variant]
        # a caller's own rows with plain-string occupancy and mode, as bench writes them
        PlainRow = namedtuple("PlainRow", CSV_COLUMNS)
        plain_rows = [
            PlainRow(*(getattr(row, name) for name in CSV_COLUMNS))._replace(
                occupancy=row.occupancy.value, mode=row.mode.value
            )
            for row in report.rows
        ]
        plain = Report(rows=plain_rows, alerts=report.alerts)
        assert _report_digests(plain, tmp_path / "plain") == PINNED_DIGESTS[name, variant]

    def test_every_golden_scenario_is_pinned_in_every_variant(self):
        assert set(PINNED_DIGESTS) == {
            (name, variant) for name, _ in GOLDEN_SCENARIOS for variant in PINNED_VARIANTS
        }


class TestConfig:
    def test_defaults(self):
        config = default_run_config()
        assert config.controller.activation_cm == 60.0
        assert config.agent.tick_s == 1.0
        assert config.profile is None

    def test_defaults_are_the_config_types_defaults(self):
        assert default_run_config() == RunConfig(
            ControllerConfig(), SafetyConfig(), AgentConfig(), default_ultrasonic_array(), None
        )

    def test_every_key_keeps_its_section_and_caster(self):
        number, flag = config_module._parse_float, config_module._parse_bool
        assert config_module._KEYS == {
            "activation_cm": ("controller", number),
            "deactivation_cm": ("controller", number),
            "t_hot_c": ("controller", number),
            "t_cold_c": ("controller", number),
            "max_discharge_c": ("controller", number),
            "occupancy_alert_s": ("safety", number),
            "prolonged_hot_s": ("safety", number),
            "thud_window_samples": ("safety", int),
            "thud_min_ones": ("safety", int),
            "geometry_confirm_ticks": ("safety", int),
            "require_thud": ("safety", flag),
            "tick_s": ("agent", number),
            "display_every_s": ("agent", number),
            "write_key": ("agent", str),
            "server_url": ("agent", str),
            "sound_threshold": ("agent", number),
            "queue_limit": ("agent", int),
            "mount_height_1": ("sensor", number),
            "mount_height_2": ("sensor", number),
            "mount_height_3": ("sensor", number),
            "min_range": ("sensor", number),
            "max_range": ("sensor", number),
            "noise_sigma": ("sensor", number),
            "preferred_temp": ("profile", number),
            "preference_mode": ("profile", str),
        }

    def test_parse_and_route_keys(self):
        config = parse_config(
            "activation_cm = 45.72\n"
            "deactivation_cm = 76.2\n"
            "prolonged_hot_s = 10\n"
            "tick_s = 0.5\n"
            "display_every_s = 30\n"
            "mount_height_3 = 25\n"
            "require_thud = false\n"
        )
        assert config.controller.activation_cm == 45.72
        assert config.safety.prolonged_hot_s == 10
        assert config.safety.require_thud is False
        assert config.agent.tick_s == 0.5
        assert config.sensors[2].mount_height == 25

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("warp_drive = on\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="activation_cm"):
            parse_config("activation_cm = wide\n")

    @pytest.mark.parametrize(
        "line",
        [
            "max_discharge_c = nan",  # would lift the scald ceiling
            "tick_s = inf",  # would crash the tick count
            "activation_cm = -inf",
            "noise_sigma = inf",
            "preferred_temp = nan",
        ],
    )
    def test_non_finite_float_rejected(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"line 1: bad value for {key}: not a finite number"):
            parse_config(line + "\n")

    def test_a_thud_window_over_the_cap_is_refused(self):
        # SafetyEngine allocates the window up front: 10**12 samples would be 8 TB.
        assert parse_config("thud_window_samples = 100000\n").safety.thud_window_samples == 100_000
        with pytest.raises(ConfigError, match="thud_window_samples must be at most 100,000"):
            parse_config("thud_window_samples = 1000000000000")

    def test_invariant_violations_surface(self):
        with pytest.raises(ConfigError):
            parse_config("activation_cm = 80\ndeactivation_cm = 60\n")

    def test_full_profile(self):
        config = parse_config("preferred_temp = 37\npreference_mode = fixed\n")
        assert config.profile == UserProfile(37.0, PreferenceMode.FIXED)

    def test_either_profile_key_makes_a_profile(self):
        assert parse_config("preferred_temp = 37\n").profile == UserProfile(37.0)
        assert parse_config("preference_mode = auto\n").profile == UserProfile()
        with pytest.raises(ConfigError, match="fixed preference requires preferred_temp"):
            parse_config("preference_mode = fixed\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("tick_s = 1\ntick_s = 2\n")
