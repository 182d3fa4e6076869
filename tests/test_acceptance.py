"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import functools
import itertools
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import requests

from showersim.agent import render_status
from showersim.cli import main as cli_main
from showersim.config import default_run_config, load_config
from showersim.controller import (
    ControllerConfig,
    Occupancy,
    WaterMode,
    clamp_discharge_temperature,
    select_water_mode,
)
from showersim.runner import EMPTY_LABEL, OCCUPIED_LABEL, analyze_occupancy, run_scenario
from showersim.safety import (
    AlertKind,
    SafetyConfig,
    detect_fall_geometry,
    detect_thud,
    interpret_gesture,
    GestureMeaning,
)
from showersim.scenario import parse_scenario
from showersim.sensors import GestureCode
from showersim.telemetry.store import TelemetryStore

from conftest import GOLDEN_DIR, scenario_path


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:02d} FAIL  {title}")
                raise
            print(f"[acceptance] criterion {number:02d} PASS  {title}")
            return result

        return wrapper

    return decorate


def run_file(name, conf=None, seed=0, **kwargs):
    events = parse_scenario(scenario_path(name).read_text())
    config = load_config(scenario_path(conf)) if conf else default_run_config()
    return run_scenario(events, config, seed=seed, **kwargs)


@criterion(1, "30 s occupancy trace labels occupied(8) then empty(74), < 1 s")
def test_criterion_01_occupancy_trace(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "out"
    code = cli_main(
        [
            "run",
            str(scenario_path("occupancy_30s.scn")),
            "--config",
            str(scenario_path("occupancy_30s.conf")),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    config = load_config(scenario_path("occupancy_30s.conf"))
    series = []
    for line in (out / "report.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        series.append((float(cells[0]), float(cells[1])))
    intervals = analyze_occupancy(series, config.controller)
    elapsed = time.perf_counter() - started

    assert [iv.label for iv in intervals] == ["Shower space occupied", "Shower space empty"]
    assert intervals[0].label == OCCUPIED_LABEL and intervals[0].entry_distance == 8
    assert intervals[1].label == EMPTY_LABEL and intervals[1].entry_distance == 74
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(2, "status blocks match the frozen goldens byte-for-byte")
def test_criterion_02_golden_blocks():
    empty_block = render_status(144, 25, 15.0, "200 OK", WaterMode.OFF)
    cold_block = render_status(16, 23, 15.0, "200 OK", WaterMode.COLD)
    assert empty_block.encode() == (GOLDEN_DIR / "status_block_empty.txt").read_bytes()
    assert cold_block.encode() == (GOLDEN_DIR / "status_block_cold.txt").read_bytes()
    assert empty_block.splitlines()[-1] == "Shower room empty"
    assert cold_block.splitlines()[-1] == "Turn on cold shower"


@criterion(3, "hairdryer 23->25 C flips mode to cold within one tick")
def test_criterion_03_hairdryer():
    report = run_file("hairdryer.scn")
    assert all(23 <= row.temp_c <= 25 for row in report.rows)
    cold_switches = [t for t in report.transitions if t[1] == "mode" and t[3] == "cold"]
    assert len(cold_switches) == 1
    event_time = 60.0  # the env event raising the temperature
    assert abs(cold_switches[0][0] - event_time) <= report.rows[1].time_s - report.rows[0].time_s


@criterion(4, "mode decision table partitions at 22 and 23 C")
def test_criterion_04_mode_table():
    cfg = ControllerConfig()
    assert select_water_mode(21, cfg) is WaterMode.HOT
    assert select_water_mode(23, cfg) is WaterMode.COLD
    assert select_water_mode(22.5, cfg) is WaterMode.NORMAL
    steps = [(-10.0 + 0.5 * k) for k in range(int((45.0 - -10.0) / 0.5) + 1)]
    assert steps[0] == -10.0 and steps[-1] == 45.0
    for temp in steps:
        expected = (
            WaterMode.HOT if temp < 22.0 else WaterMode.COLD if temp >= 23.0 else WaterMode.NORMAL
        )
        assert select_water_mode(temp, cfg) is expected, temp


@criterion(5, "scald clamp bounded at 50.0 and idempotent over 10^4 samples")
def test_criterion_05_scald_clamp():
    cfg = ControllerConfig()
    rng = random.Random(50_000)
    for _ in range(10_000):
        requested = rng.uniform(0.0, 100.0)
        clamped = clamp_discharge_temperature(requested, cfg)
        assert clamped <= 50.0
        assert clamp_discharge_temperature(clamped, cfg) == clamped


GOLDEN_SCENARIOS = [
    ("occupancy_30s.scn", "occupancy_30s.conf"),
    ("hairdryer.scn", None),
    ("approach.scn", "bench_range.conf"),
    ("fall.scn", None),
    ("standing.scn", None),
    ("vacant.scn", None),
    ("help_gesture.scn", None),
    ("prolonged_hot.scn", "short_safety.conf"),
]


def random_scenario_text(rng: random.Random) -> str:
    lines = []
    t = 0
    pose = "absent"
    for _ in range(rng.randint(2, 10)):
        t += rng.randint(0, 4)
        kind = rng.choice(["env", "sound", "gesture", "person", "person"])
        if kind == "env":
            lines.append(
                f"at {t} env temp={rng.randint(-5, 40)} humidity={rng.randint(0, 100)}"
            )
        elif kind == "sound":
            lines.append(f"at {t} sound intensity={rng.choice([0, 0.3, 0.7, 1])}")
        elif kind == "gesture":
            code = rng.choice([c.value for c in GestureCode])
            lines.append(f"at {t} gesture code={code}")
        else:
            if pose == "absent":
                lines.append(f"at {t} person enter distance={rng.randint(0, 600)}")
                pose = "standing"
            else:
                action = rng.choice(["move", "fall", "leave"])
                if action == "move":
                    lines.append(f"at {t} person move distance={rng.randint(0, 600)}")
                elif action == "fall" and pose == "standing":
                    lines.append(f"at {t} person fall")
                    pose = "fallen"
                else:
                    lines.append(f"at {t} person leave")
                    pose = "absent"
    t += rng.randint(1, 5)
    lines.append(f"at {t} end")
    return "\n".join(lines) + "\n"


@criterion(6, "water never flows in an empty shower (goldens + 100 fuzz runs)")
def test_criterion_06_safety_invariant():
    def assert_invariant(report):
        for row in report.rows:
            if row.mode != "off":
                assert row.occupancy == "occupied", row

    for name, conf in GOLDEN_SCENARIOS:
        assert_invariant(run_file(name, conf=conf))

    rng = random.Random(0xFA11)
    for _ in range(100):
        events = parse_scenario(random_scenario_text(rng))
        assert_invariant(run_scenario(events, default_run_config(), seed=rng.randint(0, 999)))


@criterion(7, "fall detection: golden alert timing, quiet controls, brute-force detectors")
def test_criterion_07_fall_detection():
    report = run_file("fall.scn")
    falls = [a for a in report.alerts if a.kind is AlertKind.FALL]
    assert len(falls) == 1
    # geometry starts holding at t=13 (the fall); confirm=2 ticks -> t=14
    assert falls[0].timestamp == 14.0

    for name in ("standing.scn", "vacant.scn"):
        quiet = run_file(name)
        assert [a for a in quiet.alerts if a.kind is AlertKind.FALL] == []

    occ, emp = Occupancy.OCCUPIED, Occupancy.EMPTY
    for triple in itertools.product([occ, emp], repeat=3):
        assert detect_fall_geometry(*triple) == (triple == (emp, emp, occ))

    cfg = SafetyConfig()

    def spike_oracle(window):
        seen_quiet = False
        loud_after = 0
        for sample in window:
            if sample == 0:
                seen_quiet = True
            elif seen_quiet:
                loud_after += 1
        return loud_after >= cfg.thud_min_ones

    windows = list(itertools.product((0, 1), repeat=10))
    assert len(windows) == 1024
    for window in windows:
        assert detect_thud(list(window), cfg) == spike_oracle(window), window


@criterion(8, "gesture mapping: right/wave -> help, left -> okay, others -> none")
def test_criterion_08_gesture_mapping():
    expected = {
        GestureCode.RIGHT: GestureMeaning.HELP,
        GestureCode.WAVE: GestureMeaning.HELP,
        GestureCode.LEFT: GestureMeaning.OKAY,
    }
    for code in GestureCode:
        assert interpret_gesture(code) is expected.get(code, GestureMeaning.NONE)


@criterion(9, "telemetry protocol: round-trip, gapless under 4 writers, rate limit, auth")
def test_criterion_09_telemetry_protocol(sim_server, wall_server):
    url = sim_server.url

    # round trip preserves values
    ch = sim_server.store.create_channel("rt", ["distance", "temperature", "humidity"])
    requests.post(
        url + "/update",
        data={"api_key": ch.write_key, "field1": 8, "field2": 23, "field3": 15, "created_at": 0},
        timeout=5,
    )
    feeds = requests.get(
        url + f"/channels/{ch.channel_id}/feeds.json",
        params={"api_key": ch.read_key, "results": 1},
        timeout=5,
    ).json()
    assert feeds["feeds"][0]["field1"] == 8
    assert feeds["feeds"][0]["field2"] == 23
    assert feeds["feeds"][0]["field3"] == 15

    # gapless entry ids under 4 concurrent writers, 1000 entries in < 10 s
    burst = wall_server.store.create_channel("burst", ["n"], min_post_interval_s=0.0)
    results = []
    results_lock = threading.Lock()

    def writer(offset):
        session = requests.Session()
        mine = []
        for i in range(250):
            response = session.post(
                wall_server.url + "/update",
                data={"api_key": burst.write_key, "field1": offset + i},
                timeout=10,
            )
            mine.append(int(response.text))
        with results_lock:
            results.extend(mine)

    started = time.perf_counter()
    threads = [threading.Thread(target=writer, args=(w * 250,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    assert sorted(results) == list(range(1, 1001))
    stored = wall_server.store.read_feed(burst.channel_id, burst.read_key, 2000)
    assert [e.entry_id for e in stored] == list(range(1, 1001))

    # a write 0.5 s after an accepted write returns body "0" and stores nothing
    paced = sim_server.store.create_channel("paced", ["n"])
    first = requests.post(
        url + "/update",
        data={"api_key": paced.write_key, "field1": 1, "created_at": 0.0},
        timeout=5,
    )
    assert first.text == "1"
    rejected = requests.post(
        url + "/update",
        data={"api_key": paced.write_key, "field1": 2, "created_at": 0.5},
        timeout=5,
    )
    assert rejected.status_code == 200 and rejected.text == "0"
    assert len(sim_server.store.read_feed(paced.channel_id, paced.read_key, 10)) == 1

    # 9-field channel creation rejected
    nine = requests.post(
        url + "/channels",
        data=[("name", "big")] + [("field", f"f{i}") for i in range(9)],
        timeout=5,
    )
    assert nine.status_code == 400

    # wrong read key on a private channel -> 401
    denied = requests.get(
        url + f"/channels/{ch.channel_id}/feeds.json",
        params={"api_key": "WRONGKEY00000000"},
        timeout=5,
    )
    assert denied.status_code == 401


def _start_server(data_dir: Path) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "showersim.telemetry.server",
            "--port",
            "0",
            "--data-dir",
            str(data_dir),
            "--sim-time",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("listening on "), line
    return proc, line.removeprefix("listening on ")


@criterion(10, "durability: SIGKILL + restart keeps all 100 entries; torn log keeps 99")
def test_criterion_10_durability(tmp_path):
    data_dir = tmp_path / "server-data"

    proc, url = _start_server(data_dir)
    try:
        created = requests.post(
            url + "/channels", data=[("name", "shower"), ("field", "distance")], timeout=5
        ).json()
        session = requests.Session()
        for i in range(100):
            response = session.post(
                url + "/update",
                data={"api_key": created["write_key"], "field1": i, "created_at": i},
                timeout=5,
            )
            assert response.text == str(i + 1)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()

    proc, url = _start_server(data_dir)
    try:
        feeds = requests.get(
            url + f"/channels/{created['channel_id']}/feeds.json",
            params={"api_key": created["read_key"], "results": 100},
            timeout=5,
        ).json()
        assert [f["entry_id"] for f in feeds["feeds"]] == list(range(1, 101))
        assert [f["field1"] for f in feeds["feeds"]] == list(range(100))
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()

    # hand-torn final record: the first 99 survive
    torn_dir = tmp_path / "torn-data"
    store = TelemetryStore(torn_dir)
    channel = store.create_channel("shower", ["distance"])
    for i in range(100):
        store.write_update(channel.write_key, {1: i}, float(i))
    store.close()
    log = torn_dir / f"channel-{channel.channel_id}.log"
    log.write_bytes(log.read_bytes()[:-9])

    recovered = TelemetryStore(torn_dir)
    feed = recovered.read_feed(channel.channel_id, channel.read_key, 200)
    assert [e.entry_id for e in feed] == list(range(1, 100))
    assert [e.values[1] for e in feed] == list(range(99))
    recovered.close()


@criterion(11, "two identical runs produce byte-identical CSV, alerts and JSONL")
def test_criterion_11_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "run",
                str(scenario_path("fall.scn")),
                "--out",
                str(out),
                "--seed",
                "1234",
            ]
        )
        assert code == 0
        outputs.append(out)
    for artifact in ("report.csv", "report.alerts", "report.jsonl"):
        first = (outputs[0] / artifact).read_bytes()
        second = (outputs[1] / artifact).read_bytes()
        assert first == second, artifact
    assert (outputs[0] / "report.alerts").read_text().count("\n") == 1  # the fall alert
