"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import scenario_gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from showersim.scenario import parse_scenario  # noqa: E402


def test_generator_is_deterministic_per_seed():
    assert scenario_gen.generate(7, 1000) == scenario_gen.generate(7, 1000)
    assert scenario_gen.generate(7, 1000) != scenario_gen.generate(8, 1000)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_generator_covers_every_event_kind(seed):
    text = scenario_gen.generate(seed, workloads.SCENARIO_TICKS)
    events = parse_scenario(text)
    assert events[-1].at == workloads.SCENARIO_TICKS - 1
    temps = [dict(e.params)["temp"] for e in events if e.kind == "env" and "temp" in dict(e.params)]
    assert min(temps) < 22 and max(temps) >= 23  # hot-water and cold-water days
    gestures = {dict(e.params)["code"] for e in events if e.kind == "gesture"}
    assert "left" in gestures and gestures & {"right", "wave"}
    actions = [e.action for e in events if e.kind == "person"]
    assert "fall" in actions
    fall_at = next(e.at for e in events if e.action == "fall")
    assert any(e.kind == "sound" and fall_at - 3 <= e.at < fall_at for e in events)  # thud first
    moves = [dict(e.params)["distance"] for e in events if e.action == "move"]
    assert max(moves) > scenario_gen.ACTIVATION_CM  # a step-out


@pytest.fixture
def direct_report(tmp_path):
    replay = workloads._setup(scenario_gen.generate(5, workloads.SCENARIO_TICKS), True, tmp_path)
    try:
        yield replay, workloads.replay_direct(replay, 5)
    finally:
        replay.close()


def test_replay_reaches_every_alert_kind(direct_report):
    _, report = direct_report
    assert set(workloads._shape(report)["alerts"]) == {
        "fall", "help_gesture", "prolonged_hot", "occupancy_timeout"
    }


def test_clean_report_passes_and_skipped_entry_id_fails(direct_report):
    _, report = direct_report
    res = workloads.Result()
    workloads._check_report(res, report, "clean")
    assert res.failed == 0
    report.rows[10] = report.rows[10]._replace(entry_id=report.rows[10].entry_id + 1)
    workloads._check_report(res, report, "skipped")
    assert res.failed == 1


def test_corrupted_report_changes_the_digest(direct_report, tmp_path):
    _, report = direct_report
    digest = workloads._emit(report, tmp_path)
    assert workloads._emit(report, tmp_path) == digest
    report.rows[3] = report.rows[3]._replace(temp_c=report.rows[3].temp_c + 1)
    assert workloads._emit(report, tmp_path) != digest


def _mixed_traffic():
    channel = type("Channel", (), {"channel_id": 1, "write_key": "W", "read_key": "R"})
    ledger = workloads.Ledger(channel, prefilled=3)
    for i in range(1, 5):
        ledger.rows[i] = (float(i - 1), {1: 10 * i, 2: 20, 3: 30, 4: 0, 5: 0})
    ledger.acked = ledger.issued = 4
    res = workloads.Result()
    return res, ledger, workloads.Traffic(res, [ledger, ledger, ledger, ledger], seed=1)


def _page(ledger, ids):
    return json.dumps(
        {
            "feeds": [
                {"created_at": ledger.rows[i][0], "entry_id": i}
                | {f"field{p}": v for p, v in ledger.rows[i][1].items()}
                for i in ids
            ]
        }
    ).encode()


def test_mixed_checks_pass_on_good_replies():
    res, ledger, traffic = _mixed_traffic()
    traffic.replies = [
        ("last", ledger, 1, 3, 4, b"40"),
        ("feeds", ledger, 1, 3, 4, _page(ledger, [1, 2, 3, 4])),
    ]
    traffic.verify()
    assert res.failed == 0, res.problems


@pytest.mark.parametrize(
    "reply",
    [
        ("last", None, 1, 4, 4, b"30"),  # a value older than the newest acknowledged
        ("last", None, 1, 4, 4, b"99"),  # a value nobody wrote
        ("feeds", None, 1, 3, 4, [1, 2, 4]),  # a skipped entry id
        ("feeds", None, 1, 4, 4, [1, 2, 3]),  # newest id older than acknowledged
    ],
)
def test_mixed_checks_fail_on_bad_replies(reply):
    res, ledger, traffic = _mixed_traffic()
    kind, _, position, low, high, body = reply
    if kind == "feeds":
        body = _page(ledger, body)
    traffic.replies = [(kind, ledger, position, low, high, body)]
    traffic.verify()
    assert res.failed >= 1


def test_newest_id_may_not_go_back_between_reads():
    res, ledger, traffic = _mixed_traffic()
    traffic.replies = [
        ("feeds", ledger, 1, 3, 4, _page(ledger, [1, 2, 3, 4])),
        ("feeds", ledger, 1, 3, 4, _page(ledger, [1, 2, 3])),
    ]
    traffic.verify()
    assert res.failed == 1


def test_span_self_time_subtracts_children():
    spans = [(1, "outer", 0.0, 10.0, 0), (2, "inner", 1.0, 4.0, 1), (3, "inner", 5.0, 6.0, 1)]
    summary = tracing.summarize(spans)
    assert summary["outer"] == (1, 10.0, 6.0)
    assert summary["inner"] == (2, 4.0, 4.0)


def test_unit_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "replay-direct", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert set(result["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay-direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
