"""Clock-driven scenario execution, occupancy analytics and report emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .agent import DeviceAgent, StoreClient, TelemetryClient
from .config import RunConfig, default_run_config
from .controller import ControllerConfig, Occupancy, classify_occupancy
from .scenario import ScenarioValidationError, apply_event
from .sensors import EnvironmentState
from .telemetry.store import TelemetryStore

CSV_COLUMNS = ("time_s", "distance_cm", "temp_c", "humidity_pct", "occupancy", "mode", "entry_id")

OCCUPIED_LABEL = "Shower space occupied"
EMPTY_LABEL = "Shower space empty"
_LABELS = {Occupancy.OCCUPIED: OCCUPIED_LABEL, Occupancy.EMPTY: EMPTY_LABEL}


@dataclass(frozen=True)
class ReportRow:
    time_s: float
    distance_cm: int
    temp_c: int
    humidity_pct: int
    occupancy: str
    mode: str
    entry_id: int


@dataclass(frozen=True)
class OccupancyInterval:
    start_s: float
    end_s: Optional[float]  # None: open at the end of the series
    label: str
    entry_distance: float


@dataclass
class Report:
    rows: list = field(default_factory=list)
    transitions: list = field(default_factory=list)  # (time_s, what, before, after)
    alerts: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    console: list = field(default_factory=list)  # (time_s, rendered block)
    posts_attempted: int = 0
    posts_accepted: int = 0
    posts_rejected: int = 0  # answered with entry id 0 (rate-limited)
    posts_dropped: int = 0


def _shower_channel(store: TelemetryStore, field_map: dict):
    """The run's private channel, its fields named in field-position order."""
    field_names = [field_map[pos] for pos in sorted(field_map)]
    return store.create_channel("shower", field_names, visibility="private")


def run_scenario(events, config: Optional[RunConfig] = None, seed: int = 0) -> Report:
    """Step the clock from 0 to the end event, one agent tick per step.

    Events with `at <= t` are applied before the tick at t, so an event on a
    tick boundary is visible to that tick. The agent posts to
    `config.agent.server_url` with its `write_key` or, when the URL is empty,
    straight into a memory-only store holding one "shower" channel.
    """
    config = config or default_run_config()
    if not events or events[-1].kind != "end":
        raise ScenarioValidationError("scenario must finish with an end event")
    tick_s = config.agent.tick_s
    end_time = events[-1].at
    tick_count = int(math.floor(end_time / tick_s + 1e-9)) + 1

    agent_cfg = config.agent
    if agent_cfg.server_url:
        client = TelemetryClient(agent_cfg.server_url)
    else:
        store = TelemetryStore()
        channel = _shower_channel(store, agent_cfg.field_map)
        agent_cfg = replace(agent_cfg, write_key=channel.write_key)
        client = StoreClient(store)
    try:
        agent = DeviceAgent(
            agent_cfg,
            controller_cfg=config.controller,
            safety_cfg=config.safety,
            sensor_cfgs=config.sensors,
            profile=config.profile,
            seed=seed,
            client=client,
        )

        env = EnvironmentState()
        report = Report()
        pending = list(events)
        index = 0
        prev_occupancy = Occupancy.EMPTY.value
        prev_mode = "off"
        for k in range(tick_count):
            now = k * tick_s
            while index < len(pending) and pending[index].at <= now + 1e-9:
                apply_event(env, pending[index])
                index += 1
            result = agent.tick(env, now)
            row = ReportRow(
                time_s=now,
                distance_cm=result.distance_cm,
                temp_c=result.temp_c,
                humidity_pct=result.humidity_pct,
                occupancy=result.occupancy.value,
                mode=result.mode.value,
                entry_id=result.entry_id,
            )
            report.rows.append(row)
            if row.occupancy != prev_occupancy:
                report.transitions.append((now, "occupancy", prev_occupancy, row.occupancy))
            if row.occupancy != prev_occupancy or k == 0:
                if report.intervals:
                    report.intervals[-1] = replace(report.intervals[-1], end_s=now)
                report.intervals.append(
                    OccupancyInterval(now, None, _LABELS[result.occupancy], row.distance_cm)
                )
            if row.mode != prev_mode:
                report.transitions.append((now, "mode", prev_mode, row.mode))
            prev_occupancy, prev_mode = row.occupancy, row.mode
            report.alerts.extend(result.alerts)
            if result.console is not None:
                report.console.append((now, result.console))

        report.posts_attempted = agent.posts_attempted
        report.posts_accepted = agent.posts_accepted
        report.posts_rejected = agent.posts_rejected
        report.posts_dropped = agent.posts_dropped
        return report
    finally:
        client.close()


def analyze_occupancy(series, cfg: ControllerConfig) -> list:
    """Maximal constant-occupancy intervals over a (time, distance) series.

    Replays the controller's occupancy rule on the distances it is given; the
    shower starts empty. On a report.csv, whose `distance_cm` is rounded to
    whole centimetres, a reading within 0.5 cm of a threshold can classify
    differently from the run's own `occupancy` column.
    """
    intervals = []
    prev = Occupancy.EMPTY
    current = None  # (start, label, entry distance)
    for timestamp, distance in series:
        occupancy = classify_occupancy(distance, prev, cfg)
        if current is None or occupancy is not prev:
            if current is not None:
                intervals.append(OccupancyInterval(current[0], timestamp, current[1], current[2]))
            current = (timestamp, _LABELS[occupancy], distance)
        prev = occupancy
    if current is not None:
        intervals.append(OccupancyInterval(current[0], None, current[1], current[2]))
    return intervals


def _num(value: float) -> str:
    return f"{value:g}"


def emit_report(report: Report, path, fmt: str) -> list:
    """Write the per-tick table in the requested format plus the alerts file."""
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in report.rows:
            cells = [_num(row.time_s)]
            cells.extend(str(getattr(row, name)) for name in CSV_COLUMNS[1:])
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "jsonl":
        lines = [
            json.dumps({name: getattr(row, name) for name in CSV_COLUMNS}) for row in report.rows
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")

    alerts_path = path.with_suffix(".alerts")
    alert_lines = [
        f"{_num(alert.timestamp)},{alert.kind.value},{alert.evidence}" for alert in report.alerts
    ]
    alerts_path.write_text("\n".join(alert_lines) + ("\n" if alert_lines else ""), encoding="utf-8")
    return [path, alerts_path]
