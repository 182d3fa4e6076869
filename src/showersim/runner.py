"""Clock-driven scenario execution, occupancy analytics and report emission.

A run's report rows are the `agent.TickResult` records its ticks return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .agent import DEFAULT_FIELD_MAP, DeviceAgent, StoreClient, TelemetryClient
from .config import RunConfig, default_run_config
from .controller import ControllerConfig, Occupancy, WaterMode, classify_occupancy
from .scenario import ScenarioValidationError, apply_event
from .sensors import EnvironmentState
from .telemetry.store import TelemetryStore

# The most ticks one run may plan: about 115 days at tick_s = 1. A longer
# plan is refused before the first tick instead of running until killed.
MAX_TICKS = 10_000_000

CSV_COLUMNS = ("time_s", "distance_cm", "temp_c", "humidity_pct", "occupancy", "mode", "entry_id")

OCCUPIED_LABEL = "Shower space occupied"
EMPTY_LABEL = "Shower space empty"
_LABELS = {Occupancy.OCCUPIED: OCCUPIED_LABEL, Occupancy.EMPTY: EMPTY_LABEL}


@dataclass(frozen=True)
class OccupancyInterval:
    start_s: float
    end_s: Optional[float]  # None: open at the end of the series
    label: str
    entry_distance: float


@dataclass
class Report:
    rows: list = field(default_factory=list)  # agent.TickResult, one per tick
    transitions: list = field(default_factory=list)  # (time_s, what, before, after)
    alerts: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    console: list = field(default_factory=list)  # (time_s, rendered block)
    posts_attempted: int = 0
    posts_accepted: int = 0
    posts_rejected: int = 0  # answered with entry id 0 (rate-limited)
    posts_dropped: int = 0
    posts_refused: int = 0  # answered 4xx: the server will never take them


def _shower_channel(store: TelemetryStore):
    """The run's private channel, its fields named after the quantities the
    agent posts (`agent.DEFAULT_FIELD_MAP`), in field-position order."""
    return store.create_channel("shower", list(DEFAULT_FIELD_MAP.values()))


def run_scenario(events, config: Optional[RunConfig] = None, seed: int = 0) -> Report:
    """Step the clock from 0 to the end event, one agent tick per step.

    Events with `at <= t` are applied before the tick at t, so an event on a
    tick boundary is visible to that tick. A plan of more than MAX_TICKS ticks
    raises ScenarioValidationError. The agent posts to
    `config.agent.server_url` with its `write_key` or, when the URL is empty,
    straight into a memory-only store holding one "shower" channel.
    """
    config = config or default_run_config()
    if not events or events[-1].kind != "end":
        raise ScenarioValidationError("scenario must finish with an end event")
    tick_s = config.agent.tick_s
    end_time = events[-1].at
    last_tick = end_time / tick_s + 1e-9  # inf when tick_s is tiny beside end_time
    if last_tick >= MAX_TICKS:
        planned = f"{math.floor(last_tick) + 1:,}" if last_tick < 1e15 else f"{last_tick:.3g}"
        raise ScenarioValidationError(
            f"a run to {end_time:g} s at tick_s = {tick_s:g} plans {planned} ticks, "
            f"over the cap of {MAX_TICKS:,}"
        )
    tick_count = int(math.floor(last_tick)) + 1

    agent_cfg = config.agent
    if agent_cfg.server_url:
        client = TelemetryClient(agent_cfg.server_url)
    else:
        store = TelemetryStore()
        channel = _shower_channel(store)
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
        index = 0
        prev_occupancy, prev_mode = Occupancy.EMPTY, WaterMode.OFF
        for k in range(tick_count):
            now = k * tick_s
            while index < len(events) and events[index].at <= now + 1e-9:
                apply_event(env, events[index])
                index += 1
            row = agent.tick(env, now)
            report.rows.append(row)
            if row.occupancy is not prev_occupancy:
                report.transitions.append((now, "occupancy", prev_occupancy, row.occupancy))
            if row.mode is not prev_mode:
                report.transitions.append((now, "mode", prev_mode, row.mode))
            prev_occupancy, prev_mode = row.occupancy, row.mode
            report.alerts.extend(row.alerts)
            if row.console is not None:
                report.console.append((now, row.console))

        # each tick's own occupancy: its rounded distance_cm may classify otherwise
        report.intervals = _intervals(
            (row.time_s, row.occupancy, row.distance_cm) for row in report.rows
        )
        report.posts_attempted = agent.posts_attempted
        report.posts_accepted = agent.posts_accepted
        report.posts_rejected = agent.posts_rejected
        report.posts_dropped = agent.posts_dropped
        report.posts_refused = agent.posts_refused
        return report
    finally:
        client.close()


def _intervals(samples) -> list:
    """Maximal constant-occupancy intervals over (time, occupancy, distance) samples."""
    starts = []
    for sample in samples:
        if not starts or sample[1] != starts[-1][1]:
            starts.append(sample)
    ends = [start[0] for start in starts[1:]] + [None]
    return [
        OccupancyInterval(start_s, end_s, _LABELS[occupancy], distance)
        for (start_s, occupancy, distance), end_s in zip(starts, ends)
    ]


def analyze_occupancy(series, cfg: ControllerConfig) -> list:
    """Maximal constant-occupancy intervals over a (time, distance) series.

    Replays the controller's occupancy rule on the distances it is given; the
    shower starts empty. On a report.csv, whose `distance_cm` is rounded to
    whole centimetres, a reading within 0.5 cm of a threshold can classify
    differently from the run's own `occupancy` column.
    """
    samples = []
    occupancy = Occupancy.EMPTY
    for timestamp, distance in series:
        occupancy = classify_occupancy(distance, occupancy, cfg)
        samples.append((timestamp, occupancy, distance))
    return _intervals(samples)


class _JsonCells(dict):
    """cell -> its JSON text, rendered on first use."""

    def __missing__(self, cell) -> str:
        self[cell] = text = json.dumps(cell)
        return text


def emit_report(report: Report, path, fmt: str) -> list:
    """Write the per-tick table in the requested format plus the alerts file.

    A row is anything with the `CSV_COLUMNS` attributes whose cells print
    (str, json) as the report shows them, such as plain strings or str enums.
    A jsonl row is the text `json.dumps` gives for its `CSV_COLUMNS` dict: the
    numbers are their repr, and each distinct occupancy and mode cell is
    rendered once. The csv time and each alert's time print with 15
    significant digits, so 12345.25 and 1000001 keep theirs while the float
    noise of k * tick_s (0.30000000000000004) prints as 0.3.
    """
    path = Path(path)
    rows = report.rows
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(
            f"{r.time_s:.15g},{r.distance_cm!s},{r.temp_c!s},{r.humidity_pct!s},"
            f"{r.occupancy!s},{r.mode!s},{r.entry_id!s}"
            for r in rows
        )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "jsonl":
        cells = _JsonCells()
        lines = [
            f'{{"time_s": {r.time_s!r}, "distance_cm": {r.distance_cm!r}, "temp_c": {r.temp_c!r}, '
            f'"humidity_pct": {r.humidity_pct!r}, "occupancy": {cells[r.occupancy]}, '
            f'"mode": {cells[r.mode]}, "entry_id": {r.entry_id!r}}}'
            for r in rows
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {fmt!r}")

    alerts_path = path.with_suffix(".alerts")
    alert_lines = [
        f"{alert.timestamp:.15g},{alert.kind.value},{alert.evidence}" for alert in report.alerts
    ]
    alerts_path.write_text("\n".join(alert_lines) + ("\n" if alert_lines else ""), encoding="utf-8")
    return [path, alerts_path]
