"""Command-line front end: run scenarios, analyze feeds, validate scripts."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, default_run_config, load_config
from .runner import analyze_occupancy, emit_report, run_scenario
from .scenario import ScenarioError, parse_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shower-sim", description="Deterministic smart-shower scenario simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay a scenario script")
    run_p.add_argument("scenario")
    run_p.add_argument("--config")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="out")
    target = run_p.add_mutually_exclusive_group()
    target.add_argument("--server", help="post to an existing telemetry server URL")
    target.add_argument(
        "--embedded-server",
        action="store_true",
        help="post in-process into a memory-only telemetry store (the default)",
    )

    analyze_p = sub.add_parser("analyze", help="label occupancy intervals in a feed CSV")
    analyze_p.add_argument("feed")
    analyze_p.add_argument("--config")

    validate_p = sub.add_parser("validate", help="check a scenario script")
    validate_p.add_argument("scenario")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_validate(args)
    except (ScenarioError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, network, ...
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def _load(args):
    return load_config(args.config) if args.config else default_run_config()


def _cmd_run(args) -> int:
    config = _load(args)
    events = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    if args.server or args.embedded_server:
        try:
            config.agent = replace(config.agent, server_url=args.server or "")
        except ValueError as exc:
            raise ConfigError(f"--server: {exc}") from None
    if config.agent.server_url and not config.agent.write_key:
        raise ConfigError("posting to an external server requires write_key in the config file")

    report = run_scenario(events, config, seed=args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_report(report, out_dir / "report.csv", "csv")
    emit_report(report, out_dir / "report.jsonl", "jsonl")

    for _, block in report.console:
        sys.stdout.write(block)
        sys.stdout.write("\n")
    print(
        f"{len(report.rows)} ticks, {report.posts_accepted} accepted posts, "
        f"{report.posts_rejected} rejected, {report.posts_dropped} dropped, "
        f"{len(report.alerts)} alerts -> {out_dir}"
    )
    return 0


def _cmd_analyze(args) -> int:
    config = _load(args)
    series = []
    with open(args.feed, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"time_s", "distance_cm"} <= set(reader.fieldnames):
            raise ConfigError(f"{args.feed}: feed needs time_s and distance_cm columns")
        for record in reader:
            series.append((float(record["time_s"]), float(record["distance_cm"])))
    for interval in analyze_occupancy(series, config.controller):
        print(interval.label)
        print(f"Distance= {interval.entry_distance:g}")
    return 0


def _cmd_validate(args) -> int:
    events = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    print(f"ok: {len(events)} events, {events[-1].at:g} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
