#!/usr/bin/env python3
"""showersim benchmark: one command for every workload.

    python3 bench/run.py --workload replay-embedded --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports showersim from `src/` there
and keeps every file it writes under `.bench_run/`, which it removes. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, where the metrics are the end-to-end ones with
`--trace 0` and the per-layer ones of a traced run with `--trace 1`.
Lines before it give the environment and the workload's shape; failed
checks go to standard error. See bench/README.md for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("replay-embedded", "replay-direct", "telemetry-mixed")

END_TO_END_UNITS = {
    "ticks_per_s": "1/s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "sensors.sample.us_per_tick": "us",
    "controller.step.us_per_call": "us",
    "safety.fuse_tick.us_per_call": "us",
    "agent.tick.self_us_per_call": "us",
    "agent.post.us_per_call": "us",
    "agent.post.share": "ratio",
    "server.handler.us_per_call": "us",
    "server.http_overhead_us_per_post": "us",
    "server.connections": "count",
    "store.write_update.us_per_call": "us",
    "store.log_bytes_per_entry": "bytes",
    "store.read_last_field.us_per_call": "us",
    "store.read_feed.us_per_call": "us",
    "store.replay_s": "s",
    "scenario.parse_scenario_s": "s",
    "scenario.apply_event.calls": "count",
    "runner.emit_report_s": "s",
    "runner.analyze_occupancy_s": "s",
    "agent.posts_attempted": "count",
    "agent.posts_accepted": "count",
    "agent.queue_max": "count",
    "controller.transitions": "count",
    "safety.alerts.fall": "count",
    "safety.alerts.help_gesture": "count",
    "safety.alerts.prolonged_hot": "count",
    "safety.alerts.occupancy_timeout": "count",
    "trace.overhead_ratio": "ratio",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(generator: dict) -> dict:
    import requests

    return {
        "python": platform.python_version(),
        "requests": requests.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "generator_threads": generator.get("threads"),
        "client_connections": generator.get("connections"),
        "notes": (
            "all HTTP crosses the loopback interface; the store flushes each append "
            "without fsync on the local disk; latencies are this host's, not a device's"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "showersim" / "__init__.py").is_file():
        print(f"error: no showersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import tracing
    import workloads

    runs_dir = ROOT / ".bench_run"
    work = runs_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)  # the embedded server's temp store lands here too
    tracer = tracing.Tracer() if args.trace else None
    try:
        if args.workload == "telemetry-mixed":
            res = workloads.run_mixed(args.seed, args.seconds, work, tracer)
        else:
            res = workloads.run_replay(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            runs_dir.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        units = PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS
        res.values["ok_ratio"] = (res.attempted - res.failed) / res.attempted
    for problem in res.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(environment(res.generator)))
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(res.shape))
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
