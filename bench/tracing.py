"""Spans and counts recorded around the calls into each showersim layer.

Wrappers are installed from outside the program, at the name each caller
looks up (`showersim.agent.step`, `TelemetryStore.write_update`, ...), so
nothing under `src/` changes. A span is (id, name, start, end, parent):
the parent is the innermost span open on the same thread when it began.
Spans stay in memory and are written out once, at the end. A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (id, name, start, end, parent id or 0)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a function that records a span per call.

        `after(tracer, args, result)` runs once the call has returned, to
        take exact counts from its arguments and result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def high_water(self, name: str, value: int) -> None:
        with self._lock:
            if value > self.maxima.get(name, 0):
                self.maxima[name] = value

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": list(self.spans), "counts": self.counts, "maxima": self.maxima}, fh
            )

    def merge_file(self, path) -> None:
        """Add the spans and counts another process dumped (ids made distinct)."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = next(self._ids) + 1_000_000_000
        for span_id, name, start, end, parent in data["spans"]:
            self.spans.append((span_id + offset, name, start, end, parent + offset if parent else 0))
        self.counts.update(data["counts"])
        for name, value in data["maxima"].items():
            self.high_water(name, value)


def summarize(spans) -> dict:
    """name -> (calls, total seconds, self seconds)."""
    child_time: dict = {}
    for _, _, start, end, parent in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict = {}
    for span_id, name, start, end, _ in spans:
        calls, total, self_time = out.get(name, (0, 0.0, 0.0))
        duration = end - start
        out[name] = (calls + 1, total + duration, self_time + duration - child_time.get(span_id, 0.0))
    return out


SENSOR_FUNCTIONS = ("ultrasonic_measure", "dht_measure", "sound_sample", "gesture_poll")


def _after_step(tracer: Tracer, args, result) -> None:
    before, (after, _commands) = args[0], result
    tracer.count("controller.transitions", (before.occupancy is not after.occupancy) + (before.mode is not after.mode))


def _after_fuse(tracer: Tracer, args, result) -> None:
    for alert in result[0]:
        tracer.count(f"safety.alerts.{alert.kind.value}")


def _after_tick(tracer: Tracer, args, result) -> None:
    tracer.high_water("agent.queue_max", len(args[0].queue))


def install(tracer: Tracer, extra_clients=()) -> None:
    """Wrap every layer boundary; `extra_clients` are classes standing in for
    TelemetryClient whose post_update is traced as the agent's post."""
    from showersim import agent, runner, safety, scenario
    from showersim.telemetry import server, store

    for fn in SENSOR_FUNCTIONS:
        tracer.wrap(agent, fn, f"sensors.{fn}")
    tracer.wrap(agent, "step", "controller.step", _after_step)
    tracer.wrap(safety.SafetyEngine, "fuse_tick", "safety.fuse_tick", _after_fuse)
    tracer.wrap(agent.DeviceAgent, "tick", "agent.tick", _after_tick)
    for client in (agent.TelemetryClient, *extra_clients):
        tracer.wrap(client, "post_update", "agent.post")
    tracer.wrap(server.TelemetryRequestHandler, "do_POST", "server.handler.post")
    tracer.wrap(server.TelemetryRequestHandler, "do_GET", "server.handler.get")
    tracer.wrap(server.TelemetryHTTPServer, "process_request", "server.connection")
    for method in ("write_update", "read_last_field", "read_feed", "__init__"):
        tracer.wrap(store.TelemetryStore, method, f"store.{method.strip('_')}")
    tracer.wrap(scenario, "parse_scenario", "scenario.parse_scenario")
    tracer.wrap(scenario, "apply_event", "scenario.apply_event")
    tracer.wrap(runner, "apply_event", "scenario.apply_event")
    tracer.wrap(runner, "run_scenario", "runner.run_scenario")
    tracer.wrap(runner, "analyze_occupancy", "runner.analyze_occupancy")
    tracer.wrap(runner, "emit_report", "runner.emit_report")
