"""The benchmark's three workloads.

replay-embedded   `run_scenario` with its default in-process HTTP server,
                  then `emit_report` (csv and jsonl): what `shower-sim run`
                  users wait on. The agent's loopback post dominates.
replay-direct     the same scenario and seed driven through
                  `DeviceAgent.tick`, posting through `StoreClient` straight
                  into a file-backed `TelemetryStore`: no HTTP, so sensors,
                  controller, safety, agent and store append dominate.
telemetry-mixed   a `telemetry-serve --sim-time` subprocess over a channel
                  prefilled with one simulated day of 1 s entries; a device
                  posts through `TelemetryClient.post_update` while a
                  dashboard reads `last.txt` and `feeds.json` pages, both
                  closed loop, one connection each.

Every workload returns a `Result`; its `values` hold the end-to-end metrics
of an untraced run and, with a tracer, the per-layer metrics of a traced
phase that follows an untraced one of the same length.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

import scenario_gen
import tracing
from showersim import agent, config, runner, scenario
from showersim.controller import WaterMode
from showersim.sensors import EnvironmentState
from showersim.telemetry.store import TelemetryError, TelemetryStore

SCENARIO_TICKS = 1000
SETUP_REPEATS = 7
PREFILL_ENTRIES = 86_400  # one simulated day of 1 s entries
SMALL_CHANNELS = 3
SMALL_PREFILL_ENTRIES = 50
FEED_RESULTS = 100
SERVER_LAUNCHES = 3
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Result:
    values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # first few failed checks, for stderr
    shape: dict = field(default_factory=dict)
    generator: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Count a failed output check as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)
        return ok


def _ms(samples) -> float:
    return statistics.median(samples) * 1000.0


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- scenario replays -------------------------------------------------------


class Row(NamedTuple):
    """One report line; `emit_report` reads these attributes by name."""

    time_s: float
    distance_cm: int
    temp_c: int
    humidity_pct: int
    occupancy: str
    mode: str
    entry_id: int


class StoreClient:
    """Stand-in for `TelemetryClient` that appends straight to a store.

    Same contract as the HTTP client: (status line, entry id), with None for
    a post the telemetry side refused, which the agent keeps queued.
    """

    def __init__(self, store: TelemetryStore):
        self.store = store

    def post_update(self, write_key: str, values: dict, created_at: float):
        try:
            return "200 OK", self.store.write_update(write_key, values, created_at)
        except TelemetryError as exc:
            return f"rejected: {exc}", None


@dataclass
class Replay:
    """A parsed scenario plus, for the direct path, a fresh store and channel."""

    events: list
    run_config: object
    store: Optional[TelemetryStore] = None
    channel: object = None
    store_dir: Optional[str] = None
    store_bytes: int = 0

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            shutil.rmtree(self.store_dir, ignore_errors=True)


def _setup(text: str, direct: bool, work: Path) -> Replay:
    events = scenario.parse_scenario(text)
    run_config = config.parse_config(scenario_gen.CONFIG_TEXT, source="bench")
    replay = Replay(events, run_config)
    if direct:
        replay.store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
        replay.store = TelemetryStore(replay.store_dir)
        field_map = run_config.agent.field_map
        replay.channel = replay.store.create_channel(
            "shower", [field_map[pos] for pos in sorted(field_map)], visibility="private"
        )
        replay.store_bytes = _dir_bytes(replay.store_dir)
    return replay


def _timed_setups(text: str, direct: bool, work: Path) -> float:
    """Median wall time of SETUP_REPEATS fresh-interpreter set-ups (setup_probe.py)."""
    scenario_file = work / "scenario.scn"
    scenario_file.write_text(text, encoding="utf-8")
    config_file = work / "bench.conf"
    config_file.write_text(scenario_gen.CONFIG_TEXT, encoding="utf-8")
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(scenario_file), str(config_file)]
        if direct:
            cmd.append(str(work / f"setup-store-{i}"))
        start = perf_counter()
        subprocess.run(cmd, check=True, env={**os.environ, "TMPDIR": str(work)})
        times.append(perf_counter() - start)
    return statistics.median(times)


def replay_direct(replay: Replay, seed: int):
    """Drive DeviceAgent.tick over the scenario exactly as run_scenario does."""
    cfg = replay.run_config
    device = agent.DeviceAgent(
        replace(cfg.agent, server_url="", write_key=replay.channel.write_key),
        controller_cfg=cfg.controller,
        safety_cfg=cfg.safety,
        sensor_cfgs=cfg.sensors,
        profile=cfg.profile,
        seed=seed,
        client=StoreClient(replay.store),
    )
    events = replay.events
    tick_s = cfg.agent.tick_s
    tick_count = int(events[-1].at / tick_s + 1e-9) + 1
    env = EnvironmentState()
    report = runner.Report()
    index = 0
    prev_occupancy, prev_mode = "empty", "off"
    for k in range(tick_count):
        now = k * tick_s
        while index < len(events) and events[index].at <= now + 1e-9:
            scenario.apply_event(env, events[index])
            index += 1
        env.sim_time = now
        result = device.tick(env, now)
        row = Row(
            now,
            result.distance_cm,
            result.temp_c,
            result.humidity_pct,
            result.occupancy.value,
            result.mode.value,
            result.entry_id,
        )
        report.rows.append(row)
        if row.occupancy != prev_occupancy:
            report.transitions.append((now, "occupancy", prev_occupancy, row.occupancy))
        if row.mode != prev_mode:
            report.transitions.append((now, "mode", prev_mode, row.mode))
        prev_occupancy, prev_mode = row.occupancy, row.mode
        report.alerts.extend(result.alerts)
        if result.console is not None:
            report.console.append((now, result.console))
    report.posts_attempted = device.posts_attempted
    report.posts_accepted = device.posts_accepted
    report.posts_dropped = device.posts_dropped
    report.intervals = runner.analyze_occupancy(
        [(row.time_s, row.distance_cm) for row in report.rows], cfg.controller
    )
    return report


def _emit(report, out: Path) -> str:
    """Write report.csv/.jsonl/.alerts; returns a digest of all three files."""
    runner.emit_report(report, out / "report.csv", "csv")
    runner.emit_report(report, out / "report.jsonl", "jsonl")
    digest = hashlib.sha256()
    for name in ("report.csv", "report.jsonl", "report.alerts"):
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def _check_report(res: Result, report, label: str) -> None:
    ticks = len(report.rows)
    ids = [row.entry_id for row in report.rows]
    res.failed += sum(1 for i in ids if i == 0)  # every rejected post is a failure
    res.check(ids == list(range(1, ticks + 1)), f"{label}: entry ids are not 1..{ticks}")
    res.check(
        report.posts_accepted == ticks,
        f"{label}: {report.posts_accepted} posts accepted for {ticks} ticks",
    )


def _expected_payloads(report) -> list:
    """The five mapped fields each tick posted, rebuilt from the report."""
    first_alert: dict = {}
    for alert in report.alerts:
        first_alert.setdefault(alert.timestamp, alert.kind)
    payloads = []
    for row in report.rows:
        kind = first_alert.get(row.time_s)
        payloads.append(
            {
                1: row.distance_cm,
                2: row.temp_c,
                3: row.humidity_pct,
                4: agent.MODE_CODES[WaterMode(row.mode)],
                5: agent.ALERT_CODES[kind] if kind is not None else 0,
            }
        )
    return payloads


def _check_store(res: Result, replay: Replay, report) -> None:
    """The store holds exactly what the replay posted, ids gapless from 1."""
    store, channel = replay.store, replay.channel
    payloads = _expected_payloads(report)
    ticks = len(payloads)
    feed = store.read_feed(channel.channel_id, channel.read_key, ticks + 1)
    res.attempted += 1
    res.check(
        [e.entry_id for e in feed] == list(range(1, ticks + 1)),
        "store: entry ids are not gapless from 1",
    )
    res.check(
        all(e.values == p and e.created_at == r.time_s for e, p, r in zip(feed, payloads, report.rows)),
        "store: stored entries differ from the posted payloads",
    )


def _shape(report) -> dict:
    ticks = len(report.rows)
    return {
        "ticks": ticks,
        "occupied_share": round(sum(r.occupancy == "occupied" for r in report.rows) / ticks, 4),
        "mode_changes": sum(1 for t in report.transitions if t[1] == "mode"),
        "alerts": dict(sorted(Counter(a.kind.value for a in report.alerts).items())),
    }


def run_replay(workload: str, seed: int, seconds: float, work: Path, tracer=None) -> Result:
    direct = workload == "replay-direct"
    res = Result(generator={"threads": 1, "connections": 0 if direct else 1})
    text = scenario_gen.generate(seed, SCENARIO_TICKS)
    setup_s = _timed_setups(text, direct, work)
    replay = _setup(text, direct, work)
    out = work / "out"
    out.mkdir()

    def one_replay():
        """One timed replay (with report emission); returns (seconds, report, digest)."""
        nonlocal replay
        if replay is None:
            replay = _setup(text, direct, work)
        start = perf_counter()
        if direct:
            report = replay_direct(replay, seed)
        else:
            report = runner.run_scenario(replay.events, replay.run_config, seed=seed)
        digest = _emit(report, out)
        elapsed = perf_counter() - start
        return elapsed, report, digest

    def phase(budget: float):
        nonlocal replay
        times, digests, report, log_bytes = [], set(), None, 0
        deadline = perf_counter() + budget
        more = True
        while more:
            elapsed, report, digest = one_replay()
            more = perf_counter() < deadline
            times.append(elapsed)
            digests.add(digest)
            res.attempted += report.posts_attempted
            _check_report(res, report, workload)
            if direct:
                log_bytes = _dir_bytes(replay.store_dir) - replay.store_bytes
                if more:  # the last store stays for _check_store
                    replay.close()
                    replay = None
        res.check(len(digests) == 1, f"{workload}: repeats wrote different reports")
        return times, digests, report, log_bytes

    traced_phase = None
    if tracer is None:
        times, digests, report, log_bytes = phase(seconds)
    else:
        times, digests, report, log_bytes = phase(seconds / 2)
        replay.close()
        replay = None  # the traced phase sets up afresh, so parsing is traced too
        tracing.install(tracer, extra_clients=(StoreClient,))
        try:
            traced_phase = phase(seconds / 2)
        finally:
            tracer.restore()
        digests |= traced_phase[1]
        res.check(len(digests) == 1, f"{workload}: traced repeats wrote different reports")
    ticks = len(report.rows)

    if not direct:
        # Cross-check: the direct path writes byte-identical reports, and its
        # store shows what the embedded server's store held.
        replay = _setup(text, True, work)
        direct_report = replay_direct(replay, seed)
        direct_digest = _emit(direct_report, work / "out")
        res.attempted += direct_report.posts_attempted
        _check_report(res, direct_report, "replay-direct cross-check")
        res.check(
            digests == {direct_digest},
            "replay-embedded and replay-direct wrote different reports for the same seed",
        )
        log_bytes = _dir_bytes(replay.store_dir) - replay.store_bytes
    _check_store(res, replay, report)
    replay.close()

    res.shape = _shape(report)
    if tracer is None:
        res.values = {
            "ticks_per_s": ticks * len(times) / sum(times),
            "requests_per_s": report.posts_attempted * len(times) / sum(times),  # one post per tick
            "setup_s": setup_s,
            "peak_rss_mb": _self_rss_mb(),
        }
    else:
        traced_times = traced_phase[0]
        untraced_tps = ticks * len(times) / sum(times)
        traced_tps = ticks * len(traced_times) / sum(traced_times)
        res.values = layer_metrics(
            tracer,
            wall_s=sum(traced_times),
            replays=len(traced_times),
            overhead_ratio=traced_tps / untraced_tps,
            log_bytes_per_entry=log_bytes / ticks,
            posts=(report.posts_attempted, report.posts_accepted),
        )
    return res


# -- telemetry-mixed --------------------------------------------------------

FIELD_NAMES = [agent.DEFAULT_FIELD_MAP[pos] for pos in sorted(agent.DEFAULT_FIELD_MAP)]


def _device_values(rng: random.Random) -> dict:
    return {
        1: rng.randint(6, 600),
        2: rng.randint(5, 40),
        3: rng.randint(10, 99),
        4: rng.randint(0, 3),
        5: rng.choice((0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4)),
    }


class Ledger:
    """What the benchmark knows was written to one channel, for the checks."""

    def __init__(self, channel, prefilled: int):
        self.channel_id = channel.channel_id
        self.write_key = channel.write_key
        self.read_key = channel.read_key
        self.rows: dict = {}  # entry id -> (created_at, values)
        self.acked = prefilled  # newest id acknowledged to the device
        self.issued = prefilled  # newest id the device may have caused
        self.newest_seen = 0  # newest id any feed read has shown
        self.next_created = float(prefilled)


def _prefill(data_dir: Path, rng: random.Random) -> list:
    """Channels through the store API: one big device channel, a few small ones."""
    store = TelemetryStore(str(data_dir))
    try:
        ledgers = []
        for name, count in [("device", PREFILL_ENTRIES)] + [
            (f"room-{i}", SMALL_PREFILL_ENTRIES) for i in range(1, SMALL_CHANNELS + 1)
        ]:
            channel = store.create_channel(name, FIELD_NAMES, visibility="private")
            ledger = Ledger(channel, count)
            for i in range(count):
                values = _device_values(rng)
                entry_id = store.write_update(channel.write_key, values, float(i))
                if entry_id != i + 1:
                    raise RuntimeError(f"prefill of {name} got entry id {entry_id}")
                if i >= count - FEED_RESULTS:
                    ledger.rows[entry_id] = (float(i), values)
            ledgers.append(ledger)
        return ledgers
    finally:
        store.close()


class Server:
    """A telemetry-serve subprocess on an ephemeral loopback port."""

    def __init__(self, data_dir: Path, work: Path, probe: Ledger, spans_path=None):
        env = dict(os.environ)
        src = str(BENCH_DIR.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["TMPDIR"] = str(work)
        args = ["--port", "0", "--data-dir", str(data_dir), "--sim-time"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "showersim.telemetry.server", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(spans_path), *args]
        start = perf_counter()
        self.log = open(work / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log, env=env)
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace").strip()
            if not line.startswith("listening on http://"):
                raise RuntimeError(f"telemetry-serve did not start: {line!r}")
            host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
            self.host, self.port = host, int(port)
            # Set-up ends when the first request is answered.
            conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                status, body = _get(conn, _last_path(probe, 1))
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"first request answered {status}")
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = perf_counter() - start

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _get(conn: http.client.HTTPConnection, path: str):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _last_path(channel, position: int) -> str:
    """`channel` is a Channel or a Ledger: anything with channel_id and read_key."""
    return f"/channels/{channel.channel_id}/fields/{position}/last.txt?api_key={channel.read_key}"


def _feeds_path(channel) -> str:
    return f"/channels/{channel.channel_id}/feeds.json?api_key={channel.read_key}&results={FEED_RESULTS}"


class Traffic:
    """Closed-loop device and dashboard against one server, for one phase."""

    def __init__(self, res: Result, ledgers: list, seed: int):
        self.res = res
        big, *small = ledgers
        # Three in four requests go to the big feed, so each median sits well
        # inside its latency mode rather than between the big and small ones.
        self.cycle = [ch for s in small for ch in (big, big, big, s)]
        self.lock = threading.Lock()
        self.samples = {"update": [], "last": [], "feeds": []}
        self.replies: list = []  # (kind, ledger, position, low id, high id, body)
        self.posts = [0, 0]  # attempted, accepted
        self.device_rng = random.Random(seed * 7919 + 1)
        self.dashboard_rng = random.Random(seed * 7919 + 2)

    def _fail(self, message: str) -> None:
        with self.lock:
            self.res.check(False, message)

    def device(self, url: str, deadline: float) -> None:
        client = agent.TelemetryClient(url)
        i = 0
        while perf_counter() < deadline:
            ledger = self.cycle[i % len(self.cycle)]
            i += 1
            values = _device_values(self.device_rng)
            with self.lock:
                expected = ledger.acked + 1
                created_at = ledger.next_created
                ledger.next_created += 1.0
                ledger.rows[expected] = (created_at, values)
                ledger.issued = expected
            start = perf_counter()
            status, entry_id = client.post_update(ledger.write_key, values, created_at)
            elapsed = perf_counter() - start
            with self.lock:
                self.samples["update"].append(elapsed)
                self.posts[0] += 1
                self.res.attempted += 1
                if not entry_id:  # transport error, non-200 or rejected (id 0)
                    self.res.check(False, f"post to channel {ledger.channel_id}: {status} id {entry_id}")
                    continue
                self.posts[1] += 1
                self.res.check(
                    entry_id == expected,
                    f"channel {ledger.channel_id}: entry id {entry_id} after {expected - 1}",
                )
                ledger.acked = entry_id

    def dashboard(self, host: str, port: int, deadline: float) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while perf_counter() < deadline:
                for ledger in self.cycle:
                    position = self.dashboard_rng.randint(1, 5)
                    self._read(conn, ledger, "last", position)
                    self._read(conn, ledger, "feeds", position)
        finally:
            conn.close()

    def _read(self, conn, ledger: Ledger, kind: str, position: int) -> None:
        """One timed GET; the reply is kept and checked by verify() after the run,
        so checking costs the closed loop nothing."""
        path = _last_path(ledger, position) if kind == "last" else _feeds_path(ledger)
        low = ledger.acked  # newest id acknowledged before the request
        with self.lock:
            self.res.attempted += 1
        start = perf_counter()
        try:
            status, body = _get(conn, path)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # reconnects on the next request
            self._fail(f"GET {path}: {exc!r}")
            return
        self.samples[kind].append(perf_counter() - start)
        if status != 200:
            self._fail(f"GET {path}: HTTP {status}")
            return
        self.replies.append((kind, ledger, position, low, ledger.issued, body))

    def verify(self) -> None:
        """Check every kept reply against what the device and prefill wrote."""
        for kind, ledger, position, low, high, body in self.replies:
            label = f"channel {ledger.channel_id} {kind}"
            if kind == "last":
                text = body.decode("utf-8")
                if text not in {str(ledger.rows[i][1][position]) for i in range(low, high + 1)}:
                    self.res.check(False, f"{label} field{position} {text!r} not written in ids {low}..{high}")
                continue
            try:
                feeds = json.loads(body)["feeds"]
            except (ValueError, KeyError) as exc:
                self.res.check(False, f"{label}: {exc!r}")
                continue
            ids = [row["entry_id"] for row in feeds]
            newest = ids[-1] if ids else 0
            self.res.check(low <= newest <= high, f"{label}: newest id {newest} outside {low}..{high}")
            self.res.check(
                newest >= ledger.newest_seen,
                f"{label}: newest id {newest} older than an earlier read's {ledger.newest_seen}",
            )
            ledger.newest_seen = max(ledger.newest_seen, newest)
            self.res.check(
                ids == list(range(newest - len(ids) + 1, newest + 1)) and len(ids) == min(FEED_RESULTS, newest),
                f"{label}: entry ids are not the consecutive newest page",
            )
            stamps = [row["created_at"] for row in feeds]
            self.res.check(all(a <= b for a, b in zip(stamps, stamps[1:])), f"{label}: created_at decreases")
            for row in feeds:
                created_at, values = ledger.rows.get(row["entry_id"], (None, {}))
                fields = {k: v for k, v in row.items() if k.startswith("field")}
                if row["created_at"] != created_at or fields != {f"field{p}": v for p, v in values.items()}:
                    self.res.check(False, f"{label}: entry {row['entry_id']} differs from what was written")
                    break

    def run(self, server: Server, seconds: float) -> float:
        """Both callers for `seconds`; returns the measured wall time."""
        deadline = perf_counter() + seconds
        errors = []

        def guarded(target, *args):
            try:
                target(*args)
            except Exception as exc:  # a caller that dies must fail the run, not hang it
                errors.append(repr(exc))

        start = perf_counter()
        threads = [
            threading.Thread(target=guarded, args=(self.device, server.url, deadline)),
            threading.Thread(target=guarded, args=(self.dashboard, server.host, server.port, deadline)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - start
        for error in errors:
            self._fail(f"caller crashed: {error}")
        self.verify()
        return wall


def run_mixed(seed: int, seconds: float, work: Path, tracer=None) -> Result:
    res = Result(generator={"threads": 2, "connections": 2})
    data_dir = work / "data"
    ledgers = _prefill(data_dir, random.Random(seed))
    big = ledgers[0]
    bytes_before = _dir_bytes(data_dir)
    traffic = Traffic(res, ledgers, seed)

    launches = SERVER_LAUNCHES if tracer is None else 1
    setups = []
    for i in range(launches):
        server = Server(data_dir, work, big)
        setups.append(server.setup_s)
        if i < launches - 1:
            server.stop()
    try:
        wall = traffic.run(server, seconds if tracer is None else seconds / 2)
    finally:
        server.stop()
    requests = sum(len(s) for s in traffic.samples.values())
    untraced = {
        "requests_per_s": requests / wall,
        "ticks_per_s": traffic.posts[1] / wall,
    }

    if tracer is None:
        res.values = {
            **untraced,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
    else:
        spans_path = work / "server-spans.json"
        traced = Traffic(res, ledgers, seed + 1)
        tracing.install(tracer)
        try:
            server = Server(data_dir, work, big, spans_path=spans_path)
            try:
                wall = traced.run(server, seconds / 2)
            finally:
                server.stop()
        finally:
            tracer.restore()
        tracer.merge_file(spans_path)
        traced_requests = sum(len(s) for s in traced.samples.values())
        accepted = traffic.posts[1] + traced.posts[1]
        res.values = layer_metrics(
            tracer,
            wall_s=wall,
            replays=1,
            overhead_ratio=(traced_requests / wall) / untraced["requests_per_s"],
            log_bytes_per_entry=(_dir_bytes(data_dir) - bytes_before) / max(accepted, 1),
            posts=tuple(traced.posts),
        )
        traffic = traced
    res.shape = {
        "prefilled_entries": PREFILL_ENTRIES,
        "channels": 1 + SMALL_CHANNELS,
        "device_posts": traffic.posts[0],
        "last_reads": len(traffic.samples["last"]),
        "feed_reads": len(traffic.samples["feeds"]),
        # Shown for reading the run; the gated figures are the closed-loop rates.
        "update_p50_ms": round(_ms(traffic.samples["update"]), 4),
        "last_p50_ms": round(_ms(traffic.samples["last"]), 4),
        "feeds_p50_ms": round(_ms(traffic.samples["feeds"]), 4),
        "request_p99_ms": round(
            statistics.quantiles([x for v in traffic.samples.values() for x in v], n=100)[98] * 1000, 4
        ),
    }
    return res


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer, wall_s, replays, overhead_ratio, log_bytes_per_entry, posts) -> dict:
    """Per-layer figures of one traced phase. Counts are per replay (per run
    on telemetry-mixed); a layer the workload never calls reads 0."""
    spans = tracing.summarize(tracer.spans)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(name, seconds=None):
        n = calls(name)
        return (total(name) if seconds is None else seconds) / n * 1e6 if n else 0.0

    ticks = calls("agent.tick")
    sensor_s = sum(total(f"sensors.{fn}") for fn in tracing.SENSOR_FUNCTIONS)
    handler_calls = calls("server.handler.post") + calls("server.handler.get")
    handler_self = self_time("server.handler.post") + self_time("server.handler.get")
    posts_handled = calls("server.handler.post")
    values = {
        "sensors.sample.us_per_tick": sensor_s / ticks * 1e6 if ticks else 0.0,
        "controller.step.us_per_call": per_call_us("controller.step"),
        "safety.fuse_tick.us_per_call": per_call_us("safety.fuse_tick"),
        "agent.tick.self_us_per_call": per_call_us("agent.tick", self_time("agent.tick")),
        "agent.post.us_per_call": per_call_us("agent.post"),
        "agent.post.share": total("agent.post") / wall_s,
        "server.handler.us_per_call": handler_self / handler_calls * 1e6 if handler_calls else 0.0,
        "server.http_overhead_us_per_post": (
            (total("agent.post") - total("server.handler.post")) / posts_handled * 1e6
            if posts_handled
            else 0.0
        ),
        "server.connections": calls("server.connection") / replays,
        "store.write_update.us_per_call": per_call_us("store.write_update"),
        "store.log_bytes_per_entry": log_bytes_per_entry,
        "store.read_last_field.us_per_call": per_call_us("store.read_last_field"),
        "store.read_feed.us_per_call": per_call_us("store.read_feed"),
        "store.replay_s": total("store.init") / calls("store.init") if calls("store.init") else 0.0,
        "scenario.parse_scenario_s": (
            total("scenario.parse_scenario") / calls("scenario.parse_scenario")
            if calls("scenario.parse_scenario")
            else 0.0
        ),
        "scenario.apply_event.calls": calls("scenario.apply_event") / replays,
        "runner.emit_report_s": total("runner.emit_report") / replays,
        "runner.analyze_occupancy_s": total("runner.analyze_occupancy") / replays,
        "agent.posts_attempted": posts[0],
        "agent.posts_accepted": posts[1],
        "agent.queue_max": tracer.maxima.get("agent.queue_max", 0),
        "controller.transitions": tracer.counts["controller.transitions"] / replays,
        "trace.overhead_ratio": overhead_ratio,
    }
    for kind in agent.ALERT_CODES:
        values[f"safety.alerts.{kind.value}"] = tracer.counts[f"safety.alerts.{kind.value}"] / replays
    return values
