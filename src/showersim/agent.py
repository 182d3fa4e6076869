"""Simulated device-side loop.

Each tick: sample every sensor, advance the controller, run the safety
fusion, post the mapped fields to the telemetry channel and, on display
boundaries, render the console status block.
"""

from __future__ import annotations

import http.client
import logging
import random
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import urlencode, urlsplit

from .controller import (
    ControllerConfig,
    ControllerState,
    Occupancy,
    UserProfile,
    WaterMode,
    step,
)
from .safety import AlertKind, SafetyConfig, SafetyEngine
from .sensors import (
    EnvironmentState,
    default_ultrasonic_array,
    dht_measure,
    gesture_poll,
    round_half_up,
    sound_sample,
    ultrasonic_measure,
)
from .telemetry.store import (
    AuthenticationError,
    NotFoundError,
    TelemetryError,
    TelemetryStore,
    ValidationError,
)

logger = logging.getLogger(__name__)

MODE_CODES = {WaterMode.OFF: 0, WaterMode.HOT: 1, WaterMode.COLD: 2, WaterMode.NORMAL: 3}
ALERT_CODES = {
    AlertKind.FALL: 1,
    AlertKind.HELP_GESTURE: 2,
    AlertKind.PROLONGED_HOT: 3,
    AlertKind.OCCUPANCY_TIMEOUT: 4,
}
MODE_PHRASES = {
    WaterMode.HOT: "hot",
    WaterMode.COLD: "cold",
    WaterMode.NORMAL: "normal temperature",
}

DEFAULT_FIELD_MAP = {
    1: "distance_cm",
    2: "temperature_c",
    3: "humidity_pct",
    4: "mode_code",
    5: "alert_code",
}


def _split_server_url(base_url: str) -> tuple:
    """(host, port, path) of a telemetry server URL, which must be http://host[:port]."""
    url = urlsplit(base_url)
    if url.scheme != "http" or not url.hostname:
        raise ValueError(f"telemetry server URL must be http://host[:port], got {base_url!r}")
    return url.hostname, url.port, url.path  # .port raises ValueError for a bad port


@dataclass
class AgentConfig:
    tick_s: float = 1.0
    display_every_s: float = 30.0
    write_key: str = ""
    server_url: str = ""
    field_map: dict = field(default_factory=lambda: dict(DEFAULT_FIELD_MAP))
    sound_threshold: float = 0.5
    queue_limit: int = 120

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        ratio = self.display_every_s / self.tick_s
        if self.display_every_s <= 0 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("display_every_s must be a positive multiple of tick_s")
        positions = list(self.field_map)
        if any(not (1 <= p <= 8) for p in positions):
            raise ValueError("field positions must lie in 1..8")
        if len(set(self.field_map.values())) != len(positions):
            raise ValueError("field map quantities must be unique")
        unknown = set(self.field_map.values()) - set(DEFAULT_FIELD_MAP.values())
        if unknown:
            raise ValueError(f"unknown field map quantities: {sorted(unknown)}")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.server_url:
            _split_server_url(self.server_url)


def render_status(
    distance: int, temp_c: int, humidity_pct, transport_status: str, mode: WaterMode
) -> str:
    """The console status block shown on the monitor, one item per line."""
    lines = [
        f"Distance: {distance}",
        f"Temperature: {temp_c}",
        f"Humidity: {float(humidity_pct):.1f}",
        str(transport_status),
    ]
    if mode is WaterMode.OFF:
        lines.append("Shower room empty")
    else:
        lines.extend(
            [
                "Shower Turned on",
                f"Temperature ={temp_c}",
                f"Humidity ={int(humidity_pct)}%",
                f"Turn on {MODE_PHRASES[mode]} shower",
            ]
        )
    return "\n".join(lines) + "\n"


_FORM_HEADERS = {"Content-Type": "application/x-www-form-urlencoded"}

# The status line the HTTP API answers each store rejection with.
_REJECTED_STATUS = {
    AuthenticationError: "401 Unauthorized",
    ValidationError: "400 Bad Request",
    NotFoundError: "404 Not Found",
}


def _peer_closed(sock) -> bool:
    """An idle keep-alive socket with anything to read has been closed by the peer."""
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)  # b"" at end of stream, or unsolicited bytes
    except BlockingIOError:
        return False
    except OSError:
        pass
    finally:
        sock.settimeout(timeout)
    return True


class TelemetryClient:
    """Posts channel updates over the wire protocol on one keep-alive connection."""

    def __init__(self, base_url: str, timeout_s: float = 5.0):
        host, port, path = _split_server_url(base_url)
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        self._path = path.rstrip("/") + "/update"

    def post_update(self, write_key: str, values: dict, created_at: float):
        """Returns (transport status line, entry id or None on transport failure)."""
        form = {"api_key": write_key, "created_at": repr(float(created_at))}
        for position, value in values.items():
            form[f"field{position}"] = value
        body = urlencode(form).encode("ascii")
        while True:  # a second pass only ever runs on a fresh connection
            reused = self._conn.sock is not None
            if reused and _peer_closed(self._conn.sock):
                self._conn.close()
                reused = False
            try:
                self._conn.request("POST", self._path, body, _FORM_HEADERS)
                response = self._conn.getresponse()
                reply = response.read()
            except (http.client.RemoteDisconnected, BrokenPipeError):
                # Dead before any response byte: the server never took this
                # post, so one retry on a fresh connection cannot store it twice.
                self._conn.close()
                if reused:
                    continue
                return "unreachable", None
            except (OSError, http.client.HTTPException):
                self._conn.close()
                return "unreachable", None
            break
        status = f"{response.status} {response.reason}"
        if response.status != 200:
            return status, None
        try:
            return status, int(reply.strip())
        except ValueError:
            return status, None

    def close(self) -> None:
        self._conn.close()


class StoreClient:
    """Posts straight into an in-process store, answering as the HTTP API would."""

    def __init__(self, store: TelemetryStore):
        self.store = store

    def post_update(self, write_key: str, values: dict, created_at: float):
        try:
            return "200 OK", self.store.write_update(write_key, values, created_at)
        except TelemetryError as exc:
            return _REJECTED_STATUS[type(exc)], None

    def close(self) -> None:
        self.store.close()


@dataclass
class TickResult:
    time_s: float
    distance_cm: int
    temp_c: int
    humidity_pct: int
    occupancy: Occupancy
    mode: WaterMode
    entry_id: int
    payload: dict
    alerts: list
    commands: list
    console: Optional[str]
    transport_status: str
    humidity_above_threshold: bool = False  # informational flag; no control action


class DeviceAgent:
    """Owns the per-device state bundle and drives one tick at a time.

    `client` posts the payloads (a TelemetryClient, a StoreClient or anything
    with the same post_update); None means no transport. The caller closes it.
    """

    def __init__(
        self,
        cfg: AgentConfig,
        controller_cfg: Optional[ControllerConfig] = None,
        safety_cfg: Optional[SafetyConfig] = None,
        sensor_cfgs=None,
        profile: Optional[UserProfile] = None,
        seed: int = 0,
        client: Optional[TelemetryClient] = None,
    ):
        self.cfg = cfg
        self.controller_cfg = controller_cfg or ControllerConfig()
        self.safety_cfg = safety_cfg or SafetyConfig()
        self.sensors = tuple(sensor_cfgs) if sensor_cfgs is not None else default_ultrasonic_array()
        if len(self.sensors) != 3:
            raise ValueError("the agent drives exactly three ultrasonic rangers")
        self.profile = profile
        self.client = client
        self.rng = random.Random(seed)
        self.state = ControllerState()
        self.engine = SafetyEngine(self.safety_cfg)
        self.queue = deque()
        self.water_lockout = False
        self.posts_attempted = 0
        self.posts_accepted = 0
        self.posts_rejected = 0
        self.posts_dropped = 0
        self.last_status = "no transport"
        self._humidity_flag = False

    def tick(self, env: EnvironmentState, now: float) -> TickResult:
        ranges = [ultrasonic_measure(env, cfg, self.rng) for cfg in self.sensors]
        temp_c, humidity = dht_measure(env)
        sound_bit = sound_sample(env, self.cfg.sound_threshold)
        gesture = gesture_poll(env)

        control = (ranges[0], temp_c, self.controller_cfg, self.profile, now)
        new_state, commands = step(self.state, *control, water_locked=self.water_lockout)
        if new_state.occupancy is Occupancy.EMPTY:
            self.water_lockout = False  # episode over; lockout ends with it

        per_sensor = tuple(
            Occupancy.OCCUPIED if r < self.controller_cfg.activation_cm else Occupancy.EMPTY
            for r in ranges
        )
        alerts, safety_commands = self.engine.fuse_tick(
            per_sensor, sound_bit, gesture, new_state, now
        )
        if "water off" in safety_commands and new_state.occupancy is Occupancy.OCCUPIED:
            # redo the step locked; the engine's "water off" is this tick's command
            self.water_lockout = True
            new_state, _ = step(self.state, *control, water_locked=True)
        commands = commands + safety_commands
        self.state = new_state

        humidity_flag = humidity > self.controller_cfg.humidity_threshold_pct
        if humidity_flag != self._humidity_flag:
            logger.info(
                "humidity %d%% %s threshold %g%%",
                humidity,
                "above" if humidity_flag else "back below",
                self.controller_cfg.humidity_threshold_pct,
            )
            self._humidity_flag = humidity_flag
        distance = round_half_up(ranges[0])
        quantities = {
            "distance_cm": distance,
            "temperature_c": temp_c,
            "humidity_pct": humidity,
            "mode_code": MODE_CODES[new_state.mode],
            "alert_code": ALERT_CODES[alerts[0].kind] if alerts else 0,
        }
        payload = {pos: quantities[name] for pos, name in sorted(self.cfg.field_map.items())}
        entry_id = self._post(payload, now)

        console = None
        if self._display_boundary(now):
            console = render_status(distance, temp_c, humidity, self.last_status, new_state.mode)

        return TickResult(
            time_s=now,
            distance_cm=distance,
            temp_c=temp_c,
            humidity_pct=humidity,
            occupancy=new_state.occupancy,
            mode=new_state.mode,
            entry_id=entry_id,
            payload=payload,
            alerts=alerts,
            commands=commands,
            console=console,
            transport_status=self.last_status,
            humidity_above_threshold=humidity_flag,
        )

    def _display_boundary(self, now: float) -> bool:
        ratio = now / self.cfg.display_every_s
        return abs(ratio - round(ratio)) < 1e-9

    def _post(self, payload: dict, now: float) -> int:
        """Queue this tick's payload, then post the queue oldest first.

        Posting stops at the first transport failure, which leaves the rest
        queued (bounded, oldest dropped first). Returns this tick's entry id,
        0 if it was rate-limited or is still queued.
        """
        if len(self.queue) >= self.cfg.queue_limit:
            self.queue.popleft()
            self.posts_dropped += 1
        self.queue.append((now, payload))
        self.posts_attempted += 1
        if self.client is None:
            self.last_status = "no transport"
            return 0
        while self.queue:
            head_time, head_payload = self.queue[0]
            self.last_status, entry_id = self.client.post_update(
                self.cfg.write_key, head_payload, head_time
            )
            if entry_id is None:
                return 0
            self.queue.popleft()
            if entry_id > 0:
                self.posts_accepted += 1
            else:
                self.posts_rejected += 1
        return entry_id
