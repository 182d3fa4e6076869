"""Simulated device-side loop.

Each tick: sample every sensor, advance the controller, run the safety
fusion, post the mapped fields to the telemetry channel and, on display
boundaries, render the console status block. A post goes over HTTP
(TelemetryClient) or straight into an in-process store (StoreClient); both
answer with the status line of the API, taken from the store error's status.
TelemetryClient reads each answer's headers and body length by the rules
telemetry-serve reads requests by (`telemetry.wire`); an answer it cannot
frame reads `unreachable`, so the post stays queued.
"""

from __future__ import annotations

import logging
import math
import random
import socket
import string
from collections import deque
from dataclasses import dataclass
from http import HTTPStatus
from types import MappingProxyType
from typing import Optional
from urllib.parse import quote_plus, urlsplit

from .controller import (
    EMPTY,
    OCCUPIED,
    OFF,
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
from .telemetry.store import TelemetryError, TelemetryStore
from .telemetry.wire import MAX_LINE_BYTES, body_length, read_headers

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


def _split_server_url(base_url: str):
    """The parts of a telemetry server URL, which must be http://host[:port]."""
    url = urlsplit(base_url)
    if url.scheme != "http" or not url.hostname:
        raise ValueError(f"telemetry server URL must be http://host[:port], got {base_url!r}")
    url.port  # raises ValueError for a bad port
    return url


@dataclass
class AgentConfig:
    tick_s: float = 1.0
    display_every_s: float = 30.0
    write_key: str = ""
    server_url: str = ""
    sound_threshold: float = 0.5
    queue_limit: int = 120

    # Not a field: no config key, constructor argument or replace() sets it.
    field_map = MappingProxyType(DEFAULT_FIELD_MAP)

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        ratio = self.display_every_s / self.tick_s
        if not math.isfinite(ratio):  # a subnormal tick_s overflows it
            raise ValueError(
                f"display_every_s / tick_s is not a finite number (tick_s = {self.tick_s!r})"
            )
        if self.display_every_s <= 0 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("display_every_s must be a positive multiple of tick_s")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if not 0 <= self.sound_threshold <= 1:
            raise ValueError("sound_threshold must lie in [0, 1]")
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
    if mode is OFF:
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


_UNRESERVED = frozenset(string.ascii_letters + string.digits + "_.-~")  # quote_plus keeps these


def _form_text(value) -> str:
    """A form key or value as urlencode writes it: quote_plus of its str()."""
    text = value if type(value) is str else str(value)
    return text if _UNRESERVED.issuperset(text) else quote_plus(text)


class TelemetryClient:
    """Posts channel updates over the wire protocol on one keep-alive connection.

    Each post leaves in one write: the request head and its form body. The
    answer is read from the socket's buffered file: the status line, then the
    headers and Content-Length bytes of body under `telemetry.wire`'s rules.
    An answer carrying `Connection: close` closes the socket after it; one
    that cannot be framed closes it and reads `unreachable`.
    """

    def __init__(self, base_url: str, timeout_s: float = 5.0):
        url = _split_server_url(base_url)
        self._address = (url.hostname, url.port or 80)
        self._timeout_s = timeout_s
        self._head = (
            f"POST {url.path.rstrip('/')}/update HTTP/1.1\r\n"
            f"Host: {url.netloc.rpartition('@')[2]}\r\n"
            "Content-Type: application/x-www-form-urlencoded\r\n"
            "Content-Length: "
        ).encode("ascii")
        self._sock = None
        self._answers = None  # the socket's buffered reading file

    def post_update(self, write_key: str, values: dict, created_at: float):
        """Returns (transport status line, entry id or None on transport failure)."""
        form = {"api_key": write_key, "created_at": repr(float(created_at))}
        for position, value in values.items():
            form[f"field{position}"] = value
        body = "&".join(f"{_form_text(k)}={_form_text(v)}" for k, v in form.items()).encode("ascii")
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        while True:  # a second pass only ever runs on a fresh connection
            reused = self._sock is not None
            if reused and _peer_closed(self._sock):
                self.close()
                reused = False
            try:
                if self._sock is None:
                    self._connect()
                try:
                    self._sock.sendall(request)
                    status_line = self._answers.readline(MAX_LINE_BYTES + 1)
                except BrokenPipeError:
                    status_line = b""
                if not status_line:
                    # Closed before any answer byte: the server never took this
                    # post, so one retry on a fresh connection cannot store it twice.
                    self.close()
                    if reused:
                        continue
                    return "unreachable", None
                code, status, reply = self._read_answer(status_line)
            except (OSError, ValueError):  # a garbled or cut answer, a timeout, a reset
                self.close()
                return "unreachable", None
            break
        if code != 200:
            return status, None
        try:
            return status, int(reply)
        except ValueError:
            return status, None

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, self._timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._answers = self._sock.makefile("rb")

    def _read_answer(self, status_line: bytes) -> tuple:
        """(status code, status text, body) of the answer whose status line
        was read; raises ValueError, a wire.Refusal for its headers or body
        length, for an answer this client cannot frame."""
        version, code, *reason = status_line.split(None, 2)
        if not (version.startswith(b"HTTP/") and len(code) == 3 and code.isdigit()):
            raise ValueError(f"bad status line {status_line[:100]!r}")
        if not status_line.endswith(b"\n"):
            raise ValueError("status line cut short or too long")
        headers = read_headers(self._answers)
        length = body_length(headers, required=True)
        body = self._answers.read(length)
        if len(body) < length:
            raise ValueError("answer body cut short")
        if headers.get("connection", "").lower() == "close":
            self.close()
        code = int(code)
        return code, f"{code} {reason[0].strip().decode('iso-8859-1') if reason else ''}", body

    def close(self) -> None:
        if self._sock is not None:
            self._answers.close()
            self._sock.close()
            self._sock = self._answers = None


class StoreClient:
    """Posts straight into an in-process store, answering as the HTTP API would."""

    def __init__(self, store: TelemetryStore):
        self.store = store

    def post_update(self, write_key: str, values: dict, created_at: float):
        try:
            return "200 OK", self.store.write_update(write_key, values, created_at)
        except TelemetryError as exc:
            return f"{exc.status} {HTTPStatus(exc.status).phrase}", None

    def close(self) -> None:
        self.store.close()


@dataclass(slots=True)
class TickResult:
    """One tick's record and report row: `runner.CSV_COLUMNS`, then alerts and console."""

    time_s: float
    distance_cm: int
    temp_c: int
    humidity_pct: int
    occupancy: Occupancy
    mode: WaterMode
    entry_id: int
    alerts: list
    console: Optional[str]


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
        self.posts_attempted = 0
        self.posts_accepted = 0
        self.posts_rejected = 0
        self.posts_dropped = 0
        self.posts_refused = 0
        self.last_status = "no transport"
        self._humidity_flag = False

    def tick(self, env: EnvironmentState, now: float) -> TickResult:
        rng = self.rng
        us1, us2, us3 = self.sensors
        ranges = (
            ultrasonic_measure(env, us1, rng),
            ultrasonic_measure(env, us2, rng),
            ultrasonic_measure(env, us3, rng),
        )
        temp_c, humidity = dht_measure(env)
        sound_bit = sound_sample(env, self.cfg.sound_threshold)
        gesture = gesture_poll(env)

        control = (ranges[0], temp_c, self.controller_cfg, self.profile, now)
        new_state, _ = step(self.state, *control, water_locked=self.engine.water_locked)

        activation = self.controller_cfg.activation_cm
        per_sensor = (
            OCCUPIED if ranges[0] < activation else EMPTY,
            OCCUPIED if ranges[1] < activation else EMPTY,
            OCCUPIED if ranges[2] < activation else EMPTY,
        )
        alerts, _ = self.engine.fuse_tick(per_sensor, sound_bit, gesture, new_state, now)
        if self.engine.water_locked and new_state.mode is not OFF:
            # the engine has just locked the water: redo this tick's step locked
            new_state, _ = step(self.state, *control, water_locked=True)
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
        payload = {pos: quantities[name] for pos, name in DEFAULT_FIELD_MAP.items()}
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
            alerts=alerts,
            console=console,
        )

    def _display_boundary(self, now: float) -> bool:
        ratio = now / self.cfg.display_every_s
        return abs(ratio - round(ratio)) < 1e-9

    def _post(self, payload: dict, now: float) -> int:
        """Queue this tick's payload, then post the queue oldest first.

        A 4xx answer is final: the post is counted as refused and dropped
        from the queue. Posting stops at any other failure (unreachable, 5xx),
        which leaves the rest queued (bounded, oldest dropped first). Returns
        this tick's entry id, 0 if it was rate-limited, refused or is still
        queued.
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
            if entry_id is None and not self.last_status.startswith("4"):
                return 0  # unreachable or 5xx: the post may be taken later
            self.queue.popleft()
            if entry_id is None:  # 4xx: the server will never take this post
                self.posts_refused += 1
                entry_id = 0
            elif entry_id > 0:
                self.posts_accepted += 1
            else:
                self.posts_rejected += 1
        return entry_id
