"""Danger detection for the shower space.

Three detection scenarios plus an occupancy timer: a fall signature from
the three-ranger geometry confirmed by a sound spike, a help gesture, a
prolonged hot-water discharge, and an open-ended occupancy episode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .controller import EMPTY, HOT, OCCUPIED, ControllerState, Occupancy
from .sensors import GestureCode


class AlertKind(Enum):
    FALL = "fall"
    HELP_GESTURE = "help_gesture"
    PROLONGED_HOT = "prolonged_hot"
    OCCUPANCY_TIMEOUT = "occupancy_timeout"

    # Members compare by identity, so the C-level identity hash serves: the
    # `in self._fired` tests every tick makes skip the Python-level Enum.__hash__.
    __hash__ = object.__hash__


class GestureMeaning(Enum):
    HELP = "help"
    OKAY = "okay"
    NONE = "none"


# Read per tick, so bound as module globals (see controller.OCCUPIED).
FALL, HELP_GESTURE = AlertKind.FALL, AlertKind.HELP_GESTURE
PROLONGED_HOT, OCCUPANCY_TIMEOUT = AlertKind.PROLONGED_HOT, AlertKind.OCCUPANCY_TIMEOUT
HELP, OKAY = GestureMeaning.HELP, GestureMeaning.OKAY


# Right or a wave calls for help; left signals the patron is okay.
GESTURE_MEANINGS = {
    GestureCode.RIGHT: GestureMeaning.HELP,
    GestureCode.WAVE: GestureMeaning.HELP,
    GestureCode.LEFT: GestureMeaning.OKAY,
}


@dataclass(frozen=True)
class Alert:
    kind: AlertKind
    timestamp: float
    evidence: str


MAX_THUD_WINDOW_SAMPLES = 100_000


@dataclass(frozen=True)
class SafetyConfig:
    occupancy_alert_s: float = 1800.0
    prolonged_hot_s: float = 1200.0
    thud_window_samples: int = 10
    thud_min_ones: int = 3
    geometry_confirm_ticks: int = 2
    require_thud: bool = True  # False: confirmed geometry alone raises a fall

    def __post_init__(self) -> None:
        for name in (
            "occupancy_alert_s",
            "prolonged_hot_s",
            "thud_window_samples",
            "thud_min_ones",
            "geometry_confirm_ticks",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # The engine allocates the whole sound window up front, so an unbounded
        # one asks for gigabytes before the first tick; 100,000 samples is
        # over a day of 1 s ticks.
        if self.thud_window_samples > MAX_THUD_WINDOW_SAMPLES:
            raise ValueError(f"thud_window_samples must be at most {MAX_THUD_WINDOW_SAMPLES:,}")
        # detect_thud needs a quiet sample before the loud ones, so a window
        # holds at most thud_window_samples - 1 of them after it.
        if self.thud_min_ones >= self.thud_window_samples:
            raise ValueError("thud_min_ones must be below thud_window_samples")


def detect_fall_geometry(us1: Occupancy, us2: Occupancy, us3: Occupancy) -> bool:
    """Fall signature: high and mid beams clear, floor beam blocked."""
    return us1 is EMPTY and us2 is EMPTY and us3 is OCCUPIED


def detect_thud(samples: Sequence[int], cfg: SafetyConfig) -> bool:
    """True when the window holds a spike: enough loud samples after silence.

    Sound that is loud for the entire window has no leading quiet sample and
    is treated as sustained noise, not a thud.
    """
    samples = list(samples)
    if len(samples) != cfg.thud_window_samples:
        raise ValueError(
            f"expected a window of {cfg.thud_window_samples} samples, got {len(samples)}"
        )
    try:
        first_quiet = samples.index(0)
    except ValueError:
        return False
    return sum(samples[first_quiet + 1 :]) >= cfg.thud_min_ones


def interpret_gesture(gesture: GestureCode) -> GestureMeaning:
    return GESTURE_MEANINGS.get(gesture, GestureMeaning.NONE)


def check_prolonged_hot(
    hot_since: Optional[float], now: float, cfg: SafetyConfig
) -> Optional[Alert]:
    """Alert when hot water has run without a break since `hot_since`."""
    if hot_since is None:
        return None
    duration = now - hot_since
    if duration >= cfg.prolonged_hot_s:
        return Alert(AlertKind.PROLONGED_HOT, now, f"hot water running for {duration:.15g} s")
    return None


def check_occupancy_timeout(
    occupied_since: Optional[float], now: float, cfg: SafetyConfig
) -> Optional[Alert]:
    if occupied_since is None:
        return None
    duration = now - occupied_since
    if duration >= cfg.occupancy_alert_s:
        return Alert(
            AlertKind.OCCUPANCY_TIMEOUT, now, f"shower occupied for {duration:.15g} s"
        )
    return None


class SafetyEngine:
    """Fuses the per-tick sensor picture into alerts.

    Owns the episode record: each alert kind fires at most once per occupancy
    episode, where an episode opens when a patron enters and the record is
    re-armed only by the next entry. The sound window and geometry streak are
    physical signals and carry across episode boundaries.
    """

    def __init__(self, cfg: SafetyConfig):
        self.cfg = cfg
        self._sound_window = deque(
            [0] * cfg.thud_window_samples, maxlen=cfg.thud_window_samples
        )
        self._geometry_streak = 0
        self._last_thud_tick: Optional[int] = None
        self._tick = -1
        self._fired: set[AlertKind] = set()
        self._help_pending = False
        self._hot_since: Optional[float] = None  # start of the current hot segment
        self._prev_occupancy = Occupancy.EMPTY

    @property
    def help_pending(self) -> bool:
        return self._help_pending

    @property
    def water_locked(self) -> bool:
        """No water from a prolonged-hot alert until the shower next empties."""
        return self._prev_occupancy is OCCUPIED and PROLONGED_HOT in self._fired

    def fuse_tick(
        self,
        sensor_occupancy: tuple[Occupancy, Occupancy, Occupancy],
        sound_bit: int,
        gesture: Optional[GestureCode],
        controller_state: ControllerState,
        now: float,
    ) -> tuple[list[Alert], list[str]]:
        """One fusion pass; returns (alerts, actuator commands)."""
        self._tick += 1
        alerts: list[Alert] = []
        commands: list[str] = []
        fired = self._fired

        occupancy = controller_state.occupancy
        if occupancy is not self._prev_occupancy:
            if occupancy is OCCUPIED:  # a patron entered: a new episode
                fired.clear()
                self._help_pending = False
            self._prev_occupancy = occupancy

        if controller_state.mode is not HOT:
            self._hot_since = None
        elif self._hot_since is None:
            self._hot_since = now

        window = self._sound_window
        window.append(1 if sound_bit else 0)
        # an all-quiet window holds no thud, so only a loud sample calls the detector
        if 1 in window and detect_thud(window, self.cfg):
            self._last_thud_tick = self._tick

        us1, us2, us3 = sensor_occupancy
        if detect_fall_geometry(us1, us2, us3):
            self._geometry_streak += 1
        else:
            self._geometry_streak = 0

        # Each kind fires at most once per episode, so once it has fired its
        # alert is not built again; nor is a duration check run with no segment.
        confirm = self.cfg.geometry_confirm_ticks
        thud_recent = (
            self._last_thud_tick is not None
            and self._tick - self._last_thud_tick <= confirm
        )
        if (
            self._geometry_streak >= confirm
            and (thud_recent or not self.cfg.require_thud)
            and FALL not in fired
        ):
            evidence = f"sensors 1-2 clear with sensor-3 obstacle for {self._geometry_streak} ticks"
            if self.cfg.require_thud:
                evidence += f"; thud within the last {confirm} ticks"
            self._emit(alerts, Alert(FALL, now, evidence))

        if gesture is not None:
            meaning = interpret_gesture(gesture)
            if meaning is HELP:
                help_alert = Alert(HELP_GESTURE, now, f"gesture {gesture.value}")
                if self._emit(alerts, help_alert):
                    self._help_pending = True
            elif meaning is OKAY and self._help_pending:
                self._help_pending = False
                commands.append("clear help")

        if (
            self._hot_since is not None
            and PROLONGED_HOT not in fired
            and self._emit(alerts, check_prolonged_hot(self._hot_since, now, self.cfg))
        ):
            commands.append("water off")
        occupied_since = controller_state.occupied_since
        if occupied_since is not None and OCCUPANCY_TIMEOUT not in fired:
            self._emit(alerts, check_occupancy_timeout(occupied_since, now, self.cfg))
        return alerts, commands

    def _emit(self, alerts: list[Alert], alert: Optional[Alert]) -> bool:
        """Record the alert unless its kind already fired this episode."""
        if alert is None or alert.kind in self._fired:
            return False
        self._fired.add(alert.kind)
        alerts.append(alert)
        return True
