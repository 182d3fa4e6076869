"""Shower control state machine.

Occupancy classification from the proximity reading, water-mode selection
from the outdoor temperature and a hard scald ceiling on discharge
temperature. The LED outputs that stand in for the nozzle actuators are not
state: `actuator_outputs` derives them from the occupancy and the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Occupancy(str, Enum):
    OCCUPIED = "occupied"
    EMPTY = "empty"
    __str__ = str.__str__  # the value, so a member prints as its report cell


class WaterMode(str, Enum):
    OFF = "off"
    HOT = "hot"
    COLD = "cold"
    NORMAL = "normal"
    __str__ = str.__str__


class PreferenceMode(Enum):
    AUTO = "auto"
    FIXED = "fixed"


# The members the tick path reads, bound once as module globals: on Python
# 3.10 and 3.11 a read off an Enum class goes through EnumType.__getattr__,
# about ten times slower than a global.
OCCUPIED, EMPTY = Occupancy.OCCUPIED, Occupancy.EMPTY
OFF, HOT, COLD, NORMAL = WaterMode.OFF, WaterMode.HOT, WaterMode.COLD, WaterMode.NORMAL
FIXED = PreferenceMode.FIXED


LED_COLORS = ("blue", "yellow", "green", "red")

# One indicator LED per running water mode.
MODE_LED = {WaterMode.COLD: "yellow", WaterMode.HOT: "green", WaterMode.NORMAL: "red"}

# Discharge setpoints used when no fixed user preference applies.
NOMINAL_DISCHARGE_C = {WaterMode.HOT: 45.0, WaterMode.COLD: 20.0, WaterMode.NORMAL: 37.0}

@dataclass(frozen=True)
class ControllerConfig:
    activation_cm: float = 60.0
    deactivation_cm: float = 60.0
    t_hot_c: float = 22.0
    t_cold_c: float = 23.0
    humidity_threshold_pct: float = 10.0  # recorded only; no control action
    max_discharge_c: float = 50.0

    def __post_init__(self) -> None:
        if self.activation_cm > self.deactivation_cm:
            raise ValueError("activation_cm must not exceed deactivation_cm")
        if self.t_hot_c > self.t_cold_c:
            raise ValueError("t_hot_c must not exceed t_cold_c")
        if self.max_discharge_c <= 0:
            raise ValueError("max_discharge_c must be positive")


@dataclass(frozen=True)
class UserProfile:
    preferred_temp: Optional[float] = None
    preference_mode: PreferenceMode = PreferenceMode.AUTO

    def __post_init__(self) -> None:
        if self.preference_mode is PreferenceMode.FIXED and self.preferred_temp is None:
            raise ValueError("fixed preference requires preferred_temp")


@dataclass(frozen=True)
class ControllerState:
    occupancy: Occupancy = Occupancy.EMPTY
    mode: WaterMode = WaterMode.OFF
    discharge_temp: float = 0.0
    occupied_since: Optional[float] = None


def classify_occupancy(distance: float, prev: Occupancy, cfg: ControllerConfig) -> Occupancy:
    """Occupied below activation, empty at/after deactivation, else hold.

    With equal thresholds (the bench default, 60 cm) this is a single-cutoff
    rule; spreading them apart enables hysteresis.
    """
    if distance < 0:
        raise ValueError("distance must be >= 0")
    if distance < cfg.activation_cm:
        return OCCUPIED
    if distance >= cfg.deactivation_cm:
        return EMPTY
    return prev


def select_water_mode(
    temp_c: float, cfg: ControllerConfig, profile: Optional[UserProfile] = None
) -> WaterMode:
    """Pick the discharge mode opposite to the outdoor temperature."""
    if profile is not None and profile.preference_mode is FIXED:
        return NORMAL
    if temp_c < cfg.t_hot_c:
        return HOT
    if temp_c >= cfg.t_cold_c:
        return COLD
    return NORMAL


def clamp_discharge_temperature(requested: float, cfg: ControllerConfig) -> float:
    """Cap the requested discharge temperature at the scald ceiling."""
    if not math.isfinite(requested):
        raise ValueError("requested temperature must be finite")
    return min(float(requested), cfg.max_discharge_c)


def actuator_outputs(state: ControllerState) -> frozenset:
    """Blue while occupied plus exactly one mode LED while water runs."""
    leds = set()
    if state.occupancy is Occupancy.OCCUPIED:
        leds.add("blue")
    mode_led = MODE_LED.get(state.mode)
    if mode_led is not None:
        leds.add(mode_led)
    return frozenset(leds)


# (occupancy, mode) -> the LEDs actuator_outputs lights for that state
_LEDS = {
    (occupancy, mode): actuator_outputs(ControllerState(occupancy, mode))
    for occupancy in Occupancy
    for mode in WaterMode
}


def step(
    state: ControllerState,
    distance: float,
    temp_c: float,
    cfg: ControllerConfig,
    profile: Optional[UserProfile] = None,
    now: float = 0.0,
    water_locked: bool = False,
) -> tuple[ControllerState, list[str]]:
    """Advance the state machine one tick from the ranger distance and temperature.

    While water_locked (a safety shut-off for this episode) an occupied
    shower stays occupied but runs no water. Commands are emitted only for
    what changed: the mode, and each LED that `actuator_outputs` lights for
    the state before and not after, or after and not before. A tick that
    changes nothing returns the same state object and no commands.
    """
    occupancy = classify_occupancy(distance, state.occupancy, cfg)
    if occupancy is OCCUPIED:
        occupied_since = state.occupied_since if state.occupancy is OCCUPIED else now
    else:
        occupied_since = None
    if occupancy is EMPTY or water_locked:
        mode = OFF
        discharge = 0.0
    else:
        mode = select_water_mode(temp_c, cfg, profile)
        if profile is not None and profile.preference_mode is FIXED:
            discharge = clamp_discharge_temperature(profile.preferred_temp, cfg)
        else:
            discharge = clamp_discharge_temperature(NOMINAL_DISCHARGE_C[mode], cfg)
    if (
        occupancy is state.occupancy
        and mode is state.mode
        and discharge == state.discharge_temp
        and occupied_since == state.occupied_since
    ):
        return state, []

    commands: list[str] = []
    if mode is not state.mode:
        commands.append("water off" if mode is OFF else f"mode {mode.value}")
    before, leds = _LEDS[state.occupancy, state.mode], _LEDS[occupancy, mode]
    for color in LED_COLORS:
        after = color in leds
        if after != (color in before):
            commands.append(f"led {color} {'on' if after else 'off'}")
    return ControllerState(occupancy, mode, discharge, occupied_since), commands
