"""Flat `key = value` run configuration.

Keys are routed to the config type that declares them; unknown keys are
rejected so typos fail loudly. Lines starting with `#` are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .agent import AgentConfig
from .controller import ControllerConfig, PreferenceMode, UserProfile
from .safety import SafetyConfig
from .sensors import default_ultrasonic_array


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    controller: ControllerConfig
    safety: SafetyConfig
    agent: AgentConfig
    sensors: tuple
    profile: Optional[UserProfile] = None


def default_run_config() -> RunConfig:
    return RunConfig(
        controller=ControllerConfig(),
        safety=SafetyConfig(),
        agent=AgentConfig(),
        sensors=default_ultrasonic_array(),
        profile=None,
    )


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# key -> (section, caster)
_KEYS = {
    "activation_cm": ("controller", _parse_float),
    "deactivation_cm": ("controller", _parse_float),
    "t_hot_c": ("controller", _parse_float),
    "t_cold_c": ("controller", _parse_float),
    "humidity_threshold_pct": ("controller", _parse_float),
    "max_discharge_c": ("controller", _parse_float),
    "occupancy_alert_s": ("safety", _parse_float),
    "prolonged_hot_s": ("safety", _parse_float),
    "thud_window_samples": ("safety", int),
    "thud_min_ones": ("safety", int),
    "geometry_confirm_ticks": ("safety", int),
    "require_thud": ("safety", _parse_bool),
    "tick_s": ("agent", _parse_float),
    "display_every_s": ("agent", _parse_float),
    "write_key": ("agent", str),
    "server_url": ("agent", str),
    "sound_threshold": ("agent", _parse_float),
    "queue_limit": ("agent", int),
    "mount_height_1": ("sensor", _parse_float),
    "mount_height_2": ("sensor", _parse_float),
    "mount_height_3": ("sensor", _parse_float),
    "min_range": ("sensor", _parse_float),
    "max_range": ("sensor", _parse_float),
    "noise_sigma": ("sensor", _parse_float),
    "user_id": ("profile", str),
    "pin": ("profile", str),
    "preferred_temp": ("profile", _parse_float),
    "preference_mode": ("profile", str),
}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    sections = {"controller": {}, "safety": {}, "agent": {}, "sensor": {}, "profile": {}}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source} line {line_no}: unknown config key {key!r}")
        section, caster = _KEYS[key]
        if key in sections[section]:
            raise ConfigError(f"{source} line {line_no}: duplicate key {key!r}")
        try:
            sections[section][key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source} line {line_no}: bad value for {key}: {exc}") from None

    try:
        controller = ControllerConfig(**sections["controller"])
        safety = SafetyConfig(**sections["safety"])
        agent = AgentConfig(**sections["agent"])
        sensors = _build_sensors(sections["sensor"])
        profile = _build_profile(sections["profile"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return RunConfig(controller, safety, agent, sensors, profile)


def load_config(path) -> RunConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def _build_sensors(options: dict) -> tuple:
    shared = {
        key: options[key] for key in ("min_range", "max_range", "noise_sigma") if key in options
    }
    sensors = []
    for index, base in enumerate(default_ultrasonic_array(), start=1):
        overrides = dict(shared)
        height_key = f"mount_height_{index}"
        if height_key in options:
            overrides["mount_height"] = options[height_key]
        sensors.append(replace(base, **overrides) if overrides else base)
    return tuple(sensors)


def _build_profile(options: dict) -> Optional[UserProfile]:
    if not options:
        return None
    for required in ("user_id", "pin"):
        if required not in options:
            raise ConfigError(f"profile settings require {required}")
    mode = options.get("preference_mode", "auto")
    try:
        preference_mode = PreferenceMode(mode)
    except ValueError:
        raise ConfigError(f"preference_mode must be auto or fixed, got {mode!r}") from None
    return UserProfile(
        user_id=options["user_id"],
        pin=options["pin"],
        preferred_temp=options.get("preferred_temp"),
        preference_mode=preference_mode,
    )
