"""Flat `key = value` run configuration.

Keys are the flat fields of the config types they are routed to; unknown
keys are rejected so typos fail loudly. Lines starting with `#` are comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

from .agent import AgentConfig
from .controller import ControllerConfig, PreferenceMode, UserProfile
from .safety import SafetyConfig
from .sensors import UltrasonicConfig, default_ultrasonic_array


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
    return parse_config("")


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


_CASTERS = {float: _parse_float, int: int, bool: _parse_bool, str: str}


def _field_keys(section: str, config_type) -> dict:
    """key -> (section, caster) for each field of `config_type` whose type has a caster."""
    types = get_type_hints(config_type)  # the fields' types, with annotations resolved
    return {name: (section, _CASTERS[kind]) for name, kind in types.items() if kind in _CASTERS}


# key -> (section, caster); each ranger's mount_height is keyed mount_height_<n>,
# and all three share the other float fields of UltrasonicConfig.
_KEYS = {
    **_field_keys("controller", ControllerConfig),
    **_field_keys("safety", SafetyConfig),
    **_field_keys("agent", AgentConfig),
    **{f"mount_height_{n}": ("sensor", _parse_float) for n in (1, 2, 3)},
    **{
        name: ("sensor", _parse_float)
        for name, kind in get_type_hints(UltrasonicConfig).items()
        if kind is float and name != "mount_height"
    },
    "preferred_temp": ("profile", _parse_float),
    "preference_mode": ("profile", str),
}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    sections = {section: {} for section, _ in _KEYS.values()}
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
    shared = {key: value for key, value in options.items() if not key.startswith("mount_height_")}
    return tuple(
        replace(base, mount_height=options.get(f"mount_height_{n}", base.mount_height), **shared)
        for n, base in enumerate(default_ultrasonic_array(), start=1)
    )


def _build_profile(options: dict) -> Optional[UserProfile]:
    if not options:
        return None
    mode = options.get("preference_mode", "auto")
    try:
        preference_mode = PreferenceMode(mode)
    except ValueError:
        raise ConfigError(f"preference_mode must be auto or fixed, got {mode!r}") from None
    return UserProfile(options.get("preferred_temp"), preference_mode)
