"""The tick path reads enum members through module constants.

On Python 3.10 and 3.11 a read such as `Occupancy.OCCUPIED` goes through
`EnumType.__getattr__`, about ten times slower than a module global, so the
functions every tick runs use the constants defined next to each enum
(`controller.OCCUPIED`, `safety.PROLONGED_HOT`, ...). This test parses those
functions and fails on any attribute read off one of the enum classes.

A plain Enum's hash is the Python-level `Enum.__hash__`, so the enums whose
members the tick path puts in sets or looks up in dicts take the C-level
identity hash; a replay of each scenario must make no `Enum.__hash__` call.
Neither check makes a timing assertion.
"""

from __future__ import annotations

import ast
import enum
import inspect
import sys
import textwrap

import pytest

from showersim import agent, controller, safety, sensors
from showersim.config import default_run_config
from showersim.runner import run_scenario
from showersim.scenario import parse_scenario

from conftest import SCENARIO_DIR

ENUMS = {"Occupancy", "WaterMode", "PersonPose", "AlertKind", "GestureMeaning", "PreferenceMode"}

TICK_PATH = {
    "sensors._beam_blocked": sensors._beam_blocked,
    "controller.classify_occupancy": controller.classify_occupancy,
    "controller.select_water_mode": controller.select_water_mode,
    "controller.step": controller.step,
    "safety.detect_fall_geometry": safety.detect_fall_geometry,
    "safety.SafetyEngine.water_locked": safety.SafetyEngine.water_locked.fget,
    "safety.SafetyEngine.fuse_tick": safety.SafetyEngine.fuse_tick,
    "safety.SafetyEngine._emit": safety.SafetyEngine._emit,
    "agent.DeviceAgent.tick": agent.DeviceAgent.tick,
}


def enum_class(node):
    """The enum class name `node` reads as `Enum` or `module.Enum`, or None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in ENUMS else None


def enum_reads(function) -> list:
    """`Enum.MEMBER (line n)` for each attribute read off an enum class."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return sorted(
        f"{enum_class(node.value)}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and enum_class(node.value)
    )


@pytest.mark.parametrize("name", sorted(TICK_PATH))
def test_the_tick_path_reads_no_member_off_an_enum_class(name):
    assert enum_reads(TICK_PATH[name]) == []


def test_the_check_sees_a_class_read():
    def slow(occupancy):
        if occupancy is controller.Occupancy.OCCUPIED:
            return occupancy is not Occupancy.EMPTY  # noqa: F821

    assert enum_reads(slow) == ["Occupancy.EMPTY (line 3)", "Occupancy.OCCUPIED (line 2)"]


def test_the_constants_are_the_members():
    assert (controller.OCCUPIED, controller.EMPTY) == tuple(controller.Occupancy)
    assert (controller.OFF, controller.HOT, controller.COLD, controller.NORMAL) == tuple(
        controller.WaterMode
    )
    assert controller.FIXED is controller.PreferenceMode.FIXED
    assert (sensors.STANDING, sensors.FALLEN) == tuple(sensors.PersonPose)[1:]
    assert (
        safety.FALL,
        safety.HELP_GESTURE,
        safety.PROLONGED_HOT,
        safety.OCCUPANCY_TIMEOUT,
    ) == tuple(safety.AlertKind)
    assert (safety.HELP, safety.OKAY) == tuple(safety.GestureMeaning)[:2]


def enum_hash_calls(run) -> int:
    """How many times `run()` calls the Python-level `Enum.__hash__`."""
    code = enum.Enum.__hash__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIO_DIR.glob("*.scn")))
def test_a_replay_calls_no_enum_hash(name):
    events = parse_scenario((SCENARIO_DIR / name).read_text())
    assert enum_hash_calls(lambda: run_scenario(events, default_run_config(), seed=0)) == 0


def test_the_hash_count_sees_a_plain_enum():
    assert enum_hash_calls(lambda: hash(sensors.PersonPose.STANDING)) == 1

