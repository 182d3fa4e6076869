from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from showersim.controller import (
    LED_COLORS,
    NOMINAL_DISCHARGE_C,
    ControllerConfig,
    ControllerState,
    Occupancy,
    PreferenceMode,
    UserProfile,
    WaterMode,
    actuator_outputs,
    clamp_discharge_temperature,
    classify_occupancy,
    select_water_mode,
    step,
)

DEFAULTS = ControllerConfig()
HYSTERESIS = ControllerConfig(activation_cm=45.72, deactivation_cm=76.2)


class TestClassifyOccupancy:
    def test_close_distance_occupies(self):
        assert classify_occupancy(8, Occupancy.EMPTY, DEFAULTS) is Occupancy.OCCUPIED

    def test_far_distance_empties(self):
        assert classify_occupancy(74, Occupancy.OCCUPIED, DEFAULTS) is Occupancy.EMPTY

    def test_hold_band_keeps_previous(self):
        assert classify_occupancy(50, Occupancy.EMPTY, HYSTERESIS) is Occupancy.EMPTY
        assert classify_occupancy(50, Occupancy.OCCUPIED, HYSTERESIS) is Occupancy.OCCUPIED

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            classify_occupancy(-1, Occupancy.EMPTY, DEFAULTS)

    @given(
        distances=st.lists(
            st.floats(min_value=45.73, max_value=76.19), min_size=1, max_size=50
        ),
        start=st.sampled_from([Occupancy.EMPTY, Occupancy.OCCUPIED]),
    )
    def test_band_confined_sequences_never_flip(self, distances, start):
        state = start
        for d in distances:
            state = classify_occupancy(d, state, HYSTERESIS)
            assert state is start


class TestSelectWaterMode:
    @pytest.mark.parametrize(
        "temp,expected",
        [(21, WaterMode.HOT), (23, WaterMode.COLD), (22.5, WaterMode.NORMAL)],
        ids=["21-WaterMode.HOT", "23-WaterMode.COLD", "22.5-WaterMode.NORMAL"],
    )
    def test_auto_branches(self, temp, expected):
        assert select_water_mode(temp, DEFAULTS) is expected

    def test_fixed_preference_forces_normal(self):
        profile = UserProfile(37.0, PreferenceMode.FIXED)
        assert select_water_mode(5.0, DEFAULTS, profile) is WaterMode.NORMAL

    def test_partition_boundaries(self):
        # sweep -10..45 C in half-degree steps: exactly three branches split
        # at the hot and cold thresholds
        temp = -10.0
        while temp <= 45.0:
            mode = select_water_mode(temp, DEFAULTS)
            if temp < 22.0:
                assert mode is WaterMode.HOT, temp
            elif temp >= 23.0:
                assert mode is WaterMode.COLD, temp
            else:
                assert mode is WaterMode.NORMAL, temp
            temp += 0.5


class TestClamp:
    @pytest.mark.parametrize("requested,expected", [(60, 50.0), (37, 37.0), (50, 50.0)])
    def test_examples(self, requested, expected):
        assert clamp_discharge_temperature(requested, DEFAULTS) == expected

    def test_idempotent_and_bounded(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            requested = rng.uniform(-20.0, 200.0)
            once = clamp_discharge_temperature(requested, DEFAULTS)
            assert once <= DEFAULTS.max_discharge_c
            assert clamp_discharge_temperature(once, DEFAULTS) == once

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            clamp_discharge_temperature(float("nan"), DEFAULTS)


class TestActuatorOutputs:
    def test_occupied_hot(self):
        state = ControllerState(Occupancy.OCCUPIED, WaterMode.HOT, 45.0, 0.0)
        assert actuator_outputs(state) == {"blue", "green"}

    def test_occupied_cold(self):
        state = ControllerState(Occupancy.OCCUPIED, WaterMode.COLD, 20.0, 0.0)
        assert actuator_outputs(state) == {"blue", "yellow"}

    def test_empty_off_all_dark(self):
        assert actuator_outputs(ControllerState()) == frozenset()

    def test_exactly_one_mode_led(self):
        for mode in (WaterMode.HOT, WaterMode.COLD, WaterMode.NORMAL):
            state = ControllerState(Occupancy.OCCUPIED, mode, 30.0, 0.0)
            assert len(actuator_outputs(state) & {"yellow", "green", "red"}) == 1


class TestStep:
    def test_enter_and_cold(self):
        state, commands = step(ControllerState(), 16, 23, DEFAULTS)
        assert state.occupancy is Occupancy.OCCUPIED
        assert state.mode is WaterMode.COLD
        assert actuator_outputs(state) == {"blue", "yellow"}
        assert "mode cold" in commands

    def test_empty_room_stays_off(self):
        state, commands = step(ControllerState(), 144, 25, DEFAULTS)
        assert state.occupancy is Occupancy.EMPTY
        assert state.mode is WaterMode.OFF
        assert commands == []

    def test_exit_turns_water_off(self):
        occupied = ControllerState(Occupancy.OCCUPIED, WaterMode.HOT, 45.0, 0.0)
        state, commands = step(occupied, 74, 21, DEFAULTS, now=30.0)
        assert state.occupancy is Occupancy.EMPTY
        assert state.mode is WaterMode.OFF
        assert state.occupied_since is None
        assert "water off" in commands

    def test_occupied_since_tracks_entry(self):
        state, _ = step(ControllerState(), 16, 23, DEFAULTS, now=5.0)
        assert state.occupied_since == 5.0
        later, _ = step(state, 16, 23, DEFAULTS, now=9.0)
        assert later.occupied_since == 5.0  # entry time sticks for the episode

    def test_step_is_pure(self):
        state = ControllerState()
        assert step(state, 16, 23, DEFAULTS, now=1.0) == step(state, 16, 23, DEFAULTS, now=1.0)
        assert state == ControllerState()  # input untouched

    def test_no_chatter_on_threshold_crossings(self):
        state = ControllerState()
        command_batches = []
        for distance in [59, 61] * 10:
            state, commands = step(state, distance, 25, DEFAULTS)
            command_batches.append(commands)
        # every crossing flips the state exactly once; no batch is emitted
        # while the state is unchanged
        assert all(batch for batch in command_batches)
        occupancies = []
        state = ControllerState()
        for distance in [59, 59, 61, 61, 59]:
            state, commands = step(state, distance, 25, DEFAULTS)
            occupancies.append((state.occupancy, bool(commands)))
        assert occupancies == [
            (Occupancy.OCCUPIED, True),
            (Occupancy.OCCUPIED, False),
            (Occupancy.EMPTY, True),
            (Occupancy.EMPTY, False),
            (Occupancy.OCCUPIED, True),
        ]

    @given(
        distances=st.lists(st.floats(min_value=0, max_value=600), min_size=1, max_size=40),
        temps=st.lists(st.integers(min_value=-10, max_value=45), min_size=1, max_size=40),
    )
    def test_water_never_flows_in_an_empty_shower(self, distances, temps):
        state = ControllerState()
        for i, distance in enumerate(distances):
            temp = temps[i % len(temps)]
            state, _ = step(state, distance, temp, DEFAULTS, now=float(i))
            if state.mode is not WaterMode.OFF:
                assert state.occupancy is Occupancy.OCCUPIED
            assert state.discharge_temp <= DEFAULTS.max_discharge_c

    def test_fixed_profile_discharge_clamped(self):
        profile = UserProfile(60.0, PreferenceMode.FIXED)
        state, _ = step(ControllerState(), 16, 23, DEFAULTS, profile)
        assert state.mode is WaterMode.NORMAL
        assert state.discharge_temp == 50.0


def step_from_scratch(state, distance, temp_c, cfg, profile, now, water_locked):
    """The rules of `step` applied from scratch: every field recomputed, and the
    LED commands taken from `actuator_outputs` of the states before and after."""
    occupancy = classify_occupancy(distance, state.occupancy, cfg)
    occupied = occupancy is Occupancy.OCCUPIED
    since = None
    if occupied:
        since = state.occupied_since if state.occupancy is Occupancy.OCCUPIED else now
    if not occupied or water_locked:
        mode, discharge = WaterMode.OFF, 0.0
    else:
        mode = select_water_mode(temp_c, cfg, profile)
        fixed = profile is not None and profile.preference_mode is PreferenceMode.FIXED
        requested = profile.preferred_temp if fixed else NOMINAL_DISCHARGE_C[mode]
        discharge = clamp_discharge_temperature(requested, cfg)
    new = ControllerState(occupancy, mode, discharge, since)
    commands = []
    if mode is not state.mode:
        commands.append("water off" if mode is WaterMode.OFF else f"mode {mode.value}")
    before, after = actuator_outputs(state), actuator_outputs(new)
    for color in LED_COLORS:
        if (color in after) != (color in before):
            commands.append(f"led {color} {'on' if color in after else 'off'}")
    return new, commands


# A state step can reach, or one with a field the rules disagree with (a
# stale entry time or setpoint): any state a caller may hand in.
ANY_STATE = st.builds(
    lambda state, change: dataclasses.replace(state, **change),
    st.sampled_from(
        [
            step_from_scratch(ControllerState(), distance, temp_c, DEFAULTS, None, 0.0, False)[0]
            for distance in (8.0, 600.0)
            for temp_c in (21, 22.5, 25)
        ]
    ),
    st.sampled_from(
        [
            {},
            {"occupied_since": None},
            {"occupied_since": 3.0},
            {"discharge_temp": 40.0},
        ]
    ),
)


class TestStepAgainstDefinition:
    @settings(max_examples=300, deadline=None)
    @given(
        start=ANY_STATE,
        ticks=st.lists(
            st.tuples(
                st.sampled_from([8.0, 45.72, 59.9, 60.0, 61.0, 76.2, 144.0, 600.0])
                | st.floats(min_value=0, max_value=600),
                st.sampled_from([21, 22, 22.5, 23, 25]) | st.integers(-10, 45),
                st.floats(min_value=0.0, max_value=5.0),  # seconds since the last tick
                st.booleans(),  # water_locked
                st.sampled_from([DEFAULTS, HYSTERESIS, ControllerConfig(max_discharge_c=40)]),
            ),
            max_size=60,
        ),
        profile=st.sampled_from(
            [
                None,
                UserProfile(60.0, PreferenceMode.FIXED),
                UserProfile(),
            ]
        ),
    )
    def test_matches_a_from_scratch_step(self, start, ticks, profile):
        state, now = start, 0.0
        for distance, temp_c, dt, water_locked, cfg in ticks:
            now += dt
            expected = step_from_scratch(state, distance, temp_c, cfg, profile, now, water_locked)
            new_state, commands = step(state, distance, temp_c, cfg, profile, now, water_locked)
            assert (new_state, commands) == expected
            if new_state == state:
                assert new_state is state and commands == []
            state = new_state


class TestWaterLock:
    HOT = ControllerState(Occupancy.OCCUPIED, WaterMode.HOT, 45.0, 3.0)

    def test_lock_shuts_water_off_and_keeps_the_episode(self):
        state, commands = step(self.HOT, 16, 21, DEFAULTS, now=10.0, water_locked=True)
        assert state.occupancy is Occupancy.OCCUPIED
        assert state.mode is WaterMode.OFF
        assert state.discharge_temp == 0.0
        assert actuator_outputs(state) == {"blue"}
        assert state.occupied_since == 3.0
        assert commands == ["water off", "led green off"]

    def test_second_locked_step_is_silent(self):
        state, _ = step(self.HOT, 16, 21, DEFAULTS, now=10.0, water_locked=True)
        again, commands = step(state, 16, 21, DEFAULTS, now=11.0, water_locked=True)
        assert again == state
        assert commands == []

    def test_locked_step_when_empty_is_the_plain_empty_state(self):
        locked = step(self.HOT, 144, 21, DEFAULTS, now=10.0, water_locked=True)
        assert locked == step(self.HOT, 144, 21, DEFAULTS, now=10.0)
        assert locked[0] == ControllerState()


class TestUserProfile:
    def test_fixed_requires_temperature(self):
        with pytest.raises(ValueError):
            UserProfile(preference_mode=PreferenceMode.FIXED)


class TestControllerConfig:
    def test_defaults_valid(self):
        ControllerConfig()

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(activation_cm=80, deactivation_cm=60)
        with pytest.raises(ValueError):
            ControllerConfig(t_hot_c=25, t_cold_c=23)
        with pytest.raises(ValueError):
            ControllerConfig(max_discharge_c=0)
