from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from showersim.sensors import (
    EnvironmentState,
    GestureCode,
    PersonPose,
    UltrasonicConfig,
    default_ultrasonic_array,
    dht_measure,
    gesture_poll,
    round_half_up,
    sound_sample,
    ultrasonic_measure,
)


def env(**kwargs) -> EnvironmentState:
    return EnvironmentState(**kwargs)


def standing(distance: float, **kwargs) -> EnvironmentState:
    return EnvironmentState(
        person_pose=PersonPose.STANDING, person_distance=distance, **kwargs
    )


class TestUltrasonic:
    def test_standing_passthrough(self):
        cfg = UltrasonicConfig(mount_height=150.0)
        assert ultrasonic_measure(standing(100.0), cfg) == 100.0

    def test_absent_reads_max_range(self):
        cfg = UltrasonicConfig(mount_height=150.0)
        assert ultrasonic_measure(env(), cfg) == 600.0

    def test_close_obstacle_clamps_to_min_range(self):
        cfg = UltrasonicConfig(mount_height=150.0)
        assert ultrasonic_measure(standing(10.0), cfg) == 20.0

    def test_fallen_person_only_blocks_floor_sensor(self):
        fallen = EnvironmentState(person_pose=PersonPose.FALLEN, person_distance=50.0)
        us1, us2, us3 = default_ultrasonic_array()
        assert ultrasonic_measure(fallen, us1) == 600.0
        assert ultrasonic_measure(fallen, us2) == 600.0
        assert ultrasonic_measure(fallen, us3) == 50.0

    def test_standing_person_blocks_all_three(self):
        for cfg in default_ultrasonic_array():
            assert ultrasonic_measure(standing(80.0), cfg) == 80.0

    @given(
        distance=st.floats(min_value=0.0, max_value=600.0),
        pose=st.sampled_from([PersonPose.ABSENT, PersonPose.STANDING, PersonPose.FALLEN]),
        height=st.floats(min_value=10.0, max_value=250.0),
        sigma=st.floats(min_value=0.0, max_value=200.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_readings_stay_inside_the_sensor_window(self, distance, pose, height, sigma, seed):
        cfg = UltrasonicConfig(mount_height=height, noise_sigma=sigma)
        if pose is PersonPose.ABSENT:
            state = env()
        else:
            state = EnvironmentState(person_pose=pose, person_distance=distance)
        distance = ultrasonic_measure(state, cfg, random.Random(seed))
        assert cfg.min_range <= distance <= cfg.max_range

    def test_noiseless_measure_is_pure(self):
        cfg = UltrasonicConfig(mount_height=150.0)
        state = standing(123.4)
        assert ultrasonic_measure(state, cfg) == ultrasonic_measure(state, cfg)

    def test_fixed_seed_reading_sequence_is_identical(self):
        cfg = UltrasonicConfig(mount_height=150.0, noise_sigma=2.5)
        distances = [40.0, 80.0, 120.0, 30.0, 500.0]

        def run(seed):
            rng = random.Random(seed)
            return [ultrasonic_measure(standing(d), cfg, rng) for d in distances]

        assert run(7) == run(7)
        assert run(7) != run(8)  # the seed actually matters

    def test_noise_requires_rng(self):
        cfg = UltrasonicConfig(mount_height=150.0, noise_sigma=1.0)
        with pytest.raises(ValueError):
            ultrasonic_measure(standing(100.0), cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            UltrasonicConfig(mount_height=150.0, min_range=600.0, max_range=20.0)
        with pytest.raises(ValueError):
            UltrasonicConfig(mount_height=150.0, noise_sigma=-1.0)


class TestDht:
    @pytest.mark.parametrize(
        "temp,humidity,expected",
        [
            (23.4, 15.0, (23, 15)),
            (25.0, 15.0, (25, 15)),
            (22.5, 15.0, (23, 15)),  # half rounds up
        ],
    )
    def test_integer_quantization(self, temp, humidity, expected):
        assert dht_measure(env(ambient_temp=temp, ambient_humidity=humidity)) == expected

    @given(
        temp=st.floats(min_value=-40.0, max_value=80.0),
        humidity=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_output_integer_and_within_half_unit(self, temp, humidity):
        t, h = dht_measure(env(ambient_temp=temp, ambient_humidity=humidity))
        assert isinstance(t, int) and isinstance(h, int)
        assert abs(t - temp) <= 0.5
        assert abs(h - humidity) <= 0.5


class TestSound:
    def test_above_threshold(self):
        assert sound_sample(env(sound_intensity=0.9), 0.5) == 1

    def test_below_threshold(self):
        assert sound_sample(env(sound_intensity=0.1), 0.5) == 0

    def test_equal_is_quiet(self):
        assert sound_sample(env(sound_intensity=0.5), 0.5) == 0

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        threshold=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_intensity(self, a, b, threshold):
        if a < b:
            a, b = b, a
        assert sound_sample(env(sound_intensity=a), threshold) >= sound_sample(
            env(sound_intensity=b), threshold
        )


class TestGesture:
    def test_passthrough(self):
        state = env(pending_gesture=GestureCode.RIGHT)
        assert gesture_poll(state) is GestureCode.RIGHT

    def test_empty(self):
        assert gesture_poll(env()) is None

    def test_exactly_once_delivery(self):
        state = env(pending_gesture=GestureCode.WAVE)
        assert gesture_poll(state) is GestureCode.WAVE
        assert gesture_poll(state) is None

    def test_nine_codes_round_trip(self):
        assert len(GestureCode) == 9
        for code in GestureCode:
            assert GestureCode.parse(str(code)) is code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            GestureCode.parse("shake")


class TestEnvironmentInvariants:
    def test_humidity_bounds(self):
        with pytest.raises(ValueError):
            env(ambient_humidity=101.0)

    def test_distance_required_when_present(self):
        with pytest.raises(ValueError):
            EnvironmentState(person_pose=PersonPose.STANDING)

    def test_distance_forbidden_when_absent(self):
        with pytest.raises(ValueError):
            EnvironmentState(person_distance=50.0)

    def test_sound_bounds(self):
        with pytest.raises(ValueError):
            env(sound_intensity=1.5)


def test_round_half_up():
    assert round_half_up(22.5) == 23
    assert round_half_up(22.4) == 22
    assert round_half_up(23.0) == 23
