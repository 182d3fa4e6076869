"""Virtual models of the shower-space sensors.

Each model converts ground-truth environment state into the reading the
bench hardware would report: an ultrasonic ranger with a 20-600 cm window,
an integer-resolution temperature/humidity sensor, a binary sound detector
and a nine-code gesture sensor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

# How high a body reaches for beam-intersection purposes: a standing person
# blocks beams mounted at torso/head height, a fallen one only near the floor.
STANDING_OCCLUSION_CM = 170.0
FALLEN_OCCLUSION_CM = 40.0


class PersonPose(Enum):
    ABSENT = "absent"
    STANDING = "standing"
    FALLEN = "fallen"


STANDING, FALLEN = PersonPose.STANDING, PersonPose.FALLEN  # read per tick: see controller.OCCUPIED


class GestureCode(Enum):
    """The nine recognizable hand gestures."""

    UP = "up"
    DOWN = "down"
    RIGHT = "right"
    LEFT = "left"
    FORWARD = "forward"
    BACKWARD = "backward"
    CLOCKWISE = "clockwise"
    ANTICLOCKWISE = "anticlockwise"
    WAVE = "wave"

    __hash__ = object.__hash__  # as AlertKind's: a gesture tick's meaning lookup skips Enum.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "GestureCode":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown gesture code: {text!r}") from None


@dataclass
class EnvironmentState:
    """Ground truth at one simulation instant; every sensor samples from this."""

    ambient_temp: float = 20.0
    ambient_humidity: float = 50.0
    person_pose: PersonPose = PersonPose.ABSENT
    person_distance: Optional[float] = None  # cm from the sensor pole
    sound_intensity: float = 0.0
    pending_gesture: Optional[GestureCode] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.ambient_humidity <= 100.0:
            raise ValueError(f"humidity {self.ambient_humidity} outside [0, 100]")
        if not 0.0 <= self.sound_intensity <= 1.0:
            raise ValueError(f"sound intensity {self.sound_intensity} outside [0, 1]")
        if self.person_pose is PersonPose.ABSENT:
            if self.person_distance is not None:
                raise ValueError("person_distance set while nobody is present")
        else:
            if self.person_distance is None:
                raise ValueError(f"person_distance required for pose {self.person_pose.value}")
            if not 0.0 <= self.person_distance <= 600.0:
                raise ValueError(f"person_distance {self.person_distance} outside [0, 600]")


@dataclass(frozen=True)
class UltrasonicConfig:
    sensor_id: str
    mount_height: float  # cm above the floor
    min_range: float = 20.0
    max_range: float = 600.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.min_range < self.max_range:
            raise ValueError("min_range must be >= 0 and below max_range")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def default_ultrasonic_array() -> tuple[UltrasonicConfig, UltrasonicConfig, UltrasonicConfig]:
    """Three rangers on the shower-head pole: head, torso and floor coverage."""
    return (
        UltrasonicConfig("us-1", mount_height=150.0),
        UltrasonicConfig("us-2", mount_height=90.0),
        UltrasonicConfig("us-3", mount_height=30.0),
    )


def _beam_blocked(pose: PersonPose, mount_height: float) -> bool:
    if pose is STANDING:
        return mount_height <= STANDING_OCCLUSION_CM
    if pose is FALLEN:
        return mount_height <= FALLEN_OCCLUSION_CM
    return False


def ultrasonic_measure(
    env: EnvironmentState,
    cfg: UltrasonicConfig,
    rng: Optional[random.Random] = None,
) -> float:
    """Range in cm to the nearest obstacle in the beam, clamped to the sensor window.

    An unobstructed beam reads max_range rather than erroring, matching how
    ranging modules behave with no echo.
    """
    if _beam_blocked(env.person_pose, cfg.mount_height):
        distance = float(env.person_distance)
        if cfg.noise_sigma > 0:
            if rng is None:
                raise ValueError("noise_sigma > 0 requires a seeded rng")
            distance += rng.gauss(0.0, cfg.noise_sigma)
        return min(max(distance, cfg.min_range), cfg.max_range)
    return cfg.max_range


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def dht_measure(env: EnvironmentState) -> tuple[int, int]:
    """Integer-resolution (temperature, humidity) pair, rounded half-up."""
    return round_half_up(env.ambient_temp), round_half_up(env.ambient_humidity)


def sound_sample(env: EnvironmentState, threshold: float) -> int:
    """1 when the sound intensity is strictly above the threshold, else 0."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return 1 if env.sound_intensity > threshold else 0


def gesture_poll(env: EnvironmentState) -> Optional[GestureCode]:
    """Return and consume the pending gesture; each gesture is delivered once."""
    gesture = env.pending_gesture
    env.pending_gesture = None
    return gesture
