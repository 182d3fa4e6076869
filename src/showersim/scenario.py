"""Line-oriented scenario scripts.

One event per line: `at <seconds> <kind> <key>=<value>...`, with `#`
starting a comment. Person events carry an action word first:
`person enter distance=140`, `person move distance=6`, `person fall`,
`person leave`. Every script finishes with a single `end` event. Times and
numeric values must be finite numbers.

The parser itself checks only this syntax and the order of times. Whether
an event can happen is `apply_event`'s rule alone: the parser applies each
event to a scratch environment, so a value out of range, an unknown gesture
code or a person action the pose does not allow fails at parse time, on its
line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .sensors import EnvironmentState, GestureCode, PersonPose

EVENT_KINDS = ("env", "person", "gesture", "sound", "end")
PERSON_ACTIONS = ("enter", "move", "fall", "leave")

_PARAM_SPECS = {
    "env": {"temp": float, "humidity": float},
    "gesture": {"code": str},
    "sound": {"intensity": float},
    "end": {},
}


class ScenarioError(Exception):
    pass


class ScenarioParseError(ScenarioError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioValidationError(ScenarioError):
    pass


_PRESENT = (PersonPose.STANDING, PersonPose.FALLEN)

# action -> (poses it may follow, refusal otherwise, pose after it; None keeps the pose)
_PERSON_RULES = {
    "enter": (
        (PersonPose.ABSENT,), "person enter while someone is already present", PersonPose.STANDING
    ),
    "move": (_PRESENT, "person move while nobody is present", None),
    "fall": ((PersonPose.STANDING,), "person fall requires a standing person", PersonPose.FALLEN),
    "leave": (_PRESENT, "person leave while nobody is present", PersonPose.ABSENT),
}


@dataclass(frozen=True)
class ScenarioEvent:
    at: float
    kind: str
    action: Optional[str] = None  # person events only
    params: tuple = ()  # ordered (key, value) pairs


def parse_scenario(text: str) -> list:
    """Parse a script into time-ordered events; raises on the first bad line.

    Each event is checked by applying it to a scratch environment. A person
    action the pose reached so far does not allow raises
    ScenarioValidationError, and a value out of range or an unknown gesture
    code raises ScenarioParseError, each naming the line.
    """
    events = []
    env = EnvironmentState()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "at" or len(tokens) < 3:
            raise ScenarioParseError("expected 'at <seconds> <kind> ...'", line_no)
        at = _finite(tokens[1], "timestamp", line_no)
        if at < 0:
            raise ScenarioParseError("timestamps must be >= 0", line_no)
        kind = tokens[2]
        if kind not in EVENT_KINDS:
            raise ScenarioParseError(f"unknown event kind {kind!r}", line_no)
        rest = tokens[3:]
        action = None
        if kind == "person":
            if not rest or rest[0] not in PERSON_ACTIONS:
                raise ScenarioParseError(
                    "person event needs an action: enter, move, fall or leave", line_no
                )
            action = rest[0]
            rest = rest[1:]
        event = _build_event(at, kind, action, rest, line_no)
        if events and event.at < events[-1].at:
            raise ScenarioValidationError(
                f"line {line_no}: time goes backward "
                f"({event.at:g} after {events[-1].at:g})"
            )
        try:
            apply_event(env, event)
        except ScenarioValidationError as exc:
            raise ScenarioValidationError(f"line {line_no}: {exc}") from None
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line_no) from None
        events.append(event)
    _validate_shape(events)
    return events


def _finite(raw: str, what: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ScenarioParseError(f"{what} must be a finite number, got {raw!r}", line_no)
    return value


def _build_event(at, kind, action, tokens, line_no) -> ScenarioEvent:
    if kind == "person":
        spec = {"distance": float} if action in ("enter", "move") else {}
    else:
        spec = _PARAM_SPECS[kind]

    params = []
    seen = set()
    for token in tokens:
        if "=" not in token:
            raise ScenarioParseError(f"expected key=value, got {token!r}", line_no)
        key, raw = token.split("=", 1)
        if key not in spec:
            raise ScenarioParseError(f"unexpected parameter {key!r} for {kind}", line_no)
        if key in seen:
            raise ScenarioParseError(f"duplicate parameter {key!r}", line_no)
        seen.add(key)
        params.append((key, _finite(raw, key, line_no) if spec[key] is float else raw))

    missing = set(spec) - seen
    if kind == "env":
        if not seen:
            raise ScenarioParseError("env event needs temp= and/or humidity=", line_no)
    elif missing:
        raise ScenarioParseError(f"missing parameter(s): {', '.join(sorted(missing))}", line_no)
    return ScenarioEvent(at, kind, action, tuple(params))


def _validate_shape(events: list) -> None:
    ends = [i for i, e in enumerate(events) if e.kind == "end"]
    if not ends:
        raise ScenarioValidationError("scenario is missing an end event")
    if len(ends) > 1:
        raise ScenarioValidationError("scenario has multiple end events")
    if ends[0] != len(events) - 1:
        raise ScenarioValidationError("the end event must be the last event")


def apply_event(env: EnvironmentState, event: ScenarioEvent) -> None:
    """Mutate the ground-truth environment according to one event.

    Raises ScenarioValidationError for a person action the pose does not
    allow, and ValueError for a value `EnvironmentState.validate` or
    `GestureCode.parse` refuses.
    """
    params = dict(event.params)
    if event.kind == "env":
        if "temp" in params:
            env.ambient_temp = params["temp"]
        if "humidity" in params:
            env.ambient_humidity = params["humidity"]
    elif event.kind == "sound":
        env.sound_intensity = params["intensity"]
    elif event.kind == "gesture":
        env.pending_gesture = GestureCode.parse(params["code"])
    elif event.kind == "person":
        allowed, refusal, after = _PERSON_RULES[event.action]
        if env.person_pose not in allowed:
            raise ScenarioValidationError(refusal)
        env.person_pose = after or env.person_pose
        if event.action != "fall":  # enter and move place the person; leave clears the distance
            env.person_distance = params.get("distance")
    env.validate()
