from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from showersim.scenario import (
    ScenarioEvent,
    ScenarioParseError,
    ScenarioValidationError,
    apply_event,
    parse_scenario,
)
from showersim.sensors import EnvironmentState, PersonPose

# person lines whose last one cannot happen in the pose the earlier ones reach
IMPOSSIBLE_PERSON_ACTIONS = {
    "enter-while-present": (
        ["at 0 person enter distance=50", "at 1 person enter distance=40"],
        "person enter while someone is already present",
    ),
    "move-with-nobody": (["at 0 person move distance=10"], "person move while nobody is present"),
    "leave-with-nobody": (
        ["at 0 person enter distance=50", "at 1 person leave", "at 2 person leave"],
        "person leave while nobody is present",
    ),
    "fall-while-fallen": (
        ["at 0 person enter distance=50", "at 1 person fall", "at 2 person fall"],
        "person fall requires a standing person",
    ),
}


class TestParse:
    def test_three_events(self):
        events = parse_scenario(
            "at 0 env temp=25 humidity=15\nat 5 person enter distance=140\nat 10 end\n"
        )
        assert len(events) == 3
        assert events[0].kind == "env"
        assert dict(events[0].params) == {"temp": 25.0, "humidity": 15.0}
        assert events[1].action == "enter"
        assert events[2].kind == "end"

    def test_malformed_value_reports_line(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("at 5 env temp=abc\nat 10 end\n")

    def test_time_going_backward_rejected(self):
        with pytest.raises(ScenarioValidationError, match="backward"):
            parse_scenario("at 10 person enter distance=50\nat 5 end\n")

    def test_missing_end_rejected(self):
        with pytest.raises(ScenarioValidationError, match="end"):
            parse_scenario("at 0 env temp=25\n")

    def test_end_must_be_last(self):
        with pytest.raises(ScenarioValidationError):
            parse_scenario("at 0 end\nat 1 env temp=20\n")

    def test_multiple_ends_rejected(self):
        with pytest.raises(ScenarioValidationError):
            parse_scenario("at 0 end\nat 1 end\n")

    def test_comments_and_blanks_skipped(self):
        events = parse_scenario("# header\n\nat 0 env temp=25  # inline\n\nat 5 end\n")
        assert len(events) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("at 0 teleport x=1\nat 5 end\n")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("at 0 env pressure=5\nat 5 end\n")

    def test_person_requires_action(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("at 0 person distance=50\nat 5 end\n")

    def test_bad_gesture_code_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("at 0 gesture code=shake\nat 5 end\n")

    def test_sound_intensity_bounds(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("at 0 sound intensity=1.5\nat 5 end\n")

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("at -1 env temp=20\nat 5 end\n")

    @pytest.mark.parametrize(
        "line", ["at nan env temp=20", "at inf env temp=20", "at 0 env temp=nan", "at 0 env temp=inf"]
    )
    def test_non_finite_numbers_rejected(self, line):
        with pytest.raises(ScenarioParseError, match="line 1: .* must be a finite number"):
            parse_scenario(line + "\nat 5 end\n")


class TestPersonActions:
    @pytest.mark.parametrize(
        "lines, refusal", IMPOSSIBLE_PERSON_ACTIONS.values(), ids=IMPOSSIBLE_PERSON_ACTIONS
    )
    def test_parse_refuses_naming_the_line(self, lines, refusal):
        with pytest.raises(ScenarioValidationError) as info:
            parse_scenario("\n".join(lines) + "\nat 5 end\n")
        assert str(info.value) == f"line {len(lines)}: {refusal}"

    @pytest.mark.parametrize(
        "lines, refusal", IMPOSSIBLE_PERSON_ACTIONS.values(), ids=IMPOSSIBLE_PERSON_ACTIONS
    )
    def test_apply_refuses_what_parse_refuses(self, lines, refusal):
        env = EnvironmentState()
        for event in parse_scenario("\n".join(lines[:-1]) + "\nat 5 end\n")[:-1]:
            apply_event(env, event)
        _, at, _, action, *params = lines[-1].split()
        params = tuple((key, float(value)) for key, value in (p.split("=") for p in params))
        with pytest.raises(ScenarioValidationError) as info:
            apply_event(env, ScenarioEvent(float(at), "person", action, params))
        assert str(info.value) == refusal

    def test_move_and_leave_after_a_fall(self):
        events = parse_scenario(
            "at 0 person enter distance=50\nat 1 person fall\nat 2 person move distance=40\n"
            "at 3 person leave\nat 4 person enter distance=30\nat 5 person fall\nat 6 end\n"
        )
        env = EnvironmentState()
        for event in events:
            apply_event(env, event)
        assert env.person_pose is PersonPose.FALLEN and env.person_distance == 30


@st.composite
def scenario_events_text(draw):
    """Well-formed scripts out of nice round numbers."""
    lines = []
    t = 0
    present = False
    n = draw(st.integers(min_value=0, max_value=12))
    for _ in range(n):
        t += draw(st.integers(min_value=0, max_value=30))
        choice = draw(st.sampled_from(["env", "sound", "gesture", "person"]))
        if choice == "env":
            temp = draw(st.integers(min_value=-10, max_value=45))
            humidity = draw(st.integers(min_value=0, max_value=100))
            lines.append(f"at {t} env temp={temp} humidity={humidity}")
        elif choice == "sound":
            intensity = draw(st.sampled_from(["0", "0.25", "0.5", "0.75", "1"]))
            lines.append(f"at {t} sound intensity={intensity}")
        elif choice == "gesture":
            code = draw(st.sampled_from(["up", "down", "left", "right", "wave"]))
            lines.append(f"at {t} gesture code={code}")
        else:
            if present:
                action = draw(st.sampled_from(["move", "leave"]))
                if action == "move":
                    d = draw(st.integers(min_value=0, max_value=600))
                    lines.append(f"at {t} person move distance={d}")
                else:
                    lines.append(f"at {t} person leave")
                    present = False
            else:
                d = draw(st.integers(min_value=0, max_value=600))
                lines.append(f"at {t} person enter distance={d}")
                present = True
    t += draw(st.integers(min_value=0, max_value=30))
    lines.append(f"at {t} end")
    return "\n".join(lines) + "\n"


class TestGeneratedScripts:
    @given(text=scenario_events_text())
    def test_each_line_parses_to_one_event(self, text):
        events = parse_scenario(text)
        assert [e.at for e in events] == [float(line.split()[1]) for line in text.splitlines()]
        assert events[-1].kind == "end"


@st.composite
def prefix_and_last_line(draw):
    """A well-formed script without its end, then one more event line whose
    values lie on or just past the bounds the environment keeps."""
    prefix = draw(scenario_events_text()).splitlines()[:-1]
    at = float(prefix[-1].split()[1]) if prefix else 0.0
    kind = draw(st.sampled_from(["env", "sound", "gesture", "person"]))
    if kind == "env":
        humidity = draw(st.sampled_from(["-0.5", "0", "100", "100.5"]))
        return prefix, f"at {at:g} env temp=21 humidity={humidity}"
    if kind == "sound":
        intensity = draw(st.sampled_from(["-0.5", "0", "1", "1.5"]))
        return prefix, f"at {at:g} sound intensity={intensity}"
    if kind == "gesture":
        code = draw(st.sampled_from(["wave", "left", "WAVE", "shake", "nod"]))
        return prefix, f"at {at:g} gesture code={code}"
    action = draw(st.sampled_from(["enter", "move", "fall", "leave"]))
    if action in ("enter", "move"):
        distance = draw(st.sampled_from(["-1", "0", "600", "600.5"]))
        return prefix, f"at {at:g} person {action} distance={distance}"
    return prefix, f"at {at:g} person {action}"


def _event_of(line):
    """The event a line states, built by hand: `at <t> <kind> [action] key=value...`."""
    _, at, kind, *rest = line.split()
    action = rest.pop(0) if kind == "person" else None
    params = tuple(
        (key, value if key == "code" else float(value))
        for key, value in (token.split("=") for token in rest)
    )
    return ScenarioEvent(float(at), kind, action, params)


class TestRuleBook:
    """The parser refuses a line exactly when `apply_event` refuses its event."""

    @settings(max_examples=300)
    @given(case=prefix_and_last_line())
    def test_parse_accepts_what_apply_accepts(self, case):
        prefix, last = case
        env = EnvironmentState()
        for line in prefix:
            apply_event(env, _event_of(line))
        try:
            apply_event(env, _event_of(last))
            refusal = None
        except (ScenarioValidationError, ValueError) as exc:
            refusal = exc

        line_no = len(prefix) + 1
        at = float(last.split()[1])
        text = "\n".join([*prefix, last, f"at {at + 1:g} end"]) + "\n"
        if refusal is None:
            assert len(parse_scenario(text)) == line_no + 1
        elif isinstance(refusal, ScenarioValidationError):
            with pytest.raises(ScenarioValidationError) as info:
                parse_scenario(text)
            assert str(info.value) == f"line {line_no}: {refusal}"
        else:
            with pytest.raises(ScenarioParseError) as info:
                parse_scenario(text)
            assert info.value.line_no == line_no
            assert str(info.value) == f"line {line_no}: {refusal}"
