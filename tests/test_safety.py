from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from showersim.controller import ControllerState, Occupancy, WaterMode
from showersim.safety import (
    Alert,
    AlertKind,
    GestureMeaning,
    SafetyConfig,
    SafetyEngine,
    check_occupancy_timeout,
    check_prolonged_hot,
    detect_fall_geometry,
    detect_thud,
    interpret_gesture,
)
from showersim.sensors import GestureCode

CFG = SafetyConfig()
OCC = Occupancy.OCCUPIED
EMP = Occupancy.EMPTY


def thud_oracle(samples, min_ones):
    """Count samples that are loud AND follow at least one quiet sample."""
    loud_after_silence = 0
    seen_quiet = False
    for s in samples:
        if s == 0:
            seen_quiet = True
        elif seen_quiet:
            loud_after_silence += 1
    return loud_after_silence >= min_ones


def hot_segments(history, now):
    """Contiguous hot segments as (start, end) pairs, the last ending at now."""
    segments = []
    start = None
    for i, (ts, mode) in enumerate(history):
        if mode is WaterMode.HOT and start is None:
            start = ts
        elif mode is not WaterMode.HOT and start is not None:
            segments.append((start, ts))
            start = None
    if start is not None:
        segments.append((start, now))
    return segments


def prolonged_hot_alerts_at(history, now):
    """Tick an engine through each mode change of an occupied shower, then
    once more at `now` in the last mode; the prolonged-hot alerts of that tick."""
    engine = SafetyEngine(CFG)
    ticks = history + [(now, history[-1][1])]
    for ts, mode in ticks:
        alerts, _ = engine.fuse_tick(
            (OCC, OCC, OCC), 0, None, ControllerState(OCC, mode, 20.0, 0.0), ts
        )
    return [a for a in alerts if a.kind is AlertKind.PROLONGED_HOT]


class TestFallGeometry:
    def test_fall_signature(self):
        assert detect_fall_geometry(EMP, EMP, OCC) is True

    def test_standing_person(self):
        assert detect_fall_geometry(OCC, OCC, OCC) is False

    def test_vacant_room(self):
        assert detect_fall_geometry(EMP, EMP, EMP) is False

    def test_true_on_exactly_one_of_eight_triples(self):
        truths = [
            triple
            for triple in itertools.product([OCC, EMP], repeat=3)
            if detect_fall_geometry(*triple)
        ]
        assert truths == [(EMP, EMP, OCC)]


class TestThud:
    def test_spike(self):
        assert detect_thud([0, 0, 0, 1, 1, 1, 0, 0, 0, 0], CFG) is True

    def test_silence(self):
        assert detect_thud([0] * 10, CFG) is False

    def test_sustained_noise_is_not_a_spike(self):
        assert detect_thud([1] * 10, CFG) is False

    def test_wrong_window_length_rejected(self):
        with pytest.raises(ValueError):
            detect_thud([0, 1, 0], CFG)

    def test_matches_oracle_on_all_1024_windows(self):
        for window in itertools.product((0, 1), repeat=10):
            assert detect_thud(list(window), CFG) == thud_oracle(window, CFG.thud_min_ones), window

    def test_matches_oracle_for_other_thresholds(self):
        for min_ones in (1, 2, 5):
            cfg = SafetyConfig(thud_min_ones=min_ones)
            for window in itertools.product((0, 1), repeat=10):
                assert detect_thud(list(window), cfg) == thud_oracle(window, min_ones)


class TestGestureMapping:
    def test_exhaustive_over_nine_codes(self):
        expected = {
            GestureCode.RIGHT: GestureMeaning.HELP,
            GestureCode.WAVE: GestureMeaning.HELP,
            GestureCode.LEFT: GestureMeaning.OKAY,
        }
        counts = {GestureMeaning.HELP: 0, GestureMeaning.OKAY: 0, GestureMeaning.NONE: 0}
        for code in GestureCode:
            meaning = interpret_gesture(code)
            assert meaning is expected.get(code, GestureMeaning.NONE)
            counts[meaning] += 1
        assert counts == {GestureMeaning.HELP: 2, GestureMeaning.OKAY: 1, GestureMeaning.NONE: 6}


class TestProlongedHot:
    def test_long_segment_alerts(self):
        alert = check_prolonged_hot(0.0, 1300.0, CFG)
        assert alert is not None and alert.kind is AlertKind.PROLONGED_HOT

    def test_short_segment_quiet(self):
        assert check_prolonged_hot(0.0, 600.0, CFG) is None

    def test_interruption_resets_the_clock(self):
        history = [(0.0, WaterMode.HOT), (700.0, WaterMode.NORMAL), (760.0, WaterMode.HOT)]
        now = 1460.0
        assert prolonged_hot_alerts_at(history, now) == []
        # oracle agreement: the newest contiguous segment is the one that counts
        segments = hot_segments(history, now)
        assert segments[-1] == (760.0, 1460.0)
        assert (segments[-1][1] - segments[-1][0]) < CFG.prolonged_hot_s

    def test_agrees_with_segment_oracle_when_firing(self):
        history = [(0.0, WaterMode.COLD), (100.0, WaterMode.HOT)]
        now = 1300.0
        alerts = prolonged_hot_alerts_at(history, now)
        segments = hot_segments(history, now)
        assert (segments[-1][1] - segments[-1][0]) >= CFG.prolonged_hot_s
        assert len(alerts) == 1 and alerts[0].timestamp == now

    def test_not_hot_right_now(self):
        assert check_prolonged_hot(None, 2000.0, CFG) is None

    def test_evidence_gives_the_duration_to_15_digits(self):
        alert = check_prolonged_hot(0.0, 1234567.5, SafetyConfig())
        assert alert.evidence == "hot water running for 1234567.5 s"  # :g read 1.23457e+06

    @settings(max_examples=300, deadline=None)
    @given(
        limit=st.integers(min_value=1, max_value=8),
        schedule=st.lists(
            st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from(list(WaterMode))),
            max_size=40,
        ),
    )
    def test_engine_agrees_with_segment_oracle(self, limit, schedule):
        """The alert and its "water off" land on exactly the first tick of an
        episode where the newest hot segment reaches the limit, and only then.

        Each schedule step is (seconds since the previous tick, water mode);
        OFF means the shower is empty, so an episode is a run of other modes.
        """
        engine = SafetyEngine(SafetyConfig(prolonged_hot_s=limit))
        history = []  # (time, mode) at each mode change: hot_segments' input
        fired = False
        since = None
        now = 0.0
        for step, mode in schedule:
            now += step
            if mode is WaterMode.OFF:
                state, since = empty_state(), None
            else:
                if since is None:
                    since, fired = now, False  # entry opens a new episode
                state = occupied_state(since=since, mode=mode)
            if not history or history[-1][1] is not mode:
                history.append((now, mode))
            start, end = (hot_segments(history, now) or [(now, now)])[-1]
            expected = mode is WaterMode.HOT and end - start >= limit and not fired
            fired = fired or expected

            alerts, commands = engine.fuse_tick((OCC, OCC, OCC), 0, None, state, now)
            hot = [a for a in alerts if a.kind is AlertKind.PROLONGED_HOT]
            assert len(hot) == int(expected), (now, history)
            assert ("water off" in commands) == expected
            if expected:
                assert hot[0].timestamp == now


class TestOccupancyTimeout:
    def test_boundary_fires(self):
        alert = check_occupancy_timeout(0.0, 1800.0, CFG)
        assert alert is not None and alert.kind is AlertKind.OCCUPANCY_TIMEOUT

    def test_under_threshold(self):
        assert check_occupancy_timeout(0.0, 1799.0, CFG) is None

    def test_not_occupied(self):
        assert check_occupancy_timeout(None, 5000.0, CFG) is None

    def test_evidence_gives_the_duration_to_15_digits(self):
        alert = check_occupancy_timeout(0.25, 1234567.75, SafetyConfig())
        assert alert.evidence == "shower occupied for 1234567.5 s"


def occupied_state(since=0.0, mode=WaterMode.COLD):
    return ControllerState(Occupancy.OCCUPIED, mode, 20.0, since)


def empty_state():
    return ControllerState()


class TestFusion:
    def make(self, **overrides):
        return SafetyEngine(SafetyConfig(**overrides))

    def run_tick(self, engine, geometry, sound=0, gesture=None, state=None, now=0.0):
        triple = (EMP, EMP, OCC) if geometry else (OCC, OCC, OCC)
        return engine.fuse_tick(triple, sound, gesture, state or occupied_state(), now)

    def test_thud_then_confirmed_geometry_alerts_on_second_tick(self):
        engine = self.make()
        state = occupied_state()
        # thud: three loud ticks after silence, then the geometry flips
        for now in range(3):
            alerts, _ = self.run_tick(engine, geometry=False, sound=1, state=state, now=float(now))
            assert alerts == []
        alerts, _ = self.run_tick(engine, geometry=True, sound=0, state=empty_state(), now=3.0)
        assert alerts == []  # first geometry tick: not yet confirmed
        alerts, _ = self.run_tick(engine, geometry=True, sound=0, state=empty_state(), now=4.0)
        assert [a.kind for a in alerts] == [AlertKind.FALL]
        assert alerts[0].timestamp == 4.0

    def test_geometry_alone_insufficient_by_default(self):
        engine = self.make()
        for now in range(6):
            alerts, _ = self.run_tick(
                engine, geometry=True, sound=0, state=empty_state(), now=float(now)
            )
            assert alerts == []

    def test_standalone_geometry_mode(self):
        engine = self.make(require_thud=False)
        alerts_seen = []
        for now in range(3):
            alerts, _ = self.run_tick(
                engine, geometry=True, sound=0, state=empty_state(), now=float(now)
            )
            alerts_seen.extend(alerts)
        assert [a.kind for a in alerts_seen] == [AlertKind.FALL]
        assert alerts_seen[0].timestamp == 1.0  # confirm=2: second geometry tick

    def test_stale_thud_outside_lookback_ignored(self):
        engine = self.make()
        state = occupied_state()
        for now in range(3):
            self.run_tick(engine, geometry=False, sound=1, state=state, now=float(now))
        # let the thud age out: quiet, geometry still normal
        for now in range(3, 10):
            self.run_tick(engine, geometry=False, sound=0, state=state, now=float(now))
        alerts_seen = []
        for now in range(10, 14):
            alerts, _ = self.run_tick(
                engine, geometry=True, sound=0, state=empty_state(), now=float(now)
            )
            alerts_seen.extend(alerts)
        assert alerts_seen == []

    def test_help_gesture_fires_same_tick(self):
        engine = self.make()
        alerts, _ = self.run_tick(
            engine, geometry=False, gesture=GestureCode.RIGHT, now=5.0
        )
        assert [a.kind for a in alerts] == [AlertKind.HELP_GESTURE]
        assert alerts[0].timestamp == 5.0
        assert engine.help_pending

    def test_wave_also_signals_help(self):
        engine = self.make()
        alerts, _ = self.run_tick(engine, geometry=False, gesture=GestureCode.WAVE)
        assert [a.kind for a in alerts] == [AlertKind.HELP_GESTURE]

    def test_okay_cancels_pending_help(self):
        engine = self.make()
        self.run_tick(engine, geometry=False, gesture=GestureCode.RIGHT, now=1.0)
        assert engine.help_pending
        alerts, commands = self.run_tick(
            engine, geometry=False, gesture=GestureCode.LEFT, now=2.0
        )
        assert alerts == []
        assert "clear help" in commands
        assert not engine.help_pending

    def test_unmapped_gesture_ignored(self):
        engine = self.make()
        alerts, commands = self.run_tick(engine, geometry=False, gesture=GestureCode.UP)
        assert alerts == [] and commands == []

    def test_alerts_fire_once_per_episode_and_rearm_on_reentry(self):
        engine = self.make()
        # first episode: two help gestures, one alert
        self.run_tick(engine, geometry=False, gesture=GestureCode.RIGHT, now=1.0)
        alerts, _ = self.run_tick(engine, geometry=False, gesture=GestureCode.RIGHT, now=2.0)
        assert alerts == []
        # leave, then a new episode re-arms the alert kinds
        self.run_tick(engine, geometry=False, state=empty_state(), now=3.0)
        alerts, _ = self.run_tick(
            engine, geometry=False, gesture=GestureCode.RIGHT, state=occupied_state(4.0), now=4.0
        )
        assert [a.kind for a in alerts] == [AlertKind.HELP_GESTURE]

    def test_prolonged_hot_alert_carries_water_off_command(self):
        engine = self.make(prolonged_hot_s=5)
        state = occupied_state(mode=WaterMode.HOT)
        fired = []
        for now in range(8):
            alerts, commands = self.run_tick(engine, geometry=False, state=state, now=float(now))
            if alerts:
                fired.append((alerts, commands, now))
        assert len(fired) == 1
        alerts, commands, now = fired[0]
        assert [a.kind for a in alerts] == [AlertKind.PROLONGED_HOT]
        assert "water off" in commands
        assert now == 5

    def test_occupancy_timeout_once(self):
        engine = self.make(occupancy_alert_s=4)
        state = occupied_state(since=0.0)
        kinds = []
        for now in range(8):
            alerts, _ = self.run_tick(engine, geometry=False, state=state, now=float(now))
            kinds.extend(a.kind for a in alerts)
        assert kinds == [AlertKind.OCCUPANCY_TIMEOUT]

    def test_detectors_are_deterministic(self):
        def drive():
            engine = self.make()
            out = []
            states = [occupied_state(), occupied_state(), empty_state(), empty_state()]
            sounds = [1, 1, 1, 0]
            geometries = [False, False, True, True]
            for now, (st_, snd, geo) in enumerate(zip(states, sounds, geometries)):
                out.append(self.run_tick(engine, geometry=geo, sound=snd, state=st_, now=float(now)))
            return out

        assert drive() == drive()


class TestThudWindowAgainstDetectThud:
    """The engine keeps its sound window as counts; at every tick its thud
    is the one detect_thud finds in the whole window."""

    @settings(max_examples=300, deadline=None)
    @given(
        thud=st.integers(min_value=2, max_value=40).flatmap(
            lambda samples: st.tuples(st.just(samples), st.integers(1, samples - 1))
        ),
        # runs of one bit, so windows fill with loud samples and empty again
        runs=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 50)), max_size=30),
    )
    @example(thud=(10, 3), runs=[(1, 12), (0, 1), (1, 3)])
    def test_each_tick_thuds_as_detect_thud_on_its_window(self, thud, runs):
        window_samples, min_ones = thud
        cfg = SafetyConfig(thud_window_samples=window_samples, thud_min_ones=min_ones)
        engine = SafetyEngine(cfg)
        window = [0] * window_samples
        bits = [bit for bit, length in runs for _ in range(length)]
        for tick, bit in enumerate(bits):
            window = window[1:] + [bit]
            engine.fuse_tick((OCC, OCC, OCC), bit, None, empty_state(), float(tick))
            assert (engine._last_thud_tick == tick) == detect_thud(window, cfg), tick


class TestFallTimingAgainstThudOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        thud=st.integers(min_value=2, max_value=12).flatmap(
            lambda samples: st.tuples(st.just(samples), st.integers(1, samples - 1))
        ),  # (thud_window_samples, thud_min_ones) that can hold a thud
        confirm=st.integers(min_value=1, max_value=3),
        require_thud=st.booleans(),
        ticks=st.lists(
            # (sound bit, fall geometry, shower occupied): long geometry runs
            # and frequent entries, which re-arm FALL, make the FALL ticks
            # show each tick's thud
            st.tuples(st.integers(0, 1), st.sampled_from([True] * 4 + [False]), st.booleans()),
            max_size=80,
        ),
    )
    # The thud of the loud tick 1 still holds on the quiet tick 2, which is
    # what lets the FALL of tick 3 through.
    @example(
        thud=(3, 1),
        confirm=1,
        require_thud=True,
        ticks=[(0, False, False), (1, False, False), (0, False, False), (0, True, False)],
    )
    def test_fall_ticks_match_detect_thud_on_the_whole_window(
        self, thud, confirm, require_thud, ticks
    ):
        window_samples, min_ones = thud
        cfg = SafetyConfig(
            thud_window_samples=window_samples,
            thud_min_ones=min_ones,
            geometry_confirm_ticks=confirm,
            require_thud=require_thud,
        )
        engine = SafetyEngine(cfg)
        window = [0] * window_samples
        last_thud = None
        streak = 0
        fired = False
        was_occupied = False
        for tick, (bit, geometry, occupied) in enumerate(ticks):
            if occupied and not was_occupied:
                fired = False  # entry opens a new episode
            was_occupied = occupied
            window = window[1:] + [bit]
            if detect_thud(window, cfg):
                last_thud = tick
            streak = streak + 1 if geometry else 0
            thud_recent = last_thud is not None and tick - last_thud <= confirm
            expected = streak >= confirm and (thud_recent or not require_thud) and not fired
            fired = fired or expected

            state = occupied_state(since=0.0) if occupied else empty_state()
            triple = (EMP, EMP, OCC) if geometry else (OCC, OCC, OCC)
            alerts, _ = engine.fuse_tick(triple, bit, None, state, float(tick))
            assert [a.kind for a in alerts if a.kind is AlertKind.FALL] == (
                [AlertKind.FALL] if expected else []
            ), tick


class TestSafetyConfig:
    def test_defaults_valid(self):
        SafetyConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("occupancy_alert_s", 0),
            ("prolonged_hot_s", -1),
            ("thud_window_samples", 0),
            ("thud_min_ones", 0),
            ("geometry_confirm_ticks", 0),
        ],
    )
    def test_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError):
            SafetyConfig(**{field: value})

    @pytest.mark.parametrize("window,min_ones", [(10, 10), (10, 11), (1, 1), (3, 5)])
    def test_a_thud_the_window_cannot_hold_is_rejected(self, window, min_ones):
        # detect_thud needs a quiet sample first, so window - 1 loud ones at most
        with pytest.raises(ValueError, match="thud_min_ones must be below thud_window_samples"):
            SafetyConfig(thud_window_samples=window, thud_min_ones=min_ones)
