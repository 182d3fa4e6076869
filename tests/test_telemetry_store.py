from __future__ import annotations

import gc
import json
import logging
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import unittest
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from showersim.telemetry.server import _render_row
from showersim.telemetry.store import (
    AuthenticationError,
    Entry,
    NotFoundError,
    StoreClosedError,
    TelemetryError,
    TelemetryStore,
    ValidationError,
)

from conftest import TESTS_DIR

KEY_RE = re.compile(r"^[A-Z0-9]{16}$")


def make_channel(store, fields=("distance", "temperature", "humidity"), **kwargs):
    return store.create_channel("shower", list(fields), **kwargs)


class TestCreateChannel:
    def test_three_fields(self, store):
        ch = make_channel(store)
        assert ch.channel_id == 1
        assert len(ch.field_names) == 3

    def test_eight_fields_ok(self, store):
        ch = store.create_channel("x", [f"f{i}" for i in range(8)])
        assert len(ch.field_names) == 8

    def test_nine_fields_rejected(self, store):
        with pytest.raises(ValidationError):
            store.create_channel("x", [f"f{i}" for i in range(9)])

    def test_zero_fields_rejected(self, store):
        with pytest.raises(ValidationError):
            store.create_channel("x", [])

    def test_key_shape_and_uniqueness(self, store):
        seen = set()
        for _ in range(20):
            ch = make_channel(store)
            assert KEY_RE.match(ch.write_key)
            assert KEY_RE.match(ch.read_key)
            assert ch.write_key != ch.read_key
            seen.add(ch.write_key)
            seen.add(ch.read_key)
        assert len(seen) == 40

    def test_keys_are_drawn_from_the_system_random(self, store, monkeypatch):
        # SystemRandom draws from os.urandom, as secrets.choice does.
        sources = []
        system_choice = random.SystemRandom.choice

        def choice(source, alphabet):
            sources.append(type(source))
            return system_choice(source, alphabet)

        monkeypatch.setattr(random.SystemRandom, "choice", choice)
        ch = make_channel(store)
        assert KEY_RE.match(ch.write_key) and KEY_RE.match(ch.read_key)
        assert sources == [random.SystemRandom] * 32  # 16 characters a key

    def test_ids_increment(self, store):
        assert make_channel(store).channel_id == 1
        assert make_channel(store).channel_id == 2

    def test_bad_visibility_rejected(self, store):
        with pytest.raises(ValidationError):
            store.create_channel("x", ["f"], visibility="public")


class TestWriteUpdate:
    def test_first_write_gets_entry_one(self, store):
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: 23}, 0.0) == 1

    def test_sequence_is_monotone(self, store):
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: 23}, 0.0) == 1
        assert store.write_update(ch.write_key, {1: 24}, 1.0) == 2

    def test_too_soon_rejected_and_not_stored(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 1}, 0.0)
        store.write_update(ch.write_key, {1: 2}, 1.0)
        assert store.write_update(ch.write_key, {1: 3}, 1.5) == 0
        feed = store.read_feed(ch.channel_id, ch.read_key, 10)
        assert [e.entry_id for e in feed] == [1, 2]
        assert [e.values[1] for e in feed] == [1, 2]

    def test_rate_rule_against_replay_oracle(self, store):
        ch = make_channel(store, min_post_interval_s=1.0)
        times = [0.0, 0.4, 1.0, 1.5, 2.0, 2.9, 3.1, 10.0, 10.5, 11.0]
        # independent replay of the acceptance rule
        expected_accepted = []
        last = None
        for t in times:
            if last is None or t >= last + 1.0:
                expected_accepted.append(t)
                last = t
        got = [store.write_update(ch.write_key, {1: i}, t) for i, t in enumerate(times)]
        accepted_times = [t for t, entry in zip(times, got) if entry > 0]
        assert accepted_times == expected_accepted
        assert [e for e in got if e > 0] == list(range(1, len(expected_accepted) + 1))

    def test_unknown_key_is_auth_error(self, store):
        make_channel(store)
        with pytest.raises(AuthenticationError):
            store.write_update("NOTAREALKEY00000", {1: 1}, 0.0)

    def test_empty_values_rejected(self, store):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {}, 0.0)

    def test_position_outside_schema_rejected(self, store):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {4: 1}, 0.0)

    @pytest.mark.parametrize("backed", [True, False], ids=["file", "memory"])
    @pytest.mark.parametrize(
        "created_at",
        [float("nan"), float("inf"), float("-inf"), 10**400, "x", "", [0.0]],
        ids=["nan", "inf", "-inf", "overflow", "text", "empty", "list"],
    )
    def test_non_finite_created_at_rejected(self, tmp_path, backed, created_at):
        # float() refuses the last four: each is a ValidationError (400) all the same
        store = TelemetryStore(tmp_path / "data" if backed else None)
        try:
            ch = make_channel(store)
            with pytest.raises(ValidationError, match="created_at must be"):
                store.write_update(ch.write_key, {1: 1}, created_at)
            assert store.read_feed(ch.channel_id, ch.read_key, 10) == []
        finally:
            store.close()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, store, value):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {1: 1, 2: value}, 0.0)
        assert store.read_feed(ch.channel_id, ch.read_key, 10) == []

    @pytest.mark.parametrize(
        "values",
        [
            {True: 5},
            {False: 5},
            {1.0: 5},
            {"1": 5},
            {None: 5},
            {1: [float("nan")]},
            {1: [float("inf")]},
            {1: [1]},
            {1: (1,)},
            {1: {"a": 1}},
            {1: None},
            {1: True},
            {1: b"5"},
            {1: 1j},
            {1: 10**5000},
            {1: -(10**4300)},
            {1: "a\ud800\udc00"},  # JSON would replay the pair as "a\U00010000"
        ],
        ids=[
            "bool-position",
            "false-position",
            "float-position",
            "str-position",
            "none-position",
            "list-of-nan",
            "list-of-inf",
            "list",
            "tuple",
            "dict",
            "none",
            "bool",
            "bytes",
            "complex",
            "int-too-long-to-write",
            "negative-int-too-long-to-write",
            "joined-surrogate-pair",
        ],
    )
    def test_a_write_the_api_cannot_make_is_refused(self, store, tmp_path, values):
        # The log cannot replay such an entry (a bool position is written as
        # "True", a NaN in a list as NaN, an int of over 4,300 digits not at
        # all), so its replay would cut the log there and lose every entry
        # after it. A memory-only store refuses the same writes.
        memory = TelemetryStore()
        in_memory = make_channel(memory)
        with pytest.raises(ValidationError):
            memory.write_update(in_memory.write_key, values, 0.0)
        assert memory.read_feed(in_memory.channel_id, in_memory.read_key, 10) == []
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, values, 0.0)
        assert store.write_update(ch.write_key, {1: 6}, 1.0) == 1
        reopened = TelemetryStore(tmp_path / "data")
        try:
            assert reopened.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 1.0, {1: 6})]
        finally:
            reopened.close()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({True: 5}, "field position True outside the channel schema"),
            ({1.0: 5}, "field position 1.0 outside the channel schema"),
            ({"1": 5}, "field position '1' outside the channel schema"),
            ({None: 5}, "field position None outside the channel schema"),
            ({4: 5}, "field position 4 outside the channel schema"),
            ({1: [float("nan")]}, "field1 must be an int, a finite float or text"),
            ({1: None}, "field1 must be an int, a finite float or text"),
            ({1: True}, "field1 must be an int, a finite float or text"),
            ({1: b"5"}, "field1 must be an int, a finite float or text"),
            ({2: 10**5000}, "field2 must be an int, a finite float or text"),
            ({3: float("-inf")}, "field3 must be an int, a finite float or text"),
            # two faults: a bad position is named before any bad value
            ({1: float("nan"), 4: 1}, "field position 4 outside the channel schema"),
            ({2: None, "x": 5}, "field position 'x' outside the channel schema"),
        ],
    )
    def test_a_refused_write_names_its_fault(self, store, values, message):
        ch = make_channel(store)
        with pytest.raises(ValidationError) as refused:
            store.write_update(ch.write_key, values, 0.0)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "values",
        [
            {1: 6, 2: float("nan")},
            {1: 6, 2: True},
            {1: 6, 2: 10**5000},
            {1: 6, 9: 1},
            {2: 6, True: 1},  # {1: 6, True: 1} would be the dict {1: 1}: True == 1
        ],
        ids=["nan-value", "bool-value", "int-too-long", "position-9", "bool-position"],
    )
    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "file"])
    def test_a_good_item_then_a_bad_one_stores_nothing(self, tmp_path, values, on_disk):
        store = TelemetryStore(tmp_path / "data" if on_disk else None)
        try:
            ch = make_channel(store)
            assert store.write_update(ch.write_key, {1: 5, 2: 7}, 0.0) == 1
            log = tmp_path / "data" / f"channel-{ch.channel_id}.log"
            log_bytes = log.read_bytes() if on_disk else None
            with pytest.raises(ValidationError):
                store.write_update(ch.write_key, values, 1.0)
            assert store.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 0.0, {1: 5, 2: 7})]
            assert ch.last_values == {1: 5, 2: 7}
            assert (log.read_bytes() if on_disk else None) == log_bytes
            assert store.write_update(ch.write_key, {1: 8}, 1.0) == 2
        finally:
            store.close()

    @pytest.mark.parametrize(
        "value",
        [
            0, -7, 2**62, 10**4300 - 1, -(10**4300 - 1),
            1.5, -0.0, 1e308,
            "", "温度 🚿", "a\nb", "\u2028", "\x85",
        ],
        ids=[
            "zero",
            "negative",
            "big-int",
            "longest-int",
            "longest-negative-int",
            "float",
            "negative-zero",
            "huge-float",
            "empty-text",
            "non-ascii-text",
            "text-with-newline",
            "line-separator",
            "next-line",
        ],
    )
    def test_a_value_the_api_can_send_replays_as_written(self, store, tmp_path, value):
        # Text holding a line break still makes one record on one log line.
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: value, 2: 1}, 0.0) == 1
        assert store.write_update(ch.write_key, {1: 2}, 1.0) == 2
        expected = [Entry(1, 0.0, {1: value, 2: 1}), Entry(2, 1.0, {1: 2})]
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(tmp_path / "data")
        try:
            assert repr(reopened.read_feed(ch.channel_id, ch.read_key, 10)) == repr(expected)
        finally:
            reopened.close()

    def test_inf_write_does_not_brick_channel(self, store):
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: 1}, 0.0) == 1
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {1: 2}, float("inf"))
        assert store.write_update(ch.write_key, {1: 3}, 1.0) == 2

    def test_created_at_non_decreasing_per_channel(self, store):
        ch = make_channel(store, min_post_interval_s=0.0)
        rng = random.Random(99)
        for i in range(200):
            store.write_update(ch.write_key, {1: i}, rng.uniform(0, 100))
        feed = store.read_feed(ch.channel_id, ch.read_key, 1000)
        created = [e.created_at for e in feed]
        assert created == sorted(created)


class TestReadFeed:
    def test_full_feed_oldest_first(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 10}, 0.0)
        store.write_update(ch.write_key, {1: 20}, 1.0)
        feed = store.read_feed(ch.channel_id, ch.read_key, 2)
        assert [e.entry_id for e in feed] == [1, 2]

    def test_latest_only(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 10}, 0.0)
        store.write_update(ch.write_key, {1: 20}, 1.0)
        feed = store.read_feed(ch.channel_id, ch.read_key, 1)
        assert [e.entry_id for e in feed] == [2]

    def test_wrong_key_auth_error(self, store):
        ch = make_channel(store)
        with pytest.raises(AuthenticationError):
            store.read_feed(ch.channel_id, "WRONGKEY12345678", 1)

    def test_unknown_channel_not_found(self, store):
        with pytest.raises(NotFoundError):
            store.read_feed(42, "ANYKEY0000000000", 1)

    def test_results_must_be_positive(self, store):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.read_feed(ch.channel_id, ch.read_key, 0)

    def test_shared_channel_accepts_listed_user(self, store):
        ch = store.create_channel(
            "family", ["f1"], visibility="shared", shared_with=["grandma"]
        )
        store.write_update(ch.write_key, {1: 5}, 0.0)
        assert store.read_feed(ch.channel_id, "", 1, user="grandma")[0].values[1] == 5
        with pytest.raises(AuthenticationError):
            store.read_feed(ch.channel_id, "", 1, user="stranger")

    @pytest.mark.parametrize(
        "after, results, ids",
        [
            (0, 3, [3, 4, 5]),
            (2, 3, [3, 4, 5]),
            (3, 3, [4, 5]),
            (5, 3, []),
            (9, 3, []),
            (1, 3, [3, 4, 5]),
            (0, 10, [1, 2, 3, 4, 5]),
            (4, 10, [5]),
        ],
        ids=[
            "zero",
            "just-before-the-page",
            "inside-the-page",
            "at-the-newest-id",
            "past-the-newest-id",
            "more-new-entries-than-results",
            "zero-on-a-short-channel",
            "inside-a-short-channel",
        ],
    )
    def test_only_entries_above_after(self, store, after, results, ids):
        ch = make_channel(store)
        for i in range(5):
            store.write_update(ch.write_key, {1: i * 10, 3: f"n{i}"}, float(i))
        feed = store.read_feed(ch.channel_id, ch.read_key, results, after=after)
        assert feed == [Entry(i, float(i - 1), {1: (i - 1) * 10, 3: f"n{i - 1}"}) for i in ids]

    def test_after_keeps_the_auth_and_results_checks(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 1}, 0.0)
        with pytest.raises(AuthenticationError):
            store.read_feed(ch.channel_id, "WRONGKEY12345678", 1, after=1)
        with pytest.raises(ValidationError):
            store.read_feed(ch.channel_id, ch.read_key, 0, after=1)

    def test_values_come_in_position_order_and_the_log_keeps_the_callers(self, store, tmp_path):
        ch = make_channel(store)
        store.write_update(ch.write_key, {3: "wet", 1: 8}, 0.0)
        (entry,) = store.read_feed(ch.channel_id, ch.read_key, 1)
        assert list(entry.values.items()) == [(1, 8), (3, "wet")]
        log = tmp_path / "data" / f"channel-{ch.channel_id}.log"
        assert log.read_bytes() == b'{"entry_id": 1, "created_at": 0.0, "values": {"3": "wet", "1": 8}}\n'

    def test_a_channel_repr_leaves_out_its_feed(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 111111}, 0.0)
        store.write_update(ch.write_key, {1: 222222}, 1.0)
        assert "111111" not in repr(ch)
        assert "last_values={1: 222222}" in repr(ch)


class TestReadLastField:
    def test_newest_value(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 8}, 0.0)
        store.write_update(ch.write_key, {1: 74}, 1.0)
        assert store.read_last_field(ch.channel_id, ch.read_key, 1) == 74

    def test_empty_channel(self, store):
        ch = make_channel(store)
        assert store.read_last_field(ch.channel_id, ch.read_key, 1) is None

    def test_position_out_of_schema(self, store):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.read_last_field(ch.channel_id, ch.read_key, 9)

    def test_skips_entries_missing_the_field(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 8, 2: 25}, 0.0)
        store.write_update(ch.write_key, {1: 74}, 1.0)
        assert store.read_last_field(ch.channel_id, ch.read_key, 2) == 25

    def test_reads_without_scanning_the_feed(self, store):
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 8, 2: 25}, 0.0)
        ch.values = UnscannableList(ch.values)
        store.write_update(ch.write_key, {1: 74}, 1.0)
        last = [store.read_last_field(ch.channel_id, ch.read_key, pos) for pos in (1, 2, 3)]
        assert last == [74, 25, None]

    def test_last_values_survive_a_reopen(self, tmp_path):
        store = TelemetryStore(tmp_path / "data")
        ch = make_channel(store)
        store.write_update(ch.write_key, {1: 8, 2: 25.5}, 0.0)
        store.write_update(ch.write_key, {1: 74, 3: "wet"}, 1.0)
        store.close()
        reopened = TelemetryStore(tmp_path / "data")
        try:
            last = [reopened.read_last_field(ch.channel_id, ch.read_key, pos) for pos in (1, 2, 3)]
        finally:
            reopened.close()
        assert last == [74, 25.5, "wet"]


class UnscannableList(list):
    """A feed that fails any walk over its entries."""

    def __iter__(self):
        raise AssertionError("the feed was scanned")

    __reversed__ = __iter__


class TestRecovery:
    def test_durability_round_trip(self, tmp_path):
        data = tmp_path / "data"
        first = TelemetryStore(data)
        ch = first.create_channel("shower", ["distance"])
        for i in range(3):
            first.write_update(ch.write_key, {1: i * 10}, float(i))
        first.close()

        second = TelemetryStore(data)
        feed = second.read_feed(ch.channel_id, ch.read_key, 10)
        assert [e.values[1] for e in feed] == [0, 10, 20]
        # sequence continues where it left off
        assert second.write_update(ch.write_key, {1: 99}, 10.0) == 4
        second.close()

    def test_empty_data_dir(self, tmp_path):
        store = TelemetryStore(tmp_path / "fresh")
        with pytest.raises(NotFoundError):
            store.channel(1)
        store.close()

    def test_torn_final_record_truncated(self, tmp_path):
        data = tmp_path / "data"
        first = TelemetryStore(data)
        ch = first.create_channel("shower", ["distance"])
        for i in range(100):
            first.write_update(ch.write_key, {1: i}, float(i))
        first.close()

        log = data / f"channel-{ch.channel_id}.log"
        raw = log.read_bytes()
        log.write_bytes(raw[:-7])  # tear the final record mid-JSON

        second = TelemetryStore(data)
        feed = second.read_feed(ch.channel_id, ch.read_key, 200)
        assert len(feed) == 99
        assert [e.entry_id for e in feed] == list(range(1, 100))
        # the torn bytes are gone from disk as well
        assert second.write_update(ch.write_key, {1: 999}, 1000.0) == 100
        second.close()

    def test_garbage_trailing_line_truncated(self, tmp_path):
        data = tmp_path / "data"
        first = TelemetryStore(data)
        ch = first.create_channel("shower", ["distance"])
        first.write_update(ch.write_key, {1: 1}, 0.0)
        first.close()
        log = data / f"channel-{ch.channel_id}.log"
        with log.open("ab") as fh:
            fh.write(b"{\"entry_id\": 2, truncated garbage\n")
        second = TelemetryStore(data)
        assert len(second.read_feed(ch.channel_id, ch.read_key, 10)) == 1
        second.close()

    def test_a_new_channel_never_adopts_a_dropped_channels_log(self, tmp_path, caplog):
        data = tmp_path / "data"
        first = TelemetryStore(data)
        first.create_channel("kept", ["distance"])
        dropped = first.create_channel("dropped", ["distance"])
        for i in range(3):
            first.write_update(dropped.write_key, {1: i}, float(i))
        first.close()
        meta = data / "channels.jsonl"
        raw = meta.read_bytes()
        meta.write_bytes(raw[: raw.index(b"\n") + 20])  # tear channel 2's line
        orphan = (data / "channel-2.log").read_bytes()

        second = TelemetryStore(data)
        with pytest.raises(NotFoundError):
            second.channel(2)
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            ch = second.create_channel("new", ["distance"])
        assert ch.channel_id == 3
        assert "id 2 is not reused" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            with pytest.raises(ValidationError):
                second.create_channel("refused", [])
        assert caplog.records == []  # a refused channel is checked before the id search
        assert second.write_update(ch.write_key, {1: 99}, 50.0) == 1
        second.close()

        third = TelemetryStore(data)
        try:
            assert third.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 50.0, {1: 99})]
            assert (data / "channel-2.log").read_bytes() == orphan
        finally:
            third.close()


class TestAgainstReferenceModel:
    def test_feed_matches_in_memory_model(self, store):
        """Random op sequence replayed against a plain-list reference."""
        rng = random.Random(2024)
        ch = make_channel(store, min_post_interval_s=1.0)
        accepted = []  # (created_at, values) the model says should be stored
        last = None
        t = 0.0
        for i in range(500):
            t += rng.choice([0.25, 0.5, 1.0, 1.5, 3.0])
            values = {1: i, 2: rng.randint(0, 50)}
            entry_id = store.write_update(ch.write_key, dict(values), t)
            if last is None or t >= last + 1.0:
                accepted.append((t, values))
                last = t
                assert entry_id == len(accepted)
            else:
                assert entry_id == 0
            if i % 50 == 0:
                n = rng.randint(1, 20)
                feed = store.read_feed(ch.channel_id, ch.read_key, n)
                expected = accepted[-n:]
                assert [(e.created_at, e.values) for e in feed] == expected

    def test_no_key_works_across_channels(self, store):
        channels = [make_channel(store) for _ in range(6)]
        rng = random.Random(7)
        for _ in range(100):
            a, b = rng.sample(channels, 2)
            with pytest.raises(AuthenticationError):
                store.write_update(a.read_key, {1: 1}, 0.0)  # read key can't write
            with pytest.raises(AuthenticationError):
                store.write_update(b.write_key + "X", {1: 1}, 0.0)
            with pytest.raises(AuthenticationError):
                store.read_feed(a.channel_id, b.read_key, 1)  # other channel's key
            with pytest.raises(AuthenticationError):
                store.read_feed(a.channel_id, a.write_key, 1)  # write key can't read


class TestConcurrency:
    def test_gapless_ids_under_concurrent_writers(self, store):
        ch = make_channel(store, min_post_interval_s=0.0)
        per_writer = 250
        writers = 4
        ids = []
        lock = threading.Lock()

        def writer(base):
            mine = []
            for i in range(per_writer):
                entry = store.write_update(ch.write_key, {1: base + i}, float(base + i))
                mine.append(entry)
            with lock:
                ids.extend(mine)

        threads = [threading.Thread(target=writer, args=(w * per_writer,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        accepted = sorted(i for i in ids if i > 0)
        # interleaved timestamps may be rate-rejected, but accepted ids are gapless
        assert accepted == list(range(1, len(accepted) + 1))
        feed = store.read_feed(ch.channel_id, ch.read_key, 10_000)
        assert [e.entry_id for e in feed] == accepted


def one_entry_store(tmp_path):
    """A data dir holding a 1-field channel with entry 1 (value 1 at 0.0)."""
    data = tmp_path / "data"
    first = TelemetryStore(data)
    ch = first.create_channel("shower", ["distance"])
    first.write_update(ch.write_key, {1: 1}, 0.0)
    first.close()
    return data, ch, data / f"channel-{ch.channel_id}.log"


class TestReplayInvariants:
    """Replay treats a record that breaks a write-path invariant as the torn point."""

    @pytest.mark.parametrize(
        "record",
        [
            b"[]",
            b'{"entry_id": 2}',
            b'{"entry_id": 7, "created_at": 1.0, "values": {"1": 7}}',
            b'{"entry_id": 2, "created_at": NaN, "values": {"1": 2}}',
            b'{"entry_id": 2, "created_at": -5.0, "values": {"1": 2}}',
            b'{"entry_id": 2, "created_at": 1.0, "values": {"9": 2}}',
            b'{"entry_id": 2, "created_at": 1.0, "values": {"1": 1e999}}',
            b'{"entry_id": 2, "created_at": 1.0, "values": {}}',
        ],
        ids=[
            "not-an-object",
            "missing-keys",
            "id-gap",
            "nan-created-at",
            "created-at-goes-back",
            "position-outside-schema",
            "infinite-value",
            "empty-values",
        ],
    )
    def test_bad_record_is_truncated(self, tmp_path, caplog, record):
        data, ch, log = one_entry_store(tmp_path)
        whole = log.read_bytes()
        good = b'{"entry_id": 2, "created_at": 3.0, "values": {"1": 3}}\n'
        with log.open("ab") as fh:
            fh.write(record + b"\n" + good)  # nothing after the bad record survives
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            second = TelemetryStore(data)
        try:
            assert second.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 0.0, {1: 1})]
            assert log.read_bytes() == whole
            assert any("truncating" in r.getMessage() for r in caplog.records)
            assert second.write_update(ch.write_key, {1: 2}, 2.0) == 2
        finally:
            second.close()

    @pytest.mark.parametrize("tail", ["cut", "rest-of-log"])
    def test_multibyte_character_torn_mid_sequence(self, tmp_path, tail):
        data, ch, log = one_entry_store(tmp_path)
        whole = log.read_bytes()
        line = '{"entry_id": 2, "created_at": 1.0, "values": {"1": "温度"}}\n'.encode("utf-8")
        log.write_bytes(whole + line)
        intact = TelemetryStore(data)  # raw UTF-8 text is a valid record
        assert intact.read_feed(ch.channel_id, ch.read_key, 10)[-1] == Entry(2, 1.0, {1: "温度"})
        intact.close()

        cut = len(whole) + line.index("温".encode("utf-8")) + 1  # inside the 3-byte sequence
        torn = (whole + line)[:cut]
        if tail == "rest-of-log":
            torn += line[line.index(b'"}}'):] + line.replace(b'"entry_id": 2', b'"entry_id": 3')
        log.write_bytes(torn)
        second = TelemetryStore(data)
        try:
            assert second.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 0.0, {1: 1})]
            assert log.read_bytes() == whole
        finally:
            second.close()


FIXTURE_DIR = TESTS_DIR / "data" / "store-v1"
# (channel id, created_at, values) in the order the fixture was written.
FIXTURE_WRITES = [
    (1, 0.0, {1: 140, 2: 23, 3: "dry"}),
    (2, 0.0, {1: 15, 2: "bath"}),
    (1, 1.0, {1: 59.5, 2: 24.25}),
    (2, 0.5, {1: 15.5}),
    (1, 2.5, {3: "wet floor, café"}),
    (1, 4.0, {1: 16, 2: 22.0, 3: "help"}),
    (2, 100.25, {2: "night"}),
]


class TestFormatCompat:
    """tests/data/store-v1 was written by the store before replay became one
    pass: two channels with int, float and text values, and a torn record
    (a crashed writer) appended to channel 1's log by hand."""

    def load(self, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(FIXTURE_DIR, data)
        return data, TelemetryStore(data)

    def test_loads_to_the_exact_feed_and_drops_the_torn_tail(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            data, store = self.load(tmp_path)
        try:
            expected = {1: [], 2: []}
            for channel_id, created_at, values in FIXTURE_WRITES:
                entries = expected[channel_id]
                entries.append(Entry(len(entries) + 1, created_at, values))
            for channel_id, entries in expected.items():
                ch = store.channel(channel_id)
                # repr tells 22.0 from 22
                assert repr(store.read_feed(channel_id, ch.read_key, 10)) == repr(entries)
            assert store.channel(2).shared_with == ["grandma"]
            assert store.channel(2).min_post_interval_s == 0.5

            torn = (FIXTURE_DIR / "channel-1.log").read_bytes()
            whole_end = torn.rindex(b"\n") + 1
            assert whole_end < len(torn)
            assert (data / "channel-1.log").read_bytes() == torn[:whole_end]
            assert (data / "channel-2.log").read_bytes() == (FIXTURE_DIR / "channel-2.log").read_bytes()
            assert [r.getMessage().split(":")[0] for r in caplog.records] == [
                f"truncating {data / 'channel-1.log'} at byte {whole_end}"
            ]
            assert store.write_update(store.channel(1).write_key, {1: 1}, 5.0) == 5
        finally:
            store.close()

    def test_same_writes_give_the_same_bytes(self, tmp_path):
        data, old = self.load(tmp_path)
        old.close()
        fresh_dir = tmp_path / "fresh"
        fresh = TelemetryStore(fresh_dir)
        channels = {
            1: fresh.create_channel("shower", ["distance_cm", "temperature_c", "note"]),
            2: fresh.create_channel(
                "room",
                ["humidity_pct", "label"],
                visibility="shared",
                shared_with=["grandma"],
                min_post_interval_s=0.5,
            ),
        }
        for channel_id, created_at, values in FIXTURE_WRITES:
            assert fresh.write_update(channels[channel_id].write_key, values, created_at) > 0
        fresh.close()
        for name in ("channel-1.log", "channel-2.log"):
            assert (fresh_dir / name).read_bytes() == (data / name).read_bytes()
        meta = (fresh_dir / "channels.jsonl").read_text(encoding="utf-8")
        for channel_id, ch in channels.items():  # keys are random; the rest must match
            original = old.channel(channel_id)
            meta = meta.replace(ch.write_key, original.write_key).replace(ch.read_key, original.read_key)
        assert meta == (data / "channels.jsonl").read_text(encoding="utf-8")


class TestClose:
    @pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
    def test_write_after_close_raises_and_appends_nothing(self, tmp_path, on_disk):
        data = tmp_path / "data"
        store = TelemetryStore(data if on_disk else None)
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: 1}, 0.0) == 1
        store.close()
        log = data / f"channel-{ch.channel_id}.log"
        before = log.read_bytes() if on_disk else None
        with pytest.raises(StoreClosedError):
            store.write_update(ch.write_key, {1: 2}, 1.0)
        with pytest.raises(StoreClosedError):
            store.create_channel("late", ["x"])
        assert [e.entry_id for e in store.read_feed(ch.channel_id, ch.read_key, 10)] == [1]
        if on_disk:
            assert log.read_bytes() == before
            reopened = TelemetryStore(data)
            try:
                assert reopened.channel(ch.channel_id).name == ch.name
                with pytest.raises(NotFoundError):  # the refused "late" channel
                    reopened.channel(ch.channel_id + 1)
                assert reopened.write_update(ch.write_key, {1: 2}, 1.0) == 2
            finally:
                reopened.close()

    def test_close_waits_for_an_append_in_flight(self, tmp_path):
        store = TelemetryStore(tmp_path / "data")
        ch = make_channel(store)
        assert store.write_update(ch.write_key, {1: 1}, 0.0) == 1
        with ch.lock:  # what an append holds from its closed-check to its flush
            closer = threading.Thread(target=store.close, daemon=True)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()
        closer.join(timeout=10)
        assert not closer.is_alive()
        with pytest.raises(StoreClosedError):
            store.write_update(ch.write_key, {1: 2}, 1.0)

    @pytest.mark.parametrize("round_", range(4))
    def test_close_racing_writers_keeps_every_acknowledged_entry(self, tmp_path, round_):
        data = tmp_path / "data"
        store = TelemetryStore(data)
        ch = make_channel(store, min_post_interval_s=0.0)
        acked = [[] for _ in range(4)]  # ids each writer was told were accepted
        errors = []

        def writer(mine):
            try:
                while True:
                    mine.append(store.write_update(ch.write_key, {1: len(mine)}, 0.0))
            except StoreClosedError:
                pass
            except Exception as exc:  # noqa: BLE001  (reported by the assertion below)
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(mine,), daemon=True) for mine in acked]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while sum(map(len, acked)) < 100 * (round_ + 1) and time.monotonic() < deadline:
                time.sleep(0.0005)
            store.close()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        accepted = sorted(i for mine in acked for i in mine)
        assert len(accepted) >= 100 * (round_ + 1)
        assert accepted == list(range(1, len(accepted) + 1))
        reopened = TelemetryStore(data)
        try:
            feed = reopened.read_feed(ch.channel_id, ch.read_key, len(accepted) + 10)
            assert [e.entry_id for e in feed] == accepted
        finally:
            reopened.close()


# The start of a fresh interpreter's script: a store over sys.argv[1],
# raised(call, *args), which gives the name and status of what the call
# raised, and refused(call, *args, limit=n), which makes the call while no
# file may grow past n bytes (RLIMIT_FSIZE: a write that crosses it stops
# short and the next one fails with EFBIG, as on a full disk).
LIMITED_FILES = """
import json, os, resource, sys
from showersim.telemetry.store import TelemetryStore

def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return [type(exc).__name__, getattr(exc, "status", None)]

def refused(call, *args, limit):
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        return raised(call, *args)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))

store = TelemetryStore(sys.argv[1])
"""

ENTRY_LOG_FILLS = LIMITED_FILES + """
ch = store.create_channel("shower", ["n"], min_post_interval_s=0)
store.write_update(ch.write_key, {1: 1}, 0.0)
log = os.path.join(sys.argv[1], f"channel-{ch.channel_id}.log")
size = os.path.getsize(log)
error = refused(store.write_update, ch.write_key, {1: 2}, 1.0, limit=size + 10)
sizes = [size, os.path.getsize(log)]
later = [store.write_update(ch.write_key, {1: n}, float(n)) for n in (3, 4)]
store.close()
print(json.dumps({"error": error, "sizes": sizes, "later": later, "read_key": ch.read_key}))
"""

CHANNELS_FILE_FILLS = LIMITED_FILES + """
store.create_channel("a", ["n"])
meta = os.path.join(sys.argv[1], "channels.jsonl")
size = os.path.getsize(meta)
error = refused(store.create_channel, "b", ["n"], limit=size + 10)
sizes = [size, os.path.getsize(meta)]
c = store.create_channel("c", ["n"])
entry_id = store.write_update(c.write_key, {1: 7}, 0.0)
store.close()
c = [c.channel_id, c.write_key, c.read_key, entry_id]
print(json.dumps({"error": error, "sizes": sizes, "c": c}))
"""

CUT_FAILS = LIMITED_FILES + """
import errno

def cannot_cut(fd, length):
    raise OSError(errno.EIO, "Input/output error")

os.ftruncate = cannot_cut
ch = store.create_channel("shower", ["n"], min_post_interval_s=0)
store.write_update(ch.write_key, {1: 1}, 0.0)
size = os.path.getsize(os.path.join(sys.argv[1], f"channel-{ch.channel_id}.log"))
error = refused(store.write_update, ch.write_key, {1: 2}, 1.0, limit=size + 10)
later = raised(store.write_update, ch.write_key, {1: 3}, 2.0)
print(json.dumps({"error": error, "later": later, "size": size, "read_key": ch.read_key}))
"""

NO_DESCRIPTOR_TO_SPARE = LIMITED_FILES + """
ch = store.create_channel("shower", ["n"])
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/proc/self/fd")) - 1, hard))
error = raised(store.write_update, ch.write_key, {1: 1}, 0.0)
resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
later = store.write_update(ch.write_key, {1: 2}, 0.0)
store.close()
print(json.dumps({"error": error, "later": later, "read_key": ch.read_key}))
"""

CHECKPOINT_REFUSED = LIMITED_FILES + """
import logging

class Kept(logging.Handler):
    def emit(self, record):
        kept.append(record.getMessage())

kept = []
logging.getLogger("showersim.telemetry.store").addHandler(Kept())
ch = store.create_channel("shower", ["n"], min_post_interval_s=0)
for i in range(300):
    store.write_update(ch.write_key, {1: i}, float(i))
error = refused(store.close, limit=1024)  # the checkpoint is about 5 KB
print(json.dumps({"error": error, "warnings": kept, "files": sorted(os.listdir(sys.argv[1]))}))
"""


def run_script(script: str, data) -> dict:
    """Run a LIMITED_FILES script over `data` in a fresh interpreter; the JSON it prints."""
    result = subprocess.run(
        [sys.executable, "-c", script, str(data)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestFailedAppend:
    """An append the file refuses stores nothing, leaves the file as it was
    and answers 503, so the writes acknowledged after it replay as written."""

    def test_an_entry_log_append(self, tmp_path):
        data = tmp_path / "data"
        out = run_script(ENTRY_LOG_FILLS, data)
        assert out["error"] == ["StorageError", 503]
        size, after = out["sizes"]
        assert after == size
        assert out["later"] == [2, 3]
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            assert reopened.read_feed(1, out["read_key"], 10) == [
                Entry(1, 0.0, {1: 1}),
                Entry(2, 3.0, {1: 3}),
                Entry(3, 4.0, {1: 4}),
            ]
        finally:
            reopened.close()

    def test_a_channels_file_append(self, tmp_path):
        data = tmp_path / "data"
        out = run_script(CHANNELS_FILE_FILLS, data)
        assert out["error"] == ["StorageError", 503]
        size, after = out["sizes"]
        assert after == size
        channel_id, write_key, read_key, entry_id = out["c"]
        assert (channel_id, entry_id) == (2, 1)
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            c = reopened.channel(2)
            assert (c.name, c.write_key, c.read_key) == ("c", write_key, read_key)
            assert reopened.read_feed(2, read_key, 10) == [Entry(1, 0.0, {1: 7})]
            with pytest.raises(NotFoundError):
                reopened.channel(3)
        finally:
            reopened.close()

    def test_a_checkpoint_write(self, tmp_path):
        data = tmp_path / "data"
        out = run_script(CHECKPOINT_REFUSED, data)
        assert out["error"] is None
        assert len(out["warnings"]) == 1
        assert out["warnings"][0].startswith(f"no checkpoint of {data / 'channel-1.log'} written (")
        assert out["files"] == ["channel-1.log", "channels.jsonl"]
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            assert len(reopened.read_feed(1, reopened.channel(1).read_key, 1000)) == 300
        finally:
            reopened.close()

    def test_a_log_that_cannot_be_opened(self, tmp_path):
        # No file descriptor is left for the channel's log, opened on its first write.
        data = tmp_path / "data"
        out = run_script(NO_DESCRIPTOR_TO_SPARE, data)
        assert out["error"] == ["StorageError", 503]
        assert out["later"] == 1
        reopened = TelemetryStore(data)
        try:
            assert reopened.read_feed(1, out["read_key"], 10) == [Entry(1, 0.0, {1: 2})]
        finally:
            reopened.close()

    def test_a_failed_cut_closes_the_store(self, tmp_path, caplog):
        # The refused record's first bytes stay in the log; an entry appended
        # after them would be lost at replay, so none is acknowledged.
        data = tmp_path / "data"
        out = run_script(CUT_FAILS, data)
        assert out["error"] == ["StorageError", 503]
        assert out["later"] == ["StoreClosedError", 503]
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            reopened = TelemetryStore(data)
        try:
            assert reopened.read_feed(1, out["read_key"], 10) == [Entry(1, 0.0, {1: 1})]
            assert f"at byte {out['size']}:" in caplog.text
        finally:
            reopened.close()


# Field 2's values in turn: each 64-bit bound, then a small int.
INT64_VALUES = (-(2**63), 2**63 - 1, 7)


def checkpointed_store(data) -> None:
    """Two channels of ints, closed cleanly: channel 1 has 2,100 entries
    (eight chunks of 256 and one of 52) and channel 2 has 5."""
    store = TelemetryStore(data)
    shower = store.create_channel("shower", ["distance", "bound", "step"])
    room = store.create_channel("room", ["humidity"])
    for i in range(2_100):
        values = {1: 100 + i, 2: INT64_VALUES[i % 3], 3: -i}
        assert store.write_update(shower.write_key, values, float(i)) == i + 1
    for i in range(5):
        assert store.write_update(room.write_key, {1: 50 + i}, float(i)) == i + 1
    store.close()


def json_line(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode() + b"\n"


def checkpoint_parts(raw: bytes) -> tuple:
    """The header, created_at, values and trailer of a checkpoint of a
    three-field channel, read as format 3 lays them out."""
    at = raw.index(b"\n") + 1
    header = json.loads(raw[:at])
    stamps, values = array("d"), array("q")
    for start in range(0, header["entries"], 256):
        size = 8 * min(256, header["entries"] - start)
        stamps.frombytes(raw[at : at + size])
        values.frombytes(raw[at + size : at + 4 * size])
        at += 4 * size
    return header, stamps, values, json.loads(raw[at:])


def chunks(stamps, values) -> list:
    """(created_at words, value words) of each chunk of 256 entries of a
    three-field channel."""
    return [
        (stamps[start : start + 256].tobytes(), values[3 * start : 3 * (start + 256)].tobytes())
        for start in range(0, len(stamps), 256)
    ]


def edit_the_checkpoint(change):
    """An edit that rewrites channel 1's checkpoint as change(raw) gives."""

    def edit(data) -> dict:
        checkpoint = data / "channel-1.checkpoint"
        checkpoint.write_bytes(change(checkpoint.read_bytes()))
        return {}

    return edit


def entry_257_word(raw: bytes) -> int:
    """The offset of entry 257's created_at word: the second chunk's first byte."""
    return raw.index(b"\n") + 1 + 256 * 8 * 4


def change_a_chunk_digit(raw: bytes) -> bytes:
    at = entry_257_word(raw) + 256 * 8  # entry 257's field 1, 356
    assert raw[at : at + 8] == array("q", [356]).tobytes()
    return raw[:at] + array("q", [357]).tobytes() + raw[at + 8 :]


def flip_a_word_byte(raw: bytes) -> bytes:
    at = entry_257_word(raw) + 6  # a byte of entry 257's created_at, 256.0
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :]


def drop_the_last_entry(raw: bytes) -> bytes:
    """The checkpoint one entry short of the log it names, its chunks' CRC-32
    made to match."""
    header, stamps, values, _ = checkpoint_parts(raw)
    header["entries"] -= 1
    body = b"".join(a + b for a, b in chunks(stamps[:-1], values[:-3]))
    return json_line(header) + body + json_line({"chunks_crc32": zlib.crc32(body)})


def cover_part_of_the_last_record(data) -> dict:
    """Rewrite channel 1's checkpoint to hold all entries but the last and to
    cover their records plus 5 bytes of the last one's, its log CRC-32, entry
    count and chunks' CRC-32 made to match."""
    checkpoint = data / "channel-1.checkpoint"
    log = (data / "channel-1.log").read_bytes()
    header, stamps, values, _ = checkpoint_parts(checkpoint.read_bytes())
    header["entries"] -= 1
    header["log_bytes"] = log.rindex(b"\n", 0, -1) + 1 + 5
    header["log_crc32"] = zlib.crc32(log[: header["log_bytes"]])
    body = b"".join(a + b for a, b in chunks(stamps[:-1], values[:-3]))
    checkpoint.write_bytes(json_line(header) + body + json_line({"chunks_crc32": zlib.crc32(body)}))
    return {}


def format_2_of(raw: bytes) -> bytes:
    """The format-2 checkpoint of the same columns: a JSON head line before
    each chunk, the entry count in the trailer."""
    header, stamps, values, _ = checkpoint_parts(raw)
    entries = header.pop("entries")
    header["checkpoint"] = 2
    body = b"".join(json_line({"chunk": len(a) // 8, "values": "q"}) + a + b for a, b in chunks(stamps, values))
    return json_line(header) + body + json_line({"entries": entries, "chunks_crc32": zlib.crc32(body)})


def change_a_log_byte(data) -> dict:
    log = data / "channel-1.log"
    raw = log.read_bytes()
    assert b'"1": 100,' in raw
    log.write_bytes(raw.replace(b'"1": 100,', b'"1": 900,', 1))  # a record that still replays
    return {}


def cut_the_log(data) -> dict:
    log = data / "channel-1.log"
    log.write_bytes(log.read_bytes()[:-10])
    return {}


def copy_in_another_channels_checkpoint(data) -> dict:
    shutil.copyfile(data / "channel-2.checkpoint", data / "channel-1.checkpoint")
    return {}


# A new channel that takes id 1 is written to by a process that is then killed.
NEW_CHANNEL_KILLED = LIMITED_FILES + """
ch = store.create_channel("new", ["n"])
store.write_update(ch.write_key, {1: 5}, 0.0)
print(json.dumps({"channel_id": ch.channel_id}))
"""


def delete_the_log_for_a_new_channel(data) -> dict:
    (data / "channel-1.log").unlink()
    (data / "channels.jsonl").unlink()  # so that a new channel takes id 1
    assert run_script(NEW_CHANNEL_KILLED, data) == {"channel_id": 1}
    return {}


def append_a_torn_record(data) -> dict:
    log = data / "channel-1.log"
    covered = log.stat().st_size
    with log.open("ab") as fh:
        fh.write(b'{"entry_id": 2101, "created_at": 21')
    return {"channel-1.log": covered}


def fail_a_cut_then_close(data) -> dict:
    out = run_script(CUT_FAILS + "store.close()\n", data)
    assert out["error"] == ["StorageError", 503]
    return {"channel-3.log": out["size"]}


def loaded(directory, caplog) -> tuple:
    """Open a store over `directory`: each channel's feed and last values, the
    bytes of each log and file, and the warnings, with `directory` read as DIR."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
        store = TelemetryStore(directory)
    try:
        channels = {}
        for channel_id in range(1, 5):
            try:
                ch = store.channel(channel_id)
            except NotFoundError:
                continue
            feed = store.read_feed(channel_id, ch.read_key, 10**6)
            channels[channel_id] = (repr(feed), repr(sorted(ch.last_values.items())))
        logs = {path.name: path.read_bytes() for path in directory.glob("*.log")}
        warnings = [r.getMessage().replace(str(directory), "DIR") for r in caplog.records]
        files = sorted(path.name for path in directory.iterdir())
    finally:
        store.close()
    return channels, logs, warnings, files


def reopen_against_full_replay(tmp_path, caplog, build, edit, ignored) -> None:
    """Build a checkpointed store, edit it, and check that a reopen gives
    what a full replay of a copy without checkpoints gives, warning as
    `ignored` says."""
    data = tmp_path / "data"
    build(data)
    cuts = edit(data)
    full = tmp_path / "full"
    shutil.copytree(data, full)
    for checkpoint in full.glob("*.checkpoint"):
        checkpoint.unlink()

    expected, expected_logs, expected_warnings, _ = loaded(full, caplog)
    channels, logs, warnings, files = loaded(data, caplog)
    assert channels == expected
    assert all(feed != "[]" for feed, _ in expected.values())
    assert logs == expected_logs
    for name, size in cuts.items():
        assert len(logs[name]) == size
    checkpoint_warnings = [w for w in warnings if w.startswith("ignoring checkpoint")]
    assert [w for w in warnings if w not in checkpoint_warnings] == expected_warnings
    if ignored is None:
        assert checkpoint_warnings == []
    else:
        channel_id, reason = ignored
        name = f"channel-{channel_id}.checkpoint"
        assert len(checkpoint_warnings) == 1
        assert checkpoint_warnings[0].startswith(f"ignoring checkpoint DIR/{name} ({reason}")
        assert name not in files  # removed, so the next start does not warn again
    assert "channel-3.checkpoint" not in files  # the failed cut's store wrote none


def write_a_format_1_checkpoint(data) -> dict:
    """Replace channel 1's checkpoint with the format-1 one for the same log:
    JSON lines of 256 entries between its header and trailer."""
    meta = json.loads((data / "channels.jsonl").read_bytes().splitlines()[0])
    log = (data / "channel-1.log").read_bytes()
    records = [json.loads(line) for line in log.splitlines()]
    keys = [str(pos) for pos in range(1, len(meta["field_names"]) + 1)]
    header = {
        "checkpoint": 1,
        "channel_id": 1,
        "write_key": meta["write_key"],
        "read_key": meta["read_key"],
        "width": len(keys),
        "log_bytes": len(log),
        "log_crc32": zlib.crc32(log),
    }
    lines = []
    for start in range(0, len(records), 256):
        chunk = records[start : start + 256]
        columns = {
            "created_at": [record["created_at"] for record in chunk],
            "values": [record["values"][key] for record in chunk for key in keys],
        }
        lines.append(json.dumps(columns, separators=(",", ":")).encode() + b"\n")
    trailer = {"entries": len(records), "chunks_crc32": zlib.crc32(b"".join(lines))}
    texts = [json.dumps(header).encode() + b"\n", *lines, json.dumps(trailer).encode() + b"\n"]
    (data / "channel-1.checkpoint").write_bytes(b"".join(texts))
    return {}


OTHER_BYTE_ORDER = "big" if sys.byteorder == "little" else "little"

# case -> (edit, which returns the sizes of the logs it makes replay cut, and
# the channel whose checkpoint is ignored with the reason the warning gives).
CHECKPOINT_EDITS = {
    "log-byte-changed": (change_a_log_byte, (1, "the log does not start with the")),
    "log-cut-inside-the-covered-bytes": (cut_the_log, (1, "the log does not start with the")),
    "entry-count-one-short": (edit_the_checkpoint(drop_the_last_entry), (1, "the log does not start with the")),
    "covered-bytes-end-inside-a-record": (cover_part_of_the_last_record, (1, "the log does not start with the")),
    "chunk-digit-changed": (
        edit_the_checkpoint(change_a_chunk_digit),
        (1, "its trailer is missing or does not match"),
    ),
    "word-byte-flipped": (edit_the_checkpoint(flip_a_word_byte), (1, "its trailer is missing or does not match")),
    "cut-inside-a-word-block": (
        edit_the_checkpoint(lambda raw: raw[: entry_257_word(raw) + 100]),
        (1, "its trailer is missing or does not match"),
    ),
    "trailer-removed": (
        edit_the_checkpoint(lambda raw: raw[: raw.rindex(b'{"chunks_crc32":')]),
        (1, "its trailer is missing or does not match"),
    ),
    "bytes-after-the-trailer": (
        edit_the_checkpoint(lambda raw: raw + b"\n"),
        (1, "its trailer is missing or does not match"),
    ),
    "another-channels-checkpoint": (copy_in_another_channels_checkpoint, (1, "written for another channel")),
    "log-deleted-and-id-reused": (delete_the_log_for_a_new_channel, (1, "written for another channel")),
    "other-byte-order": (
        edit_the_checkpoint(
            lambda raw: raw.replace(
                f'"byteorder":"{sys.byteorder}"'.encode(), f'"byteorder":"{OTHER_BYTE_ORDER}"'.encode(), 1
            )
        ),
        (1, "not a checkpoint of this format"),
    ),
    "format-1-written-by-hand": (write_a_format_1_checkpoint, (1, "not a checkpoint of this format")),
    "format-2-of-the-same-columns": (edit_the_checkpoint(format_2_of), (1, "not a checkpoint of this format")),
    "torn-record-after-the-covered-bytes": (append_a_torn_record, None),
    "failed-cut-then-close": (fail_a_cut_then_close, None),
}


class TestCheckpoint:
    """A clean close() checkpoints each channel's columns; a reopen loads the
    checkpoint and replays only the log written since."""

    @pytest.mark.parametrize("case", list(CHECKPOINT_EDITS))
    def test_a_reopen_gives_what_a_full_replay_gives(self, tmp_path, caplog, case):
        edit, ignored = CHECKPOINT_EDITS[case]
        reopen_against_full_replay(tmp_path, caplog, checkpointed_store, edit, ignored)

    def test_a_checkpoint_is_the_columns_as_words_in_chunks_of_256(self, tmp_path):
        data = tmp_path / "data"
        checkpointed_store(data)
        raw = (data / "channel-1.checkpoint").read_bytes()
        log = (data / "channel-1.log").read_bytes()
        header, stamps, values, trailer = checkpoint_parts(raw)
        assert header == {
            "checkpoint": 3,
            "byteorder": sys.byteorder,
            "channel_id": 1,
            "write_key": header["write_key"],
            "read_key": header["read_key"],
            "width": 3,
            "log_bytes": len(log),
            "log_crc32": zlib.crc32(log),
            "entries": 2_100,
        }
        assert stamps.tolist() == [float(i) for i in range(2_100)]
        assert values.tolist() == [v for i in range(2_100) for v in (100 + i, INT64_VALUES[i % 3], -i)]
        body = b"".join(a + b for a, b in chunks(stamps, values))
        assert trailer == {"chunks_crc32": zlib.crc32(body)}
        assert raw == json_line(header) + body + json_line(trailer)

    @pytest.mark.parametrize(
        "values",
        [{1: 1, 2: 2.5, 3: 3}, {1: 1, 2: "text", 3: 3}, {1: 1, 3: 3}, {1: 1, 2: 2**63, 3: 3}],
        ids=["float", "text", "field-left-out", "int-over-64-bits"],
    )
    def test_a_channel_with_a_value_other_than_int64_writes_no_checkpoint(self, tmp_path, caplog, values):
        inode = []

        def write_the_value(data) -> dict:
            inode.append((data / "channel-1.checkpoint").stat().st_ino)
            with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
                store = TelemetryStore(data)
                assert store.write_update(store.channel(1).write_key, values, 5000.0) == 2_101
                other = store.create_channel("other", ["a", "b", "c"])
                assert store.write_update(other.write_key, values, 0.0) == 1
                store.close()
            return {}

        # The reopen loads channel 1's all-int checkpoint of entries 1..2,100
        # without a warning and replays the rest of its log; no close() since
        # rewrote that checkpoint or wrote one for channel 3.
        reopen_against_full_replay(tmp_path, caplog, checkpointed_store, write_the_value, None)
        assert (tmp_path / "data" / "channel-1.checkpoint").stat().st_ino == inode[0]
        assert not (tmp_path / "data" / "channel-3.checkpoint").exists()

    def test_a_temporary_file_a_crash_left_is_removed_on_open(self, tmp_path):
        # A kill while close() wrote channel 1's checkpoint, and one while it
        # wrote channel 2's first.
        data = tmp_path / "data"
        checkpointed_store(data)
        (data / "channel-2.checkpoint").unlink()
        for channel_id in (1, 2):
            (data / f"channel-{channel_id}.checkpoint.tmp").write_bytes(b'{"checkpoint":')
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            store = TelemetryStore(data)
        store.close()
        assert sorted(path.name for path in data.iterdir()) == [
            "channel-1.checkpoint",
            "channel-1.log",
            "channel-2.checkpoint",
            "channel-2.log",
            "channels.jsonl",
        ]

    def test_only_a_first_close_checkpoints_and_only_a_non_empty_log(self, tmp_path):
        data = tmp_path / "data"
        store = TelemetryStore(data)
        used = store.create_channel("used", ["n"])
        store.create_channel("no entries", ["n"])
        store.write_update(used.write_key, {1: 1}, 0.0)
        store.close()
        assert sorted(path.name for path in data.iterdir()) == [
            "channel-1.checkpoint",
            "channel-1.log",
            "channels.jsonl",
        ]
        (data / "channel-1.checkpoint").unlink()
        store.close()
        assert not (data / "channel-1.checkpoint").exists()

    def test_a_checkpoint_is_rewritten_only_when_entries_were_added(self, tmp_path):
        data = tmp_path / "data"
        checkpointed_store(data)
        checkpoint = data / "channel-1.checkpoint"
        inode = checkpoint.stat().st_ino  # os.replace gives a rewritten one a new inode
        TelemetryStore(data).close()
        assert checkpoint.stat().st_ino == inode
        store = TelemetryStore(data)
        assert store.write_update(store.channel(1).write_key, {1: 7, 2: 8, 3: 9}, 5000.0) == 2_101
        store.close()
        assert checkpoint.stat().st_ino != inode
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            ch = reopened.channel(1)
            assert reopened.read_feed(1, ch.read_key, 1) == [Entry(2_101, 5000.0, {1: 7, 2: 8, 3: 9})]
            assert ch.last_values == {1: 7, 2: 8, 3: 9}
        finally:
            reopened.close()

    def test_none_is_written_once_an_append_could_not_be_cut_during_close(self, tmp_path, caplog):
        data = tmp_path / "data"
        out = run_script(CLOSE_RACES_A_FAILED_CUT, data)
        assert out["error"] == ["StorageError", 503]
        assert out["closed"]
        assert out["files"] == ["channel-1.log", "channel-2.log", "channels.jsonl"]
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            reopened = TelemetryStore(data)
        try:
            a_key, b_key = out["keys"]
            assert reopened.read_feed(1, a_key, 10) == [Entry(1, 0.0, {1: 1})]
            assert reopened.read_feed(2, b_key, 10) == [Entry(1, 0.0, {1: 1})]
            assert f"channel-1.log at byte {out['size']}:" in caplog.text
        finally:
            reopened.close()

    def test_a_checkpoint_that_cannot_be_written_is_skipped(self, tmp_path):
        data = tmp_path / "data"
        out = run_script(CHECKPOINT_FILLS, data)
        assert out["error"] is None
        assert out["descriptors"][1] == out["descriptors"][0] - 2  # both logs closed
        assert out["files"] == ["channel-1.log", "channel-2.log", "channels.jsonl"]
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            for channel_id in (1, 2):
                ch = reopened.channel(channel_id)
                assert len(reopened.read_feed(channel_id, ch.read_key, 10**4)) == 2_000
        finally:
            reopened.close()


# close() begins while an append to channel a holds its lock; the append
# stops short and its cut fails, leaving a torn record in a's log.
CLOSE_RACES_A_FAILED_CUT = LIMITED_FILES + """
import errno, threading, time

a = store.create_channel("a", ["n"], min_post_interval_s=0)
b = store.create_channel("b", ["n"])
store.write_update(a.write_key, {1: 1}, 0.0)
store.write_update(b.write_key, {1: 1}, 0.0)
unlimited = resource.getrlimit(resource.RLIMIT_FSIZE)
closer = threading.Thread(target=store.close)

def cut_fails_once_close_has_begun(fd, length):
    closer.start()  # it waits for a's lock, which this append holds
    while not raised(store.write_update, b.write_key, {1: 2}, 0.0):  # rate-limited until closed
        time.sleep(0.001)
    resource.setrlimit(resource.RLIMIT_FSIZE, unlimited)
    raise OSError(errno.EIO, "Input/output error")

os.ftruncate = cut_fails_once_close_has_begun
size = os.path.getsize(os.path.join(sys.argv[1], f"channel-{a.channel_id}.log"))
error = refused(store.write_update, a.write_key, {1: 2}, 1.0, limit=size + 10)
closer.join(10)
files = sorted(os.listdir(sys.argv[1]))
keys = [a.read_key, b.read_key]
print(json.dumps({"error": error, "size": size, "closed": not closer.is_alive(), "files": files, "keys": keys}))
"""

# Each checkpoint is about 20 kB; no file may grow past 1,000 bytes at close().
CHECKPOINT_FILLS = LIMITED_FILES + """
for name in ("a", "b"):
    ch = store.create_channel(name, ["n"], min_post_interval_s=0)
    for n in range(2000):
        store.write_update(ch.write_key, {1: n}, float(n))
descriptors = [len(os.listdir("/proc/self/fd"))]
error = refused(store.close, limit=1000)
descriptors.append(len(os.listdir("/proc/self/fd")))
files = sorted(os.listdir(sys.argv[1]))
print(json.dumps({"error": error, "descriptors": descriptors, "files": files}))
"""


JSON_INTS = st.integers(-(10**4300 - 1), 10**4300 - 1)
JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.30000000000000004]),
)
JOINED_SURROGATES = re.compile("[\ud800-\udbff][\udc00-\udfff]")
JSON_TEXTS = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\\x00\x1f\x7f\x85 é\U0001f6bf'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),  # lone surrogates
    )
).filter(lambda text: not JOINED_SURROGATES.search(text))  # refused: JSON would join them
# Field values in the caller's order: any positions of an eight-field channel.
RECORD_VALUES = st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True).flatmap(
    lambda positions: st.fixed_dictionaries(
        {pos: st.one_of(JSON_INTS, JSON_FLOATS, JSON_TEXTS) for pos in positions}
    )
)


class TestRecordText:
    """A log record and a feed row hold the bytes json.dumps gives for them."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(RECORD_VALUES, JSON_FLOATS), min_size=1, max_size=3))
    @example(
        [
            (
                {
                    8: 'q"\\\x00\x1f\ud800é\U0001f6bf\udc00',
                    6: 1.7976931348623157e308,
                    5: 1e16,
                    7: 0.30000000000000004,
                    4: 5e-324,
                    3: -0.0,
                    2: -(10**4300 - 1),
                    1: 10**4300 - 1,
                },
                -0.0,
            ),
            ({2: "", 1: 0}, 5e-324),
        ]
    )
    def test_records_and_rows_are_json_dumps_bytes(self, writes):
        writes = sorted(writes, key=lambda write: write[1])  # created_at never decreases
        with tempfile.TemporaryDirectory() as data:
            store = TelemetryStore(data)
            names = [f"f{pos}" for pos in range(1, 9)]
            ch = store.create_channel("shower", names, min_post_interval_s=0)
            expected_log = b""
            for entry_id, (values, created_at) in enumerate(writes, start=1):
                assert store.write_update(ch.write_key, values, created_at) == entry_id
                record = {
                    "entry_id": entry_id,
                    "created_at": float(created_at),
                    "values": {str(pos): value for pos, value in values.items()},
                }
                expected_log += json.dumps(record).encode() + b"\n"
            store.close()
            assert (Path(data) / f"channel-{ch.channel_id}.log").read_bytes() == expected_log
            feed = store.read_feed(ch.channel_id, ch.read_key, 10)
            for entry in feed:
                row = {"created_at": entry.created_at, "entry_id": entry.entry_id}
                row.update((f"field{pos}", value) for pos, value in sorted(entry.values.items()))
                assert _render_row(entry) == json.dumps(row)
            reopened = TelemetryStore(data)
            try:
                assert repr(reopened.read_feed(ch.channel_id, ch.read_key, 10)) == repr(feed)
            finally:
                reopened.close()


FIELDS = ("distance", "temperature", "note")
field_values = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
payloads = st.dictionaries(st.integers(1, len(FIELDS)), field_values, min_size=1)


class FileStoreAgainstMemoryModel(RuleBasedStateMachine):
    """The file store's feed stays equal to a memory-only store's through
    writes, kills, torn logs and writes after close()."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.store = TelemetryStore(self.dir)
        self.channel = self.store.create_channel("shower", list(FIELDS))
        self.log = self.dir / f"channel-{self.channel.channel_id}.log"
        self.model, self.model_channel = self.rebuilt_model([])
        self.now = 0.0

    @staticmethod
    def rebuilt_model(entries):
        model = TelemetryStore()
        ch = model.create_channel("shower", list(FIELDS))
        for entry in entries:
            assert model.write_update(ch.write_key, entry.values, entry.created_at) == entry.entry_id
        return model, ch

    def feeds(self):
        return (
            self.store.read_feed(self.channel.channel_id, self.channel.read_key, 10**6),
            self.model.read_feed(self.model_channel.channel_id, self.model_channel.read_key, 10**6),
        )

    @rule(step=st.sampled_from([0.0, 0.5, 1.0, 2.5]), values=payloads)
    def write(self, step, values):
        self.now += step
        got = self.store.write_update(self.channel.write_key, values, self.now)
        assert got == self.model.write_update(self.model_channel.write_key, values, self.now)

    @rule()
    def reopen_after_kill(self):
        killed = self.store
        self.store = TelemetryStore(self.dir)  # replays what the killed process flushed
        killed.close()  # only frees its handles: every append was flushed already

    @rule(data=st.data())
    def tear_and_reopen(self, data):
        self.store.close()
        raw = self.log.read_bytes() if self.log.exists() else b""
        kept = raw[: data.draw(st.integers(0, len(raw)), label="offset")]
        self.log.write_bytes(kept)
        model_feed = self.feeds()[1]
        self.model.close()
        self.model, self.model_channel = self.rebuilt_model(model_feed[: kept.count(b"\n")])
        self.store = TelemetryStore(self.dir)

    @rule(values=payloads)
    def write_after_close(self, values):
        self.store.close()
        self.model.close()
        for store, ch in ((self.store, self.channel), (self.model, self.model_channel)):
            with pytest.raises(StoreClosedError):
                store.write_update(ch.write_key, values, self.now + 10.0)
        self.store = TelemetryStore(self.dir)
        self.model, self.model_channel = self.rebuilt_model(self.feeds()[1])

    @invariant()
    def feed_matches_the_model(self):
        stored, modelled = self.feeds()
        assert repr(stored) == repr(modelled)

    @invariant()
    def last_values_match_the_model(self):
        def last(store, ch):
            return [store.read_last_field(ch.channel_id, ch.read_key, pos) for pos in (1, 2, 3)]

        assert repr(last(self.store, self.channel)) == repr(last(self.model, self.model_channel))

    def teardown(self):
        self.store.close()
        self.model.close()
        shutil.rmtree(self.dir, ignore_errors=True)


TestFileStoreAgainstMemoryModel = FileStoreAgainstMemoryModel.TestCase
TestFileStoreAgainstMemoryModel.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)


any_positions = st.one_of(st.integers(-1, len(FIELDS) + 1), st.booleans(), st.floats(), st.text(max_size=2))
any_values = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=2), st.none()), max_size=3),
    st.none(),
)


class TestAcknowledgedMeansReplayable:
    @given(writes=st.lists(st.dictionaries(any_positions, any_values, max_size=3), max_size=12))
    @example(writes=[{1: 10**4300 - 1, 2: -0.0, 3: "\ud800 é"}, {2: -(10**4300 - 1)}, {3: 1e-310}])
    @settings(max_examples=100, deadline=None)
    def test_reopening_gives_exactly_the_acknowledged_feed(self, writes):
        data = Path(tempfile.mkdtemp(prefix="store-acked-"))
        try:
            store = TelemetryStore(data)
            ch = store.create_channel("shower", list(FIELDS))
            acknowledged = []
            for values in writes:
                created_at = float(len(acknowledged))
                log_bytes = sum(path.stat().st_size for path in data.iterdir())
                try:
                    entry_id = store.write_update(ch.write_key, values, created_at)
                except TelemetryError:
                    assert sum(path.stat().st_size for path in data.iterdir()) == log_bytes
                else:
                    assert entry_id == len(acknowledged) + 1
                    acknowledged.append((created_at, values))
                feed = store.read_feed(ch.channel_id, ch.read_key, 100)
                assert repr(feed) == repr(built_from_scratch(acknowledged))  # repr tells 1 from 1.0
            store.close()
            # The first reopen loads the checkpoint close() wrote when every
            # value is an int of at most 64 bits; the second, with the
            # checkpoints deleted, replays the whole log.
            for load in ("checkpoint", "full replay"):
                if load == "full replay":
                    for checkpoint in data.glob("*.checkpoint"):
                        checkpoint.unlink()
                with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
                    reopened = TelemetryStore(data)
                try:
                    feed = reopened.read_feed(ch.channel_id, ch.read_key, 100)
                    assert repr(feed) == repr(built_from_scratch(acknowledged)), load
                finally:
                    reopened.close()
        finally:
            shutil.rmtree(data, ignore_errors=True)


class TestEntryMemory:
    def test_an_entry_costs_at_most_160_traced_bytes(self):
        # An Entry with its own values dict cost about 385 bytes here.
        store = TelemetryStore()
        ch = store.create_channel("shower", ["f1", "f2", "f3", "f4", "f5"], min_post_interval_s=0.0)
        count = 20_000
        payloads = [{1: i % 200, 2: 20 + i % 7, 3: 50, 4: i % 4, 5: 0} for i in range(count)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, values in enumerate(payloads):
                store.write_update(ch.write_key, values, float(i))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert store.read_feed(ch.channel_id, ch.read_key, 1)[0].entry_id == count
        assert grown / count <= 160


PAGE_FIELDS = 4
sparse_payloads = st.dictionaries(
    st.integers(1, PAGE_FIELDS),
    st.one_of(st.integers(-300, 300), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3)),
    min_size=1,
)
page_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 2), sparse_payloads),
        st.tuples(st.just("read"), st.integers(0, 2), st.tuples(st.integers(1, 30), st.integers(0, 40))),
    ),
    max_size=80,
)


def built_from_scratch(written) -> list:
    """Entry objects for (created_at, values) writes, values in position order."""
    return [
        Entry(i + 1, created_at, {pos: values[pos] for pos in sorted(values)})
        for i, (created_at, values) in enumerate(written)
    ]


def page_channels(store, count=3) -> list:
    fields = [f"f{pos}" for pos in range(1, PAGE_FIELDS + 1)]
    return [store.create_channel(f"c{i}", fields, min_post_interval_s=0.0) for i in range(count)]


class TestFeedPages:
    """read_feed pages, with and without `after`, equal a from-scratch build
    of the Entry objects."""

    @given(ops=page_ops)
    @settings(max_examples=150, deadline=None)
    def test_pages_equal_a_from_scratch_build(self, ops):
        store = TelemetryStore()
        channels = page_channels(store)
        written = [[] for _ in channels]
        for op, index, arg in ops:
            ch, mine = channels[index], written[index]
            if op == "write":
                assert store.write_update(ch.write_key, arg, float(len(mine))) == len(mine) + 1
                mine.append((float(len(mine)), arg))
                continue
            results, after = arg
            expected = built_from_scratch(mine)[-results:]
            page = store.read_feed(ch.channel_id, ch.read_key, results)
            assert repr(page) == repr(expected)  # repr tells 1 from 1.0
            page = store.read_feed(ch.channel_id, ch.read_key, results, after=after)
            assert repr(page) == repr([entry for entry in expected if entry.entry_id > after])

    @given(
        payloads=st.lists(st.tuples(st.integers(0, 1), sparse_payloads), min_size=1, max_size=150),
        windows=st.lists(st.lists(st.integers(1, 25), min_size=1, max_size=30), min_size=2, max_size=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_two_readers_beside_a_writer_see_consistent_pages(self, payloads, windows):
        store = TelemetryStore()
        channels = page_channels(store, 2)
        written = [[], []]
        for index, values in payloads:
            written[index].append((float(len(written[index])), values))
        expected = [built_from_scratch(mine) for mine in written]
        errors = []

        def writer():
            for index, mine in enumerate(written):
                for created_at, values in mine:
                    store.write_update(channels[index].write_key, values, created_at)

        def reader(sizes):
            newest = [0, 0]
            try:
                for _ in range(5):
                    for step, results in enumerate(sizes):
                        index = step % 2
                        ch = channels[index]
                        page = store.read_feed(ch.channel_id, ch.read_key, results)
                        top = page[-1].entry_id if page else 0
                        assert len(page) == min(results, top)
                        assert top >= newest[index]
                        newest[index] = top
                        assert repr(page) == repr(expected[index][top - len(page) : top])
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader, args=(sizes,)) for sizes in windows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for index, ch in enumerate(channels):
            assert repr(store.read_feed(ch.channel_id, ch.read_key, 1000)) == repr(expected[index])


def hand_record(entry_id: int, value) -> bytes:
    """A log line as a hand editor might write it: raw UTF-8, no escapes."""
    record = {"entry_id": entry_id, "created_at": float(entry_id), "values": {"1": value}}
    return json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n"


MULTI_LINE_RECORD = b'{"entry_id": 2,\n "created_at": 2.0,\n\n "values": {"1": "two\\nlines"}\n}\n'
LONG_TEXT = "x" * 150 + "é"
# case -> (log bytes, values of the entries that load, bytes the log keeps).
REPLAY_CASES = {
    "multibyte-characters": (
        hand_record(1, "温度") + hand_record(2, "café 🚿") + hand_record(3, LONG_TEXT),
        ["温度", "café 🚿", LONG_TEXT],
        336,
    ),
    "bad-utf8-byte": (
        hand_record(1, "ok") + hand_record(2, "café").replace("é".encode(), b"\xe9") + hand_record(3, "ok"),
        ["ok"],
        58,
    ),
    "bad-utf8-byte-starts-a-line": (hand_record(1, "ok") + b"\xff\n" + hand_record(2, "ok"), ["ok"], 58),
    "torn-tail-without-newline": (
        hand_record(1, "ok") + hand_record(2, "温度") + hand_record(3, "ok")[:-1],
        ["ok", "温度"],
        120,
    ),
    "torn-tail-mid-json": (
        hand_record(1, "ok") + hand_record(2, "ok") + hand_record(3, "ok")[:20],
        ["ok", "ok"],
        116,
    ),
    "torn-tail-mid-character": (hand_record(1, "ok") + hand_record(2, "温度")[:-6], ["ok"], 58),
    # The write path puts each record on one line, so one that spans lines is torn.
    "multi-line-record": (hand_record(1, "ok") + MULTI_LINE_RECORD + hand_record(3, "温度"), ["ok"], 58),
    "multi-line-record-torn-at-the-end": (hand_record(1, "ok") + MULTI_LINE_RECORD[:30], ["ok"], 58),
    "multi-line-record-then-garbage": (
        hand_record(1, "ok") + MULTI_LINE_RECORD + b'{"entry_id": 3, garbage\n' + hand_record(3, "ok"),
        ["ok"],
        58,
    ),
    "blank-line": (hand_record(1, "ok") + b"\n" + hand_record(2, "ok"), ["ok"], 58),
    "junk-after-a-record": (
        hand_record(1, "ok") + hand_record(2, "ok")[:-1] + b" x\n" + hand_record(3, "ok"),
        ["ok"],
        58,
    ),
    # Too deep for the C scanner, which raises RecursionError on it.
    "deeply-nested-line": (hand_record(1, "ok") + b"[" * 100_000 + b"\n" + hand_record(2, "ok"), ["ok"], 58),
    # JSON values the write path refuses: only ints, finite floats and text replay.
    "bool-value": (hand_record(1, "ok") + hand_record(2, True) + hand_record(3, "ok"), ["ok"], 58),
    "null-value": (hand_record(1, "ok") + hand_record(2, None) + hand_record(3, "ok"), ["ok"], 58),
    "list-value": (hand_record(1, "ok") + hand_record(2, [1]) + hand_record(3, "ok"), ["ok"], 58),
    "object-value": (hand_record(1, "ok") + hand_record(2, {"1": 1}) + hand_record(3, "ok"), ["ok"], 58),
    "empty-log": (b"", [], 0),
}


def note_channel_log(tmp_path, log_bytes: bytes):
    """A data dir whose one channel, of one text field, has `log_bytes` for its log."""
    data = tmp_path / "data"
    first = TelemetryStore(data)
    ch = first.create_channel("shower", ["note"])
    first.close()
    log = data / f"channel-{ch.channel_id}.log"
    log.write_bytes(log_bytes)
    return data, ch, log


class TestReplay:
    """Replay loads each line's record until the first bad line, and cuts
    the log at that line's first byte."""

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_same_entries_and_same_cut(self, tmp_path, case):
        log_bytes, values, kept = REPLAY_CASES[case]
        data, ch, log = note_channel_log(tmp_path, log_bytes)
        store = TelemetryStore(data)
        try:
            feed = store.read_feed(ch.channel_id, ch.read_key, 100)
            assert feed == [Entry(i, float(i), {1: value}) for i, value in enumerate(values, 1)]
            assert log.read_bytes() == log_bytes[:kept]
            assert store.write_update(ch.write_key, {1: "next"}, 10.0) == len(values) + 1
        finally:
            store.close()

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_the_warning_names_the_cut(self, tmp_path, caplog, case):
        log_bytes, _, kept = REPLAY_CASES[case]
        data, _, log = note_channel_log(tmp_path, log_bytes)
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            TelemetryStore(data).close()
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        if kept == len(log_bytes):
            assert warnings == []
        else:
            assert len(warnings) == 1
            assert warnings[0].startswith(f"truncating {log} at byte {kept}: bad record (")

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_a_second_open_cuts_nothing(self, tmp_path, case):
        log_bytes, values, kept = REPLAY_CASES[case]
        data, ch, log = note_channel_log(tmp_path, log_bytes)
        TelemetryStore(data).close()
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            store = TelemetryStore(data)
        try:
            feed = store.read_feed(ch.channel_id, ch.read_key, 100)
            assert feed == [Entry(i, float(i), {1: value}) for i, value in enumerate(values, 1)]
            assert log.read_bytes() == log_bytes[:kept]
        finally:
            store.close()

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_an_entry_written_after_the_cut_replays(self, tmp_path, case):
        log_bytes, values, kept = REPLAY_CASES[case]
        data, ch, log = note_channel_log(tmp_path, log_bytes)
        store = TelemetryStore(data)
        next_id = store.write_update(ch.write_key, {1: "next"}, 10.0)
        store.close()
        assert next_id == len(values) + 1
        record = {"entry_id": next_id, "created_at": 10.0, "values": {"1": "next"}}
        assert log.read_bytes() == log_bytes[:kept] + json.dumps(record).encode() + b"\n"
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            reopened = TelemetryStore(data)
        try:
            feed = reopened.read_feed(ch.channel_id, ch.read_key, 100)
            expected = [Entry(i, float(i), {1: value}) for i, value in enumerate(values, 1)]
            assert feed == expected + [Entry(next_id, 10.0, {1: "next"})]
        finally:
            reopened.close()

    @pytest.mark.parametrize("case", list(REPLAY_CASES))
    def test_the_cut_leaves_other_channels_whole(self, tmp_path, case):
        log_bytes, values, kept = REPLAY_CASES[case]
        data = tmp_path / "data"
        first = TelemetryStore(data)
        before = first.create_channel("before", ["note"])
        ch = first.create_channel("shower", ["note"])
        after = first.create_channel("after", ["note"])
        for i in range(3):
            first.write_update(before.write_key, {1: f"b{i}"}, float(i))
            first.write_update(after.write_key, {1: f"a{i}"}, float(i))
        first.close()
        others = {c.channel_id: (data / f"channel-{c.channel_id}.log").read_bytes() for c in (before, after)}
        log = data / f"channel-{ch.channel_id}.log"
        log.write_bytes(log_bytes)
        store = TelemetryStore(data)
        try:
            assert len(store.read_feed(ch.channel_id, ch.read_key, 100)) == len(values)
            assert log.read_bytes() == log_bytes[:kept]
            for other, prefix in ((before, "b"), (after, "a")):
                feed = store.read_feed(other.channel_id, other.read_key, 100)
                assert feed == [Entry(i + 1, float(i), {1: f"{prefix}{i}"}) for i in range(3)]
                assert (data / f"channel-{other.channel_id}.log").read_bytes() == others[other.channel_id]
        finally:
            store.close()

    def test_a_bad_second_line_ends_replay_without_reading_the_rest(self, tmp_path):
        # Replay stops at the bad line: the 5 MB behind it are neither read nor held.
        good = b"".join(hand_record(i, "ok") for i in range(3, 90_003))
        data, ch, log = note_channel_log(tmp_path, hand_record(1, "ok") + b"garbage\n" + good)
        assert log.stat().st_size > 5_000_000
        tracemalloc.start()
        try:
            store = TelemetryStore(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        try:
            assert store.read_feed(ch.channel_id, ch.read_key, 10) == [Entry(1, 1.0, {1: "ok"})]
            assert log.stat().st_size == 58
            assert peak < 1_000_000
        finally:
            store.close()


def meta_line(record: dict) -> bytes:
    return json.dumps(record).encode("utf-8") + b"\n"


MISSING = object()  # in a META_CASES change, a key the bad record leaves out
BEFORE = {
    "channel_id": 1,
    "name": "before",
    "write_key": "BEFOREWRITEKEY01",
    "read_key": "BEFOREREADKEY001",
    "field_names": ["note"],
    "visibility": "private",
    "shared_with": [],
    "min_post_interval_s": 1.0,
}
AFTER = {**BEFORE, "channel_id": 2, "name": "after", "write_key": "AFTERWRITEKEY001", "read_key": "AFTERREADKEY0001"}
BAD = {**BEFORE, "channel_id": 3, "name": "bad", "write_key": "BADWRITEKEY00001", "read_key": "BADREADKEY000001"}
# case -> what the bad channels.jsonl record, between BEFORE and AFTER, changes in BAD.
META_CASES = {
    "duplicate-id": {"channel_id": 1},
    "reused-write-key": {"write_key": BEFORE["write_key"]},
    "reused-read-key": {"read_key": BEFORE["read_key"]},
    "same-write-and-read-key": {"read_key": BAD["write_key"]},
    "empty-write-key": {"write_key": ""},
    "no-fields": {"field_names": []},
    "nine-fields": {"field_names": [f"f{i}" for i in range(9)]},
    "public-visibility": {"visibility": "public"},
    "negative-interval": {"min_post_interval_s": -5},
    "text-interval": {"min_post_interval_s": "1"},
    "bool-interval": {"min_post_interval_s": True},
    "fractional-id": {"channel_id": 1.7},
    "bool-id": {"channel_id": True},
    "zero-id": {"channel_id": 0},
    "text-field-names": {"field_names": "abc"},
    "text-shared-with": {"visibility": "shared", "shared_with": "grandma"},
    "unknown-key": {"colour": "red"},
    "missing-name": {"name": MISSING},
}


class TestChannelReplay:
    """Replay holds each channels.jsonl record to create_channel's rules: the
    first record the Channel constructor refuses, or whose id or a key is
    taken, is the torn point."""

    def data_dir(self, tmp_path, case):
        data = tmp_path / "data"
        data.mkdir()
        changes = META_CASES[case]
        bad = {key: value for key, value in {**BAD, **changes}.items() if value is not MISSING}
        (data / "channels.jsonl").write_bytes(meta_line(BEFORE) + meta_line(bad) + meta_line(AFTER))
        (data / "channel-1.log").write_bytes(hand_record(1, "b1") + hand_record(2, "b2"))
        (data / "channel-2.log").write_bytes(hand_record(1, "a1"))
        return data

    @pytest.mark.parametrize("case", list(META_CASES))
    def test_the_bad_record_is_the_torn_point(self, tmp_path, caplog, case):
        data = self.data_dir(tmp_path, case)
        meta = data / "channels.jsonl"
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            store = TelemetryStore(data)
        try:
            warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
            assert len(warnings) == 1
            assert warnings[0].startswith(f"truncating {meta} at byte {len(meta_line(BEFORE))}: bad record (")
            assert meta.read_bytes() == meta_line(BEFORE)
            feed = store.read_feed(1, BEFORE["read_key"], 10)
            assert feed == [Entry(1, 1.0, {1: "b1"}), Entry(2, 2.0, {1: "b2"})]
            assert store.channel(1).name == "before"
            for dropped in (2, 3):
                with pytest.raises(NotFoundError):
                    store.channel(dropped)
            for key in (BAD["write_key"], AFTER["write_key"]):
                with pytest.raises(AuthenticationError):
                    store.write_update(key, {1: "x"}, 5.0)
        finally:
            store.close()

    @pytest.mark.parametrize("case", list(META_CASES))
    def test_a_second_open_cuts_nothing_more(self, tmp_path, case):
        data = self.data_dir(tmp_path, case)
        TelemetryStore(data).close()
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            store = TelemetryStore(data)
        try:
            assert (data / "channels.jsonl").read_bytes() == meta_line(BEFORE)
            assert len(store.read_feed(1, BEFORE["read_key"], 10)) == 2
        finally:
            store.close()

    @pytest.mark.parametrize("case", list(META_CASES))
    def test_a_new_channel_never_takes_a_dropped_channels_id(self, tmp_path, case):
        data = self.data_dir(tmp_path, case)
        orphan = (data / "channel-2.log").read_bytes()
        store = TelemetryStore(data)
        ch = store.create_channel("new", ["note"])
        assert ch.channel_id == 3
        assert store.write_update(ch.write_key, {1: "n1"}, 1.0) == 1
        store.close()
        reopened = TelemetryStore(data)
        try:
            assert reopened.read_feed(3, ch.read_key, 10) == [Entry(1, 1.0, {1: "n1"})]
            assert (data / "channel-2.log").read_bytes() == orphan
        finally:
            reopened.close()

    def test_a_record_without_the_optional_keys_takes_the_defaults(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        required = ("channel_id", "name", "write_key", "read_key", "field_names")
        (data / "channels.jsonl").write_bytes(meta_line({key: BEFORE[key] for key in required}))
        with unittest.TestCase().assertNoLogs("showersim.telemetry.store", logging.WARNING):
            store = TelemetryStore(data)
        try:
            assert store.channel(1).meta() == BEFORE
        finally:
            store.close()

    def test_a_channel_listed_twice_keeps_every_acknowledged_write(self, tmp_path, caplog):
        # A second record of channel 1, under other keys, once loaded without
        # a warning: both keys then wrote entries to channel-1.log that the
        # next open cut away.
        data = tmp_path / "data"
        first = TelemetryStore(data)
        ch = first.create_channel("shower", ["n"])
        assert first.write_update(ch.write_key, {1: 0}, 0.0) == 1
        first.close()
        twin = {**ch.meta(), "write_key": "TWINWRITEKEY0001", "read_key": "TWINREADKEY00001"}
        with (data / "channels.jsonl").open("ab") as fh:
            fh.write(meta_line(twin))
        with caplog.at_level(logging.WARNING, logger="showersim.telemetry.store"):
            second = TelemetryStore(data)
        acknowledged = [Entry(1, 0.0, {1: 0})]
        for key, created_at in ((ch.write_key, 10.0), (twin["write_key"], 20.0)):
            try:
                entry_id = second.write_update(key, {1: created_at}, created_at)
            except AuthenticationError:
                continue
            acknowledged.append(Entry(entry_id, created_at, {1: created_at}))
        second.close()
        assert len(caplog.records) == 1
        third = TelemetryStore(data)
        try:
            channel = third.channel(1)
            assert third.read_feed(1, channel.read_key, 10) == acknowledged
            assert channel.write_key == ch.write_key
        finally:
            third.close()


class TestChannelSchema:
    """create_channel and replay share the Channel constructor's checks."""

    @pytest.mark.parametrize(
        "key,value",
        [
            ("visibility", "public"),
            ("min_post_interval_s", -5),
            ("min_post_interval_s", float("nan")),
            ("min_post_interval_s", 10**400),  # past the largest float
            ("min_post_interval_s", "1"),
            ("min_post_interval_s", True),
            ("shared_with", "grandma"),
            ("shared_with", [1]),
        ],
        ids=["public", "negative", "nan", "huge-int", "text", "bool", "text-readers", "int-reader"],
    )
    def test_create_channel_refuses_a_bad_option_and_stores_nothing(self, store, tmp_path, key, value):
        with pytest.raises(ValidationError):
            store.create_channel("x", ["f"], **{key: value})
        ch = store.create_channel("x", ["f"])
        assert ch.channel_id == 1
        assert (tmp_path / "data" / "channels.jsonl").read_bytes() == meta_line(ch.meta())

    @pytest.mark.parametrize("names", ["abc", [1, 2], ("a", None)])
    def test_field_names_must_be_text(self, store, names):
        with pytest.raises(ValidationError):
            store.create_channel("x", names)

    def test_options_default_on_the_channel(self, store):
        ch = store.create_channel("x", ("a", "b"), min_post_interval_s=2)
        assert (ch.field_names, ch.visibility, ch.shared_with) == (["a", "b"], "private", [])
        assert type(ch.min_post_interval_s) is float and ch.min_post_interval_s == 2.0
