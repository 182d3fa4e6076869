from __future__ import annotations

import random
import re
import threading

import pytest

from showersim.telemetry.store import (
    AuthenticationError,
    NotFoundError,
    TelemetryStore,
    ValidationError,
)

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

    @pytest.mark.parametrize("created_at", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_created_at_rejected(self, store, created_at):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {1: 1}, created_at)
        assert store.read_feed(ch.channel_id, ch.read_key, 10) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, store, value):
        ch = make_channel(store)
        with pytest.raises(ValidationError):
            store.write_update(ch.write_key, {1: 1, 2: value}, 0.0)
        assert store.read_feed(ch.channel_id, ch.read_key, 10) == []

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
        assert store.channels() == []
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
