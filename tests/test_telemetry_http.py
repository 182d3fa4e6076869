from __future__ import annotations

import http.client
import io
import json
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from showersim.agent import TelemetryClient
from showersim.telemetry import server as server_module
from showersim.telemetry import store as store_module
from showersim.telemetry.server import TelemetryRequestHandler
from showersim.telemetry.store import Entry, TelemetryStore


def create_channel(server, fields=("distance", "temperature", "humidity"), **params):
    data = [("name", "shower")] + [("field", f) for f in fields]
    for key, value in params.items():
        data.append((key, str(value)))
    response = requests.post(server.url + "/channels", data=data, timeout=5)
    assert response.status_code == 200
    return response.json()


def post_update(server, key, values, created_at=None):
    data = {"api_key": key}
    if created_at is not None:
        data["created_at"] = str(created_at)
    for pos, val in values.items():
        data[f"field{pos}"] = val
    return requests.post(server.url + "/update", data=data, timeout=5)


class TestUpdateEndpoint:
    def test_write_read_round_trip(self, sim_server):
        ch = create_channel(sim_server)
        response = post_update(sim_server, ch["write_key"], {1: 8, 2: 23, 3: 15}, 0.0)
        assert response.status_code == 200
        assert response.text == "1"
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 10},
            timeout=5,
        ).json()
        assert feeds["channel"]["field1"] == "distance"
        assert feeds["feeds"] == [
            {"created_at": 0.0, "entry_id": 1, "field1": 8, "field2": 23, "field3": 15}
        ]

    def test_rate_limited_write_returns_zero_body(self, sim_server):
        ch = create_channel(sim_server)
        assert post_update(sim_server, ch["write_key"], {1: 1}, 0.0).text == "1"
        response = post_update(sim_server, ch["write_key"], {1: 2}, 0.5)
        assert response.status_code == 200
        assert response.text == "0"
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 10},
            timeout=5,
        ).json()
        assert len(feeds["feeds"]) == 1

    def test_bad_key_gets_401_invalid_key(self, sim_server):
        create_channel(sim_server)
        response = post_update(sim_server, "WRONGKEY00000000", {1: 1}, 0.0)
        assert response.status_code == 401
        assert response.text == "invalid key"

    def test_query_parameters_accepted(self, sim_server):
        ch = create_channel(sim_server)
        response = requests.post(
            sim_server.url
            + f"/update?api_key={ch['write_key']}&field1=42&created_at=0",
            timeout=5,
        )
        assert response.text == "1"

    def test_field_outside_schema_is_400(self, sim_server):
        ch = create_channel(sim_server, fields=("only",))
        response = post_update(sim_server, ch["write_key"], {5: 1}, 0.0)
        assert response.status_code == 400

    # A bool value or position has no form the server parses: "True" is text.
    @pytest.mark.parametrize(
        "position, raw",
        [(2, "nan"), (2, "1" + "0" * 5000), (4, "1")],
        ids=["nan-value", "int-too-long", "position-outside-schema"],
    )
    def test_a_good_field_then_a_bad_one_is_400_and_stores_nothing(
        self, sim_server, position, raw
    ):
        ch = create_channel(sim_server)
        assert post_update(sim_server, ch["write_key"], {1: 5, 2: 7}, 0.0).text == "1"
        response = post_update(sim_server, ch["write_key"], {1: 6, position: raw}, 1.0)
        assert response.status_code == 400
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 10},
            timeout=5,
        ).json()
        assert feeds["feeds"] == [{"created_at": 0.0, "entry_id": 1, "field1": 5, "field2": 7}]
        assert post_update(sim_server, ch["write_key"], {1: 8}, 1.0).text == "2"

    @pytest.mark.parametrize(
        "stray, text",
        [
            ("field9=1&fieldx=2", "field position 9 outside the channel schema"),
            ("fieldx=2", "field position x outside the channel schema"),
            ("field0=2", "field position 0 outside the channel schema"),
            ("field01=2", "field position 01 outside the channel schema"),
        ],
        ids=["field9", "fieldx", "field0", "field01"],
    )
    def test_a_field_key_naming_no_position_is_400_and_stores_nothing(
        self, sim_server, stray, text
    ):
        ch = create_channel(sim_server)
        response = requests.post(
            sim_server.url + "/update",
            data=f"api_key={ch['write_key']}&created_at=0&field1=6&{stray}",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            timeout=5,
        )
        assert (response.status_code, response.text) == (400, text)
        assert sim_server.store.read_feed(ch["channel_id"], ch["read_key"], 10) == []
        assert post_update(sim_server, ch["write_key"], {1: 6}, 0.0).text == "1"

    def test_a_bad_position_is_named_before_a_bad_value(self, sim_server):
        ch = create_channel(sim_server)
        response = post_update(sim_server, ch["write_key"], {1: "nan", 4: 1}, 0.0)
        assert response.status_code == 400
        assert response.text == "field position 4 outside the channel schema"

    def test_missing_created_at_in_sim_time_is_400(self, sim_server):
        ch = create_channel(sim_server)
        response = post_update(sim_server, ch["write_key"], {1: 1})
        assert response.status_code == 400
        assert "created_at" in response.text
        assert post_update(sim_server, ch["write_key"], {1: 2}, 5.0).text == "1"
        stored = sim_server.store.read_feed(ch["channel_id"], ch["read_key"], 10)
        assert [(e.created_at, e.values) for e in stored] == [(5.0, {1: 2})]

    def test_write_to_a_closed_store_is_503(self, sim_server):
        ch = create_channel(sim_server)
        assert post_update(sim_server, ch["write_key"], {1: 1}, 0.0).text == "1"
        sim_server.store.close()
        response = post_update(sim_server, ch["write_key"], {1: 2}, 1.0)
        assert response.status_code == 503
        assert len(sim_server.store.read_feed(ch["channel_id"], ch["read_key"], 10)) == 1

    def test_a_write_the_log_file_refuses_is_503_and_leaves_it_as_it_was(self, tmp_path):
        data = tmp_path / "data"
        store = TelemetryStore(data)
        ch = store.create_channel("shower", ["n"], min_post_interval_s=0)
        store.write_update(ch.write_key, {1: 1}, 0.0)
        store.close()
        log = data / f"channel-{ch.channel_id}.log"
        before = log.read_bytes()
        # The log may not grow past 10 more bytes, as if the disk were full.
        serve = (
            "import resource, sys; from showersim.telemetry.server import main; "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({len(before) + 10}, hard)); "
            "main(sys.argv[1:])"
        )
        cmd = [sys.executable, "-c", serve, "--port", "0", "--data-dir", str(data), "--sim-time"]
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        ) as proc:
            try:
                url = proc.stdout.readline().strip().removeprefix("listening on ")
                client = TelemetryClient(url)
                try:
                    for created_at in (1.0, 2.0):  # no byte of the first is left to flush
                        assert client.post_update(ch.write_key, {1: 2}, created_at) == (
                            "503 Service Unavailable",
                            None,
                        )
                finally:
                    client.close()
            finally:
                proc.kill()
        assert log.read_bytes() == before

    def test_wall_clock_mode_ignores_client_created_at(self, wall_server):
        ch = create_channel(wall_server, min_post_interval_s=0)
        post_update(wall_server, ch["write_key"], {1: 1}, 12345.0)
        feeds = requests.get(
            wall_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 1},
            timeout=5,
        ).json()
        assert feeds["feeds"][0]["created_at"] > 1_000_000_000  # server clock, not 12345


class TestFeedsEndpoint:
    def test_oldest_first_and_results_window(self, sim_server):
        ch = create_channel(sim_server)
        for i in range(5):
            post_update(sim_server, ch["write_key"], {1: i * 10}, float(i))
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 3},
            timeout=5,
        ).json()
        assert [f["entry_id"] for f in feeds["feeds"]] == [3, 4, 5]
        assert [f["field1"] for f in feeds["feeds"]] == [20, 30, 40]

    def test_wrong_read_key_is_401(self, sim_server):
        ch = create_channel(sim_server)
        response = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": "WRONGKEY00000000"},
            timeout=5,
        )
        assert response.status_code == 401

    def test_unknown_channel_is_404(self, sim_server):
        response = requests.get(
            sim_server.url + "/channels/999/feeds.json",
            params={"api_key": "X"},
            timeout=5,
        )
        assert response.status_code == 404

    @pytest.mark.parametrize("results", ["0", "-1", "x"])
    def test_a_bad_results_is_400_before_and_after_a_page_is_cached(self, sim_server, results):
        ch = create_channel(sim_server)
        post_update(sim_server, ch["write_key"], {1: 1}, 0.0)
        url = sim_server.url + f"/channels/{ch['channel_id']}/feeds.json"
        bad = {"api_key": ch["read_key"], "results": results}
        assert requests.get(url, params=bad, timeout=5).status_code == 400  # nothing cached yet
        assert requests.get(url, params={"api_key": ch["read_key"]}, timeout=5).status_code == 200
        assert requests.get(url, params=bad, timeout=5).status_code == 400

    def test_shared_channel_user_stub(self, sim_server):
        ch = sim_server.store.create_channel(
            "family", ["f1"], visibility="shared", shared_with=["grandma"]
        )
        post_update(sim_server, ch.write_key, {1: 5}, 0.0)
        ok = requests.get(
            sim_server.url + f"/channels/{ch.channel_id}/feeds.json",
            params={"user": "grandma"},
            timeout=5,
        )
        assert ok.status_code == 200
        denied = requests.get(
            sim_server.url + f"/channels/{ch.channel_id}/feeds.json",
            params={"user": "stranger"},
            timeout=5,
        )
        assert denied.status_code == 401


# feeds.json bodies as the server has always written them: json.dumps of
# {"channel": {...}, "feeds": [...]} with its default separators and escapes.
PINNED_PAGES = {
    1: rb'{"channel": {"id": 1, "name": "Dusch \"Bad\" \u00fc", "field1": "distance", '
    rb'"field2": "Temp \u00b0C", "field3": "note"}, "feeds": ['
    rb'{"created_at": 4.25, "entry_id": 4, "field1": -3, "field3": 5.0}]}',
    2: rb'{"channel": {"id": 1, "name": "Dusch \"Bad\" \u00fc", "field1": "distance", '
    rb'"field2": "Temp \u00b0C", "field3": "note"}, "feeds": ['
    rb'{"created_at": 3.0, "entry_id": 3, "field2": 0.30000000000000004, "field3": "ok"}, '
    rb'{"created_at": 4.25, "entry_id": 4, "field1": -3, "field3": 5.0}]}',
    10: rb'{"channel": {"id": 1, "name": "Dusch \"Bad\" \u00fc", "field1": "distance", '
    rb'"field2": "Temp \u00b0C", "field3": "note"}, "feeds": ['
    rb'{"created_at": 0.0, "entry_id": 1, "field1": 8, "field2": 23.5, "field3": "caf\u00e9 \"x\""}, '
    rb'{"created_at": 1.5, "entry_id": 2, "field1": 1234567.5}, '
    rb'{"created_at": 3.0, "entry_id": 3, "field2": 0.30000000000000004, "field3": "ok"}, '
    rb'{"created_at": 4.25, "entry_id": 4, "field1": -3, "field3": 5.0}]}',
}
PINNED_EMPTY_PAGE = rb'{"channel": {"id": 2, "name": "empty", "field1": "x"}, "feeds": []}'


def get_page(server, channel_id, read_key, results, **params) -> bytes:
    response = requests.get(
        server.url + f"/channels/{channel_id}/feeds.json",
        params={"api_key": read_key, "results": results, **params},
        timeout=5,
    )
    assert response.status_code == 200
    assert response.headers["Content-Type"] == "application/json"
    assert int(response.headers["Content-Length"]) == len(response.content)
    return response.content


def fresh_page(store, channel_id, read_key, results) -> bytes:
    """feeds.json rendered from scratch: a dict per row and one json.dumps."""
    channel = store.channel(channel_id)
    channel_obj = {"id": channel.channel_id, "name": channel.name}
    for position, field_name in enumerate(channel.field_names, start=1):
        channel_obj[f"field{position}"] = field_name
    feeds = [
        {
            "created_at": entry.created_at,
            "entry_id": entry.entry_id,
            **{f"field{position}": entry.values[position] for position in sorted(entry.values)},
        }
        for entry in store.read_feed(channel_id, read_key, results)
    ]
    return json.dumps({"channel": channel_obj, "feeds": feeds}).encode("utf-8")


class TestFeedBytes:
    def test_pages_match_pinned_bytes(self, sim_server):
        store = sim_server.store
        ch = store.create_channel('Dusch "Bad" \u00fc', ["distance", "Temp \u00b0C", "note"])
        empty = store.create_channel("empty", ["x"])
        store.write_update(ch.write_key, {1: 8, 2: 23.5, 3: 'caf\u00e9 "x"'}, 0.0)
        store.write_update(ch.write_key, {1: 1234567.5}, 1.5)
        store.write_update(ch.write_key, {3: "ok", 2: 0.30000000000000004}, 3.0)
        store.write_update(ch.write_key, {1: -3, 3: 5.0}, 4.25)
        for results in (10, 1, 2, 10, 2):  # cold, shrinking, growing and repeated pages
            page = get_page(sim_server, ch.channel_id, ch.read_key, results)
            assert page == PINNED_PAGES[results]
        assert get_page(sim_server, empty.channel_id, empty.read_key, 5) == PINNED_EMPTY_PAGE

    def test_pages_equal_a_fresh_rendering_across_channels_and_windows(self, sim_server):
        store = sim_server.store
        channels = [store.create_channel(n, ["n", "label"], min_post_interval_s=0) for n in "ab"]
        for step, results in enumerate([3, 5, 1, 5] * 3):
            for count, ch in enumerate(channels, start=1):
                for _ in range(count):  # the channels' ids drift apart
                    store.write_update(ch.write_key, {1: step, 2: f"{ch.name}{step}"}, float(step))
                page = get_page(sim_server, ch.channel_id, ch.read_key, results)
                assert page == fresh_page(store, ch.channel_id, ch.read_key, results)

    def test_pages_equal_a_fresh_rendering_as_reads_and_writes_interleave(self, sim_server):
        # Windows that grow past the cached page, shrink, outrun a short
        # channel or trail many new entries, on three channels, one of them
        # read through user= only.
        store = sim_server.store
        channels = [
            store.create_channel("a", ["n", "x", "label"], min_post_interval_s=0),
            store.create_channel("b", ["n"], min_post_interval_s=0),
            store.create_channel(
                "s", ["n", "label"], visibility="shared", shared_with=["grandma"], min_post_interval_s=0
            ),
        ]
        written = [0, 0, 0]
        rng = random.Random(14)

        def write(index):
            ch = channels[index]
            n = written[index] = written[index] + 1
            values = {1: rng.choice([n, n / 3, -n, f"t{n} \"é\""])}
            for pos in range(2, len(ch.field_names) + 1):
                if rng.random() < 0.5:
                    values[pos] = rng.choice([n * 1.5, f"\u00b0{n}", 0])
            assert store.write_update(ch.write_key, values, float(n)) == n

        def check(index, results):
            ch = channels[index]
            if ch.visibility == "shared":
                page = get_page(sim_server, ch.channel_id, "", results, user="grandma")
            else:
                page = get_page(sim_server, ch.channel_id, ch.read_key, results)
            assert page == fresh_page(store, ch.channel_id, ch.read_key, results)

        # (channel, writes before the read, results)
        script = [
            (0, 0, 5),  # an empty channel
            (0, 3, 5),  # a channel shorter than the window
            (0, 4, 5),  # the window outgrows the cached rows, which start at entry 1
            (0, 1, 3),  # it shrinks
            (0, 0, 8),  # it grows past cached rows that do not start at entry 1
            (0, 2, 100),  # more rows than the channel holds
            (1, 6, 2),
            (0, 1, 100),
            (1, 10, 4),  # more new entries than the window
            (2, 3, 2),
            (2, 1, 5),
            (1, 0, 4),  # no new entry
            (2, 4, 3),
            (2, 0, 50),
        ]
        script += [(rng.randrange(3), rng.choice([0, 0, 1, 1, 2, 7]), rng.randint(1, 30)) for _ in range(120)]
        for index, writes, results in script:
            for _ in range(writes):
                write(index)
            check(index, results)

    def test_a_steady_page_builds_and_renders_only_the_new_row(self, sim_server, monkeypatch):
        store = sim_server.store
        ch = store.create_channel("steady", ["n", "label"], min_post_interval_s=0)
        for i in range(150):
            store.write_update(ch.write_key, {1: i, 2: f"r{i}"}, float(i))
        get_page(sim_server, ch.channel_id, ch.read_key, 100)
        built, rendered = [], []
        render_row = server_module._render_row

        def counted_entry(*fields):
            built.append(fields[0])
            return Entry(*fields)

        def counted_render(entry):
            rendered.append(entry.entry_id)
            return render_row(entry)

        monkeypatch.setattr(store_module, "Entry", counted_entry)
        monkeypatch.setattr(server_module, "_render_row", counted_render)
        store.write_update(ch.write_key, {1: 150, 2: "r150"}, 150.0)
        page = get_page(sim_server, ch.channel_id, ch.read_key, 100)
        assert (built, rendered) == ([151], [151])
        assert get_page(sim_server, ch.channel_id, ch.read_key, 100) == page
        assert (built, rendered) == ([151], [151])  # no new entry: nothing built or rendered
        monkeypatch.undo()
        assert page == fresh_page(store, ch.channel_id, ch.read_key, 100)

    def test_the_cache_keeps_only_the_newest_rows_of_a_long_page(self, sim_server, monkeypatch):
        monkeypatch.setattr(server_module, "FEED_CACHE_ROWS", 4)
        store = sim_server.store
        ch = store.create_channel("long", ["n", "label"], min_post_interval_s=0)
        written = 0
        # (writes before the read, results): pages longer and shorter than the
        # cache, over a channel shorter and longer than it
        for writes, results in [(3, 10), (0, 2), (6, 20), (0, 20), (1, 3), (0, 4), (2, 6), (0, 100), (1, 5)]:
            for _ in range(writes):
                written += 1
                store.write_update(ch.write_key, {1: written, 2: f"r{written}"}, float(written))
            page = get_page(sim_server, ch.channel_id, ch.read_key, results)
            assert page == fresh_page(store, ch.channel_id, ch.read_key, results)
            cached = sim_server.feed_rows[ch.channel_id]
            assert list(cached) == list(range(written + 1 - len(cached), written + 1))
            assert len(cached) == min(4, results, written)

    def test_concurrent_readers_see_consecutive_written_rows(self, sim_server):
        ch = sim_server.store.create_channel("busy", ["n", "label"], min_post_interval_s=0)
        host, port = sim_server.server_address[:2]
        total = 300
        writing = threading.Event()
        writing.set()
        failures = []

        def written(entry_id):
            return {
                "created_at": float(entry_id),
                "entry_id": entry_id,
                "field1": entry_id * 3,
                "field2": f"row{entry_id}",
            }

        def writer():
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                for entry_id in range(1, total + 1):
                    row = written(entry_id)
                    conn.request(
                        "POST",
                        f"/update?api_key={ch.write_key}&field1={row['field1']}"
                        f"&field2={row['field2']}&created_at={row['created_at']}",
                    )
                    body = conn.getresponse().read()
                    if body != str(entry_id).encode():
                        failures.append(f"write {entry_id} answered {body!r}")
            finally:
                writing.clear()
                conn.close()

        def reader(results):
            """Check each page read while the writer runs; returns how many held rows."""
            path = f"/channels/{ch.channel_id}/feeds.json?api_key={ch.read_key}&results={results}"
            conn = http.client.HTTPConnection(host, port, timeout=10)
            pages = 0
            try:
                while writing.is_set():
                    conn.request("GET", path)
                    feeds = json.loads(conn.getresponse().read())["feeds"]
                    pages += bool(feeds)
                    ids = [row["entry_id"] for row in feeds]
                    newest = ids[-1] if ids else 0
                    if ids != list(range(newest - min(results, newest) + 1, newest + 1)):
                        failures.append(f"results={results}: ids {ids}")
                    if any(row != written(row["entry_id"]) for row in feeds):
                        failures.append(f"results={results}: rows {feeds}")
            finally:
                conn.close()
            return pages

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                readers = [pool.submit(reader, results) for results in (7, 4)]
                pool.submit(writer).result(timeout=60)
                pages = [future.result(timeout=10) for future in readers]
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert sum(pages) > 0


class TestLastFieldEndpoint:
    def test_latest_value_as_text(self, sim_server):
        ch = create_channel(sim_server)
        post_update(sim_server, ch["write_key"], {1: 8}, 0.0)
        post_update(sim_server, ch["write_key"], {1: 74}, 1.0)
        response = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/fields/1/last.txt",
            params={"api_key": ch["read_key"]},
            timeout=5,
        )
        assert response.status_code == 200
        assert response.text == "74"

    @pytest.mark.parametrize(
        "written, text",
        [
            ("1234567.5", "1234567.5"),
            ("0.30000000000000004", "0.30000000000000004"),
            ("5.0", "5.0"),
        ],
        ids=["large", "long-repr", "integral"],
    )
    def test_float_value_as_feeds_json_shows_it(self, sim_server, written, text):
        ch = create_channel(sim_server)
        post_update(sim_server, ch["write_key"], {1: written}, 0.0)
        response = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/fields/1/last.txt",
            params={"api_key": ch["read_key"]},
            timeout=5,
        )
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 1},
            timeout=5,
        ).text
        assert response.status_code == 200
        assert response.text == text
        assert f'"field1": {text}}}' in feeds

    def test_empty_channel_is_404(self, sim_server):
        ch = create_channel(sim_server)
        response = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/fields/1/last.txt",
            params={"api_key": ch["read_key"]},
            timeout=5,
        )
        assert response.status_code == 404

    def test_position_out_of_schema_is_400(self, sim_server):
        ch = create_channel(sim_server, fields=("only",))
        response = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/fields/5/last.txt",
            params={"api_key": ch["read_key"]},
            timeout=5,
        )
        assert response.status_code == 400


class TestChannelAdmin:
    def test_create_returns_keys(self, sim_server):
        ch = create_channel(sim_server)
        assert set(ch) == {"channel_id", "write_key", "read_key"}
        assert ch["write_key"] != ch["read_key"]

    def test_nine_fields_rejected(self, sim_server):
        data = [("name", "big")] + [("field", f"f{i}") for i in range(9)]
        response = requests.post(sim_server.url + "/channels", data=data, timeout=5)
        assert response.status_code == 400

    def test_a_shared_channel_names_its_readers(self, sim_server):
        ch = create_channel(sim_server, visibility="shared", shared_with="carer")
        assert post_update(sim_server, ch["write_key"], {1: 5}, 0.0).text == "1"
        url = sim_server.url + f"/channels/{ch['channel_id']}/feeds.json"
        assert requests.get(url, params={"user": "carer"}, timeout=5).status_code == 200
        assert requests.get(url, params={"user": "stranger"}, timeout=5).status_code == 401
        assert sim_server.store.channel(ch["channel_id"]).shared_with == ["carer"]

    def test_repeated_shared_with_params_list_every_reader(self, sim_server):
        data = [("name", "family"), ("field", "n"), ("visibility", "shared")]
        data += [("shared_with", "carer"), ("shared_with", "nurse")]
        response = requests.post(sim_server.url + "/channels", data=data, timeout=5)
        assert response.status_code == 200
        channel_id = response.json()["channel_id"]
        assert sim_server.store.channel(channel_id).shared_with == ["carer", "nurse"]
        sim_server.store.write_update(response.json()["write_key"], {1: 7}, 0.0)
        url = sim_server.url + f"/channels/{channel_id}/fields/1/last.txt"
        for user in ("carer", "nurse"):
            assert requests.get(url, params={"user": user}, timeout=5).text == "7"

    @pytest.mark.parametrize(
        "data",
        [
            [("field", "n")],  # no name
            [("name", "x"), ("field", "n"), ("visibility", "public")],
            [("name", "x"), ("field", "n"), ("min_post_interval_s", "-5")],
            [("name", "x"), ("field", "n"), ("min_post_interval_s", "soon")],
            [("name", "x")],  # no field
        ],
    )
    def test_a_refused_channel_is_400_and_creates_nothing(self, sim_server, data):
        response = requests.post(sim_server.url + "/channels", data=data, timeout=5)
        assert response.status_code == 400
        assert create_channel(sim_server)["channel_id"] == 1

    def test_unknown_path_is_404(self, sim_server):
        assert requests.get(sim_server.url + "/nope", timeout=5).status_code == 404


class TestNonFiniteInput:
    def test_inf_created_at_is_400_and_channel_keeps_working(self, sim_server):
        ch = create_channel(sim_server)
        assert post_update(sim_server, ch["write_key"], {1: 1}, 0.0).text == "1"
        response = post_update(sim_server, ch["write_key"], {1: 2}, "inf")
        assert response.status_code == 400
        assert post_update(sim_server, ch["write_key"], {1: 3}, 1.0).text == "2"

    def test_nan_field_is_400_and_feeds_stay_strict_json(self, sim_server):
        ch = create_channel(sim_server)
        for created_at, value in ((0.0, "nan"), (0.0, "inf"), (0.0, "-Infinity")):
            response = post_update(sim_server, ch["write_key"], {1: value}, created_at)
            assert response.status_code == 400
        assert post_update(sim_server, ch["write_key"], {1: 8}, 0.0).text == "1"
        feeds = requests.get(
            sim_server.url + f"/channels/{ch['channel_id']}/feeds.json",
            params={"api_key": ch["read_key"], "results": 10},
            timeout=5,
        ).text
        assert "NaN" not in feeds and "Infinity" not in feeds
        assert [row["field1"] for row in json_strict(feeds)["feeds"]] == [8]

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_channel_interval_is_400_and_a_restart_keeps_every_channel(
        self, sim_server, tmp_path, interval
    ):
        good = create_channel(sim_server)
        response = requests.post(
            sim_server.url + "/channels",
            data={"name": "evil", "field": "x", "min_post_interval_s": interval},
            timeout=5,
        )
        assert response.status_code == 400
        later = create_channel(sim_server)
        reopened = TelemetryStore(tmp_path / "server-data")  # the sim_server fixture's data dir
        try:
            for ch in (good, later):
                assert reopened.channel(ch["channel_id"]).write_key == ch["write_key"]
        finally:
            reopened.close()


def json_strict(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def read_until_closed(sock) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes, end the request stream and read until the server closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        return read_until_closed(sock)


def split_answers(reply: bytes) -> list:
    """The (status line, headers, body) of each answer in `reply`, in order.

    Each body must be as long as its Content-Length says.
    """
    answers = []
    while reply:
        head, end, reply = reply.partition(b"\r\n\r\n")
        assert end, f"answer cut inside its headers: {head!r}"
        status_line, *lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines)
        length = int(headers[b"Content-Length"])
        assert len(reply) >= length, f"body cut at {len(reply)} of {length} bytes"
        answers.append((status_line, headers, reply[:length]))
        reply = reply[length:]
    return answers


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "head, body, status",
        [
            (b"Content-Length: abc\r\n", b"", b"400"),
            (b"Content-Length: -5\r\n", b"api_key=x", b"400"),
            (b"Content-Length: 11\r\n", b"api_key=\xff\xfe\xfd", b"400"),
            (b"Content-Length: 10000000\r\n", b"api_key=x", b"413"),
            (b"Transfer-Encoding: chunked\r\n", b"9\r\napi_key=x\r\n0\r\n\r\n", b"411"),
            (b"Content-Length: 10\r\n", b"api", b"400"),
        ],
        ids=[
            "non-integer-length",
            "negative-length",
            "non-utf8-body",
            "oversized-body",
            "chunked-body",
            "body-ends-early",
        ],
    )
    def test_answered_then_closed(self, sim_server, head, body, status):
        request = b"POST /update HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request))
        assert status_line.startswith(b"HTTP/1.1 " + status)
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
        assert text
        assert requests.get(sim_server.url + "/nope", timeout=5).status_code == 404

    @pytest.mark.parametrize("kind", ["get-with-body", "chunked-post"])
    def test_unread_body_is_never_run_as_a_request(self, sim_server, kind):
        ch = create_channel(sim_server)
        form = f"api_key={ch['write_key']}&field1=7&created_at=2.0"
        if kind == "get-with-body":
            inner = f"POST /update?{form} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n".encode()
            request = (
                f"GET /channels/{ch['channel_id']}/feeds.json?api_key={ch['read_key']} HTTP/1.1\r\n"
                f"Host: test\r\nContent-Length: {len(inner)}\r\n\r\n"
            ).encode() + inner
            status = b"200"
        else:
            request = (
                b"POST /update HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(form) + form.encode() + b"\r\n0\r\n\r\n"
            )
            status = b"411"
        (status_line, _, _), = split_answers(raw_exchange(sim_server, request))
        assert status_line.startswith(b"HTTP/1.1 " + status)
        assert sim_server.store.read_feed(ch["channel_id"], ch["read_key"], 10) == []

    @pytest.mark.parametrize(
        "head",
        [
            b"Content-Length: {n}\r\nContent-Length: {more}\r\n",
            b"X-Note\r\nContent-Length: {n}\r\n",
            b"Content-Length : {n}\r\n",
            b"X-Note: a\r\n folded\r\nContent-Length: {n}\r\n",
            b"X-A: a\rb\r\nContent-Length: {n}\r\n",
        ],
        ids=["differing-lengths", "no-colon", "space-before-colon", "obs-fold", "bare-cr"],
    )
    def test_a_malformed_header_block_is_400_then_closed(self, sim_server, head):
        ch = create_channel(sim_server)
        body = f"api_key={ch['write_key']}&field1=7&created_at=0".encode()
        head = head.replace(b"{n}", b"%d" % len(body)).replace(b"{more}", b"%d" % (len(body) + 5))
        request = b"POST /update HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request))
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
        assert text
        assert sim_server.store.read_feed(ch["channel_id"], ch["read_key"], 10) == []

    @pytest.mark.parametrize(
        "path",
        ["/channels/{big}/feeds.json?api_key=x", "/channels/1/fields/{big}/last.txt?api_key=x"],
        ids=["channel-id", "field-position"],
    )
    def test_a_number_past_the_int_digit_limit_in_a_path_is_404(self, sim_server, path):
        # int() refuses text over 4,300 digits; the handler thread used to die unanswered.
        create_channel(sim_server)
        path = path.replace("{big}", "1" * 5_000)
        request = f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request))
        assert (status_line, text) == (b"HTTP/1.1 404 Not Found", b"not found")
        assert b"Connection" not in headers

    def test_a_content_length_past_the_int_digit_limit_is_413_then_closed(self, sim_server):
        request = b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: " + b"9" * 5_000 + b"\r\n\r\n"
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request))
        assert status_line == b"HTTP/1.1 413 " + http.client.responses[413].encode()
        assert headers[b"Connection"] == b"close"
        assert text == b"request body over 65536 bytes"

    @pytest.mark.parametrize("zeros", [4, 5_000])
    def test_leading_zeros_in_a_content_length_frame_the_body(self, sim_server, zeros):
        ch = create_channel(sim_server)
        body = f"api_key={ch['write_key']}&field1=7&created_at=0".encode()
        request = (
            b"POST /update HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            b"Content-Length: %s%d\r\n\r\n" % (b"0" * zeros, len(body))
        ) + body
        (status_line, _, text), = split_answers(raw_exchange(sim_server, request))
        assert (status_line, text) == (b"HTTP/1.1 200 OK", b"1")

    def test_equal_content_lengths_and_any_case_frame_the_body(self, sim_server):
        ch = create_channel(sim_server)
        body = f"api_key={ch['write_key']}&field1=7&created_at=0".encode()
        request = (
            b"POST /update HTTP/1.1\r\nHost: test\r\nCONTENT-length:  %d \r\n"
            b"Content-Length: %d\r\nconnection: CLOSE\r\n\r\n" % (len(body), len(body))
        ) + body
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request))
        assert (status_line, text) == (b"HTTP/1.1 200 OK", b"1")
        assert headers[b"Connection"] == b"close"

    def test_expect_100_continue_comes_before_the_body(self, sim_server):
        ch = create_channel(sim_server)
        body = f"api_key={ch['write_key']}&field1=7&created_at=0".encode()
        head = (
            b"POST /update HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
            b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        host, port = sim_server.server_address[:2]
        with socket.create_connection((host, port), timeout=2) as sock:
            sock.sendall(head)
            assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            (status_line, _, text), = split_answers(read_until_closed(sock))
        assert status_line == b"HTTP/1.1 200 OK"
        assert text == b"1"

    @pytest.mark.parametrize(
        "head, status_line",
        [
            (b"POST /update HTTP/1.1\r\nContent-Length: 70000\r\n", b"HTTP/1.1 413 "),
            (b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", b"HTTP/1.1 411 "),
            (b"POST /update HTTP/1.1\r\nContent-Length: x\r\n", b"HTTP/1.1 400 "),
            (b"GET /nope HTTP/1.1\r\n", b"HTTP/1.1 404 "),
        ],
        ids=["oversized-body", "chunked-body", "non-integer-length", "no-body"],
    )
    def test_no_100_continue_without_a_body_to_read(self, sim_server, head, status_line):
        # A client that waits for the 100 would send a body the server never reads.
        reply = raw_exchange(sim_server, head + b"Host: test\r\nExpect: 100-continue\r\n\r\n")
        assert not reply.startswith(b"HTTP/1.1 100")
        (answer_status, _, _), = split_answers(reply)
        assert answer_status.startswith(status_line)


class TestAnswerHeaders:
    def test_the_date_header_follows_the_clock_second_by_second(self, sim_server, monkeypatch):
        now = [1_000_000_000.2]
        monkeypatch.setattr(server_module.time, "time", lambda: now[0])
        dates = []
        for now[0] in (1_000_000_000.2, 1_000_000_000.9, 1_000_000_001.0, 999_999_999.5):
            response = requests.get(sim_server.url + "/nope", timeout=5)
            dates.append(response.headers["Date"])
        assert dates == [
            "Sun, 09 Sep 2001 01:46:40 GMT",
            "Sun, 09 Sep 2001 01:46:40 GMT",
            "Sun, 09 Sep 2001 01:46:41 GMT",
            "Sun, 09 Sep 2001 01:46:39 GMT",
        ]


class TestServerOwnErrors:
    """Errors found before any route runs answer like the API's own."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"hello\r\n", b"400"),
            (b"PUT /update HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n", b"501"),
            (b"POST /update HTTP/1.1\r\nX-Big: " + b"a" * 65530, b"431"),  # a 65,537-byte line
            (b"GET /nope HTTP/1.1\r\n" + b"X-A: 1\r\n" * 100 + b"\r\n", b"431"),  # 101 lines
        ],
        ids=["one-word-line", "unknown-method", "oversized-header", "too-many-headers"],
    )
    def test_plain_text_then_closed(self, sim_server, request_bytes, status):
        (status_line, headers, text), = split_answers(raw_exchange(sim_server, request_bytes))
        assert status_line.startswith(b"HTTP/1.1 " + status + b" ")
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
        assert text

    @pytest.mark.parametrize(
        "request_line",
        [b"GET /nope\r\n", b"GET /channels/1/feeds.json HTTP/0.9\r\n"],
        ids=["two-word-line", "http-0.9-version"],
    )
    def test_http_0_9_request_line_gets_400(self, sim_server, request_line):
        # http.server would answer HTTP/0.9 with a bare body and no status line
        reply = raw_exchange(sim_server, request_line + b"Host: test\r\n\r\n")
        (status_line, headers, text), = split_answers(reply)
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
        assert text == b"request line must end with HTTP/1.0 or HTTP/1.1"

    def test_head_gets_the_headers_alone(self, sim_server):
        reply = raw_exchange(sim_server, b"HEAD /update HTTP/1.1\r\nHost: test\r\n\r\n")
        head, end, body = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.split(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 501 ")
        assert b"Content-Type: text/plain; charset=utf-8" in lines
        assert (end, body) == (b"\r\n\r\n", b"")


@pytest.fixture
def short_timeout(monkeypatch):
    monkeypatch.setattr(TelemetryRequestHandler, "timeout", 0.3)


class TestSlowClients:
    def test_every_connection_has_the_timeout(self):
        assert TelemetryRequestHandler.timeout == server_module.REQUEST_TIMEOUT_S == 30.0

    def test_a_body_that_stops_short_gets_408(self, sim_server, short_timeout):
        with socket.create_connection(sim_server.server_address[:2], timeout=5) as sock:
            sock.sendall(b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\napi")
            (status_line, headers, text), = split_answers(read_until_closed(sock))
        assert status_line == b"HTTP/1.1 408 Request Timeout"
        assert headers[b"Connection"] == b"close"
        assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
        assert text == b"request body not received within 0.3 s"

    def test_headers_that_never_come_end_the_connection(self, sim_server, short_timeout):
        # A two-word request line reads as HTTP/0.9, whose headers never come.
        with socket.create_connection(sim_server.server_address[:2], timeout=5) as sock:
            sock.sendall(b"GET /channels/1/feeds.json\r\n")
            assert read_until_closed(sock) == b""

    def test_a_device_idle_past_the_timeout_posts_again(self, sim_server, short_timeout):
        ch = create_channel(sim_server)
        client = TelemetryClient(sim_server.url)
        try:
            assert client.post_update(ch["write_key"], {1: 8}, 0.0) == ("200 OK", 1)
            time.sleep(0.6)  # the server closes the idle keep-alive connection
            assert client.post_update(ch["write_key"], {1: 9}, 1.0) == ("200 OK", 2)
        finally:
            client.close()


@pytest.fixture
def two_handler_server(monkeypatch, tmp_path):
    """A sim-time server that serves at most two connections at once, and its store."""
    monkeypatch.setattr(server_module, "MAX_HANDLERS", 2)
    store = TelemetryStore(tmp_path / "capped-data")
    server = server_module.TelemetryHTTPServer(store, sim_time=True).start()
    yield server, store
    server.stop()
    store.close()


def busy_exchange(server, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes.

    Unlike raw_exchange, the request stream is not ended first: a refused
    connection may be closed before the client gets to end it.
    """
    with socket.create_connection(server.server_address[:2], timeout=5) as sock:
        sock.sendall(request)
        return read_until_closed(sock)


def held_connection(server, path: str, deadline_s: float = 5.0) -> http.client.HTTPConnection:
    """A keep-alive connection whose GET of `path` was answered 200.

    A handler frees its slot just after it closes its socket, so a connection
    made at once after may still get the busy 503; it is retried until served.
    """
    host, port = server.server_address[:2]
    deadline = time.monotonic() + deadline_s
    while True:
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.request("GET", path)
        response = conn.getresponse()
        if response.status != 503 or time.monotonic() > deadline:
            assert response.status == 200, response.read()
            response.read()
            return conn
        conn.close()
        time.sleep(0.01)


class TestHandlerCap:
    def test_the_cap(self):
        assert server_module.MAX_HANDLERS == 64

    def test_a_device_past_the_cap_reads_503(self, two_handler_server):
        server, store = two_handler_server
        ch = store.create_channel("shower", ["distance"])
        stalled = [socket.create_connection(server.server_address[:2], timeout=5) for _ in range(2)]
        try:
            for sock in stalled:  # each holds a handler, waiting for the rest of its body
                sock.sendall(b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\napi")
            client = TelemetryClient(server.url)
            try:
                assert client.post_update(ch.write_key, {1: 8}, 0.0) == ("503 Service Unavailable", None)
            finally:
                client.close()
            for sock in stalled:
                sock.shutdown(socket.SHUT_WR)
                read_until_closed(sock)
        finally:
            for sock in stalled:
                sock.close()
        assert store.read_feed(ch.channel_id, ch.read_key, 10) == []

    def test_a_connection_past_the_cap_gets_503_and_service_resumes(self, two_handler_server):
        server, store = two_handler_server
        ch = store.create_channel("shower", ["distance"])
        store.write_update(ch.write_key, {1: 8}, 0.0)
        last = f"/channels/{ch.channel_id}/fields/1/last.txt?api_key={ch.read_key}"
        request = f"GET {last} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
        busy = (b"HTTP/1.1 503 Service Unavailable", b"server busy: 2 connections are being served")

        stalled = [socket.create_connection(server.server_address[:2], timeout=5) for _ in range(2)]
        try:
            for sock in stalled:  # each holds a handler, waiting for the rest of its body
                sock.sendall(b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\napi")
            (status_line, headers, text), = split_answers(busy_exchange(server, request))
            assert (status_line, text) == busy
            assert headers[b"Connection"] == b"close"
            assert headers[b"Content-Type"] == b"text/plain; charset=utf-8"
            for sock in stalled:  # end the bodies early, well before the 30 s timeout
                sock.shutdown(socket.SHUT_WR)
                (status_line, _, _), = split_answers(read_until_closed(sock))
                assert status_line == b"HTTP/1.1 400 Bad Request"
        finally:
            for sock in stalled:
                sock.close()

        held = [held_connection(server, last) for _ in range(2)]  # both slots came back
        try:
            (status_line, _, text), = split_answers(busy_exchange(server, request))
            assert (status_line, text) == busy
            for conn in held:  # and a held connection keeps being served
                conn.request("GET", last)
                response = conn.getresponse()
                assert (response.status, response.read()) == (200, b"8")
        finally:
            for conn in held:
                conn.close()


SERVER_TEXT = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}".encode()
DATE_RE = re.compile(rb"\r\nDate: [A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT\r\n")


def pinned(text: bytes) -> bytes:
    """Answer bytes with `<server>` for the Server text and `<phrase N>` for status N's phrase."""
    text = text.replace(b"<server>", SERVER_TEXT)
    return re.sub(rb"<phrase (\d+)>", lambda m: http.client.responses[int(m[1])].encode(), text)


def date_masked(reply: bytes) -> bytes:
    """`reply` with each well-formed Date value replaced by `<date>`."""
    return DATE_RE.sub(b"\r\nDate: <date>\r\n", reply)


def text_answer(status: bytes, body: bytes, close: bool = False, sent: bytes = None) -> bytes:
    """A text/plain answer in `pinned` form; `sent` is the body as sent, if not `body` (HEAD)."""
    return (
        b"HTTP/1.1 " + status + b"\r\nServer: <server>\r\nDate: <date>\r\n"
        b"Content-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\n" % len(body)
        + (b"Connection: close\r\n" if close else b"") + b"\r\n"
        + (body if sent is None else sent)
    )


NOPE = b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n"
NOT_FOUND = text_answer(b"404 Not Found", b"not found")


class TestPinnedAnswers:
    """Whole answers, byte for byte but for the Date value: the bytes that
    http.server's formatting gave, which clients may already parse. The status
    phrases are the ones http.client lists, which differ between Python
    versions (413 and 414). A row of more than one request reads the answers
    of a kept-alive connection, one after another."""

    TEXT = b"Content-Type: text/plain; charset=utf-8\r\n"

    @pytest.mark.parametrize(
        "request_bytes, answer",
        [
            (
                b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: {n}\r\n\r\n"
                b"api_key={write}&field1=7&created_at=2",
                b"HTTP/1.1 200 OK\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 1\r\n\r\n2",
            ),
            (
                b"GET /channels/{id}/feeds.json?api_key={read}&results=1 HTTP/1.1\r\nHost: test\r\n\r\n",
                b"HTTP/1.1 200 OK\r\nServer: <server>\r\nDate: <date>\r\n"
                b"Content-Type: application/json\r\nContent-Length: 122\r\n\r\n"
                b'{"channel": {"id": 1, "name": "shower", "field1": "distance"}, '
                b'"feeds": [{"created_at": 0.5, "entry_id": 1, "field1": 6}]}',
            ),
            (
                b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n",
                b"HTTP/1.1 404 Not Found\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 9\r\n\r\nnot found",
            ),
            (
                b"POST /update HTTP/1.1\r\nHost: test\r\nX-Note\r\nContent-Length: 0\r\n\r\n",
                b"HTTP/1.1 400 Bad Request\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 47\r\nConnection: close\r\n\r\n"
                b"header line must be a name, a colon and a value",
            ),
            (
                b"POST /update HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                b"HTTP/1.1 411 Length Required\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 55\r\nConnection: close\r\n\r\n"
                b"Transfer-Encoding is not supported; send Content-Length",
            ),
            (
                b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 65537\r\n\r\n",
                b"HTTP/1.1 413 <phrase 413>\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 29\r\nConnection: close\r\n\r\nrequest body over 65536 bytes",
            ),
            (
                b"GET /" + b"a" * 65_521 + b" HTTP/1.1\r\n",  # a 65,537-byte request line
                b"HTTP/1.1 414 <phrase 414>\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: <length>\r\nConnection: close\r\n\r\n<phrase 414>",
            ),
            (
                b"HEAD /update HTTP/1.1\r\nHost: test\r\n\r\n",
                b"HTTP/1.1 501 Not Implemented\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 27\r\nConnection: close\r\n\r\n",
            ),
            (
                b"POST /update HTTP/1.1\r\nHost: test\r\nExpect: 100-continue\r\n"
                b"Content-Length: {n}\r\n\r\napi_key={write}&field1=7&created_at=2",
                b"HTTP/1.1 100 Continue\r\n\r\n"
                b"HTTP/1.1 200 OK\r\nServer: <server>\r\nDate: <date>\r\n" + TEXT
                + b"Content-Length: 1\r\n\r\n2",
            ),
            (
                b"GET /nope HTTP/2.0\r\nHost: test\r\n\r\n",
                text_answer(b"505 HTTP Version Not Supported", b"Invalid HTTP version (2.0)", close=True),
            ),
            (
                b"GET /nope HTTP/1.x\r\nHost: test\r\n\r\n",
                text_answer(b"400 Bad Request", b"Bad request version ('HTTP/1.x')", close=True),
            ),
            (
                b"GET /nope HTTP/1.00000000001\r\nHost: test\r\n\r\n",
                text_answer(
                    b"400 Bad Request", b"Bad request version ('HTTP/1.00000000001')", close=True
                ),
            ),
            (
                b"GET /nope x HTTP/1.1\r\nHost: test\r\n\r\n",
                text_answer(b"400 Bad Request", b"Bad request syntax ('GET /nope x HTTP/1.1')", close=True),
            ),
            (
                b"POST /update\r\nHost: test\r\n\r\n",
                text_answer(b"400 Bad Request", b"Bad HTTP/0.9 request type ('POST')", close=True),
            ),
            (
                b"HEAD /update\r\nHost: test\r\n\r\n",
                text_answer(
                    b"400 Bad Request", b"Bad HTTP/0.9 request type ('HEAD')", close=True, sent=b""
                ),
            ),
            (b"GET /nope HTTP/1.0\r\n\r\n" + NOPE, text_answer(b"404 Not Found", b"not found", close=True)),
            (b"GET /nope HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + NOPE, NOT_FOUND + NOT_FOUND),
            (b"GET /nope HTTP/01.1\r\n\r\n" + NOPE, NOT_FOUND + NOT_FOUND),
            (
                b"GET //channels/{id}/fields/1/last.txt?api_key={read} HTTP/1.1\r\nHost: test\r\n\r\n",
                text_answer(b"200 OK", b"6"),
            ),
            (
                b"GET /channels/{id}/feeds.json?api_key=nope HTTP/1.1\r\nHost: test\r\n\r\n" + NOPE,
                text_answer(b"401 Unauthorized", b"invalid key") + NOT_FOUND,
            ),
            (
                b"GET /channels/99/feeds.json HTTP/1.1\r\nHost: test\r\n\r\n" + NOPE,
                text_answer(b"404 Not Found", b"no channel 99") + NOT_FOUND,
            ),
            (
                b"GET /channels/{id}/feeds.json?api_key={read}&results=x HTTP/1.1\r\nHost: test\r\n\r\n"
                + NOPE,
                text_answer(b"400 Bad Request", b"results must be an integer") + NOT_FOUND,
            ),
            (  # were the body read as a request, `hello` would get 400
                b"GET /nope HTTP/1.1\r\nHost: test\r\nContent-Length: 7\r\n\r\nhello\r\n" + NOPE,
                NOT_FOUND + NOT_FOUND,
            ),
            (b"\r\n" + NOPE, b""),
        ],
        ids=["post", "feeds", "not-found", "malformed-headers", "chunked", "oversized-body",
             "long-request-line", "head", "expect-100", "http-2.0", "version-not-numbers",
             "version-past-ten-digits", "four-word-line", "http-0.9-post", "http-0.9-head",
             "http-1.0-closes", "http-1.0-keep-alive", "http-01.1-kept-alive", "double-slash-path",
             "bad-key-kept-alive", "no-channel-kept-alive", "bad-results-kept-alive",
             "get-body-skipped", "leading-blank-line"],
    )
    def test_answer_bytes(self, sim_server, request_bytes, answer):
        ch = sim_server.store.create_channel("shower", ["distance"])
        sim_server.store.write_update(ch.write_key, {1: 6}, 0.5)
        request_bytes = (
            request_bytes.replace(b"{write}", ch.write_key.encode())
            .replace(b"{read}", ch.read_key.encode())
            .replace(b"{id}", b"%d" % ch.channel_id)
        )
        request_bytes = request_bytes.replace(b"{n}", b"%d" % len(request_bytes.partition(b"\r\n\r\n")[2]))
        answer = pinned(answer)
        answer = answer.replace(b"<length>", b"%d" % len(http.client.responses[414]))
        assert date_masked(raw_exchange(sim_server, request_bytes)) == answer

    def test_busy_answer_bytes(self, two_handler_server):
        server, _ = two_handler_server
        stalled = [socket.create_connection(server.server_address[:2], timeout=5) for _ in range(2)]
        try:
            for sock in stalled:  # each holds a handler, waiting for the rest of its body
                sock.sendall(b"POST /update HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\napi")
            reply = busy_exchange(server, b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n")
        finally:
            for sock in stalled:
                sock.close()
        assert reply == (
            b"HTTP/1.1 503 Service Unavailable\r\n" + self.TEXT
            + b"Content-Length: 43\r\nConnection: close\r\n\r\n"
            b"server busy: 2 connections are being served"
        )


def test_sigterm_closes_the_store_so_a_restart_loads_its_checkpoint(tmp_path, monkeypatch):
    data = tmp_path / "data"
    cmd = [sys.executable, "-m", "showersim.telemetry.server", "--port", "0", "--data-dir", str(data), "--sim-time"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            url = proc.stdout.readline().strip().removeprefix("listening on ")
            ch = requests.post(url + "/channels", data={"name": "shower", "field": "n"}, timeout=5).json()
            posted = requests.post(
                url + "/update", data={"api_key": ch["write_key"], "field1": "7", "created_at": "5"}, timeout=5
            )
            assert posted.text == "1"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
    assert (data / f"channel-{ch['channel_id']}.checkpoint").exists()

    replayed = []  # log records handed to replay: none, as the checkpoint covers the log
    full_loader = store_module._entry_loader

    def counting_loader(channel):
        accept = full_loader(channel)

        def counted(record):
            replayed.append(record)
            accept(record)

        return counted

    monkeypatch.setattr(store_module, "_entry_loader", counting_loader)
    reopened = TelemetryStore(data)
    try:
        assert reopened.read_feed(ch["channel_id"], ch["read_key"], 10) == [Entry(1, 5.0, {1: 7})]
        assert replayed == []
    finally:
        reopened.close()


class TestStartFailures:
    """A telemetry-serve that cannot start says why in one stderr line and
    exits 2; stdout, whose first line is read for `listening on`, stays empty."""

    @staticmethod
    def serve(*args):
        cmd = [sys.executable, "-m", "showersim.telemetry.server", *args]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60)

    @staticmethod
    def assert_refused(result, first_line):
        assert (result.returncode, result.stdout) == (2, "")
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines()[-1].startswith(first_line)

    def test_a_port_in_use(self, tmp_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            result = self.serve("--port", str(port), "--data-dir", str(tmp_path / "data"))
        self.assert_refused(result, "telemetry-serve: cannot start: [Errno")
        assert len(result.stderr.splitlines()) == 1

    def test_a_data_dir_that_is_a_file(self, tmp_path):
        data = tmp_path / "data"
        data.write_text("not a directory")
        result = self.serve("--port", "0", "--data-dir", str(data))
        self.assert_refused(result, "telemetry-serve: cannot start: [Errno")
        assert len(result.stderr.splitlines()) == 1
        assert data.read_text() == "not a directory"

    @pytest.mark.parametrize("port", ["70000", "-1", "eighty"])
    def test_a_port_out_of_range_is_refused_before_the_store_opens(self, tmp_path, port):
        result = self.serve("--port", port, "--data-dir", str(tmp_path / "data"))
        self.assert_refused(result, "telemetry-serve: error: argument --port: must be a TCP port")
        assert not (tmp_path / "data").exists()

def test_the_server_loads_no_stdlib_http_server_email_ssl_or_hashlib():
    # http.server loads http.client, email and ssl; secrets loads hashlib and
    # OpenSSL; dataclasses loads inspect, ast, dis and tokenize, as does logging
    # through traceback and linecache.
    unwanted = ("http.server", "http.client", "email", "ssl", "hashlib", "secrets")
    unwanted += ("dataclasses", "inspect", "ast", "dis", "tokenize")
    agent_absent = ("socketserver", "showersim.telemetry.server", "http.client", "argparse")
    for module, absent in [
        ("showersim.telemetry.server", unwanted),
        ("showersim.cli", ("hashlib",)),
        ("showersim.telemetry.store", ("pickle", "hashlib", "logging")),
        ("showersim.agent", agent_absent),
    ]:
        code = f"import {module}, sys; print([m for m in {absent!r} if m in sys.modules])"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", ""), module


class Recorded(io.BytesIO):
    """A recorded reply that http.client reads answers off, one after another:
    it is both the socket and the socket's reading file."""

    def makefile(self, mode):
        return self

    def close(self):
        pass  # http.client closes its file after each answer's body


def oracle_answers(reply: bytes) -> list:
    """(status, Connection header, body) of each answer in `reply`, as the
    stdlib http.client reads them; the whole reply must be answers."""
    recorded = Recorded(reply)
    answers = []
    while recorded.tell() < len(reply):
        response = http.client.HTTPResponse(recorded)
        response.begin()
        answers.append((response.status, response.getheader("Connection"), response.read()))
    return answers


# Header lines an /update request may add or repeat without changing its
# framing; `{length}` is the request's own Content-Length text.
STREAM_EXTRAS = [
    b"Host: test",
    b"X-Dup: 1",
    b"X-Dup: 2",
    b"Content-Length: {length}",
    b"Connection: keep-alive",
    b"Content-Type: application/x-www-form-urlencoded",
]
# The header lines of an /update request refused for its framing, and the
# status it is refused with; its body still follows it on the stream.
HOSTILE_HEADS = {
    "differing-lengths": (b"Content-Length: {n}\r\nContent-Length: 1{n}\r\n", 400),
    "no-colon": (b"X-Note\r\nContent-Length: {n}\r\n", 400),
    "space-before-colon": (b"Content-Length : {n}\r\n", 400),
    "obs-fold": (b"X-Note: a\r\n folded\r\nContent-Length: {n}\r\n", 400),
    "bare-cr": (b"X-A: a\rb\r\nContent-Length: {n}\r\n", 400),
    "chunked": (b"Transfer-Encoding: chunked\r\nContent-Length: {n}\r\n", 411),
    "negative-length": (b"Content-Length: -{n}\r\n", 400),
    "fraction-length": (b"Content-Length: {n}.0\r\n", 400),
    "huge-length": (b"Content-Length: 1000000000000000\r\n", 413),
    "length-past-int-limit": (b"Content-Length: " + b"9" * 5_000 + b"\r\n", 413),
}
KEPT_ALIVE = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(-999, 999),  # field1
        st.booleans(),  # the write key is right
        st.sampled_from([b"{n}", b"0{n}", b"000{n}"]),
        st.lists(st.sampled_from(STREAM_EXTRAS), max_size=3),
    ),
    st.just(("nope",)),
)
LAST = st.one_of(
    st.none(),
    st.tuples(st.just("update-close"), st.integers(-999, 999)),
    st.tuples(st.just("hostile"), st.integers(-999, 999), st.sampled_from(sorted(HOSTILE_HEADS))),
)


def stream_request(spec, write_key: str):
    """(bytes, status, closes) of one request of a stream, built from its spec."""
    kind = spec[0]
    if kind == "nope":
        return b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n", 404, False
    key = write_key if kind != "update" or spec[2] else "WRONGKEY00000000"
    body = f"api_key={key}&field1={spec[1]}&created_at=0".encode()
    n = b"%d" % len(body)
    if kind == "update":
        length = spec[3].replace(b"{n}", n)
        lines = [b"Content-Length: " + length] + spec[4]
        head = b"".join(line.replace(b"{length}", length) + b"\r\n" for line in lines)
        status, closes = (200 if spec[2] else 401), False
    elif kind == "update-close":
        head, status, closes = b"Content-Length: %s\r\nConnection: close\r\n" % n, 200, True
    else:
        head, status = HOSTILE_HEADS[spec[2]]
        head, closes = head.replace(b"{n}", n), True
    return b"POST /update HTTP/1.1\r\n" + head + b"\r\n" + body, status, closes


class TestRawStreams:
    """Raw request streams, cut at random points, against a live server."""

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        kept=st.lists(KEPT_ALIVE, max_size=3),
        last=LAST,
        lf_only=st.booleans(),
        cuts=st.lists(st.integers(1, 10_000), max_size=4),
    )
    @example(
        kept=[("update", 5, True, b"0{n}", [])], last=("hostile", 7, "bare-cr"), lf_only=False, cuts=[30]
    )
    @example(
        kept=[("nope",), ("update", 6, True, b"{n}", [])], last=None, lf_only=True, cuts=[40, 90]
    )
    def test_every_answer_follows_the_rules(self, sim_server, kept, last, lf_only, cuts):
        ch = sim_server.store.create_channel("stream", ["n"], min_post_interval_s=0.0)
        requests_ = [stream_request(spec, ch.write_key) for spec in kept + [last] if spec]
        stream = b"".join(request for request, _, _ in requests_)
        if lf_only:
            stream = stream.replace(b"\r\n", b"\n")
        cut_at = sorted({cut % len(stream) for cut in cuts if stream} - {0}) + [len(stream)]
        with socket.create_connection(sim_server.server_address[:2], timeout=5) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                start = 0
                for end in cut_at:
                    sock.sendall(stream[start:end])
                    start = end
                    time.sleep(0.002)  # so the server reads each piece on its own
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # refused and closed before the rest was sent
            reply = read_until_closed(sock)  # a 5 s timeout if the server kept it open

        answers = oracle_answers(reply)
        assert [status for status, _, _ in answers] == [status for _, status, _ in requests_]
        closing = ["close" if closes else None for _, _, closes in requests_]
        assert [connection for _, connection, _ in answers] == closing
        # A 200 on /update stored exactly one new entry; no other answer stored any.
        stored = [int(body) for status, _, body in answers if status == 200]
        feed = sim_server.store.read_feed(ch.channel_id, ch.read_key, 100)
        assert [entry.entry_id for entry in feed] == stored == list(range(1, len(stored) + 1))
        deadline = time.monotonic() + 5
        while sim_server._handler_slots._value < server_module.MAX_HANDLERS:
            assert time.monotonic() < deadline, "a handler slot was never freed"
            time.sleep(0.001)


FORM_TEXT = st.text(alphabet="ab=&+%2fzC3A9é ;", max_size=30)


class TestParseForm:
    @given(FORM_TEXT)
    @example("&&")
    @example("a")
    @example("=v")
    @example("a=")
    @example("a=%zz")
    @example("a=%C3%A9")
    @example("a=+")
    @example("a=1&a=2&b=3&a=4")
    @example("a=b=c")
    @example("a%3Db=%26&+=%2B")
    @example("k=%ff%C3")
    def test_as_parse_qs(self, text):
        assert server_module._parse_form(text) == parse_qs(text)

    def test_an_update_body(self):
        body = "api_key=ABC&field1=12.5&field2=20&field3=hello+world&created_at=3.5"
        assert server_module._parse_form(body) == {
            "api_key": ["ABC"],
            "field1": ["12.5"],
            "field2": ["20"],
            "field3": ["hello world"],
            "created_at": ["3.5"],
        }
