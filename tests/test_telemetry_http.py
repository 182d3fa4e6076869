from __future__ import annotations

import json
import socket

import pytest
import requests

from showersim.telemetry.store import TelemetryStore


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


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "head, body, status",
        [
            (b"Content-Length: abc\r\n", b"", b"400"),
            (b"Content-Length: -5\r\n", b"api_key=x", b"400"),
            (b"Content-Length: 11\r\n", b"api_key=\xff\xfe\xfd", b"400"),
            (b"Content-Length: 10000000\r\n", b"api_key=x", b"413"),
        ],
        ids=["non-integer-length", "negative-length", "non-utf8-body", "oversized-body"],
    )
    def test_answered_then_closed(self, sim_server, head, body, status):
        request = b"POST /update HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body
        reply = raw_exchange(sim_server, request)
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 " + status)
        assert b"Connection: close" in rest
        assert requests.get(sim_server.url + "/nope", timeout=5).status_code == 404
