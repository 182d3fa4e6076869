from __future__ import annotations

import http.client
import re
import socket
import struct
import threading
import time
from contextlib import contextmanager
from urllib.parse import urlencode

import pytest

from showersim.agent import (
    DEFAULT_FIELD_MAP,
    AgentConfig,
    DeviceAgent,
    StoreClient,
    TelemetryClient,
    render_status,
)
from showersim.telemetry.server import TelemetryRequestHandler
from showersim.telemetry.store import MAX_FIELDS, TelemetryError, TelemetryStore
from showersim.controller import Occupancy, WaterMode
from showersim.safety import AlertKind, SafetyConfig
from showersim.sensors import EnvironmentState, PersonPose, default_ultrasonic_array

from conftest import GOLDEN_DIR


def make_agent(**kwargs) -> DeviceAgent:
    cfg = kwargs.pop("cfg", None) or AgentConfig()
    return DeviceAgent(cfg, **kwargs)


def env_absent(temp=25.0, humidity=15.0):
    return EnvironmentState(ambient_temp=temp, ambient_humidity=humidity)


def env_standing(distance, temp=23.0, humidity=15.0):
    return EnvironmentState(
        ambient_temp=temp,
        ambient_humidity=humidity,
        person_pose=PersonPose.STANDING,
        person_distance=distance,
    )


class TestRenderStatus:
    def test_empty_block_matches_golden_bytes(self):
        block = render_status(144, 25, 15.0, "200 OK", WaterMode.OFF)
        assert block == (GOLDEN_DIR / "status_block_empty.txt").read_text()

    def test_cold_block_matches_golden_bytes(self):
        block = render_status(16, 23, 15.0, "200 OK", WaterMode.COLD)
        assert block == (GOLDEN_DIR / "status_block_cold.txt").read_text()

    def test_hot_block_wording(self):
        block = render_status(50, 21, 15.0, "200 OK", WaterMode.HOT)
        assert block.splitlines()[-1] == "Turn on hot shower"

    def test_normal_block_wording(self):
        block = render_status(30, 22, 15.0, "200 OK", WaterMode.NORMAL)
        assert block.splitlines()[-1] == "Turn on normal temperature shower"


class TestOfflineTicks:
    """Agent behavior with no reachable server (client=None or dead URL)."""

    def test_absent_room_payload(self):
        agent = make_agent()
        result = agent.tick(env_absent(), 0.0)
        assert list(agent.queue) == [(0.0, {1: 600, 2: 25, 3: 15, 4: 0, 5: 0})]
        assert result.entry_id == 0

    def test_cold_mode_payload(self):
        agent = make_agent()
        result = agent.tick(env_standing(16), 0.0)
        _, payload = agent.queue[-1]
        assert payload[4] == 2  # cold code
        assert payload[1] == 20  # 16 cm sits below the ranger's floor
        assert result.occupancy is Occupancy.OCCUPIED

    def test_console_only_on_display_boundaries(self):
        agent = make_agent()
        blocks = []
        for k in range(61):
            result = agent.tick(env_absent(), float(k))
            if result.console is not None:
                blocks.append(result.time_s)
        assert blocks == [0.0, 30.0, 60.0]  # floor(60/30)+1 boundaries

    def test_one_attempt_per_tick(self):
        agent = make_agent()
        for k in range(10):
            agent.tick(env_absent(), float(k))
        assert agent.posts_attempted == 10

    def test_humidity_is_reported_and_takes_no_control_action(self):
        agent = make_agent()
        dry = agent.tick(env_standing(30.0, humidity=5.0), 0.0)
        humid = agent.tick(env_standing(30.0, humidity=95.0), 1.0)
        assert (dry.humidity_pct, humid.humidity_pct) == (5, 95)
        assert dry.mode is humid.mode is not WaterMode.OFF  # no control action either way
        assert not [name for name in vars(agent) if "humid" in name]  # and no state kept

    def test_queue_bound_drop_oldest(self):
        client = TelemetryClient("http://127.0.0.1:9/")  # closed port
        agent = DeviceAgent(AgentConfig(queue_limit=5), client=client)
        try:
            for k in range(12):
                agent.tick(env_absent(), float(k))
        finally:
            client.close()
        assert len(agent.queue) == 5
        assert agent.posts_dropped == 7
        assert agent.last_status == "unreachable"
        # oldest were dropped first: the queue holds the newest payload times
        assert [t for t, _ in agent.queue] == [7.0, 8.0, 9.0, 10.0, 11.0]


class TestPostedTicks:
    def test_two_ticks_one_second_apart_both_accepted(self, sim_server):
        ch = sim_server.store.create_channel(
            "shower",
            ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"],
        )
        client = TelemetryClient(sim_server.url)
        agent = DeviceAgent(AgentConfig(write_key=ch.write_key), client=client)
        try:
            first = agent.tick(env_absent(), 0.0)
            first_status = agent.last_status
            second = agent.tick(env_absent(), 1.0)
        finally:
            client.close()
        assert (first.entry_id, second.entry_id) == (1, 2)
        assert agent.posts_accepted == 2
        assert first_status == "200 OK"

    def test_backlog_drains_in_fifo_order(self, sim_server):
        ch = sim_server.store.create_channel(
            "shower",
            ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"],
            min_post_interval_s=0.0,
        )
        agent = DeviceAgent(AgentConfig(write_key=ch.write_key))
        agent.client = TelemetryClient("http://127.0.0.1:9/")  # outage
        for k in range(3):
            agent.tick(env_absent(), float(k))
        assert len(agent.queue) == 3
        agent.client = TelemetryClient(sim_server.url)  # server back up
        try:
            for k in range(3, 9):
                agent.tick(env_absent(), float(k))
        finally:
            agent.client.close()
        assert len(agent.queue) <= 3
        feed = sim_server.store.read_feed(ch.channel_id, ch.read_key, 100)
        created = [e.created_at for e in feed]
        assert created == sorted(created)
        assert created[0] == 0.0  # the outage payloads arrived, oldest first


class RecordingClient:
    """Accepts every post, keeping its (values, created_at) in order."""

    def __init__(self):
        self.posts = []

    def post_update(self, write_key, values, created_at):
        self.posts.append((values, created_at))
        return "200 OK", len(self.posts)


class FlakyStoreClient(StoreClient):
    """A store client whose transport is down for the first `outage` posts."""

    def __init__(self, store, outage):
        super().__init__(store)
        self.outage = outage

    def post_update(self, write_key, values, created_at):
        if self.outage > 0:
            self.outage -= 1
            return "unreachable", None
        return super().post_update(write_key, values, created_at)


class TestBacklog:
    def make(self, outage, tick_s=1.0):
        store = TelemetryStore()  # the channel keeps the default 1 s post interval
        ch = store.create_channel(
            "shower",
            ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"],
        )
        cfg = AgentConfig(tick_s=tick_s, display_every_s=30.0, write_key=ch.write_key)
        return DeviceAgent(cfg, client=FlakyStoreClient(store, outage)), store, ch

    def test_queue_drains_on_the_first_good_tick(self):
        agent, store, ch = self.make(outage=3)
        rows, statuses = [], []
        for k in range(4):
            rows.append(agent.tick(env_absent(), float(k)))
            statuses.append(agent.last_status)
        assert [r.entry_id for r in rows] == [0, 0, 0, 4]
        assert statuses == ["unreachable"] * 3 + ["200 OK"]
        assert list(agent.queue) == []
        rows += [agent.tick(env_absent(), float(k)) for k in range(4, 40)]
        assert [r.entry_id for r in rows[3:]] == list(range(4, 41))
        feed = store.read_feed(ch.channel_id, ch.read_key, 100)
        assert [e.created_at for e in feed] == [float(k) for k in range(40)]
        assert agent.posts_accepted == 40

    def test_every_attempt_is_accounted_for(self):
        # an outage, then half-second ticks against a 1 s post interval
        agent, _, _ = self.make(outage=4, tick_s=0.5)
        for k in range(30):
            agent.tick(env_absent(), k * 0.5)
            settled = agent.posts_accepted + agent.posts_rejected + agent.posts_dropped
            assert agent.posts_attempted == k + 1 == settled + len(agent.queue)
        assert agent.posts_rejected > 0 and not agent.queue


class TestRefusedPosts:
    """A 4xx answer is final; only an unreachable server or a 5xx keeps a post queued."""

    FIVE_FIELDS = ["distance_cm", "temperature_c", "humidity_pct", "mode_code", "alert_code"]

    @pytest.mark.parametrize(
        "fields, key",
        [(FIVE_FIELDS[:3], "right"), (FIVE_FIELDS, "wrong")],
        ids=["3-field-channel", "wrong-write-key"],
    )
    def test_refused_posts_do_not_block_the_queue(self, fields, key):
        store = TelemetryStore()
        ch = store.create_channel("shower", fields)
        write_key = ch.write_key if key == "right" else "WRONGKEY00000000"
        cfg = AgentConfig(write_key=write_key, queue_limit=5)
        agent = DeviceAgent(cfg, client=StoreClient(store))
        for k in range(8):
            result = agent.tick(env_absent(), float(k))
            assert result.entry_id == 0
            assert agent.last_status in {"400 Bad Request", "401 Unauthorized"}
            settled = (
                agent.posts_accepted
                + agent.posts_rejected
                + agent.posts_refused
                + agent.posts_dropped
            )
            assert agent.posts_attempted == k + 1 == settled + len(agent.queue)
        assert agent.posts_refused == 8
        assert (agent.posts_accepted, agent.posts_dropped, len(agent.queue)) == (0, 0, 0)

    def test_refused_post_does_not_hold_up_the_next(self):
        class RefuseFirst(StoreClient):
            refused = False

            def post_update(self, write_key, values, created_at):
                if not self.refused:
                    self.refused = True
                    return "404 Not Found", None
                return super().post_update(write_key, values, created_at)

        store = TelemetryStore()
        ch = store.create_channel("shower", self.FIVE_FIELDS)
        agent = DeviceAgent(AgentConfig(write_key=ch.write_key), client=RefuseFirst(store))
        assert [agent.tick(env_absent(), float(k)).entry_id for k in range(3)] == [0, 1, 2]
        assert (agent.posts_refused, agent.posts_accepted) == (1, 2)

    def test_closed_store_keeps_posts_queued(self):
        store = TelemetryStore()
        ch = store.create_channel("shower", self.FIVE_FIELDS)
        store.close()
        agent = DeviceAgent(AgentConfig(write_key=ch.write_key), client=StoreClient(store))
        for k in range(3):
            assert agent.tick(env_absent(), float(k)).entry_id == 0
            assert agent.last_status == "503 Service Unavailable"
        assert (agent.posts_refused, len(agent.queue)) == (0, 3)


def count_connections(server):
    """Count the connections the server accepts from now on."""
    accepted = []
    original = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        return original(request, client_address)

    server.process_request = counting
    return accepted


class TestWaterLockout:
    def test_lockout_lasts_its_episode_and_the_next_one_runs_hot(self):
        agent = make_agent(safety_cfg=SafetyConfig(prolonged_hot_s=5))
        # 20 C outdoors selects hot water; the patron leaves at 15 s and is back at 18 s.
        envs = [env_standing(30, temp=20.0)] * 15 + [env_absent(temp=20.0)] * 3
        envs += [env_standing(30, temp=20.0)] * 13
        results = [agent.tick(env, float(k)) for k, env in enumerate(envs)]
        modes = "".join("H" if r.mode is WaterMode.HOT else "-" for r in results)
        assert modes == "HHHHH" + "-" * 13 + "HHHHH" + "-" * 8
        assert [r.occupancy for r in results] == [
            Occupancy.OCCUPIED if env.person_pose is PersonPose.STANDING else Occupancy.EMPTY
            for env in envs
        ]
        hot_alerts = [
            alert.timestamp
            for r in results
            for alert in r.alerts
            if alert.kind is AlertKind.PROLONGED_HOT
        ]
        assert hot_alerts == [5.0, 23.0]


class TestTelemetryClient:
    def test_created_at_keeps_full_precision(self, sim_server):
        ch = sim_server.store.create_channel("precise", ["n"])
        client = TelemetryClient(sim_server.url)
        try:
            assert client.post_update(ch.write_key, {1: 1}, 1000001.0) == ("200 OK", 1)
            assert client.post_update(ch.write_key, {1: 2}, 1000002.0) == ("200 OK", 2)
        finally:
            client.close()
        feed = sim_server.store.read_feed(ch.channel_id, ch.read_key, 10)
        assert [e.created_at for e in feed] == [1000001.0, 1000002.0]

    def test_posts_share_one_connection(self, sim_server):
        ch = sim_server.store.create_channel("keepalive", ["n"], min_post_interval_s=0.0)
        accepted = count_connections(sim_server)
        client = TelemetryClient(sim_server.url)
        try:
            ids = [client.post_update(ch.write_key, {1: k}, float(k))[1] for k in range(10)]
        finally:
            client.close()
        assert ids == list(range(1, 11))
        assert len(accepted) == 1

    def test_reconnects_once_after_server_drops_idle_connection(self, sim_server, monkeypatch):
        monkeypatch.setattr(TelemetryRequestHandler, "timeout", 0.2)  # server closes idle sockets
        ch = sim_server.store.create_channel("idle", ["n"])
        accepted = count_connections(sim_server)
        client = TelemetryClient(sim_server.url)
        try:
            assert client.post_update(ch.write_key, {1: 1}, 0.0) == ("200 OK", 1)
            time.sleep(0.6)
            assert client.post_update(ch.write_key, {1: 2}, 1.0) == ("200 OK", 2)
        finally:
            client.close()
        assert len(sim_server.store.read_feed(ch.channel_id, ch.read_key, 10)) == 2
        assert len(accepted) == 2

    def test_reconnects_once_after_server_resets_idle_connection(self, sim_server, monkeypatch):
        monkeypatch.setattr(TelemetryRequestHandler, "timeout", 0.2)  # server closes idle sockets

        def reset(request):  # close with RST instead of FIN
            request.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            request.close()

        monkeypatch.setattr(sim_server, "shutdown_request", reset)
        ch = sim_server.store.create_channel("reset", ["n"])
        accepted = count_connections(sim_server)
        client = TelemetryClient(sim_server.url)
        try:
            assert client.post_update(ch.write_key, {1: 1}, 0.0) == ("200 OK", 1)
            time.sleep(0.6)
            assert client.post_update(ch.write_key, {1: 2}, 1.0) == ("200 OK", 2)
        finally:
            client.close()
        feed = sim_server.store.read_feed(ch.channel_id, ch.read_key, 10)
        assert [(e.entry_id, e.values) for e in feed] == [(1, {1: 1}), (2, {1: 2})]
        assert len(accepted) == 2

    def test_store_client_answers_like_the_http_api(self, sim_server):
        ch = sim_server.store.create_channel("twins", ["a", "b", "c"], min_post_interval_s=0.0)
        http_client = TelemetryClient(sim_server.url)
        direct = StoreClient(sim_server.store)
        cases = [
            ("WRONGKEY00000000", {1: 1}, 0.0),  # 401
            (ch.write_key, {}, 0.0),  # no values: 400
            (ch.write_key, {4: 1}, 0.0),  # position outside the schema: 400
            (ch.write_key, {1: float("nan")}, 0.0),
            (ch.write_key, {1: 1}, float("inf")),
        ]
        # Every store error carries a status line both transports can name.
        for error in TelemetryError.__subclasses__():
            assert error.status in http.client.responses, error
        try:
            for key, values, created_at in cases:
                answer = direct.post_update(key, values, created_at)
                assert answer == http_client.post_update(key, values, created_at)
                assert answer[1] is None
            assert direct.post_update(ch.write_key, {1: 1}, 0.0) == ("200 OK", 1)
            assert http_client.post_update(ch.write_key, {1: 2}, 1.0) == ("200 OK", 2)
            sim_server.store.close()
            answer = direct.post_update(ch.write_key, {1: 3}, 2.0)
            assert answer == http_client.post_update(ch.write_key, {1: 3}, 2.0)
            assert answer[0].startswith("503 ")
        finally:
            http_client.close()
        assert [
            direct.post_update("WRONGKEY00000000", {1: 1}, 0.0)[0],
            direct.post_update(ch.write_key, {4: 1}, 0.0)[0],
        ] == ["401 Unauthorized", "400 Bad Request"]

    def test_both_clients_answer_503_after_close(self, sim_server):
        ch = sim_server.store.create_channel("closing", ["a"])
        http_client = TelemetryClient(sim_server.url)
        direct = StoreClient(sim_server.store)
        sim_server.store.close()
        try:
            answer = direct.post_update(ch.write_key, {1: 1}, 0.0)
            assert answer == http_client.post_update(ch.write_key, {1: 1}, 0.0)
            assert answer == ("503 Service Unavailable", None)
        finally:
            http_client.close()


class CountedSends:
    """A socket that records the data of each sendall call."""

    def __init__(self, sock, sends: list):
        self._sock = sock
        self._sends = sends

    def sendall(self, data) -> None:
        self._sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def read_request(conn) -> bool:
    """Read one whole request (head and Content-Length body); False at end of stream."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return False
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"(?im)^content-length: *(\d+)", head).group(1))
    while len(body) < length:
        body += conn.recv(65536)
    return True


@contextmanager
def canned_server(*connections):
    """A loopback server that serves its connections one after the other.

    Each item of `connections` is the list of answers for one connection, sent
    one per request (an empty answer sends nothing); the connection is closed
    after its last answer. Yields the server's URL, and on leaving checks
    that the client opened exactly the connections listed.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    accepted = []

    def serve():
        try:
            for answers in connections:
                conn, _ = listener.accept()
                accepted.append(conn)
                with conn:
                    for answer in answers:
                        if not read_request(conn):
                            break
                        conn.sendall(answer)
        except OSError:
            pass  # the test has failed or ended; its assertions tell why

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        thread.join(timeout=10)
        listener.setblocking(False)
        try:  # a connection the client opened beyond those listed waits here
            listener.accept()[0].close()
            accepted.append(None)
        except BlockingIOError:
            pass
        listener.close()
    assert not thread.is_alive()
    assert len(accepted) == len(connections), "the client opened another number of connections"


class TestTelemetryClientWire:
    def test_each_post_leaves_in_one_write(self, sim_server, monkeypatch):
        ch = sim_server.store.create_channel("writes", ["n", "label"], min_post_interval_s=0.0)
        sends = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection", lambda *a, **kw: CountedSends(connect(*a, **kw), sends)
        )
        client = TelemetryClient(sim_server.url)
        try:
            answers = [client.post_update(ch.write_key, {1: k, 2: "é" * 40}, float(k)) for k in range(5)]
        finally:
            client.close()
        assert answers == [("200 OK", k) for k in range(1, 6)]
        assert len(sends) == 5
        assert all(data.startswith(b"POST /update HTTP/1.1\r\n") for data in sends)

    def test_the_body_is_the_form_urlencode_gives(self, monkeypatch):
        values = {1: "a b&c=d+é~", 2: 1e16, 3: -7, 4: 0.5, 5: True}
        sends = []
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection", lambda *a, **kw: CountedSends(connect(*a, **kw), sends)
        )
        with canned_server([b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n1"]) as url:
            client = TelemetryClient(url)
            try:
                assert client.post_update("K/Y", values, 1e16) == ("200 OK", 1)
            finally:
                client.close()
        form = {"api_key": "K/Y", "created_at": "1e+16"} | {f"field{p}": v for p, v in values.items()}
        head, _, body = sends[0].partition(b"\r\n\r\n")
        assert body == urlencode(form).encode("ascii")
        assert b"\r\nContent-Length: %d\r\n" % len(body) in head + b"\r\n"

    def test_a_closing_answer_is_followed_by_a_new_connection(self, sim_server):
        ch = sim_server.store.create_channel("big", ["n"])
        accepted = count_connections(sim_server)
        client = TelemetryClient(sim_server.url)
        try:
            status, entry_id = client.post_update(ch.write_key, {1: "x" * 70_000}, 0.0)
            assert (status[:4], entry_id) == ("413 ", None)  # answered with Connection: close
            assert client.post_update(ch.write_key, {1: 8}, 0.0) == ("200 OK", 1)
        finally:
            client.close()
        assert len(accepted) == 2

    @pytest.mark.parametrize(
        "answer",
        [
            b"HTTP/1.1 2OO OK\r\nContent-Length: 1\r\n\r\n1",
            b"garbage\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n1",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n1",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000000\r\n\r\n1",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 3\r\n\r\n123",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\n1",
            b"HTTP/1.1 200 OK\r\nX-Note\r\nContent-Length: 1\r\n\r\n1",
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n",
            b"HTTP/1.1 200 OK",
        ],
        ids=["garbled-status", "no-status-line", "no-content-length", "body-cut-short",
             "huge-length", "differing-lengths", "chunked-beside-length", "no-colon",
             "head-cut-by-end-of-stream", "status-line-cut"],
    )
    def test_an_answer_it_cannot_read_is_unreachable(self, answer):
        with canned_server([answer]) as url:
            client = TelemetryClient(url)
            try:
                assert client.post_update("KEY", {1: 1}, 0.0) == ("unreachable", None)
            finally:
                client.close()

    def test_a_200_whose_body_is_not_an_int_names_no_entry(self):
        with canned_server([b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"]) as url:
            client = TelemetryClient(url)
            try:
                assert client.post_update("KEY", {1: 1}, 0.0) == ("200 OK", None)
            finally:
                client.close()

    def test_a_fresh_connection_closed_before_any_answer_byte_is_unreachable(self):
        with canned_server([b""]) as url:  # reads the post, closes without answering
            client = TelemetryClient(url)
            try:
                assert client.post_update("KEY", {1: 1}, 0.0) == ("unreachable", None)
            finally:
                client.close()

    def test_a_reused_connection_gets_one_retry_only(self):
        ok = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n1"
        # The first connection closes after its answer; the retry's closes unanswered.
        with canned_server([ok], [b""]) as url:
            client = TelemetryClient(url)
            try:
                assert client.post_update("KEY", {1: 1}, 0.0) == ("200 OK", 1)
                assert client.post_update("KEY", {1: 2}, 1.0) == ("unreachable", None)
            finally:
                client.close()

    def test_header_names_match_in_any_case(self):
        closing = b"HTTP/1.1 200 OK\r\ncontent-LENGTH: 1\r\nCONNECTION: close\r\n\r\n7"
        reused = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"
        fresh = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n8"
        with canned_server([closing, reused], [fresh]) as url:
            client = TelemetryClient(url)
            try:
                answers = [client.post_update("KEY", {1: k}, float(k)) for k in range(2)]
            finally:
                client.close()
        # The second post went out on a new connection: the first was closed.
        assert answers == [("200 OK", 7), ("200 OK", 8)]


class TestAgentConfig:
    def test_display_must_be_multiple_of_tick(self):
        with pytest.raises(ValueError):
            AgentConfig(tick_s=1.0, display_every_s=45.5)

    def test_tick_positive(self):
        with pytest.raises(ValueError):
            AgentConfig(tick_s=0)

    def test_queue_limit_at_least_one(self):
        with pytest.raises(ValueError, match="queue_limit must be >= 1"):
            AgentConfig(queue_limit=0)

    def test_the_agent_needs_three_rangers(self):
        with pytest.raises(ValueError, match="exactly three ultrasonic rangers"):
            DeviceAgent(AgentConfig(), sensor_cfgs=default_ultrasonic_array()[:1])

    def test_field_positions_bounded(self):
        assert all(1 <= pos <= MAX_FIELDS for pos in AgentConfig().field_map)

    def test_quantities_unique(self):
        quantities = list(AgentConfig().field_map.values())
        assert len(set(quantities)) == len(quantities)

    def test_fields_flow_through(self):
        client = RecordingClient()
        agent = DeviceAgent(AgentConfig(), client=client)
        assert agent.tick(env_standing(30), 0.0).entry_id == 1
        assert client.posts == [({1: 30, 2: 23, 3: 15, 4: 2, 5: 0}, 0.0)]
        assert list(client.posts[0][0]) == sorted(DEFAULT_FIELD_MAP)

    def test_the_field_map_is_fixed(self):
        cfg = AgentConfig()
        assert cfg.field_map == DEFAULT_FIELD_MAP
        with pytest.raises(TypeError):
            cfg.field_map[6] = "pressure_kpa"
        with pytest.raises(TypeError):
            AgentConfig(field_map={1: "distance_cm"})
