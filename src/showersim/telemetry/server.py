"""HTTP front end for the telemetry store.

A request refused for its request line, its headers or the framing of its
body is answered in plain text with `Connection: close`, and the connection
is closed, so no byte of a body is ever read as the next request. The header
block and the body's length are read by the rules in `wire`, which the device
agent's client reads answers by too. A route's store error is answered with
the error's `status` and text, and the connection stays open. The Server
header still reads `BaseHTTP/0.6 Python/<version>`, as http.server sent it,
so answers stay the bytes that clients already parse.

At most MAX_HANDLERS connections are served at once, each on its own thread.
One more is answered 503 by the accepting thread and closed, so slow clients
cannot pile up threads.

Per channel the server keeps the rendered JSON text of the newest rows of the
last `feeds.json` page it served, keyed by entry id, and the text of the
page's head, the channel's id, name and field names, rendered on its first
read. The text cannot go stale: an entry never changes once appended, a
channel never changes once created, and a store never reuses an entry or
channel id. Each page's rows are published as a new dict that is never
changed afterwards, so handler threads share them without a lock. A row is
rendered from the store's JSON_TEXT, as json.dumps would write it.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from itertools import islice
from typing import Optional
from urllib.parse import unquote_plus, urlparse

from .store import (
    JSON_TEXT,
    MAX_FIELDS,
    AuthenticationError,
    TelemetryError,
    TelemetryStore,
    ValidationError,
)
from .wire import MAX_BODY_BYTES, MAX_LINE_BYTES, Refusal, body_length, read_headers

REQUEST_TIMEOUT_S = 30.0  # longest wait for a client's bytes; an answer's write gets as long
MAX_HANDLERS = 64  # connections served at once; one more is answered 503 and closed
FEED_CACHE_ROWS = 1_000  # newest rendered rows kept per channel; a longer page renders in full

_FIELD_POSITIONS = {f"field{pos}": pos for pos in range(1, MAX_FIELDS + 1)}  # in position order
_ROW_KEYS = tuple(f', "field{pos}": ' for pos in range(MAX_FIELDS + 1))  # feed row key texts
_FEEDS_RE = re.compile(r"^/channels/(\d+)/feeds\.json$")
_LAST_RE = re.compile(r"^/channels/(\d+)/fields/(\d+)/last\.txt$")
_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")  # as http.server: HTTP/01.1 is 1.1

_PHRASES = {status.value: status.phrase for status in HTTPStatus}
# The Server header http.server sent, kept so that answers stay byte for byte the same.
_SERVER_TEXT = f"BaseHTTP/0.6 Python/{sys.version.split()[0]}"
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(second: int) -> str:
    """The Date header's text for a Unix second, e.g. `Sun, 09 Sep 2001 01:46:40 GMT`."""
    t = time.gmtime(second)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def _parse_form(text: str) -> dict:
    """{name: [value, ...]} of a form or query string, as `parse_qs(text)` gives it.

    An item with no value is dropped. `+` and `%XX` are decoded only when the
    text has them, by unquote_plus with errors="replace".
    """
    form: dict = {}
    decode = "%" in text or "+" in text
    for item in text.split("&"):
        name, _, value = item.partition("=")
        if value:
            if decode:
                name, value = unquote_plus(name), unquote_plus(value)
            form.setdefault(name, []).append(value)
    return form


def _path_numbers(match) -> Optional[list]:
    """The ints a route's path names, or None if one is too long for int()."""
    try:
        return [int(number) for number in match.groups()]
    except ValueError:  # over the interpreter's int digit limit
        return None


def _coerce(text: str):
    """Numeric-or-text: prefer int, then float, else keep the string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _render_row(entry) -> str:
    """The text json.dumps gives for the row
    {"created_at": ..., "entry_id": ..., "field1": ..., ...} of an entry."""
    text = JSON_TEXT
    fields = "".join(  # read_feed gives the values in position order
        [f"{_ROW_KEYS[pos]}{text[type(value)](value)}" for pos, value in entry.values.items()]
    )
    return f'{{"created_at": {entry.created_at!r}, "entry_id": {entry.entry_id}{fields}}}'


def _page_head(channel) -> str:
    """A feeds.json page up to its first row: the text json.dumps gives for
    {"channel": {"id": ..., "name": ..., "field1": ..., ...}, "feeds": [...]}."""
    channel_obj = {"id": channel.channel_id, "name": channel.name}
    for position, field_name in enumerate(channel.field_names, start=1):
        channel_obj[f"field{position}"] = field_name
    return f'{{"channel": {json.dumps(channel_obj)}, "feeds": ['


class TelemetryRequestHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # small request/response pairs; avoid delayed-ACK stalls
    wbufsize = 64 * 1024  # an answer up to this size leaves in one write
    timeout = REQUEST_TIMEOUT_S  # a stalled client costs a thread only this long

    def handle(self) -> None:
        """Serve requests on the connection until one of them closes it. A
        read or write that times out closes it unanswered."""
        try:
            self.handle_one_request()
            while not self.close_connection:
                self.handle_one_request()
        except TimeoutError:
            pass

    def handle_one_request(self) -> None:
        """Read, route and answer one request: the one place that answers a
        refusal or a route's store error."""
        self.close_connection = True  # the headers may keep it open; a refusal never does
        self.command = None  # a refused request line is answered with its body, even for HEAD
        try:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise Refusal(414, _PHRASES[414])
            requestline = str(line, "iso-8859-1").rstrip("\r\n")
            words = requestline.split()
            if not words:
                return  # an empty read or a blank line: closed unanswered
            version = (0, 9)  # a request line without a version word is HTTP/0.9
            if len(words) >= 3:
                match = _VERSION_RE.fullmatch(words[-1])
                if match is None:
                    raise Refusal(400, f"Bad request version ({words[-1]!r})")
                version = (int(match[1]), int(match[2]))
                if version >= (2, 0):
                    raise Refusal(505, f"Invalid HTTP version ({words[-1][5:]})")
            if not 2 <= len(words) <= 3:
                raise Refusal(400, f"Bad request syntax ({requestline!r})")
            self.command, self.path = words[:2]
            if len(words) == 2 and self.command != "GET":
                raise Refusal(400, f"Bad HTTP/0.9 request type ({self.command!r})")
            if self.path.startswith("//"):
                self.path = "/" + self.path.lstrip("/")  # not read as a scheme-relative URL
            self.headers = read_headers(self.rfile)
            if version < (1, 0):  # http.server would answer with a bare body, no status line
                raise Refusal(400, "request line must end with HTTP/1.0 or HTTP/1.1")
            connection = self.headers.get("connection", "").lower()
            self.close_connection = connection == "close" or (
                version < (1, 1) and connection != "keep-alive"
            )
            self.expects_100 = (
                version >= (1, 1) and self.headers.get("expect", "").lower() == "100-continue"
            )
            route = getattr(self, "do_" + self.command, None)
            if route is None:
                raise Refusal(501, f"Unsupported method ({self.command!r})")
            route()
        except (Refusal, TelemetryError) as exc:
            if isinstance(exc, Refusal):
                self.close_connection = True
            self._send_text(exc.status, str(exc))
        self.wfile.flush()

    def date_time_string(self) -> str:
        """The Date header's text, formatted once per second."""
        second = int(time.time())
        cached_second, text = self.server.date_header
        if second != cached_second:
            text = _http_date(second)
            self.server.date_header = (second, text)  # one tuple: a reader sees both or neither
        return text

    # -- plumbing ----------------------------------------------------------

    def _params(self):
        """(path, params) of the request, its body read whole on every method.

        Only a POST's body carries params. A client that expects a `100
        Continue` gets one only once the body's framing has been accepted and
        there is a body to read.
        """
        url = urlparse(self.path)
        params = _parse_form(url.query)
        length = body_length(self.headers)
        if length and self.expects_100:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.wfile.flush()  # the client sends its body only after this interim answer
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise Refusal(408, f"request body not received within {self.timeout:g} s") from None
        if len(body) < length:
            raise Refusal(400, "request body ended before its Content-Length")
        if self.command == "POST":
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                raise Refusal(400, "request body must be UTF-8") from None
            for key, values in _parse_form(text).items():
                params.setdefault(key, []).extend(values)
        return url.path, params

    @staticmethod
    def _first(params, key, default=None):
        values = params.get(key)
        return values[0] if values else default

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        """Write the answer, status line to body, in one write."""
        connection = "Connection: close\r\n" if self.close_connection else ""
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\n"
            f"Server: {_SERVER_TEXT}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n{connection}\r\n"
        ).encode("latin-1")
        # Only an error answers HEAD, and without a body.
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; charset=utf-8")

    # -- routes --------------------------------------------------------------

    def do_POST(self):
        path, params = self._params()
        if path == "/update":
            self._post_update(params)
        elif path == "/channels":
            self._post_channels(params)
        else:
            self._send_text(404, "not found")

    def do_GET(self):
        path, params = self._params()
        for pattern, route in ((_FEEDS_RE, self._get_feeds), (_LAST_RE, self._get_last)):
            match = pattern.match(path)
            numbers = match and _path_numbers(match)
            if numbers:
                route(*numbers, params)
                return
        self._send_text(404, "not found")

    def _post_update(self, params) -> None:
        api_key = self._first(params, "api_key")
        if api_key is None:
            raise AuthenticationError("invalid key")
        for key in params:
            if key.startswith("field") and key not in _FIELD_POSITIONS:
                raise ValidationError(f"field position {key[5:]} outside the channel schema")
        values = {
            pos: _coerce(params[key][0]) for key, pos in _FIELD_POSITIONS.items() if key in params
        }
        if self.server.sim_time:
            raw_created = self._first(params, "created_at")
            if raw_created is None:
                raise ValidationError("created_at is required in simulation-time mode")
            try:
                created_at = float(raw_created)
            except ValueError:
                raise ValidationError("created_at must be numeric") from None
        else:
            created_at = None  # stamped by the store clock under the channel lock
        entry_id = self.server.store.write_update(api_key, values, created_at)
        self._send_text(200, str(entry_id))

    def _post_channels(self, params) -> None:
        # Only the options the request gives: the Channel holds the defaults and the checks.
        given = [key for key in ("visibility", "min_post_interval_s") if key in params]
        options = {key: _coerce(params[key][0]) for key in given}
        if "shared_with" in params:
            options["shared_with"] = params["shared_with"]
        name, fields = self._first(params, "name"), params.get("field", [])
        channel = self.server.store.create_channel(name, fields, **options)
        keys = {
            "channel_id": channel.channel_id,
            "write_key": channel.write_key,
            "read_key": channel.read_key,
        }
        self._send(200, json.dumps(keys).encode("utf-8"), "application/json")

    def _get_feeds(self, channel_id: int, params) -> None:
        read_key = self._first(params, "api_key", "")
        user = self._first(params, "user")
        raw_results = self._first(params, "results", "100")
        try:
            results = int(raw_results)
        except ValueError:
            raise ValidationError("results must be an integer") from None
        cached = self.server.feed_rows.get(channel_id, {})
        # Cached ids are consecutive: they reach back to the new page's first
        # row if there are `results` of them or they start at entry 1.
        after = next(reversed(cached)) if cached and (results <= len(cached) or 1 in cached) else 0
        entries = self.server.store.read_feed(channel_id, read_key, results, user=user, after=after)
        head = self.server.page_heads.get(channel_id)
        if head is None:  # a channel's id, name and field names never change
            head = _page_head(self.server.store.channel(channel_id))
            self.server.page_heads[channel_id] = head
        kept = min(results - len(entries), len(cached)) if after else 0
        rows = dict(islice(cached.items(), len(cached) - kept, None))
        for entry in entries:
            rows[entry.entry_id] = _render_row(entry)
        body = f'{head}{", ".join(rows.values())}]}}'
        if len(rows) > FEED_CACHE_ROWS:
            rows = dict(islice(rows.items(), len(rows) - FEED_CACHE_ROWS, None))
        self.server.feed_rows[channel_id] = rows
        self._send(200, body.encode("utf-8"), "application/json")

    def _get_last(self, channel_id: int, position: int, params) -> None:
        read_key = self._first(params, "api_key", "")
        user = self._first(params, "user")
        value = self.server.store.read_last_field(channel_id, read_key, position, user=user)
        if value is None:
            self._send_text(404, "")
        else:
            self._send_text(200, str(value))


class TelemetryHTTPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        store: TelemetryStore,
        host: str = "127.0.0.1",
        port: int = 0,
        sim_time: bool = False,
    ):
        super().__init__((host, port), TelemetryRequestHandler)
        self.store = store
        self.sim_time = sim_time
        self.feed_rows: dict = {}  # channel id -> {entry id: row JSON} of its last page
        self.page_heads: dict = {}  # channel id -> its feeds.json text before the first row
        self.date_header = (None, "")  # (whole second, Date header text) of the latest answer
        self._handler_slots = threading.BoundedSemaphore(MAX_HANDLERS)
        self._thread: Optional[threading.Thread] = None

    def process_request(self, request, client_address) -> None:
        """Serve the connection on a new thread, or refuse it when all MAX_HANDLERS are busy."""
        if not self._handler_slots.acquire(blocking=False):
            self._refuse_busy(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._handler_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._handler_slots.release()

    def _refuse_busy(self, request) -> None:
        """Answer 503 and close, without waiting on the client: a refusal is
        sent from the accepting thread."""
        body = f"server busy: {MAX_HANDLERS} connections are being served".encode("utf-8")
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            request.setblocking(False)  # a fresh socket's send buffer takes the answer whole
            request.sendall(head.encode("ascii") + body)
            # Read what has arrived, so the close sends FIN after the answer, not a reset.
            request.recv(MAX_BODY_BYTES)
        except OSError:
            pass
        self.shutdown_request(request)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "TelemetryHTTPServer":
        """Serve in a background thread (in-process mode)."""
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _port(text: str) -> int:
    if not (text.isdecimal() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"must be a TCP port, 0 to 65535: {text!r}")
    return int(text)


def main(argv=None) -> int:
    """Serve until SIGTERM or Ctrl-C; exit 2 with one stderr line when the
    store cannot be opened or the port cannot be bound."""
    parser = argparse.ArgumentParser(
        prog="telemetry-serve", description="Serve the channel telemetry API over HTTP."
    )
    parser.add_argument("--port", type=_port, default=8266)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument(
        "--sim-time",
        action="store_true",
        help="trust client-supplied created_at timestamps (deterministic replays)",
    )
    args = parser.parse_args(argv)

    store = None
    try:
        store = TelemetryStore(args.data_dir)
        server = TelemetryHTTPServer(store, port=args.port, sim_time=args.sim_time)
    except OSError as exc:  # a --data-dir that is a file or unreadable, a port in use
        if store is not None:
            store.close()
        print(f"telemetry-serve: cannot start: {exc}", file=sys.stderr)
        return 2
    # SIGTERM stops the server as Ctrl-C does, so the store closes and checkpoints.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        print(f"listening on {server.url}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        store.close()
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
